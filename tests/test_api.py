"""The package exports one spelling per concept."""

import swarmherd
from swarmherd import HerdingEnv, TransitionRates, dynamics, environment, errors, graph, learner

# The ndarray step, encode and TD layer the loop kernels replaced, and the
# general-graph layer that the grid-only topology replaced.
RETIRED = {
    environment: ("reward", "mse", "discretize"),
    learner: ("q_lookup", "select_action", "update_sarsa", "update_qlearning"),
    HerdingEnv: ("step", "observe", "state_index", "mse_to_target"),
    graph: ("is_strongly_connected", "out_neighbors"),
    graph.Graph: ("from_edges",),
    graph.make_grid(2, 2): ("edges",),
    TransitionRates: ("from_edge_rates",),
    dynamics: ("empirical_distribution",),
    errors: ("EmptySwarmError",),
}


def test_public_names_resolve_once_and_exclude_retired_ones():
    names = swarmherd.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(swarmherd, name) is not None, name
    for owner, retired in RETIRED.items():
        for name in retired:
            assert name not in names
            assert not hasattr(swarmherd, name)
            assert not hasattr(owner, name), f"{owner!r}.{name}"
