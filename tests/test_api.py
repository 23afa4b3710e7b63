"""The package exports one spelling per concept."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import swarmherd
from swarmherd import HerdingEnv, dynamics, environment, errors, graph, learner

from helpers import headline_env

# The ndarray step, encode and TD layer the loop kernels replaced, the
# general-graph layer that the grid-only topology replaced, and the rate
# type and step wrappers that HerdingEnv.repel replaced.
RETIRED = {
    environment: ("reward", "mse", "discretize"),
    learner: ("q_lookup", "select_action", "update_sarsa", "update_qlearning"),
    HerdingEnv: ("step", "observe", "state_index", "mse_to_target"),
    graph: ("is_strongly_connected", "out_neighbors"),
    graph.Graph: ("from_edges",),
    graph.make_grid(2, 2): ("edges",),
    HerdingEnv(headline_env()): ("rates",),
    dynamics: (
        "empirical_distribution",
        "TransitionRates",
        "follower_transition_probs",
        "step_dtmc",
        "assert_simplex",
        "mean_field_step",
    ),
    errors: ("EmptySwarmError", "InvalidRatesError", "SimplexError"),
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


def test_every_module_the_benchmark_tracer_wraps_imports():
    # perfbench/tracer.py tolerates a missing attribute but not a missing
    # module, so a retirement must keep every module its TARGETS name.
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text()
    targets = next(
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    modules = {module for _, module, _ in ast.literal_eval(targets)}
    assert "swarmherd.dynamics" in modules
    for module in sorted(modules):
        importlib.import_module(module)


def test_import_leaves_the_process_pool_unloaded():
    # Only a parallel sweep needs concurrent.futures.process; every other
    # command would pay for importing it.
    src = str(Path(swarmherd.__file__).resolve().parents[1])
    code = "import sys, swarmherd; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout == "False\n"
