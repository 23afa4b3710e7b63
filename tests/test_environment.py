import numpy as np
import pytest

from swarmherd import (
    Action,
    DiscretizedState,
    HerdingEnv,
    LeaderState,
    apply_leader_action,
    decode_state,
    discretize,
    empirical_distribution,
    encode_state,
    largest_remainder_counts,
    make_grid,
    mse,
    num_states,
    reward,
    valid_actions,
)
from swarmherd.environment import trace_header, trace_row
from swarmherd.errors import ConfigError, EncodingError, InvalidActionError

from helpers import HEADLINE_INITIAL, HEADLINE_TARGET, headline_env, smoke_env


@pytest.fixture(scope="module")
def grid():
    return make_grid(2, 2)


# --- actions -----------------------------------------------------------------

def test_valid_actions_corners(grid):
    assert valid_actions(grid, 0) == (Action.RIGHT, Action.DOWN, Action.STAY)
    assert valid_actions(grid, 3) == (Action.LEFT, Action.UP, Action.STAY)


def test_valid_actions_1x2():
    assert valid_actions(make_grid(1, 2), 0) == (Action.RIGHT, Action.STAY)


def test_valid_actions_center_has_all_five():
    g = make_grid(3, 3)
    assert valid_actions(g, 4) == tuple(Action)


def test_valid_actions_cardinality(grid):
    for v in range(4):
        acts = valid_actions(grid, v)
        assert Action.STAY in acts
        assert len(acts) == 1 + len(grid.neighbors[v])


def test_valid_actions_requires_grid():
    from swarmherd import Graph

    g = Graph.from_edges(2, [(0, 0), (1, 1), (0, 1), (1, 0)])
    with pytest.raises(ValueError):
        valid_actions(g, 0)


def test_apply_stay_raises_flag(grid):
    assert apply_leader_action(grid, LeaderState(0, 0), Action.STAY) == LeaderState(0, 1)


def test_apply_move_drops_flag(grid):
    assert apply_leader_action(grid, LeaderState(0, 1), Action.RIGHT) == LeaderState(1, 0)
    assert apply_leader_action(grid, LeaderState(3, 0), Action.UP) == LeaderState(1, 0)


def test_apply_invalid_move_raises(grid):
    with pytest.raises(InvalidActionError):
        apply_leader_action(grid, LeaderState(3, 0), Action.RIGHT)


# --- reward and mse ----------------------------------------------------------

def test_reward_identity_is_zero():
    t = np.array(HEADLINE_TARGET)
    assert reward(t, t) == 0.0


def test_reward_headline_distributions():
    assert abs(reward(np.array(HEADLINE_INITIAL), np.array(HEADLINE_TARGET)) - (-0.36)) < 1e-12


def test_reward_maximal_two_vertex():
    assert reward(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == -2.0


def test_mse_examples():
    t = np.array(HEADLINE_TARGET)
    assert mse(t, t) == 0.0
    assert abs(mse(np.array(HEADLINE_INITIAL), t) - 0.09) < 1e-12
    # one agent out of ten displaced between a vertex pair
    a = np.array([0.1, 0.4, 0.4, 0.1])
    b = np.array([0.2, 0.3, 0.4, 0.1])
    assert abs(mse(a, b) - 0.005) < 1e-12


def test_reward_is_minus_m_times_mse():
    rng = np.random.default_rng(0)
    for m in (2, 4, 6):
        for _ in range(50):
            a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))
            assert abs(reward(a, b) + m * mse(a, b)) < 1e-12


# --- discretization and encoding ----------------------------------------------

def test_discretize_examples():
    assert discretize(np.array([0.24, 0.76]), 10).tolist() == [2, 8]
    assert discretize(np.array([0.0, 1.0]), 10).tolist() == [0, 10]
    assert discretize(np.array(HEADLINE_INITIAL), 20).tolist() == [8, 2, 2, 8]


def test_discretize_rounds_half_away_from_zero():
    assert discretize(np.array([0.05, 0.95]), 10).tolist() == [1, 10]
    assert discretize(np.array([0.25, 0.75]), 2).tolist() == [1, 2]


def test_discretize_rounding_slack_is_bounded():
    # component totals drift from the bin count by at most M through rounding
    rng = np.random.default_rng(11)
    for m in (2, 4, 9):
        for bins in (1, 2, 10, 20):
            for _ in range(50):
                f = discretize(rng.dirichlet(np.ones(m)), bins)
                assert np.all(f >= 0) and np.all(f <= bins)
                assert abs(int(f.sum()) - bins) <= m


def test_encode_examples():
    assert encode_state(DiscretizedState((0, 0, 0, 0), 0), 10, 4) == 0
    assert encode_state(DiscretizedState((1, 0, 0, 0), 0), 10, 4) == 4


def test_encode_decode_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        fractions = tuple(int(x) for x in rng.integers(0, 11, size=4))
        state = DiscretizedState(fractions, int(rng.integers(4)))
        idx = encode_state(state, 10, 4)
        assert 0 <= idx < num_states(10, 4)
        assert decode_state(idx, 10, 4) == state


def test_encode_range_errors():
    with pytest.raises(EncodingError):
        encode_state(DiscretizedState((11, 0, 0, 0), 0), 10, 4)
    with pytest.raises(EncodingError):
        encode_state(DiscretizedState((0, 0, 0, 0), 4), 10, 4)
    with pytest.raises(EncodingError):
        encode_state(DiscretizedState((0, 0, 0), 0), 10, 4)
    with pytest.raises(EncodingError):
        decode_state(num_states(10, 4), 10, 4)


# --- reset ---------------------------------------------------------------------

def test_largest_remainder_examples():
    assert largest_remainder_counts(np.array(HEADLINE_INITIAL), 100).tolist() == [40, 10, 10, 40]
    assert largest_remainder_counts(np.array(HEADLINE_INITIAL), 10).tolist() == [4, 1, 1, 4]
    assert largest_remainder_counts(np.array([0.5, 0.5]), 7).tolist() == [4, 3]


def test_largest_remainder_always_sums(grid):
    rng = np.random.default_rng(2)
    for _ in range(200):
        dens = rng.dirichlet(np.ones(4))
        n = int(rng.integers(1, 500))
        counts = largest_remainder_counts(dens, n)
        assert counts.sum() == n
        assert counts.min() >= 0


def test_reset_counts_and_flag():
    cfg = headline_env()
    followers, leader = HerdingEnv(cfg).reset(np.random.default_rng(3))
    assert followers.tolist() == [40, 10, 10, 40]
    assert leader.flag == 0


def test_reset_leader_uniformish():
    cfg = headline_env()
    rng = np.random.default_rng(4)
    env = HerdingEnv(cfg)
    seen = {env.reset(rng)[1].vertex for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_reset_mean_field_returns_initial_exactly():
    cfg = headline_env(backend="mean-field")
    followers, _ = HerdingEnv(cfg).reset(np.random.default_rng(5))
    assert followers.tolist() == list(HEADLINE_INITIAL)


# --- HerdingEnv.step ----------------------------------------------------------

def test_env_step_mean_field_stay_example():
    cfg = headline_env(backend="mean-field")
    rng = np.random.default_rng(0)
    followers = np.array(HEADLINE_INITIAL)
    followers2, leader2, r, terminal = HerdingEnv(cfg).step(
        followers, LeaderState(0, 0), Action.STAY, rng
    )
    assert np.allclose(followers2, [0.32, 0.14, 0.14, 0.40], atol=1e-15)
    assert leader2 == LeaderState(0, 1)
    assert abs(r - (-0.2736)) < 1e-12
    assert terminal is False


def test_env_step_at_target_with_passive_move():
    cfg = headline_env(backend="mean-field")
    followers = np.array(HEADLINE_TARGET)
    followers2, leader2, r, terminal = HerdingEnv(cfg).step(
        followers, LeaderState(0, 0), Action.RIGHT, np.random.default_rng(0)
    )
    assert r == 0.0
    assert terminal is True
    assert np.array_equal(followers2, followers)


def test_env_step_terminal_iff_mse_below_mu():
    cfg = headline_env()
    rng = np.random.default_rng(6)
    env = HerdingEnv(cfg)
    followers, leader = env.reset(rng)
    for _ in range(50):
        action = valid_actions(make_grid(2, 2), leader.vertex)[0]
        followers, leader, r, terminal = env.step(followers, leader, action, rng)
        m = mse(empirical_distribution(followers), np.array(HEADLINE_TARGET))
        assert terminal == (m < cfg.mu)


def test_env_step_conserves_mass_both_backends():
    rng = np.random.default_rng(7)
    for backend in ("dtmc", "mean-field"):
        cfg = headline_env(backend=backend)
        env = HerdingEnv(cfg)
        followers, leader = env.reset(rng)
        for _ in range(100):
            acts = valid_actions(make_grid(2, 2), leader.vertex)
            followers, leader, _, _ = env.step(
                followers, leader, acts[int(rng.integers(len(acts)))], rng
            )
        if backend == "dtmc":
            assert followers.sum() == 100
        else:
            assert abs(followers.sum() - 1.0) < 1e-9


def test_env_step_invalid_action():
    cfg = headline_env()
    with pytest.raises(InvalidActionError):
        HerdingEnv(cfg).step(np.array([40, 10, 10, 40]), LeaderState(1, 0), Action.RIGHT,
                             np.random.default_rng(0))


@pytest.mark.parametrize("action", [1, 7, -1])
def test_env_step_rejects_bad_action_ints(action):
    env = HerdingEnv(headline_env())
    with pytest.raises(InvalidActionError, match=f"^{action} is not available"):
        env.step(np.array([40, 10, 10, 40]), LeaderState(1, 0), action, np.random.default_rng(0))
    with pytest.raises(InvalidActionError, match="is not available at vertex 1"):
        apply_leader_action(make_grid(2, 2), LeaderState(1, 0), action)


def test_mean_field_replay_is_bitwise_identical():
    cfg = headline_env(backend="mean-field")
    env = HerdingEnv(cfg)
    script = [Action.STAY, Action.RIGHT, Action.STAY, Action.DOWN, Action.STAY,
              Action.LEFT, Action.STAY, Action.UP, Action.STAY, Action.STAY]
    runs = []
    for _ in range(2):
        followers, leader = np.array(HEADLINE_INITIAL), LeaderState(0, 0)
        states = []
        for action in script:
            followers, leader, r, t = env.step(followers, leader, action, np.random.default_rng(0))
            states.append((followers.tobytes(), leader, r, t))
        runs.append(states)
    assert runs[0] == runs[1]


def test_env_step_matches_free_function_composition():
    # HerdingEnv.step and the op-by-op composition must consume the stream
    # identically and produce identical trajectories.
    from swarmherd import TransitionRates, step_dtmc

    cfg = headline_env()
    env = HerdingEnv(cfg)
    g = make_grid(2, 2)
    rates = TransitionRates.uniform(g, cfg.beta)
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(11)
    followers_a, leader_a = env.reset(rng_a)
    followers_b, leader_b = HerdingEnv(cfg).reset(rng_b)
    for k in range(200):
        action = valid_actions(g, leader_a.vertex)[k % 3]
        followers_a, leader_a, r_a, t_a = env.step(followers_a, leader_a, action, rng_a)
        leader_b = apply_leader_action(g, leader_b, action)
        followers_b = step_dtmc(g, rates, leader_b, followers_b, rng_b)
        dist = empirical_distribution(followers_b)
        r_b = reward(dist, np.array(HEADLINE_TARGET))
        t_b = mse(dist, np.array(HEADLINE_TARGET)) < cfg.mu
        assert followers_a.tolist() == followers_b.tolist()
        assert leader_a == leader_b
        assert r_a == r_b and t_a == t_b


def test_state_index_matches_encode_pipeline():
    rng = np.random.default_rng(8)
    for backend in ("dtmc", "mean-field"):
        cfg = headline_env(backend=backend)
        env = HerdingEnv(cfg)
        followers, leader = env.reset(rng)
        for _ in range(300):
            acts = env.actions[leader.vertex]
            followers, leader, _, _ = env.step(
                followers, leader, acts[int(rng.integers(len(acts)))], rng
            )
            expected = encode_state(
                DiscretizedState(
                    tuple(int(x) for x in discretize(env.observe(followers), cfg.bins)),
                    leader.vertex,
                ),
                cfg.bins,
                cfg.num_vertices,
            )
            assert env.state_index(followers, leader.vertex) == expected


# --- config validation ----------------------------------------------------------

def test_env_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        headline_env(beta=0.5)  # 0.5 * degree 2 = 1.0
    with pytest.raises(ConfigError):
        headline_env(beta=-0.1)
    with pytest.raises(ConfigError):
        headline_env(mu=0.0)
    with pytest.raises(ConfigError):
        headline_env(bins=0)
    with pytest.raises(ConfigError):
        headline_env(num_agents=0)
    with pytest.raises(ConfigError):
        headline_env(backend="magic")
    with pytest.raises(ConfigError):
        headline_env(initial_dist=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ConfigError):
        headline_env(target_dist=(1.0, 0.0, 0.0))


def test_smoke_config_is_valid():
    cfg = smoke_env()
    assert cfg.num_vertices == 2


# --- trace format -----------------------------------------------------------------

def test_trace_header_names_all_columns():
    assert trace_header(headline_env()) == (
        "iteration,leader_vertex,leader_flag,action,count_0,count_1,count_2,count_3,"
        "reward,mse,terminal"
    )
    assert "density_0" in trace_header(headline_env(backend="mean-field"))


def test_trace_row_formats():
    row = trace_row(0, LeaderState(2, 0), None, np.array([40, 10, 10, 40]), -0.36, 0.09, False)
    assert row == "0,2,0,,40,10,10,40,-0.36,0.09,false"
    row = trace_row(3, LeaderState(1, 1), Action.STAY, np.array([0.4, 0.1, 0.1, 0.4]),
                    -0.36, 0.09, True)
    assert row == "3,1,1,Stay,0.4,0.1,0.1,0.4,-0.36,0.09,true"
