import math

import numpy as np
import pytest

from swarmherd import (
    Action,
    DiscretizedState,
    EnvConfig,
    HerdingEnv,
    LeaderState,
    decode_state,
    encode_state,
    largest_remainder_counts,
    num_states,
)
from swarmherd import environment
from swarmherd.environment import trace_header, trace_row
from swarmherd.errors import ConfigError, EncodingError

import oracles
from helpers import (
    HEADLINE_INITIAL,
    HEADLINE_TARGET,
    grid_env,
    headline_env,
    kernel_step,
    smoke_env,
)


@pytest.fixture(scope="module")
def grid():
    return grid_env(2, 2)


# --- actions: HerdingEnv.action_ids and HerdingEnv.moves -------------------------

def test_valid_actions_corners(grid):
    env = HerdingEnv(grid)
    assert env.action_ids[0] == (Action.RIGHT, Action.DOWN, Action.STAY)
    assert env.action_ids[3] == (Action.LEFT, Action.UP, Action.STAY)


def test_valid_actions_1x2():
    assert HerdingEnv(grid_env(1, 2)).action_ids[0] == (Action.RIGHT, Action.STAY)


def test_valid_actions_center_has_all_five():
    assert HerdingEnv(grid_env(3, 3)).action_ids[4] == tuple(Action)


def test_valid_actions_cardinality(grid):
    env = HerdingEnv(grid)
    for v in range(4):
        acts = env.action_ids[v]
        assert Action.STAY in acts
        assert len(acts) == 1 + len(env.neighbors[v])


def test_apply_stay_raises_flag(grid):
    assert HerdingEnv(grid).moves[0][Action.STAY] == LeaderState(0, 1)


def test_apply_move_drops_flag(grid):
    moves = HerdingEnv(grid).moves
    assert moves[0][Action.RIGHT] == LeaderState(1, 0)
    assert moves[3][Action.UP] == LeaderState(1, 0)


def test_apply_invalid_move_raises(grid):
    with pytest.raises(KeyError):
        HerdingEnv(grid).moves[3][Action.RIGHT]


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2), (2, 3), (3, 3), (1, 5), (5, 4)])
def test_move_tables_match_the_coordinate_oracle(rows, cols):
    env = HerdingEnv(grid_env(rows, cols))
    vertices = range(rows * cols)
    expected = tuple(oracles.leader_moves(rows, cols, v) for v in vertices)
    assert env.moves == expected
    assert env.action_ids == tuple(tuple(row) for row in expected)
    assert env.neighbors == tuple(tuple(oracles.grid_neighbors(rows, cols, v)) for v in vertices)
    # Plain ints, as the loops index the table rows with them.
    assert all(type(a) is int for row in env.action_ids for a in row)


# --- reward, mse and discretization, read through HerdingEnv.score ------------

def density_env(target, bins=10) -> HerdingEnv:
    """A mean-field env on the smallest grid with len(target) vertices, so
    ``score`` reads densities as they are."""
    rows, cols = {2: (1, 2), 4: (2, 2), 6: (2, 3), 9: (3, 3)}[len(target)]
    uniform = tuple(1.0 / len(target) for _ in target)
    return HerdingEnv(EnvConfig(rows, cols, 10, 0.1, bins, 0.0025, uniform, tuple(target),
                                backend="mean-field"))


def reward_and_mse(current, target):
    sq, _ = density_env(target).score(list(current))
    return -sq, sq / len(target)


def discretized(density, bins):
    """The fractions ``score`` encodes, decoded with the leader at vertex 0."""
    m = len(density)
    _, code = density_env(tuple(1.0 / m for _ in density), bins).score(list(density))
    return list(decode_state(m * code, bins, m).fractions)


def test_reward_identity_is_zero():
    assert reward_and_mse(HEADLINE_TARGET, HEADLINE_TARGET)[0] == 0.0


def test_reward_headline_distributions():
    assert abs(reward_and_mse(HEADLINE_INITIAL, HEADLINE_TARGET)[0] - (-0.36)) < 1e-12


def test_reward_maximal_two_vertex():
    assert reward_and_mse([1.0, 0.0], [0.0, 1.0])[0] == -2.0


def test_mse_examples():
    assert reward_and_mse(HEADLINE_TARGET, HEADLINE_TARGET)[1] == 0.0
    assert abs(reward_and_mse(HEADLINE_INITIAL, HEADLINE_TARGET)[1] - 0.09) < 1e-12
    # one agent out of ten displaced between a vertex pair
    a = [0.1, 0.4, 0.4, 0.1]
    b = [0.2, 0.3, 0.4, 0.1]
    assert abs(reward_and_mse(a, b)[1] - 0.005) < 1e-12


def test_reward_is_minus_m_times_mse():
    rng = np.random.default_rng(0)
    for m in (2, 4, 6):
        for _ in range(50):
            a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))
            r, e = reward_and_mse(a, b)
            assert r == oracles.reward(a, b)
            assert e == oracles.mse(a, b)
            assert abs(r + m * e) < 1e-12


def test_score_adds_the_squares_left_to_right():
    """On these headline counts the left-to-right sum differs in its last bit
    from the reversed sum, from ``math.fsum`` and from ``np.dot`` under
    OpenBLAS's SkylakeX kernel."""
    counts = [0, 0, 4, 96]
    d0, d1, d2, d3 = (c / 100 - t for c, t in zip(counts, HEADLINE_TARGET))
    left_to_right = ((d0 * d0 + d1 * d1) + d2 * d2) + d3 * d3
    assert left_to_right != ((d3 * d3 + d2 * d2) + d1 * d1) + d0 * d0
    assert HerdingEnv(headline_env()).score(counts)[0].hex() == left_to_right.hex()


def test_discretize_examples():
    assert discretized([0.24, 0.76], 10) == [2, 8]
    assert discretized([0.0, 1.0], 10) == [0, 10]
    assert discretized(HEADLINE_INITIAL, 20) == [8, 2, 2, 8]


def test_discretize_rounds_half_away_from_zero():
    assert discretized([0.05, 0.95], 10) == [1, 10]
    assert discretized([0.25, 0.75], 2) == [1, 2]


def test_discretize_rounding_slack_is_bounded():
    # component totals drift from the bin count by at most M through rounding
    rng = np.random.default_rng(11)
    for m in (2, 4, 9):
        for bins in (1, 2, 10, 20):
            for _ in range(50):
                density = rng.dirichlet(np.ones(m))
                f = discretized(density, bins)
                assert f == oracles.discretize(density, bins).tolist()
                assert min(f) >= 0 and max(f) <= bins
                assert abs(sum(f) - bins) <= m


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


@pytest.mark.parametrize("dist,n", [
    ((0.5 - 5e-10, 0.5), 10**12),
    ((0.5 + 5e-10, 0.5), 10**12),
    ((0.25, 0.25, 0.25, 0.25 - 9e-10), 10**12),
    # Near 2**53 a share's rounding error alone reaches whole agents.
    ((0.6821692932799132, 0.3178307060718144), 9007199254740352),
])
def test_largest_remainder_sums_when_the_distribution_is_off_by_rounding(dist, n):
    # EnvConfig admits a sum that is off 1 by up to SIMPLEX_ATOL.
    assert abs(sum(dist) - 1.0) <= environment.SIMPLEX_ATOL
    assert int(largest_remainder_counts(dist, n).sum()) == n
    cfg = grid_env(1 if len(dist) == 2 else 2, 2)
    cfg = EnvConfig(cfg.rows, cfg.cols, n, 0.1, 10, 0.0025, dist, dist)
    assert sum(HerdingEnv(cfg).start) == n


def test_reset_counts_and_flag():
    cfg = headline_env()
    env = HerdingEnv(cfg)
    followers, vertex = env.reset(np.random.default_rng(3))
    assert followers == (40, 10, 10, 40) and followers is env.start
    assert all(type(x) is int for x in followers)
    assert type(vertex) is int and 0 <= vertex < 4


def test_reset_leader_uniformish():
    cfg = headline_env()
    rng = np.random.default_rng(4)
    env = HerdingEnv(cfg)
    seen = {env.reset(rng)[1] for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_reset_mean_field_returns_initial_exactly():
    cfg = headline_env(backend="mean-field")
    followers, _ = HerdingEnv(cfg).reset(np.random.default_rng(5))
    assert followers == HEADLINE_INITIAL and followers is cfg.initial_dist


@pytest.mark.parametrize("backend", ["dtmc", "mean-field"])
def test_reset_score_is_the_oracle_score_of_the_reset_state(backend):
    env = HerdingEnv(headline_env(backend=backend))
    followers, vertex = env.reset(np.random.default_rng(6))
    sq, code = env.reset_score
    target = env.cfg.target_dist
    assert (-sq).hex() == oracles.reward(oracles.observe(env, followers), target).hex()
    assert vertex + 4 * code == oracles.state_index(env, followers, vertex)


# --- one iteration on the loop kernels ------------------------------------------

def test_env_step_mean_field_stay_example():
    env = HerdingEnv(headline_env(backend="mean-field"))
    rng = np.random.default_rng(0)
    followers2, leader2, r, terminal = kernel_step(
        env, list(HEADLINE_INITIAL), LeaderState(0, 0), Action.STAY, rng
    )
    assert np.allclose(followers2, [0.32, 0.14, 0.14, 0.40], atol=1e-15)
    assert leader2 == LeaderState(0, 1)
    assert abs(r - (-0.2736)) < 1e-12
    assert terminal is False


def test_env_step_at_target_with_passive_move():
    env = HerdingEnv(headline_env(backend="mean-field"))
    followers = list(HEADLINE_TARGET)
    followers2, leader2, r, terminal = kernel_step(
        env, followers, LeaderState(0, 0), Action.RIGHT, np.random.default_rng(0)
    )
    assert leader2 == LeaderState(1, 0)
    assert r == 0.0
    assert terminal is True
    assert followers2 == followers


def test_env_step_terminal_iff_mse_below_mu():
    cfg = headline_env()
    rng = np.random.default_rng(6)
    env = HerdingEnv(cfg)
    followers, v = env.reset(rng)
    leader = LeaderState(v, 0)
    for _ in range(200):
        acts = env.action_ids[leader.vertex]
        action = acts[int(rng.integers(len(acts)))]
        followers, leader, r, terminal = kernel_step(env, followers, leader, action, rng)
        m = oracles.mse(np.array(followers) / cfg.num_agents, np.array(HEADLINE_TARGET))
        assert terminal == (m < cfg.mu)
        assert r == -4 * m


def test_env_step_conserves_mass_both_backends():
    rng = np.random.default_rng(7)
    for backend in ("dtmc", "mean-field"):
        cfg = headline_env(backend=backend)
        env = HerdingEnv(cfg)
        followers, v = env.reset(rng)
        leader = LeaderState(v, 0)
        for _ in range(100):
            acts = env.action_ids[leader.vertex]
            followers, leader, _, _ = kernel_step(
                env, followers, leader, acts[int(rng.integers(len(acts)))], rng
            )
        if backend == "dtmc":
            assert sum(followers) == 100
        else:
            assert abs(sum(followers) - 1.0) < 1e-9


def test_env_step_invalid_action():
    # The move table holds exactly the valid actions; Right leaves the grid at v1.
    env = HerdingEnv(headline_env())
    assert tuple(env.moves[1]) == env.action_ids[1] == (Action.LEFT, Action.DOWN, Action.STAY)
    with pytest.raises(KeyError):
        env.moves[1][Action.RIGHT]


@pytest.mark.parametrize("action", [1, 7, -1])
def test_env_step_rejects_bad_action_ints(action):
    env = HerdingEnv(headline_env())
    assert action not in env.moves[1]
    with pytest.raises(KeyError):
        env.moves[1][action]


def test_mean_field_replay_is_bitwise_identical():
    cfg = headline_env(backend="mean-field")
    env = HerdingEnv(cfg)
    script = [Action.STAY, Action.RIGHT, Action.STAY, Action.DOWN, Action.STAY,
              Action.LEFT, Action.STAY, Action.UP, Action.STAY, Action.STAY]
    runs = []
    for _ in range(2):
        followers, leader = list(HEADLINE_INITIAL), LeaderState(0, 0)
        states = []
        for action in script:
            followers, leader, r, t = kernel_step(
                env, followers, leader, action, np.random.default_rng(0)
            )
            states.append((np.array(followers).tobytes(), leader, r, t))
        runs.append(states)
    assert runs[0] == runs[1]


def _repel_walk(env, rounds=2):
    """Repel around the 2x2 grid from the headline start, ``rounds`` times over,
    on a fixed seed, as (followers, sq, code) with every value spelled by
    ``float.hex``."""
    rng = np.random.default_rng(11)
    start = env.reset(rng)[0]
    out = []
    for _ in range(rounds):
        followers = start
        for k in range(12):
            followers, sq, code = env.repel(followers, (0, 1, 3, 2)[k % 4], rng)
            out.append(([float(x).hex() for x in followers], sq.hex(), code))
    return out


@pytest.mark.parametrize("backend", ["dtmc", "mean-field"])
def test_repel_memo_stops_growing_at_its_bound(monkeypatch, backend):
    reference = _repel_walk(HerdingEnv(headline_env(backend=backend)))
    monkeypatch.setattr(environment, "MAX_MEMO_ENTRIES", 3)
    env = HerdingEnv(headline_env(backend=backend))
    # The second round hits the stored entries and recomputes the rest.
    assert _repel_walk(env) == reference
    assert len(env._memo) == 3


def test_mean_field_repel_returns_an_immutable_density():
    env = HerdingEnv(headline_env(backend="mean-field"))
    followers, _, _ = env.repel(list(HEADLINE_INITIAL), 0, None)
    with pytest.raises(TypeError):
        followers[0] = 1.0
    hit, _, _ = env.repel(list(HEADLINE_INITIAL), 0, None)
    assert hit == followers
    assert np.allclose(hit, [0.32, 0.14, 0.14, 0.40], atol=1e-15)


def test_negative_zero_density_repels_like_zero():
    # A memo key compares -0.0 equal to 0.0, so the config must not carry -0.0.
    cfg = headline_env(backend="mean-field", initial_dist=(0.0, -0.0, 0.0, 1.0))
    assert [math.copysign(1.0, x) for x in cfg.initial_dist] == [1.0] * 4
    start = list(cfg.initial_dist)

    def drain_then_repel(env):
        # Repelling at the empty vertex 0 adds 0.0 to vertex 1.
        return [x.hex() for x in env.repel(env.repel(start, 0, None)[0], 2, None)[0]]

    seen = HerdingEnv(cfg)
    seen.repel(start, 2, None)
    assert drain_then_repel(seen) == drain_then_repel(HerdingEnv(cfg))


def test_env_step_matches_free_function_composition():
    # The kernels and the documented propagators must consume the stream
    # identically and produce identical trajectories.
    for backend in ("dtmc", "mean-field"):
        env = HerdingEnv(headline_env(backend=backend))
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        followers_a, v_a = env.reset(rng_a)
        followers_b, v_b = env.reset(rng_b)
        leader_a, leader_b = LeaderState(v_a, 0), LeaderState(v_b, 0)
        for k in range(200):
            action = env.action_ids[leader_a.vertex][k % 3]
            followers_a, leader_a, r_a, t_a = kernel_step(
                env, followers_a, leader_a, action, rng_a
            )
            followers_b, leader_b, r_b, t_b = oracles.reference_step(
                env, followers_b, leader_b, action, rng_b
            )
            assert list(followers_a) == followers_b.tolist()
            assert leader_a == leader_b
            assert r_a == r_b and t_a == t_b
        assert rng_a.random() == rng_b.random()


def test_state_index_matches_encode_pipeline():
    rng = np.random.default_rng(8)
    for backend in ("dtmc", "mean-field"):
        cfg = headline_env(backend=backend)
        env = HerdingEnv(cfg)
        followers, v = env.reset(rng)
        leader = LeaderState(v, 0)
        for _ in range(300):
            acts = env.action_ids[leader.vertex]
            followers, leader, _, _ = kernel_step(
                env, followers, leader, acts[int(rng.integers(len(acts)))], rng
            )
            _, code = env.score(followers)
            expected = oracles.state_index(env, followers, leader.vertex)
            assert leader.vertex + cfg.num_vertices * code == expected


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
    nan, inf = float("nan"), float("inf")
    for mu in (nan, inf, -inf):
        with pytest.raises(ConfigError, match="mu="):
            headline_env(mu=mu)
    for bad in ((nan, 0.5, 0.25, 0.25), (1.5, -0.5, 0.0, 0.0), (inf, 0.0, 0.0, 0.0)):
        for name in ("initial_dist", "target_dist"):
            with pytest.raises(ConfigError, match=name):
                headline_env(**{name: bad})


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
