"""The follower repel step, as the loops run it through ``HerdingEnv.repel``."""

import numpy as np
import pytest

from swarmherd import HerdingEnv, LeaderState
from swarmherd.errors import ConfigError

from helpers import headline_env, kernel_step
from oracles import grid_neighbors, mean_field_matrix_step


@pytest.fixture(scope="module")
def counts_env():
    return HerdingEnv(headline_env())


@pytest.fixture(scope="module")
def density_env():
    return HerdingEnv(headline_env(backend="mean-field"))


def random_simplex(rng, m):
    return rng.dirichlet(np.ones(m))


def unit_mass(m, v):
    return [1.0 if u == v else 0.0 for u in range(m)]


# --- transition rates: one beta, checked by EnvConfig -------------------------

def test_uniform_rates_reject_sum_at_or_above_one():
    for rows, cols, beta in ((2, 2, 0.5), (3, 4, 0.25), (2, 2, float("inf"))):
        m = rows * cols
        with pytest.raises(ConfigError, match="beta="):
            headline_env(rows=rows, cols=cols, beta=beta,
                         initial_dist=unit_mass(m, 0), target_dist=unit_mass(m, 1))


def test_rates_must_be_positive():
    for beta in (0.0, -0.0, -0.1, -float("inf")):
        with pytest.raises(ConfigError, match="beta="):
            headline_env(beta=beta)


def test_rates_reject_nan():
    with pytest.raises(ConfigError, match="beta="):
        headline_env(beta=float("nan"))


def test_rates_must_cover_every_edge():
    for rows, cols in ((1, 2), (2, 2), (3, 4)):
        env = HerdingEnv(headline_env(
            rows=rows, cols=cols, backend="mean-field",
            initial_dist=unit_mass(rows * cols, 0), target_dist=unit_mass(rows * cols, 1),
        ))
        m = rows * cols
        for v in range(m):
            out, _, _ = env.repel(unit_mass(m, v), v, None)
            nbrs = grid_neighbors(rows, cols, v)
            assert [out[u] for u in nbrs] == [0.1] * len(nbrs)
            assert out[v] == 1.0 - sum([0.1] * len(nbrs))
            assert all(out[u] == 0.0 for u in range(m) if u != v and u not in nbrs)


def test_probs_repelling_leader(density_env):
    out, _, _ = density_env.repel(unit_mass(4, 0), 0, None)
    assert list(out) == [0.8, 0.1, 0.1, 0.0]


def test_probs_sum_to_one_for_all_rates():
    for beta in (0.025, 0.05, 0.1, 0.375, 0.4999):
        env = HerdingEnv(headline_env(beta=beta, backend="mean-field"))
        for v in range(4):
            out, _, _ = env.repel(unit_mass(4, v), v, None)
            assert sum([out[u] for u in grid_neighbors(2, 2, v)] + [out[v]]) == 1.0


# --- counts stepping ---------------------------------------------------------

def passive_steps_are_identity(env, followers):
    """Every move keeps the followers object as it is and draws nothing."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for v in range(env.cfg.num_vertices):
        for a in env.action_ids[v][:-1]:
            out, leader, _, _ = kernel_step(env, followers, LeaderState(v, 1), a, rng)
            assert leader.flag == 0
            assert out is followers
    assert rng.bit_generator.state == state


def test_step_passive_leader_is_identity(counts_env):
    passive_steps_are_identity(counts_env, [40, 10, 10, 40])


def test_step_conserves_total(counts_env):
    rng = np.random.default_rng(1)
    counts = [40, 10, 10, 40]
    for _ in range(200):
        counts, _, _ = counts_env.repel(counts, int(rng.integers(4)), rng)
        assert sum(counts) == 100
        assert min(counts) >= 0


def test_step_locality(counts_env):
    rng = np.random.default_rng(2)
    counts = [25, 25, 25, 25]
    for v in range(4):
        out, _, _ = counts_env.repel(counts, v, rng)
        touchable = {v, *grid_neighbors(2, 2, v)}
        for u in range(4):
            if u not in touchable:
                assert out[u] == counts[u]


def test_step_expected_counts(counts_env):
    # With 40 agents repelled at rate 0.1 toward two neighbors, four agents
    # leave along each edge on average: E[next] = [32, 14, 14, 40].
    rng = np.random.default_rng(3)
    counts = [40, 10, 10, 40]
    total = np.zeros(4)
    draws = 100_000
    for _ in range(draws):
        total += counts_env.repel(counts, 0, rng)[0]
    mean = total / draws
    assert np.all(np.abs(mean - np.array([32.0, 14.0, 14.0, 40.0])) < 0.1)


def test_step_deterministic_for_seed(counts_env):
    seqs = []
    for _ in range(2):
        rng = np.random.default_rng(77)
        c = [40, 10, 10, 40]
        seq = []
        for _ in range(50):
            c, _, _ = counts_env.repel(c, 0, rng)
            seq.append(c)
        seqs.append(seq)
    assert seqs[0] == seqs[1]


# --- mean-field stepping -----------------------------------------------------

def test_mean_field_example(density_env):
    out, _, _ = density_env.repel([0.25] * 4, 2, None)
    assert np.allclose(out, [0.275, 0.25, 0.20, 0.275], atol=1e-15)


def test_mean_field_passive_identity(density_env):
    passive_steps_are_identity(density_env, [0.4, 0.1, 0.1, 0.4])


def test_mean_field_large_rate_stays_on_simplex():
    # rate * neighbors = 1 - 1/M at the leader's vertex
    env = HerdingEnv(headline_env(beta=0.375, backend="mean-field"))
    out, _, _ = env.repel([0.25] * 4, 0, None)
    assert abs(sum(out) - 1.0) < 1e-12
    assert min(out) >= 0.0


def test_mean_field_per_step_conservation(density_env):
    rng = np.random.default_rng(4)
    dens = random_simplex(rng, 4).tolist()
    for _ in range(1000):
        nxt, _, _ = density_env.repel(dens, int(rng.integers(4)), None)
        assert abs(sum(nxt) - sum(dens)) < 1e-12
        assert min(nxt) >= 0.0
        dens = nxt


def test_mean_field_matches_matrix_oracle(density_env):
    rng = np.random.default_rng(5)
    for _ in range(200):
        dens = random_simplex(rng, 4)
        v = int(rng.integers(4))
        fast, _, _ = density_env.repel(dens.tolist(), v, None)
        slow = mean_field_matrix_step(density_env.cfg, 0.1, LeaderState(v, 1), dens)
        assert np.all(np.abs(np.array(fast) - slow) < 1e-12)


# --- law of large numbers (light version; the full sweep runs in acceptance) --

def test_empirical_approaches_mean_field_with_population(density_env):
    def gap(n, seed):
        env = HerdingEnv(headline_env(num_agents=n))
        rng = np.random.default_rng(seed)
        counts = (np.array([0.4, 0.1, 0.1, 0.4]) * n).astype(np.int64).tolist()
        dens = [0.4, 0.1, 0.1, 0.4]
        leader = LeaderState(0, 0)
        for k in range(50):
            leader = env.moves[leader.vertex][env.action_ids[leader.vertex][k % 3]]
            if leader.flag:
                counts, _, _ = env.repel(counts, leader.vertex, rng)
                dens, _, _ = density_env.repel(dens, leader.vertex, None)
        return np.max(np.abs(np.array(counts) / n - np.array(dens)))

    small = np.mean([gap(100, s) for s in range(5)])
    big = np.mean([gap(100_000, s) for s in range(5)])
    assert big < small
