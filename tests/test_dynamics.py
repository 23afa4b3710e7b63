import numpy as np
import pytest

from swarmherd import (
    LeaderState,
    TransitionRates,
    apply_leader_action,
    follower_transition_probs,
    make_grid,
    mean_field_step,
    step_dtmc,
    valid_actions,
)
from swarmherd.errors import InvalidRatesError, SimplexError

from oracles import mean_field_matrix_step


@pytest.fixture(scope="module")
def grid():
    return make_grid(2, 2)


@pytest.fixture(scope="module")
def rates(grid):
    return TransitionRates.uniform(grid, 0.1)


def random_simplex(rng, m):
    return rng.dirichlet(np.ones(m))


# --- transition rates --------------------------------------------------------

def test_uniform_rates_reject_sum_at_or_above_one(grid):
    with pytest.raises(InvalidRatesError):
        TransitionRates.uniform(grid, 0.5)  # two neighbors -> sum 1.0


def test_rates_must_be_positive(grid):
    with pytest.raises(InvalidRatesError):
        TransitionRates.uniform(grid, 0.0)
    with pytest.raises(InvalidRatesError):
        TransitionRates.uniform(grid, -0.1)


def test_rates_reject_nan(grid):
    with pytest.raises(InvalidRatesError):
        TransitionRates.uniform(grid, float("nan"))


def test_rates_must_cover_every_edge():
    for g in (make_grid(1, 2), make_grid(2, 2), make_grid(3, 4)):
        rates = TransitionRates.uniform(g, 0.1)
        assert [len(row) for row in rates.per_vertex] == [len(n) for n in g.neighbors]
        assert all(b == 0.1 for row in rates.per_vertex for b in row)


# --- follower transition probabilities --------------------------------------

def test_probs_repelling_leader(grid, rates):
    probs = follower_transition_probs(grid, rates, LeaderState(0, 1), 0)
    assert probs.tolist() == [0.1, 0.1, 0.8]
    assert probs.sum() == 1.0


def test_probs_passive_leader(grid, rates):
    probs = follower_transition_probs(grid, rates, LeaderState(0, 0), 0)
    assert probs.tolist() == [0.0, 0.0, 1.0]


def test_probs_leader_elsewhere(grid, rates):
    probs = follower_transition_probs(grid, rates, LeaderState(1, 1), 0)
    assert probs.tolist() == [0.0, 0.0, 1.0]


def test_probs_sum_to_one_for_all_rates(grid):
    for beta in (0.025, 0.05, 0.1, 0.375, 0.4999):
        r = TransitionRates.uniform(grid, beta)
        for v in range(4):
            assert follower_transition_probs(grid, r, LeaderState(v, 1), v).sum() == 1.0


# --- counts stepping ---------------------------------------------------------

def test_step_passive_leader_is_identity(grid, rates):
    counts = np.array([40, 10, 10, 40])
    out = step_dtmc(grid, rates, LeaderState(0, 0), counts, np.random.default_rng(0))
    assert out.tolist() == [40, 10, 10, 40]
    assert out is not counts


def test_step_conserves_total(grid, rates):
    rng = np.random.default_rng(1)
    counts = np.array([40, 10, 10, 40])
    for k in range(200):
        leader = LeaderState(int(rng.integers(4)), int(rng.integers(2)))
        counts = step_dtmc(grid, rates, leader, counts, rng)
        assert counts.sum() == 100
        assert counts.min() >= 0


def test_step_locality(grid, rates):
    rng = np.random.default_rng(2)
    counts = np.array([25, 25, 25, 25])
    for v in range(4):
        out = step_dtmc(grid, rates, LeaderState(v, 1), counts, rng)
        touchable = {v, *grid.neighbors[v]}
        for u in range(4):
            if u not in touchable:
                assert out[u] == counts[u]


def test_step_expected_counts(grid, rates):
    # With 40 agents repelled at rate 0.1 toward two neighbors, four agents
    # leave along each edge on average: E[next] = [32, 14, 14, 40].
    rng = np.random.default_rng(3)
    counts = np.array([40, 10, 10, 40])
    total = np.zeros(4)
    draws = 100_000
    for _ in range(draws):
        total += step_dtmc(grid, rates, LeaderState(0, 1), counts, rng)
    mean = total / draws
    assert np.all(np.abs(mean - np.array([32.0, 14.0, 14.0, 40.0])) < 0.1)


def test_step_deterministic_for_seed(grid, rates):
    counts = np.array([40, 10, 10, 40])
    seqs = []
    for _ in range(2):
        rng = np.random.default_rng(77)
        c = counts
        seq = []
        for _ in range(50):
            c = step_dtmc(grid, rates, LeaderState(0, 1), c, rng)
            seq.append(c.tolist())
        seqs.append(seq)
    assert seqs[0] == seqs[1]


# --- mean-field stepping -----------------------------------------------------

def test_mean_field_example(grid, rates):
    out = mean_field_step(grid, rates, LeaderState(2, 1), np.full(4, 0.25))
    assert np.allclose(out, [0.275, 0.25, 0.20, 0.275], atol=1e-15)


def test_mean_field_passive_identity(grid, rates):
    dens = np.array([0.4, 0.1, 0.1, 0.4])
    out = mean_field_step(grid, rates, LeaderState(2, 0), dens)
    assert np.array_equal(out, dens)


def test_mean_field_large_rate_stays_on_simplex(grid):
    # rate * neighbors = 1 - 1/M at the leader's vertex
    r = TransitionRates.uniform(make_grid(2, 2), 0.375)
    out = mean_field_step(make_grid(2, 2), r, LeaderState(0, 1), np.full(4, 0.25))
    assert abs(out.sum() - 1.0) < 1e-12
    assert out.min() >= 0.0


def test_mean_field_rejects_off_simplex(grid, rates):
    with pytest.raises(SimplexError):
        mean_field_step(grid, rates, LeaderState(0, 1), np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(SimplexError):
        mean_field_step(grid, rates, LeaderState(0, 1), np.array([1.2, -0.2, 0.0, 0.0]))


def test_mean_field_per_step_conservation(grid, rates):
    rng = np.random.default_rng(4)
    dens = random_simplex(rng, 4)
    for k in range(1000):
        leader = LeaderState(int(rng.integers(4)), 1)
        nxt = mean_field_step(grid, rates, leader, dens)
        assert abs(nxt.sum() - dens.sum()) < 1e-12
        assert nxt.min() >= 0.0
        dens = nxt


def test_mean_field_matches_matrix_oracle(grid, rates):
    rng = np.random.default_rng(5)
    for _ in range(200):
        dens = random_simplex(rng, 4)
        leader = LeaderState(int(rng.integers(4)), int(rng.integers(2)))
        fast = mean_field_step(grid, rates, leader, dens)
        slow = mean_field_matrix_step(grid, rates, leader, dens)
        assert np.all(np.abs(fast - slow) < 1e-12)


# --- law of large numbers (light version; the full sweep runs in acceptance) --

def test_empirical_approaches_mean_field_with_population(grid, rates):
    def gap(n, seed):
        rng = np.random.default_rng(seed)
        counts = (np.array([0.4, 0.1, 0.1, 0.4]) * n).astype(np.int64)
        dens = np.array([0.4, 0.1, 0.1, 0.4])
        leader = LeaderState(0, 0)
        for k in range(50):
            action = valid_actions(grid, leader.vertex)[k % 3]
            leader = apply_leader_action(grid, leader, action)
            counts = step_dtmc(grid, rates, leader, counts, rng)
            dens = mean_field_step(grid, rates, leader, dens)
        return np.max(np.abs(counts / n - dens))

    small = np.mean([gap(100, s) for s in range(5)])
    big = np.mean([gap(100_000, s) for s in range(5)])
    assert big < small
