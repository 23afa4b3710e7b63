import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmherd import (
    Action,
    HerdingEnv,
    LeaderState,
    QTable,
    RunRecord,
    SweepCell,
    derive_seed,
    evaluate,
    sweep,
    train,
)
from swarmherd.environment import BACKENDS, NUM_ACTIONS, decode_state, num_states
from swarmherd.errors import CompatibilityError, ConfigError
from swarmherd.learner import greedy_action_index

import oracles
from helpers import fill_random, headline_env, put, smoke_env, smoke_train
from oracles import PolicyOracle


def test_train_config_requires_positive_budgets():
    with pytest.raises(ConfigError):
        smoke_train(episodes=0)
    with pytest.raises(ConfigError):
        replace(smoke_train(), max_iters_per_episode=0)


def test_smoke_training_is_fast_and_herds():
    cfg = smoke_train(episodes=50)
    started = time.time()
    result = train(cfg)
    assert time.time() - started < 1.0
    records, agg = evaluate(result.table, cfg.env, runs=20, eval_max_iters=200, seed=17)
    assert agg.convergence_rate == 1.0
    # the learned behavior: repel at the crowded vertex, walk back when away
    env = HerdingEnv(cfg.env)
    _, code = env.score([10, 0])
    full_idx, away_idx = 0 + 2 * code, 1 + 2 * code
    assert Action(greedy_action_index(result.table, full_idx, env.action_ids[0])) is Action.STAY
    assert Action(greedy_action_index(result.table, away_idx, env.action_ids[1])) is Action.LEFT


def test_training_is_deterministic_per_seed():
    a = train(smoke_train(seed=123))
    b = train(smoke_train(seed=123))
    c = train(smoke_train(seed=124))
    assert a.table.store == b.table.store
    assert a.episodes == b.episodes
    assert a.table.store != c.table.store


def test_episode_stats_are_sane():
    result = train(smoke_train(episodes=40))
    assert len(result.episodes) == 40
    for s in result.episodes:
        assert 0 <= s.length <= 200
        assert s.cumulative_reward <= 0.0


def test_value_bounds_after_training():
    # rewards live in [-2, 0], so entries stay within [-2/(1-gamma), 0]
    result = train(smoke_train(episodes=200))
    gamma = 0.9
    assert result.table.values.max() <= 0.0
    assert result.table.values.min() >= -2.0 / (1.0 - gamma)
    assert np.isfinite(result.table.values).all()


def _reference_env(grid: str, backend: str):
    """A 1x2 smoke task, or a 2x2 task that can end within a few repels."""
    if grid == "1x2":
        return smoke_env(backend=backend)
    return headline_env(
        backend=backend, num_agents=20, beta=0.3, bins=4, mu=0.01,
        initial_dist=(1.0, 0.0, 0.0, 0.0), target_dist=(0.0, 0.5, 0.5, 0.0),
    )


@pytest.mark.parametrize("algorithm", ["sarsa", "qlearning"])
@pytest.mark.parametrize("grid", ["1x2", "2x2"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_train_single_steps_match_update_ops(backend, grid, algorithm):
    """The training loop must equal the reference step, state and TD operations."""
    env_cfg = _reference_env(grid, backend)
    cfg = smoke_train(algorithm=algorithm, episodes=10, env=env_cfg)
    cfg = replace(cfg, max_iters_per_episode=8)
    result = train(cfg)

    env = HerdingEnv(env_cfg)
    values = np.zeros((num_states(env_cfg.bins, env_cfg.num_vertices), NUM_ACTIONS))
    rng = np.random.default_rng(cfg.seed)
    alpha, gamma, epsilon = cfg.learner.alpha, cfg.learner.gamma, cfg.learner.epsilon

    for _ in range(cfg.episodes):
        followers, v = env.reset(rng)
        leader = LeaderState(v, 0)
        if oracles.mse(oracles.observe(env, followers), env_cfg.target_dist) < env_cfg.mu:
            continue
        s = oracles.state_index(env, followers, leader.vertex)
        if algorithm == "sarsa":
            a = oracles.select(values, s, env.action_ids[leader.vertex], epsilon, rng)
            for _ in range(cfg.max_iters_per_episode):
                followers, leader, r, terminal = oracles.reference_step(
                    env, followers, leader, a, rng
                )
                if terminal:
                    oracles.sarsa_write(values, s, a, r, None, None, alpha, gamma, terminal=True)
                    break
                s2 = oracles.state_index(env, followers, leader.vertex)
                a2 = oracles.select(values, s2, env.action_ids[leader.vertex], epsilon, rng)
                oracles.sarsa_write(values, s, a, r, s2, a2, alpha, gamma)
                s, a = s2, a2
        else:
            for _ in range(cfg.max_iters_per_episode):
                a = oracles.select(values, s, env.action_ids[leader.vertex], epsilon, rng)
                followers, leader, r, terminal = oracles.reference_step(
                    env, followers, leader, a, rng
                )
                if terminal:
                    oracles.qlearning_write(values, s, a, r, None, (), alpha, gamma, terminal=True)
                    break
                s2 = oracles.state_index(env, followers, leader.vertex)
                oracles.qlearning_write(
                    values, s, a, r, s2, env.action_ids[leader.vertex], alpha, gamma
                )
                s = s2
    assert np.array_equal(result.table.values, values)
    lengths = [e.length for e in result.episodes]
    assert min(lengths) < cfg.max_iters_per_episode == max(lengths)  # terminal and capped


def _reference_evaluate(table, env_cfg, runs, eval_max_iters, epsilon_eval, seed):
    """evaluate() spelled out with the reference step, state and selection."""
    env = HerdingEnv(env_cfg)
    values = table.values
    records = []
    for run in range(runs):
        run_seed = derive_seed(seed, run)
        rng = np.random.default_rng(run_seed)
        followers, v = env.reset(rng)
        leader = LeaderState(v, 0)
        iterations = 0
        converged = oracles.mse(oracles.observe(env, followers), env_cfg.target_dist) < env_cfg.mu
        while not converged and iterations < eval_max_iters:
            s = oracles.state_index(env, followers, leader.vertex)
            a = oracles.select(values, s, env.action_ids[leader.vertex], epsilon_eval, rng)
            followers, leader, _, converged = oracles.reference_step(
                env, followers, leader, a, rng
            )
            iterations += 1
        final_mse = oracles.mse(oracles.observe(env, followers), env_cfg.target_dist)
        records.append(RunRecord(run, converged, iterations, final_mse, run_seed))
    return records


@pytest.mark.parametrize("epsilon", [0.0, 0.3])
@pytest.mark.parametrize("backend", BACKENDS)
def test_evaluate_matches_step_by_step_reference(backend, epsilon):
    # A trained table converges within the cap on some runs and not on others;
    # a random one makes the greedy action depend on every state component.
    env_cfg = smoke_env(backend=backend)
    trained = train(smoke_train(episodes=60, env=env_cfg)).table
    noisy = fill_random(QTable.zeros(env_cfg.bins, 1, 2), 8)
    args = dict(runs=40, eval_max_iters=5, epsilon_eval=epsilon, seed=4)
    converged = set()
    for table in (trained, noisy):
        records, _ = evaluate(table, env_cfg, **args)
        assert records == _reference_evaluate(table, env_cfg, **args)
        converged |= {r.converged for r in records}
    assert converged == {True, False}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    grid=st.sampled_from(["1x2", "2x2"]),
    backend=st.sampled_from(BACKENDS),
    noisy=st.booleans(),
    epsilon=st.sampled_from([0.0, 0.05, 0.3]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_evaluate_matches_the_reference_through_frozen_tails(grid, backend, noisy, epsilon, seed,
                                                             data):
    """A run recorded at the cap from a frozen tail gets the record of stepping there.

    A zero table walks the leader through moves forever, so every run freezes;
    at epsilon > 0 its remaining draws then fail the check, and the rewound
    run steps on. A random table freezes some runs and repels in others.
    """
    env_cfg = _reference_env(grid, backend)
    m = env_cfg.num_vertices
    table = QTable.zeros(env_cfg.bins, env_cfg.rows, env_cfg.cols)
    if noisy:
        fill_random(table, seed)
    cap = data.draw(st.one_of(st.integers(1, 300), st.sampled_from([m, m + 1, m + 2])), "cap")
    args = dict(runs=4, eval_max_iters=cap, epsilon_eval=epsilon, seed=seed)
    records, _ = evaluate(table, env_cfg, **args)
    assert records == _reference_evaluate(table, env_cfg, **args)


@pytest.mark.parametrize("cap", [4, 5, 8])
def test_evaluate_steps_on_when_greedy_play_would_repel(cap):
    # Greedy play always Stays: the leader idles on the empty vertex until an
    # explore moves it onto the followers. A run idle for M+1 steps whose walk
    # leads to such a Stay is not frozen, however few draws are left.
    env_cfg = smoke_env()
    table = QTable.zeros(env_cfg.bins, 1, 2)
    for s in range(table.state_count):
        put(table, s, Action.STAY, 1.0)
    args = dict(runs=200, eval_max_iters=cap, epsilon_eval=0.3, seed=8)
    records, _ = evaluate(table, env_cfg, **args)
    assert records == _reference_evaluate(table, env_cfg, **args)


def test_numpy_draws_match_what_the_frozen_tail_check_assumes():
    """k uniforms drawn at once, in chunks or not, are the next k scalar draws,
    and a multinomial split of no agents leaves the stream where it was."""
    chunked, scalar = np.random.default_rng(11), np.random.default_rng(11)
    draws = [*chunked.random(5).tolist(), *chunked.random(2**16).tolist(), chunked.random()]
    assert draws == [scalar.random() for _ in range(len(draws))]
    state = chunked.bit_generator.state
    assert chunked.multinomial(0, np.array([0.1, 0.1, 0.8])).tolist() == [0, 0, 0]
    assert chunked.bit_generator.state == state


@pytest.mark.parametrize("backend", BACKENDS)
def test_frozen_run_at_a_huge_cap_is_recorded_in_bounded_memory(backend):
    # A zero table only moves the leader, so the run freezes at once; checking
    # its 10**7 remaining draws in one array would take 80 MB.
    env_cfg = smoke_env(backend=backend)
    table = QTable.zeros(env_cfg.bins, 1, 2)
    cap = 10**7
    evaluate(table, env_cfg, runs=1, eval_max_iters=10, seed=3)  # numpy's one-time setup
    tracemalloc.start()
    started = time.perf_counter()
    try:
        records, _ = evaluate(table, env_cfg, runs=1, eval_max_iters=cap, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 10.0
    assert peak < 2**20, peak
    assert records == [RunRecord(0, False, cap, 1.0, derive_seed(3, 0))]


# --- evaluation ----------------------------------------------------------------

def test_evaluate_all_runs_converge_with_trained_policy():
    result = train(smoke_train(episodes=100))
    records, agg = evaluate(result.table, smoke_train().env, runs=50, eval_max_iters=200, seed=3)
    assert agg.convergence_rate == 1.0
    assert agg.runs == 50
    assert all(r.converged for r in records)
    assert all(r.final_mse < 0.01 for r in records)


def test_evaluate_already_at_target_takes_zero_iterations():
    env_cfg = smoke_env(initial_dist=(0.0, 1.0))
    table = QTable.zeros(env_cfg.bins, 1, 2)
    records, agg = evaluate(table, env_cfg, runs=10, eval_max_iters=50, seed=0)
    assert agg.mean_iterations == 0.0
    assert agg.convergence_rate == 1.0
    assert all(r.iterations == 0 and r.converged for r in records)


def test_evaluate_censors_at_cap():
    # a zero table greedily picks the first valid action, which is always a
    # move on the 1x2 grid; the distribution never changes and every run
    # records the cap
    env_cfg = smoke_env()
    table = QTable.zeros(env_cfg.bins, 1, 2)
    records, agg = evaluate(table, env_cfg, runs=10, eval_max_iters=40, seed=1)
    assert agg.convergence_rate == 0.0
    assert agg.mean_iterations == 40.0
    assert all(r.iterations == 40 and not r.converged for r in records)


def test_evaluate_aggregate_matches_records():
    result = train(smoke_train(episodes=60))
    records, agg = evaluate(result.table, smoke_train().env, runs=40, eval_max_iters=200, seed=5)
    iters = np.array([r.iterations for r in records], dtype=float)
    assert abs(agg.mean_iterations - iters.mean()) < 1e-9
    assert abs(agg.std_iterations - iters.std()) < 1e-9
    assert abs(agg.convergence_rate - np.mean([r.converged for r in records])) < 1e-9


def test_evaluate_is_deterministic_and_seeded_per_run():
    result = train(smoke_train(episodes=60))
    a, _ = evaluate(result.table, smoke_train().env, runs=20, eval_max_iters=200, seed=9)
    b, _ = evaluate(result.table, smoke_train().env, runs=20, eval_max_iters=200, seed=9)
    assert a == b
    assert len({r.seed for r in a}) == 20
    assert [r.seed for r in a] == [derive_seed(9, i) for i in range(20)]


def test_evaluate_rejects_mismatched_table():
    table = QTable.zeros(bins=3, rows=1, cols=2)
    with pytest.raises(CompatibilityError):
        evaluate(table, smoke_env(), runs=1)


def test_evaluate_cross_population_works():
    result = train(smoke_train(episodes=100))
    env5 = replace(smoke_train().env, num_agents=5)
    records, agg = evaluate(result.table, env5, runs=20, eval_max_iters=200, seed=21)
    assert agg.convergence_rate > 0.5


# --- sweeps ---------------------------------------------------------------------

def _smoke_cells(betas=(0.3, 0.4), n_tests=None):
    cells = []
    index = 0
    for group, beta in enumerate(betas):
        cfg = smoke_train(episodes=40, seed=derive_seed(100, 0, group), beta=beta)
        for n_test in n_tests or (cfg.env.num_agents,):
            cells.append(SweepCell(index, cfg, n_test))
            index += 1
    return cells


def test_sweep_emits_one_row_per_cell():
    results = sweep(_smoke_cells(), runs=5, eval_max_iters=200)
    assert [cell.index for cell, _, _ in results] == [0, 1]
    assert [cell.train.env.beta for cell, _, _ in results] == [0.3, 0.4]
    assert sum(len(records) for _, records, _ in results) == 10
    assert all(rec.iterations <= 200 for _, records, _ in results for rec in records)


def test_sweep_cross_population_grid():
    cells = []
    index = 0
    for group, n_train in enumerate((5, 10)):
        cfg = smoke_train(episodes=40, seed=derive_seed(7, 0, group), num_agents=n_train)
        for n_test in (5, 10):
            cells.append(SweepCell(index, cfg, n_test))
            index += 1
    results = sweep(cells, runs=5, eval_max_iters=200)
    assert [(cell.train.env.num_agents, cell.n_test) for cell, _, _ in results] == [
        (5, 5), (5, 10), (10, 5), (10, 10)
    ]


def test_sweep_is_reproducible_and_jobs_invariant():
    results1 = sweep(_smoke_cells(), runs=5, eval_max_iters=200)
    results2 = sweep(_smoke_cells(), runs=5, eval_max_iters=200)
    results_par = sweep(_smoke_cells(), runs=5, eval_max_iters=200, jobs=2)
    assert results1 == results2 == results_par


def test_sweep_cell_results_do_not_depend_on_where_it_sits():
    first, second = _smoke_cells()
    alone = sweep([replace(second, index=0)], runs=5, eval_max_iters=200)
    behind = sweep([first, second], runs=5, eval_max_iters=200)
    assert alone[0][1:] == behind[1][1:]
    assert behind[1][0] == second
    assert [r.seed for r in alone[0][1]] == [derive_seed(second.seed, i) for i in range(5)]


def test_sweep_rejects_empty_grid():
    with pytest.raises(ConfigError):
        sweep([], runs=5)


def test_derive_seed_is_stable():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert derive_seed(1) != derive_seed(2)


# --- brute-force optimality cross-check (full version in acceptance) -------------

def test_smoke_policy_matches_value_iteration_oracle():
    mean_field = smoke_env(backend="mean-field")
    oracle = PolicyOracle(HerdingEnv(mean_field), gamma=0.9)
    reachable = oracle.reachable_nonterminal()
    assert reachable
    result = train(smoke_train(algorithm="qlearning", episodes=500, env=mean_field))
    env = HerdingEnv(mean_field)
    for idx in sorted(reachable):
        ds = decode_state(idx, mean_field.bins, mean_field.num_vertices)
        got = Action(greedy_action_index(result.table, idx, env.action_ids[ds.leader_vertex]))
        assert got is oracle.policy[idx], f"state {ds}: {got} != {oracle.policy[idx]}"
