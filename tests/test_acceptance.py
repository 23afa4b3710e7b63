"""End-to-end acceptance suite.

Each test prints one `[criterion NN] PASS/FAIL` line (run with ``-s`` to see
them as they complete). The training-heavy criteria share session-scoped
fixtures, and every training follows the headline protocol of 5000 episodes
with up to 5000 iterations each; the whole module finishes in a couple of
minutes on a laptop.
"""

import time

import numpy as np
import pytest

from swarmherd import (
    Action,
    DiscretizedState,
    HerdingEnv,
    LeaderState,
    LearnerConfig,
    QTable,
    TrainConfig,
    derive_seed,
    evaluate,
    largest_remainder_counts,
    train,
)
from swarmherd.cli import main
from swarmherd.environment import decode_state, encode_state, num_states
from swarmherd.learner import greedy_action_index, td_update

from helpers import HEADLINE_INITIAL, headline_env, smoke_env, value
from oracles import PolicyOracle, mean_field_matrix_step

PROTOCOL_EPISODES = 5000
PROTOCOL_MAX_ITERS = 5000
EVAL_RUNS = 1000
EVAL_CAP = 1000
# Deployment-style evaluation for the trend criteria: a pure-greedy rollout
# can pin a run at a state whose untried actions still carry the optimistic
# zero value, freezing the distribution until the iteration cap; a small
# exploration rate breaks those stalls so mean iteration counts compare
# policies rather than censoring.
EPSILON_DEPLOY = 0.1


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def protocol_train(algorithm: str, env, seed: int = 2021):
    cfg = TrainConfig(
        env=env,
        learner=LearnerConfig(alpha=0.3, gamma=0.9, epsilon=0.1, algorithm=algorithm),
        episodes=PROTOCOL_EPISODES,
        max_iters_per_episode=PROTOCOL_MAX_ITERS,
        seed=seed,
    )
    return train(cfg).table


@pytest.fixture(scope="session")
def headline_tables():
    """Both algorithms trained with the headline parameters (N=100, D=10,
    mu=0.0025, beta=0.1, alpha=0.3, gamma=0.9, 5000x5000)."""
    env = headline_env()
    return {alg: protocol_train(alg, env) for alg in ("qlearning", "sarsa")}


@pytest.fixture(scope="session")
def d20_tables():
    """Q-Learning tables for the trend studies (N=100, D=20, full budget)."""
    tables = {}
    for beta in (0.025, 0.05, 0.1):
        for mu in (0.0005, 0.001, 0.0025, 0.005):
            if beta != 0.05 and mu != 0.0025:
                continue  # only the cells the criteria use
            env = headline_env(beta=beta, bins=20, mu=mu)
            tables[(beta, mu)] = protocol_train("qlearning", env, seed=3)
    return tables


@pytest.fixture(scope="session")
def n10_table():
    env = headline_env(num_agents=10, beta=0.1, bins=20, mu=0.0025)
    return protocol_train("qlearning", env, seed=3)


def test_criterion_01_update_rule_oracles():
    # The TD write of the training loop, with each algorithm's target.
    s = encode_state(DiscretizedState((4, 1, 1, 4), 0), 10, 4)
    s2 = encode_state(DiscretizedState((3, 2, 1, 4), 1), 10, 4)
    cfg = LearnerConfig(alpha=0.3, gamma=0.9)
    q = QTable.zeros(10, 2, 2)
    td_update(q, s, Action.STAY, -0.36 + cfg.gamma * value(q, s2, Action.LEFT), cfg.alpha)
    sarsa_value = value(q, s, Action.STAY)
    q = QTable.zeros(10, 2, 2)
    best = value(q, s2, greedy_action_index(q, s2, (Action.LEFT, Action.STAY)))
    td_update(q, s, Action.STAY, -0.36 + cfg.gamma * best, cfg.alpha)
    ql_value = value(q, s, Action.STAY)
    ok = sarsa_value == -0.108 and ql_value == -0.108
    report(1, ok, f"single-step updates: sarsa={sarsa_value!r}, qlearning={ql_value!r}")


def test_criterion_02_mean_field_matches_matrix_product():
    env = HerdingEnv(headline_env(backend="mean-field"))
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for i in range(10_000):
        density = rng.dirichlet(np.ones(4))
        fast, _, _ = env.repel(density.tolist(), i % 4, None)
        fast = np.array(fast)
        slow = mean_field_matrix_step(env.cfg, 0.1, LeaderState(i % 4, 1), density)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
        assert abs(fast.sum() - 1.0) <= 1e-12
        assert fast.min() >= 0.0
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    report(2, ok, f"max |direct - matrix| = {worst:.2e} over 10^4 states in {elapsed:.1f}s")


def test_criterion_03_dtmc_converges_to_mean_field():
    mean_field = HerdingEnv(headline_env(backend="mean-field"))
    initial = np.array(HEADLINE_INITIAL)
    started = time.perf_counter()
    gaps = {}
    for n in (100, 1_000, 10_000, 100_000):
        env = HerdingEnv(headline_env(num_agents=n))
        per_seed = []
        for seed in range(20):
            rng = np.random.default_rng(derive_seed(7, n, seed))
            counts = largest_remainder_counts(initial, n).tolist()
            density = initial.tolist()
            leader = LeaderState(0, 0)
            for k in range(100):
                acts = env.action_ids[leader.vertex]
                leader = env.moves[leader.vertex][acts[k % len(acts)]]
                if leader.flag:
                    counts, _, _ = env.repel(counts, leader.vertex, rng)
                    density, _, _ = mean_field.repel(density, leader.vertex, None)
            per_seed.append(float(np.max(np.abs(np.array(counts) / n - np.array(density)))))
        gaps[n] = float(np.mean(per_seed))
    elapsed = time.perf_counter() - started
    sizes = sorted(gaps)
    monotone = all(gaps[sizes[i + 1]] <= gaps[sizes[i]] for i in range(len(sizes) - 1))
    ok = monotone and gaps[100_000] < 0.01 and elapsed < 30.0
    detail = " ".join(f"N=1e{int(np.log10(n))}:{gaps[n]:.4f}" for n in sizes)
    report(3, ok, f"mean L-inf gap {detail} ({elapsed:.1f}s)")


def test_criterion_04_small_instance_optimality():
    env_cfg = smoke_env(backend="mean-field")
    env = HerdingEnv(env_cfg)
    oracle = PolicyOracle(env, gamma=0.9)
    reachable = sorted(oracle.reachable_nonterminal())
    assert reachable, "oracle found no comparable states"
    mismatches = []
    for algorithm in ("qlearning", "sarsa"):
        cfg = TrainConfig(
            env=env_cfg,
            learner=LearnerConfig(alpha=0.3, gamma=0.9, epsilon=0.1, algorithm=algorithm),
            episodes=2000,
            max_iters_per_episode=200,
            seed=42,
        )
        table = train(cfg).table
        for idx in reachable:
            ds = decode_state(idx, env_cfg.bins, env_cfg.num_vertices)
            learned = Action(greedy_action_index(table, idx, env.action_ids[ds.leader_vertex]))
            if learned is not oracle.policy[idx]:
                mismatches.append((algorithm, ds, oracle.policy[idx].name, learned.name))
    ok = not mismatches
    report(4, ok, f"{len(reachable)} reachable states, mismatches: {mismatches or 'none'}")


def test_criterion_05_protocol_convergence(headline_tables):
    env = headline_env()
    results = {}
    for algorithm, table in headline_tables.items():
        _, agg = evaluate(table, env, runs=EVAL_RUNS, eval_max_iters=EVAL_CAP,
                          epsilon_eval=0.0, seed=555)
        results[algorithm] = agg
    ok = all(
        agg.convergence_rate >= 0.90 and agg.mean_iterations < 500.0
        for agg in results.values()
    )
    detail = " ".join(
        f"{alg}: mean={agg.mean_iterations:.1f} conv={agg.convergence_rate:.3f}"
        for alg, agg in results.items()
    )
    report(5, ok, detail)


def test_criterion_06_mu_trend(d20_tables):
    mus = (0.0005, 0.001, 0.0025, 0.005)
    means = []
    for mu in mus:
        env = headline_env(beta=0.05, bins=20, mu=mu)
        _, agg = evaluate(d20_tables[(0.05, mu)], env, runs=EVAL_RUNS,
                          eval_max_iters=EVAL_CAP, epsilon_eval=EPSILON_DEPLOY, seed=11)
        means.append(agg.mean_iterations)
    endpoints = means[-1] <= means[0]
    steps_ok = all(means[i + 1] <= 1.1 * means[i] for i in range(len(means) - 1))
    ok = endpoints and steps_ok
    detail = " ".join(f"mu={mu}:{m:.1f}" for mu, m in zip(mus, means))
    report(6, ok, detail)


def test_criterion_07_beta_trend(d20_tables):
    means = {}
    for beta in (0.025, 0.05, 0.1):
        env = headline_env(beta=beta, bins=20, mu=0.0025)
        _, agg = evaluate(d20_tables[(beta, 0.0025)], env, runs=EVAL_RUNS,
                          eval_max_iters=EVAL_CAP, epsilon_eval=EPSILON_DEPLOY, seed=11)
        means[beta] = agg.mean_iterations
    # the slowest departure rate needs the most iterations, against either
    # of the faster baselines
    ok = means[0.025] >= 0.9 * means[0.1] and means[0.025] >= 0.9 * means[0.05]
    report(7, ok, " ".join(f"mean@beta={b}: {m:.1f}" for b, m in means.items()))


def test_criterion_08_cross_population_direction(d20_tables, n10_table):
    env10 = headline_env(num_agents=10, beta=0.1, bins=20, mu=0.0025)
    _, cross = evaluate(d20_tables[(0.1, 0.0025)], env10, runs=EVAL_RUNS,
                        eval_max_iters=EVAL_CAP, epsilon_eval=EPSILON_DEPLOY, seed=12)
    _, native = evaluate(n10_table, env10, runs=EVAL_RUNS,
                         eval_max_iters=EVAL_CAP, epsilon_eval=EPSILON_DEPLOY, seed=12)
    ok = cross.mean_iterations > native.mean_iterations
    report(
        8,
        ok,
        f"trained@100 tested@10: {cross.mean_iterations:.1f} > "
        f"trained@10 tested@10: {native.mean_iterations:.1f}",
    )


def test_criterion_09_exact_target_at_small_population(headline_tables):
    # With ten agents and mu=0.0025, the terminal test is satisfied only by
    # the exact counts [1, 4, 4, 1]: one displaced agent already gives a
    # per-vertex mean squared error of 0.005.
    env10 = headline_env(num_agents=10)
    rates = {}
    for algorithm, table in headline_tables.items():
        records, agg = evaluate(table, env10, runs=EVAL_RUNS, eval_max_iters=EVAL_CAP,
                                epsilon_eval=EPSILON_DEPLOY, seed=99)
        assert all(r.final_mse == 0.0 for r in records if r.converged)
        rates[algorithm] = agg.convergence_rate
    ok = all(rate >= 0.50 for rate in rates.values())
    detail = " ".join(f"{alg}: {rate:.3f}" for alg, rate in rates.items())
    report(9, ok, f"exact-count rate over {EVAL_RUNS} runs: {detail}")


SMOKE_INI = """\
[graph]
rows = 1
cols = 2

[env]
num_agents = 10
beta = 0.4
bins = 2
mu = 0.01
max_iterations = 200
initial_dist = 1.0, 0.0
target_dist = 0.0, 1.0

[train]
episodes = 50
max_iters = 200
seed = 5

[sweep]
name = rep
betas = 0.3, 0.4
n_train = 10
mus = 0.01
bins = 2
runs = 5
eval_max_iters = 200
episodes = 40
"""


def test_criterion_10_byte_identical_reproducibility(tmp_path):
    config = tmp_path / "config.ini"
    config.write_text(SMOKE_INI)
    outputs = {"train": [], "evaluate": [], "sweep": [], "simulate": []}
    for attempt in ("first", "second"):
        base = tmp_path / attempt
        assert main(["train", "--config", str(config), "--out-dir", str(base / "t")]) == 0
        assert main([
            "evaluate", str(base / "t" / "qtable.swhq"), "--config", str(config),
            "--runs", "10", "--out-dir", str(base / "e"),
        ]) == 0
        assert main([
            "simulate", str(base / "t" / "qtable.swhq"), "--config", str(config),
            "--out-dir", str(base / "s"),
        ]) == 0
        assert main(["sweep", "--config", str(config), "--out-dir", str(base / "w")]) == 0
        outputs["train"].append((base / "t" / "qtable.swhq").read_bytes()
                                + (base / "t" / "train_log.csv").read_bytes())
        outputs["evaluate"].append((base / "e" / "eval_runs.csv").read_bytes()
                                   + (base / "e" / "eval_aggregate.csv").read_bytes())
        outputs["simulate"].append((base / "s" / "trace.csv").read_bytes())
        outputs["sweep"].append((base / "w" / "rep_aggregate.csv").read_bytes()
                                + (base / "w" / "rep_runs.csv").read_bytes())
    mismatched = [name for name, blobs in outputs.items() if blobs[0] != blobs[1]]
    ok = not mismatched
    report(10, ok, f"byte-identical data files: {'all' if ok else mismatched}")


def test_criterion_11_encoding_bijection_exhaustive():
    bins, m = 10, 4
    total = num_states(bins, m)
    assert total == 11**4 * 4  # 58564 fraction vectors x 4 leader positions
    started = time.perf_counter()
    bad = 0
    for idx in range(total):
        if encode_state(decode_state(idx, bins, m), bins, m) != idx:
            bad += 1
    elapsed = time.perf_counter() - started
    ok = bad == 0 and elapsed < 1.0
    report(11, ok, f"{total} states round-tripped, {bad} mismatches, {elapsed:.2f}s")
