"""Hyperparameter sweeps: train a grid of policies and compare them.

This runs a deliberately small sweep in-process so it finishes in seconds;
the CLI drives the same machinery for the full-size studies, e.g.

    swarmherd sweep --config configs/mu_study.ini --out-dir results/

with a [sweep] section listing the thresholds, rates, discretizations and
populations to cross. Cells that share training parameters reuse one
trained table. A cell's per-run seeds derive from its training seed, its
test population and the run index, so its results depend on what the cell
is, not on where it sits in the grid or how the work is scheduled.

Run: python demos/experiment_sweep.py
"""

from swarmherd import (
    EnvConfig,
    LearnerConfig,
    SweepCell,
    TrainConfig,
    sweep,
)

SEED = 2024

## The task: drain ten agents from vertex 0 of a 1x2 grid into vertex 1.
def env_for(beta, num_agents=10):
    return EnvConfig(
        rows=1,
        cols=2,
        num_agents=num_agents,
        beta=beta,
        bins=2,
        mu=0.01,
        initial_dist=(1.0, 0.0),
        target_dist=(0.0, 1.0),
        max_iterations=200,
    )

## Grid: two departure rates x both algorithms, each cell trained fresh from
## the same seed.
cells = []
for index, (algorithm, beta) in enumerate(
    (a, b) for a in ("qlearning", "sarsa") for b in (0.2, 0.4)
):
    train_cfg = TrainConfig(
        env=env_for(beta),
        learner=LearnerConfig(alpha=0.3, gamma=0.9, epsilon=0.1, algorithm=algorithm),
        episodes=150,
        max_iters_per_episode=200,
        seed=SEED,
    )
    cells.append(SweepCell(index=index, train=train_cfg, n_test=10))

## One (cell, per-run records, aggregate) per cell, in cell order. On this
## small task both algorithms learn the same policy, and with the same seeds
## their rows agree.
results = sweep(cells, runs=200, eval_max_iters=200)

print(f"{'algorithm':<10} {'beta':>5} {'mean iters':>11} {'std':>7} {'conv':>6}")
for cell, _, agg in results:
    print(f"{cell.train.learner.algorithm:<10} {cell.train.env.beta:>5} "
          f"{agg.mean_iterations:>11.1f} {agg.std_iterations:>7.1f} {agg.convergence_rate:>6.2f}")

## A faster departure rate drains the crowded vertex in fewer iterations.
slow = [agg for cell, _, agg in results if cell.train.env.beta == 0.2]
fast = [agg for cell, _, agg in results if cell.train.env.beta == 0.4]
print("\nhigher beta converges faster:",
      all(f.mean_iterations < s.mean_iterations for f, s in zip(fast, slow)))
