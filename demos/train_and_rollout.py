"""Train a leader policy on a small task and watch it herd.

Ten agents start piled on the left vertex of a 1x2 grid and must all be
pushed to the right one. Q-Learning needs a fraction of a second to find
the obvious policy: stand on the crowded vertex and repel until it
drains, walk back if displaced.

Run: python demos/train_and_rollout.py
"""

import numpy as np

from swarmherd import (
    Action,
    EnvConfig,
    HerdingEnv,
    LeaderState,
    LearnerConfig,
    TrainConfig,
    evaluate,
    train,
)
from swarmherd.learner import greedy_action_index

## Environment: everything starts at vertex 0, target is everything at 1.
## With 10 agents and mu = 0.01 the episode only ends on an exact match.
env_cfg = EnvConfig(
    rows=1,
    cols=2,
    num_agents=10,
    beta=0.4,
    bins=2,
    mu=0.01,
    initial_dist=(1.0, 0.0),
    target_dist=(0.0, 1.0),
    max_iterations=200,
)

train_cfg = TrainConfig(
    env=env_cfg,
    learner=LearnerConfig(alpha=0.3, gamma=0.9, epsilon=0.1, algorithm="qlearning"),
    episodes=200,
    max_iters_per_episode=200,
    seed=5,
)

result = train(train_cfg)
lengths = [s.length for s in result.episodes]
print(f"trained {train_cfg.episodes} episodes; "
      f"first ten lengths {lengths[:10]}, last ten {lengths[-10:]}")

## Roll the greedy policy out once and print each step. A reset gives the
## start counts and the leader's vertex; the env scored the start once
## (reset_score). One step: look the leader's move up in env.moves; if it
## repels, env.repel moves the followers and rescores them in one call.
env = HerdingEnv(env_cfg)
m = env_cfg.num_vertices
rng = np.random.default_rng(123)
followers, v = env.reset(rng)
leader = LeaderState(v, 0)
sq, code = env.reset_score
print(f"\nstart: counts={followers} leader at v{leader.vertex}")
for k in range(1, env_cfg.max_iterations + 1):
    idx = leader.vertex + m * code
    action = greedy_action_index(result.table, idx, env.action_ids[leader.vertex])
    leader = env.moves[leader.vertex][action]
    if leader.flag:
        followers, sq, code = env.repel(followers, leader.vertex, rng)
    terminal = sq / m < env_cfg.mu
    marker = " <- target reached" if terminal else ""
    print(f"k={k:>2} {Action(action).label:<5} counts={followers} "
          f"leader=v{leader.vertex}{'*' if leader.flag else ' '}{marker}")
    if terminal:
        break

## A thousand independent greedy runs converge essentially always.
records, agg = evaluate(result.table, env_cfg, runs=1000, eval_max_iters=200, seed=9)
print(f"\n1000 evaluation runs: mean {agg.mean_iterations:.1f} iterations, "
      f"convergence rate {agg.convergence_rate:.3f}")
