"""Follower dynamics demo: agent counts versus the mean-field limit.

A repelling leader parked on a vertex pushes followers along the grid
edges. Stepping integer agent counts is stochastic; stepping the
population density is deterministic. As the population grows, the
empirical distribution of the stochastic chain tracks the density ever
more closely.

Run: python demos/propagators.py
"""

import numpy as np

from swarmherd import EnvConfig, HerdingEnv, LeaderState


## A 2x2 grid, vertices 0..3 in row-major order. While the leader repels,
## followers leave its vertex at rate beta = 0.1 along each grid edge.
def herding_env(num_agents=100, backend="dtmc"):
    return HerdingEnv(EnvConfig(
        rows=2,
        cols=2,
        num_agents=num_agents,
        beta=0.1,
        bins=10,
        mu=0.0025,
        initial_dist=(0.4, 0.1, 0.1, 0.4),
        target_dist=(0.1, 0.4, 0.4, 0.1),
        backend=backend,
    ))


mean_field = herding_env(backend="mean-field")
print("vertices:", mean_field.cfg.num_vertices)
print("neighbors per vertex:", mean_field.neighbors)
initial = mean_field.cfg.initial_dist

## One deterministic density step with a repelling leader at vertex 0:
## 10% of the local mass leaves along each edge, the rest stays. repel
## also returns the squared distance to the target and the state code.
density, sq, _ = mean_field.repel(initial, 0, None)
print("\ndensity before:", list(initial))
print("density after: ", list(density), f"(squared error {sq:.4f})")

## The same step on 100 integer agents is a multinomial draw, from the
## largest-remainder apportionment of the initial distribution.
counts_env = herding_env(num_agents=100)
rng = np.random.default_rng(7)
counts = counts_env.start
print("\ncounts before:", counts)
print("counts after: ", counts_env.repel(counts, 0, rng)[0])


## Run both backends for 100 iterations under one leader script and
## measure the largest per-vertex gap, averaged over 20 random streams.
## A move (flag down) leaves the followers where they are.
def final_gap(env, seed):
    rng = np.random.default_rng(seed)
    n = env.cfg.num_agents
    counts = env.start
    density = initial
    leader = LeaderState(0, 0)
    for k in range(100):
        acts = env.action_ids[leader.vertex]
        leader = env.moves[leader.vertex][acts[k % len(acts)]]
        if leader.flag:
            counts, _, _ = env.repel(counts, leader.vertex, rng)
            density, _, _ = mean_field.repel(density, leader.vertex, None)
    return np.max(np.abs(np.array(counts) / n - np.array(density)))


print("\npopulation   mean L-inf gap after 100 iterations")
for n in (100, 1_000, 10_000, 100_000):
    env = herding_env(num_agents=n)
    gap = np.mean([final_gap(env, seed) for seed in range(20)])
    print(f"{n:>10}   {gap:.5f}")
