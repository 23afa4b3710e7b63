"""Shared configuration builders for the test suite."""

from __future__ import annotations

import numpy as np

from swarmherd import EnvConfig, HerdingEnv, LearnerConfig, QTable, TrainConfig

# The headline experiment: herd 100 agents on a 2x2 grid from a corner-heavy
# distribution to its mirror image.
HEADLINE_INITIAL = (0.4, 0.1, 0.1, 0.4)
HEADLINE_TARGET = (0.1, 0.4, 0.4, 0.1)


def headline_env(**overrides) -> EnvConfig:
    base = dict(
        rows=2,
        cols=2,
        num_agents=100,
        beta=0.1,
        bins=10,
        mu=0.0025,
        initial_dist=HEADLINE_INITIAL,
        target_dist=HEADLINE_TARGET,
        max_iterations=5000,
        backend="dtmc",
    )
    base.update(overrides)
    return EnvConfig(**base)


def smoke_env(**overrides) -> EnvConfig:
    """Two-vertex task small enough to train in well under a second.

    All mass starts on vertex 0 and must be pushed to vertex 1; with N=10
    and mu=0.01 the terminal test is satisfied only by the exact target
    counts, and beta=0.4 keeps reachable densities clear of bin boundaries.
    """
    base = dict(
        rows=1,
        cols=2,
        num_agents=10,
        beta=0.4,
        bins=2,
        mu=0.01,
        initial_dist=(1.0, 0.0),
        target_dist=(0.0, 1.0),
        max_iterations=200,
        backend="dtmc",
    )
    base.update(overrides)
    return EnvConfig(**base)


def grid_env(rows: int, cols: int) -> EnvConfig:
    """A valid dtmc config on a rows x cols grid; every agent starts and
    ends on vertex 0."""
    dist = (1.0,) + (0.0,) * (rows * cols - 1)
    return EnvConfig(rows, cols, 10, 0.1, 1, 0.0025, dist, dist)


def smoke_train(algorithm="qlearning", episodes=50, seed=5, env=None, **env_overrides) -> TrainConfig:
    return TrainConfig(
        env=env if env is not None else smoke_env(**env_overrides),
        learner=LearnerConfig(alpha=0.3, gamma=0.9, epsilon=0.1, algorithm=algorithm),
        episodes=episodes,
        max_iters_per_episode=200,
        seed=seed,
    )


def kernel_step(env: HerdingEnv, followers: list, leader, action, rng):
    """One iteration on the kernels the loops run: ``moves``, then ``repel``
    when the leader repels. Returns (followers', leader', reward, terminal);
    a move rescores the unchanged followers with ``score``."""
    leader = env.moves[leader.vertex][action]
    if leader.flag:
        followers, sq, _ = env.repel(followers, leader.vertex, rng)
    else:
        sq, _ = env.score(followers)
    return followers, leader, -sq, sq / env.cfg.num_vertices < env.cfg.mu


def put(q: QTable, s: int, a: int, value: float) -> None:
    """Set Q(s, a), adding state s's row if it has none."""
    q.store.setdefault(s, list(q.zero))[a] = value


def value(q: QTable, s: int, a: int) -> float:
    return q.store.get(s, q.zero)[a]


def fill_random(q: QTable, seed: int) -> QTable:
    """Give every state of q a row of standard normal values."""
    dense = np.random.default_rng(seed).normal(size=(q.state_count, q.num_actions))
    q.store.update(enumerate(dense.tolist()))
    return q
