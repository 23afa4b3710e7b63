"""Follower-population repel kernels.

The swarm carries no agent identities: it is represented either as an
integer count per vertex (stochastic stepping, one multinomial split per
iteration) or as a probability density over vertices (the deterministic
large-population limit of the same process). Followers move only while
the leader's behavioral flag is raised, and then only out of the leader's
vertex v: a share beta of its mass along each grid edge, the rest stays.
:class:`~swarmherd.environment.HerdingEnv` builds those shares and calls
the kernels below.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np


class LeaderState(NamedTuple):
    """Leader position and behavioral flag (1 = repelling, 0 = passive)."""

    vertex: int
    flag: int


def repel_counts(
    counts: Sequence[int],
    v: int,
    nbrs: tuple[int, ...],
    probs: np.ndarray,
    rng: np.random.Generator,
) -> list[int]:
    """Counts after a leader repels at v: counts[v] split by one multinomial draw.

    ``probs`` holds the shares of the sorted neighbors ``nbrs`` followed by
    the stay share, as a float64 array. The draw is taken even when
    counts[v] == 0, so stream consumption depends only on the leader trajectory.
    Plain ints in (a list or tuple) and a new list out, because the training
    loop steps on M <= 9 vertices where numpy's per-call overhead outweighs
    the arithmetic.
    """
    draw = rng.multinomial(counts[v], probs).tolist()
    out = list(counts)
    out[v] = draw[-1]
    for t, k in zip(nbrs, draw):
        out[t] += k
    return out


def repel_density(
    density: list[float], v: int, nbrs: tuple[int, ...], shares: Sequence[float]
) -> list[float]:
    """Density after a leader repels at v: a ``shares[i]`` share of density[v]
    flows to ``nbrs[i]`` and the stay share ``shares[-1]`` remains. Plain
    floats in (a list or tuple) and a new list out, like :func:`repel_counts`."""
    mass = density[v]
    out = list(density)
    for t, p in zip(nbrs, shares):
        out[t] += p * mass
    out[v] = shares[-1] * mass
    return out
