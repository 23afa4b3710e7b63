"""Follower-population propagators.

The swarm carries no agent identities: it is represented either as an
integer count per vertex (stochastic stepping, one multinomial split per
iteration) or as a probability density over vertices (the deterministic
large-population limit of the same process). Both propagators move mass
only out of the leader's vertex, and only while the leader's behavioral
flag is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidRatesError, SimplexError
from .graph import Graph

SIMPLEX_ATOL = 1e-9


class LeaderState(NamedTuple):
    """Leader position and behavioral flag (1 = repelling, 0 = passive)."""

    vertex: int
    flag: int


@dataclass(frozen=True)
class TransitionRates:
    """Departure probabilities along non-self edges.

    ``per_vertex[v][i]`` is the per-iteration probability that a follower at
    v hops to ``graph.neighbors[v][i]`` while the leader repels at v. The
    remaining probability mass stays put, so each per-vertex row must sum to
    strictly less than 1. Every experiment uses one rate on all edges
    (:meth:`uniform`); the rows still hold one value per edge, aligned with
    ``graph.neighbors``.
    """

    per_vertex: tuple[tuple[float, ...], ...]

    @classmethod
    def uniform(cls, g: Graph, rate: float) -> "TransitionRates":
        """The same rate on every non-self edge."""
        rate = float(rate)
        # Written so that a NaN rate fails: every comparison with NaN is false.
        if not rate > 0.0:
            raise InvalidRatesError(f"transition rates must be positive, got {rate}")
        rows = tuple((rate,) * len(nbrs) for nbrs in g.neighbors)
        for v, row in enumerate(rows):
            if not sum(row) < 1.0:
                raise InvalidRatesError(
                    f"outgoing rates at vertex {v} sum to {sum(row)}; must stay below 1"
                )
        return cls(rows)


def follower_transition_probs(
    g: Graph, rates: TransitionRates, leader: LeaderState, v: int
) -> np.ndarray:
    """Per-iteration move distribution for followers at v.

    Categories are the sorted non-self neighbors of v followed by v itself
    (staying). Followers only leave when the leader repels at v; in every
    other leader configuration all mass stays. The returned vector sums to
    exactly 1.
    """
    probs = np.zeros(len(g.neighbors[v]) + 1)
    row = rates.per_vertex[v] if leader.vertex == v and leader.flag == 1 else ()
    probs[: len(row)] = row
    probs[-1] = 1.0 - sum(row)
    return probs


def repel_counts(
    counts: list[int], v: int, nbrs: tuple[int, ...], probs: np.ndarray, rng: np.random.Generator
) -> list[int]:
    """Counts after a leader repels at v: counts[v] split by one multinomial draw.

    ``probs`` holds the (sorted neighbors ``nbrs``, stay) shares of
    :func:`follower_transition_probs`. The draw is taken even when
    counts[v] == 0, so stream consumption depends only on the leader trajectory.
    Works on a plain list, because the training loop steps on M <= 9 vertices
    where numpy's per-call overhead outweighs the arithmetic.
    """
    draw = rng.multinomial(counts[v], probs).tolist()
    out = counts.copy()
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


def step_dtmc(
    g: Graph,
    rates: TransitionRates,
    leader: LeaderState,
    counts: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Advance the agent-count state by one iteration.

    When the leader repels at vertex v, the counts[v] agents are split by a
    single multinomial draw (:func:`repel_counts`); this is a sequence of
    binomial draws in canonical category order, so results are reproducible
    for a seeded stream. Total agent count is conserved exactly, and only the
    leader's vertex and its out-neighbors can change.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if leader.flag != 1:
        return counts.copy()
    v = leader.vertex
    probs = follower_transition_probs(g, rates, leader, v)
    return np.array(repel_counts(counts.tolist(), v, g.neighbors[v], probs, rng), dtype=np.int64)


def assert_simplex(density: np.ndarray, atol: float = SIMPLEX_ATOL) -> None:
    """Raise SimplexError unless density is non-negative and sums to 1 within atol."""
    if float(density.min()) < 0.0 or abs(float(density.sum()) - 1.0) > atol:
        raise SimplexError(
            f"density off the probability simplex (sum={float(density.sum())!r})"
        )


def mean_field_step(
    g: Graph, rates: TransitionRates, leader: LeaderState, density: np.ndarray
) -> np.ndarray:
    """Deterministic one-iteration update of the population density.

    The large-population limit of :func:`step_dtmc`: with a repelling leader
    at v, ``rate * density[v]`` flows along each outgoing non-self edge and
    the remainder stays at v (:func:`repel_density`); every other vertex
    keeps its mass. Total mass and non-negativity are preserved. The input is
    checked with :func:`assert_simplex`; the training and evaluation loops
    call :func:`repel_density` directly and skip the check.
    """
    density = np.asarray(density, dtype=np.float64)
    assert_simplex(density)
    if leader.flag != 1:
        return density.copy()
    v = leader.vertex
    shares = follower_transition_probs(g, rates, leader, v).tolist()
    return np.array(repel_density(density.tolist(), v, g.neighbors[v], shares))

