"""Episodic herding environment.

Leader action semantics, per-iteration update order, reward, state
discretization and encoding, terminal test, and reset — over either
follower backend ("dtmc" agent counts or "mean-field" densities).

One iteration applies the leader's action first and then lets the
followers react to the leader's new position and flag, so a Stay action
repels immediately. The reward and the terminal test use the realized
post-step distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from .dynamics import LeaderState, repel_counts, repel_density
from .errors import ConfigError, EncodingError

BACKENDS = ("dtmc", "mean-field")
# How far from 1 a configured distribution's sum may be.
SIMPLEX_ATOL = 1e-9
# Most repel results one HerdingEnv keeps, on either backend. Headline dtmc
# training stores about 12,800 count vectors (under 3 MiB, about 230 bytes each);
# mean-field training of the 2x2 grid at 20 bins stores 16,665 densities
# (about 6.3 MB). Past the limit a result is computed and not stored.
MAX_MEMO_ENTRIES = 2**15


class Action(IntEnum):
    """Leader actions in canonical order; the enum value is the action index."""

    LEFT = 0
    RIGHT = 1
    UP = 2
    DOWN = 3
    STAY = 4

    @property
    def label(self) -> str:
        return self.name.capitalize()


NUM_ACTIONS = len(Action)

# The (row, column) step of each directional action, in canonical order; the
# one place the grid's geometry is written down. HerdingEnv builds its tables from it.
_MOVES = {
    Action.LEFT: (0, -1),
    Action.RIGHT: (0, 1),
    Action.UP: (-1, 0),
    Action.DOWN: (1, 0),
}


class Draws(Protocol):
    """What a reset and ε-greedy selection draw from: a numpy ``Generator``,
    or the training stream (``harness._WordStream``), which returns the
    Generator's values for these two calls from the same seed."""

    def random(self) -> float: ...

    def integers(self, k: int) -> int: ...


class DiscretizedState(NamedTuple):
    """Quantized population fractions plus the leader's vertex."""

    fractions: tuple[int, ...]
    leader_vertex: int


def num_states(bins: int, num_vertices: int) -> int:
    """Size of the encoded state space: (bins+1)^M * M."""
    return (bins + 1) ** num_vertices * num_vertices


def encode_state(state: DiscretizedState, bins: int, num_vertices: int) -> int:
    """Bijective mixed-radix index of a discretized state.

    index = leader_vertex + M * sum_v fractions[v] * (bins+1)^v
    """
    if len(state.fractions) != num_vertices:
        raise EncodingError(
            f"expected {num_vertices} fraction components, got {len(state.fractions)}"
        )
    if not 0 <= state.leader_vertex < num_vertices:
        raise EncodingError(f"leader vertex {state.leader_vertex} out of range")
    radix = bins + 1
    idx = 0
    for v in reversed(range(num_vertices)):
        f = state.fractions[v]
        if not 0 <= f <= bins:
            raise EncodingError(f"fraction component {f} outside [0, {bins}]")
        idx = idx * radix + f
    return state.leader_vertex + num_vertices * idx


def decode_state(index: int, bins: int, num_vertices: int) -> DiscretizedState:
    """Inverse of :func:`encode_state`."""
    if not 0 <= index < num_states(bins, num_vertices):
        raise EncodingError(f"state index {index} out of range")
    radix = bins + 1
    rest, leader_vertex = divmod(index, num_vertices)
    fractions = []
    for _ in range(num_vertices):
        rest, f = divmod(rest, radix)
        fractions.append(f)
    return DiscretizedState(tuple(fractions), leader_vertex)


def largest_remainder_counts(density: np.ndarray, num_agents: int) -> np.ndarray:
    """Integer apportionment of num_agents proportional to density.

    Largest-remainder method; remainder ties go to the lower vertex index.
    The shares are scaled by the density's sum, which may be off 1 by
    rounding, and the result always sums to num_agents exactly.
    """
    density = np.asarray(density, dtype=np.float64)
    shares = density * (num_agents / sum(density.tolist()))
    counts = np.floor(shares).astype(np.int64)
    leftover = num_agents - int(counts.sum())
    by_remainder = sorted(range(len(density)), key=lambda v: (-(shares[v] - counts[v]), v))
    for v in by_remainder[:max(leftover, 0)]:
        counts[v] += 1
    # Near 2**53 a share's rounding error reaches whole agents; the largest count takes it.
    counts[np.argmax(counts)] += num_agents - int(counts.sum())
    return counts


@dataclass(frozen=True)
class EnvConfig:
    """Parameters of one herding task.

    ``beta`` is the per-edge departure rate (uniform over edges), ``bins``
    the number of discretization intervals per vertex fraction, and ``mu``
    the mean-squared-error threshold that ends an episode.
    """

    rows: int
    cols: int
    num_agents: int
    beta: float
    bins: int
    mu: float
    initial_dist: tuple[float, ...]
    target_dist: tuple[float, ...]
    max_iterations: int = 5000
    backend: str = "dtmc"

    def __post_init__(self):
        # "+ 0.0" turns -0.0 into 0.0. No step makes a negative zero, so
        # densities that compare equal are then equal to the bit, which
        # HerdingEnv.repel's memo relies on.
        object.__setattr__(self, "initial_dist", tuple(float(x) + 0.0 for x in self.initial_dist))
        object.__setattr__(self, "target_dist", tuple(float(x) + 0.0 for x in self.target_dist))
        if self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2:
            raise ConfigError(f"invalid grid dimensions {self.rows}x{self.cols}")
        # Below 2**53 every count, and density * num_agents, is exact in a float.
        if not 1 <= self.num_agents < 2**53:
            raise ConfigError(f"num_agents={self.num_agents} invalid: need 1 <= num_agents < 2**53")
        if self.bins < 1:
            raise ConfigError("bins must be at least 1")
        if not 0.0 < self.mu < math.inf:
            raise ConfigError(f"mu={self.mu} invalid: need a positive finite value")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        max_degree = min(2, self.rows - 1) + min(2, self.cols - 1)
        if not 0.0 < self.beta or not self.beta * max_degree < 1.0:
            raise ConfigError(
                f"beta={self.beta} invalid: need 0 < beta and beta * {max_degree} < 1"
            )
        for name, dist in (("initial_dist", self.initial_dist), ("target_dist", self.target_dist)):
            if len(dist) != self.num_vertices:
                raise ConfigError(f"{name} must have {self.num_vertices} entries")
            # Written so that a NaN entry fails: every comparison with NaN is false.
            if not all(0.0 <= x <= 1.0 for x in dist) or abs(sum(dist) - 1.0) > SIMPLEX_ATOL:
                raise ConfigError(f"{name} is not a probability distribution")

    @property
    def num_vertices(self) -> int:
        return self.rows * self.cols


class HerdingEnv:
    """Per-vertex lookup tables of one :class:`EnvConfig`, bundled for fast stepping.

    Instances hold no episode state, so one env can serve any number of
    concurrent episodes as long as each uses its own random stream. One
    iteration, as the training, evaluation and simulate loops run it on plain
    Python values: ``moves[v][a]`` gives the leader state after action a at v
    (``action_ids[v]`` lists the valid a as ints); if its flag is up,
    :meth:`repel` moves the followers and rates the result in one call. A
    move leaves the followers unchanged, so only a repel step needs a new
    score; :attr:`reset_score` is the score of :attr:`start`, the followers
    every episode begins from. ``neighbors[v]`` lists the grid neighbors of
    v in ascending order, the order of the multinomial categories.
    """

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        m = cfg.num_vertices
        # The leader's transition: each move of _MOVES that stays on the grid
        # lands on that neighbor with the flag down; Stay, always last, raises
        # the flag in place.
        moves = []
        for v in range(m):
            r, c = divmod(v, cfg.cols)
            row = {
                int(a): LeaderState((r + dr) * cfg.cols + c + dc, 0)
                for a, (dr, dc) in _MOVES.items()
                if 0 <= r + dr < cfg.rows and 0 <= c + dc < cfg.cols
            }
            row[int(Action.STAY)] = LeaderState(v, 1)
            moves.append(row)
        self.moves = tuple(moves)
        self.action_ids = tuple(tuple(row) for row in self.moves)
        self.neighbors = tuple(
            tuple(sorted(u for u, flag in row.values() if not flag)) for row in self.moves
        )
        self._counts_backend = cfg.backend == "dtmc"
        # Per-vertex repel shares: beta toward each sorted neighbor, then the
        # stay share; an array for the multinomial draw, plain floats for the
        # density flow.
        beta = float(cfg.beta)
        as_shares = np.array if self._counts_backend else list
        rows = ((beta,) * len(nbrs) for nbrs in self.neighbors)
        self._repel_shares = tuple(as_shares((*row, 1.0 - sum(row))) for row in rows)
        # Dividing a density by 1 is exact, so one kernel serves both backends.
        self._scale = cfg.num_agents if self._counts_backend else 1
        self._radix_weights = tuple((cfg.bins + 1) ** v for v in range(m))
        # Repel results keyed by the counts reached or by (vertex, *density); see repel().
        self._memo: dict[tuple, tuple[tuple, float, int]] = {}
        # The followers of every reset, immutable like a repel result, scored once.
        self.start = (
            tuple(largest_remainder_counts(cfg.initial_dist, cfg.num_agents).tolist())
            if self._counts_backend else cfg.initial_dist
        )
        self.reset_score = self.score(self.start)

    def reset(self, rng: Draws) -> tuple[tuple, int]:
        """Fresh episode: ``(start, vertex)``, the leader at a uniform vertex,
        flag down, drawn by ``rng.integers``; rng is a ``Generator`` or the
        training stream.

        With the dtmc backend :attr:`start` holds the largest-remainder
        apportionment of num_agents over initial_dist, else initial_dist itself.
        """
        return self.start, int(rng.integers(self.cfg.num_vertices))

    def repel(
        self, followers: Sequence, vertex: int, rng: np.random.Generator
    ) -> tuple[tuple, float, int]:
        """``(followers', sq, code)`` after the leader repels at ``vertex``:
        the moved followers, as an immutable tuple, and their :meth:`score`.

        Both backends memoize on the env, up to :data:`MAX_MEMO_ENTRIES`
        entries, and a hit returns the objects of the first computation.
        Counts take one multinomial draw from ``rng`` on every call, hit or
        miss; the score is a pure function of the counts drawn, so those are
        the key. A density step draws nothing and is a pure function of
        (vertex, density), so that is the key and a hit skips the step too.
        """
        if self._counts_backend:
            out = tuple(repel_counts(
                followers, vertex, self.neighbors[vertex], self._repel_shares[vertex], rng
            ))
            return self._memo.get(out) or self._remember(out, out)
        key = (vertex, *followers)
        return self._memo.get(key) or self._remember(key, tuple(repel_density(
            followers, vertex, self.neighbors[vertex], self._repel_shares[vertex]
        )))

    def _remember(self, key: tuple, out: tuple) -> tuple[tuple, float, int]:
        """``(out, sq, code)``, stored under ``key`` while the memo has room."""
        hit = (out, *self.score(out))
        if len(self._memo) < MAX_MEMO_ENTRIES:
            self._memo[key] = hit
        return hit

    def score(self, followers: Sequence) -> tuple[float, int]:
        """``(sq, code)`` for a followers list (counts or densities).

        The reward is ``-sq`` and the episode is terminal once ``sq / M < mu``;
        ``v + M * code`` is the table index with the leader at v: the
        :func:`encode_state` of the fractions rounded half away from zero to
        ``bins`` steps, clipped to ``bins``. ``sq`` is ``((d0*d0 + d1*d1) +
        d2*d2) + ...`` from 0.0: IEEE-754 doubles alone set its bits, not BLAS.
        """
        n = self._scale
        bins = self.cfg.bins
        sq = 0.0
        code = 0
        for y, t, weight in zip(followers, self.cfg.target_dist, self._radix_weights):
            x = y / n
            d = x - t
            sq += d * d
            f = int(bins * x + 0.5)
            code += (f if f < bins else bins) * weight
        return sq, code


def format_float(x: float) -> str:
    """Shortest decimal that round-trips, keeping data files byte-stable."""
    return repr(float(x))


def trace_header(cfg: EnvConfig) -> str:
    """Column names for the per-iteration trace format."""
    kind = "count" if cfg.backend == "dtmc" else "density"
    cells = ",".join(f"{kind}_{v}" for v in range(cfg.num_vertices))
    return f"iteration,leader_vertex,leader_flag,action,{cells},reward,mse,terminal"


def trace_row(
    iteration: int,
    leader: LeaderState,
    action: Action | None,
    followers: Sequence[float] | np.ndarray,
    reward_value: float,
    mse_value: float,
    terminal: bool,
) -> str:
    """One comma-separated trace line; iteration 0 uses an empty action field."""
    arr = np.asarray(followers)
    if np.issubdtype(arr.dtype, np.integer):
        cells = ",".join(str(int(x)) for x in arr)
    else:
        cells = ",".join(format_float(x) for x in arr)
    name = Action(action).label if action is not None else ""
    return (
        f"{iteration},{leader.vertex},{leader.flag},{name},{cells},"
        f"{format_float(reward_value)},{format_float(mse_value)},"
        f"{'true' if terminal else 'false'}"
    )
