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
from typing import NamedTuple, Sequence

import numpy as np

from .dynamics import LeaderState, repel_counts, repel_density
from .errors import ConfigError, EncodingError, InvalidActionError
from .graph import Graph, make_grid

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

_MOVES = {
    Action.LEFT: (0, -1),
    Action.RIGHT: (0, 1),
    Action.UP: (-1, 0),
    Action.DOWN: (1, 0),
}


def valid_actions(g: Graph, vertex: int) -> tuple[Action, ...]:
    """Actions available at ``vertex``: grid moves that exist, plus Stay.

    The order is the canonical [Left, Right, Up, Down, Stay] filtered to
    existing neighbors; Stay is always last and always present.
    """
    if not 0 <= vertex < g.num_vertices:
        raise IndexError(f"vertex {vertex} out of range")
    r, c = divmod(vertex, g.cols)
    acts = []
    if c > 0:
        acts.append(Action.LEFT)
    if c + 1 < g.cols:
        acts.append(Action.RIGHT)
    if r > 0:
        acts.append(Action.UP)
    if r + 1 < g.rows:
        acts.append(Action.DOWN)
    acts.append(Action.STAY)
    return tuple(acts)


def apply_leader_action(g: Graph, leader: LeaderState, action: Action) -> LeaderState:
    """Deterministic leader transition.

    Stay keeps the vertex and raises the repelling flag; a directional move
    goes to the corresponding grid neighbor with the flag down. Moves that
    leave the grid, and integers outside Action, raise InvalidActionError.
    """
    try:
        action = Action(action)
    except ValueError:
        raise InvalidActionError(f"{action} is not available at vertex {leader.vertex}") from None
    if action is Action.STAY:
        return LeaderState(leader.vertex, 1)
    if action not in valid_actions(g, leader.vertex):
        raise InvalidActionError(f"{action.label} is not available at vertex {leader.vertex}")
    dr, dc = _MOVES[action]
    r, c = divmod(leader.vertex, g.cols)
    return LeaderState((r + dr) * g.cols + (c + dc), 0)


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
    The result always sums to num_agents exactly.
    """
    density = np.asarray(density, dtype=np.float64)
    shares = density * num_agents
    counts = np.floor(shares).astype(np.int64)
    leftover = num_agents - int(counts.sum())
    by_remainder = sorted(range(len(density)), key=lambda v: (-(shares[v] - counts[v]), v))
    for v in by_remainder[:leftover]:
        counts[v] += 1
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
    """Grid graph and per-vertex lookup tables bundled for fast stepping.

    Instances hold no episode state, so one env can serve any number of
    concurrent episodes as long as each uses its own random stream. One
    iteration, as the training, evaluation and simulate loops run it on plain
    Python values: ``moves[v][a]`` gives the leader state after action a at v
    (``action_ids[v]`` lists the valid a as ints); if its flag is up,
    :meth:`repel` moves the followers and rates the result in one call. A
    move leaves the followers unchanged, so only a repel step needs a new
    score; :attr:`reset_score` is the score of the reset state.
    """

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self.graph = make_grid(cfg.rows, cfg.cols)
        self.initial = np.asarray(cfg.initial_dist, dtype=np.float64)
        self.target = np.asarray(cfg.target_dist, dtype=np.float64)
        m = self.graph.num_vertices
        self.actions = tuple(valid_actions(self.graph, v) for v in range(m))
        self.action_ids = tuple(tuple(int(a) for a in acts) for acts in self.actions)
        self.moves = tuple(
            {int(a): apply_leader_action(self.graph, LeaderState(v, 0), a) for a in self.actions[v]}
            for v in range(m)
        )
        self._counts_backend = cfg.backend == "dtmc"
        # Per-vertex repel shares: beta toward each sorted neighbor, then the
        # stay share; an array for the multinomial draw, plain floats for the
        # density flow.
        beta = float(cfg.beta)
        as_shares = np.array if self._counts_backend else list
        rows = ((beta,) * len(nbrs) for nbrs in self.graph.neighbors)
        self._repel_shares = tuple(as_shares((*row, 1.0 - sum(row))) for row in rows)
        self._initial_counts = largest_remainder_counts(self.initial, cfg.num_agents)
        # Dividing a density by 1 is exact, so one kernel serves both backends.
        self._scale = cfg.num_agents if self._counts_backend else 1
        self._target = self.target.tolist()
        self._radix_weights = tuple((cfg.bins + 1) ** v for v in range(m))
        self._m = m
        # Repel results keyed by the counts reached or by (vertex, *density); see repel().
        self._memo: dict[tuple, tuple[tuple, float, int]] = {}
        # reset() always starts from the same followers, so they are scored once.
        start = self._initial_counts if self._counts_backend else self.initial
        self.reset_score = self.score(start.tolist())

    def reset(self, rng: np.random.Generator) -> tuple[np.ndarray, LeaderState]:
        """Fresh episode: followers at the initial distribution, leader uniform, flag down.

        With the dtmc backend the initial counts are the largest-remainder
        apportionment of num_agents over initial_dist.
        """
        leader = LeaderState(int(rng.integers(self._m)), 0)
        if self._counts_backend:
            return self._initial_counts.copy(), leader
        return self.initial.copy(), leader

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
                followers, vertex, self.graph.neighbors[vertex], self._repel_shares[vertex], rng
            ))
            return self._memo.get(out) or self._remember(out, out)
        key = (vertex, *followers)
        return self._memo.get(key) or self._remember(key, tuple(repel_density(
            followers, vertex, self.graph.neighbors[vertex], self._repel_shares[vertex]
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
        ``bins`` steps, clipped to ``bins``. ``sq`` goes through
        ``np.dot``: its summation order sets the low bits of every reward.
        """
        n = self._scale
        bins = self.cfg.bins
        diff = []
        code = 0
        for y, t, weight in zip(followers, self._target, self._radix_weights):
            x = y / n
            diff.append(x - t)
            f = int(bins * x + 0.5)
            code += (f if f < bins else bins) * weight
        d = np.array(diff)
        return float(np.dot(d, d)), code


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
