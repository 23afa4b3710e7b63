"""Independent reference implementations used to cross-check the library.

These deliberately take the slow, explicit route: the mean-field oracle
builds one routing matrix per edge and sums them, the policy oracle runs
exhaustive value iteration over every encoded state instead of
temporal-difference learning, and the step, state, selection and TD
references below spell out on numpy arrays what the training, evaluation
and simulate loops do on plain values. Neighbors and the leader's moves
come from grid coordinates and repel shares from ``beta``; ``reward``
adds the squared errors in the library's fixed left-to-right order, with
its own ``functools.reduce``, so the two agree to the bit. None of them
calls the loop kernels (``HerdingEnv.moves``, ``HerdingEnv.repel``/``score``
and the ``dynamics`` functions under them, ``td_update``,
``greedy_action_index``), so a fault there shows as a mismatch.
"""

from __future__ import annotations

import functools

import numpy as np

from swarmherd import Action, HerdingEnv, LeaderState
from swarmherd.environment import (
    DiscretizedState,
    decode_state,
    encode_state,
    num_states,
)


def reward(current, target) -> float:
    """Negative squared Euclidean distance between two distributions.

    The squares are added left to right from 0.0,
    ``((d0*d0 + d1*d1) + d2*d2) + ...``, the order the library fixes.
    """
    diffs = (np.asarray(current, dtype=np.float64) - np.asarray(target, dtype=np.float64)).tolist()
    return -functools.reduce(lambda acc, d: acc + d * d, diffs, 0.0)


def mse(current, target) -> float:
    """Per-vertex mean of the squared distribution error."""
    return -reward(current, target) / len(target)


def discretize(density, bins: int) -> np.ndarray:
    """Vertex fractions rounded half away from zero to integers in [0, bins]."""
    f = np.floor(bins * np.asarray(density, dtype=np.float64) + 0.5).astype(np.int64)
    return np.clip(f, 0, bins)


def observe(env: HerdingEnv, followers) -> np.ndarray:
    """The distribution the leader sees: empirical fractions or the density itself."""
    if env.cfg.backend == "dtmc":
        return np.asarray(followers) / env.cfg.num_agents
    return np.asarray(followers, dtype=np.float64)


def state_index(env: HerdingEnv, followers, leader_vertex: int) -> int:
    """Table row of an observation: encode_state of its discretized fractions."""
    cfg = env.cfg
    fractions = tuple(int(x) for x in discretize(observe(env, followers), cfg.bins))
    return encode_state(DiscretizedState(fractions, leader_vertex), cfg.bins, cfg.num_vertices)


def grid_neighbors(rows: int, cols: int, v: int) -> list[int]:
    """Vertices at Manhattan distance 1 from v on a rows x cols grid, ascending."""
    r, c = divmod(v, cols)
    return [u for u in range(rows * cols) if abs(u // cols - r) + abs(u % cols - c) == 1]


# The (row, column) step of Left, Right, Up and Down, at their Action values.
DIRECTIONS = ((0, -1), (0, 1), (-1, 0), (1, 0))


def leader_moves(rows: int, cols: int, v: int) -> dict[Action, LeaderState]:
    """The leader's state after each action available at v, in canonical order.

    A direction is available when some vertex sits one step that way from v
    (found from coordinates, like :func:`grid_neighbors`); the leader lands on
    it with the flag down. Stay, always last, raises the flag at v.
    """
    r, c = divmod(v, cols)
    moves = {
        Action(a): LeaderState(u, 0)
        for a, step in enumerate(DIRECTIONS)
        for u in range(rows * cols)
        if (u // cols - r, u % cols - c) == step
    }
    moves[Action.STAY] = LeaderState(v, 1)
    return moves


def edge_shares(beta: float, degree: int) -> np.ndarray:
    """Share of a repelled vertex's mass per outgoing edge, then the share that
    stays; the stay share subtracts the edge shares one by one."""
    row = [float(beta)] * degree
    return np.array(row + [1.0 - sum(row)])


def follower_step(env: HerdingEnv, followers, leader: LeaderState, rng) -> np.ndarray:
    """Followers after one iteration with the leader at ``leader``.

    A passive leader leaves them as they are and draws nothing. A repelling
    leader at v splits the mass at v by :func:`edge_shares` over v's grid
    neighbors and v itself: with counts one ``rng.multinomial`` draw, with a
    density the shares times density[v].
    """
    dtmc = env.cfg.backend == "dtmc"
    followers = np.array(followers, dtype=np.int64 if dtmc else np.float64)
    if leader.flag != 1:
        return followers
    v = leader.vertex
    nbrs = grid_neighbors(env.cfg.rows, env.cfg.cols, v)
    shares = edge_shares(env.cfg.beta, len(nbrs))
    moved = rng.multinomial(followers[v], shares) if dtmc else shares * followers[v]
    followers[nbrs] += moved[:-1]
    followers[v] = moved[-1]
    return followers


def reference_step(env: HerdingEnv, followers, leader: LeaderState, action, rng):
    """One iteration: the leader acts (:func:`leader_moves`), then the
    followers react (:func:`follower_step`).

    Returns (followers', leader', reward, terminal); ``rng`` is drawn from
    only when the leader repels.
    """
    leader = leader_moves(env.cfg.rows, env.cfg.cols, leader.vertex)[action]
    followers = follower_step(env, followers, leader, rng)
    dist = observe(env, followers)
    target = env.cfg.target_dist
    return followers, leader, reward(dist, target), mse(dist, target) < env.cfg.mu


def masked_argmax(values: np.ndarray, s: int, valid) -> int:
    """First valid action with the largest value in row s."""
    best = valid[0]
    for a in valid:
        if values[s, a] > values[s, best]:
            best = a
    return best


def select(values: np.ndarray, s: int, valid, epsilon: float, rng):
    """ε-greedy: draw X first; exploit when X > epsilon, else draw an explore index."""
    if rng.random() > epsilon:
        return masked_argmax(values, s, valid)
    return valid[int(rng.integers(len(valid)))]


def sarsa_write(values, s, a, r, s2, a2, alpha, gamma, terminal=False) -> None:
    """Q(s,a) += alpha * (r + gamma * Q(s',a') - Q(s,a)); target r when terminal."""
    target = r if terminal else r + gamma * values[s2, a2]
    values[s, a] += alpha * (target - values[s, a])


def qlearning_write(values, s, a, r, s2, valid2, alpha, gamma, terminal=False) -> None:
    """Q(s,a) += alpha * (r + gamma * max over valid a' of Q(s',a') - Q(s,a))."""
    target = r if terminal else r + gamma * max(values[s2, b] for b in valid2)
    values[s, a] += alpha * (target - values[s, a])


def mean_field_matrix_step(cfg, beta, leader, density):
    """Propagate a density by explicitly summing per-edge routing matrices.

    The grid's edges come from vertex coordinates: (src, dst) is an edge
    when the two sit at Manhattan distance at most 1, self-edges included.
    Each edge e contributes u_e * B_e where B_e has a single 1 at
    (target(e), source(e)) and u_e is the edge's transition coefficient
    under the given leader state (beta on outgoing edges at a repelling
    leader's vertex, the complementary mass on that vertex's self-edge,
    and an identity self-loop everywhere else).
    """
    m = cfg.num_vertices
    density = np.asarray(density, dtype=np.float64)
    out = np.zeros(m)
    repelling = leader.flag == 1
    edges = [
        (src, dst)
        for src in range(m)
        for dst in range(m)
        if abs(src // cfg.cols - dst // cfg.cols) + abs(src % cfg.cols - dst % cfg.cols) <= 1
    ]
    for src, dst in edges:
        if src == dst:
            if repelling and leader.vertex == src:
                u = 1.0 - sum(beta for s, d in edges if s == src != d)
            else:
                u = 1.0
        elif repelling and leader.vertex == src:
            u = beta
        else:
            u = 0.0
        if u == 0.0:
            continue
        basis = np.zeros((m, m))
        basis[dst, src] = 1.0
        out += u * (basis @ density)
    return out


class PolicyOracle:
    """Optimal policy by exhaustive value iteration over the encoded states.

    Every encoded state with a non-empty fraction vector is represented by
    the density obtained by normalizing its fraction vector; transitions
    and rewards then follow the deterministic mean-field dynamics. States
    whose representative already satisfies the terminal test are absorbing
    and excluded from policy comparison.
    """

    def __init__(self, env: HerdingEnv, gamma: float):
        self.env = env
        cfg = env.cfg
        self.bins = cfg.bins
        self.m = cfg.num_vertices
        self.gamma = gamma
        self.representative = {}
        for idx in range(num_states(self.bins, self.m)):
            ds = decode_state(idx, self.bins, self.m)
            total = sum(ds.fractions)
            if total > 0:
                self.representative[idx] = np.array(ds.fractions, dtype=np.float64) / total
        self.terminal = {}
        self.transitions = {}
        target = cfg.target_dist
        for idx, density in self.representative.items():
            ds = decode_state(idx, self.bins, self.m)
            self.terminal[idx] = mse(density, target) < cfg.mu
            if self.terminal[idx]:
                continue
            moves = {}
            for action, leader in leader_moves(cfg.rows, cfg.cols, ds.leader_vertex).items():
                next_density = follower_step(env, density, leader, None)
                next_idx = self._encode(next_density, leader.vertex)
                moves[action] = (
                    next_idx,
                    reward(next_density, target),
                    mse(next_density, target) < cfg.mu,
                )
            self.transitions[idx] = moves
        self.values = self._value_iteration()
        self.policy = {idx: self._best_action(idx)[0] for idx in self.transitions}

    def _encode(self, density, leader_vertex):
        fractions = tuple(int(x) for x in discretize(density, self.bins))
        return encode_state(DiscretizedState(fractions, leader_vertex), self.bins, self.m)

    def _value_iteration(self, tol=1e-13, max_sweeps=100_000):
        values = {idx: 0.0 for idx in self.representative}
        for _ in range(max_sweeps):
            delta = 0.0
            for idx, moves in self.transitions.items():
                best = max(
                    r + (0.0 if term else self.gamma * values[nxt])
                    for nxt, r, term in moves.values()
                )
                delta = max(delta, abs(best - values[idx]))
                values[idx] = best
            if delta < tol:
                return values
        raise RuntimeError("value iteration did not converge")

    def _best_action(self, idx):
        best_action, best_value = None, None
        # Iterate in canonical action order so ties break exactly like the
        # learner's greedy selection.
        for action, (nxt, r, term) in self.transitions[idx].items():
            value = r + (0.0 if term else self.gamma * self.values[nxt])
            if best_value is None or value > best_value + 1e-12:
                best_action, best_value = action, value
        return best_action, best_value

    def reachable_nonterminal(self) -> set[int]:
        """Closure under all valid actions from the initial condition.

        The leader's start vertex is randomized at reset, so every leader
        position over the initial fraction vector seeds the search; terminal
        states stop the expansion.
        """
        fractions = tuple(int(x) for x in discretize(self.env.cfg.initial_dist, self.bins))
        frontier = [
            encode_state(DiscretizedState(fractions, v), self.bins, self.m)
            for v in range(self.m)
        ]
        seen: set[int] = set()
        while frontier:
            idx = frontier.pop()
            if idx in seen or self.terminal.get(idx, True):
                continue
            seen.add(idx)
            frontier.extend(nxt for nxt, _, _ in self.transitions[idx].values())
        return seen
