"""Training and evaluation protocols: episode loops, multi-run statistics,
and hyperparameter sweeps (with optional cross-population testing).

Everything is deterministic for a fixed seed: per-run streams derive from
(training seed, test population, run index) through numpy's SeedSequence, so
a sweep cell's results depend on what it is, not where it sits or runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .environment import NUM_ACTIONS, EnvConfig, HerdingEnv
from .errors import CompatibilityError, ConfigError
from .learner import (
    LearnerConfig,
    QTable,
    greedy_action_index,
    select_action_index,
    td_update,
)


# Most uniforms evaluate() draws at once to check a frozen tail (512 KiB).
_DRAW_CHUNK = 2**16
# Runs run_streams() seeds per batch; a power of two, so that no batch holds
# run indices of two word lengths.
_SEED_CHUNK = 2**10
_M32 = 0xFFFFFFFF
# Raw 64-bit words _WordStream takes from its bit generator per refill.
_WORD_CHUNK = 2**10
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def derive_seed(*path: int) -> int:
    """Deterministic 64-bit seed from a tuple of integers."""
    return int(np.random.SeedSequence(tuple(int(x) for x in path)).generate_state(1, np.uint64)[0])


def _seed_words(n: int) -> list[int]:
    """n's 32-bit words, least significant first, as SeedSequence reads an int."""
    if n < 0:
        raise ValueError(f"expected a non-negative seed, got {n}")
    return [n >> i & _M32 for i in range(0, max(n.bit_length(), 1), 32)]


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix on uint32 columns: xor with the current constant
    h, multiply by the next one, h * mult, and fold the high half down."""
    def hashmix(x):
        nonlocal h
        x = (x ^ h) * (h := h * mult & _M32)
        return x ^ x >> 16
    return hashmix


def _hash_words(entropy: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """``SeedSequence(row).generate_state(n_words, np.uint32)`` for every row
    of the uint32 columns ``entropy``, as n_words uint32 columns: numpy's
    algorithm and constants, whose output NEP 19 keeps stable."""
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]

    def mix(dst, y):
        x = pool[dst] * 0xCA01F9DD - hashmix(y) * 0x4973F715
        pool[dst] = x ^ x >> 16

    for src in range(4):
        for dst in range(4):
            if src != dst:
                mix(dst, pool[src])
    for y in entropy[4:]:  # the words that do not fit the pool
        for dst in range(4):
            mix(dst, y)
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    return [out(pool[i % 4]) for i in range(n_words)]


def _join(low: np.ndarray, high: np.ndarray) -> list[int]:
    """Two uint32 columns as the 64-bit ints ``high << 32 | low``."""
    return (high.astype(np.uint64) << 32 | low).tolist()


def _pcg64_states(low: np.ndarray, high: np.ndarray) -> Iterator[dict]:
    """The ``bit_generator.state`` of ``np.random.default_rng(high << 32 | low)``
    for each row: PCG64 seeds its 128-bit state and increment from four
    64-bit words of the seed's SeedSequence. A seed below 2**32 is one word
    to SeedSequence, and the word it lacks hashes as the zero high word here."""
    w = _hash_words([low, high], 8)
    for a, b, c, d in zip(*(_join(*w[i:i + 2]) for i in (0, 2, 4, 6))):
        inc = ((c << 64 | d) << 1 | 1) % 2**128
        state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) % 2**128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def run_streams(seed: int, runs: int) -> Iterator[tuple[int, dict]]:
    """``(run_seed, state)`` of each run r < runs: ``derive_seed(seed, r)``, its
    scalar reference, and the ``bit_generator.state`` of
    ``np.random.default_rng(run_seed)``, hashed _SEED_CHUNK runs at a time."""
    master = _seed_words(int(seed))
    for lo in range(0, runs, _SEED_CHUNK):
        r = np.arange(lo, min(lo + _SEED_CHUNK, runs), dtype=np.uint64)
        entropy = [np.full(len(r), w, np.uint32) for w in master]
        entropy += [(r >> 32 * i & _M32).astype(np.uint32) for i in range(len(_seed_words(lo)))]
        low, high = _hash_words(entropy, 2)
        yield from zip(_join(low, high), _pcg64_states(low, high))


class _WordStream:
    """``random()`` and ``integers(k)`` of the ``Generator`` that owns
    ``bit_generator`` (a PCG64's), draw for draw, as plain floats and ints,
    read from its raw 64-bit words _WORD_CHUNK at a time.

    ``random()`` is ``(w >> 11) * 2**-53`` of the next word w. ``integers(k)``,
    for 1 <= k < 2**32, is Lemire's method on 32-bit halves, as numpy's:
    the low half of a word first, the upper half kept pending for the next
    half drawn, as PCG64's ``has_uint32`` buffer keeps it; ``random()`` leaves
    a pending half alone, and k == 1 draws nothing. On a 2-vCPU Xeon VM a
    scalar ``Generator.random()`` took about 750 ns and ``integers(4)`` 2.5 µs;
    these take about 170 and 510 ns.
    """

    def __init__(self, bit_generator):
        from itertools import chain

        raw = bit_generator.random_raw
        self._word = chain.from_iterable(iter(lambda: raw(_WORD_CHUNK).tolist(), None)).__next__
        self._half = None

    def random(self) -> float:
        return (self._word() >> 11) * 2**-53

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & _M32
        self._half = None
        return half

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        m = self._uint32() * k
        # Reject a low half below 2**32 % k, so every result is equally likely.
        while m & _M32 < 2**32 % k:
            m = self._uint32() * k
        return m >> 32


@dataclass(frozen=True)
class TrainConfig:
    env: EnvConfig
    learner: LearnerConfig
    episodes: int
    max_iters_per_episode: int
    seed: int

    def __post_init__(self):
        if self.episodes < 1:
            raise ConfigError("episodes must be at least 1")
        if self.max_iters_per_episode < 1:
            raise ConfigError("max_iters_per_episode must be at least 1")
        # default_rng would raise its own ValueError or TypeError for these.
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed={self.seed!r} invalid: need a non-negative integer")


@dataclass(frozen=True)
class EpisodeStats:
    episode: int
    length: int
    cumulative_reward: float


@dataclass(frozen=True)
class TrainResult:
    table: QTable
    episodes: list[EpisodeStats]


@dataclass(frozen=True)
class RunRecord:
    run: int
    converged: bool
    iterations: int
    final_mse: float
    seed: int


@dataclass(frozen=True)
class EvalAggregate:
    mean_iterations: float
    std_iterations: float
    convergence_rate: float
    runs: int


@dataclass(frozen=True)
class SweepCell:
    """One sweep grid point: a training configuration evaluated at n_test agents."""

    index: int
    train: TrainConfig
    n_test: int

    def __post_init__(self):
        if self.n_test < 1:
            raise ConfigError(f"n_test must be at least 1, got {self.n_test}")

    @property
    def env(self) -> EnvConfig:
        """The environment this cell's policy is evaluated on."""
        return replace(self.train.env, num_agents=self.n_test)

    @property
    def seed(self) -> int:
        """The evaluation seed: run r of this cell draws from derive_seed(seed, r)."""
        return derive_seed(self.train.seed, self.n_test)


def train(cfg: TrainConfig) -> TrainResult:
    """Run the episodic training loop and return the table plus per-episode stats.

    Each episode resets the environment, then alternates ε-greedy action
    selection, an environment step, and a TD update until the terminal test
    fires or the per-episode iteration cap is hit. SARSA bootstraps from the
    action it selects at the successor, drawn before the update, so it also
    draws after the last step of a capped episode. Q-Learning bootstraps from
    the best valid successor action and selects each action at the top of its
    step, after the previous update, so it draws nothing after the cap.
    Deterministic for a fixed seed.

    Each step runs the :class:`HerdingEnv` kernels on plain values: followers
    are the env's immutable tuples, its start and then a repel's memoized
    result, and only a repel step moves and rescores them, so a move step
    keeps the previous reward, terminal test and follower code. Q-Learning
    scans row s' once: the argmax behind its target is the next step's greedy
    pick, unless the TD write changed that row (s' == s).
    """
    # The table first: its size check refuses an oversized grid before any work.
    table = QTable.zeros(cfg.env.bins, cfg.env.rows, cfg.env.cols)
    env = HerdingEnv(cfg.env)
    rng = np.random.default_rng(cfg.seed)
    if cfg.env.backend == "mean-field":
        # Only resets and selections draw here. dtmc keeps the Generator: its
        # repel's rng.multinomial takes a number of words that depends on the counts.
        rng = _WordStream(rng.bit_generator)
    get, zero = table.store.get, table.zero
    alpha = cfg.learner.alpha
    gamma = cfg.learner.gamma
    sarsa = cfg.learner.algorithm == "sarsa"
    max_iters = cfg.max_iters_per_episode
    mu = cfg.env.mu
    m = cfg.env.num_vertices
    valid, moves = env.action_ids, env.moves
    stats = []
    for episode in range(cfg.episodes):
        epsilon = cfg.learner.episode_epsilon(episode, cfg.episodes)
        followers, v = env.reset(rng)
        sq, code = env.reset_score
        total = 0.0
        if sq / m < mu:
            stats.append(EpisodeStats(episode, 0, 0.0))
            continue
        s = v + m * code
        best = None
        if sarsa:
            a = select_action_index(table, s, valid[v], epsilon, rng)
        for t in range(1, max_iters + 1):
            if not sarsa:
                a = select_action_index(table, s, valid[v], epsilon, rng, best)
            v, flag = moves[v][a]
            # A move leaves the followers, and so a non-terminal score, as they were.
            terminal = False
            if flag:
                followers, sq, code = env.repel(followers, v, rng)
                terminal = sq / m < mu
            r = -sq
            total += r
            target = r
            if not terminal:
                s2 = v + m * code
                if sarsa:
                    a2 = select_action_index(table, s2, valid[v], epsilon, rng)
                    target += gamma * get(s2, zero)[a2]
                else:
                    best = greedy_action_index(table, s2, valid[v])
                    target += gamma * get(s2, zero)[best]
            td_update(table, s, a, target, alpha)
            if terminal:
                break
            if s2 == s:
                best = None
            s = s2
            if sarsa:
                a = a2
        stats.append(EpisodeStats(episode, t, total))
    return TrainResult(table, stats)


def check_compatible(table: QTable, env_cfg: EnvConfig) -> None:
    """Raise CompatibilityError unless the table can drive this environment."""
    if (
        table.rows != env_cfg.rows
        or table.cols != env_cfg.cols
        or table.bins != env_cfg.bins
        or table.num_actions != NUM_ACTIONS
    ):
        raise CompatibilityError(
            f"table (grid {table.rows}x{table.cols}, bins {table.bins}, "
            f"{table.num_actions} actions) does not match environment (grid "
            f"{env_cfg.rows}x{env_cfg.cols}, bins {env_cfg.bins}, {NUM_ACTIONS} actions)"
        )


def check_evaluation_inputs(runs: int, eval_max_iters: int, epsilon_eval: float) -> None:
    """Raise ConfigError for evaluation settings that :func:`evaluate` cannot run."""
    if runs < 1:
        raise ConfigError("runs must be at least 1")
    if eval_max_iters < 1:
        raise ConfigError("eval_max_iters must be at least 1")
    if not 0.0 <= epsilon_eval <= 1.0:
        raise ConfigError(f"epsilon_eval={epsilon_eval} outside [0, 1]")


def aggregate(records: Sequence[RunRecord]) -> EvalAggregate:
    """Mean and population std of the runs' iterations, and the fraction that converged."""
    iters = np.array([r.iterations for r in records], dtype=np.float64)
    return EvalAggregate(
        mean_iterations=float(iters.mean()),
        std_iterations=float(iters.std()),
        convergence_rate=float(np.mean([r.converged for r in records])),
        runs=len(records),
    )


def _greedy_moves(table: QTable, env: HerdingEnv, followers, v: int,
                  code: int) -> tuple[int, int] | None:
    """Greedy play from leader vertex v with these followers held fixed, up to
    its first Stay on a vertex that holds followers: ``(steps, vertex)`` of
    that Stay, or None if play returns to a vertex first, and so loops forever."""
    m = env.cfg.num_vertices
    seen = set()
    while v not in seen:
        seen.add(v)
        v, flag = env.moves[v][greedy_action_index(table, v + m * code, env.action_ids[v])]
        if flag and followers[v]:
            return len(seen), v
    return None


def _greedy_walk(table: QTable, env: HerdingEnv, v: int, cap: int) -> tuple[bool, int, float]:
    """``(converged, iterations, sq)`` of greedy play on a mean-field env from
    start vertex v to convergence, the cap or a frozen loop (recorded at the
    cap): the record of a run that starts on v if its first ``iterations``
    uniforms after the reset exceed ε."""
    m, mu = env.cfg.num_vertices, env.cfg.mu
    followers = env.start
    sq, code = env.reset_score
    t = 0
    while not sq / m < mu:
        hop = _greedy_moves(table, env, followers, v, code)
        if hop is None or t + hop[0] > cap:
            return False, cap, sq
        steps, v = hop
        t += steps
        followers, sq, code = env.repel(followers, v, None)
    return True, t, sq


def _all_above(rng: np.random.Generator, epsilon: float, draws: int) -> bool:
    """Whether the next ``draws`` uniforms of rng all exceed epsilon, drawn
    at most _DRAW_CHUNK at a time; unless they do, rng is rewound to where it was."""
    state = rng.bit_generator.state
    while draws > 0:
        chunk = min(draws, _DRAW_CHUNK)
        if rng.random(chunk).min() <= epsilon:
            rng.bit_generator.state = state
            return False
        draws -= chunk
    return True


def evaluate(
    table: QTable,
    env_cfg: EnvConfig,
    runs: int,
    eval_max_iters: int = 1000,
    epsilon_eval: float = 0.0,
    seed: int = 0,
) -> tuple[list[RunRecord], EvalAggregate]:
    """Run independent greedy (or ε-greedy) episodes with a frozen table.

    Runs that fail to converge within eval_max_iters are recorded at the cap
    and included in the mean; the convergence rate reports the censoring.
    Discretization makes the table agnostic to the agent count, so env_cfg
    may use a different population than the table was trained on.

    Run r draws from ``np.random.default_rng(derive_seed(seed, r))``, whose
    state :func:`run_streams` computes for many runs at once. A mean-field
    step draws nothing, so there greedy play is walked once from each start
    vertex a run lands on (:func:`_greedy_walk`). A run whose reset lands on
    v and whose next uniforms, one per step of the walk from v, all exceed
    epsilon_eval is recorded from that walk. Otherwise its generator is
    rewound and it steps; at ε = 0 only a uniform of exactly 0.0 does that.

    Only a Stay on a vertex that holds followers moves them; a Stay on an
    empty vertex moves nothing and draws nothing, so it skips ``repel``.
    After M+1 steps without one, a run checks for a frozen tail: greedy play
    from (v, followers), walked with the followers held fixed, returns to a
    vertex before it Stays on an occupied one (at most M argmax scans). Each
    later step that draws X > epsilon_eval is then greedy, takes that one
    draw and moves no follower, so if all the run's remaining uniforms
    exceed epsilon_eval, the run can only end at the cap with its current
    score and is recorded there. The uniforms come from the run's own
    generator, at most _DRAW_CHUNK at a time; if one does not exceed
    epsilon_eval, the generator is rewound and the run steps on, with no
    second check until a follower could move again. The records are those
    of stepping every iteration, for every seed, epsilon_eval, backend and
    cap. At ε = 0 frozen tails are 95–96% of the benchmark's xpop-sweep
    evaluation steps and 46–85% of the headline's (both dtmc).
    """
    check_evaluation_inputs(runs, eval_max_iters, epsilon_eval)
    check_compatible(table, env_cfg)
    env = HerdingEnv(env_cfg)
    valid, moves = env.action_ids, env.moves
    mu = env_cfg.mu
    m = env_cfg.num_vertices
    walks = {} if env_cfg.backend == "mean-field" else None  # start vertex -> _greedy_walk
    rng = np.random.default_rng(0)  # every run sets its own state
    records = []
    for run, (run_seed, state) in enumerate(run_streams(seed, runs)):
        rng.bit_generator.state = state
        followers, v = env.reset(rng)
        if walks is not None:
            if v not in walks:
                walks[v] = _greedy_walk(table, env, v, eval_max_iters)
            converged, iterations, sq = walks[v]
            if _all_above(rng, epsilon_eval, iterations):
                records.append(RunRecord(run, converged, iterations, sq / m, run_seed))
                continue
        sq, code = env.reset_score
        iterations = 0
        converged = sq / m < mu
        if not converged:
            idle = 0  # steps since the followers last had a chance to move
            for t in range(1, eval_max_iters + 1):
                a = select_action_index(table, v + m * code, valid[v], epsilon_eval, rng)
                v, flag = moves[v][a]
                iterations = t
                # Only a Stay on an occupied vertex moves the followers, so only it ends a run.
                if flag and followers[v]:
                    idle = 0
                    followers, sq, code = env.repel(followers, v, rng)
                    if sq / m < mu:
                        converged = True
                        break
                else:
                    idle += 1
                    if (idle == m + 1 and _greedy_moves(table, env, followers, v, code) is None
                            and _all_above(rng, epsilon_eval, eval_max_iters - t)):
                        iterations = eval_max_iters
                        break
        records.append(RunRecord(run, converged, iterations, sq / m, run_seed))
    return records, aggregate(records)


def _sweep_group(args) -> list[tuple[SweepCell, list[RunRecord], EvalAggregate]]:
    cells, runs, eval_max_iters, epsilon_eval = args
    table = train(cells[0].train).table
    return [(cell, *evaluate(table, cell.env, runs, eval_max_iters, epsilon_eval, seed=cell.seed))
            for cell in cells]


def sweep(
    cells: Sequence[SweepCell],
    runs: int,
    eval_max_iters: int = 1000,
    epsilon_eval: float = 0.0,
    jobs: int = 1,
) -> list[tuple[SweepCell, list[RunRecord], EvalAggregate]]:
    """Train and evaluate every sweep cell; one (cell, records, aggregate) per cell.

    Cells that share a training configuration (cross-population testing)
    reuse one trained table. Work is parallelized per training group, with
    at most one worker per group and no more than ``jobs``; results are
    ordered by cell index regardless of completion order.
    """
    if not cells:
        raise ConfigError("sweep grid is empty")
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    check_evaluation_inputs(runs, eval_max_iters, epsilon_eval)
    groups: dict[TrainConfig, list[SweepCell]] = {}
    for cell in cells:
        groups.setdefault(cell.train, []).append(cell)
    tasks = [(group, runs, eval_max_iters, epsilon_eval) for group in groups.values()]
    workers = min(jobs, len(tasks))
    if workers > 1:
        # Imported here: only a parallel sweep pays for the process pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(_sweep_group, tasks))
    else:
        grouped = [_sweep_group(task) for task in tasks]
    return sorted((result for group in grouped for result in group), key=lambda r: r[0].index)
