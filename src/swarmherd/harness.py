"""Training and evaluation protocols: episode loops, multi-run statistics,
and hyperparameter sweeps (with optional cross-population testing).

Everything is deterministic for a fixed seed: per-run streams derive from
(training seed, test population, run index) through numpy's SeedSequence, so
a sweep cell's results depend on what it is, not where it sits or runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

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


def derive_seed(*path: int) -> int:
    """Deterministic 64-bit seed from a tuple of integers."""
    return int(np.random.SeedSequence(tuple(int(x) for x in path)).generate_state(1, np.uint64)[0])


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


def _greedy_loop(table: QTable, env: HerdingEnv, followers, v: int, code: int) -> bool:
    """Whether greedy play from leader vertex v, with these followers held
    fixed, returns to a vertex before it Stays on one that holds followers."""
    m = env.cfg.num_vertices
    seen = set()
    while v not in seen:
        seen.add(v)
        v, flag = env.moves[v][greedy_action_index(table, v + m * code, env.action_ids[v])]
        if flag and followers[v]:
            return False
    return True


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
    evaluation steps, 46–85% of the headline's and none of meanfield-d20's.
    """
    check_evaluation_inputs(runs, eval_max_iters, epsilon_eval)
    check_compatible(table, env_cfg)
    env = HerdingEnv(env_cfg)
    valid, moves = env.action_ids, env.moves
    mu = env_cfg.mu
    m = env_cfg.num_vertices
    records = []
    for run in range(runs):
        run_seed = derive_seed(seed, run)
        rng = np.random.default_rng(run_seed)
        followers, v = env.reset(rng)
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
                    if (idle == m + 1 and _greedy_loop(table, env, followers, v, code)
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
