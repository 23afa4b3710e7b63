"""Command-line interface: train, evaluate, simulate, sweep, inspect.

Configuration comes from an INI file with sections [graph], [env],
[learner], [train], [sweep]; unknown sections or keys are rejected.
Overrides apply last-wins: config file < SWHERD_* environment variables <
command-line flags. All data files are written atomically and contain no
timestamps, so repeated invocations with the same seed are byte-identical;
timestamps live only in the .meta.json sidecar.

Exit codes: 0 ok, 2 configuration error, 3 I/O failure, 4 table/environment
compatibility error.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .dynamics import LeaderState
from .environment import (
    BACKENDS,
    Action,
    EnvConfig,
    HerdingEnv,
    format_float,
    trace_header,
    trace_row,
)
from .errors import CompatibilityError, ConfigError
from .harness import (
    RunRecord,
    SweepCell,
    TrainConfig,
    aggregate,
    check_compatible,
    check_evaluation_inputs,
    derive_seed,
    evaluate,
    run_streams,
    sweep,
    train,
)
from .learner import (
    ALGORITHMS,
    FORMAT_VERSION,
    LearnerConfig,
    load_qtable,
    save_qtable,
    select_action_index,
    sidecar_path,
)

ENV_PREFIX = "SWHERD_"


# ---------------------------------------------------------------------------
# Configuration file handling
# ---------------------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_list(item):
    """Parser for a comma-separated list of ``item`` values; blank text is ()."""
    def parse(text: str) -> tuple:
        return tuple(item(x.strip()) for x in text.split(",")) if text.strip() else ()
    return parse


# One parser per config dataclass annotation, which is a string.
_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str,
            "tuple[float, ...]": _parse_list(float)}

# The [sweep] lists that span the grid, in expansion order; n_test is innermost.
GRID_KEYS = ("algorithms", "n_train", "betas", "mus", "bins", "n_test")


def _annotated(cls, defaults: dict) -> dict:
    """(parser, default) per key of ``defaults``, parsed as its ``cls`` field is annotated."""
    return {k: (_PARSERS[cls.__dataclass_fields__[k].type], d) for k, d in defaults.items()}


# Each config key's (parser, default), in the order the sweep settings file lists
# them. [env] and [learner] hold one key per field of EnvConfig and LearnerConfig;
# the grid size sits in [graph]. The defaults replicate the headline experiment: 2x2
# grid, 100 agents, beta 0.1, 10 bins, mu 0.0025, 5000 episodes of up to 5000 iterations.
CONFIG_KEYS = {
    "graph": {"rows": (int, 2), "cols": (int, 2)},
    "env": _annotated(EnvConfig, {
        "num_agents": 100,
        "beta": 0.1,
        "bins": 10,
        "mu": 0.0025,
        "backend": "dtmc",
        "max_iterations": 5000,
        "initial_dist": (0.4, 0.1, 0.1, 0.4),
        "target_dist": (0.1, 0.4, 0.4, 0.1),
    }),
    "learner": _annotated(LearnerConfig, {f.name: f.default for f in fields(LearnerConfig)}),
    "train": {"episodes": (int, 5000), "max_iters": (int, 5000), "seed": (int, 12345)},
    "sweep": {
        "name": (str, "sweep"),
        # An unset list (None) takes the [learner]/[env] value; unset n_test is n_train.
        "algorithms": (_parse_list(str), None),
        "n_train": (_parse_list(int), None),
        "n_test": (_parse_list(int), None),
        "betas": (_parse_list(float), None),
        "mus": (_parse_list(float), None),
        "bins": (_parse_list(int), None),
        "runs": (int, 1000),
        "eval_max_iters": (int, 1000),
        "epsilon_eval": (float, 0.0),
        "episodes": (int, 0),  # 0 means: use [train] episodes
        "max_iters": (int, 0),  # 0 means: use [train] max_iters
    },
}


def _set(cfg: dict, section: str, key: str, raw: str, unknown: str, name: str) -> None:
    """Parse ``raw`` into ``cfg[section][key]``. ConfigError(``unknown``) for a
    key the table lacks, and one naming ``name`` for a bad value."""
    spec = CONFIG_KEYS.get(section, {}).get(key)
    if spec is None:
        raise ConfigError(unknown)
    try:
        cfg[section][key] = spec[0](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from None


def load_config(path: str | None) -> dict:
    """Parse the config file over the defaults, then apply SWHERD_* variables."""
    cfg = {section: {k: d for k, (_, d) in keys.items()} for section, keys in CONFIG_KEYS.items()}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text, source=path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
        for section in parser.sections():
            if section not in CONFIG_KEYS:
                raise ConfigError(f"unknown section [{section}] in {path}")
            for key, raw in parser.items(section):
                _set(cfg, section, key, raw,
                     f"unknown key '{key}' in section [{section}]", f"{section}.{key}")
    for name, raw in sorted(os.environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):].lower()
        section, _, key = rest.partition("_")
        _set(cfg, section, key, raw, f"unknown environment override {name}", name)
    return cfg


def load_run_config(args) -> dict:
    """:func:`load_config`, then the ``--seed`` and ``--backend`` flags, which win.
    ConfigError for a negative seed, which numpy's seeding refuses."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["train"]["seed"] = args.seed
    if cfg["train"]["seed"] < 0:
        raise ConfigError(f"seed={cfg['train']['seed']} invalid: need a non-negative integer")
    if args.backend is not None:
        cfg["env"]["backend"] = args.backend
    return cfg


def build_env_config(cfg: dict, num_agents: int | None = None) -> EnvConfig:
    env = cfg["env"] if num_agents is None else {**cfg["env"], "num_agents": num_agents}
    return EnvConfig(**cfg["graph"], **env)


def build_train_config(cfg: dict, episodes: int = 0, max_iters: int = 0) -> TrainConfig:
    """[train]'s run; a nonzero ``episodes`` or ``max_iters`` replaces its value unchecked."""
    return TrainConfig(
        env=build_env_config(cfg),
        learner=LearnerConfig(**cfg["learner"]),
        episodes=episodes or cfg["train"]["episodes"],
        max_iters_per_episode=max_iters or cfg["train"]["max_iters"],
        seed=cfg["train"]["seed"],
    )


def expand_sweep(cfg: dict, master_seed: int) -> list[SweepCell]:
    """Cartesian sweep grid in algorithm, n_train, beta, mu, bins, n_test order.

    Cells with the same training parameters (differing only in n_test) share
    one training seed so the trained table is reused across test populations.
    Training seeds derive from the master seed and the training settings, so a
    cell's results depend on what it is, not on where it sits in the grid.
    """
    sw = cfg["sweep"]
    for key in GRID_KEYS:
        values = sw[key] or ()
        if len(set(values)) < len(values):
            raise ConfigError(f"[sweep] {key} repeats a value: {', '.join(map(str, values))}")
    base = build_train_config(cfg, sw["episodes"], sw["max_iters"])
    point = (base.learner.algorithm, base.env.num_agents, base.env.beta, base.env.mu, base.env.bins)
    # zip stops at the end of point, before n_test.
    axes = [(x,) if sw[key] is None else sw[key] for key, x in zip(GRID_KEYS, point)]
    cells = []
    for algorithm, n_train, beta, mu_value, bins in itertools.product(*axes):
        env = replace(base.env, num_agents=n_train, beta=beta, mu=mu_value, bins=bins)
        train_cfg = replace(base, env=env, learner=replace(base.learner, algorithm=algorithm))
        train_cfg = replace(train_cfg, seed=derive_seed(master_seed, _training_key(train_cfg)))
        for n_test in (n_train,) if sw["n_test"] is None else sw["n_test"]:
            cells.append(SweepCell(len(cells), train_cfg, n_test))
    return cells


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

RUNS_HEADER = "cell,run,converged,iterations,final_mse,seed"
AGGREGATE_HEADER = "algorithm,N_train,N_test,beta,mu,D,mean_iters,std_iters,conv_rate,runs"


@contextlib.contextmanager
def _temp_beside(path: Path):
    """A fresh temp file next to ``path``, with the permissions of a plain write;
    it and its sidecar are removed on exit unless moved into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(name, 0o666 & ~umask)
    try:
        yield Path(name)
    finally:
        for leftover in (Path(name), sidecar_path(name)):
            leftover.unlink(missing_ok=True)


def _write_atomic(path: Path, text: str) -> None:
    with _temp_beside(path) as tmp:
        tmp.write_text(text)
        os.replace(tmp, path)


def _save_table_atomic(table, path: Path, extra_meta: dict) -> None:
    with _temp_beside(path) as tmp:
        save_qtable(table, tmp, extra_meta)
        os.replace(tmp, path)
        os.replace(sidecar_path(tmp), sidecar_path(path))


def _run_line(cell: int, record) -> str:
    return (
        f"{cell},{record.run},{'true' if record.converged else 'false'},"
        f"{record.iterations},{format_float(record.final_mse)},{record.seed}"
    )


def _aggregate_key(algorithm, n_train, env: EnvConfig) -> str:
    """The first six aggregate fields: what was trained and what it was tested on."""
    return (
        f"{algorithm},{n_train},{env.num_agents},{format_float(env.beta)},"
        f"{format_float(env.mu)},{env.bins}"
    )


def _aggregate_line(key: str, agg) -> str:
    return (
        f"{key},{format_float(agg.mean_iterations)},{format_float(agg.std_iterations)},"
        f"{format_float(agg.convergence_rate)},{agg.runs}"
    )


def _write_results(runs_path: Path, agg_path: Path, results) -> None:
    """The runs file, then the aggregate file, of (cell index, key, records) per cell."""
    runs, rows = [RUNS_HEADER], [AGGREGATE_HEADER]
    for index, key, records in results:
        runs += [_run_line(index, r) for r in records]
        rows.append(_aggregate_line(key, aggregate(records)))
    _write_atomic(runs_path, "\n".join(runs) + "\n")
    _write_atomic(agg_path, "\n".join(rows) + "\n")


def _training_key(tc: TrainConfig) -> int:
    """What train() reads but the seed, as one int of repr bytes (floats as format_float)."""
    training = asdict(tc)
    del training["seed"], training["env"]["max_iterations"]  # only simulate reads it
    return int.from_bytes(repr(training).encode(), "little")


def _training_meta(tc: TrainConfig) -> dict:
    """Every field of ``tc``, its learner's and its env's inlined, in that order."""
    training = asdict(tc)
    training = {**training.pop("learner"), **training.pop("env"), **training}
    return {"training": training, "created_at": datetime.now(timezone.utc).isoformat()}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    train_cfg = build_train_config(load_run_config(args))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = train(train_cfg)
    table_path = out / "qtable.swhq"
    _save_table_atomic(result.table, table_path, _training_meta(train_cfg))
    log_lines = ["episode,length,cumulative_reward"]
    log_lines += [
        f"{s.episode},{s.length},{format_float(s.cumulative_reward)}" for s in result.episodes
    ]
    _write_atomic(out / "train_log.csv", "\n".join(log_lines) + "\n")
    tail = result.episodes[-100:]
    mean_len = sum(s.length for s in tail) / len(tail)
    print(f"trained {train_cfg.learner.algorithm} for {train_cfg.episodes} episodes")
    print(f"mean episode length over last {len(tail)} episodes: {mean_len:.1f}")
    print(f"wrote {table_path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_run_config(args)
    env_cfg = build_env_config(cfg, num_agents=args.n_test)
    # Refuse bad settings before reading what may be a large table.
    check_evaluation_inputs(args.runs, args.eval_max_iters, args.epsilon_eval)
    table = load_qtable(args.table)
    records, agg = evaluate(
        table,
        env_cfg,
        runs=args.runs,
        eval_max_iters=args.eval_max_iters,
        epsilon_eval=args.epsilon_eval,
        seed=cfg["train"]["seed"],
    )
    # The training fields stay unknown unless the sidecar is a JSON object
    # whose "training" object names a known algorithm and a positive count.
    try:
        meta = json.loads(sidecar_path(args.table).read_text())["training"]
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        meta = {}
    meta = meta if isinstance(meta, dict) else {}
    algorithm = meta.get("algorithm") if meta.get("algorithm") in ALGORITHMS else "unknown"
    n_train = meta.get("num_agents")
    n_train = n_train if type(n_train) is int and n_train >= 1 else 0  # bool is not int here
    out = Path(args.out_dir)
    _write_results(out / "eval_runs.csv", out / "eval_aggregate.csv",
                   [(0, _aggregate_key(algorithm, n_train, env_cfg), records)])
    print(
        f"runs={agg.runs} mean_iterations={format_float(agg.mean_iterations)} "
        f"std_iterations={format_float(agg.std_iterations)} "
        f"convergence_rate={format_float(agg.convergence_rate)}"
    )
    return 0


def render_frame(env: HerdingEnv, iteration, action, followers, leader, mse_value) -> str:
    """Plain-text frame: the grid with per-cell occupancy and a leader marker."""
    cfg = env.cfg
    arr = np.asarray(followers)
    if np.issubdtype(arr.dtype, np.integer):
        labels = [str(int(x)) for x in arr]
    else:
        labels = [f"{float(x):.3f}" for x in arr]
    width = max(len(s) for s in labels) + 2
    name = Action(action).label if action is not None else "-"
    lines = [
        f"k={iteration} action={name} leader=v{leader.vertex} flag={leader.flag} "
        f"mse={format_float(mse_value)}"
    ]
    border = "+" + "+".join("-" * (width + 1) for _ in range(cfg.cols)) + "+"
    lines.append(border)
    for r in range(cfg.rows):
        cells = []
        for c in range(cfg.cols):
            v = r * cfg.cols + c
            marker = "L" if v == leader.vertex else " "
            cells.append(f"{marker}{labels[v]:>{width}}")
        lines.append("|" + "|".join(cells) + "|")
        lines.append(border)
    lines.append("target: " + " ".join(format_float(x) for x in cfg.target_dist))
    return "\n".join(lines)


def cmd_simulate(args) -> int:
    cfg = load_run_config(args)
    env_cfg = build_env_config(cfg)
    if not 0.0 <= args.epsilon_eval <= 1.0:
        raise ConfigError(f"epsilon_eval={args.epsilon_eval} outside [0, 1]")
    table = None
    if args.policy == "greedy":
        if args.table is None:
            raise ConfigError("greedy policy needs a table path (or use --policy random)")
        table = load_qtable(args.table)
        check_compatible(table, env_cfg)
    env = HerdingEnv(env_cfg)
    rng = np.random.default_rng(cfg["train"]["seed"])
    followers, v = env.reset(rng)
    leader = LeaderState(v, 0)
    m = env_cfg.num_vertices
    # Only a repel step moves the followers and rescores them. Every iteration is
    # stepped, frozen or not: each writes a trace row.
    sq, code = env.reset_score
    terminal = sq / m < env_cfg.mu
    lines = [trace_header(env_cfg), trace_row(0, leader, None, followers, -sq, sq / m, terminal)]
    frames = [render_frame(env, 0, None, followers, leader, sq / m)] if args.frames else []
    for k in range(1, env_cfg.max_iterations + 1):
        if terminal:
            break
        valid = env.action_ids[leader.vertex]
        if table is None:
            action = valid[int(rng.integers(len(valid)))]
        else:
            s = leader.vertex + m * code
            action = select_action_index(table, s, valid, args.epsilon_eval, rng)
        leader = env.moves[leader.vertex][action]
        if leader.flag:
            followers, sq, code = env.repel(followers, leader.vertex, rng)
            terminal = sq / m < env_cfg.mu
        lines.append(trace_row(k, leader, action, followers, -sq, sq / m, terminal))
        if args.frames:
            frames.append(render_frame(env, k, action, followers, leader, sq / m))
    out = Path(args.out_dir)
    _write_atomic(out / "trace.csv", "\n".join(lines) + "\n")
    if args.frames:
        print("\n\n".join(frames))
    print(f"wrote {out / 'trace.csv'} ({len(lines) - 1} iterations)")
    return 0


def _sweep_settings(cfg: dict) -> dict:
    """What a sweep's results depend on besides its grid, as ``section.key``:
    the resolved config without the [sweep] grid lists and name. ``train.seed``
    is the master seed. Values are as JSON reads them back (tuples as lists)."""
    return json.loads(json.dumps({
        f"{section}.{key}": value
        for section, values in cfg.items()
        for key, value in values.items()
        if section != "sweep" or key not in (*GRID_KEYS, "name")
    }))


def _check_resumable(meta_path: Path, settings: dict) -> None:
    """ConfigError unless ``meta_path`` holds exactly ``settings``."""
    try:
        saved = json.loads(meta_path.read_text())
    except (OSError, ValueError, RecursionError):
        raise ConfigError(f"cannot resume: no readable settings in {meta_path}") from None
    if not isinstance(saved, dict):
        raise ConfigError(f"cannot resume: {meta_path} does not hold a JSON object")
    missing = object()
    for key in (*settings, *saved):
        if settings.get(key, missing) != saved.get(key, missing):
            raise ConfigError(f"cannot resume: {key} differs from the settings in {meta_path}")


def _resumed_lines(path: Path) -> list[str]:
    """Data lines of a sweep output that --resume reuses; ConfigError unless UTF-8."""
    try:
        return path.read_text(encoding="utf-8").splitlines()[1:]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot resume: {path} is not UTF-8 text: {exc}") from None


def _resumed_record(line: str) -> tuple[int, RunRecord]:
    """The cell and record of a runs line; ValueError unless the line reads
    back as :func:`_run_line` writes it, with a finite, non-negative final_mse."""
    cell, run, converged, iterations, final_mse, seed = line.split(",")
    cell = int(cell)
    record = RunRecord(int(run), converged == "true", int(iterations), float(final_mse), int(seed))
    if _run_line(cell, record) != line or not 0.0 <= record.final_mse < math.inf:
        raise ValueError(line)
    return cell, record


def _malformed(number: int, path: Path, line: str) -> ConfigError:
    return ConfigError(f"cannot resume: line {number} of {path} is malformed: {line!r}")


def cmd_sweep(args) -> int:
    # Checked before the resume: one with every cell done never reaches sweep().
    if args.jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {args.jobs}")
    cfg = load_run_config(args)
    sw = cfg["sweep"]
    check_evaluation_inputs(sw["runs"], sw["eval_max_iters"], sw["epsilon_eval"])
    cells = expand_sweep(cfg, cfg["train"]["seed"])
    if not cells:
        raise ConfigError("sweep grid is empty")
    out = Path(args.out_dir)
    agg_path = out / f"{sw['name']}_aggregate.csv"
    runs_path = out / f"{sw['name']}_runs.csv"
    meta_path = sidecar_path(agg_path)
    settings = _sweep_settings(cfg)
    keys = [_aggregate_key(c.train.learner.algorithm, c.train.env.num_agents, c.env) for c in cells]
    done: dict[int, list[RunRecord]] = {}
    if args.resume and agg_path.exists():
        _check_resumable(meta_path, settings)
        records_of: dict[int, list[RunRecord]] = {}
        if runs_path.exists():
            for number, line in enumerate(_resumed_lines(runs_path), start=2):
                try:
                    index, record = _resumed_record(line)
                except ValueError:
                    raise _malformed(number, runs_path, line) from None
                records_of.setdefault(index, []).append(record)
        # Seeds come from what a cell is, so run 0's seed names a cell wherever it sat.
        by_seed = {records[0].seed: records for records in records_of.values()}
        rows = {line.rsplit(",", 4)[0]: (number, line)
                for number, line in enumerate(_resumed_lines(agg_path), start=2)}
        for cell, key in zip(cells, keys):
            seeds = [run_seed for run_seed, _ in run_streams(cell.seed, sw["runs"])]
            records = by_seed.get(seeds[0], [])
            if [(r.run, r.seed) for r in records] == list(enumerate(seeds)) and key in rows:
                number, line = rows[key]
                if _aggregate_line(key, aggregate(records)) != line:
                    raise _malformed(number, agg_path, line)
                done[cell.index] = records
    pending = [cell for cell in cells if cell.index not in done]
    if pending:
        for cell, records, _ in sweep(pending, sw["runs"], sw["eval_max_iters"], sw["epsilon_eval"],
                                      args.jobs):
            done[cell.index] = records
    # Without a settings file no --resume trusts the rows, so it goes first
    # and comes back last.
    meta_path.unlink(missing_ok=True)
    _write_results(runs_path, agg_path,
                   [(cell.index, key, done[cell.index]) for cell, key in zip(cells, keys)])
    _write_atomic(meta_path, json.dumps(settings, indent=2) + "\n")
    print(f"wrote {agg_path} ({len(cells)} cells)")
    return 0


def cmd_inspect(args) -> int:
    table = load_qtable(args.table)
    entries = table.state_count * table.num_actions
    # The stored rows, plus a zero row for the states without one.
    missing = [table.zero] * (len(table.store) < table.state_count)
    values = np.array([*table.store.values(), *missing])
    nonzero = int(np.count_nonzero(values))
    try:
        # Exactly rounded, so it does not depend on where the zeros sit.
        total = math.fsum(itertools.chain.from_iterable(table.store.values()))
    except (ValueError, OverflowError):
        # Infinities of both signs, or an overflowing sum: nan or ±inf, as in numpy.
        total = values.sum()
    print(f"magic: SWHQ  version: {FORMAT_VERSION}")
    print(
        f"grid: {table.rows}x{table.cols}  vertices: {table.num_vertices}  "
        f"bins: {table.bins}  actions: {table.num_actions}"
    )
    print(f"states: {table.state_count}  entries: {entries}")
    print(
        f"min: {format_float(values.min())}  max: {format_float(values.max())}  "
        f"mean: {format_float(total / entries)}"
    )
    print(f"nonzero entries: {nonzero} ({nonzero / entries:.1%})")
    meta_file = sidecar_path(args.table)
    if meta_file.exists():
        print(f"sidecar: {meta_file}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI configuration file")
    p.add_argument("--seed", type=int, default=None, help="master seed (overrides [train] seed)")
    p.add_argument("--out-dir", default=".", help="directory for output artifacts")
    p.add_argument("--backend", choices=BACKENDS, default=None,
                   help="follower backend override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmherd",
        description="Train and evaluate leader policies that herd a swarm to a target distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a leader policy and write the Q-table")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained table over many runs")
    p.add_argument("table", help="path to a .swhq table file")
    _add_common(p)
    p.add_argument("--runs", type=int, default=1000, help="number of evaluation episodes")
    p.add_argument("--eval-max-iters", type=int, default=1000,
                   help="iteration cap per evaluation episode")
    p.add_argument("--epsilon-eval", type=float, default=0.0,
                   help="exploration rate during evaluation (default: pure greedy)")
    p.add_argument("--n-test", type=int, default=None,
                   help="evaluate with this agent count instead of the configured one")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="trace a single episode to CSV")
    p.add_argument("table", nargs="?", default=None, help="table for the greedy policy")
    _add_common(p)
    p.add_argument("--policy", choices=["greedy", "random"], default="greedy")
    p.add_argument("--epsilon-eval", type=float, default=0.0)
    p.add_argument("--frames", action="store_true", help="print a text frame per iteration")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="train and evaluate a grid of configurations")
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel training workers, at most one per training group")
    p.add_argument("--resume", action="store_true",
                   help="keep each cell whose runs are all there, in order, with its seeds; "
                        "compute the rest. Refuses (exit 2) if a kept cell's row is not its runs' "
                        "aggregate or a non-grid setting differs from the saved one")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("inspect", help="print a table's header and summary statistics")
    p.add_argument("table")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CompatibilityError as exc:
        print(f"compatibility error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
