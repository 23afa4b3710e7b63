"""One step of a benchmark workload, run in a fresh process by run.py.

    python3 perfbench/child.py setup REPORT [CONFIG]
    python3 perfbench/child.py run   REPORT PHASES -- CLI_ARGS...
    python3 perfbench/child.py trace REPORT PHASES SPANS -- CLI_ARGS...

``setup`` imports swarmherd and builds the workload's HerdingEnv and zero
QTable, then exits; run.py times the whole process. ``run`` calls
``swarmherd.cli.main(CLI_ARGS)`` with a phase clock on ``harness.train`` and
``harness.evaluate``: each call appends one JSON line (pid, seconds, steps,
runs) to PHASES, so calls made in forked sweep workers are counted too.
``trace`` does the same with every layer wrapped by tracer.py, and writes the
spans to SPANS. REPORT receives a JSON object with the exit code and timings.

swarmherd must be importable from ``src/`` of the current directory; any
other copy is refused.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path


def _import_swarmherd():
    import swarmherd

    src = (Path.cwd() / "src").resolve()
    if src not in Path(swarmherd.__file__).resolve().parents:
        sys.exit(f"child: swarmherd imported from {swarmherd.__file__}, not from {src}")
    return swarmherd


def _setup(report: Path, config: str | None) -> None:
    import numpy as np

    swarmherd = _import_swarmherd()
    from swarmherd.cli import build_env_config, load_config

    env_cfg = build_env_config(load_config(config))
    swarmherd.HerdingEnv(env_cfg)
    swarmherd.QTable.zeros(env_cfg.bins, env_cfg.rows, env_cfg.cols)
    report.write_text(json.dumps({
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "swarmherd": swarmherd.__version__,
    }))


def _clocked(kind: str, fn, phases: Path, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        steps, runs = count(result)
        with phases.open("a") as f:
            f.write(json.dumps({
                "phase": kind, "pid": os.getpid(), "s": seconds, "steps": steps, "runs": runs,
            }) + "\n")
        return result

    return wrapper


def _train_count(result):
    return sum(e.length for e in result.episodes), 0


def _evaluate_count(result):
    records = result[0]
    return sum(r.iterations for r in records), len(records)


def install_phase_clock(phases: Path) -> None:
    import swarmherd.cli as cli
    import swarmherd.harness as harness

    for module in (cli, harness):
        module.train = _clocked("train", module.train, phases, _train_count)
        module.evaluate = _clocked("evaluate", module.evaluate, phases, _evaluate_count)


def _run(report: Path, phases: Path, spans: Path | None, argv: list[str]) -> int:
    _import_swarmherd()
    import swarmherd.cli as cli

    install_phase_clock(phases)
    main = cli.main
    tracer = None
    if spans is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", main)
    t0 = time.perf_counter()
    code = main(argv)
    main_s = time.perf_counter() - t0
    result = {"code": code, "main_s": main_s}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.save(spans)
    report.write_text(json.dumps(result))
    return code


def main(argv: list[str]) -> int:
    mode, report, *rest = argv
    report = Path(report)
    if mode == "setup":
        _setup(report, rest[0] if rest else None)
        return 0
    split = rest.index("--")
    paths, cli_args = rest[:split], rest[split + 1:]
    if mode == "run":
        return _run(report, Path(paths[0]), None, cli_args)
    if mode == "trace":
        return _run(report, Path(paths[0]), Path(paths[1]), cli_args)
    sys.exit(f"child: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
