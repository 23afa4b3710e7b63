"""Golden sha256 digests of every CLI data file for fixed seeds.

Each case runs ``swarmherd.cli.main`` in a fresh directory and compares the
digest of every file it writes, except the ``.meta.json`` sidecars (they hold
a timestamp), against ``golden_digests.json``. A refactor that claims to keep
the output bytes must leave this file untouched.

After an intended output change, rewrite the digest file with
``PYTHONPATH=src python tests/test_golden.py`` and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from swarmherd.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

SMOKE = """\
[graph]
rows = 1
cols = 2

[env]
num_agents = 10
beta = 0.4
bins = 2
mu = 0.01
max_iterations = 200
initial_dist = 1.0, 0.0
target_dist = 0.0, 1.0

[learner]
algorithm = {algorithm}

[train]
episodes = 50
max_iters = {max_iters}
seed = 5
"""

SWEEP = SMOKE.format(algorithm="qlearning", max_iters=200) + """
[sweep]
name = demo
algorithms = qlearning, sarsa
n_train = 10
n_test = 5, 10
betas = 0.3, 0.4
mus = 0.01
bins = 2
runs = 5
eval_max_iters = 200
episodes = 40
"""

MEAN_FIELD = """\
[env]
backend = mean-field

[learner]
algorithm = {algorithm}

[train]
episodes = 1000
seed = 77
"""

TABLE = "{out}/qtable.swhq"
TRAIN_EVAL_SIMULATE = (
    ["train"],
    ["evaluate", TABLE, "--runs", "50", "--eval-max-iters", "200", "--seed", "7"],
    ["simulate", TABLE, "--seed", "3", "--epsilon-eval", "0.2"],
)

# case name -> (config text, or None for the built-in headline defaults; commands)
CASES = {
    **{
        f"smoke-{alg}": (SMOKE.format(algorithm=alg, max_iters=200), TRAIN_EVAL_SIMULATE)
        for alg in ("qlearning", "sarsa")
    },
    **{f"sweep-jobs{jobs}": (SWEEP, (["sweep", "--jobs", str(jobs)],)) for jobs in (1, 2)},
    **{
        f"meanfield-{alg}": (MEAN_FIELD.format(algorithm=alg), TRAIN_EVAL_SIMULATE)
        for alg in ("qlearning", "sarsa")
    },
    "headline": (None, (["train"], ["evaluate", TABLE, "--runs", "200", "--seed", "555"])),
    # Nearly every episode hits the 3-iteration cap, which pins each algorithm's
    # random-draw order at the cap.
    **{
        f"capped-{alg}": (SMOKE.format(algorithm=alg, max_iters=3), (["train"],))
        for alg in ("qlearning", "sarsa")
    },
}


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Run one case's commands in workdir; return {file name: sha256}."""
    config_text, commands = CASES[name]
    out = workdir / "out"
    common = ["--out-dir", str(out)]
    if config_text is not None:
        config = workdir / "case.ini"
        config.write_text(config_text)
        common += ["--config", str(config)]
    for command in commands:
        argv = [arg.format(out=out) for arg in command] + common
        rc = main(argv)
        if rc != 0:
            raise AssertionError(f"{name}: {' '.join(command)} exited {rc}")
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if not path.name.endswith(".meta.json")
    }


@pytest.fixture
def clean_environment(monkeypatch):
    for name in list(os.environ):
        if name.startswith("SWHERD_"):
            monkeypatch.delenv(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_data_files_match_golden_digests(name, tmp_path, clean_environment):
    expected = json.loads(DIGESTS.read_text())[name]
    assert run_case(name, tmp_path) == expected


if __name__ == "__main__":
    if any(name.startswith("SWHERD_") for name in os.environ):
        sys.exit("unset the SWHERD_* variables first")
    digests = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = run_case(case, Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS} ({sum(len(d) for d in digests.values())} files)")
