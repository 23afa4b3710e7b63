"""Golden sha256 digests of every CLI data file for fixed seeds.

Each case runs ``swarmherd.cli.main`` in a fresh directory and compares the
digest of every file it writes, except a table's ``.swhq.meta.json`` sidecar
(it holds a timestamp), against ``golden_digests.json``. A sweep's settings
file holds none, so it is compared too. A refactor that claims to keep
the output bytes must leave this file untouched.

After an intended output change, rewrite the digest file with
``PYTHONPATH=src python tests/test_golden.py`` and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
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

# Two training groups on the default 2x2 task, where the training seed sets the
# policy; on the 1x2 smoke task every seed trains the same one, so SWEEP alone
# passes with one seed shared by all groups.
SWEEP_GROUPS = """\
[train]
seed = 11

[sweep]
betas = 0.05, 0.1
n_test = 100
runs = 20
eval_max_iters = 200
episodes = 200
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

# The default 2x2 task, trained briefly: most evaluation runs end in a loop of
# leader moves that moves no follower again (a frozen tail) long before the cap.
FROZEN = """\
[train]
episodes = 50
max_iters = 200
seed = 31
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
    "sweep-groups": (SWEEP_GROUPS, (["sweep"],)),
    **{
        f"meanfield-{alg}": (MEAN_FIELD.format(algorithm=alg), TRAIN_EVAL_SIMULATE)
        for alg in ("qlearning", "sarsa")
    },
    "headline": (None, (["train"], ["evaluate", TABLE, "--runs", "200", "--seed", "555"])),
    # Digests taken before evaluate() recorded frozen runs at the cap without
    # stepping them there; the mean-field case checks draws at epsilon > 0.
    "frozen-dtmc": (FROZEN, (["train"], ["evaluate", TABLE, "--runs", "20", "--seed", "9"])),
    "frozen-meanfield": (FROZEN, (["train"], [
        "evaluate", TABLE, "--runs", "20", "--seed", "9", "--backend", "mean-field",
        "--epsilon-eval", "0.002", "--eval-max-iters", "500",
    ])),
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
        if not path.name.endswith(".swhq.meta.json")
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


# Digests of the named cases, written as JSON to the file given first.
_CHILD = """\
import json, sys, tempfile
from pathlib import Path
from test_golden import run_case
digests = {}
for name in sys.argv[2:]:
    with tempfile.TemporaryDirectory() as tmp:
        digests[name] = run_case(name, Path(tmp))
Path(sys.argv[1]).write_text(json.dumps(digests))
"""


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_golden_bytes_do_not_depend_on_the_blas_kernel(coretype, tmp_path, clean_environment):
    """The mean-field cases give the golden bytes under another OpenBLAS kernel.

    OpenBLAS picks its kernels for the CPU when it loads, so the variable is
    set in a fresh interpreter before numpy is imported. Under either kernel
    a ``np.dot`` squared error gives both cases other bytes than under the
    SkylakeX kernel. A BLAS build that ignores ``OPENBLAS_CORETYPE`` makes
    this test pass trivially.
    """
    names = ["meanfield-qlearning", "meanfield-sarsa"]
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    out = tmp_path / "digests.json"
    done = subprocess.run([sys.executable, "-c", _CHILD, str(out), *names], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    expected = json.loads(DIGESTS.read_text())
    assert json.loads(out.read_text()) == {name: expected[name] for name in names}


if __name__ == "__main__":
    if any(name.startswith("SWHERD_") for name in os.environ):
        sys.exit("unset the SWHERD_* variables first")
    digests = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = run_case(case, Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS} ({sum(len(d) for d in digests.values())} files)")
