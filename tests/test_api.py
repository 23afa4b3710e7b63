"""The package exports one spelling per concept."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import swarmherd
from swarmherd import (HerdingEnv, QTable, TrainConfig, cli, dynamics, environment, errors,
                       harness, learner)

from helpers import headline_env

# The ndarray step, encode and TD layer the loop kernels replaced, the
# graph module whose grid EnvConfig and HerdingEnv.neighbors now spell, the
# rate type and step wrappers that HerdingEnv.repel replaced, the masked
# max that the Q-Learning target's greedy_action_index replaced, the
# leader transition functions whose table HerdingEnv.moves now builds itself,
# and the config parser and default tables that cli.CONFIG_KEYS merged.
RETIRED = {
    swarmherd: (
        "graph",
        "Graph",
        "make_grid",
        "max_action_value",
        "valid_actions",
        "apply_leader_action",
        "InvalidActionError",
    ),
    environment: (
        "reward",
        "mse",
        "discretize",
        "Graph",
        "make_grid",
        "valid_actions",
        "apply_leader_action",
    ),
    learner: ("q_lookup", "select_action", "update_sarsa", "update_qlearning", "max_action_value"),
    HerdingEnv: ("step", "observe", "state_index", "mse_to_target"),
    HerdingEnv(headline_env()): ("rates", "graph", "initial", "target", "actions"),
    dynamics: (
        "empirical_distribution",
        "TransitionRates",
        "follower_transition_probs",
        "step_dtmc",
        "assert_simplex",
        "mean_field_step",
    ),
    errors: ("EmptySwarmError", "InvalidRatesError", "SimplexError", "InvalidActionError"),
    cli: ("SCHEMA", "DEFAULTS"),
}


def test_public_names_resolve_once_and_exclude_retired_ones():
    names = swarmherd.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(swarmherd, name) is not None, name
    for owner, retired in RETIRED.items():
        for name in retired:
            assert name not in names
            assert not hasattr(swarmherd, name)
            assert not hasattr(owner, name), f"{owner!r}.{name}"


def test_every_module_the_benchmark_tracer_wraps_imports():
    # perfbench/tracer.py tolerates a missing attribute but not a missing
    # module, so a retirement must keep every module its TARGETS name.
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text()
    targets = next(
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    modules = {module for _, module, _ in ast.literal_eval(targets)}
    assert "swarmherd.dynamics" in modules
    for module in sorted(modules):
        importlib.import_module(module)


def test_every_swarmherd_name_the_benchmark_child_uses_resolves():
    # perfbench/child.py builds each workload's env and table through these
    # names; a rename would break the benchmark and nothing else.
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "child.py").read_text()
    tree = ast.parse(source)
    modules = {"swarmherd": "swarmherd"}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("swarmherd"):
            used.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update((a.asname, a.name) for a in node.names if a.asname
                           and a.name.startswith("swarmherd."))
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            used.add((modules[node.id], ".".join(chain)))
    assert {
        ("swarmherd.cli", "build_env_config"),
        ("swarmherd.cli", "load_config"),
        ("swarmherd", "HerdingEnv"),
        ("swarmherd", "QTable.zeros"),
    } <= used
    for module, name in sorted(used):
        owner = importlib.import_module(module)
        for part in name.split("."):
            owner = getattr(owner, part)


def test_every_name_the_benchmark_reads_or_patches_resolves():
    # Tier-1 does not run perfbench/test_smoke.py, so these names would break
    # only the benchmark if retired. perfbench/tracer.py's _train_stats binds
    # train's cfg, reads its max_iters_per_episode and the trained
    # QTable.values; its _sweep_stats binds sweep's cells and jobs;
    # perfbench/child.py's phase clock replaces train and evaluate in
    # swarmherd.cli and swarmherd.harness.
    assert "cfg" in inspect.signature(harness.train).parameters
    assert {"cells", "jobs"} <= set(inspect.signature(harness.sweep).parameters)
    assert "max_iters_per_episode" in TrainConfig.__dataclass_fields__
    assert isinstance(QTable.values, property)
    for name in ("train", "evaluate"):
        assert getattr(cli, name) is getattr(harness, name), name


def test_import_leaves_the_process_pool_unloaded():
    # Only a parallel sweep needs concurrent.futures.process; every other
    # command would pay for importing it.
    src = str(Path(swarmherd.__file__).resolve().parents[1])
    code = "import sys, swarmherd; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout == "False\n"
