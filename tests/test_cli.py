import configparser
import json
import math
import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmherd import (
    Action,
    EnvConfig,
    HerdingEnv,
    LeaderState,
    LearnerConfig,
    QTable,
    decode_state,
    load_qtable,
    save_qtable,
)
from swarmherd.cli import (
    CONFIG_KEYS,
    GRID_KEYS,
    build_env_config,
    build_train_config,
    expand_sweep,
    load_config,
    main,
    render_frame,
)
from swarmherd.environment import format_float, trace_header, trace_row
from swarmherd.errors import ConfigError

import oracles
from helpers import put

SMOKE_CONFIG = """\
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
algorithm = qlearning

[train]
episodes = 50
max_iters = 200
seed = 5
"""


# JSON text nested too deep for json.loads, which raises RecursionError on it.
NESTED_JSON = "[" * 200_000


@pytest.fixture
def smoke_config(tmp_path):
    path = tmp_path / "smoke.ini"
    path.write_text(SMOKE_CONFIG)
    return str(path)


@pytest.fixture
def trained_dir(tmp_path, smoke_config):
    out = tmp_path / "trained"
    assert main(["train", "--config", smoke_config, "--out-dir", str(out)]) == 0
    return out


# --- config loading -------------------------------------------------------------

def test_defaults_replicate_headline_experiment():
    cfg = load_config(None)
    assert cfg["graph"] == {"rows": 2, "cols": 2}
    assert cfg["env"]["num_agents"] == 100
    assert cfg["env"]["beta"] == 0.1
    assert cfg["env"]["bins"] == 10
    assert cfg["env"]["mu"] == 0.0025
    assert cfg["learner"]["alpha"] == 0.3
    assert cfg["learner"]["gamma"] == 0.9
    assert cfg["train"]["episodes"] == 5000
    assert cfg["train"]["max_iters"] == 5000


def test_env_and_learner_keys_are_the_config_fields():
    env_fields = {f.name for f in fields(EnvConfig)}
    assert set(CONFIG_KEYS["graph"]) == {"rows", "cols"}
    assert set(CONFIG_KEYS["env"]) == env_fields - {"rows", "cols"}
    assert set(CONFIG_KEYS["learner"]) == {f.name for f in fields(LearnerConfig)}


def test_unknown_key_is_rejected_by_name(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[learner]\nalpha_decay = 0.5\n")
    assert main(["train", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "alpha_decay" in capsys.readouterr().err


def test_unknown_section_is_rejected(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[rewards]\nscale = 2\n")
    assert main(["train", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "rewards" in capsys.readouterr().err


def test_bad_value_is_rejected_by_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[env]\nbeta = chunky\n")
    assert main(["train", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "beta" in capsys.readouterr().err


def test_non_finite_env_value_is_a_config_error(tmp_path, capsys):
    for line in ("initial_dist = nan, 0.5, 0.25, 0.25", "target_dist = 0.1, 0.4, 0.4, nan",
                 "mu = nan", "mu = inf"):
        path = tmp_path / "nan.ini"
        path.write_text(f"[env]\n{line}\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out-dir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "latin1.ini").write_bytes(b"[env]\n; \xb5 is not UTF-8\nbeta = 0.1\n")
    for name in ("nope.ini", "a_directory", "latin1.ini"):
        path = tmp_path / name
        assert main(["train", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        with pytest.raises(ConfigError, match=name):
            load_config(str(path))


def test_env_var_overrides_file(smoke_config, monkeypatch):
    monkeypatch.setenv("SWHERD_TRAIN_SEED", "99")
    cfg = load_config(smoke_config)
    assert cfg["train"]["seed"] == 99


def test_unknown_env_var_is_rejected(smoke_config, monkeypatch):
    monkeypatch.setenv("SWHERD_TRAIN_WARP", "9")
    with pytest.raises(ConfigError, match="SWHERD_TRAIN_WARP"):
        load_config(smoke_config)


def test_flag_beats_env_var(tmp_path, smoke_config, monkeypatch):
    monkeypatch.setenv("SWHERD_TRAIN_SEED", "99")
    out = tmp_path / "flagged"
    assert main(["train", "--config", smoke_config, "--out-dir", str(out), "--seed", "123"]) == 0
    meta = json.loads((out / "qtable.swhq.meta.json").read_text())
    assert meta["training"]["seed"] == 123


@pytest.mark.parametrize("source", ["flag", "env", "file"])
@pytest.mark.parametrize("command", [
    ["train"], ["evaluate", "absent.swhq"], ["simulate", "--policy", "random"], ["sweep"],
])
def test_negative_seed_is_a_config_error(tmp_path, monkeypatch, capsys, command, source):
    seed = {"flag": "-1", "env": "-2", "file": "-3"}[source]
    config = tmp_path / "negative.ini"
    config.write_text(SMOKE_CONFIG.replace("seed = 5", f"seed = {seed}") if source == "file"
                      else SMOKE_CONFIG)
    flags = ["--seed", seed] if source == "flag" else []
    if source == "env":
        monkeypatch.setenv("SWHERD_TRAIN_SEED", seed)
    out = tmp_path / "out"
    # The seed is refused before anything is read or written: an absent table would exit 3.
    assert main(command + ["--config", str(config), "--out-dir", str(out)] + flags) == 2
    assert f"seed={seed} invalid" in capsys.readouterr().err
    assert not out.exists()


# --- train ------------------------------------------------------------------------

def test_train_with_builtin_defaults(tmp_path):
    # no --config: the built-in defaults run the headline protocol end to end
    out = tmp_path / "default_run"
    assert main(["train", "--out-dir", str(out)]) == 0
    meta = json.loads((out / "qtable.swhq.meta.json").read_text())["training"]
    assert meta["num_agents"] == 100
    assert meta["bins"] == 10
    assert meta["mu"] == 0.0025
    assert meta["beta"] == 0.1
    assert meta["alpha"] == 0.3 and meta["gamma"] == 0.9
    assert meta["episodes"] == 5000 and meta["max_iters_per_episode"] == 5000
    assert (out / "qtable.swhq").stat().st_size == 28 + 11**4 * 4 * 5 * 8


def test_sidecar_records_every_config_field(smoke_config, trained_dir):
    training = json.loads((trained_dir / "qtable.swhq.meta.json").read_text())["training"]
    tc = build_train_config(load_config(smoke_config))
    expected = {"episodes": 50, "max_iters_per_episode": 200, "seed": 5}
    for config in (tc.env, tc.learner):
        for f in fields(config):
            value = getattr(config, f.name)
            expected[f.name] = list(value) if isinstance(value, tuple) else value
    assert training == expected
    assert training["max_iterations"] == 200


def test_train_writes_artifacts(trained_dir):
    assert (trained_dir / "qtable.swhq").exists()
    meta = json.loads((trained_dir / "qtable.swhq.meta.json").read_text())
    assert meta["magic"] == "SWHQ"
    assert meta["training"]["algorithm"] == "qlearning"
    log = (trained_dir / "train_log.csv").read_text().splitlines()
    assert log[0] == "episode,length,cumulative_reward"
    assert len(log) == 51


def test_train_is_byte_reproducible(tmp_path, smoke_config):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--config", smoke_config, "--out-dir", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "qtable.swhq").read_bytes() == (outs[1] / "qtable.swhq").read_bytes()
    assert (outs[0] / "train_log.csv").read_bytes() == (outs[1] / "train_log.csv").read_bytes()


def test_train_refuses_oversized_table_without_allocating(tmp_path, capsys):
    import tracemalloc

    config = tmp_path / "big.ini"
    config.write_text(
        "[graph]\nrows = 3\ncols = 3\n\n[env]\n"
        "initial_dist = 1, 0, 0, 0, 0, 0, 0, 0, 0\n"
        "target_dist = 0, 0, 0, 0, 0, 0, 0, 0, 1\n"
    )
    tracemalloc.start()
    try:
        rc = main(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert "848861168760 bytes" in err and "GiB" in err
    assert peak < 10 * 2**20


def test_train_refuses_a_20x20_grid(tmp_path, capsys):
    config = tmp_path / "big.ini"
    zeros = ", ".join(["0"] * 399)
    config.write_text(
        "[graph]\nrows = 20\ncols = 20\n\n[env]\n"
        f"initial_dist = 1, {zeros}\ntarget_dist = {zeros}, 1\n"
    )
    assert main(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    assert "20x20 table" in capsys.readouterr().err


def test_num_agents_beyond_exact_floats_is_a_config_error(tmp_path, smoke_config, monkeypatch,
                                                           capsys):
    monkeypatch.setenv("SWHERD_ENV_NUM_AGENTS", "100000000000000000000")
    assert main(["train", "--config", smoke_config, "--out-dir", str(tmp_path / "out")]) == 2
    assert "num_agents" in capsys.readouterr().err


def test_train_unwritable_out_dir_is_io_error(tmp_path, smoke_config, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("already a file")
    rc = main(["train", "--config", smoke_config, "--out-dir", str(blocker / "sub")])
    assert rc == 3


# --- evaluate ----------------------------------------------------------------------

def test_evaluate_emits_records_and_aggregate(tmp_path, smoke_config, trained_dir, capsys):
    out = tmp_path / "eval"
    rc = main([
        "evaluate", str(trained_dir / "qtable.swhq"),
        "--config", smoke_config, "--runs", "20", "--eval-max-iters", "200",
        "--out-dir", str(out),
    ])
    assert rc == 0
    runs = (out / "eval_runs.csv").read_text().splitlines()
    assert runs[0] == "cell,run,converged,iterations,final_mse,seed"
    assert len(runs) == 21
    agg = (out / "eval_aggregate.csv").read_text().splitlines()
    assert agg[0] == "algorithm,N_train,N_test,beta,mu,D,mean_iters,std_iters,conv_rate,runs"
    assert len(agg) == 2
    fields = agg[1].split(",")
    assert fields[0] == "qlearning"
    assert fields[1] == "10" and fields[2] == "10"
    assert "mean_iterations" in capsys.readouterr().out


def test_evaluate_ignores_a_sidecar_that_is_not_an_object(tmp_path, smoke_config, trained_dir):
    for text in ("[1]\n", NESTED_JSON):
        (trained_dir / "qtable.swhq.meta.json").write_text(text)
        out = tmp_path / "eval"
        assert main(["evaluate", str(trained_dir / "qtable.swhq"), "--config", smoke_config,
                     "--runs", "5", "--out-dir", str(out)]) == 0
        assert (out / "eval_aggregate.csv").read_text().splitlines()[1].startswith("unknown,0,10,")


def test_evaluate_ignores_sidecar_fields_it_cannot_write(tmp_path, smoke_config, trained_dir):
    sidecar = trained_dir / "qtable.swhq.meta.json"
    meta = json.loads(sidecar.read_text())
    bad = [("sarsa,9\nevil", [1, 2]), ("dqn", True), (None, 0), ("QLearning", 2.0), ("", -3)]
    for algorithm, num_agents in bad:
        meta["training"].update(algorithm=algorithm, num_agents=num_agents)
        sidecar.write_text(json.dumps(meta))
        out = tmp_path / "eval"
        assert main(["evaluate", str(trained_dir / "qtable.swhq"), "--config", smoke_config,
                     "--runs", "5", "--out-dir", str(out)]) == 0
        lines = (out / "eval_aggregate.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("unknown,0,10,")


def test_evaluate_n_test_override(tmp_path, smoke_config, trained_dir):
    out = tmp_path / "eval_n"
    rc = main([
        "evaluate", str(trained_dir / "qtable.swhq"),
        "--config", smoke_config, "--runs", "5", "--n-test", "5",
        "--out-dir", str(out),
    ])
    assert rc == 0
    agg = (out / "eval_aggregate.csv").read_text().splitlines()[1].split(",")
    assert agg[2] == "5"


def test_evaluate_corrupt_table_is_compat_error(tmp_path, smoke_config, capsys):
    bad = tmp_path / "bad.swhq"
    bad.write_bytes(b"garbage table contents, long enough to cover the fixed header")
    rc = main(["evaluate", str(bad), "--config", smoke_config, "--out-dir", str(tmp_path)])
    assert rc == 4
    assert "magic" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--runs", "0"],
    ["--eval-max-iters", "0"],
    ["--n-test", "0"],
    ["--config", "{tmp}/missing.ini"],
])
def test_evaluate_checks_its_inputs_before_reading_the_table(tmp_path, smoke_config, flags,
                                                             capsys):
    # A corrupt table would exit 4 if it were read first.
    bad = tmp_path / "bad.swhq"
    bad.write_bytes(b"garbage table contents, long enough to cover the fixed header")
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    config = [] if "--config" in flags else ["--config", smoke_config]
    rc = main(["evaluate", str(bad), *config, *flags, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_evaluate_dimension_mismatch_is_compat_error(tmp_path, smoke_config, trained_dir, capsys):
    other = tmp_path / "other.ini"
    other.write_text(SMOKE_CONFIG.replace("bins = 2", "bins = 3"))
    rc = main([
        "evaluate", str(trained_dir / "qtable.swhq"),
        "--config", str(other), "--runs", "5", "--out-dir", str(tmp_path),
    ])
    assert rc == 4


@pytest.mark.parametrize("actions", [3, 9])
def test_table_with_another_action_count_is_compat_error(
    tmp_path, smoke_config, actions, capsys
):
    table = tmp_path / f"a{actions}.swhq"
    save_qtable(QTable.zeros(2, 1, 2, actions=actions), table)
    for command in (["evaluate", str(table), "--runs", "5"],
                    ["simulate", "--policy", "greedy", str(table)]):
        out = tmp_path / command[0]
        assert main([*command, "--config", smoke_config, "--out-dir", str(out)]) == 4
        assert f"{actions} actions) does not match" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--eval-max-iters", "-3"],
    ["--eval-max-iters", "0"],
    ["--epsilon-eval", "7"],
    ["--epsilon-eval", "-0.1"],
])
def test_evaluate_rejects_bad_evaluation_inputs(tmp_path, smoke_config, trained_dir, flags, capsys):
    out = tmp_path / "eval_bad"
    rc = main([
        "evaluate", str(trained_dir / "qtable.swhq"),
        "--config", smoke_config, "--runs", "5", "--out-dir", str(out), *flags,
    ])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_is_byte_reproducible(tmp_path, smoke_config, trained_dir):
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert main([
            "evaluate", str(trained_dir / "qtable.swhq"),
            "--config", smoke_config, "--runs", "10", "--out-dir", str(out),
        ]) == 0
        outs.append(out)
    assert (outs[0] / "eval_runs.csv").read_bytes() == (outs[1] / "eval_runs.csv").read_bytes()
    assert (outs[0] / "eval_aggregate.csv").read_bytes() == (outs[1] / "eval_aggregate.csv").read_bytes()


def test_writes_step_around_stale_temp_paths(tmp_path, smoke_config, trained_dir):
    table = str(trained_dir / "qtable.swhq")
    out = tmp_path / "out"
    (out / "eval_runs.csv.tmp").mkdir(parents=True)
    (out / "qtable.swhq.tmp").mkdir()
    assert main(["train", "--config", smoke_config, "--out-dir", str(out)]) == 0
    assert main(["evaluate", table, "--config", smoke_config, "--runs", "5",
                 "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "eval_aggregate.csv", "eval_runs.csv", "eval_runs.csv.tmp",
        "qtable.swhq", "qtable.swhq.meta.json", "qtable.swhq.tmp", "train_log.csv",
    ]
    # Written files get the permissions of a plain write, not the temp file's 0600.
    (out / "plain").write_text("")
    assert (out / "eval_runs.csv").stat().st_mode == (out / "plain").stat().st_mode
    assert (out / "qtable.swhq").stat().st_mode == (out / "plain").stat().st_mode


def test_failed_write_leaves_no_temp_file(tmp_path, smoke_config, trained_dir):
    out = tmp_path / "out"
    (out / "eval_runs.csv").mkdir(parents=True)
    (out / "eval_runs.csv" / "keep").write_text("")
    rc = main(["evaluate", str(trained_dir / "qtable.swhq"), "--config", smoke_config,
               "--runs", "5", "--out-dir", str(out)])
    assert rc == 3
    assert [p.name for p in out.iterdir()] == ["eval_runs.csv"]


# --- simulate ----------------------------------------------------------------------

def test_simulate_random_policy_trace(tmp_path, smoke_config):
    out = tmp_path / "sim"
    rc = main([
        "simulate", "--policy", "random", "--config", smoke_config,
        "--seed", "3", "--out-dir", str(out),
    ])
    assert rc == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,leader_vertex,leader_flag,action,count_0,count_1,reward,mse,terminal"
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "" and first[4] == "10" and first[5] == "0"
    assert len(lines) <= 202


def test_simulate_rejects_epsilon_outside_unit_interval(tmp_path, smoke_config, capsys):
    rc = main([
        "simulate", "--policy", "random", "--config", smoke_config,
        "--epsilon-eval", "7", "--out-dir", str(tmp_path / "sim"),
    ])
    assert rc == 2
    assert "epsilon_eval" in capsys.readouterr().err


def test_simulate_requires_table_for_greedy(tmp_path, smoke_config, capsys):
    rc = main(["simulate", "--config", smoke_config, "--out-dir", str(tmp_path)])
    assert rc == 2


def test_simulate_greedy_reaches_target(tmp_path, smoke_config, trained_dir):
    out = tmp_path / "sim_greedy"
    rc = main([
        "simulate", str(trained_dir / "qtable.swhq"), "--config", smoke_config,
        "--seed", "4", "--out-dir", str(out),
    ])
    assert rc == 0
    last = (out / "trace.csv").read_text().splitlines()[-1].split(",")
    assert last[-1] == "true"


def test_simulate_trace_is_byte_reproducible(tmp_path, smoke_config):
    blobs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert main([
            "simulate", "--policy", "random", "--config", smoke_config,
            "--seed", "8", "--out-dir", str(out),
        ]) == 0
        blobs.append((out / "trace.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_simulate_frames_show_initial_counts_and_target(tmp_path, capsys):
    # headline configuration at iteration 0: counts 40/10/10/40, target 0.1/0.4/0.4/0.1
    config = tmp_path / "headline.ini"
    config.write_text("[env]\nmax_iterations = 3\n")
    out = tmp_path / "frames"
    rc = main([
        "simulate", "--policy", "random", "--config", str(config),
        "--seed", "1", "--out-dir", str(out), "--frames",
    ])
    assert rc == 0
    shown = capsys.readouterr().out
    frame0 = shown.split("\n\n")[0]
    assert "k=0" in frame0
    assert "40" in frame0 and "10" in frame0
    assert "target: 0.1 0.4 0.4 0.1" in frame0


def _reference_simulate(env_cfg, values, epsilon, seed):
    """trace.csv and the frames, rebuilt step by step on the reference step."""
    env = HerdingEnv(env_cfg)
    rng = np.random.default_rng(seed)
    followers, v = env.reset(rng)
    leader = LeaderState(v, 0)
    density = oracles.observe(env, followers)
    target = env_cfg.target_dist
    m = oracles.mse(density, target)
    terminal = m < env_cfg.mu
    lines = [trace_header(env_cfg), trace_row(0, leader, None, followers,
                                              oracles.reward(density, target), m, terminal)]
    frames = [render_frame(env, 0, None, followers, leader, m)]
    for k in range(1, env_cfg.max_iterations + 1):
        if terminal:
            break
        valid = env.action_ids[leader.vertex]
        if values is None:
            action = valid[int(rng.integers(len(valid)))]
        else:
            s = oracles.state_index(env, followers, leader.vertex)
            action = oracles.select(values, s, valid, epsilon, rng)
        followers, leader, r, terminal = oracles.reference_step(env, followers, leader, action, rng)
        m = oracles.mse(oracles.observe(env, followers), target)
        lines.append(trace_row(k, leader, action, followers, r, m, terminal))
        frames.append(render_frame(env, k, action, followers, leader, m))
    return "\n".join(lines) + "\n", "\n\n".join(frames), terminal


def test_simulate_matches_step_by_step_reference(tmp_path, smoke_config, trained_dir, capsys):
    trained = str(trained_dir / "qtable.swhq")
    # A policy that reads the fractions, so a stale state shows: at v0 repel
    # only while v0 is full, at v1 while v1 holds anyone, else walk across.
    reading = str(tmp_path / "reading.swhq")
    q = QTable.zeros(2, 1, 2)
    for idx in range(q.state_count):
        (f0, f1), v = decode_state(idx, 2, 2)
        if (f0 == 2) if v == 0 else (f1 >= 1):
            put(q, idx, Action.STAY, 1.0)
        else:
            put(q, idx, Action.RIGHT if v == 0 else Action.LEFT, 1.0)
    save_qtable(q, reading)
    capped = tmp_path / "capped.ini"
    capped.write_text(SMOKE_CONFIG.replace("max_iterations = 200", "max_iterations = 6"))
    outcomes = set()
    for backend in ("dtmc", "mean-field"):
        for table, config, epsilon, seed in (
            (trained, smoke_config, 0.2, 4),
            (trained, str(capped), 0.0, 4),
            (reading, smoke_config, 0.0, 5),
            (None, smoke_config, 0.0, 3),
            (None, str(capped), 0.0, 8),
        ):
            policy = "random" if table is None else "greedy"
            out = tmp_path / f"{backend}-{policy}-{seed}-{epsilon}"
            args = ["simulate", "--policy", policy, "--config", config, "--backend", backend,
                    "--seed", str(seed), "--epsilon-eval", str(epsilon),
                    "--out-dir", str(out), "--frames"]
            capsys.readouterr()
            assert main(args + ([table] if table else [])) == 0
            shown = capsys.readouterr().out
            cfg = load_config(config)
            cfg["env"]["backend"] = backend
            env_cfg = build_env_config(cfg)
            values = load_qtable(table).values if table else None
            trace, frames, converged = _reference_simulate(env_cfg, values, epsilon, seed)
            assert (out / "trace.csv").read_text() == trace
            rows = trace.splitlines()
            assert shown == f"{frames}\nwrote {out / 'trace.csv'} ({len(rows) - 1} iterations)\n"
            outcomes.add((backend, policy, converged))
            if not converged:
                assert rows[-1].startswith(f"{env_cfg.max_iterations},")
    # Both backends see a converged run and a run that hits the cap.
    assert {(b, c) for b, _, c in outcomes} == {
        ("dtmc", True), ("dtmc", False), ("mean-field", True), ("mean-field", False)
    }


# --- sweep -------------------------------------------------------------------------

SWEEP_CONFIG = SMOKE_CONFIG + """
[sweep]
name = demo
algorithms = qlearning
n_train = 10
betas = 0.3, 0.4
mus = 0.01
bins = 2
runs = 5
eval_max_iters = 200
episodes = 40
"""


@pytest.fixture
def sweep_config(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP_CONFIG)
    return str(path)


def test_sweep_expansion_row_counts():
    cfg = load_config(None)
    cfg["sweep"]["algorithms"] = ("qlearning",)
    cfg["sweep"]["mus"] = (0.0005, 0.001, 0.0025, 0.005)
    cfg["sweep"]["bins"] = (10, 20)
    cells = expand_sweep(cfg, master_seed=1)
    assert len(cells) == 8  # 4 thresholds x 2 discretizations
    cfg["sweep"]["mus"] = (0.0025,)
    cfg["sweep"]["bins"] = (20,)
    cfg["sweep"]["n_train"] = tuple(range(10, 101, 10))
    cfg["sweep"]["betas"] = (0.025, 0.05, 0.1)
    cells = expand_sweep(cfg, master_seed=1)
    assert len(cells) == 30  # 10 populations x 3 rates


def test_sweep_shared_training_seed_across_n_test():
    cfg = load_config(None)
    cfg["sweep"]["n_train"] = (10, 100)
    cfg["sweep"]["n_test"] = (10, 100)
    cells = expand_sweep(cfg, master_seed=1)
    assert len(cells) == 4
    assert cells[0].train == cells[1].train
    assert cells[2].train == cells[3].train
    assert cells[0].train.seed != cells[2].train.seed


def test_sweep_writes_aggregate_and_runs(tmp_path, sweep_config):
    out = tmp_path / "sweep_out"
    rc = main(["sweep", "--config", sweep_config, "--out-dir", str(out)])
    assert rc == 0
    agg = (out / "demo_aggregate.csv").read_text().splitlines()
    assert agg[0] == "algorithm,N_train,N_test,beta,mu,D,mean_iters,std_iters,conv_rate,runs"
    assert len(agg) == 3
    assert agg[1].split(",")[3] == "0.3"
    assert agg[2].split(",")[3] == "0.4"
    runs = (out / "demo_runs.csv").read_text().splitlines()
    assert len(runs) == 11
    assert {line.split(",")[0] for line in runs[1:]} == {"0", "1"}


def test_sweep_resume_skips_done_cells_and_matches_bytes(tmp_path, sweep_config):
    full = tmp_path / "full"
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(full)]) == 0
    resumed = tmp_path / "resumed"
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(resumed)]) == 0
    # drop the second cell from both outputs, then resume
    agg_lines = (resumed / "demo_aggregate.csv").read_text().splitlines()
    (resumed / "demo_aggregate.csv").write_text("\n".join(agg_lines[:2]) + "\n")
    runs_lines = (resumed / "demo_runs.csv").read_text().splitlines()
    kept = [line for line in runs_lines if not line.startswith("1,")]
    (resumed / "demo_runs.csv").write_text("\n".join(kept) + "\n")
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(resumed), "--resume"]) == 0
    assert (resumed / "demo_aggregate.csv").read_bytes() == (full / "demo_aggregate.csv").read_bytes()
    assert (resumed / "demo_runs.csv").read_bytes() == (full / "demo_runs.csv").read_bytes()


def _count_evaluations(monkeypatch) -> list:
    """Record the seed of every evaluate() call a sweep makes, one per cell."""
    import swarmherd.harness

    evaluated = []
    real_evaluate = swarmherd.harness.evaluate

    def counting_evaluate(*args, **kwargs):
        evaluated.append(kwargs["seed"])
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(swarmherd.harness, "evaluate", counting_evaluate)
    return evaluated


# Each edit of the runs file's lines (header first; None deletes the file), with
# the cells --resume computes. The ids end in that number; a leading number is
# the kept line count.
@pytest.mark.parametrize("edit, computed", [
    pytest.param(None, 2, id="0-2"),  # the runs file is gone
    pytest.param(lambda lines: lines[:4], 2, id="3-2"),  # cut inside cell 0's five runs
    pytest.param(lambda lines: lines[:8], 1, id="7-1"),  # cell 0 whole, cell 1 cut after two runs
    # cell 0's runs 0 and 1 swapped: all there, but out of order; cell 1 is still kept
    pytest.param(lambda lines: [lines[0], lines[2], lines[1], *lines[3:]], 1, id="swapped-1"),
    # one seed edited to another well-formed value: run 0's, which names cell 0,
    # or cell 1's run 3
    pytest.param(lambda lines: [lines[0], _with_fields(lines[1], f5="7"), *lines[2:]], 1,
                 id="seed0-1"),
    pytest.param(lambda lines: [*lines[:9], _with_fields(lines[9], f5="7"), *lines[10:]], 1,
                 id="seed3-1"),
])
def test_sweep_resume_recomputes_cells_whose_runs_are_missing(tmp_path, sweep_config, monkeypatch,
                                                             edit, computed):
    full = tmp_path / "full"
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(full)]) == 0
    resumed = tmp_path / "resumed"
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(resumed)]) == 0
    runs_path = resumed / "demo_runs.csv"
    if edit:
        runs_path.write_text("\n".join(edit(runs_path.read_text().splitlines())) + "\n")
    else:
        runs_path.unlink()
    evaluated = _count_evaluations(monkeypatch)
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(resumed), "--resume"]) == 0
    assert len(evaluated) == computed
    for name in ("demo_aggregate.csv", "demo_runs.csv"):
        assert (resumed / name).read_bytes() == (full / name).read_bytes(), name


def test_sweep_resume_with_every_cell_done_still_rejects_bad_jobs(tmp_path, sweep_config, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(out)]) == 0
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    for jobs in ("0", "-1"):
        sweep = ["sweep", "--config", sweep_config, "--out-dir", str(out), "--resume"]
        assert main(sweep + ["--jobs", jobs]) == 2
        assert "jobs" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written


def test_sweep_backend_flag_matches_env_var(tmp_path, sweep_config, monkeypatch):
    flagged, dtmc, via_env = tmp_path / "flagged", tmp_path / "dtmc", tmp_path / "env"
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(flagged),
                 "--backend", "mean-field"]) == 0
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(dtmc)]) == 0
    monkeypatch.setenv("SWHERD_ENV_BACKEND", "mean-field")
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(via_env)]) == 0
    for name in ("demo_aggregate.csv", "demo_runs.csv"):
        assert (flagged / name).read_bytes() == (via_env / name).read_bytes()
    assert (flagged / "demo_runs.csv").read_bytes() != (dtmc / "demo_runs.csv").read_bytes()


def test_sweep_writes_its_settings_beside_the_aggregate(tmp_path, sweep_config):
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(out), "--seed", "7"]) == 0
    settings = json.loads((out / "demo_aggregate.csv.meta.json").read_text())
    assert settings["train.seed"] == 7
    assert settings["sweep.runs"] == 5
    assert settings["env.initial_dist"] == [1.0, 0.0]
    for key in ("algorithms", "n_train", "n_test", "betas", "mus", "bins", "name"):
        assert f"sweep.{key}" not in settings


def test_sweep_resume_refuses_other_settings(tmp_path, sweep_config, capsys):
    out = tmp_path / "sweep_out"
    sweep = ["sweep", "--config", sweep_config, "--out-dir", str(out)]
    assert main(sweep) == 0
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    other_runs = tmp_path / "runs.ini"
    other_runs.write_text(SWEEP_CONFIG.replace("runs = 5", "runs = 6"))
    refusals = [
        (["--resume", "--seed", "7"], "train.seed"),
        (["--resume", "--config", str(other_runs)], "sweep.runs"),
        (["--resume", "--backend", "mean-field"], "env.backend"),
    ]
    for extra, key in refusals:
        assert main(sweep + extra) == 2
        assert key in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == files
    # A settings file that is missing, not an object or too deep to decode, and a
    # malformed runs line.
    meta = out / "demo_aggregate.csv.meta.json"
    for text in (None, "[1]", NESTED_JSON):
        meta.unlink(missing_ok=True)
        if text is not None:
            meta.write_text(text)
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(sweep + ["--resume"]) == 2
        assert "cannot resume" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == files
    assert main(sweep) == 0
    runs = out / "demo_runs.csv"
    runs.write_text(runs.read_text() + "garbage\n")
    assert main(sweep + ["--resume"]) == 2
    assert "garbage" in capsys.readouterr().err


@pytest.fixture(scope="module")
def finished_sweep(tmp_path_factory):
    """The outputs of the two-cell sweep of SWEEP_CONFIG, with its config file."""
    out = tmp_path_factory.mktemp("finished_sweep")
    (out / "sweep.ini").write_text(SWEEP_CONFIG)
    assert main(["sweep", "--config", str(out / "sweep.ini"), "--out-dir", str(out)]) == 0
    return out


def _with_fields(line: str, **changes: str) -> str:
    """``line`` with the comma-separated fields at the given positions (``f2=...``) replaced."""
    fields = line.split(",")
    for at, text in changes.items():
        fields[int(at[1:])] = text
    return ",".join(fields)


@pytest.mark.parametrize("name, number, malform", [
    pytest.param("demo_runs.csv", 2, lambda line: "0,0,tru", id="run-cut-short"),
    pytest.param("demo_runs.csv", 3, lambda line: _with_fields(line, f2="tru"), id="run-converged"),
    pytest.param("demo_runs.csv", 4, lambda line: _with_fields(line, f3="5.0"), id="run-iterations"),
    pytest.param("demo_runs.csv", 5, lambda line: _with_fields(line, f4="mse"), id="run-final-mse"),
    # A final_mse enters no aggregate row, so only its reading checks it.
    *(pytest.param("demo_runs.csv", 8, lambda line, mse=mse: _with_fields(line, f4=mse),
                   id=f"run-final-mse-{mse}") for mse in ("nan", "inf", "-inf", "-0.5")),
    pytest.param("demo_runs.csv", 6, lambda line: _with_fields(line, f5=""), id="run-seed"),
    pytest.param("demo_runs.csv", 7, lambda line: line + ",1", id="run-extra-field"),
    pytest.param("demo_runs.csv", 11, lambda line: _with_fields(line, f1="1_0"), id="run-index"),
    pytest.param("demo_aggregate.csv", 2, lambda line: line.rsplit(",", 4)[0] + ",oops,,,3",
                 id="row-stats"),
    pytest.param("demo_aggregate.csv", 3, lambda line: _with_fields(line, f9="5.0"), id="row-runs"),
    pytest.param("demo_aggregate.csv", 3, lambda line: _with_fields(line, f8="1.00"),
                 id="row-rate-spelling"),
    pytest.param("demo_aggregate.csv", 2, lambda line: _with_fields(line, f6="99.5"),
                 id="row-disagrees-with-runs"),
])
def test_sweep_resume_refuses_malformed_lines(tmp_path, finished_sweep, capsys, name, number,
                                              malform):
    """A line --resume would keep must read back as the writer writes it, and a
    kept row must be the aggregate of its cell's run lines."""
    out = tmp_path / "sweep_out"
    shutil.copytree(finished_sweep, out)
    sweep = ["sweep", "--config", str(finished_sweep / "sweep.ini"), "--out-dir", str(out)]
    lines = (out / name).read_text().splitlines()
    lines[number - 1] = malform(lines[number - 1])
    (out / name).write_text("\n".join(lines) + "\n")
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(sweep + ["--resume"]) == 2
    err = capsys.readouterr().err
    assert f"line {number} of {out / name} is malformed" in err, err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == files


@pytest.mark.parametrize("name", ["demo_aggregate.csv", "demo_runs.csv"])
def test_sweep_resume_refuses_non_utf8_outputs(tmp_path, sweep_config, capsys, name):
    out = tmp_path / "sweep_out"
    sweep = ["sweep", "--config", sweep_config, "--out-dir", str(out)]
    assert main(sweep) == 0
    (out / name).write_bytes(b"\xff\xfe")
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(sweep + ["--resume"]) == 2
    err = capsys.readouterr().err
    assert "cannot resume" in err and name in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == files


def test_sweep_unset_lists_take_env_and_learner_values(tmp_path):
    config = tmp_path / "point.ini"
    config.write_text(SMOKE_CONFIG.replace("algorithm = qlearning", "algorithm = sarsa") + """
[sweep]
name = demo
runs = 5
eval_max_iters = 200
episodes = 40
""")
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(config), "--out-dir", str(out)]) == 0
    agg = (out / "demo_aggregate.csv").read_text().splitlines()
    assert len(agg) == 2
    assert agg[1].startswith("sarsa,10,10,0.4,0.01,2,")


def test_sweep_empty_grid_is_config_error(tmp_path, capsys):
    """An explicitly empty grid list is an empty grid, n_test's too."""
    config = tmp_path / "empty.ini"
    out = tmp_path / "out"
    for key in GRID_KEYS:
        config.write_text(f"[sweep]\n{key} =\n")
        assert main(["sweep", "--config", str(config), "--out-dir", str(out)]) == 2, key
        assert "sweep grid is empty" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_episodes_and_max_iters_replace_train_values_unchecked(tmp_path):
    """[sweep] episodes and max_iters replace [train]'s, which may then be 0."""
    train = "episodes = 50\nmax_iters = 200\nseed = 5\n"
    swept = SWEEP_CONFIG.replace(train, "episodes = 0\nmax_iters = 0\nseed = 5\n")
    swept += "max_iters = 30\n"
    trained = SWEEP_CONFIG.replace(train, "episodes = 40\nmax_iters = 30\nseed = 5\n").replace(
        "eval_max_iters = 200\nepisodes = 40\n", "eval_max_iters = 200\n")  # [sweep] sets none
    outs = []
    for name, text in (("swept", swept), ("trained", trained)):
        config = tmp_path / f"{name}.ini"
        config.write_text(text)
        outs.append(tmp_path / name)
        assert main(["sweep", "--config", str(config), "--out-dir", str(outs[-1])]) == 0
    for name in ("demo_aggregate.csv", "demo_runs.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("setting", [
    ("eval_max_iters = 200", "eval_max_iters = 0"),
    ("eval_max_iters = 200", "eval_max_iters = 200\nepsilon_eval = 1.5"),
    ("runs = 5", "runs = 0"),
    ("runs = 5", "runs = 5\nn_test = 10, 0"),
    ("mus = 0.01", "mus = 0.01, 0.010"),
    ("runs = 5", "runs = 5\nn_test = 10, 5, 10"),
], ids=["eval_max_iters", "epsilon_eval", "runs", "n_test", "repeated_mus", "repeated_n_test"])
def test_sweep_rejects_bad_evaluation_inputs_before_training(tmp_path, monkeypatch, capsys, setting):
    import swarmherd.harness

    def no_training(cfg):
        raise AssertionError("sweep trained before checking its evaluation inputs")

    monkeypatch.setattr(swarmherd.harness, "train", no_training)
    config = tmp_path / "bad_sweep.ini"
    config.write_text(SWEEP_CONFIG.replace(*setting))
    out = tmp_path / "sweep_out"
    rc = main(["sweep", "--config", str(config), "--out-dir", str(out)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_resume_after_grid_edits_matches_fresh_run(tmp_path, monkeypatch):
    evaluated = _count_evaluations(monkeypatch)
    resumed = tmp_path / "resumed"
    config = tmp_path / "sweep.ini"
    config.write_text(SWEEP_CONFIG)
    assert main(["sweep", "--config", str(config), "--out-dir", str(resumed)]) == 0
    # Each edit, with the cells --resume keeps and the cells it computes. Seeds
    # come from what a cell is, so every cell the edit leaves as it was is kept.
    edits = [
        (("mus = 0.01", "mus = 0.02, 0.01"), 2, 2),  # inserted at the front
        (("mus = 0.01", "mus = 0.02, 0.01, 0.03"), 4, 2),  # appended
        (("mus = 0.01", "mus = 0.02, 0.01, 0.03\nn_test = 10, 5"), 6, 6),  # n_test changed
    ]
    for step, (edit, kept, computed) in enumerate(edits):
        config.write_text(SWEEP_CONFIG.replace(*edit))
        evaluated.clear()
        assert main(["sweep", "--config", str(config), "--out-dir", str(resumed), "--resume"]) == 0
        assert len(evaluated) == computed
        fresh = tmp_path / f"fresh{step}"
        assert main(["sweep", "--config", str(config), "--out-dir", str(fresh)]) == 0
        assert len(evaluated) == 2 * computed + kept
        for name in ("demo_aggregate.csv", "demo_runs.csv"):
            assert (resumed / name).read_bytes() == (fresh / name).read_bytes(), (step, name)


def test_sweep_jobs_start_at_most_one_worker_per_training_group(tmp_path, sweep_config, monkeypatch,
                                                                 capsys):
    import concurrent.futures

    started = []

    class InlinePool:
        """Records the worker count and runs the groups in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # sweep() imports the pool class when it needs one, so patch it at its source.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    serial = tmp_path / "serial"
    capped = tmp_path / "capped"
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(serial)]) == 0
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(capped), "--jobs", "64"]) == 0
    assert started == [2]  # two betas, so two training groups
    assert (serial / "demo_runs.csv").read_bytes() == (capped / "demo_runs.csv").read_bytes()
    for jobs in ("0", "-1"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", sweep_config, "--out-dir", str(out), "--jobs", jobs]) == 2
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()
    assert started == [2]


def test_sweep_parallel_jobs_match_serial(tmp_path, sweep_config):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(serial)]) == 0
    assert main(["sweep", "--config", sweep_config, "--out-dir", str(parallel), "--jobs", "2"]) == 0
    assert (serial / "demo_aggregate.csv").read_bytes() == (parallel / "demo_aggregate.csv").read_bytes()
    assert (serial / "demo_runs.csv").read_bytes() == (parallel / "demo_runs.csv").read_bytes()


# --- inspect -----------------------------------------------------------------------

def test_inspect_prints_header_and_stats(trained_dir, capsys):
    rc = main(["inspect", str(trained_dir / "qtable.swhq")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "magic: SWHQ" in out
    assert "grid: 1x2" in out
    assert "bins: 2" in out
    assert "min:" in out and "max:" in out


def _inspect_stats(path, capsys) -> list[str]:
    assert main(["inspect", str(path)]) == 0
    return capsys.readouterr().out.splitlines()[2:5]


def test_inspect_stats_match_the_dense_table(trained_dir, capsys):
    path = trained_dir / "qtable.swhq"
    dense = load_qtable(path).values
    nonzero = np.count_nonzero(dense)
    assert _inspect_stats(path, capsys) == [
        f"states: {dense.shape[0]}  entries: {dense.size}",
        f"min: {format_float(dense.min())}  max: {format_float(dense.max())}  "
        f"mean: {format_float(dense.mean())}",
        f"nonzero entries: {nonzero} ({nonzero / dense.size:.1%})",
    ]


@pytest.mark.parametrize("row, expected", [
    # A NaN that is not the first value, then infinities of both signs, then
    # finite values whose sum overflows; numpy's sum warns on the last two.
    ([1.0, math.nan, 0.0, 0.0, 0.0], "min: nan  max: nan  mean: nan"),
    ([math.inf, 0.0, -math.inf, 0.0, 0.0], "min: -inf  max: inf  mean: nan"),
    ([1e308, 1e308, 0.0, 0.0, 0.0], "min: 0.0  max: 1e+308  mean: inf"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_inspect_prints_non_finite_stats(tmp_path, capsys, row, expected):
    q = QTable.zeros(2, 1, 2)
    q.store[3] = row
    save_qtable(q, tmp_path / "q.swhq")
    assert _inspect_stats(tmp_path / "q.swhq", capsys) == [
        "states: 18  entries: 90", expected, "nonzero entries: 2 (2.2%)",
    ]


def test_inspect_missing_file_is_io_error(tmp_path):
    assert main(["inspect", str(tmp_path / "missing.swhq")]) == 3


# --- exit-code contract -------------------------------------------------------------

# Budgets that keep every command of the smoke task tiny; the overrides below
# are written over them.
TINY_BUDGETS = {
    "env": {"max_iterations": "20"},
    "train": {"episodes": "5", "max_iters": "20"},
    "sweep": {"runs": "3", "eval_max_iters": "20"},
}
# Raw values for any key: edge cases, and valid ones that reach further in.
RAW_VALUES = ("nan", "inf", "-1", "0", "1", "2", "0.5", "1e308", "", "0.5, 0.5", "true",
              "sarsa", "mean-field")
# Every key CONFIG_KEYS knows, so a new key is covered without an edit here.
OVERRIDES = st.dictionaries(
    st.sampled_from([(section, key) for section in CONFIG_KEYS for key in CONFIG_KEYS[section]]),
    st.sampled_from(RAW_VALUES), max_size=2,
)
COMMANDS = (
    ["train"],
    ["evaluate", "{table}", "--runs", "3", "--eval-max-iters", "20"],
    ["simulate", "{table}"],
    ["sweep"],
)


def write_tiny_config(path: Path, overrides: dict) -> str:
    """SMOKE_CONFIG with TINY_BUDGETS, then ``{(section, key): raw}`` over it."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(SMOKE_CONFIG)
    parser.read_dict(TINY_BUDGETS)
    for (section, key), raw in overrides.items():
        parser.read_dict({section: {key: raw}})
    with open(path, "w") as f:
        parser.write(f)
    return str(path)


@pytest.fixture(scope="module")
def tiny_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    config = write_tiny_config(out / "tiny.ini", {})
    assert main(["train", "--config", config, "--out-dir", str(out)]) == 0
    return str(out / "qtable.swhq")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(overrides=OVERRIDES, command=st.sampled_from(COMMANDS))
def test_every_config_exits_with_a_contract_code(tiny_table, overrides, command):
    """Whatever a config holds, ``main`` returns 0, 2 (config), 3 (io) or 4
    (compatibility) and lets no exception escape."""
    with tempfile.TemporaryDirectory() as tmp:
        config = write_tiny_config(Path(tmp, "case.ini"), overrides)
        argv = [arg.format(table=tiny_table) for arg in command]
        assert main([*argv, "--config", config, "--out-dir", tmp]) in (0, 2, 3, 4)


# The files a --resume reads, and what the property below writes over them.
RESUMED_FILES = ("demo_aggregate.csv", "demo_runs.csv", "demo_aggregate.csv.meta.json")
# WRONG_SEEDS read back as written in a seed field, but belong to no run.
WRONG_SEEDS = ("-1", "7")
RESUMED_TOKENS = ("nan", "", "1.00", "tru", *WRONG_SEEDS)
RESUMED_SETTINGS = (0, -1, 5, 0.5, "", None, True, [1.0, 0.0])


@st.composite
def resume_edits(draw, texts: dict) -> dict:
    """``texts`` with one edit: a file cut at a byte, one field of a line
    replaced, two lines of a file swapped, one run's seed replaced by a wrong
    one, or one setting changed or dropped."""
    texts = dict(texts)
    kind = draw(st.sampled_from(("cut", "field", "swap", "seed", "setting")))
    if kind == "setting":
        settings = json.loads(texts[RESUMED_FILES[2]])
        key = draw(st.sampled_from(sorted(settings)))
        if draw(st.booleans()):
            del settings[key]
        else:
            settings[key] = draw(st.sampled_from(RESUMED_SETTINGS))
        texts[RESUMED_FILES[2]] = json.dumps(settings, indent=2) + "\n"
        return texts
    if kind == "seed":
        # Only --resume's seed check reads a seed, and a field edit seldom
        # writes a well-formed one there.
        lines = texts[RESUMED_FILES[1]].splitlines()
        i = draw(st.integers(1, len(lines) - 1))
        lines[i] = _with_fields(lines[i], f5=draw(st.sampled_from(WRONG_SEEDS)))
        texts[RESUMED_FILES[1]] = "\n".join(lines) + "\n"
        return texts
    name = draw(st.sampled_from(RESUMED_FILES if kind == "cut" else RESUMED_FILES[:2]))
    text = texts[name]
    if kind == "cut":
        texts[name] = text[:draw(st.integers(0, len(text)))]
        return texts
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        fields = lines[i].split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(RESUMED_TOKENS))
        lines[i] = ",".join(fields)
    texts[name] = "\n".join(lines) + "\n"
    return texts


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_edited_resume_exits_with_a_contract_code(finished_sweep, data):
    """Whatever an edit leaves in a finished sweep's files, --resume exits 0
    or 2 with no exception escaping. On 2 no file changes; on 0 both files are
    a fresh run's."""
    fresh = {name: (finished_sweep / name).read_text() for name in RESUMED_FILES}
    edited = data.draw(resume_edits(fresh))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name, text in edited.items():
            (out / name).write_text(text)
        code = main(["sweep", "--config", str(finished_sweep / "sweep.ini"), "--out-dir", tmp,
                     "--resume"])
        assert code in (0, 2)
        after = {name: (out / name).read_text() for name in RESUMED_FILES}
    if code == 2:
        assert after == edited
        return
    assert {name: after[name] for name in RESUMED_FILES[:2]} == {
        name: fresh[name] for name in RESUMED_FILES[:2]}


# Per training field the property below replaces (the two evaluate reads and
# one it does not), the values it may write there; KEEP leaves the field as is.
KEEP = object()
SIDECAR_TRAINING = {
    "algorithm": ("sarsa", "dqn", "", None, 7),
    "num_agents": (7, 0, True, 2.0, None),
    "episodes": (None, "x"),
}
# What it may write over the training object or the timestamp.
SIDECAR_TOP = (None, [1], 7, {"a": 1})


@st.composite
def sidecar_edits(draw, text: str) -> str:
    """``text`` with one edit: cut at a byte, replaced whole by JSON that is no
    object or too deep to decode, a top-level field replaced, or any of the
    training fields replaced, each by a value drawn for that field."""
    kind = draw(st.sampled_from(("cut", "whole", "top", "training")))
    if kind == "cut":
        return text[:draw(st.integers(0, len(text)))]
    if kind == "whole":
        return draw(st.sampled_from(("[1]", "null", "7", '"training"', NESTED_JSON)))
    meta = json.loads(text)
    if kind == "top":
        meta[draw(st.sampled_from(("training", "created_at")))] = draw(st.sampled_from(SIDECAR_TOP))
    else:
        for field, values in SIDECAR_TRAINING.items():
            value = draw(st.sampled_from((KEEP, *values)))
            if value is not KEEP:
                meta["training"][field] = value
    return json.dumps(meta)


@pytest.fixture(scope="module")
def evaluated_table(tmp_path_factory):
    """A tiny trained table, its config, and the two files evaluating it writes."""
    out = tmp_path_factory.mktemp("evaluated")
    config = write_tiny_config(out / "tiny.ini", {})
    assert main(["train", "--config", config, "--out-dir", str(out)]) == 0
    assert main(["evaluate", str(out / "qtable.swhq"), "--config", config, "--runs", "3",
                 "--eval-max-iters", "20", "--out-dir", str(out)]) == 0
    return out


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_edited_sidecar_leaves_evaluate_at_exit_0(evaluated_table, data):
    """Whatever an edit leaves in a table's sidecar, evaluate exits 0 and writes
    the unedited run's runs file. Its aggregate row differs at most in the
    first two fields: the sidecar's training algorithm and num_agents where
    they are valid, and unknown and 0 where they are not."""
    sidecar = (evaluated_table / "qtable.swhq.meta.json").read_text()
    edited = data.draw(sidecar_edits(sidecar))
    try:
        training = json.loads(edited)["training"]
    except (ValueError, KeyError, TypeError, RecursionError):
        training = {}
    training = training if isinstance(training, dict) else {}
    algorithm = training.get("algorithm")
    n_train = training.get("num_agents")
    expected = (algorithm if algorithm in ("qlearning", "sarsa") else "unknown",
                str(n_train) if type(n_train) is int and n_train > 0 else "0")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        shutil.copy(evaluated_table / "qtable.swhq", out)
        (out / "qtable.swhq.meta.json").write_text(edited)
        assert main(["evaluate", str(out / "qtable.swhq"), "--config",
                     str(evaluated_table / "tiny.ini"), "--runs", "3", "--eval-max-iters", "20",
                     "--out-dir", tmp]) == 0
        runs, rows = ((out / name).read_text() for name in ("eval_runs.csv", "eval_aggregate.csv"))
    assert runs == (evaluated_table / "eval_runs.csv").read_text()
    header, row = rows.splitlines()
    fresh_header, fresh_row = (evaluated_table / "eval_aggregate.csv").read_text().splitlines()
    assert header == fresh_header
    assert row.split(",", 2) == [*expected, fresh_row.split(",", 2)[2]]
