import json
import math
from dataclasses import fields

import numpy as np
import pytest

from swarmherd import (
    Action,
    EnvConfig,
    HerdingEnv,
    LearnerConfig,
    QTable,
    decode_state,
    load_qtable,
    save_qtable,
)
from swarmherd.cli import (
    DEFAULTS,
    SCHEMA,
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
    assert set(SCHEMA["graph"]) == {"rows", "cols"}
    assert set(SCHEMA["env"]) == env_fields - {"rows", "cols"}
    assert set(SCHEMA["learner"]) == {f.name for f in fields(LearnerConfig)}
    for section, keys in SCHEMA.items():
        assert set(DEFAULTS[section]) == set(keys), section


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
    (trained_dir / "qtable.swhq.meta.json").write_text("[1]\n")
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
    followers, leader = env.reset(rng)
    density = oracles.observe(env, followers)
    m = oracles.mse(density, env.target)
    terminal = m < env_cfg.mu
    lines = [trace_header(env_cfg), trace_row(0, leader, None, followers,
                                              oracles.reward(density, env.target), m, terminal)]
    frames = [render_frame(env, 0, None, followers, leader, m)]
    for k in range(1, env_cfg.max_iterations + 1):
        if terminal:
            break
        valid = env.actions[leader.vertex]
        if values is None:
            action = valid[int(rng.integers(len(valid)))]
        else:
            s = oracles.state_index(env, followers, leader.vertex)
            action = oracles.select(values, s, valid, epsilon, rng)
        followers, leader, r, terminal = oracles.reference_step(env, followers, leader, action, rng)
        m = oracles.mse(oracles.observe(env, followers), env.target)
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
    # A settings file that is missing or not an object, and a malformed runs line.
    meta = out / "demo_aggregate.csv.meta.json"
    for text in (None, "[1]"):
        meta.unlink(missing_ok=True)
        if text is not None:
            meta.write_text(text)
        assert main(sweep + ["--resume"]) == 2
        assert "cannot resume" in capsys.readouterr().err
    assert main(sweep) == 0
    runs = out / "demo_runs.csv"
    runs.write_text(runs.read_text() + "garbage\n")
    assert main(sweep + ["--resume"]) == 2
    assert "garbage" in capsys.readouterr().err


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
    config = tmp_path / "empty.ini"
    config.write_text("[sweep]\nalgorithms =\n")
    rc = main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)])
    assert rc == 2


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
    import swarmherd.harness

    evaluated = []
    real_evaluate = swarmherd.harness.evaluate

    def counting_evaluate(*args, **kwargs):
        evaluated.append(kwargs["seed"])
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(swarmherd.harness, "evaluate", counting_evaluate)
    resumed = tmp_path / "resumed"
    config = tmp_path / "sweep.ini"
    config.write_text(SWEEP_CONFIG)
    assert main(["sweep", "--config", str(config), "--out-dir", str(resumed)]) == 0
    # Each edit, with the cells --resume keeps and the cells it computes.
    edits = [
        (("mus = 0.01", "mus = 0.02, 0.01"), 0, 4),  # inserted at the front
        (("mus = 0.01", "mus = 0.02, 0.01, 0.03"), 2, 4),  # appended
        (("mus = 0.01", "mus = 0.02, 0.01, 0.03\nn_test = 10, 5"), 1, 11),  # n_test changed
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
