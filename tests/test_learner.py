import os
import tracemalloc

import numpy as np
import pytest

from swarmherd import (
    Action,
    DiscretizedState,
    LearnerConfig,
    QTable,
    load_qtable,
    save_qtable,
)
from swarmherd.environment import encode_state
from swarmherd.errors import (
    ConfigError,
    QTableDimensionError,
    QTableFormatError,
    QTableTruncatedError,
)
from swarmherd.learner import (
    _row_bytes,
    greedy_action_index,
    select_action_index,
    td_update,
)

from helpers import fill_random, put, value

S = encode_state(DiscretizedState((4, 1, 1, 4), 0), 10, 4)
S2 = encode_state(DiscretizedState((3, 2, 1, 4), 1), 10, 4)
A = Action.STAY
A2 = Action.LEFT
VALID2 = (Action.LEFT, Action.STAY)
CFG = LearnerConfig(alpha=0.3, gamma=0.9, epsilon=0.1, algorithm="sarsa")


def fresh_table():
    return QTable.zeros(bins=10, rows=2, cols=2)


# The TD targets as harness.train forms them for the step (S, A, r, S2).

def sarsa_update(q, r, a2=A2, cfg=CFG):
    td_update(q, S, A, r + cfg.gamma * value(q, S2, a2), cfg.alpha)


def qlearning_update(q, r, cfg=CFG):
    td_update(q, S, A, r + cfg.gamma * value(q, S2, greedy_action_index(q, S2, VALID2)), cfg.alpha)


# --- lookup -------------------------------------------------------------------

def test_fresh_table_reads_zero():
    q = fresh_table()
    assert value(q, S, greedy_action_index(q, S, tuple(Action))) == 0.0
    assert value(q, S2, greedy_action_index(q, S2, VALID2)) == 0.0
    assert not q.store


def test_dense_view_is_a_read_only_copy():
    q = fresh_table()
    put(q, S, A, -1.0)
    dense = q.values
    assert dense.shape == (q.state_count, q.num_actions)
    assert dense[S, A] == -1.0 and np.count_nonzero(dense) == 1
    with pytest.raises(ValueError, match="read-only"):
        dense[S2, A] = 1.0


# --- selection ----------------------------------------------------------------

def test_greedy_picks_largest():
    q = fresh_table()
    valid = (Action.LEFT, Action.RIGHT, Action.STAY)
    put(q, S, Action.LEFT, 1.0)
    put(q, S, Action.RIGHT, 2.0)
    put(q, S, Action.STAY, 3.0)
    chosen = select_action_index(q, S, valid, 0.0, np.random.default_rng(0))
    assert chosen is Action.STAY  # the third valid action


def test_greedy_tie_break_takes_first_valid():
    q = fresh_table()
    valid = (Action.LEFT, Action.RIGHT, Action.STAY)
    chosen = select_action_index(q, S, valid, 0.0, np.random.default_rng(0))
    assert chosen is Action.LEFT


def test_epsilon_one_is_uniform():
    q = fresh_table()
    valid = (Action.LEFT, Action.RIGHT, Action.STAY)
    rng = np.random.default_rng(1)
    hits = {a: 0 for a in valid}
    draws = 100_000
    for _ in range(draws):
        hits[select_action_index(q, S, valid, 1.0, rng)] += 1
    for a in valid:
        assert abs(hits[a] / draws - 1 / 3) < 0.02


def test_greedy_invariant_under_constant_shift():
    q = fresh_table()
    valid = (Action.LEFT, Action.RIGHT, Action.STAY)
    rng = np.random.default_rng(2)
    q.store[S] = rng.normal(size=q.num_actions).tolist()
    before = greedy_action_index(q, S, valid)
    q.store[S] = [x + 17.5 for x in q.store[S]]
    assert greedy_action_index(q, S, valid) is before


# --- updates ------------------------------------------------------------------

def test_sarsa_update_hand_value():
    q = fresh_table()
    sarsa_update(q, -0.36)
    assert value(q, S, A) == -0.108


def test_sarsa_zero_alpha_is_noop():
    q = fresh_table()
    cfg = LearnerConfig(alpha=0.0, gamma=0.9, epsilon=0.1, algorithm="sarsa")
    sarsa_update(q, -0.36, cfg=cfg)
    assert not q.values.any()


def test_sarsa_fixed_point():
    q = fresh_table()
    put(q, S, A, -1.5)
    put(q, S2, A2, -1.5)
    cfg = LearnerConfig(alpha=0.3, gamma=1.0, epsilon=0.1, algorithm="sarsa")
    sarsa_update(q, 0.0, cfg=cfg)
    assert value(q, S, A) == -1.5


def test_updates_touch_exactly_one_entry():
    q = fresh_table()
    sarsa_update(q, -0.36)
    assert np.count_nonzero(q.values) == 1 and list(q.store) == [S]
    q = fresh_table()
    qlearning_update(q, -0.36)
    assert np.count_nonzero(q.values) == 1 and list(q.store) == [S]


def test_qlearning_update_hand_values():
    q = fresh_table()
    qlearning_update(q, -0.36)
    assert value(q, S, A) == -0.108

    q = fresh_table()
    put(q, S2, Action.LEFT, 5.0)
    put(q, S2, Action.STAY, -1.0)
    cfg = LearnerConfig(alpha=1.0, gamma=1.0, epsilon=0.0, algorithm="qlearning")
    qlearning_update(q, 0.0, cfg=cfg)
    assert value(q, S, A) == 5.0


def test_qlearning_max_is_masked_to_valid_actions():
    q = fresh_table()
    put(q, S2, Action.RIGHT, 99.0)  # invalid at the successor, must be ignored
    put(q, S2, Action.LEFT, -1.0)
    assert value(q, S2, greedy_action_index(q, S2, VALID2)) == 0.0
    cfg = LearnerConfig(alpha=1.0, gamma=1.0, epsilon=0.0, algorithm="qlearning")
    qlearning_update(q, 0.0, cfg=cfg)
    assert value(q, S, A) == 0.0  # max(-1, 0), not 99


def test_qlearning_equals_sarsa_when_next_action_is_argmax():
    qa, qb = fresh_table(), fresh_table()
    for q in (qa, qb):
        put(q, S2, Action.LEFT, -0.4)
        put(q, S2, Action.STAY, -0.2)
    sarsa_update(qa, -0.36, a2=Action.STAY)
    qlearning_update(qb, -0.36)
    assert value(qa, S, A) == value(qb, S, A)


def test_terminal_update_drops_bootstrap():
    q = fresh_table()
    put(q, S2, A2, -50.0)
    td_update(q, S, A, -0.36, CFG.alpha)  # a terminal step's target is r
    assert value(q, S, A) == -0.108


def test_learner_config_validation():
    with pytest.raises(ConfigError):
        LearnerConfig(alpha=1.5)
    with pytest.raises(ConfigError):
        LearnerConfig(gamma=-0.1)
    with pytest.raises(ConfigError):
        LearnerConfig(algorithm="dyna")


def test_epsilon_decay_schedule():
    cfg = LearnerConfig(epsilon=0.5, epsilon_decay=True, epsilon_final=0.01)
    assert cfg.episode_epsilon(0, 100) == 0.5
    assert abs(cfg.episode_epsilon(99, 100) - 0.01) < 1e-12
    mid = cfg.episode_epsilon(50, 100)
    assert 0.01 < mid < 0.5
    constant = LearnerConfig(epsilon=0.2)
    assert constant.episode_epsilon(73, 100) == 0.2


def test_zeros_rejects_tables_above_the_size_limit(monkeypatch):
    from swarmherd import learner
    from swarmherd.environment import NUM_ACTIONS, num_states

    # The limit admits a 2x3 grid at 10 bins (425 MB).
    assert num_states(10, 6) * NUM_ACTIONS * 8 <= learner.MAX_TABLE_BYTES
    nbytes = num_states(2, 2) * NUM_ACTIONS * 8
    monkeypatch.setattr(learner, "MAX_TABLE_BYTES", nbytes)
    assert QTable.zeros(bins=2, rows=1, cols=2).values.nbytes == nbytes
    monkeypatch.setattr(learner, "MAX_TABLE_BYTES", nbytes - 1)
    with pytest.raises(ConfigError, match=f"needs {nbytes} bytes"):
        QTable.zeros(bins=2, rows=1, cols=2)


# --- persistence -----------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    q = fill_random(QTable.zeros(bins=3, rows=2, cols=2), 3)
    path = tmp_path / "table.swhq"
    save_qtable(q, path, {"training": {"algorithm": "sarsa", "seed": 9}})
    loaded = load_qtable(path)
    assert loaded.store == q.store
    assert np.array_equal(loaded.values, q.values)
    assert (loaded.bins, loaded.num_vertices, loaded.num_actions) == (3, 4, 5)
    assert (loaded.rows, loaded.cols) == (2, 2)
    sidecar = (tmp_path / "table.swhq.meta.json").read_text()
    assert '"algorithm": "sarsa"' in sidecar


def test_num_vertices_is_the_grid_size_not_a_field(tmp_path):
    import json
    import struct

    q = QTable.zeros(bins=1, rows=2, cols=3)
    assert q.num_vertices == 6
    with pytest.raises(TypeError):
        QTable(store={}, bins=1, num_vertices=6, num_actions=5, rows=2, cols=3)
    path = tmp_path / "grid.swhq"
    save_qtable(q, path)
    # The header and the sidecar still carry M.
    assert struct.unpack_from("<I", path.read_bytes(), 8) == (6,)
    assert json.loads((tmp_path / "grid.swhq.meta.json").read_text())["num_vertices"] == 6
    assert load_qtable(path).num_vertices == 6


def test_file_layout_is_state_major_action_minor(tmp_path):
    import struct

    q = QTable.zeros(bins=3, rows=2, cols=2)
    put(q, 7, 3, -1.25)
    path = tmp_path / "layout.swhq"
    save_qtable(q, path)
    data = path.read_bytes()
    assert data[:4] == b"SWHQ"
    assert struct.unpack_from("<IIIIII", data, 4) == (1, 4, 3, 5, 2, 2)
    offset = 28 + (7 * q.num_actions + 3) * 8
    assert struct.unpack_from("<d", data, offset)[0] == -1.25


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.swhq"
    path.write_bytes(b"NOPE" + bytes(24) + bytes(800))
    with pytest.raises(QTableFormatError):
        load_qtable(path)


def test_load_rejects_short_header(tmp_path):
    path = tmp_path / "short.swhq"
    path.write_bytes(b"SWHQ\x01")
    with pytest.raises(QTableFormatError):
        load_qtable(path)


def test_load_rejects_truncated_payload(tmp_path):
    q = QTable.zeros(bins=3, rows=2, cols=2)
    path = tmp_path / "trunc.swhq"
    save_qtable(q, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(QTableTruncatedError):
        load_qtable(path)


def test_load_rejects_inconsistent_grid(tmp_path):
    import struct

    header = struct.pack("<4sIIIIII", b"SWHQ", 1, 4, 3, 5, 3, 3)  # 3x3 != 4 vertices
    path = tmp_path / "dims.swhq"
    path.write_bytes(header + bytes(8))
    with pytest.raises(QTableDimensionError):
        load_qtable(path)


def test_load_rejects_trailing_bytes(tmp_path):
    q = QTable.zeros(bins=3, rows=2, cols=2)
    path = tmp_path / "extra.swhq"
    save_qtable(q, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(QTableDimensionError):
        load_qtable(path)


# --- table I/O memory, on the 31 MB table of a 2x2 grid at 20 bins ---------------

MIB = 2**20


def _traced(fn, *args):
    """``(fn(*args), peak)``: peak is the most bytes allocated while it ran,
    above those live at its start."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def d20_table(tmp_path_factory):
    q = fill_random(QTable.zeros(bins=20, rows=2, cols=2), 4)
    path = tmp_path_factory.mktemp("d20") / "d20.swhq"
    save_qtable(q, path)
    return q, path


def test_save_writes_the_table_without_copying_it(d20_table, tmp_path):
    q, path = d20_table
    copy = tmp_path / "copy.swhq"
    assert _traced(save_qtable, q, copy)[1] < MIB
    assert copy.read_bytes() == path.read_bytes()


def test_load_keeps_only_the_touched_rows(tmp_path):
    # Training at 20 bins writes about 1% of the rows; loading costs those, not 31 MB.
    q = QTable.zeros(bins=20, rows=2, cols=2)
    rng = np.random.default_rng(6)
    touched = rng.choice(q.state_count, size=q.state_count // 100, replace=False)
    q.store.update(zip(touched.tolist(), rng.normal(size=(touched.size, 5)).tolist()))
    path = tmp_path / "d20-trained.swhq"
    save_qtable(q, path)
    loaded, peak = _traced(load_qtable, path)
    assert peak < 4 * MIB
    assert loaded.store == q.store


def test_load_refuses_rows_beyond_the_memory_limit(tmp_path, monkeypatch):
    from swarmherd import learner

    q = QTable.zeros(bins=3, rows=2, cols=2)
    for s in range(0, q.state_count, 10):
        put(q, s, 1, -0.5)
    path = tmp_path / "table.swhq"
    save_qtable(q, path)
    limit = len(q.store) * _row_bytes(q.num_actions)
    monkeypatch.setattr(learner, "MAX_TABLE_BYTES", limit)
    assert load_qtable(path).store == q.store
    monkeypatch.setattr(learner, "MAX_TABLE_BYTES", limit - 1)
    with pytest.raises(QTableDimensionError, match="nonzero rows"):
        load_qtable(path)


@pytest.mark.parametrize(
    "size_change, error",
    [(-1, QTableTruncatedError), (-8, QTableTruncatedError), (1, QTableDimensionError),
     (8, QTableDimensionError)],
)
def test_load_rejects_a_bad_payload_size_before_allocating(d20_table, tmp_path, size_change, error):
    q, path = d20_table
    bad = tmp_path / "bad.swhq"
    with path.open("rb") as src, bad.open("wb") as dst:
        dst.write(src.read(28))
        dst.truncate(os.path.getsize(path) + size_change)

    def load():
        with pytest.raises(error):
            load_qtable(bad)

    assert _traced(load)[1] < MIB


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize(
    "cut, tail, error",
    [(None, b"", None), (-1, b"", QTableTruncatedError), (None, b"\x00", QTableDimensionError)],
)
def test_load_reads_a_pipe(tmp_path, cut, tail, error):
    # A pipe has no size to check up front: the payload is read, then measured.
    q = fill_random(QTable.zeros(bins=3, rows=2, cols=2), 5)
    path = tmp_path / "table.swhq"
    save_qtable(q, path)
    r, w = os.pipe()
    try:
        os.write(w, path.read_bytes()[:cut] + tail)  # 40 KB fits in the pipe buffer
        os.close(w)
        if error is None:
            assert np.array_equal(load_qtable(f"/dev/fd/{r}").values, q.values)
        else:
            with pytest.raises(error):
                load_qtable(f"/dev/fd/{r}")
    finally:
        os.close(r)


def test_load_rejects_a_header_cut_short(d20_table, tmp_path):
    _, path = d20_table
    bad = tmp_path / "cut.swhq"
    bad.write_bytes(path.read_bytes()[:27])
    with pytest.raises(QTableFormatError, match="shorter than the fixed header"):
        load_qtable(bad)
