import numpy as np
import pytest

from swarmherd import (
    Action,
    DiscretizedState,
    LearnerConfig,
    QTable,
    load_qtable,
    q_lookup,
    save_qtable,
    select_action,
    update_qlearning,
    update_sarsa,
)
from swarmherd.errors import (
    ConfigError,
    QTableDimensionError,
    QTableFormatError,
    QTableTruncatedError,
)
from swarmherd.learner import greedy_action_index

S = DiscretizedState((4, 1, 1, 4), 0)
S2 = DiscretizedState((3, 2, 1, 4), 1)
A = Action.STAY
A2 = Action.LEFT
CFG = LearnerConfig(alpha=0.3, gamma=0.9, epsilon=0.1, algorithm="sarsa")


def fresh_table():
    return QTable.zeros(bins=10, rows=2, cols=2)


# --- lookup -------------------------------------------------------------------

def test_fresh_table_reads_zero():
    q = fresh_table()
    assert q_lookup(q, S, A) == 0.0
    assert q_lookup(q, S2, A2) == 0.0


def test_lookup_out_of_range_action():
    q = fresh_table()
    with pytest.raises(IndexError):
        q_lookup(q, S, 7)


# --- selection ----------------------------------------------------------------

def test_greedy_picks_largest():
    q = fresh_table()
    valid = (Action.LEFT, Action.RIGHT, Action.STAY)
    from swarmherd.environment import encode_state

    idx = encode_state(S, q.bins, q.num_vertices)
    q.values[idx, Action.LEFT] = 1.0
    q.values[idx, Action.RIGHT] = 2.0
    q.values[idx, Action.STAY] = 3.0
    chosen = select_action(q, S, valid, 0.0, np.random.default_rng(0))
    assert chosen is Action.STAY  # the third valid action


def test_greedy_tie_break_takes_first_valid():
    q = fresh_table()
    valid = (Action.LEFT, Action.RIGHT, Action.STAY)
    chosen = select_action(q, S, valid, 0.0, np.random.default_rng(0))
    assert chosen is Action.LEFT


def test_epsilon_one_is_uniform():
    q = fresh_table()
    valid = (Action.LEFT, Action.RIGHT, Action.STAY)
    rng = np.random.default_rng(1)
    hits = {a: 0 for a in valid}
    draws = 100_000
    for _ in range(draws):
        hits[select_action(q, S, valid, 1.0, rng)] += 1
    for a in valid:
        assert abs(hits[a] / draws - 1 / 3) < 0.02


def test_empty_valid_set_raises():
    with pytest.raises(ValueError):
        select_action(fresh_table(), S, (), 0.5, np.random.default_rng(0))


def test_greedy_invariant_under_constant_shift():
    q = fresh_table()
    valid = (Action.LEFT, Action.RIGHT, Action.STAY)
    from swarmherd.environment import encode_state

    idx = encode_state(S, q.bins, q.num_vertices)
    rng = np.random.default_rng(2)
    q.values[idx, :] = rng.normal(size=q.num_actions)
    before = greedy_action_index(q.values, idx, valid)
    q.values[idx, :] += 17.5
    assert greedy_action_index(q.values, idx, valid) is before


# --- updates ------------------------------------------------------------------

def test_sarsa_update_hand_value():
    q = fresh_table()
    update_sarsa(q, S, A, -0.36, S2, A2, CFG)
    assert q_lookup(q, S, A) == -0.108


def test_sarsa_zero_alpha_is_noop():
    q = fresh_table()
    cfg = LearnerConfig(alpha=0.0, gamma=0.9, epsilon=0.1, algorithm="sarsa")
    update_sarsa(q, S, A, -0.36, S2, A2, cfg)
    assert not q.values.any()


def test_sarsa_fixed_point():
    q = fresh_table()
    from swarmherd.environment import encode_state

    idx = encode_state(S, q.bins, q.num_vertices)
    idx2 = encode_state(S2, q.bins, q.num_vertices)
    q.values[idx, A] = -1.5
    q.values[idx2, A2] = -1.5
    cfg = LearnerConfig(alpha=0.3, gamma=1.0, epsilon=0.1, algorithm="sarsa")
    update_sarsa(q, S, A, 0.0, S2, A2, cfg)
    assert q.values[idx, A] == -1.5


def test_updates_touch_exactly_one_entry():
    q = fresh_table()
    update_sarsa(q, S, A, -0.36, S2, A2, CFG)
    assert np.count_nonzero(q.values) == 1
    q = fresh_table()
    update_qlearning(q, S, A, -0.36, S2, (Action.LEFT, Action.STAY), CFG)
    assert np.count_nonzero(q.values) == 1


def test_qlearning_update_hand_values():
    q = fresh_table()
    update_qlearning(q, S, A, -0.36, S2, (Action.LEFT, Action.STAY), CFG)
    assert q_lookup(q, S, A) == -0.108

    q = fresh_table()
    from swarmherd.environment import encode_state

    idx2 = encode_state(S2, q.bins, q.num_vertices)
    q.values[idx2, Action.LEFT] = 5.0
    q.values[idx2, Action.STAY] = -1.0
    cfg = LearnerConfig(alpha=1.0, gamma=1.0, epsilon=0.0, algorithm="qlearning")
    update_qlearning(q, S, A, 0.0, S2, (Action.LEFT, Action.STAY), cfg)
    assert q_lookup(q, S, A) == 5.0


def test_qlearning_max_is_masked_to_valid_actions():
    q = fresh_table()
    from swarmherd.environment import encode_state

    idx2 = encode_state(S2, q.bins, q.num_vertices)
    q.values[idx2, Action.RIGHT] = 99.0  # invalid at the successor, must be ignored
    q.values[idx2, Action.LEFT] = -1.0
    cfg = LearnerConfig(alpha=1.0, gamma=1.0, epsilon=0.0, algorithm="qlearning")
    update_qlearning(q, S, A, 0.0, S2, (Action.LEFT, Action.STAY), cfg)
    assert q_lookup(q, S, A) == 0.0  # max(-1, 0), not 99


def test_qlearning_equals_sarsa_when_next_action_is_argmax():
    qa, qb = fresh_table(), fresh_table()
    from swarmherd.environment import encode_state

    idx2 = encode_state(S2, qa.bins, qa.num_vertices)
    for q in (qa, qb):
        q.values[idx2, Action.LEFT] = -0.4
        q.values[idx2, Action.STAY] = -0.2
    update_sarsa(qa, S, A, -0.36, S2, Action.STAY, CFG)
    update_qlearning(qb, S, A, -0.36, S2, (Action.LEFT, Action.STAY), CFG)
    assert q_lookup(qa, S, A) == q_lookup(qb, S, A)


def test_terminal_update_drops_bootstrap():
    q = fresh_table()
    from swarmherd.environment import encode_state

    idx2 = encode_state(S2, q.bins, q.num_vertices)
    q.values[idx2, A2] = -50.0
    update_sarsa(q, S, A, -0.36, None, None, CFG, terminal=True)
    assert q_lookup(q, S, A) == -0.108


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
    q = QTable.zeros(bins=3, rows=2, cols=2)
    rng = np.random.default_rng(3)
    q.values[:] = rng.normal(size=q.values.shape)
    path = tmp_path / "table.swhq"
    save_qtable(q, path, {"training": {"algorithm": "sarsa", "seed": 9}})
    loaded = load_qtable(path)
    assert np.array_equal(loaded.values, q.values)
    assert (loaded.bins, loaded.num_vertices, loaded.num_actions) == (3, 4, 5)
    assert (loaded.rows, loaded.cols) == (2, 2)
    sidecar = (tmp_path / "table.swhq.meta.json").read_text()
    assert '"algorithm": "sarsa"' in sidecar


def test_file_layout_is_state_major_action_minor(tmp_path):
    import struct

    q = QTable.zeros(bins=3, rows=2, cols=2)
    q.values[7, 3] = -1.25
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
