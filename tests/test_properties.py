"""Property-based checks: mass conservation, the loop kernels against the
reference step and state encoder of ``oracles`` over random small grids, the
repel memo of either backend against fresh references, the encode/decode
bijection, and fuzzing of the table reader.

Examples are derandomized and bounded so the suite stays fast and repeatable.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmherd import (
    DiscretizedState,
    EnvConfig,
    HerdingEnv,
    LeaderState,
    QTable,
    decode_state,
    encode_state,
    largest_remainder_counts,
    num_states,
)
from swarmherd.environment import BACKENDS
from swarmherd.errors import QTableFormatError
from swarmherd.learner import _HEADER, FORMAT_VERSION, MAGIC, load_qtable, save_qtable

import oracles
from helpers import fill_random, kernel_step

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)
FUZZ = settings(SETTINGS, max_examples=200)


def _simplex(draw, m: int) -> tuple[float, ...]:
    weights = draw(st.lists(st.integers(0, 20), min_size=m, max_size=m).filter(any))
    total = sum(weights)
    return tuple(w / total for w in weights)


@st.composite
def env_configs(draw, max_rows: int = 2) -> EnvConfig:
    """Grids from 1x2 to max_rows x 3, either backend, any valid rate."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(2 if rows == 1 else 1, 3))
    m = rows * cols
    max_degree = min(2, rows - 1) + min(2, cols - 1)
    return EnvConfig(
        rows=rows,
        cols=cols,
        num_agents=draw(st.integers(1, 200)),
        beta=draw(st.floats(0.01, 0.99 / max_degree)),
        bins=draw(st.integers(1, 10)),
        mu=1e-6,
        initial_dist=_simplex(draw, m),
        target_dist=_simplex(draw, m),
        backend=draw(st.sampled_from(BACKENDS)),
    )


SEEDS = st.integers(0, 2**32 - 1)
# Each entry picks one of the actions valid where the leader stands.
CHOICES = st.lists(st.integers(0, 4), min_size=1, max_size=60)


@SETTINGS
@given(cfg=env_configs(), seed=SEEDS, choices=CHOICES)
def test_step_conserves_mass(cfg, seed, choices):
    env = HerdingEnv(cfg)
    rng = np.random.default_rng(seed)
    followers, v = env.reset(rng)
    leader = LeaderState(v, 0)
    for c in choices:
        acts = env.action_ids[leader.vertex]
        followers, leader, r, _ = kernel_step(env, followers, leader, acts[c % len(acts)], rng)
        assert r <= 0.0
        if cfg.backend == "dtmc":
            assert all(type(x) is int for x in followers)
            assert min(followers) >= 0 and sum(followers) == cfg.num_agents
        else:
            assert min(followers) >= 0.0 and abs(sum(followers) - 1.0) <= 1e-12


@SETTINGS
@given(cfg=env_configs(), seed=SEEDS, choices=CHOICES)
def test_step_matches_free_functions(cfg, seed, choices):
    env = HerdingEnv(cfg)
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    followers_a, v_a = env.reset(rng_a)
    followers_b, v_b = env.reset(rng_b)
    leader_a, leader_b = LeaderState(v_a, 0), LeaderState(v_b, 0)
    for c in choices:
        acts = env.action_ids[leader_a.vertex]
        action = acts[c % len(acts)]
        followers_a, leader_a, r_a, t_a = kernel_step(env, followers_a, leader_a, action, rng_a)
        followers_b, leader_b, r_b, t_b = oracles.reference_step(
            env, followers_b, leader_b, action, rng_b
        )
        assert list(followers_a) == followers_b.tolist()
        assert leader_a == leader_b
        assert r_a == r_b and t_a == t_b
    assert rng_a.random() == rng_b.random()


def _followers(draw, cfg: EnvConfig) -> np.ndarray:
    """Counts or densities, often on a half-bin edge where bins * x + 0.5 is an
    integer, and up to twice the population so that the clip to ``bins`` shows."""
    m, bins = cfg.num_vertices, cfg.bins
    if cfg.backend == "dtmc":
        counts = st.integers(0, 2 * cfg.num_agents)
        return np.array(draw(st.lists(counts, min_size=m, max_size=m)), dtype=np.int64)
    half_bin = st.integers(0, 2 * bins - 1).map(lambda k: (k + 0.5) / bins)
    value = st.one_of(half_bin, st.floats(0.0, 2.0))
    return np.array(draw(st.lists(value, min_size=m, max_size=m)))


@SETTINGS
@given(cfg=env_configs(), data=st.data())
def test_state_index_matches_encode_of_discretize(cfg, data):
    if cfg.backend == "dtmc" and data.draw(st.booleans()):
        # With N = 2 * bins an odd count sits exactly between two bins.
        cfg = replace(cfg, num_agents=2 * cfg.bins)
    env = HerdingEnv(cfg)
    followers = _followers(data.draw, cfg)
    vertex = data.draw(st.integers(0, cfg.num_vertices - 1))
    _, code = env.score(followers.tolist())
    assert vertex + cfg.num_vertices * code == oracles.state_index(env, followers, vertex)


@SETTINGS
@given(cfg=env_configs(max_rows=3), data=st.data())
def test_score_is_the_oracle_left_to_right_sum(cfg, data):
    """``sq`` equals the oracle's fixed-order sum to the bit, on counts that
    sum to N and on arbitrary densities."""
    env = HerdingEnv(cfg)
    m, n = cfg.num_vertices, cfg.num_agents
    if cfg.backend == "dtmc":
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
        followers = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    else:
        weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m).filter(any))
        followers = [w / sum(weights) for w in weights]
    sq, _ = env.score(followers)
    assert (-sq).hex() == oracles.reward(oracles.observe(env, followers), cfg.target_dist).hex()


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(cfg=env_configs(), seed=SEEDS, data=st.data())
def test_repel_memo_matches_references(backend, cfg, seed, data):
    """Every repel on one env, memo hit or miss, returns the values of the
    oracle follower step, reward, mse and state index, down to the sign of
    zero, and draws what the oracle draws from an identically seeded stream.
    Each call starts from one of a few follower vectors (so most mean-field
    calls hit) or from the followers the previous call returned."""
    env = HerdingEnv(replace(cfg, backend=backend))
    m = cfg.num_vertices
    starts = [list(_simplex(data.draw, m)) for _ in range(data.draw(st.integers(1, 4)))]
    if backend == "dtmc":
        starts = [largest_remainder_counts(x, cfg.num_agents).tolist() for x in starts]
    calls = st.tuples(st.integers(0, len(starts)), st.integers(0, m - 1))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    followers = starts[0]
    for i, v in data.draw(st.lists(calls, min_size=1, max_size=24)):
        before = starts[i] if i < len(starts) else followers
        expected = oracles.follower_step(env, before, LeaderState(v, 1), oracle_rng).tolist()
        followers, sq, code = env.repel(before, v, rng)
        assert type(followers) is tuple
        # (type, hex) tells int counts from floats and -0.0 from 0.0.
        assert [(type(x), float(x).hex()) for x in followers] == [
            (type(x), float(x).hex()) for x in expected
        ]
        seen = oracles.observe(env, expected)
        assert (-sq).hex() == oracles.reward(seen, cfg.target_dist).hex()
        assert (sq / m).hex() == oracles.mse(seen, cfg.target_dist).hex()
        assert v + m * code == oracles.state_index(env, expected, v)
    assert rng.random() == oracle_rng.random()


@SETTINGS
@given(bins=st.integers(1, 30), m=st.integers(1, 9), data=st.data())
def test_encode_decode_is_a_bijection(bins, m, data):
    index = data.draw(st.integers(0, num_states(bins, m) - 1))
    assert encode_state(decode_state(index, bins, m), bins, m) == index
    state = DiscretizedState(
        tuple(data.draw(st.lists(st.integers(0, bins), min_size=m, max_size=m))),
        data.draw(st.integers(0, m - 1)),
    )
    assert decode_state(encode_state(state, bins, m), bins, m) == state


@st.composite
def touched_tables(draw) -> QTable:
    """A table on a grid of up to 2x2 at up to 5 bins (a few save/load chunks),
    with random rows, one row holding a -0.0 and one written back to all +0.0."""
    q = QTable.zeros(draw(st.integers(1, 5)), draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    states = st.integers(0, q.state_count - 1)
    for s in draw(st.lists(states, unique=True, max_size=12)):
        q.store[s] = draw(st.lists(st.floats(allow_nan=False), min_size=q.num_actions,
                                   max_size=q.num_actions))
    q.store[draw(states)] = [0.0] * q.num_actions
    signed = [0.0] * q.num_actions
    signed[draw(st.integers(0, q.num_actions - 1))] = -0.0
    q.store[draw(states)] = signed
    return q


def _pipe_load(data: bytes) -> QTable:
    """load_qtable on a /dev/fd pipe fed by a thread: the payload may exceed the pipe buffer."""
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return load_qtable(f"/dev/fd/{r}")
    finally:
        os.close(r)  # a reader that stopped early must not leave the writer blocked
        writer.join()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@SETTINGS
@given(q=touched_tables())
def test_table_io_keeps_exactly_the_rows_with_a_nonzero_byte(table_file, q):
    save_qtable(q, table_file)
    data = table_file.read_bytes()
    payload = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    payload = payload.reshape(q.state_count, q.num_actions)
    loaded = load_qtable(table_file)
    assert sorted(loaded.store) == np.flatnonzero(payload.view("<u8").any(axis=1)).tolist()
    assert loaded.values.astype("<f8").tobytes() == payload.tobytes()
    save_qtable(loaded, table_file)
    assert table_file.read_bytes() == data
    piped = _pipe_load(data)
    assert piped.store.keys() == loaded.store.keys()
    assert piped.values.tobytes() == loaded.values.tobytes()


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "table.swhq"


@pytest.fixture(scope="module")
def valid_table(table_file) -> bytes:
    q = fill_random(QTable.zeros(2, 1, 2), 0)
    save_qtable(q, table_file)
    return table_file.read_bytes()


def _load_or_typed_error(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        table = load_qtable(path)
    except QTableFormatError:
        return
    assert table.values.shape == (table.state_count, table.num_actions)


@FUZZ
@given(
    prefix=st.sampled_from([b"", MAGIC, MAGIC + struct.pack("<I", FORMAT_VERSION)]),
    body=st.binary(max_size=96),
)
def test_load_random_bytes_raises_only_format_errors(table_file, prefix, body):
    _load_or_typed_error(table_file, prefix + body)


@FUZZ
@given(
    edits=st.lists(
        st.tuples(st.integers(0, _HEADER.size + 15), st.integers(0, 255)), max_size=6
    ),
    cut=st.one_of(st.none(), st.integers(0, 800)),
    tail=st.binary(max_size=16),
)
def test_load_mutated_table_raises_only_format_errors(table_file, valid_table, edits, cut, tail):
    data = bytearray(valid_table)
    for pos, value in edits:
        data[pos] = value
    _load_or_typed_error(table_file, bytes(data[:cut]) + tail)
