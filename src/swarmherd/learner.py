"""Tabular state-action values: ε-greedy selection, the TD write and the table file.

The table keeps only the states it has values for: a dict from the mixed-radix
state index to a list of that state's action values, one float per action. A
state without a row reads a shared all-zero tuple, and the TD write adds a
row the first time it writes one. argmax and max always range over the
actions valid at the relevant leader vertex, never the full action set.
SARSA and Q-Learning differ only in the target they pass to :func:`td_update`.
On disk the table is dense; see :func:`save_qtable`.
"""

from __future__ import annotations

import json
import os
import stat
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .environment import NUM_ACTIONS, Action, num_states
from .errors import (
    ConfigError,
    QTableDimensionError,
    QTableFormatError,
    QTableTruncatedError,
)

ALGORITHMS = ("sarsa", "qlearning")

MAGIC = b"SWHQ"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIIIII")  # magic, version, M, bins, actions, rows, cols
# Largest dense table QTable.zeros admits (a 2x3 grid at 10 bins takes 425 MB),
# and the most memory load_qtable spends on the rows it keeps.
MAX_TABLE_BYTES = 4 * 2**30
# save_qtable and load_qtable stream the payload through one buffer of this size.
_CHUNK_BYTES = 64 * 2**10


def _row_bytes(actions: int) -> int:
    """Memory one stored row costs: its list, its floats, and about 96 bytes
    for its int key and dict slot."""
    return sys.getsizeof([0.0] * actions) + actions * sys.getsizeof(0.0) + 96


@dataclass
class QTable:
    """State-action values of the touched states, plus the metadata needed to index them.

    ``store`` maps a state index to the list of its action values; a state
    without a row reads ``zero``, one shared tuple of zeros.
    """

    store: dict[int, list[float]]
    bins: int
    num_vertices: int
    num_actions: int
    rows: int
    cols: int
    zero: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.zero = (0.0,) * self.num_actions

    @classmethod
    def zeros(cls, bins: int, rows: int, cols: int, actions: int = NUM_ACTIONS) -> "QTable":
        """Empty table (every entry reads 0); ConfigError when its file would
        exceed MAX_TABLE_BYTES."""
        m = rows * cols
        nbytes = num_states(bins, m) * actions * 8
        if nbytes > MAX_TABLE_BYTES:
            # Integer arithmetic only: a large grid's size overflows a float
            # and has too many digits to print.
            size = (
                f"{nbytes} bytes ({nbytes >> 30} GiB)" if nbytes < 2**64
                else f"over 2^{nbytes.bit_length() - 1} bytes"
            )
            raise ConfigError(
                f"a {rows}x{cols} table at {bins} bins needs {size}, "
                f"above the {MAX_TABLE_BYTES >> 30} GiB limit"
            )
        return cls(store={}, bins=bins, num_vertices=m, num_actions=actions, rows=rows, cols=cols)

    @property
    def state_count(self) -> int:
        return num_states(self.bins, self.num_vertices)

    @property
    def values(self) -> np.ndarray:
        """A read-only dense (state_count, num_actions) float64 copy, built on each read.

        For whole-table statistics in perfbench/tracer.py and the tests.
        Training, evaluation, table I/O and ``inspect`` never read it.
        """
        dense = np.zeros((self.state_count, self.num_actions))
        if self.store:
            dense[list(self.store)] = list(self.store.values())
        dense.flags.writeable = False
        return dense


@dataclass(frozen=True)
class LearnerConfig:
    """TD-learning hyperparameters.

    ``epsilon`` is the exploration threshold; with ``epsilon_decay`` it falls
    linearly to ``epsilon_final`` over the training episodes, otherwise it
    stays constant.
    """

    alpha: float = 0.3
    gamma: float = 0.9
    epsilon: float = 0.1
    algorithm: str = "qlearning"
    epsilon_decay: bool = False
    epsilon_final: float = 0.01

    def __post_init__(self):
        for name in ("alpha", "gamma", "epsilon", "epsilon_final"):
            x = getattr(self, name)
            if not 0.0 <= x <= 1.0:
                raise ConfigError(f"{name}={x} outside [0, 1]")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")

    def episode_epsilon(self, episode: int, episodes: int) -> float:
        """Exploration threshold for a given 0-based episode index."""
        if not self.epsilon_decay or episodes <= 1:
            return self.epsilon
        frac = episode / (episodes - 1)
        return self.epsilon + (self.epsilon_final - self.epsilon) * frac


def greedy_action_index(q: QTable, state_index: int, valid: Sequence[Action]) -> Action:
    """Argmax over the valid actions, ties to the lowest canonical action index.

    ``valid`` must be in canonical order, as produced by ``valid_actions``;
    plain ints (``HerdingEnv.action_ids``) return an int.
    """
    row = q.store.get(state_index, q.zero)
    best = valid[0]
    best_value = row[best]
    for a in valid[1:]:
        v = row[a]
        if v > best_value:
            best = a
            best_value = v
    return best


def max_action_value(q: QTable, state_index: int, valid: Sequence[Action]) -> float:
    """Largest stored value among the valid actions at a state."""
    return q.store.get(state_index, q.zero)[greedy_action_index(q, state_index, valid)]


def td_update(q: QTable, s: int, a: int, target: float, alpha: float) -> None:
    """The TD write ``Q(s,a) += alpha * (target - Q(s,a))``, in place, on plain floats.

    The target is ``r`` at a terminal step, else ``r + gamma * Q(s',a')`` for
    SARSA and ``r + gamma * max_action_value(q, s', valid')`` for Q-Learning.
    The first write to a state adds its row.
    """
    row = q.store.get(s)
    if row is None:
        row = q.store[s] = [0.0] * q.num_actions
    v = row[a]
    row[a] = v + alpha * (target - v)


def select_action_index(
    q: QTable,
    state_index: int,
    valid: Sequence[Action],
    epsilon: float,
    rng: np.random.Generator,
) -> Action:
    """ε-greedy selection over the valid actions at a state.

    Draws X uniform on [0, 1) first: above epsilon it exploits (greedy with
    the canonical tie-break), otherwise it draws a uniform explore index, so
    every caller consumes the random stream in the same order.
    """
    if rng.random() > epsilon:
        return greedy_action_index(q, state_index, valid)
    return valid[int(rng.integers(len(valid)))]


def _rows_per_chunk(actions: int) -> int:
    return max(1, _CHUNK_BYTES // (8 * actions))


def save_qtable(q: QTable, destination, extra_meta: Mapping | None = None) -> None:
    """Write the binary table and a human-readable .meta.json sidecar.

    Layout: magic "SWHQ", then little-endian u32 fields (format version, M,
    bins, action count, grid rows, grid cols), then the values of every
    state as little-endian float64 in state-major, action-minor order; a
    state without a row writes zeros. The payload goes out one chunk of
    states at a time, so saving needs one chunk of memory at any table size.
    """
    path = Path(destination)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, q.num_vertices, q.bins, q.num_actions, q.rows, q.cols
    )
    store = q.store
    states, step = q.state_count, _rows_per_chunk(q.num_actions)
    with path.open("wb") as fh:
        fh.write(header)
        for lo in range(0, states, step):
            hi = min(lo + step, states)
            chunk = np.zeros((hi - lo, q.num_actions), dtype="<f8")
            at = sorted(store.keys() & range(lo, hi))
            if at:
                flat = [x for s in at for x in store[s]]
                chunk[np.subtract(at, lo)] = np.reshape(flat, (-1, q.num_actions))
            fh.write(memoryview(chunk).cast("B"))
    meta = {
        "magic": MAGIC.decode("ascii"),
        "format_version": FORMAT_VERSION,
        "num_vertices": q.num_vertices,
        "bins": q.bins,
        "num_actions": q.num_actions,
        "rows": q.rows,
        "cols": q.cols,
    }
    if extra_meta:
        meta.update(extra_meta)
    sidecar_path(path).write_text(json.dumps(meta, indent=2) + "\n")


def sidecar_path(table_path) -> Path:
    return Path(str(table_path) + ".meta.json")


def _check_payload_size(got: int, expected: int) -> None:
    if got < expected:
        raise QTableTruncatedError(f"payload holds {got} bytes, header promises {expected}")
    if got > expected:
        raise QTableDimensionError(f"{got - expected} trailing bytes after the payload")


def load_qtable(source) -> QTable:
    """Read a table written by :func:`save_qtable`.

    Raises QTableFormatError for a bad magic/version/header,
    QTableDimensionError for inconsistent dimensions, trailing bytes or kept
    rows that would take more than MAX_TABLE_BYTES of memory, and
    QTableTruncatedError when the payload is short. The payload size of a
    regular file is checked against its size before anything is read. The
    payload is read one chunk of states at a time, and only the rows holding
    a nonzero byte are kept, so a stored ``-0.0`` reads back as itself.
    """
    with Path(source).open("rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise QTableFormatError("file shorter than the fixed header")
        magic, version, m, bins, actions, rows, cols = _HEADER.unpack(head)
        if magic != MAGIC:
            raise QTableFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise QTableFormatError(f"unsupported format version {version}")
        if not (1 <= m <= 64 and 1 <= bins <= 65535 and 1 <= actions <= 64):
            raise QTableDimensionError(
                f"implausible dimensions M={m} bins={bins} actions={actions}"
            )
        if rows < 1 or cols < 1 or rows * cols != m:
            raise QTableDimensionError(f"grid {rows}x{cols} inconsistent with M={m}")
        states = num_states(bins, m)
        expected = states * actions * 8
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            _check_payload_size(info.st_size - _HEADER.size, expected)
        elif expected > MAX_TABLE_BYTES:
            # A pipe's length shows only by reading it; accept no more than zeros() would.
            raise QTableDimensionError(f"header promises {expected} bytes, above MAX_TABLE_BYTES")
        max_rows = MAX_TABLE_BYTES // _row_bytes(actions)
        step = _rows_per_chunk(actions)
        buffer = np.empty((step, actions), dtype="<f8")
        store: dict[int, list[float]] = {}
        for lo in range(0, states, step):
            chunk = buffer[: min(step, states - lo)]
            got = fh.readinto(memoryview(chunk).cast("B"))
            if got < chunk.nbytes:
                _check_payload_size(lo * actions * 8 + got, expected)
            kept = np.flatnonzero(chunk.view("<u8").any(axis=1))
            if len(store) + kept.size > max_rows:
                raise QTableDimensionError(
                    f"more than {max_rows} nonzero rows, above MAX_TABLE_BYTES in memory"
                )
            store.update(zip((kept + lo).tolist(), chunk[kept].tolist()))
        if fh.read(1):
            raise QTableDimensionError("trailing bytes after the payload")
    return QTable(
        store=store, bins=bins, num_vertices=m, num_actions=actions, rows=rows, cols=cols
    )
