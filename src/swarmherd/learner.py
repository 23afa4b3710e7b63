"""Tabular state-action values: ε-greedy selection, the TD write and the table file.

The table is a dense (num_states, num_actions) float64 array indexed by the
mixed-radix state encoding; argmax and max always range over the actions
valid at the relevant leader vertex, never the full action set. SARSA and
Q-Learning differ only in the target they pass to :func:`td_update`.
"""

from __future__ import annotations

import json
import os
import stat
import struct
from dataclasses import dataclass
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
# Largest table QTable.zeros allocates; a 2x3 grid at 10 bins takes 425 MB.
MAX_TABLE_BYTES = 4 * 2**30


@dataclass
class QTable:
    """Dense state-action value table plus the metadata needed to index it."""

    values: np.ndarray
    bins: int
    num_vertices: int
    num_actions: int
    rows: int
    cols: int

    @classmethod
    def zeros(cls, bins: int, rows: int, cols: int, actions: int = NUM_ACTIONS) -> "QTable":
        """Zeroed table (unexplored entries read as 0); ConfigError above MAX_TABLE_BYTES."""
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
        return cls(
            values=np.zeros((num_states(bins, m), actions)),
            bins=bins,
            num_vertices=m,
            num_actions=actions,
            rows=rows,
            cols=cols,
        )

    @property
    def state_count(self) -> int:
        return self.values.shape[0]


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


def greedy_action_index(
    values: np.ndarray, state_index: int, valid: Sequence[Action]
) -> Action:
    """Argmax over the valid actions, ties to the lowest canonical action index.

    ``valid`` must be in canonical order, as produced by ``valid_actions``;
    plain ints (``HerdingEnv.action_ids``) return an int.
    """
    row = values[state_index].tolist()
    best = valid[0]
    best_value = row[best]
    for a in valid[1:]:
        v = row[a]
        if v > best_value:
            best = a
            best_value = v
    return best


def max_action_value(values: np.ndarray, state_index: int, valid: Sequence[Action]) -> float:
    """Largest stored value among the valid actions at a state."""
    return values.item(state_index, greedy_action_index(values, state_index, valid))


def td_update(values: np.ndarray, s: int, a: int, target: float, alpha: float) -> None:
    """The TD write ``Q(s,a) += alpha * (target - Q(s,a))``, in place, on plain floats.

    The target is ``r`` at a terminal step, else ``r + gamma * Q(s',a')`` for
    SARSA and ``r + gamma * max_action_value(values, s', valid')`` for
    Q-Learning.
    """
    q = values.item(s, a)
    values[s, a] = q + alpha * (target - q)


def select_action_index(
    values: np.ndarray,
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
        return greedy_action_index(values, state_index, valid)
    return valid[int(rng.integers(len(valid)))]


def save_qtable(q: QTable, destination, extra_meta: Mapping | None = None) -> None:
    """Write the binary table and a human-readable .meta.json sidecar.

    Layout: magic "SWHQ", then little-endian u32 fields (format version, M,
    bins, action count, grid rows, grid cols), then the values as
    little-endian float64 in state-major, action-minor order.
    """
    path = Path(destination)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, q.num_vertices, q.bins, q.num_actions, q.rows, q.cols
    )
    # The array's own buffer goes to the file: no bytes copy of a large table.
    payload = np.ascontiguousarray(q.values, dtype="<f8")
    with path.open("wb") as fh:
        fh.write(header)
        fh.write(memoryview(payload))
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
    QTableDimensionError for inconsistent dimensions or trailing bytes, and
    QTableTruncatedError when the payload is short. The payload size of a
    regular file is checked against its size before anything is allocated;
    the payload is read once, straight into the table's array.
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
            # A pipe's length shows only by reading it; allocate no more than zeros() would.
            raise QTableDimensionError(f"header promises {expected} bytes, above MAX_TABLE_BYTES")
        values = np.empty((states, actions), dtype="<f8")
        _check_payload_size(fh.readinto(memoryview(values).cast("B")), expected)
        if fh.read(1):
            raise QTableDimensionError("trailing bytes after the payload")
    return QTable(
        values=values.astype(np.float64, copy=False),
        bins=bins,
        num_vertices=m,
        num_actions=actions,
        rows=rows,
        cols=cols,
    )
