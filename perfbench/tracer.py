"""In-memory span tracer for one swarmherd CLI process.

Every public callable on the hot path is replaced, under the name its caller
uses, by a wrapper that records one span: name, parent span, start and end in
nanoseconds, and a small integer tag. Spans live in flat ``array`` columns
(about 23 bytes each) and are written out once, after the root returns.
The wrappers only time and forward calls, so the program's random streams and
data files are unchanged; the benchmark checks that byte for byte.

A span's self time is its duration minus the durations of its direct
children. Because children nest inside their parent, the self times of a
tree add up exactly to the root's duration; :meth:`Tracer.summary` checks it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# (layer name, module, attribute) for every wrapped callable. Several entries
# may share a layer name when two callers import the same function.
TARGETS = (
    ("cli.load_config", "swarmherd.cli", "load_config"),
    ("cli.write", "swarmherd.cli", "_write_atomic"),
    ("cli.write", "swarmherd.cli", "_save_table_atomic"),
    ("learner.save_qtable", "swarmherd.cli", "save_qtable"),
    ("learner.load_qtable", "swarmherd.cli", "load_qtable"),
    ("harness.train", "swarmherd.cli", "train"),
    ("harness.train", "swarmherd.harness", "train"),
    ("harness.evaluate", "swarmherd.cli", "evaluate"),
    ("harness.evaluate", "swarmherd.harness", "evaluate"),
    ("harness.sweep", "swarmherd.cli", "sweep"),
    ("harness.derive_seed", "swarmherd.cli", "derive_seed"),
    ("harness.derive_seed", "swarmherd.harness", "derive_seed"),
    ("learner.select_action_index", "swarmherd.harness", "select_action_index"),
    ("learner.max_action_value", "swarmherd.harness", "max_action_value"),
    ("learner.greedy_action_index", "swarmherd.learner", "greedy_action_index"),
    ("environment.reset", "swarmherd.environment", "HerdingEnv.reset"),
    ("environment.step", "swarmherd.environment", "HerdingEnv.step"),
    ("environment.state_index", "swarmherd.environment", "HerdingEnv.state_index"),
    ("environment.mse_to_target", "swarmherd.environment", "HerdingEnv.mse_to_target"),
    ("dynamics.mean_field_step", "swarmherd.environment", "mean_field_step"),
    ("dynamics.assert_simplex", "swarmherd.dynamics", "assert_simplex"),
    ("graph.make_grid", "swarmherd.environment", "make_grid"),
)

# Layers whose arguments and results are kept for the summary.
KEPT = ("harness.train", "harness.evaluate", "harness.sweep")


def _step_tag(result) -> int:
    """1 when the step ended with the leader repelling, 0 for a move."""
    return int(result[1].flag)


TAGS = {"environment.step": _step_tag}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tag = array("b")
        self.stack = [-1]
        self.kept: dict[str, list] = {name: [] for name in KEPT}
        self.missing: list[str] = []

    def wrap(self, layer: str, fn):
        if layer not in self.names:
            self.names.append(layer)
        nid = self.names.index(layer)
        name, parent, start, end, tag = self.name, self.parent, self.start, self.end, self.tag
        stack = self.stack
        clock = time.perf_counter_ns
        tag_of = TAGS.get(layer)
        kept = self.kept.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            tag.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if tag_of is not None:
                tag[i] = tag_of(result)
            if kept is not None:
                kept.append((fn, args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for layer, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(layer, fn))
        if self.missing:
            print("tracer: not found: " + ", ".join(self.missing), file=sys.stderr)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "tag": np.frombuffer(self.tag, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())

    def summary(self) -> dict:
        """Per-layer counts and times, plus the span-tree consistency checks."""
        c = self.columns()
        n = len(c["name"])
        dur = c["end"] - c["start"]
        parent = c["parent"]
        has_parent = parent >= 0
        child_ns = np.zeros(n, dtype=np.int64)
        np.add.at(child_ns, parent[has_parent], dur[has_parent])
        self_ns = dur - child_ns
        roots = ~has_parent
        p = parent[has_parent]
        nested = bool(
            np.all(c["start"][has_parent] >= c["start"][p])
            and np.all(c["end"][has_parent] <= c["end"][p])
        )
        layers = {}
        for nid, layer in enumerate(self.names):
            mask = c["name"] == nid
            layers[layer] = {
                "calls": int(mask.sum()),
                "total_ns": int(dur[mask].sum()),
                "self_ns": int(self_ns[mask].sum()),
            }

        def mask_of(layer):
            if layer not in self.names:
                return np.zeros(n, dtype=bool)
            return c["name"] == self.names.index(layer)

        step = mask_of("environment.step")
        repel = step & (c["tag"] == 1)
        move = step & (c["tag"] == 0)
        select = mask_of("learner.select_action_index")
        chose_greedy = np.zeros(n, dtype=bool)
        greedy = mask_of("learner.greedy_action_index") & has_parent
        chose_greedy[parent[greedy]] = True
        return {
            "spans": n,
            "root_ns": int(dur[roots].sum()),
            "self_sum_ns": int(self_ns.sum()),
            "nested": nested,
            "missing": self.missing,
            "layers": layers,
            "step_repel": [{"calls": int(repel.sum()), "self_ns": int(self_ns[repel].sum())}],
            "step_move": [{"calls": int(move.sum()), "self_ns": int(self_ns[move].sum())}],
            "select_explore": int((select & ~chose_greedy).sum()),
            "train": [_train_stats(*k) for k in self.kept["harness.train"]],
            "evaluate": [_evaluate_stats(*k) for k in self.kept["harness.evaluate"]],
            "sweep": [_sweep_stats(*k) for k in self.kept["harness.sweep"]],
        }


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _train_stats(fn, args, kwargs, result) -> dict:
    cfg = _bound(fn, args, kwargs)["cfg"]
    values = result.table.values
    return {
        "episodes": len(result.episodes),
        "capped": sum(e.length >= cfg.max_iters_per_episode for e in result.episodes),
        "table_bytes": int(values.nbytes),
        "states": int(values.shape[0]),
        "rows_touched": int(np.count_nonzero(np.any(values != 0.0, axis=1))),
    }


def _evaluate_stats(fn, args, kwargs, result) -> dict:
    records = result[0]
    censored = [r for r in records if not r.converged]
    return {
        "runs": len(records),
        "censored": len(censored),
        "steps": sum(r.iterations for r in records),
        "censored_steps": sum(r.iterations for r in censored),
        "distinct": len({(r.converged, r.iterations, r.final_mse) for r in records}),
    }


def _sweep_stats(fn, args, kwargs, result) -> dict:
    bound = _bound(fn, args, kwargs)
    return {"tasks": len({cell.train for cell in bound["cells"]}), "jobs": bound["jobs"]}
