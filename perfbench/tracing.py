"""Layer timing from outside the program.

``Tracer.install`` replaces each traced callable on the name its caller
resolves (a module attribute such as ``escape_ratio.ratio.segment_in_polygon``
or a class attribute such as ``Polygon.classify``) with a wrapper that records
a span.  ``Tracer.restore`` puts every original back.  Nothing under ``src/``
is changed, so the untraced runs time exactly the shipped code.

A span is (name, start, end, parent).  Spans live in flat arrays so that the
few hundred thousand spans of one disk playthrough stay small; self time is
a span's duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import os
import time
from array import array
from collections import Counter

import numpy as np

# (module attribute path, attribute, span name).  Several names map to one
# span when callers resolve the same layer through different modules.
TRACE_POINTS = (
    ("escape_ratio.ratio", "segment_in_polygon", "geometry.segment_test"),
    ("escape_ratio.geometry", "segment_in_polygon", "geometry.segment_test"),
    ("escape_ratio.geometry", "segment_avoids_interior", "geometry.segment_test"),
    ("escape_ratio.geometry.MetricContext", "interior_distance", "geometry.geodesic"),
    ("escape_ratio.geometry.MetricContext", "pursuer_distance", "geometry.geodesic"),
    ("escape_ratio.discrete", "point_classes", "geometry.point_classes"),
    ("escape_ratio.geometry", "point_classes", "geometry.point_classes"),
    ("escape_ratio.geometry.Polygon", "classify", "geometry.classify"),
    ("escape_ratio.ratio", "boundary_samples", "ratio.boundary_samples"),
    ("escape_ratio.ratio", "_pairwise_dh", "ratio.pairwise_dh"),
    ("escape_ratio.ratio", "_pairwise_dz", "ratio.pairwise_dz"),
    ("escape_ratio.ratio", "_refine_pair", "ratio.refine"),
    ("escape_ratio.discrete", "gamma_sample", "discrete.gamma_sample"),
    ("escape_ratio.scheme", "gamma_sample", "discrete.gamma_sample"),
    ("escape_ratio.discrete", "_threshold_distances", "discrete.threshold_distances"),
    ("escape_ratio.discrete", "build_game", "discrete.build_game"),
    ("escape_ratio.scheme", "build_game", "discrete.build_game"),
    ("escape_ratio.discrete", "threat_matrix", "discrete.threat_matrix"),
    ("escape_ratio.discrete", "solve", "discrete.solve"),
    ("escape_ratio.scheme", "solve", "discrete.solve"),
    ("escape_ratio.scheme", "decide_r", "scheme.probe"),
    ("escape_ratio.sim", "playthrough", "sim.engine"),
    ("escape_ratio.exact.DiskAploEscaper", "position", "exact.strategy"),
    ("escape_ratio.exact.DiskArcChasingPursuer", "position", "exact.strategy"),
)


def _count_point_classes(counts, args, result):
    counts["geometry.point_classes_pts"] += len(args[1])


def _count_boundary_samples(counts, args, result):
    m = len(result[0])
    counts["ratio.samples"] += m
    counts["ratio.pairs"] += m * (m - 1) // 2


def _count_gamma_sample(counts, args, result):
    counts["discrete.n_escaper"] = result.n_escaper
    counts["discrete.n_pursuer"] = result.n_pursuer


def _count_build_game(counts, args, result):
    counts["discrete.e_h_nnz"] += int(result.e_h.nnz)
    counts["discrete.e_z_nnz"] += int(np.count_nonzero(result.e_z))


def _count_solve(counts, args, result):
    game = result.game
    counts["discrete.solve_iterations"] += result.iterations
    counts["discrete.win_states"] += result.win_count
    counts["discrete.state_sweeps"] += game.n_h * game.n_z * result.iterations


def _count_playthrough(counts, args, result):
    counts["sim.steps"] += len(result.escaper_path) - 1


COUNTERS = {
    "geometry.point_classes": _count_point_classes,
    "ratio.boundary_samples": _count_boundary_samples,
    "discrete.gamma_sample": _count_gamma_sample,
    "discrete.build_game": _count_build_game,
    "discrete.solve": _count_solve,
    "sim.engine": _count_playthrough,
}


def _resolve(path: str):
    """Import ``a.b.C`` as module ``a.b`` plus attribute ``C`` (or the module)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Tracer:
    """Spans and counts recorded by wrappers around the program's layers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # no enclosing span of the same name
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patched: list = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name_id[idx]] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own phases."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def reset(self) -> None:
        """Drop recorded spans and counts."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        for arr in (self.name_id, self.parent, self.start, self.end, self.outermost):
            del arr[:]
        self.counts.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        nid = self._id(name)
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for path, attr, name in TRACE_POINTS:
                self._wrap(_resolve(path), attr, name)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive time of outermost spans, self time."""
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        nid = np.array(self.name_id, dtype=int)
        parent = np.array(self.parent, dtype=int)
        outer = np.array(self.outermost, dtype=bool)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {
                "calls": int(sel.sum()),
                "inclusive_s": float(dur[sel & outer].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def child_calls(self, name: str, parent_name: str) -> int:
        """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
        if name not in self._ids or parent_name not in self._ids:
            return 0
        nid, pid = self._ids[name], self._ids[parent_name]
        return sum(
            1
            for i in range(len(self.name_id))
            if self.name_id[i] == nid and self.parent[i] >= 0
            and self.name_id[self.parent[i]] == pid
        )

    def write(self, path: str) -> None:
        """Write spans as gzipped JSON: names plus parallel span columns."""
        doc = {
            "names": self.names,
            "name_id": list(self.name_id),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "summary": self.summary(),
        }
        tmp = path + ".tmp"
        with gzip.open(tmp, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
