"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests -q

Checks the tracer's counters against independent formulas and against the
objects the program returns, that every wrapper is restored, that self time
is derived correctly from spans, and that the runner counts failed
operations and refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from escape_ratio import discrete, exact, ratio, scheme, sim  # noqa: E402
from escape_ratio.geometry import PursuerModel  # noqa: E402


def _traced(fn):
    tracer = tracing.Tracer()
    with tracer:
        result = fn()
    return tracer, result


def _originals():
    return {
        (path, attr): tracing._resolve(path).__dict__[attr]
        for path, attr, _ in tracing.TRACE_POINTS
    }


def test_wrappers_are_restored():
    before = _originals()
    tracer = tracing.Tracer()
    with tracer:
        assert all(
            tracing._resolve(p).__dict__[a] is not before[(p, a)] for p, a in before
        )
    assert _originals() == before


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    s = tracer.summary()
    assert s["outer"]["calls"] == s["inner"]["calls"] == 1
    assert s["outer"]["inclusive_s"] >= s["inner"]["inclusive_s"] + 0.02
    assert s["outer"]["self_s"] == pytest.approx(
        s["outer"]["inclusive_s"] - s["inner"]["inclusive_s"])


def test_sandwich_counts_match_formulas():
    spacing = workloads.Sandwich.spacing
    ctx = workloads._context(workloads.L_SHAPE, PursuerModel.EXTERIOR)
    tracer, bound = _traced(lambda: ratio.max_ratio(ctx, spacing))
    poly = ctx.polygon
    m = sum(max(1, math.ceil(L / spacing - 1e-12)) for L in poly.edge_lengths)
    nodes = m + poly.n
    assert tracer.counts["ratio.samples"] == m
    assert tracer.counts["ratio.pairs"] == m * (m - 1) // 2
    # every pair of samples plus vertices gets one exact segment test
    pair_tests = nodes * (nodes - 1) // 2
    assert tracer.child_calls("geometry.segment_test", "ratio.pairwise_dh") == pair_tests
    assert tracer.child_calls("geometry.segment_test", "ratio.pairwise_dz") == pair_tests
    layers = run.layer_metrics(tracer)
    assert layers["geometry.segment_tests"] >= 2 * pair_tests
    assert layers["geometry.geodesic_queries"] > 0
    assert layers["discrete.n_escaper"] == layers["scheme.probes"] == 0
    assert bound.lower_certified == pytest.approx(math.sqrt(10.0))


def test_game_counts_match_returned_objects():
    ctx = workloads._context(workloads.L_SHAPE, PursuerModel.EXTERIOR)

    def work():
        samples = discrete.gamma_sample(ctx, 0.25)
        game = discrete.build_game(ctx, r=3.0, delta=0.5, gamma=0.25, samples=samples,
                                   state_cap=1e13)
        return samples, game, discrete.solve(game)

    tracer, (samples, game, res) = _traced(work)
    layers = run.layer_metrics(tracer)
    assert layers["discrete.n_escaper"] == samples.n_escaper
    assert layers["discrete.n_pursuer"] == samples.n_pursuer
    assert layers["discrete.e_h_nnz"] == game.e_h.nnz
    assert layers["discrete.e_z_nnz"] == int(game.e_z.sum())
    assert layers["discrete.solve_iterations"] == res.iterations
    assert layers["discrete.win_states"] == res.win_count
    assert tracer.counts["discrete.state_sweeps"] == game.n_h * game.n_z * res.iterations
    assert layers["geometry.point_classes_pts"] > 0
    # gamma_sample classifies each grid point with the scalar Polygon.classify
    assert tracer.child_calls("geometry.classify", "discrete.gamma_sample") > 0


def test_bracket_counts_probes_and_cache_hits():
    ctx = workloads._context(workloads.UNIT_SQUARE, PursuerModel.MOAT)
    tracer, res = _traced(lambda: scheme.approximate_r_star(
        ctx, epsilon=0.2, budget=1e13, override=(0.2, 0.2)))
    layers = run.layer_metrics(tracer)
    probes = len(res.probes)
    assert layers["scheme.probes"] == probes > 1
    assert layers["scheme.sample_cache_hit_ratio"] == pytest.approx((probes - 1) / probes)
    assert layers["geometry.segment_tests"] == 0  # the square is convex
    assert layers["discrete.n_escaper"] == res.probes[-1].n_escaper


def test_disk_counts_steps_and_strategy_calls():
    def work():
        esc, purs = exact.disk_strategies(4.4)
        return sim.playthrough(esc, purs, dt=1e-3, t_max=0.1, epsilon=0.01,
                               domain=sim.DiskDomain())

    tracer, pt = _traced(work)
    steps = len(pt.escaper_path) - 1
    layers = run.layer_metrics(tracer)
    assert layers["sim.steps"] == steps == 100
    # the pursuer is placed once, then both sides move once per step
    assert tracer.summary()["exact.strategy"]["calls"] == 2 * steps + 1
    assert 0 < layers["exact.strategy_s"] < layers["sim.engine_s"]


def test_relabellings_cover_shifts_and_turns():
    L = workloads.L_SHAPE
    images = set()
    for shift in range(len(L)):
        pts = L[shift:] + L[:shift]
        for _ in range(4):
            images.add(pts)
            pts = tuple((-y, x) for x, y in pts)
    drawn = {workloads.relabel(L, seed) for seed in range(200)}
    assert drawn == images and len(images) == 24


class _Flaky:
    """Stub workload: the second repetition gives a wrong answer, the third raises."""

    name = "stub"
    ops = ("a", "b")

    def __init__(self):
        self.n = 0

    def setup(self, seed):
        self.n += 1
        return self.n

    def run(self, state):
        if state == 3:
            raise ValueError("boom")
        return {"a": state, "b": 0}

    def check(self, state, outputs):
        return {"a": [] if outputs["a"] != 2 else ["wrong"], "b": []}


def test_failed_operations_are_counted():
    r = run.Run(_Flaky(), seed=0)
    for _ in range(4):
        r.rep()
    assert r.attempted == 8
    assert r.failed == 1 + 2
    assert len(r.timings("wall_s", traced=False)) == 3


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "disk-playthrough",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
