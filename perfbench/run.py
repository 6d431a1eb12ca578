"""Benchmark runner: one workload, one process, metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  A fuller record (machine, every repetition, span self times)
goes to ``perfbench/out/``.

Each run repeats setup plus timed phase until ``--seconds`` have passed (at
least ``MIN_REPS`` times) and reports medians over the repetitions.

Host speed.  On the 2-vCPU guest this was written on, the same code runs up
to 3x slower from one second to the next, for every process alike and in
CPU time as much as in wall time (no steal: the host simply runs the vCPU
slower).  Medians of raw times then differ by 8-27% between runs.  So a fixed
calibration kernel that does not call the program runs before and after
every repetition, and each time is reported at the reference host speed:
``raw time * REFERENCE_CALIBRATION_S / calibration time``.  A change to the
program moves the repetition and not the kernel.  Raw times are kept in the
record file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

if not (SRC / "escape_ratio" / "__init__.py").is_file():
    sys.exit(f"perfbench: no escape_ratio sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import escape_ratio  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if Path(escape_ratio.__file__).resolve().parent != (SRC / "escape_ratio").resolve():
    sys.exit(f"perfbench: imported escape_ratio from {escape_ratio.__file__}, not {SRC}")

MIN_REPS = 3  # untraced repetitions (trace: pairs) even when --seconds is short
CLI_IMPORTS = 3

# The kernel mixes, in roughly equal parts, the kinds of work the repetitions
# do: an interpreter loop, numpy calls on tiny arrays, Python math around
# 2-vectors, cumsum/gather passes over row blocks, broadcast distance passes
# and sorts.  No single part tracked every workload's drift; the mix was never
# far from the best part for any of them.
_RNG = np.random.default_rng(0)
_CAL_ROWS = _RNG.random((90, 80)) < 0.5
_CAL_COLS = _RNG.integers(0, 80, 80)
_CAL_PTS = _RNG.random((4000, 2))
_CAL_VERTS = _RNG.random((6, 2))
_CAL_SORT = _RNG.random(50_000)
REFERENCE_CALIBRATION_S = 0.06  # typical kernel time on the machine it was written on


def calibration_s() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    a = np.arange(6.0)
    for _ in range(3_000):
        a = np.hypot(a, 1.0) % 97.0
    origin = np.zeros(2)
    for i in range(3_000):
        float(np.hypot(*(np.array([math.cos(i), math.sin(i)]) - origin)))
    for _ in range(150):
        c = np.cumsum(_CAL_ROWS, axis=1, dtype=np.int32)
        (c[:, _CAL_COLS] == c[:, -1:]).any(axis=0)
    for _ in range(6):
        d = _CAL_PTS[:, None, :] - _CAL_VERTS[None, :, :]
        (d * d).sum(-1).min(axis=1)
    for _ in range(20):
        np.sort(_CAL_SORT)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS will use, read through its own API."""
    import ctypes

    libs = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in path.lower() and ".so" in path:
                    libs.add(path)
    except OSError:
        return {}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[Path(path).name] = fn()
                break
    return out


def machine() -> dict:
    import scipy

    def blas_version(cfg):
        try:
            return cfg["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    threads = _blas_threads()
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(np.show_config(mode="dicts")),
        "scipy_openblas": blas_version(scipy.show_config(mode="dicts")),
        "blas_threads": threads,
        "blas_threads_within_nproc": all(t <= nproc for t in threads.values()),
    }


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


class Run:
    """Repetitions of one workload with the operation tally and timings."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reps: list[dict] = []
        self._cal = calibration_s()

    def rep(self, tracer: Tracer | None = None) -> None:
        """One setup plus one timed phase, then the reference checks.

        The tracer, when given, is installed for setup and the timed phase
        only, so the checks leave no spans.
        """
        wl = self.workload
        gc.collect()  # the last repetition's cycles (SolveResult <-> MoveTable)
        outputs = state = None
        error = None
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            t0 = time.perf_counter()
            with _maybe_span(tracer, "setup"):
                state = wl.setup(self.seed)
            t1 = time.perf_counter()
            with _maybe_span(tracer, "workload"):
                outputs = wl.run(state)
            t2 = time.perf_counter()
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc(limit=3)
        finally:
            if tracer is not None:
                tracer.restore()
        cal_before, self._cal = self._cal, calibration_s()
        scale = REFERENCE_CALIBRATION_S / (0.5 * (cal_before + self._cal))

        self.attempted += len(wl.ops)
        if error is None:
            try:
                verdict = wl.check(state, outputs)
            except Exception:
                verdict = {op: [traceback.format_exc(limit=3)] for op in wl.ops}
        else:
            verdict = {op: [error] for op in wl.ops}
        for op in wl.ops:
            bad = verdict.get(op, [f"{op}: no output"])
            if bad:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{op}: {'; '.join(bad)}")
        rec = {"traced": tracer is not None, "ok": error is None, "scale": scale}
        if error is None:
            rec.update(setup_raw_s=t1 - t0, wall_raw_s=t2 - t1,
                       setup_s=(t1 - t0) * scale, wall_s=(t2 - t1) * scale)
        if tracer is not None and error is None:
            rec["layers"] = layer_metrics(tracer, scale)
        self.reps.append(rec)

    def timings(self, key: str, traced: bool) -> list[float]:
        return [r[key] for r in self.reps if r["traced"] == traced and key in r]

    def counts_repeat(self) -> bool:
        """Whether every traced repetition gave the same layer counts."""
        layers = [r["layers"] for r in self.reps if "layers" in r]
        return all(lay[k] == layers[0][k] for lay in layers for k in COUNT_UNITS)


def _maybe_span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

# per-layer metrics that repeat exactly (counts and the cache hit ratio):
# taken from one traced repetition
COUNT_UNITS = {
    "geometry.segment_tests": "count",
    "geometry.geodesic_queries": "count",
    "geometry.point_classes_pts": "count",
    "geometry.classify_calls": "count",
    "ratio.samples": "count",
    "ratio.pairs": "count",
    "discrete.n_escaper": "count",
    "discrete.n_pursuer": "count",
    "discrete.e_h_nnz": "count",
    "discrete.e_z_nnz": "count",
    "discrete.solve_iterations": "count",
    "discrete.win_states": "count",
    "scheme.probes": "count",
    "scheme.sample_cache_hit_ratio": "ratio",
    "sim.steps": "count",
}
# per-layer metrics that are times or rates: median over traced repetitions
TIME_UNITS = {
    "geometry.segment_test_s": "s",
    "geometry.geodesic_s": "s",
    "geometry.point_classes_s": "s",
    "geometry.classify_s": "s",
    "ratio.pairwise_dh_s": "s",
    "ratio.pairwise_dz_s": "s",
    "ratio.refine_s": "s",
    "discrete.gamma_sample_s": "s",
    "discrete.threshold_distances_s": "s",
    "discrete.build_game_s": "s",
    "discrete.threat_matrix_s": "s",
    "discrete.solve_s": "s",
    "discrete.state_sweeps_per_s": "1/s",
    "scheme.probe_s": "s",
    "sim.engine_s": "s",
    "sim.steps_per_s": "1/s",
    "exact.strategy_s": "s",
}
RUN_UNITS = {"fail_ratio": "ratio", "cli.import_s": "s", "trace.overhead_s": "s"}


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict:
    """Per-layer metrics of one traced repetition, times multiplied by ``scale``."""
    summary = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def secs(name):
        return summary.get(name, {}).get("inclusive_s", 0.0) * scale

    solve_s, engine_s, probes = secs("discrete.solve"), secs("sim.engine"), calls("scheme.probe")
    return {
        "geometry.segment_tests": calls("geometry.segment_test"),
        "geometry.segment_test_s": secs("geometry.segment_test"),
        "geometry.geodesic_queries": calls("geometry.geodesic"),
        "geometry.geodesic_s": secs("geometry.geodesic"),
        "geometry.point_classes_pts": counts["geometry.point_classes_pts"],
        "geometry.point_classes_s": secs("geometry.point_classes"),
        "geometry.classify_calls": calls("geometry.classify"),
        "geometry.classify_s": secs("geometry.classify"),
        "ratio.samples": counts["ratio.samples"],
        "ratio.pairs": counts["ratio.pairs"],
        "ratio.pairwise_dh_s": secs("ratio.pairwise_dh"),
        "ratio.pairwise_dz_s": secs("ratio.pairwise_dz"),
        "ratio.refine_s": secs("ratio.refine"),
        "discrete.gamma_sample_s": secs("discrete.gamma_sample"),
        "discrete.n_escaper": counts["discrete.n_escaper"],
        "discrete.n_pursuer": counts["discrete.n_pursuer"],
        "discrete.threshold_distances_s": secs("discrete.threshold_distances"),
        "discrete.build_game_s": secs("discrete.build_game"),
        "discrete.e_h_nnz": counts["discrete.e_h_nnz"],
        "discrete.e_z_nnz": counts["discrete.e_z_nnz"],
        "discrete.threat_matrix_s": secs("discrete.threat_matrix"),
        "discrete.solve_s": solve_s,
        "discrete.solve_iterations": counts["discrete.solve_iterations"],
        "discrete.win_states": counts["discrete.win_states"],
        # base: n_h * n_z * iterations summed over solves, per second of solve
        "discrete.state_sweeps_per_s": counts["discrete.state_sweeps"] / solve_s if solve_s else 0.0,
        "scheme.probes": probes,
        "scheme.probe_s": secs("scheme.probe"),
        # base: probes; a hit is a probe that reused a cached net
        "scheme.sample_cache_hit_ratio": (
            (probes - calls("discrete.gamma_sample")) / probes if probes else 0.0),
        "sim.steps": counts["sim.steps"],
        "sim.steps_per_s": counts["sim.steps"] / engine_s if engine_s else 0.0,
        "sim.engine_s": engine_s,
        "exact.strategy_s": secs("exact.strategy"),
    }


def cli_import_s() -> float:
    """Cold ``import escape_ratio.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import escape_ratio.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run repetitions for ``seconds`` and return (run, metrics, tracer)."""
    workload.warmup()
    run = Run(workload, seed)
    tracer = Tracer() if trace else None
    t_end = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < t_end or n < MIN_REPS:
        run.rep()
        if tracer is not None:
            run.rep(tracer)
        n += 1

    metrics = {}
    if not trace:
        metrics["wall_s"] = (_median(run.timings("wall_s", False)), "s")
        metrics["setup_s"] = (_median(run.timings("setup_s", False)), "s")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
        return run, metrics, None

    layers = [r["layers"] for r in run.reps if "layers" in r]
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (layers[-1][name] if layers else 0, unit)
    for name, unit in TIME_UNITS.items():
        metrics[name] = (_median([lay[name] for lay in layers]), unit)
    metrics["fail_ratio"] = (run.failed / run.attempted, "ratio")
    scale = _median([r["scale"] for r in run.reps])
    metrics["cli.import_s"] = (_median([cli_import_s() for _ in range(CLI_IMPORTS)]) * scale, "s")
    metrics["trace.overhead_s"] = (
        _median(run.timings("wall_s", True)) - _median(run.timings("wall_s", False)), "s")
    return run, metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    mach = machine()
    print(f"machine: {json.dumps(mach)}")
    workload = WORKLOADS[args.workload]
    run, metrics, tracer = measure(workload, args.seed, args.seconds, bool(args.trace))

    correct = run.failed == 0
    for line in run.problems:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": mach,
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "reps": [{k: v for k, v in r.items() if k != "layers"} for r in run.reps],
    }
    if tracer is not None:
        record["counts_repeat"] = run.counts_repeat()
        record["spans_last_rep"] = tracer.summary()
        tracer.write(str(OUT / f"{stem}.spans.json.gz"))
    tmp = OUT / f"{stem}.json.tmp"
    tmp.write_text(json.dumps(record, indent=1))
    os.replace(tmp, OUT / f"{stem}.json")

    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
