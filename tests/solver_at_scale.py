"""``solve`` against the per-row reference solver at scale, to the bit.

Criterion 6's games: the unit square, moat model, delta = 0.2 and
gamma = 0.02 (5,241 escaper by 200 pursuer samples, about 2.8 million
escaper moves), at r = 2 (an escaper win in 8 sweeps) and r = 4 (a pursuer
win in 2 sweeps, whose second sweep evaluates 299,180 of the 1,676,247
moves into changed rows).  The tier-1 tests compare the two solvers on
small games; the reference counts every reply densely and takes about 9 s
at r = 2 and about 3 s at r = 4, so this is a script that pytest does not
collect:

    PYTHONPATH=src python -W error::RuntimeWarning tests/solver_at_scale.py

For each game it checks ``win_mask``, ``rank`` and ``iterations`` against
the reference, that ``escaper_wins`` (the bisection's decider, which stops
at the first full row) gives the reference's winner, and that the
tracemalloc peak of ``solve`` stays under
80 MB: a table keyed over every pair of escaper rows (5,241 squared int32
entries, 110 MB) would exceed it.  ``solve`` keeps the ranks as packed bit
planes, so the peak covers no dense rank matrix: about 34.4 MB at r = 2 and
30.2 MB at r = 4 on a 2-CPU x86-64 host (38.7 and 34.7 MB when every sweep
wrote an int32 rank).  Prints one line per game, with the time of an
untraced ``solve`` (tracemalloc charges every allocation, so the traced
time follows the allocation count more than the solver) and of the first
``rank`` read, which decodes the planes, and of the decider with the sweep
it stopped at (the r = 2 win settles at sweep 3 of 8; the r = 4 pursuer win
runs to the fixpoint), and exits 1 on any difference.
"""

import logging
import sys
import time
import tracemalloc

import numpy as np
from conftest import SQUARE, reference_solve

from escape_ratio.discrete import build_game, escaper_moves, escaper_wins, gamma_sample, solve
from escape_ratio.geometry import MetricContext, PursuerModel, validate_polygon

PEAK_LIMIT_MB = 80.0


class _StopLine(logging.Handler):
    """Keeps the decider's last DEBUG line, ``escaper_wins: ... sweep k``."""

    line = ""

    def emit(self, record):
        message = record.getMessage()
        if message.startswith("escaper_wins: "):
            self.line = message


def decide(game):
    """The decider's winner, its time and the sweep it stopped at."""
    logger = logging.getLogger("escape_ratio.discrete")
    handler, level = _StopLine(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        t0 = time.perf_counter()
        wins = escaper_wins(game)
        elapsed = time.perf_counter() - t0
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return wins, elapsed, int(handler.line.rsplit(" ", 1)[1])


def check(game) -> bool:
    """Solve ``game`` once untraced and once under tracemalloc, decide it,
    compare the traced result and the decider's winner with the reference
    and print one line."""
    wins, decide_s, decide_sweeps = decide(game)
    t0 = time.perf_counter()
    res = solve(game)
    untraced = time.perf_counter() - t0
    t0 = time.perf_counter()
    res.rank
    rank_read = time.perf_counter() - t0
    tracemalloc.start()
    t0 = time.perf_counter()
    got = solve(game)
    t1 = time.perf_counter()
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    ref = reference_solve(game)
    t2 = time.perf_counter()
    same = (np.array_equal(got.win_mask, ref.win_mask)
            and np.array_equal(got.rank, ref.rank) and got.rank.dtype == ref.rank.dtype
            and got.iterations == ref.iterations)
    decided = wins == ref.escaper_wins
    small = peak_mb < PEAK_LIMIT_MB
    print(f"criterion 6, r = {game.r:g} ({game.n_h} x {game.n_z}, {got.iterations} sweeps): "
          f"{'same' if same else 'DIFFERENT'}, decider "
          f"{'same winner' if decided else 'DIFFERENT WINNER'} "
          f"(solve {untraced:.2f} s, first rank read {rank_read * 1e3:.1f} ms, "
          f"decider {decide_s:.2f} s to sweep {decide_sweeps}, "
          f"{t1 - t0:.2f} s under tracemalloc, peak {peak_mb:.1f} MB"
          f"{'' if small else f' over {PEAK_LIMIT_MB:g} MB'}; reference {t2 - t1:.1f} s)",
          flush=True)
    return same and decided and small


def main() -> int:
    ctx = MetricContext(validate_polygon(SQUARE), PursuerModel.MOAT)
    samples = gamma_sample(ctx, 0.02)
    e_h = escaper_moves(ctx, samples, 0.2)
    ok = True
    for r in (2.0, 4.0):
        game = build_game(ctx, r=r, delta=0.2, gamma=0.02, state_cap=1e13,
                          samples=samples, e_h=e_h)
        ok &= check(game)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
