"""``max_ratio`` against the all-pairs oracle at scale, to the bit.

The notch at spacing 0.0099 (just under its admissible f/10: 2,247 samples,
2.5 million pairs) and the spiral at 0.05, in both pursuer models.  The
tier-1 test ``TestBranchAndBound::test_matches_all_pairs`` runs the same
comparison at coarse spacings.

Then ``_refine_pair`` against the pair-at-a-time ``_reference_refine`` of
``tests/test_ratio.py`` at f/10, in both models: from ``max_ratio``'s own
start, from a pair with t_p == t_q and from one whose windows cross
parameter 0 at both ends.  The geodesic form predicts the golden searches
on the L, comb, spiral, square and triangle, and on the 48-star and the
regular 100-gon, whose batches hold the floor's few pairs, a size tier-1's
polygons never reach; the comb at f/13 in the exterior model adds a start
whose searches meet kinks of d_z.

The script takes about 40 s on 2 CPUs, so pytest does not collect it:

    PYTHONPATH=src python -W error::RuntimeWarning tests/branch_and_bound_at_scale.py

Prints one line per case, with the refinement's batches and pairs evaluated
from each start and its time over the three, and exits 1 if any result
differs from its oracle.
"""

import sys
import time

from conftest import COMB, L_SHAPE, SPIRAL, SQUARE, TRIANGLE, all_pairs_max_ratio
from test_geometry import NOTCH, _star
from test_ratio import GON_100, _reference_refine

from escape_ratio import ratio
from escape_ratio.geometry import MetricContext, PursuerModel, validate_polygon
from escape_ratio.ratio import max_ratio


def bits(bound):
    return [float(x).hex() for x in (bound.lower_certified, bound.upper_estimate,
                                     *bound.witness_p, *bound.witness_q)]


def main() -> int:
    failed = 0
    for name, points, spacing in (("notch", NOTCH, 0.0099), ("spiral", SPIRAL, 0.05)):
        for model in PursuerModel:
            ctx = MetricContext(validate_polygon(points), model)
            t0 = time.perf_counter()
            got = max_ratio(ctx, spacing)
            t1 = time.perf_counter()
            ref = all_pairs_max_ratio(ctx, spacing)
            t2 = time.perf_counter()
            same = bits(got) == bits(ref)
            failed += not same
            print(f"{name} {model.value}: {'same' if same else 'DIFFERENT'} "
                  f"(branch and bound {t1 - t0:.2f} s, all pairs {t2 - t1:.2f} s)", flush=True)
    for name, points in (("L", L_SHAPE), ("comb", COMB), ("spiral", SPIRAL), ("square", SQUARE),
                         ("triangle", TRIANGLE), ("48-star", _star(24)), ("100-gon", GON_100)):
        for model in PursuerModel:
            failed += not check_refinement(name, MetricContext(validate_polygon(points), model))
    failed += not check_refinement("comb", MetricContext(validate_polygon(COMB),
                                                         PursuerModel.EXTERIOR), 13)
    return 1 if failed else 0


def check_refinement(name, ctx, div=10) -> bool:
    """``_refine_pair`` against ``_reference_refine`` from three starts at
    f/``div``; prints one line."""
    spacing = ctx.polygon.min_feature_size / div
    refine, calls = ratio._refine_pair, []
    ratio._refine_pair = lambda *args: calls.append(args) or refine(*args)
    try:
        max_ratio(ctx, spacing)
    finally:
        ratio._refine_pair = refine
    ((_, t_p, t_q, _, start),) = calls
    F = ctx.polygon.perimeter
    u, w = 0.3 * spacing, 0.6 * spacing
    same, work, elapsed = True, [], 0.0
    for args in ((t_p, t_q, spacing, start), (0.4 * F, 0.4 * F, spacing), (u, F - w, spacing)):
        t0 = time.perf_counter()
        got = refine(ctx, *args)
        elapsed += time.perf_counter() - t0
        ref = _reference_refine(ctx, *args[:3])
        same &= [float(x).hex() for x in got[:4]] == [float(x).hex() for x in ref]
        work.append(f"{got[6]} batches, {got[5]} pairs")
    print(f"refinement {name} {ctx.model.value} f/{div}: {'same' if same else 'DIFFERENT'} "
          f"({'; '.join(work)}; {1e3 * elapsed:.1f} ms)", flush=True)
    return same


if __name__ == "__main__":
    sys.exit(main())
