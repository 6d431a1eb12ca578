"""``max_ratio`` against the all-pairs oracle at scale, to the bit.

The notch at spacing 0.0099 (just under its admissible f/10: 2,247 samples,
2.5 million pairs) and the spiral at 0.05, in both pursuer models.  The
tier-1 test ``TestBranchAndBound::test_matches_all_pairs`` runs the same
comparison at coarse spacings; this one takes about 15 s on 2 CPUs, so it is
a script that pytest does not collect:

    PYTHONPATH=src python -W error::RuntimeWarning tests/branch_and_bound_at_scale.py

Prints one line per case and exits 1 if any result differs from the oracle.
"""

import sys
import time

from conftest import SPIRAL, all_pairs_max_ratio
from test_geometry import NOTCH

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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
