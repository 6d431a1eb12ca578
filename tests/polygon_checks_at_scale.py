"""``validate_polygon`` and ``min_feature_size`` against their scalar oracles at n = 200.

Two 200-vertex stars (the second turned a quarter), four random radially
sorted 200-vertex polygons and a 50-tooth comb whose middle gap pinches to
tol * (1 -+ 1e-3) at its mouth.  Validation must give the oracle's
outcome (the same exception and message, or the same vertices and tol), and
f must lie within 1e-15 of the bounding-box diagonal of the oracle's value,
both on the oracle's polygon and as validation leaves it.
The tier-1 class ``TestPolygonChecksAgreement`` runs the same comparisons on
small polygons; the oracle takes about 2 s per polygon here, so this is a
script that pytest does not collect:

    PYTHONPATH=src python -W error::RuntimeWarning tests/polygon_checks_at_scale.py

Prints one line per polygon with both timings and exits 1 on any difference.
"""

import sys
import time

import numpy as np
from conftest import reference_min_feature_size, reference_validate
from test_geometry import _radial_polygon, _star, _validation_outcome

from escape_ratio.geometry import TOL_SCALE, Polygon, validate_polygon


def pinched_comb(teeth, factor):
    """A comb of unit teeth and gaps (4 * ``teeth`` vertices) whose middle
    gap narrows to ``factor`` * tol at its mouth: the left top corner of the
    tooth right of it lies that far from the wall of the tooth on its left."""
    width = 2 * teeth - 1
    tol = TOL_SCALE * float(np.hypot(width, 4))
    top = []
    for j in reversed(range(teeth)):
        left = 2 * j - 1 + factor * tol if j == teeth // 2 else 2 * j
        top += [(2 * j + 1, 4), (left, 4), (2 * j, 1), (2 * j - 1, 1)]
    return np.array([(0, 0), (width, 0), *top[:-2]], dtype=float)


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main() -> int:
    rng = np.random.default_rng(2)
    star = _star(100)
    cases = [("star", star), ("star turned", star[:, ::-1] * [-1, 1])]
    cases += [(f"radial {k}", _radial_polygon(rng, 200)) for k in range(4)]
    cases += [(f"comb pinched to tol * {f:g}", pinched_comb(50, f)) for f in (1 - 1e-3, 1 + 1e-3)]
    failed = 0
    for name, points in cases:
        got, t_got = timed(_validation_outcome, validate_polygon, points)
        ref, t_ref = timed(_validation_outcome, reference_validate, points)
        same = got == ref
        line = f"{name}: validate {'same' if same else 'DIFFERENT'} ({t_ref:.3f} s -> {t_got:.4f} s)"
        if isinstance(ref[0], bytes):
            poly = Polygon(np.frombuffer(ref[0]).reshape(-1, 2).copy(), ref[1])
            f, t_f = timed(lambda: poly.min_feature_size)
            f_ref, t_f_ref = timed(reference_min_feature_size, poly)
            close = abs(f - f_ref) <= 1e-15 * float(np.hypot(*np.subtract(*poly.bbox)))
            # validation's own polygon too (a CCW input keeps the f it cached)
            same &= close and validate_polygon(points).min_feature_size == f
            line += (f"; f {'bit-equal' if f == f_ref else 'close' if close else 'DIFFERENT'}"
                     f" ({t_f_ref:.3f} s -> {t_f:.4f} s)")
        else:
            line += f"; {ref[0].__name__}: {ref[1]}"
        failed += not same
        print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
