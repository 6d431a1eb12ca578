"""``validate_polygon`` and ``min_feature_size`` against their scalar oracles at n = 200,
``MetricContext.contains`` against the scalar membership oracles and the move
relations' piece and admission rules against the kernel at game-net sizes, and
``pair_geodesics`` and ``verify_net`` against their per-query references on the
star's nets, and ``sim.playthrough`` against the scalar engine on polygons.

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

On the grid of the game nets below (about 1,500 points),
``MetricContext.contains`` must equal ``reference_contains``
(``reference_classify`` plus a scalar hull test, one point at a time) in
both models.  The move relations ``e_h`` (d_h <= delta on the escaper net)
and ``e_z`` (exterior d_z <= 3 delta on the pursuer net) from
``_threshold_distances`` must equal the kernel-only oracle's, as sets of
pairs (i, j) with i < j, on the 48-vertex star and on game nets of the
comb, notch, spiral, slit and collinear L (about 1,500 escaper samples
each).  The oracle's candidates are ``cKDTree.query_pairs``'; it keeps a
candidate pair when the exact
``pair_geodesics(poly, pts, i, j, (side,))[0]``, which tests every pair's
segment, puts it within limit + tol, so neither the piece rule nor the
through-vertex admission decides a pair.  On a seeded sample of 2,000 pairs
of each 48-star net, ``pair_geodesics`` must equal the scalar
``_reference_geodesic`` (one kernel call per segment and fan, a heap
Dijkstra) to the bit.  On the star's ``gamma_sample`` nets at gamma = f/4,
``verify_net`` with 500 probes must equal ``reference_verify_net`` (one
scalar draw and one checked query at a time) to the bit in both models.

On the 48-vertex star in both models and the L-shape in the exterior
model, ``sim.playthrough`` must equal ``reference_playthrough`` (each step
checked with the scalar ``contains`` and distances before the next) bit for
bit: a straight run to a vertex at dt 1e-3 against a pursuer camping on
the boundary, which the escaper then touches every step without escaping.

On every vertex pair of the 100- and 200-vertex stars, ``segment_visibility``
must equal the segment-major sorting oracle ``_sorting_segment_visibility``,
and ``point_classes`` and ``_boundary_distance2`` on the pairs' midpoints, the
vertices and points on and 0.6 tol off the boundary must equal
``_sorting_point_classes`` and ``_sorting_boundary_distance2``, bit for bit.
The oracles run a block of 200 segments or points at a time, to bound their
(segments x edges) tables.

Prints one line per polygon and check with both timings and exits 1 on any
difference.
"""

import sys
import time

import numpy as np
from conftest import (
    COMB,
    L_SHAPE,
    SPIRAL,
    _sorting_boundary_distance2,
    _sorting_point_classes,
    _sorting_segment_visibility,
    reference_contains,
    reference_min_feature_size,
    reference_playthrough,
    reference_validate,
    reference_verify_net,
)
from scipy.spatial import cKDTree
from test_geometry import (
    L_COLLINEAR,
    NOTCH,
    SLIT,
    _near_boundary,
    _radial_polygon,
    _star,
    _reference_geodesic,
    _validation_outcome,
)
from test_sim import _Camp, _result

from escape_ratio.discrete import _grid_points, _threshold_distances, gamma_sample, verify_net
from escape_ratio.geometry import (
    TOL_SCALE,
    MetricContext,
    Polygon,
    PursuerModel,
    _boundary_distance2,
    convex_hull,
    pair_geodesics,
    point_classes,
    point_in_convex_hull,
    segment_visibility,
    validate_polygon,
)
from escape_ratio.sim import PolygonDomain, StraightRunEscaper, playthrough


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


def game_grid(poly, samples):
    """The grid of ``game_nets`` and its gamma."""
    lo, hi = poly.bbox
    gamma = float(np.sqrt(2 * np.prod(hi - lo) / samples))
    return _grid_points(lo, hi, gamma / np.sqrt(2)), gamma


def game_nets(poly, samples):
    """The escaper and exterior pursuer nets ``discrete.gamma_sample`` takes
    at the gamma that gives about ``samples`` escaper grid points, without
    its gamma <= f/4 bound (the slit's f/4 would need 300,000 samples), and
    that gamma."""
    grid, gamma = game_grid(poly, samples)
    ts = np.arange(0.0, poly.perimeter, gamma)
    boundary = poly.boundary_point(ts)
    classes = point_classes(poly, grid)
    inside = point_in_convex_hull(convex_hull(poly.vertices), grid, poly.tol)
    return (np.vstack([boundary, grid[classes >= 0]]),
            np.vstack([boundary, grid[(classes <= 0) & inside]]), gamma)


RELATION_POLYGONS = [("star48", _star(24)), ("comb", COMB), ("notch", NOTCH),
                     ("spiral", SPIRAL), ("slit", SLIT), ("l_collinear", L_COLLINEAR)]


def membership_failures() -> int:
    """``MetricContext.contains`` against ``reference_contains`` (the scalar
    classify and hull oracles) on the grid of each relation polygon's game
    nets, in both models."""
    failed = 0
    for name, points in RELATION_POLYGONS:
        poly = validate_polygon(points)
        grid, _ = game_grid(poly, 1500)
        for model in PursuerModel:
            ctx = MetricContext(poly, model)
            got, t_got = timed(ctx.contains, grid)
            ref, t_ref = timed(reference_contains, ctx, grid)
            same = np.array_equal(got, ref)
            failed += not same
            print(f"{name} contains {model.value}: {len(grid)} points, "
                  f"{'same' if same else 'DIFFERENT'} ({t_ref:.3f} s -> {t_got:.4f} s)", flush=True)
    return failed


def relation_failures() -> int:
    failed = 0
    for name, points in RELATION_POLYGONS:
        poly = validate_polygon(points)
        escaper, pursuer, gamma = game_nets(poly, 1500)
        delta = 4 * gamma
        for what, pts, limit, side in (("e_h", escaper, delta, 0),
                                      ("e_z", pursuer, 3 * delta, 1)):
            got, t_got = timed(_threshold_distances, poly, pts, limit, side)
            ref, t_ref = timed(kernel_only_relation, poly, pts, limit, side)
            # the pair finder and cKDTree list the pairs in different orders
            n = len(pts)
            same = np.array_equal(np.sort(got[0] * n + got[1]), np.sort(ref[0] * n + ref[1]))
            failed += not same
            print(f"{name} {what}: {len(pts)} points, {len(got[0])} pairs, "
                  f"{'same' if same else 'DIFFERENT'} ({t_ref:.3f} s -> {t_got:.3f} s)", flush=True)
    return failed


def kernel_only_relation(poly, pts, limit, side):
    """The pairs of ``_threshold_distances``' candidates (none of these
    polygons is convex) whose exact distance is at most limit + tol:
    ``pair_geodesics`` tests every pair's segment, so neither the piece rule
    nor the through-vertex admission decides a pair."""
    cap = limit * (1 + 1e-12) + poly.tol
    i, j = cKDTree(pts).query_pairs(r=cap, output_type="ndarray").T
    keep = pair_geodesics(poly, pts, i, j, (side,))[0] <= limit + poly.tol
    return i[keep], j[keep]


def geodesic_failures(pairs=2000) -> int:
    """``pair_geodesics`` against ``_reference_geodesic`` on ``pairs``
    seeded pairs of each 48-star net, d_h on the escaper net and exterior
    d_z on the pursuer net."""
    poly = validate_polygon(_star(24))
    ctx = MetricContext(poly, PursuerModel.EXTERIOR)
    escaper, pursuer, _ = game_nets(poly, 1500)
    rng = np.random.default_rng(48)
    failed = 0
    for what, pts, side in (("d_h", escaper, 0), ("d_z", pursuer, 1)):
        i, j = rng.integers(0, len(pts), (2, pairs))
        got, t_got = timed(pair_geodesics, poly, pts, i, j, (side,))
        ref, t_ref = timed(lambda: np.array([_reference_geodesic(ctx, pts[a], pts[b], side == 0)
                                             for a, b in zip(i, j)]))
        same = got[0].tobytes() == ref.tobytes()
        failed += not same
        print(f"star48 {what}: {pairs} pairs of {len(pts)} points, "
              f"{'same' if same else 'DIFFERENT'} ({t_ref:.3f} s -> {t_got:.3f} s)", flush=True)
    return failed


def net_failures(probes=500) -> int:
    """``verify_net`` against ``reference_verify_net`` on the 48-star's
    gamma = f/4 nets in both models."""
    poly = validate_polygon(_star(24))
    failed = 0
    for model in PursuerModel:
        ctx = MetricContext(poly, model)
        samples = gamma_sample(ctx, poly.min_feature_size / 4)
        got, t_got = timed(verify_net, ctx, samples, probes, 0)
        ref, t_ref = timed(reference_verify_net, ctx, samples, probes, 0)
        same = got == ref
        failed += not same
        print(f"star48 verify_net {model.value}: {probes} probes, gap {got!r}, "
              f"{'same' if same else 'DIFFERENT'} ({t_ref:.3f} s -> {t_got:.3f} s)", flush=True)
    return failed


def blocked(fn, *arrays, block=200):
    """``fn`` over ``block`` rows of ``arrays`` at a time: each of the
    tuples it returns, concatenated."""
    outs = [fn(*(x[lo : lo + block] for x in arrays)) for lo in range(0, len(arrays[0]), block)]
    return [np.concatenate(col) for col in zip(*outs)]


def sorting_failures() -> int:
    """The kernels against the sorting oracles on every vertex pair of the
    100- and 200-vertex stars (the vertex visibility graphs' segments)."""
    failed = 0
    for name, points in (("star100", _star(50)), ("star200", _star(100))):
        poly = validate_polygon(points)
        iu, ju = np.triu_indices(poly.n, k=1)
        a, b = poly.vertices[iu], poly.vertices[ju]
        got, t_got = timed(segment_visibility, poly, a, b)
        ref, t_ref = timed(blocked, lambda a, b: _sorting_segment_visibility(poly, a, b)[:2], a, b)
        same = all(np.array_equal(g, r) for g, r in zip(got, ref))
        failed += not same
        print(f"{name} segment_visibility: {len(a)} vertex pairs, {'same' if same else 'DIFFERENT'} "
              f"({t_ref:.3f} s -> {t_got:.3f} s)", flush=True)
        pts = np.vstack([0.5 * (a + b), _near_boundary(poly, poly.cumulative_lengths[:-1]),
                         _near_boundary(poly, np.linspace(0, poly.perimeter, 1000))])
        got, t_got = timed(lambda: (point_classes(poly, pts), _boundary_distance2(poly, pts)))
        ref, t_ref = timed(blocked, lambda p: (_sorting_point_classes(poly, p),
                                               _sorting_boundary_distance2(poly, p)), pts)
        same = np.array_equal(got[0], ref[0]) and got[1].tobytes() == ref[1].tobytes()
        failed += not same
        print(f"{name} point_classes: {len(pts)} points, {'same' if same else 'DIFFERENT'} "
              f"({t_ref:.3f} s -> {t_got:.3f} s)", flush=True)
    return failed


PLAYTHROUGHS = [
    # polygon, model, escaper start, the vertex it runs to, the pursuer's camp
    ("star48", _star(24), PursuerModel.MOAT, (0.0, 0.0), 0, 2),
    ("star48", _star(24), PursuerModel.EXTERIOR, (0.0, 0.0), 0, 2),
    ("L", L_SHAPE, PursuerModel.EXTERIOR, (0.5, 0.5), 3, 4),
]


def playthrough_failures(dt=1e-3) -> int:
    """``playthrough`` against ``reference_playthrough``: the escaper runs
    at unit speed to a vertex and holds there for 0.2 more, touching the
    boundary every step; the pursuer camps on another vertex, and epsilon
    is above every separation, so the run ends at t_max."""
    failed = 0
    for name, points, model, start, target, camp in PLAYTHROUGHS:
        poly = validate_polygon(points)
        domain = PolygonDomain(MetricContext(poly, model))
        v = poly.vertices
        t_max = float(np.hypot(*(v[target] - start))) + 0.2

        def run(engine):
            return engine(StraightRunEscaper([start, v[target]]), _Camp(v[camp]), dt=dt,
                          t_max=t_max, epsilon=10.0, domain=domain)

        got, t_got = timed(_result, lambda: run(playthrough))
        ref, t_ref = timed(_result, lambda: run(reference_playthrough))
        same = got == ref
        failed += not same
        print(f"{name} playthrough {model.value}: {len(got[4])} touches in "
              f"{round(t_max / dt)} steps, {'same' if same else 'DIFFERENT'} "
              f"({t_ref:.3f} s -> {t_got:.3f} s)", flush=True)
    return failed


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
    failed += sorting_failures()
    failed += membership_failures()
    failed += relation_failures()
    failed += geodesic_failures()
    failed += net_failures()
    failed += playthrough_failures()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
