import heapq
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from escape_ratio import discrete, geometry
from escape_ratio.errors import (
    DegenerateEdge,
    InvalidCoordinates,
    OutsideDomain,
    SelfIntersecting,
    TooFewVertices,
    ZeroArea,
)
from escape_ratio.geometry import (
    MetricContext,
    PursuerModel,
    convex_hull,
    dumps_polygon,
    loads_polygon,
    pair_geodesics,
    point_classes,
    point_in_convex_hull,
    segment_avoids_interior,
    segment_in_polygon,
    segment_visibility,
    triangulate,
    validate_polygon,
)

from conftest import (
    COMB,
    L_SHAPE,
    RECT_1x10,
    SPIRAL,
    SQUARE,
    TRIANGLE,
    _point_segment_distance,
    _sorting_boundary_distance2,
    _sorting_point_classes,
    _sorting_segment_visibility,
    grid_polygons,
    random_convex_polygon,
    random_point_inside,
    reference_classify,
    reference_contains,
    reference_distance_to_boundary,
    reference_min_feature_size,
    reference_validate,
)

# a 0.1-wide notch whose mouth vertices (3.95, 0) and (4.05, 0) lie on y = 0
NOTCH = [(0, -1), (8, -1), (8, 1), (4.5, 1), (4.05, 0), (4, -0.5), (3.95, 0), (3.5, 1), (0, 1)]
# a square with a 0.1-wide slit cut down from its top edge to y = 3
SLIT = [(0, 0), (10, 0), (10, 10), (5.05, 10), (5.05, 3), (4.95, 3), (4.95, 10), (0, 10)]
# the L-shape with a vertex in the middle of each of its three long edges
L_COLLINEAR = [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
# a 2 x 1 rectangle whose bottom edge bends out by 1e-12 at its first vertex,
# a thin ear that ear clipping cuts first, and whose top edge bends in by
# 1e-7, a thin pocket; both triangles are slivers
THIN = [(1, -1e-12), (2, 0), (2, 1), (1, 1 - 1e-7), (0, 1), (0, 0)]


def _relabellings(points):
    """Every cyclic shift of ``points``, each turned by 0 to 3 quarter-turns:
    the relabellings the benchmark workloads pick by seed."""
    out = []
    for shift in range(len(points)):
        pts = [(float(x), float(y)) for x, y in points[shift:] + points[:shift]]
        for _ in range(4):
            out.append(pts)
            pts = [(-y, x) for x, y in pts]
    return out


def tri_area(t):
    u, v = t[1] - t[0], t[2] - t[0]
    return 0.5 * abs(u[0] * v[1] - u[1] * v[0])


class TestValidate:
    def test_unit_square(self, square):
        assert square.perimeter == pytest.approx(4.0)
        assert square.min_feature_size == pytest.approx(1.0)
        assert square.min_interior_angle == pytest.approx(math.pi / 2)
        assert square.area == pytest.approx(1.0)

    def test_clockwise_input_reversed(self):
        poly = validate_polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert poly.area == pytest.approx(1.0)
        assert poly.area > 0

    @pytest.mark.parametrize("points", [SQUARE, SQUARE[::-1]], ids=["ccw", "cw"])
    def test_input_array_left_writeable(self, points):
        arr = np.array(points, dtype=float)
        validate_polygon(arr)
        assert arr.flags.writeable

    def test_bowtie_rejected(self):
        with pytest.raises(SelfIntersecting):
            validate_polygon([(0, 0), (2, 0), (0, 2), (2, 2)])

    def test_too_few(self):
        with pytest.raises(TooFewVertices):
            validate_polygon([(0, 0), (1, 1)])

    def test_degenerate_edge(self):
        with pytest.raises(DegenerateEdge):
            validate_polygon([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_zero_area(self):
        with pytest.raises((ZeroArea, SelfIntersecting)):
            validate_polygon([(0, 0), (1, 0), (2, 0)])

    def test_vertex_on_nonadjacent_edge(self):
        with pytest.raises(SelfIntersecting):
            validate_polygon([(0, 0), (2, 0), (2, 2), (1, 0), (0, 2)])

    @pytest.mark.parametrize("points", [
        [[0, 0], [1, 0], [1, "1"], [0, 1]],
        [[False, False], [2, 0], [2, 2], [False, True]],
        [[0, 0], [1, 0], [1, 1.0], [0, True]],
        np.array(SQUARE, dtype=bool),
        np.array(SQUARE).astype(str),
    ], ids=["numeric-string", "booleans", "one-boolean", "bool-array", "str-array"])
    def test_booleans_and_strings_rejected(self, points):
        # a float cast would read these as numbers
        with pytest.raises(InvalidCoordinates, match="booleans or strings"):
            validate_polygon(points)

    @pytest.mark.parametrize("points", [
        np.array(SQUARE, dtype=np.int32), np.array(SQUARE, dtype=np.float32),
        [np.array([0.0, 0.0]), (1, 0), [np.int64(1), 1], (0.0, np.float32(1))],
    ], ids=["int32-array", "float32-array", "mixed-rows"])
    def test_numpy_numbers_accepted(self, points):
        assert validate_polygon(points).vertices.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]


class TestTriangulate:
    def test_square_two_triangles(self, square):
        tris = triangulate(square)
        assert len(tris) == 2
        assert sum(tri_area(t) for t in tris) == pytest.approx(1.0)

    def test_convex_pentagon(self):
        poly = validate_polygon(
            [(math.cos(a), math.sin(a)) for a in np.linspace(0, 2 * math.pi, 6)[:-1]]
        )
        assert len(triangulate(poly)) == 3

    def test_l_shape(self, l_shape):
        tris = triangulate(l_shape)
        assert len(tris) == 4
        assert sum(tri_area(t) for t in tris) == pytest.approx(3.0)

    def test_context_triangulates_on_first_use(self, l_shape):
        ctx = MetricContext(l_shape)
        assert "triangulation" not in vars(ctx)
        assert len(ctx.triangulation) == 4
        assert ctx.triangulation is vars(ctx)["triangulation"]

    def test_area_matches_shoelace_random(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            poly = random_convex_polygon(rng, int(rng.integers(5, 12)))
            tris = triangulate(poly)
            assert len(tris) == poly.n - 2
            total = sum(tri_area(t) for t in tris)
            assert abs(total - poly.area) <= poly.tol * poly.perimeter


class TestFeatureSize:
    def test_square(self, square):
        assert square.min_feature_size == pytest.approx(1.0)

    def test_rect(self):
        poly = validate_polygon(RECT_1x10)
        assert poly.min_feature_size == pytest.approx(1.0)

    def test_l_shape(self, l_shape):
        assert l_shape.min_feature_size == pytest.approx(1.0)
        assert l_shape.min_interior_angle == pytest.approx(math.pi / 2)
        # the reflex vertex carries angle 3*pi/2 but never attains the min
        assert l_shape.interior_angles().max() == pytest.approx(1.5 * math.pi)

    def test_triangle_fallback_uses_altitude(self):
        poly = validate_polygon([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        assert poly.min_feature_size == pytest.approx(math.sqrt(3) / 2)

    def test_invariants_are_cached(self):
        poly = validate_polygon(COMB)
        assert poly.min_feature_size == pytest.approx(2.0)
        assert poly.min_interior_angle == pytest.approx(math.pi / 2)
        assert {"min_feature_size", "min_interior_angle"} <= vars(poly).keys()


def _radial_polygon(rng, n):
    """``n`` vertices at random radii in [0.2, 1.2), in order of random angle
    about the origin: simple unless two consecutive angles lie pi or more
    apart or a vertex comes within tol of an edge."""
    ang = np.sort(rng.random(n)) * 2 * math.pi
    rad = 0.2 + rng.random(n)
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


def _near_touch(rng, n, factor):
    """A radial polygon with one vertex moved to ``factor`` * tol off a
    nonadjacent edge, on the edge's left."""
    pts = _radial_polygon(rng, n)
    k = int(rng.integers(n))
    e = (k + 2 + int(rng.integers(n - 3))) % n
    t = rng.uniform(0.1, 0.9)
    for _ in range(3):  # moving the vertex may widen the bounding box, so tol
        a, d = pts[e], pts[(e + 1) % n] - pts[e]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        tol = geometry.TOL_SCALE * float(np.hypot(*(hi - lo)))
        pts[k] = a + t * d + np.array([-d[1], d[0]]) / np.hypot(*d) * tol * factor
    return pts


def _validation_outcome(validate, points):
    """The exception class and message, or the vertices' bytes and tol."""
    try:
        got = validate(points)
    except (TooFewVertices, DegenerateEdge, SelfIntersecting, ZeroArea) as exc:
        return type(exc), str(exc)
    vertices, tol = got if isinstance(got, tuple) else (got.vertices, got.tol)
    return np.asarray(vertices).tobytes(), tol


class TestPolygonChecksAgreement:
    """``validate_polygon`` and ``min_feature_size`` read one vertex-to-edge
    projection matrix; they must agree with the pairwise scalar loops."""

    def test_validate_matches_oracle(self):
        rng = np.random.default_rng(29)
        corpus = [rng.random((int(rng.integers(3, 10)), 2)) for _ in range(60)]
        corpus += [_radial_polygon(rng, int(rng.integers(3, 12))) for _ in range(60)]
        corpus += [rng.integers(0, 9, (int(rng.integers(3, 9)), 2)) / 2 for _ in range(150)]
        corpus += [_near_touch(rng, int(rng.integers(4, 11)), 1 + (-1) ** c * 1e-3)
                   for c in range(120)]
        seen = set()
        for points in corpus:
            ref = _validation_outcome(reference_validate, points)
            assert _validation_outcome(validate_polygon, points) == ref, points.tolist()
            if ref[0] is SelfIntersecting:
                seen.add(ref[1].split()[-1])
            else:
                seen.add(ref[0].__name__ if isinstance(ref[0], type) else "valid")
        assert seen == {"cross", "touch", "DegenerateEdge", "ZeroArea", "valid"}

    @pytest.mark.parametrize("factor, message", [(1 - 1e-3, "edges 0 and 2 touch"),
                                                 (1 + 1e-3, None)])
    def test_vertex_at_tol_from_edge(self, factor, message):
        tol = geometry.TOL_SCALE * math.hypot(2, 2)
        points = [(0, 0), (2, 0), (2, 2), (1, tol * factor), (0, 2)]
        if message is None:
            assert validate_polygon(points).n == 5
        else:
            with pytest.raises(SelfIntersecting, match=message):
                validate_polygon(points)

    @pytest.mark.parametrize("points", [
        SQUARE, L_SHAPE, RECT_1x10, TRIANGLE, COMB, SPIRAL, NOTCH, SLIT, L_COLLINEAR,
        [(0, 0), (1, 0), (0, 1)], [(0, 0), (7, 0), (7, 7), (0, 7)],
        [(0, 0), (10, 0), (10, 0.08), (0, 0.08)], [(0, 0), (10, 0), (10, 0.04), (0, 0.04)],
    ], ids=["square", "l", "rect", "triangle", "comb", "spiral", "notch", "slit", "l_collinear",
            "right_triangle", "square7", "thin", "thinner"])
    def test_feature_size_bit_equal_on_named_polygons(self, points):
        poly = validate_polygon(points)
        assert poly.min_feature_size == reference_min_feature_size(poly)

    def test_feature_size_bit_equal_on_workload_polygons(self):
        for pts in _relabellings(L_SHAPE) + _relabellings(SQUARE):
            assert validate_polygon(pts).min_feature_size == 1.0, pts
        poly = validate_polygon([(0, 0), (1, 0), (0.5, 0.866)])
        assert poly.min_feature_size == reference_min_feature_size(poly)

    @pytest.mark.parametrize("points", [SQUARE, L_SHAPE, TRIANGLE, COMB, SPIRAL, NOTCH],
                             ids=["square", "l", "triangle", "comb", "spiral", "notch"])
    def test_validation_caches_feature_size_of_ccw_input(self, points):
        # validation reads the vertex-to-edge matrix that f reads: a CCW
        # input leaves f in the cache, a reversed (CW) input does not
        ccw = validate_polygon(points)
        assert "min_feature_size" in vars(ccw)
        assert ccw.min_feature_size == reference_min_feature_size(ccw)
        cw = validate_polygon(np.asarray(points, dtype=float)[::-1])
        assert "min_feature_size" not in vars(cw)
        assert cw.min_feature_size == reference_min_feature_size(cw)

    def test_feature_size_near_oracle(self):
        """Off the named polygons f may move by a few ulps.  The roundoff of
        a projection scales with the coordinates, not with f: on a thin
        polygon a moved f is up to 4e-15 relative to f (1,374 random convex
        polygons), but within 1.1e-16 of the bounding-box diagonal."""
        rng = np.random.default_rng(31)
        polys = [random_convex_polygon(rng, int(rng.integers(3, 13))) for _ in range(60)]
        polys += [validate_polygon(_radial_polygon(rng, 12)) for _ in range(20)]
        polys += [validate_polygon(_star(k)) for k in (3, 5, 8, 12, 24)]
        for poly in polys:
            diagonal = float(np.hypot(*np.subtract(*poly.bbox)))
            assert abs(poly.min_feature_size - reference_min_feature_size(poly)) <= 1e-15 * diagonal


class TestInteriorDistance:
    def test_square_diagonal(self, square_moat):
        assert square_moat.interior_distance((0, 0), (1, 1)) == pytest.approx(math.sqrt(2))

    def test_l_bend_at_reflex(self, l_moat):
        assert l_moat.interior_distance((2, 1), (1, 2)) == pytest.approx(2.0)

    def test_identity(self, l_moat):
        assert l_moat.interior_distance((0.5, 0.5), (0.5, 0.5)) == 0.0

    def test_outside_rejected(self, square_moat):
        with pytest.raises(OutsideDomain):
            square_moat.interior_distance((2, 2), (0, 0))

    def test_exterior_escaper_side_runs_no_hull_test(self, monkeypatch):
        # row 0 of contains is the classes alone, so side 0 of _check_domain
        # (every interior_distance, and verify_net's escaper rounds) never
        # reaches the hull test; side 1 still does
        ctx = MetricContext(validate_polygon(L_SHAPE), PursuerModel.EXTERIOR)
        ref = _reference_geodesic(ctx, (0.5, 1.5), (1.5, 0.5), True)

        def no_hull(*args):
            raise AssertionError("hull test reached")

        monkeypatch.setattr(geometry, "point_in_convex_hull", no_hull)
        assert ctx.interior_distance((0.5, 1.5), (1.5, 0.5)) == ref
        ctx._check_domain(np.array([(0.5, 0.5), (2.0, 1.0), (1.0, 2.0)]), 0)
        for p in ((1.5, 1.5), (3.0, 3.0)):
            with pytest.raises(OutsideDomain, match="^point not in the escaper domain$"):
                ctx.interior_distance((0.5, 0.5), p)
        with pytest.raises(AssertionError, match="hull test reached"):
            ctx.pursuer_distance((2.0, 0.0), (2.0, 1.0))

    def test_lower_bounded_by_euclid(self, l_moat):
        rng = np.random.default_rng(11)
        poly = l_moat.polygon
        for _ in range(50):
            p = random_point_inside(rng, poly)
            q = random_point_inside(rng, poly)
            d = l_moat.interior_distance(p, q)
            assert d >= np.hypot(*(q - p)) - 10 * poly.tol
            if segment_in_polygon(poly, p, q):
                assert d == pytest.approx(float(np.hypot(*(q - p))))


class TestPursuerDistance:
    def test_square_moat_corners(self, square_moat):
        assert square_moat.pursuer_distance((0, 0), (1, 1)) == pytest.approx(2.0)

    def test_square_exterior_corners(self, square_exterior):
        assert square_exterior.pursuer_distance((0, 0), (1, 1)) == pytest.approx(2.0)

    def test_comb_pocket_shortcut(self):
        poly = validate_polygon(COMB)
        ext = MetricContext(poly, PursuerModel.EXTERIOR)
        moat = MetricContext(poly, PursuerModel.MOAT)
        p, q = (2, 4), (4, 4)
        assert ext.pursuer_distance(p, q) == pytest.approx(2.0)
        assert moat.pursuer_distance(p, q) == pytest.approx(6.0)

    def test_moat_requires_boundary(self, square_moat):
        with pytest.raises(OutsideDomain):
            square_moat.pursuer_distance((0.5, 0.5), (0, 0))

    def test_exterior_rejects_interior_point(self, square_exterior):
        with pytest.raises(OutsideDomain):
            square_exterior.pursuer_distance((0.5, 0.5), (0, 0))

    def test_exterior_rejects_beyond_hull(self, square_exterior):
        with pytest.raises(OutsideDomain):
            square_exterior.pursuer_distance((5, 5), (0, 0))

    def test_exterior_le_moat_on_boundary(self):
        poly = validate_polygon(COMB)
        ext = MetricContext(poly, PursuerModel.EXTERIOR)
        moat = MetricContext(poly, PursuerModel.MOAT)
        rng = np.random.default_rng(3)
        F = poly.perimeter
        for _ in range(60):
            p = poly.boundary_point(rng.uniform(0, F))
            q = poly.boundary_point(rng.uniform(0, F))
            assert ext.pursuer_distance(p, q) <= moat.pursuer_distance(p, q) + 1e-9 * F


class TestPointInConvexHull:
    @pytest.mark.parametrize("offset", [0.0, 1024.0, 2.0**20])
    def test_slack_is_a_distance(self, offset):
        # the L-shape moved by offset keeps its tol (2.8e-9); its hull's
        # diagonal edge runs from (2, 1) to (1, 2), and (1.5, 1.5) is exact
        poly = validate_polygon(np.array(L_SHAPE, dtype=float) + offset)
        hull = convex_hull(poly.vertices)
        tol = poly.tol
        assert tol == pytest.approx(2 * math.sqrt(2) * 1e-9)
        on_edge = np.array([1.5, 1.5]) + offset
        out = np.array([1.0, 1.0]) / math.sqrt(2)
        assert point_in_convex_hull(hull, on_edge, tol)
        assert point_in_convex_hull(hull, on_edge + 0.5 * tol * out, tol)
        assert not point_in_convex_hull(hull, on_edge + 2 * tol * out, tol)


class TestMetricAxioms:
    @pytest.mark.parametrize("points", [SQUARE, L_SHAPE, COMB])
    def test_interior_metric_axioms(self, points):
        poly = validate_polygon(points)
        ctx = MetricContext(poly, PursuerModel.MOAT)
        rng = np.random.default_rng(17)
        tol = 10 * poly.tol
        pts = [random_point_inside(rng, poly) for _ in range(9)]
        for _ in range(30):
            a, b, c = [pts[i] for i in rng.integers(0, len(pts), 3)]
            dab = ctx.interior_distance(a, b)
            dba = ctx.interior_distance(b, a)
            dac = ctx.interior_distance(a, c)
            dcb = ctx.interior_distance(c, b)
            assert dab == dba
            assert dab >= 0.0
            assert dab <= dac + dcb + tol

    @pytest.mark.parametrize("points", [SQUARE, L_SHAPE, COMB])
    @pytest.mark.parametrize("model", [PursuerModel.MOAT, PursuerModel.EXTERIOR])
    def test_pursuer_metric_axioms(self, points, model):
        poly = validate_polygon(points)
        ctx = MetricContext(poly, model)
        rng = np.random.default_rng(23)
        tol = 10 * poly.tol
        F = poly.perimeter
        pts = [poly.boundary_point(rng.uniform(0, F)) for _ in range(9)]
        for _ in range(30):
            a, b, c = [pts[i] for i in rng.integers(0, len(pts), 3)]
            dab = ctx.pursuer_distance(a, b)
            assert dab == ctx.pursuer_distance(b, a)
            assert dab >= 0.0
            assert dab <= ctx.pursuer_distance(a, c) + ctx.pursuer_distance(c, b) + tol


class TestVisibilityEdgesInDomain:
    def test_interior_edges_stay_inside(self, l_moat):
        poly = l_moat.polygon
        vis = l_moat.interior_visibility
        n = poly.n
        for i in range(n):
            for j in range(i + 1, n):
                if np.isfinite(vis[i, j]):
                    for t in (0.25, 0.5, 0.75):
                        p = (1 - t) * poly.vertices[i] + t * poly.vertices[j]
                        assert reference_classify(poly, p) != "outside"

    def test_exterior_edges_stay_outside(self):
        poly = validate_polygon(COMB)
        ctx = MetricContext(poly, PursuerModel.EXTERIOR)
        vis = ctx.exterior_visibility
        n = poly.n
        for i in range(n):
            for j in range(i + 1, n):
                if np.isfinite(vis[i, j]):
                    for t in (0.25, 0.5, 0.75):
                        p = (1 - t) * poly.vertices[i] + t * poly.vertices[j]
                        assert reference_classify(poly, p) != "inside"


def _segment_midpoint_classes(poly, a, b):
    """Classes of the open sub-segments of ``ab`` cut by all polygon edges.

    The scalar, one-segment-at-a-time path that ``geometry.segment_visibility``
    replaced; the batched kernel must agree with it on every segment.  The
    segment is split at every (proper or touching) intersection with the
    boundary; each resulting piece lies entirely inside, outside, or on the
    boundary, so classifying its midpoint classifies the piece.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    seg_len = float(np.hypot(*d))
    if seg_len <= poly.tol:
        return [reference_classify(poly, a)]
    v = poly.vertices
    e = poly._edge_vecs
    # solve a + t*d = v_i + s*e_i
    denom = d[0] * e[:, 1] - d[1] * e[:, 0]
    dv = v - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (dv[:, 0] * e[:, 1] - dv[:, 1] * e[:, 0]) / denom
        s = (dv[:, 0] * d[1] - dv[:, 1] * d[0]) / denom
    eps = poly.tol / seg_len
    mask = np.isfinite(t) & (t > eps) & (t < 1 - eps) & (s >= -1e-12) & (s <= 1 + 1e-12)
    ts = [0.0, 1.0]
    ts.extend(t[mask].tolist())
    # parallel overlapping edges: project edge endpoints onto the segment
    par = np.abs(denom) <= poly.tol * seg_len
    if np.any(par):
        dd = seg_len * seg_len
        for i in np.nonzero(par)[0]:
            for pt in (v[i], v[(i + 1) % poly.n]):
                if _point_segment_distance(pt, a, b) <= poly.tol:
                    tt = float((pt - a) @ d / dd)
                    if eps < tt < 1 - eps:
                        ts.append(tt)
    ts = sorted(set(np.round(ts, 15).tolist()))
    classes = []
    for t0, t1 in zip(ts[:-1], ts[1:]):
        mid = a + (0.5 * (t0 + t1)) * d
        classes.append(reference_classify(poly, mid))
    return classes


def _reference_segment_visibility(poly, a, b):
    """``segment_visibility`` through the scalar oracle, one segment per call."""
    classes = [_segment_midpoint_classes(poly, p, q) for p, q in zip(a, b)]
    inside = np.array([all(c != "outside" for c in cs) for cs in classes], dtype=bool)
    avoids = np.array([all(c != "inside" for c in cs) for cs in classes], dtype=bool)
    return inside, avoids


# endpoints on the half-integer grid around the polygons of ``grid_polygons``,
# so segments pass through vertices, run along edges and hit edges at their ends
grid_points = st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map(
    lambda c: (c[0] / 2, c[1] / 2)
)


def _vertex_pairs(poly):
    iu, ju = np.triu_indices(poly.n, k=1)
    return poly.vertices[iu], poly.vertices[ju]


class TestSegmentVisibility:
    def test_notch_threading_segment_leaves(self):
        # the segment crosses no edge properly: it enters and leaves the notch
        # through the two mouth vertices
        poly = validate_polygon(NOTCH)
        inside, avoids = segment_visibility(poly, [(0.3, 0)], [(7.5, 0)])
        assert not inside[0] and not avoids[0]
        assert not segment_in_polygon(poly, (0.3, 0), (7.5, 0))
        assert segment_in_polygon(poly, (0.3, 0), (3.95, 0))
        assert segment_avoids_interior(poly, (3.95, 0), (4.05, 0))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(poly=grid_polygons(), ends=st.lists(st.tuples(grid_points, grid_points), max_size=40))
    def test_matches_scalar_oracle(self, poly, ends):
        va, vb = _vertex_pairs(poly)
        a = np.vstack([va, np.array([p for p, _ in ends]).reshape(-1, 2)])
        b = np.vstack([vb, np.array([q for _, q in ends]).reshape(-1, 2)])
        got = segment_visibility(poly, a, b)
        ref = _reference_segment_visibility(poly, a, b)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize("points", [L_SHAPE, COMB, NOTCH])
    def test_block_edges(self, points, monkeypatch):
        # blocks of one and of three segments give the one-block answer
        poly = validate_polygon(points)
        rng = np.random.default_rng(7)
        lo, hi = poly.bbox
        va, vb = _vertex_pairs(poly)
        a = np.vstack([va, np.round(lo + rng.random((60, 2)) * (hi - lo))])
        b = np.vstack([vb, np.round(lo + rng.random((60, 2)) * (hi - lo))])
        whole = segment_visibility(poly, a, b)
        for per_block in (1, 3):
            monkeypatch.setattr(geometry, "_SEGMENT_BLOCK_ELEMENTS", per_block * poly.n)
            got = segment_visibility(poly, a, b)
            assert np.array_equal(got[0], whole[0]) and np.array_equal(got[1], whole[1])


def _degenerate_segments(poly, pool, rng, count):
    """Random pairs from ``pool``; at every vertex a zero-length segment; from
    1.05 tol beside every pool point along each axis, a segment 0.3 tol long
    back toward it (its midpoint, unlike its start, is within tol of an
    axis-parallel edge the point lies on); every edge both ways, each edge's
    halves and every vertex pair."""
    v = poly.vertices
    w = np.roll(v, -1, axis=0)
    mid = 0.5 * (v + w)
    va, vb = _vertex_pairs(poly)
    axes = poly.tol * np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])
    beside = (pool[None] + 1.05 * axes[:, None]).reshape(-1, 2)
    back = (pool[None] + 0.75 * axes[:, None]).reshape(-1, 2)
    ia, ib = rng.integers(0, len(pool), (2, count))
    a = np.vstack([pool[ia], v, beside, v, w, v, mid, va])
    b = np.vstack([pool[ib], v, back, w, v, mid, w, vb])
    return a, b


def _near_boundary(poly, ts):
    """Boundary points at parameters ``ts``, and each moved by 0.6 tol along x
    and along y, both ways."""
    p = poly.boundary_point(ts)
    shifts = 0.6 * poly.tol * np.array([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    return (p[None] + shifts[:, None]).reshape(-1, 2)


def _assert_matches_sorting_kernel(poly, pool, a, b, monkeypatch):
    ref_within, ref_avoids, split = _sorting_segment_visibility(poly, a, b)
    assert split.any() and not split.all()
    assert _sorting_boundary_distance2(poly, pool).tobytes() == \
        geometry._boundary_distance2(poly, pool).tobytes()
    assert np.array_equal(point_classes(poly, pool), _sorting_point_classes(poly, pool))
    within, avoids = segment_visibility(poly, a, b)
    assert np.array_equal(within, ref_within) and np.array_equal(avoids, ref_avoids)
    # blocks of one segment, each of which splits all or none, on up to 20
    # split and 20 unsplit segments
    pick = np.concatenate([np.nonzero(split)[0][:20], np.nonzero(~split)[0][:20]])
    monkeypatch.setattr(geometry, "_SEGMENT_BLOCK_ELEMENTS", poly.n)
    within, avoids = segment_visibility(poly, a[pick], b[pick])
    assert np.array_equal(within, ref_within[pick]) and np.array_equal(avoids, ref_avoids[pick])


def _star(k):
    ang = np.arange(2 * k) * math.pi / k
    rad = np.where(np.arange(2 * k) % 2 == 0, 1.0, 0.45)
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


class TestSortingKernelAgreement:
    """The kernel sorts only the cut tables of segments an edge cuts or a
    vertex touches and measures boundary distance on split coordinates; it
    must give the sorting kernel's answers and floats bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much,
                                     HealthCheck.function_scoped_fixture])
    @given(poly=grid_polygons(), grid=st.lists(grid_points, min_size=2, max_size=30))
    def test_grid_polygons(self, poly, grid, monkeypatch):
        pool = np.vstack([np.array(grid, dtype=float),
                          _near_boundary(poly, np.linspace(0, poly.perimeter, 17))])
        a, b = _degenerate_segments(poly, pool, np.random.default_rng(len(grid)), 60)
        with monkeypatch.context() as patch:
            _assert_matches_sorting_kernel(poly, pool, a, b, patch)

    @pytest.mark.parametrize("points", [L_COLLINEAR, SLIT, NOTCH, _star(24)],
                             ids=["l_collinear", "slit", "notch", "star48"])
    def test_named_polygons(self, points, monkeypatch):
        poly = validate_polygon(points)
        rng = np.random.default_rng(11)
        lo, hi = poly.bbox
        # quarter-grid points over the widened box; points on and near the
        # boundary, the vertices among them
        grid = np.round((lo - 0.5 + rng.random((300, 2)) * (hi - lo + 1.0)) * 4) / 4
        ts = np.concatenate([poly.cumulative_lengths[:-1], rng.random(60) * poly.perimeter])
        pool = np.vstack([grid, _near_boundary(poly, ts)])
        a, b = _degenerate_segments(poly, pool, rng, 1500)
        _assert_matches_sorting_kernel(poly, pool, a, b, monkeypatch)

    @pytest.mark.parametrize("points", [L_COLLINEAR, COMB, _star(24)],
                             ids=["l_collinear", "comb", "star48"])
    def test_refinement_batches(self, points, monkeypatch):
        # a refinement batch's segments: boundary points' fans to every
        # vertex and their pairs to the points of +-spacing windows, each
        # window centred on a start or on a vertex (the collinear ones among
        # them), every point also taken 0.6 tol off the boundary
        poly = validate_polygon(points)
        spacing = poly.min_feature_size / 10
        rng = np.random.default_rng(3)
        cum = poly.cumulative_lengths[:-1]
        t_starts = np.concatenate([cum[:2], rng.random(2) * poly.perimeter])
        centres = np.concatenate([t_starts, cum[rng.permutation(poly.n)[:8]]])
        starts = _near_boundary(poly, t_starts)
        ends = _near_boundary(poly, (centres[:, None] + np.linspace(-spacing, spacing, 9)).ravel())
        v = poly.vertices
        a = np.repeat(starts, poly.n + len(ends), axis=0)
        b = np.vstack([np.vstack([v, ends])] * len(starts))
        _assert_matches_sorting_kernel(poly, np.vstack([starts, ends]), a, b, monkeypatch)


class TestMembershipAgreement:
    @pytest.mark.parametrize("points", [L_SHAPE, COMB, SPIRAL, NOTCH, TRIANGLE, _star(24)],
                             ids=["l", "comb", "spiral", "notch", "triangle", "star48"])
    def test_classify_is_one_row_of_point_classes(self, points):
        """``classify`` answers as ``point_classes`` does at every point, and
        both as the scalar oracle, except where the distance to the boundary
        rounds to exactly tol: there the oracle compares the square-rooted
        distance with tol and ``point_classes`` the squared one with tol**2."""
        poly = validate_polygon(points)
        rng = np.random.default_rng(61)
        tol = poly.tol
        # an offset of exactly tol puts points in the band (three of them
        # classified apart by the two comparisons, on the comb, spiral and
        # triangle)
        steps = tol * np.array([0.0, 0.6, 1 - 1e-12, 1.0, 1 + 1e-12, 1.4, 2.0])
        steps = np.concatenate([steps, -steps[1:]])
        # random edge points moved along their edge's normal, and vertices
        # moved in eight directions
        k = rng.integers(0, poly.n, 50)
        e = poly._edge_vecs[k]
        base = poly.vertices[k] + rng.random((50, 1)) * e
        normal = np.column_stack([-e[:, 1], e[:, 0]]) / poly.edge_lengths[k, None]
        ang = np.arange(8) * math.pi / 4
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        pts = np.vstack([
            (base[:, None] + steps[:, None] * normal[:, None]).reshape(-1, 2),
            (poly.vertices[:, None, None] + steps[:, None, None] * dirs).reshape(-1, 2),
        ])
        names = np.array([poly.classify(p) for p in pts])
        batched = np.array(["outside", "boundary", "inside"])[point_classes(poly, pts) + 1]
        assert np.array_equal(names, batched)
        assert set(names) == {"inside", "boundary", "outside"}
        ref = np.array([reference_classify(poly, p) for p in pts])
        band = np.array([reference_distance_to_boundary(poly, p) == tol for p in pts])
        assert np.array_equal(names[~band], ref[~band])


def membership_probes(poly):
    """A 13 x 13 grid over the polygon's bounding box widened by an eighth
    on each side, plus points 0.999 and 1.001 tol either side of each edge's
    midpoint (along its normal) and away from each vertex (in eight
    directions)."""
    lo, hi = poly.bbox
    pad = (hi - lo) / 8
    xs, ys = (np.linspace(a, b, 13) for a, b in zip(lo - pad, hi + pad))
    grid = np.column_stack([g.ravel() for g in np.meshgrid(xs, ys)])
    steps = poly.tol * np.array([-1.001, -0.999, 0.999, 1.001])
    e = poly._edge_vecs
    normal = np.column_stack([e[:, 1], -e[:, 0]]) / poly.edge_lengths[:, None]
    mids = poly.vertices + e / 2
    ang = np.arange(8) * math.pi / 4
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    return np.vstack([
        grid,
        (mids[:, None] + steps[:, None] * normal[:, None]).reshape(-1, 2),
        (poly.vertices[:, None, None] + steps[2:, None, None] * dirs).reshape(-1, 2),
    ])


class TestDomainMembership:
    @pytest.mark.parametrize("scale,shift", [(1, 0), (1, 1024), (1, 2**20), (2**-3, 0), (2**5, 0)],
                             ids=["plain", "shift1024", "shift2^20", "scale2^-3", "scale2^5"])
    @pytest.mark.parametrize("points", [SQUARE, TRIANGLE, L_SHAPE, COMB, SPIRAL, NOTCH, SLIT],
                             ids=["square", "triangle", "l", "comb", "spiral", "notch", "slit"])
    def test_contains_matches_scalar_oracles(self, points, scale, shift):
        """``MetricContext.contains`` answers as ``reference_classify`` and
        the scalar hull test do, in both models, on each polygon moved and
        scaled (the oracles run on the same moved points)."""
        poly = validate_polygon(np.array(points, dtype=float) * scale + shift)
        pts = membership_probes(poly)
        for model in PursuerModel:
            ctx = MetricContext(poly, model)
            got = ctx.contains(pts)
            assert got.shape == (2, len(pts)) and got.dtype == bool
            assert np.array_equal(got, reference_contains(ctx, pts)), model
            # the probes fall both in and out of each domain
            assert got.any(axis=1).all() and not got.all(axis=1).any()


def _two_point_dijkstra(base: np.ndarray, wp: np.ndarray, wq: np.ndarray, direct: float) -> float:
    """Shortest path from a source to a target through a dense vertex graph.

    ``wp``/``wq`` are the source/target connection lengths to each vertex;
    ``direct`` is the direct source-target length (inf when not visible).
    """
    n = len(base)
    # nodes: 0..n-1 vertices, n = source, n+1 = target
    dist = np.full(n + 2, np.inf)
    dist[n] = 0.0
    visited = np.zeros(n + 2, dtype=bool)
    heap = [(0.0, n)]
    while heap:
        d, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        if u == n + 1:
            return float(d)
        if u == n:
            nbrs = wp
            base_row = None
        elif u < n:
            base_row = base[u]
            nbrs = base_row
        for vtx in range(n):
            w = nbrs[vtx]
            if np.isfinite(w) and d + w < dist[vtx]:
                dist[vtx] = d + w
                heapq.heappush(heap, (d + w, vtx))
        if u == n and np.isfinite(direct) and d + direct < dist[n + 1]:
            dist[n + 1] = d + direct
            heapq.heappush(heap, (d + direct, n + 1))
        if u < n and np.isfinite(wq[u]) and d + wq[u] < dist[n + 1]:
            dist[n + 1] = d + wq[u]
            heapq.heappush(heap, (d + wq[u], n + 1))
    return float(dist[n + 1])


def _visible_from(ctx, p, interior: bool) -> np.ndarray:
    """Euclidean lengths from p to each visible polygon vertex (inf else)."""
    poly = ctx.polygon
    v = poly.vertices
    p = np.asarray(p, dtype=float)
    if poly.is_convex and interior:
        return np.hypot(*(v - p).T)
    if poly.is_convex:
        ok = point_classes(poly, 0.5 * (v + p)) != 1
    else:
        ok = segment_visibility(poly, np.broadcast_to(p, v.shape), v)[0 if interior else 1]
    return np.where(ok, np.hypot(*(v - p).T), np.inf)


def _reference_geodesic(ctx, p, q, interior: bool) -> float:
    """``interior_distance`` (``interior``) or the exterior-model
    ``pursuer_distance`` composed as before the one-call query.

    The direct segment is one scalar test, each point's vertex fan one more
    kernel call, and a heap Dijkstra joins them over the cached vertex graph.
    """
    poly = ctx.polygon
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if interior and "outside" in (reference_classify(poly, p), reference_classify(poly, q)):
        raise OutsideDomain("point not in the escaper domain")
    for pt in () if interior else (p, q):
        if reference_classify(poly, pt) == "inside":
            raise OutsideDomain("point inside the escaper domain")
        if not geometry.point_in_convex_hull(ctx.hull, pt, poly.tol):
            raise OutsideDomain("point beyond the convex hull of the boundary")
    d0 = float(np.hypot(*(q - p)))
    if d0 <= poly.tol:
        return 0.0
    if interior:
        direct = poly.is_convex or segment_in_polygon(poly, p, q)
    elif poly.is_convex:
        direct = reference_classify(poly, 0.5 * (p + q)) != "inside"
    else:
        direct = segment_avoids_interior(poly, p, q)
    if direct:
        return d0
    base = ctx.interior_visibility if interior else ctx.exterior_visibility
    wp = _visible_from(ctx, p, interior)
    wq = _visible_from(ctx, q, interior)
    return _two_point_dijkstra(base, wp, wq, direct=np.inf)


def _outcome(query, p, q):
    try:
        return query(p, q)
    except OutsideDomain as exc:
        return ("OutsideDomain", str(exc))


def _assert_geodesics_match(poly, pairs):
    """Both models' geodesic queries equal the reference, bits and raises."""
    for model in PursuerModel:
        ctx = MetricContext(poly, model)
        queries = [(ctx.interior_distance, True)]
        if model is PursuerModel.EXTERIOR:
            queries.append((ctx.pursuer_distance, False))
        for p, q in pairs:
            for query, interior in queries:
                ref = _outcome(lambda a, b: _reference_geodesic(ctx, a, b, interior), p, q)
                assert _outcome(query, p, q) == ref, (model, p, q)


class TestGeodesicQuery:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(poly=grid_polygons(), data=st.data())
    def test_matches_reference(self, poly, data):
        # vertices, boundary points and half-integer grid points (inside,
        # outside and beyond the hull alike)
        fracs = data.draw(st.lists(st.floats(0.0, 1.0), max_size=5))
        grid = data.draw(st.lists(grid_points, min_size=1, max_size=5))
        pool = list(poly.vertices) + [poly.boundary_point(f * poly.perimeter) for f in fracs]
        pool += [np.array(g) for g in grid]
        index = st.integers(0, len(pool) - 1)
        picks = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=40))
        _assert_geodesics_match(poly, [(pool[i], pool[j]) for i, j in picks])

    def test_spiral_detours(self):
        poly = validate_polygon(SPIRAL)
        core, mouth = (3.5, 3.5), (0.5, 0.5)  # inside, both ends of the corridor
        pocket_end, pocket_mouth = (2.5, 3.5), (0.5, 1.5)  # outside, in the pocket
        pairs = [(core, mouth), (mouth, core), (pocket_end, pocket_mouth), ((0, 0), (3, 4)),
                 ((2, 3), (6, 0)), ((1, 6), (3, 3)), (core, pocket_end)]
        _assert_geodesics_match(poly, pairs)
        ctx = MetricContext(poly, PursuerModel.EXTERIOR)
        for p, q, interior in ((core, mouth, True), (pocket_end, pocket_mouth, False)):
            # shorter than every path that bends at one or two vertices only
            base = ctx.interior_visibility if interior else ctx.exterior_visibility
            wp, wq = _visible_from(ctx, p, interior), _visible_from(ctx, q, interior)
            d = ctx.interior_distance(p, q) if interior else ctx.pursuer_distance(p, q)
            assert math.isfinite(d) and d < (wp[:, None] + base + wq).min()

    def test_one_kernel_call_per_query(self, monkeypatch):
        calls = []
        kernel = geometry.segment_visibility
        monkeypatch.setattr(geometry, "segment_visibility",
                            lambda poly, a, b: calls.append(len(a)) or kernel(poly, a, b))
        poly = validate_polygon(SPIRAL)
        ctx = MetricContext(poly, PursuerModel.EXTERIOR)
        ctx.interior_visibility, ctx.exterior_visibility  # build the cached graphs first
        calls.clear()
        for query, p, q in ((ctx.interior_distance, (3.5, 3.5), (0.5, 0.5)),
                            (ctx.interior_distance, (0.5, 0.5), (4.5, 0.5)),
                            (ctx.pursuer_distance, (2.5, 3.5), (0.5, 1.5))):
            query(p, q)
            assert calls == [1 + 2 * poly.n]
            calls.clear()


def _geodesic_log(caplog):
    """(points, pairs, fan segments, pairs sharing a piece, pairs admitted
    by a through-vertex path, pair segments, bent pairs) per
    ``pairs_within`` DEBUG line."""
    pattern = (r"pairs_within: (\d+) points, (\d+) pairs, (\d+) fan segments tested, "
               r"(\d+) pairs share a piece, (\d+) pairs admitted, "
               r"(\d+) pair segments tested, (\d+) pairs bent")
    lines = [r.getMessage() for r in caplog.records if r.name == "escape_ratio.geometry"]
    return [tuple(int(g) for g in re.fullmatch(pattern, line).groups()) for line in lines]


class TestGeodesicMatrix:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(poly=grid_polygons(), data=st.data())
    def test_matches_kernel_on_every_pair(self, poly, data):
        # half-integer points inside, outside and on the boundary, plus
        # boundary points off the grid; each mode keeps the points of its
        # domain and compares every pair with the per-query reference
        grid = data.draw(st.lists(grid_points, min_size=12, max_size=24))
        fracs = data.draw(st.lists(st.floats(0.0, 1.0), max_size=5))
        cloud = np.vstack([np.array(grid, dtype=float)]
                          + [poly.boundary_point(f * poly.perimeter)[None] for f in fracs])
        ctx = MetricContext(poly, PursuerModel.EXTERIOR)
        classes = point_classes(poly, cloud)
        in_hull = point_in_convex_hull(ctx.hull, cloud, poly.tol)
        for side in (0, 1):
            pts = cloud[classes >= 0] if side == 0 else cloud[(classes <= 0) & in_hull]
            i, j = np.triu_indices(len(pts), k=1)
            ref = np.array([_reference_geodesic(ctx, pts[a], pts[b], side == 0)
                            for a, b in zip(i, j)])
            got = pair_geodesics(poly, pts, i, j, (side,))
            assert got.shape == (1, len(i)) and got.tobytes() == ref.tobytes(), side

    def test_both_sides_in_one_kernel_call(self, monkeypatch):
        # boundary points lie in both domains; one call gives each side's
        # row as a call for that side alone does
        calls = []
        kernel = geometry.segment_visibility
        monkeypatch.setattr(geometry, "segment_visibility",
                            lambda poly, a, b: calls.append(len(a)) or kernel(poly, a, b))
        poly = validate_polygon(SPIRAL)
        pts = poly.boundary_point(np.linspace(0, poly.perimeter, 23, endpoint=False))
        i, j = np.triu_indices(len(pts), k=1)
        poly._vertex_graphs  # build the cached graphs first
        calls.clear()
        both = pair_geodesics(poly, pts, i, j, (0, 1))
        assert calls == [len(i) + len(pts) * poly.n]
        for side in (0, 1):
            assert both[side].tobytes() == pair_geodesics(poly, pts, i, j, (side,))[0].tobytes()
        assert (both[1] != both[0]).any()

    def test_convex_interior_is_the_chord_with_no_kernel_call(self, monkeypatch):
        calls = []
        kernel = geometry.segment_visibility
        monkeypatch.setattr(geometry, "segment_visibility",
                            lambda poly, a, b: calls.append(len(a)) or kernel(poly, a, b))
        poly = validate_polygon(SQUARE)
        pts = np.array([(0, 0), (1, 0.5), (0.25, 1), (0.5, 0.5), (0.5, 0.5)])
        i, j = np.triu_indices(len(pts), k=1)
        got = pair_geodesics(poly, pts, i, j, (0,))[0]
        chords = np.hypot(*(pts[j] - pts[i]).T)
        assert calls == [] and got.tobytes() == np.where(chords <= poly.tol, 0.0, chords).tobytes()
        assert got[-1] == 0.0  # the coincident pair

    def test_slit_far_from_vertices_blocks(self):
        # the segment is 0.8 long and crosses both slit edges, while every
        # vertex is over 3 away: only its endpoints' clearance (0.35) is short
        poly = validate_polygon(SLIT)
        a, b = (4.6, 6.0), (5.4, 6.0)
        assert np.hypot(*(poly.vertices - a).T).min() > 1
        assert np.hypot(*(poly.vertices - b).T).min() > 1
        pts = np.array([a, b])
        assert not geometry.pairs_within(poly, pts, [0], [1], 0, 1.0)[0]
        assert len(discrete._threshold_distances(poly, pts, 1.0, 0)[0]) == 0
        # the path goes around the slit's foot
        around = 2 * math.hypot(0.35, 3.0) + 0.1
        assert pair_geodesics(poly, pts, [0], [1], (0,))[0, 0] == pytest.approx(around)

    def test_two_clearance_disks_skip_the_kernel(self, caplog):
        # neither endpoint's clearance (0.5) reaches the other end 0.7 away,
        # but the two disks cover the segment
        poly = validate_polygon(L_SHAPE)
        pts = np.array([(0.5, 0.5), (1.2, 0.5)])
        clearance = np.sqrt(geometry._boundary_distance2(poly, pts))
        d, tol = 0.7, poly.tol
        assert clearance.max() <= d + 2 * tol < clearance.sum() - 2 * tol
        ctx = MetricContext(poly, PursuerModel.EXTERIOR)
        ref = _reference_geodesic(ctx, pts[0], pts[1], True)
        for limit in (0.69, 0.71):
            with caplog.at_level(logging.DEBUG, logger="escape_ratio.geometry"):
                got = geometry.pairs_within(poly, pts, [0], [1], 0, limit)
            assert _geodesic_log(caplog)[-1][3:] == (0, 0, 0, 0)
            assert got[0] == (ref <= limit + tol)

    def test_pair_across_the_slit_wall_is_tested(self, caplog):
        # the clearances (0.35 each) sum to less than the length 0.8; below
        # the way round the slit's foot (6.14), no path through a vertex
        # admits the pair either
        poly = validate_polygon(SLIT)
        pts = np.array([(4.6, 6.0), (5.4, 6.0)])
        clearance = np.sqrt(geometry._boundary_distance2(poly, pts))
        assert clearance.sum() <= 0.8
        ctx = MetricContext(poly, PursuerModel.EXTERIOR)
        ref = _reference_geodesic(ctx, pts[0], pts[1], True)
        assert 6.1 < ref < 6.2
        limit = 5.0
        fans = int(np.count_nonzero(np.hypot(*(poly.vertices - pts[:, None]).T) <= limit + 1e-6))
        with caplog.at_level(logging.DEBUG, logger="escape_ratio.geometry"):
            got = geometry.pairs_within(poly, pts, [0], [1], 0, limit)
        assert _geodesic_log(caplog)[-1] == (2, 1, fans, 0, 0, 1, 1) and fans > 0
        assert not got[0]

    def test_logs_segment_traffic(self, caplog):
        # the move relations of a small L-shape game, one line per relation
        ctx = MetricContext(validate_polygon(L_SHAPE), PursuerModel.EXTERIOR)
        with caplog.at_level(logging.DEBUG, logger="escape_ratio.geometry"):
            discrete.build_game(ctx, r=3.0, delta=0.3, gamma=2 * math.sqrt(2) / 12,
                                state_cap=1e13)
        # the clearance rule leaves 473 and 1,417 pairs; all but 27 and 491 share a
        # piece, and a path through a vertex admits 0 and 250 of those
        assert _geodesic_log(caplog) == [(171, 750, 46, 446, 0, 27, 4),
                                         (101, 1481, 157, 926, 250, 241, 159)]

    @pytest.mark.parametrize("points", [L_SHAPE, COMB, NOTCH, SPIRAL, L_COLLINEAR, SLIT])
    @pytest.mark.parametrize("interior", [True, False])
    def test_cap_masks_the_uncapped_matrix(self, points, interior):
        # the keep-only stage, whose fans stop at its cap, keeps what the
        # exact matrix puts within limit + tol
        poly = validate_polygon(points)
        rng = np.random.default_rng(3)
        lo, hi = poly.bbox
        cloud = lo - 0.5 + rng.random((400, 2)) * (hi - lo + 1.0)
        keep = point_classes(poly, cloud) != (-1 if interior else 1)
        ts = rng.uniform(0, poly.perimeter, 40)
        pts = np.vstack([[poly.boundary_point(t) for t in ts], cloud[keep][:40], poly.vertices])
        # the vertices and the first boundary points once more
        pts = np.vstack([pts, pts[-poly.n :], pts[:3]])
        i, j = np.triu_indices(len(pts), k=1)
        side = 0 if interior else 1
        (full,) = pair_geodesics(poly, pts, i, j, (side,))
        assert np.isfinite(full).all()
        dup = (pts[i] == pts[j]).all(axis=1)
        assert dup.sum() == poly.n + 3 and (full[dup] == 0.0).all()
        for limit in (0.3, 1.0, 2.5, 0.25 * poly.perimeter):
            got = geometry.pairs_within(poly, pts, i, j, side, limit)
            assert np.array_equal(got, full <= limit + poly.tol), limit


def _piece_cloud(poly, interior):
    """The pieces' corners, side quarters (diagonals and lids among them)
    and centroids, a grid over the box, and points in the slivers' sharp
    corners, kept where they lie in the side's domain."""
    side = 0 if interior else 1
    tris = np.concatenate([poly._pieces[side][0], np.array(poly._triangles)])
    fracs = np.array([0.0, 0.25, 0.5, 0.75])[:, None, None]
    rims = tris + fracs[:, :, :, None] * (np.roll(tris, -1, axis=1) - tris)[None]
    lo, hi = poly.bbox
    grid = np.stack(np.meshgrid(*np.linspace(lo, hi, 17).T), axis=-1).reshape(-1, 2)
    corners = [(1e-3, -1e-15), (1e-3, -2e-15), (1.5, -5e-13), (0.5, 1 - 5e-8), (1e-3, 1)]
    cloud = np.unique(np.vstack([rims.reshape(-1, 2), tris.mean(axis=1), grid, corners]), axis=0)
    classes = point_classes(poly, cloud)
    if interior:
        return cloud[classes >= 0]
    in_hull = point_in_convex_hull(convex_hull(poly.vertices), cloud, poly.tol)
    return cloud[(classes <= 0) & in_hull]


def _piece_area(tris):
    return float(sum(tri_area(t) for t in tris))


class TestConvexPieces:
    @pytest.mark.parametrize("points", [L_SHAPE, L_COLLINEAR, COMB, NOTCH, SPIRAL, SLIT, THIN],
                             ids=["l", "l_collinear", "comb", "notch", "spiral", "slit", "thin"])
    @pytest.mark.parametrize("interior", [True, False])
    def test_pair_geodesics_match_the_kernel_only_oracle(self, points, interior):
        # the pieces' corners, rims and slivers are where a rule that skips
        # the kernel would err: the exact function tests every pair there
        # and matches the per-query reference on a seeded sample
        poly = validate_polygon(points)
        pts = _piece_cloud(poly, interior)
        i, j = np.triu_indices(len(pts), k=1)
        k = np.random.default_rng(len(pts)).choice(len(i), size=min(len(i), 300), replace=False)
        i, j = i[k], j[k]
        ctx = MetricContext(poly, PursuerModel.EXTERIOR)
        ref = np.array([_reference_geodesic(ctx, pts[a], pts[b], interior) for a, b in zip(i, j)])
        got = pair_geodesics(poly, pts, i, j, (0 if interior else 1,))[0]
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("points", [L_SHAPE, L_COLLINEAR, COMB, NOTCH, SPIRAL, SLIT, THIN],
                             ids=["l", "l_collinear", "comb", "notch", "spiral", "slit", "thin"])
    @pytest.mark.parametrize("interior", [True, False])
    def test_pairs_within_match_the_kernel_only_oracle(self, points, interior, caplog):
        # the move relations' keep-only stage keeps what the exact distances
        # keep, some pairs share a piece, and each pair it admits by a path
        # through a vertex is no longer than that path
        poly = validate_polygon(points)
        pts = _piece_cloud(poly, interior)
        i, j = np.triu_indices(len(pts), k=1)
        tol, side = poly.tol, 0 if interior else 1
        (exact,) = pair_geodesics(poly, pts, i, j, (side,))
        diagonal = float(np.hypot(*np.subtract(*poly.bbox)))
        admitted_any = False
        for limit in (0.15 * diagonal, 0.4 * diagonal):
            with caplog.at_level(logging.DEBUG, logger="escape_ratio.geometry"):
                got = geometry.pairs_within(poly, pts, i, j, side, limit)
            *_, shared, admitted, _, _ = _geodesic_log(caplog)[-1]
            assert np.array_equal(got, exact <= limit + tol), limit
            assert shared > 0
            stage = geometry._point_stage(poly, pts, side, limit * (1 + 1e-12) + tol)
            test = geometry._pair_filter(stage, i, j, tol)[2]
            through = (stage.paths[i[test]] + stage.paths[j[test]]).min(axis=1)
            admit = through <= (limit + tol) * (1 - 1e-9)
            assert np.count_nonzero(admit) == admitted
            kernel = exact[test[admit]]
            assert (kernel <= limit + tol).all() and (kernel <= through[admit] * (1 + 1e-12)).all()
            admitted_any |= bool(admit.any())
        assert admitted_any or points is not L_SHAPE

    @pytest.mark.parametrize("points", [L_SHAPE, L_COLLINEAR, COMB, NOTCH, SPIRAL, SLIT, SQUARE])
    def test_pieces_tile_the_polygon_and_its_pockets(self, points):
        poly = validate_polygon(points)
        (inner, edges), (pockets, _) = poly._pieces
        hull = geometry.Polygon(convex_hull(poly.vertices), poly.tol)
        assert len(inner) == poly.n - 2 and edges.tolist() == list(range(poly.n))
        assert _piece_area(inner) == pytest.approx(poly.area, rel=1e-12)
        assert _piece_area(pockets) == pytest.approx(hull.area - poly.area, rel=1e-12, abs=1e-12)

    def test_slivers_are_dropped(self):
        poly = validate_polygon(THIN)
        (inner, _), (pockets, _) = poly._pieces
        assert len(poly._triangles) == 4 and len(inner) == 3 and len(pockets) == 0
        assert _piece_area(inner) == pytest.approx(poly.area - 1e-12, rel=1e-12)

    def test_comb_has_one_square_pocket(self):
        # the tooth tops lie on the lid, so the pocket ends at both of them
        pockets = validate_polygon(COMB)._pieces[1][0]
        assert len(pockets) == 2 and _piece_area(pockets) == 4.0
        assert {tuple(p) for p in pockets.reshape(-1, 2)} == {(2, 2), (4, 2), (4, 4), (2, 4)}

    def test_context_triangulation_is_the_polygons(self, l_shape):
        assert MetricContext(l_shape).triangulation is l_shape._triangles


class TestPolygonIO:
    def test_roundtrip(self, l_shape):
        text = dumps_polygon(l_shape)
        again = loads_polygon(text)
        assert np.allclose(again.vertices, l_shape.vertices)

    def test_reader_normalizes_orientation(self):
        poly = loads_polygon("[[0,0],[0,1],[1,1],[1,0]]")
        assert poly.area > 0


def _scalar_boundary_point(poly, t):
    """``Polygon.boundary_point`` as it was before it broadcast."""
    t = float(t) % poly.perimeter
    i = min(int(np.searchsorted(poly.cumulative_lengths, t, side="right") - 1), poly.n - 1)
    e = np.roll(poly.vertices, -1, axis=0)[i] - poly.vertices[i]
    return poly.vertices[i] + (t - poly.cumulative_lengths[i]) / poly.edge_lengths[i] * e


def _scalar_boundary_parameter(poly, p):
    """``Polygon.boundary_parameter`` as it was before it broadcast."""
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    t = np.clip(((p - v) * e).sum(axis=1) / np.maximum(poly.edge_lengths**2, 1e-300), 0.0, 1.0)
    i = int(np.argmin((((v + t[:, None] * e) - p) ** 2).sum(axis=1)))
    return float(poly.cumulative_lengths[i] + t[i] * poly.edge_lengths[i])


class TestBoundaryParameterization:
    def test_wraps_at_perimeter(self, square):
        assert square.boundary_point(0.0) == pytest.approx((0.0, 0.0))
        assert square.boundary_point(square.perimeter) == pytest.approx((0.0, 0.0))
        assert square.boundary_point(-0.5) == pytest.approx(
            square.boundary_point(square.perimeter - 0.5)
        )

    def test_parameter_inverts_point(self, l_shape):
        rng = np.random.default_rng(41)
        for _ in range(40):
            t = rng.uniform(0, l_shape.perimeter)
            p = l_shape.boundary_point(t)
            t2 = l_shape.boundary_parameter(p)
            assert l_shape.arc_distance(t, t2) <= 1e-9

    @pytest.mark.parametrize("points", [L_SHAPE, TRIANGLE, SPIRAL])
    def test_boundary_maps_broadcast_bitwise(self, points):
        poly = validate_polygon(points)
        F = poly.perimeter
        cum = poly.cumulative_lengths
        rng = np.random.default_rng(47)
        # vertex parameters, negative ones and ones at or past the perimeter
        t = np.concatenate([cum, -cum, cum + F, rng.uniform(-F, 2 * F, 40)])
        pts = poly.boundary_point(t[:, None])
        assert pts.shape == (len(t), 1, 2)
        scalar = np.array([poly.boundary_point(float(x)) for x in t])
        assert scalar.shape == (len(t), 2)
        ref = np.array([_scalar_boundary_point(poly, x) for x in t])
        assert pts.reshape(-1, 2).tobytes() == scalar.tobytes() == ref.tobytes()
        # each vertex ends two edges, an equal-distance tie the first edge wins
        q = np.vstack([scalar, poly.vertices, rng.uniform(-1, 7, (13, 2))])
        params = poly.boundary_parameter(q[None])
        assert params.shape == (1, len(q))
        scalar = np.array([poly.boundary_parameter(x) for x in q])
        ref = np.array([_scalar_boundary_parameter(poly, x) for x in q])
        assert params.tobytes() == scalar.tobytes() == ref.tobytes()
        assert ref[len(t) : len(t) + poly.n].tolist() == [0.0, *cum[1:-1]]
        dist = np.sqrt(geometry._boundary_distance2(poly, q))
        ref = np.array([reference_distance_to_boundary(poly, x) for x in q])
        assert dist.tobytes() == ref.tobytes()

    def test_arc_distance_broadcasts_bitwise(self, l_shape):
        F = l_shape.perimeter
        rng = np.random.default_rng(43)
        t1 = rng.uniform(-F, 2 * F, 30)
        t2 = rng.uniform(0, F, 25)
        table = l_shape.arc_distance(t1[:, None], t2[None, :])
        scalar = np.array([[l_shape.arc_distance(float(a), float(b)) for b in t2] for a in t1])
        assert table.tobytes() == scalar.tobytes()
        d = abs(float(t1[0]) - float(t2[0])) % F
        assert scalar[0, 0] == min(d, F - d)

    def test_model_accepts_string(self, square):
        ctx = MetricContext(square, "exterior")
        assert ctx.model is PursuerModel.EXTERIOR
