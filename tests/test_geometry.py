import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from escape_ratio import geometry
from escape_ratio.errors import (
    DegenerateEdge,
    OutsideDomain,
    SelfIntersecting,
    TooFewVertices,
    ZeroArea,
)
from escape_ratio.geometry import (
    MetricContext,
    PursuerModel,
    _point_segment_distance,
    dumps_polygon,
    loads_polygon,
    min_feature_size,
    min_interior_angle,
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
    SQUARE,
    random_convex_polygon,
    random_point_inside,
)

# a 0.1-wide notch whose mouth vertices (3.95, 0) and (4.05, 0) lie on y = 0
NOTCH = [(0, -1), (8, -1), (8, 1), (4.5, 1), (4.05, 0), (4, -0.5), (3.95, 0), (3.5, 1), (0, 1)]


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
        assert min_feature_size(square) == pytest.approx(1.0)

    def test_rect(self):
        poly = validate_polygon(RECT_1x10)
        assert min_feature_size(poly) == pytest.approx(1.0)

    def test_l_shape(self, l_shape):
        assert min_feature_size(l_shape) == pytest.approx(1.0)
        assert min_interior_angle(l_shape) == pytest.approx(math.pi / 2)
        # the reflex vertex carries angle 3*pi/2 but never attains the min
        assert l_shape.interior_angles().max() == pytest.approx(1.5 * math.pi)

    def test_triangle_fallback_uses_altitude(self):
        poly = validate_polygon([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        assert min_feature_size(poly) == pytest.approx(math.sqrt(3) / 2)


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
                        assert poly.classify(p) != "outside"

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
                        assert poly.classify(p) != "inside"


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
        return [poly.classify(a)]
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
        classes.append(poly.classify(mid))
    return classes


def _reference_segment_visibility(poly, a, b):
    """``segment_visibility`` through the scalar oracle, one segment per call."""
    classes = [_segment_midpoint_classes(poly, p, q) for p, q in zip(a, b)]
    inside = np.array([all(c != "outside" for c in cs) for cs in classes], dtype=bool)
    avoids = np.array([all(c != "inside" for c in cs) for cs in classes], dtype=bool)
    return inside, avoids


@st.composite
def grid_polygons(draw):
    """Simple polygons with half-integer vertices, sorted by angle about their mean.

    Candidates that fail validation (spikes along one ray, zero area) are
    rejected, so every drawn polygon is simple; most are not convex.
    """
    k = draw(st.integers(4, 9))
    cells = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                          min_size=k, max_size=k, unique=True))
    pts = np.array(cells, dtype=float) / 2
    rel = pts - pts.mean(axis=0)
    order = np.lexsort((np.hypot(rel[:, 0], rel[:, 1]), np.arctan2(rel[:, 1], rel[:, 0])))
    try:
        return validate_polygon(pts[order])
    except (SelfIntersecting, ZeroArea, DegenerateEdge):
        assume(False)


# endpoints on the half-integer grid around the polygons above, so segments
# pass through vertices, run along edges and hit edges at their ends
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


class TestPolygonIO:
    def test_roundtrip(self, l_shape):
        text = dumps_polygon(l_shape)
        again = loads_polygon(text)
        assert np.allclose(again.vertices, l_shape.vertices)

    def test_reader_normalizes_orientation(self):
        poly = loads_polygon("[[0,0],[0,1],[1,1],[1,0]]")
        assert poly.area > 0


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

    def test_model_accepts_string(self, square):
        ctx = MetricContext(square, "exterior")
        assert ctx.model is PursuerModel.EXTERIOR
