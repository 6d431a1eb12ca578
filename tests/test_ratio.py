import logging
import math

import numpy as np
import pytest

from escape_ratio import geometry
from escape_ratio.errors import DegeneratePair, OutsideDomain, SpacingTooCoarse
from escape_ratio.geometry import MetricContext, PursuerModel, validate_polygon
from escape_ratio.ratio import (
    UPPER_FACTOR,
    _refine_pair,
    max_ratio,
    r_star_sandwich,
    ratio_of_pair,
)

from conftest import COMB, L_SHAPE, RECT_1x10, SQUARE


def square_boundary_point(t):
    """Closed-form unit-square boundary parameterization (oracle side)."""
    t = t % 4.0
    if t < 1:
        return np.array([t, 0.0])
    if t < 2:
        return np.array([1.0, t - 1])
    if t < 3:
        return np.array([3 - t, 1.0])
    return np.array([0.0, 4 - t])


def square_dense_oracle(spacing):
    """Brute-force max of arc/chord over a dense unit-square boundary grid."""
    ts = np.arange(0.0, 4.0, spacing)
    pts = np.array([square_boundary_point(t) for t in ts])
    i, j = np.triu_indices(len(ts), k=1)
    arc = np.abs(ts[i] - ts[j]) % 4.0
    arc = np.minimum(arc, 4.0 - arc)
    chord = np.hypot(*(pts[i] - pts[j]).T)
    ratios = arc / np.maximum(chord, 1e-12)
    k = int(np.argmax(ratios))
    return float(ratios[k]), float(ts[i[k]]), float(ts[j[k]])


class TestRatioOfPair:
    def test_square_opposite_midpoints(self, square_moat):
        assert ratio_of_pair(square_moat, (0.5, 0), (0.5, 1)) == pytest.approx(2.0)

    def test_square_corners(self, square_moat):
        assert ratio_of_pair(square_moat, (0, 0), (1, 1)) == pytest.approx(math.sqrt(2))

    def test_same_edge_ratio_one(self, square_moat):
        assert ratio_of_pair(square_moat, (0.2, 0), (0.7, 0)) == pytest.approx(1.0)

    def test_degenerate_pair(self, square_moat):
        with pytest.raises(DegeneratePair):
            ratio_of_pair(square_moat, (0.5, 0), (0.5, 0))

    def test_interior_point_rejected(self, square_moat):
        with pytest.raises(OutsideDomain):
            ratio_of_pair(square_moat, (0.5, 0.5), (0.5, 0))


class TestMaxRatio:
    def test_square_against_dense_oracle(self, square_moat):
        oracle_max, t1, t2 = square_dense_oracle(0.005)
        assert oracle_max == pytest.approx(2.0)
        assert (t1, t2) == (0.5, 2.5)  # opposite-edge midpoints
        bound = max_ratio(square_moat, 0.05)
        assert bound.lower_certified == pytest.approx(oracle_max, abs=0.01)
        assert bound.witness_p == pytest.approx((0.5, 0.0))
        assert bound.witness_q == pytest.approx((0.5, 1.0))

    def test_square_upper_within_inflation(self, square_moat):
        bound = max_ratio(square_moat, 0.05)
        quotient = bound.upper_estimate / (UPPER_FACTOR * bound.lower_certified)
        assert 1.0 <= quotient <= 1.1

    def test_bound_values_are_plain_floats(self, l_moat):
        bound = max_ratio(l_moat, 0.1)
        assert type(bound.upper_estimate) is float
        assert type(bound.lower_certified) is float
        # math.sqrt and np.sqrt are both correctly rounded
        assert UPPER_FACTOR == 2.0 * (3.0 + np.sqrt(6.0))

    def test_witness_reproduces_lower(self, square_moat, l_moat):
        for ctx, spacing in ((square_moat, 0.05), (l_moat, 0.1)):
            bound = max_ratio(ctx, spacing)
            again = ratio_of_pair(ctx, bound.witness_p, bound.witness_q)
            assert again == pytest.approx(bound.lower_certified, abs=1e-9)

    def test_rect_long_edge_midpoints(self):
        ctx = MetricContext(validate_polygon(RECT_1x10), PursuerModel.MOAT)
        bound = max_ratio(ctx, 0.1)
        assert bound.lower_certified == pytest.approx(11.0, abs=0.1)
        assert bound.witness_p == pytest.approx((5.0, 0.0), abs=0.05)
        assert bound.witness_q == pytest.approx((5.0, 1.0), abs=0.05)

    def test_triangle_corner_pairs_attain_two(self, triangle_moat):
        # equal-leg pairs straddling a 60-degree corner achieve arc/chord =
        # csc(30 deg) = 2, beating the vertex-to-opposite-midpoint pair
        # (1.5 / (sqrt(3)/2) ~ 1.732); confirmed by the dense oracle below
        poly = triangle_moat.polygon
        f = poly.min_feature_size
        bound = max_ratio(triangle_moat, f / 10 * 0.99)
        assert bound.lower_certified == pytest.approx(2.0, abs=0.02)
        # dense brute force over boundary pairs
        F = poly.perimeter
        ts = np.arange(0.0, F, 0.01)
        pts = np.array([poly.boundary_point(t) for t in ts])
        i, j = np.triu_indices(len(ts), k=1)
        arc = np.abs(ts[i] - ts[j]) % F
        arc = np.minimum(arc, F - arc)
        chord = np.hypot(*(pts[i] - pts[j]).T)
        dense = float(np.max(arc / np.maximum(chord, 1e-9)))
        assert dense == pytest.approx(2.0, abs=0.01)
        assert bound.lower_certified <= dense + 0.01

    def test_spacing_guard(self, square_moat):
        with pytest.raises(SpacingTooCoarse):
            max_ratio(square_moat, 0.2)

    def test_monotone_in_spacing(self, square_moat, l_moat):
        for ctx, spacings in (
            (square_moat, (0.1, 0.05, 0.025)),
            (l_moat, (0.1, 0.05, 0.025)),
        ):
            lowers = [max_ratio(ctx, s).lower_certified for s in spacings]
            for coarse, fine in zip(lowers, lowers[1:]):
                assert fine >= coarse - 1e-9

    def test_convex_lower_at_least_one(self):
        rng = np.random.default_rng(9)
        from conftest import random_convex_polygon

        for _ in range(3):
            poly = random_convex_polygon(rng, 8)
            ctx = MetricContext(poly, PursuerModel.MOAT)
            bound = max_ratio(ctx, poly.min_feature_size / 10 * 0.9)
            assert bound.lower_certified >= 1.0

    def test_inflation_nonnegative(self, square_moat, l_moat):
        for ctx, s in ((square_moat, 0.05), (l_moat, 0.1)):
            bound = max_ratio(ctx, s)
            assert bound.upper_estimate / bound.lower_certified >= UPPER_FACTOR - 1e-9

    def test_prune_keeps_square_maximum(self, square_moat):
        pruned = max_ratio(square_moat, 0.05, prune=True)
        plain = max_ratio(square_moat, 0.05)
        assert pruned.lower_certified == pytest.approx(plain.lower_certified)


@pytest.mark.parametrize(
    "points,spacing,model,lower,upper",
    [
        (SQUARE, 0.1, "moat", 2.0, 25.430952132988164),
        (SQUARE, 0.1, "exterior", 2.0, 25.430952132988164),
        (L_SHAPE, 0.1, "moat", 3.1622776601683795, 39.253524465491196),
        (L_SHAPE, 0.1, "exterior", 3.1622776601683795, 39.253524465491196),
        (COMB, 0.2, "moat", 6.0, 73.87086095772752),
        (COMB, 0.2, "exterior", 5.618033988749895, 69.2452612679514),
    ],
)
def test_sandwich_values_are_pinned(points, spacing, model, lower, upper):
    # the values of the per-pair scalar segment tests the batched kernel
    # replaced, to the bit
    bound = max_ratio(MetricContext(validate_polygon(points), PursuerModel(model)), spacing)
    assert (bound.lower_certified, bound.upper_estimate) == (lower, upper)


class TestExteriorModelRatio:
    def test_square_exterior_matches_moat_maximum(self, square_exterior):
        # exterior geodesics on a convex polygon are the boundary arcs, so
        # the exterior-model sandwich reproduces the moat values through its
        # own (visibility-graph) machinery
        bound = max_ratio(square_exterior, 0.05)
        assert bound.lower_certified == pytest.approx(2.0, abs=0.01)
        assert bound.witness_p == pytest.approx((0.5, 0.0))


class TestSandwich:
    def test_square(self, square_moat):
        lo, hi = r_star_sandwich(square_moat, 0.05)
        assert lo == pytest.approx(2.0, abs=0.01)
        assert lo <= 5.78857 <= hi

    def test_triangle_contains_exact_value(self, triangle_moat):
        f = triangle_moat.polygon.min_feature_size
        lo, hi = r_star_sandwich(triangle_moat, f / 10 * 0.99)
        assert lo <= 7.40492 <= hi

    def test_regular_100gon_approximates_disk(self):
        ang = np.linspace(0, 2 * math.pi, 101)[:-1]
        poly = validate_polygon(np.column_stack([np.cos(ang), np.sin(ang)]))
        ctx = MetricContext(poly, PursuerModel.MOAT)
        spacing = poly.min_feature_size / 10 * 0.9
        lo, hi = r_star_sandwich(ctx, spacing)
        # arc/chord maximand theta/(2 sin(theta/2)) peaks at antipodes: pi/2
        assert lo == pytest.approx(math.pi / 2, abs=0.01)
        assert lo <= 4.6033 <= hi


class TestRefinementWork:
    def test_each_distinct_pair_evaluated_once(self, monkeypatch):
        ctx = MetricContext(validate_polygon(L_SHAPE), PursuerModel.EXTERIOR)
        ctx.interior_visibility, ctx.exterior_visibility  # build the cached graphs first
        queries, kernel_calls = [], []
        kernel = geometry.segment_visibility
        monkeypatch.setattr(geometry, "segment_visibility",
                            lambda poly, a, b: kernel_calls.append(1) or kernel(poly, a, b))
        for name in ("interior_distance", "pursuer_distance"):
            query = getattr(ctx, name)
            monkeypatch.setattr(ctx, name, lambda p, q, name=name, query=query: (
                queries.append((name, tuple(p), tuple(q))) or query(p, q)))
        # the best sample pair at spacing 0.1; the later rounds repeat searches
        *_, requested, distinct = _refine_pair(ctx, 0.7, 4.0, 0.1)
        assert len(queries) == len(set(queries)) == 2 * distinct
        assert len(kernel_calls) == len(queries)  # one kernel call per query
        assert (requested, distinct) == (253, 127)

    def test_logs_one_debug_line(self, l_moat, caplog):
        with caplog.at_level(logging.DEBUG, logger="escape_ratio.ratio"):
            max_ratio(l_moat, 0.1)
        lines = [r.getMessage() for r in caplog.records if r.name == "escape_ratio.ratio"]
        assert len(lines) == 1
        assert lines[0].startswith("max_ratio: m=80, 3160 pairs, 253 refinement evaluations (")
        assert " distinct), pairwise " in lines[0] and lines[0].endswith(" s")
