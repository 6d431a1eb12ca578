import logging
import math
import re

import numpy as np
import pytest

from escape_ratio import geometry, ratio
from escape_ratio.errors import DegeneratePair, OutsideDomain, SpacingTooCoarse
from escape_ratio.geometry import MetricContext, PursuerModel, validate_polygon
from escape_ratio.ratio import (
    _GOLDEN,
    UPPER_FACTOR,
    _batch_pairs,
    _pair_bounds,
    _pair_rows,
    _pairwise_dh,
    _pairwise_dz,
    _refine_pair,
    boundary_samples,
    max_ratio,
    ratio_of_pair,
)
from escape_ratio.sim import PolygonDomain

from conftest import COMB, L_SHAPE, RECT_1x10, SPIRAL, SQUARE, TRIANGLE, all_pairs_max_ratio
from test_geometry import L_COLLINEAR, _relabellings, _star

_ANGLES = np.linspace(0, 2 * math.pi, 101)[:-1]
GON_100 = np.column_stack([np.cos(_ANGLES), np.sin(_ANGLES)])


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

    @pytest.mark.parametrize("model", list(PursuerModel))
    def test_off_boundary_point_rejected_with_message(self, model):
        # ratio_of_pair runs the boundary test that the refinement's
        # batches skip; a point within tol of the boundary passes it
        ctx = MetricContext(validate_polygon(L_SHAPE), model)
        tol = ctx.polygon.tol
        for p in ((0.5, 0.5), (0.5, -2 * tol), (1.5, 1.5), (3.0, 3.0)):
            with pytest.raises(OutsideDomain, match="^ratio pairs must lie on the polygon boundary$"):
                ratio_of_pair(ctx, (1.0, 0.0), p)
            with pytest.raises(OutsideDomain, match="^ratio pairs must lie on the polygon boundary$"):
                ratio_of_pair(ctx, p, (1.0, 0.0))
        assert ratio_of_pair(ctx, (0.5, 0.6 * tol), (2.0, 0.5)) == pytest.approx(
            ratio_of_pair(ctx, (0.5, 0.0), (2.0, 0.5)), rel=1e-8)


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
        # too coarse, or not positive (a negative spacing would shrink the
        # inflation (d_z + s)/(d_h - s)), or not a number
        for spacing in (0.2, 0.0, -0.05, math.nan):
            with pytest.raises(SpacingTooCoarse):
                max_ratio(square_moat, spacing)

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


@pytest.mark.parametrize(
    "points,model,lower,upper",
    [
        (L_SHAPE, "moat", 3.1622776601683795, 39.253524465491196),
        (L_SHAPE, "exterior", 3.1622776601683795, 39.253524465491196),
    ],
)
def test_prune_keeps_nonconvex_maximum(points, model, lower, upper):
    # the branch and bound prunes pairs by their arc/chord bound alone, with
    # no test of whether the interior path bends; on the L-shape the maximum
    # it keeps is a pair that sees the other directly
    ctx = MetricContext(validate_polygon(points), PursuerModel(model))
    bound = max_ratio(ctx, 0.1)
    assert (bound.lower_certified, bound.upper_estimate) == (lower, upper)
    p, q = bound.witness_p, bound.witness_q
    assert ctx.interior_distance(p, q) == pytest.approx(math.dist(p, q), rel=1e-12)


@pytest.mark.parametrize(
    "points,spacing,model,lower,upper",
    [
        (SQUARE, 0.1, "moat", 2.0, 25.430952132988164),
        (SQUARE, 0.1, "exterior", 2.0, 25.430952132988164),
        (L_SHAPE, 0.1, "moat", 3.1622776601683795, 39.253524465491196),
        (L_SHAPE, 0.1, "exterior", 3.1622776601683795, 39.253524465491196),
        (COMB, 0.2, "moat", 6.0, 73.87086095772752),
        (COMB, 0.2, "exterior", 5.618033988749895, 69.2452612679514),
        (COMB, 0.1, "moat", 6.0, 69.40929040808048),
        (COMB, 0.1, "exterior", 5.618033988749895, 65.02714333355574),
    ],
)
def test_sandwich_values_are_pinned(points, spacing, model, lower, upper):
    # the values of the per-pair scalar segment tests the batched kernel
    # replaced, to the bit
    bound = max_ratio(MetricContext(validate_polygon(points), PursuerModel(model)), spacing)
    assert (bound.lower_certified, bound.upper_estimate) == (lower, upper)


@pytest.mark.parametrize("points,spacing", [(L_SHAPE, 0.1), (COMB, 0.2), (SPIRAL, 0.1)])
def test_pairwise_metrics_match_queries(points, spacing, monkeypatch):
    # the bound stage, the refinement, the queries and the playthroughs
    # measure a pair with one arithmetic in both pursuer models, so a pair's
    # sampled ratio is the one refinement would see
    measured, ratios = [], []
    pair_distances = MetricContext.pair_distances
    monkeypatch.setattr(MetricContext, "pair_distances", lambda self, *args: (
        measured.append(pair_distances(self, *args)) or measured[-1]))

    def one_pair_a_batch(bound, best, evaluate):
        # the bound stage's ratio of each sampled pair, as it uses it
        if not ratios:
            ratios.extend(evaluate(np.array([x])) for x in k)
        return 0

    monkeypatch.setattr(ratio, "_branch_and_bound", one_pair_a_batch)
    monkeypatch.setattr(ratio, "_refine_pair", lambda *args: (*args[1:3], -math.inf, 0, 0, 0, 0))
    for model in PursuerModel:
        ctx = MetricContext(validate_polygon(points), model)
        _, pts = boundary_samples(ctx, spacing)
        i, j = np.triu_indices(len(pts), k=1)
        k = np.random.default_rng(7).choice(len(i), 400, replace=False)
        measured.clear()
        ratios.clear()
        max_ratio(ctx, spacing)
        dh, dz = np.hstack(measured)
        assert np.all(dh > ctx.polygon.tol)
        assert np.array(ratios).tobytes() == (dz / dh).tobytes(), model
        domain = PolygonDomain(ctx)
        assert domain.escaper_distances(pts, i[k], j[k]).tobytes() == dh.tobytes(), model
        assert domain.pursuer_distances(pts, i[k], j[k]).tobytes() == dz.tobytes(), model
        pairs = np.stack([pts[i[k]], pts[j[k]]], axis=1)
        assert ratio._pair_measures(ctx, pairs)[2].tobytes() == (dz / dh).tobytes(), model
        for (p, q), h, z, r in zip(pairs, dh, dz, ratios):
            assert h == ctx.interior_distance(p, q), (model, p, q)
            assert z == ctx.pursuer_distance(p, q), (model, p, q)
            assert r == ratio_of_pair(ctx, p, q), (model, p, q)


# each polygon at about its coarsest admissible spacing (one tenth of its
# feature size); on the triangle the inflation search evaluates pairs that the
# ratio search left
_BOUND_CASES = [
    pytest.param(points, spacing, model, id=f"{name}-{model.value}")
    for name, points, spacing in (("square", SQUARE, 0.1), ("triangle", TRIANGLE, 0.085),
                                  ("L", L_SHAPE, 0.1), ("L-collinear", L_COLLINEAR, 0.1),
                                  ("comb", COMB, 0.2), ("spiral", SPIRAL, 0.1))
    for model in PursuerModel
]


def _bits(bound):
    return [float(x).hex() for x in (bound.lower_certified, bound.upper_estimate,
                                     *bound.witness_p, *bound.witness_q)]


class TestBranchAndBound:
    @pytest.mark.parametrize("points,spacing,model", _BOUND_CASES)
    def test_matches_all_pairs(self, points, spacing, model, monkeypatch):
        # a first batch of one pair makes the search stop in later batches
        ctx = MetricContext(validate_polygon(points), model)
        ref = _bits(all_pairs_max_ratio(ctx, spacing))
        for first in (ratio._BOUND_BATCH, 1):
            monkeypatch.setattr(ratio, "_BOUND_BATCH", first)
            assert _bits(max_ratio(ctx, spacing)) == ref, first

    @pytest.mark.parametrize("points,spacing,model", _BOUND_CASES)
    def test_bounds_hold_on_every_pair(self, points, spacing, model):
        # the premise that makes the search exact: d_h >= chord, d_z <= arc
        ctx = MetricContext(validate_polygon(points), model)
        poly = ctx.polygon
        params, pts = boundary_samples(ctx, spacing)
        i, j = np.triu_indices(len(params), k=1)
        chord = np.hypot(*(pts[j] - pts[i]).T)
        arc = poly.arc_distance(params[i], params[j])
        dz = _pairwise_dz(ctx, pts, i, j)
        dh = _pairwise_dh(ctx, pts, i, j)
        assert np.all(dz <= arc * (1 + 1e-12) + 1e-12)
        assert np.all(dh >= chord * (1 - 1e-12) - 1e-12)
        ratio_ub, _ = _pair_bounds(poly, params, pts, spacing, 2 * spacing)
        assert np.array_equal(ratio_ub, arc / chord)

    def test_pair_rows_follow_triu_order(self, monkeypatch):
        for m in (2, 3, 7, 80):
            k = np.arange(m * (m - 1) // 2)
            assert all(map(np.array_equal, _pair_rows(m, k), np.triu_indices(m, k=1)))
        # bounds formed in blocks of 5 pairs are the one-block bounds
        ctx = MetricContext(validate_polygon(L_SHAPE), PursuerModel.EXTERIOR)
        params, pts = boundary_samples(ctx, 0.1)
        whole = _pair_bounds(ctx.polygon, params, pts, 0.1, 0.5)
        monkeypatch.setattr(ratio, "_BOUND_BLOCK", 5)
        blocks = _pair_bounds(ctx.polygon, params, pts, 0.1, 0.5)
        assert all(map(np.array_equal, whole, blocks))

    def test_pair_within_tol_is_evaluated(self, monkeypatch):
        # a pair with chord <= tol has bound inf, so it is evaluated although
        # its ratio (-inf: d_h is below tol) never wins
        ctx = MetricContext(validate_polygon(L_SHAPE), PursuerModel.EXTERIOR)
        params, pts = boundary_samples(ctx, 0.1)
        t = params[7] + ctx.polygon.tol / 2
        twin = np.insert(params, 8, t), np.insert(pts, 8, ctx.polygon.boundary_point(t), axis=0)
        assert 0 < np.hypot(*(twin[1][8] - twin[1][7])) <= ctx.polygon.tol
        monkeypatch.setattr(ratio, "boundary_samples", lambda ctx, spacing: twin)
        ratio_ub, _ = _pair_bounds(ctx.polygon, *twin, 0.1, 0.5)
        i, j = np.triu_indices(len(twin[0]), k=1)
        assert ratio_ub[(i == 7) & (j == 8)] == np.inf
        seen = []
        geodesics = geometry.pair_geodesics
        monkeypatch.setattr(geometry, "pair_geodesics", lambda poly, pts, i, j, sides: (
            seen.extend(map(tuple, np.hstack([pts[i], pts[j]]))) or geodesics(poly, pts, i, j, sides)))
        got = max_ratio(ctx, 0.1)
        assert tuple(np.hstack(twin[1][7:9])) in seen
        assert _bits(got) == _bits(all_pairs_max_ratio(ctx, 0.1))

    @pytest.mark.parametrize("points,spacing", [(L_SHAPE, 0.1), (COMB, 0.2)], ids=["L", "comb"])
    def test_exterior_bound_stage_one_kernel_call_per_batch(self, points, spacing, monkeypatch):
        # each bound batch measures d_h and d_z in one pair_geodesics call,
        # whose one kernel call tests both sides
        ctx = MetricContext(validate_polygon(points), PursuerModel.EXTERIOR)
        ctx.interior_visibility, ctx.exterior_visibility  # build the cached graphs first
        batches, kernel_calls, sides = [], [], []
        bound = ratio._branch_and_bound
        monkeypatch.setattr(ratio, "_branch_and_bound", lambda bd, best, evaluate: bound(
            bd, best, lambda k: batches.append(len(k)) or evaluate(k)))
        kernel = geometry.segment_visibility
        monkeypatch.setattr(geometry, "segment_visibility",
                            lambda poly, a, b: kernel_calls.append(1) or kernel(poly, a, b))
        geodesics = geometry.pair_geodesics
        monkeypatch.setattr(geometry, "pair_geodesics", lambda poly, pts, i, j, s: (
            sides.append(tuple(s)) or geodesics(poly, pts, i, j, s)))
        monkeypatch.setattr(ratio, "_refine_pair", lambda *args: (*args[1:3], -math.inf, 0, 0, 0, 0))
        max_ratio(ctx, spacing)
        assert batches and sides == [(0, 1)] * len(batches)
        assert len(kernel_calls) == len(batches)


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
        bound = max_ratio(square_moat, 0.05)
        assert bound.lower_certified == pytest.approx(2.0, abs=0.01)
        assert bound.lower_certified <= 5.78857 <= bound.upper_estimate

    def test_triangle_contains_exact_value(self, triangle_moat):
        f = triangle_moat.polygon.min_feature_size
        bound = max_ratio(triangle_moat, f / 10 * 0.99)
        assert bound.lower_certified <= 7.40492 <= bound.upper_estimate

    def test_regular_100gon_approximates_disk(self):
        poly = validate_polygon(GON_100)
        ctx = MetricContext(poly, PursuerModel.MOAT)
        spacing = poly.min_feature_size / 10 * 0.9
        bound = max_ratio(ctx, spacing)
        # arc/chord maximand theta/(2 sin(theta/2)) peaks at antipodes: pi/2
        assert bound.lower_certified == pytest.approx(math.pi / 2, abs=0.01)
        assert bound.lower_certified <= 4.6033 <= bound.upper_estimate


def _reference_refine(ctx, t_p, t_q, spacing):
    """The pair-at-a-time refinement the batched one replaced: a scalar
    query per metric for each distinct pair, in the order the golden-section
    searches ask.  Returns ``(tp, tq, ratio, evaluations requested)``."""
    poly = ctx.polygon
    F = poly.perimeter
    memo: dict = {}
    requested = 0

    def value(tp, tq) -> float:
        nonlocal requested
        requested += 1
        if (tp, tq) not in memo:
            p = poly.boundary_point(tp)
            q = poly.boundary_point(tq)
            dh = ctx.interior_distance(p, q)
            memo[tp, tq] = -np.inf if dh <= poly.tol else ctx.pursuer_distance(p, q) / dh
        return memo[tp, tq]

    def golden(fix, lo, hi, which):
        a, b = lo, hi
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc = value(c, fix) if which == 0 else value(fix, c)
        fd = value(d, fix) if which == 0 else value(fix, d)
        for _ in range(40):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = value(c, fix) if which == 0 else value(fix, c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = value(d, fix) if which == 0 else value(fix, d)
        t = c if fc >= fd else d
        return t, max(fc, fd)

    best = value(t_p, t_q)
    tp, tq = t_p, t_q
    for _ in range(3):
        t, val = golden(tq, tp - spacing, tp + spacing, 0)
        if val > best:
            best, tp = val, t % F
        t, val = golden(tp, tq - spacing, tq + spacing, 1)
        if val > best:
            best, tq = val, t % F
    return tp, tq, best, requested


_REFINE_CASES = [
    pytest.param(points, spacing, model, id=f"{name}-{model.value}")
    for name, points, spacing in (("square", SQUARE, 0.1), ("triangle", TRIANGLE, 0.08),
                                  ("L", L_SHAPE, 0.1), ("comb", COMB, 0.2),
                                  ("spiral", SPIRAL, 0.5), ("100-gon", GON_100, 0.05))
    for model in PursuerModel
    # the 100-gon's exterior reference takes about 2 s per start
    if not (points is GON_100 and model is PursuerModel.EXTERIOR)
]


@pytest.mark.parametrize("points,spacing,model", _REFINE_CASES)
def test_batched_refinement_matches_pair_at_a_time(points, spacing, model):
    # from the best sample pair, from a pair with t_p == t_q (its first ratio
    # is -inf) and from one whose windows cross parameter 0 at both ends
    ctx = MetricContext(validate_polygon(points), model)
    F = ctx.polygon.perimeter
    params, pts = boundary_samples(ctx, spacing)
    i, j = np.triu_indices(len(params), k=1)
    k = int(np.argmax(_pairwise_dz(ctx, pts, i, j) / _pairwise_dh(ctx, pts, i, j)))
    rng = np.random.default_rng(len(points))
    t, (u, w) = rng.uniform(0, F), rng.uniform(0, spacing, 2)
    for t_p, t_q in ((params[i[k]], params[j[k]]), (t, t), (u, F - w)):
        got = _refine_pair(ctx, float(t_p), float(t_q), spacing)[:4]
        ref = _reference_refine(ctx, float(t_p), float(t_q), spacing)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in ref], (t_p, t_q)


class _Inverted(float):
    """A predicted ratio whose every comparison answers the opposite, so a
    path through it takes the other branch at each step it decides."""

    def __ge__(self, other):
        return not float.__ge__(self, other)

    def __le__(self, other):
        return not float.__le__(self, other)


@pytest.mark.parametrize("points,spacing,model", _REFINE_CASES)
def test_refinement_exact_under_any_prediction(points, spacing, model, monkeypatch):
    # the loop reads only exact memoized ratios: predictions that always
    # take the wrong branch (the geodesic form's where it fits) or none at
    # all (the branch tree alone) change the batches and never a value or a
    # request
    ctx = MetricContext(validate_polygon(points), model)
    F = ctx.polygon.perimeter
    params, pts = boundary_samples(ctx, spacing)
    i, j = np.triu_indices(len(params), k=1)
    k = int(np.argmax(_pairwise_dz(ctx, pts, i, j) / _pairwise_dh(ctx, pts, i, j)))
    rng = np.random.default_rng(len(points))
    t, (u, w) = rng.uniform(0, F), rng.uniform(0, spacing, 2)
    form_model = ratio._Form.model

    def wrong(form, *args):
        m = form_model(form, *args)
        return m and (lambda x: _Inverted(m(x)))

    distinct = []
    monkeypatch.setattr(ctx, "interior_distance",  # called once a distinct pair
                        lambda p, q, f=ctx.interior_distance: distinct.append(1) or f(p, q))
    for t_p, t_q in ((float(params[i[k]]), float(params[j[k]])), (t, t), (u, F - w)):
        distinct.clear()
        ref = [float(x).hex() for x in _reference_refine(ctx, t_p, t_q, spacing)]
        ref.append(len(distinct))
        for predict in (wrong, lambda form, *args: None):
            monkeypatch.setattr(ratio._Form, "model", predict)
            got = _refine_pair(ctx, t_p, t_q, spacing)
            assert [float(x).hex() for x in got[:4]] + [got[4]] == ref, (t_p, t_q)


def _fetched(ctx, fix, ts):
    # (d_h, d_z, ratio) of the pairs (t, fix), as the refinement fetches them
    ts = np.asarray(ts, dtype=float)
    pts = ctx.polygon.boundary_point(np.column_stack([ts, np.full_like(ts, fix)]))
    return ratio._pair_measures(ctx, pts)


@pytest.mark.parametrize("points,model,fix,lo,hi,u", [
    # (0, 1.5) sees the bottom edge of the L; the exterior d_z bends at (0, 0)
    pytest.param(L_SHAPE, PursuerModel.EXTERIOR, 6.5, 0.3, 0.6, None, id="direct"),
    # from the right edge to (0.5, 2) the path bends at the reflex (1, 1)
    pytest.param(L_SHAPE, PursuerModel.EXTERIOR, 5.5, 2.2, 2.6, (1.0, 1.0), id="bent"),
    pytest.param(L_SHAPE, PursuerModel.MOAT, 5.5, 2.2, 2.6, (1.0, 1.0), id="moat-arc"),
    # from the square's top edge to (0.5, 0) the exterior d_z goes round the
    # right side before t = 2.5 and the left after: one form on each side
    pytest.param(SQUARE, PursuerModel.EXTERIOR, 0.5, 2.4, 2.6, None, id="kink"),
])
def test_geodesic_form_predicts_fetched_ratios(points, model, fix, lo, hi, u):
    # fitted from three fetched pairs with the moving end on one edge, the
    # form gives the fetched ratio at 20 other t of the window
    ctx = MetricContext(validate_polygon(points), model)
    form = ratio._Form(ctx)
    ts = [lo + 0.1 * (hi - lo), (lo + hi) / 2, hi - 0.1 * (hi - lo)]
    dh, dz, r = _fetched(ctx, fix, ts)
    q, ends = form.point(fix), [form.point(t) for t in ts]
    F = ctx.polygon.perimeter
    for t in (fix, *ts, fix - F, F + lo):  # boundary_point's arithmetic
        assert form.point(t) == tuple(ctx.polygon.boundary_point(t).tolist())
    assert form._fit(q, ends, dh.tolist())[:2] == (u or q)  # d_h leaves p for u
    predict = form.model(fix, dict(zip(ts, r.tolist())), dict(zip(ts, zip(dh, dz))))
    others = np.linspace(lo, hi, 22)[1:-1]
    want = _fetched(ctx, fix, others)[2]
    got = np.array([predict(t) for t in others])
    assert np.all(np.abs(got - want) <= 1e-12 * want), np.abs(got / want - 1).max()


def test_geodesic_form_is_confirmed_past_a_kink():
    # from the square's top edge to (0.5, 0) the exterior d_z goes round the
    # right side before t = 2.5 and the left after.  The best fetched point,
    # 2.45, and 2.4 fit the right route; 2.55 and 2.6 lie past the kink, where
    # that fit fails, and fit the left route alone: there the model takes the
    # shorter of the two, which is the fetched ratio on both sides of 2.5
    ctx = MetricContext(validate_polygon(SQUARE), PursuerModel.EXTERIOR)
    form = ratio._Form(ctx)
    ts = [2.4, 2.45, 2.55, 2.6]
    dh, dz, r = _fetched(ctx, 0.5, ts)
    near = dict(zip(ts, zip(dh, dz)))
    predict = form.model(0.5, dict(zip(ts, r.tolist())), near)
    assert predict is not None
    others = np.concatenate([np.linspace(2.4, 2.5, 22)[1:-1], np.linspace(2.5, 2.6, 22)[1:-1]])
    want = _fetched(ctx, 0.5, others)[2]
    got = np.array([predict(t) for t in others])
    assert np.all(np.abs(got - want) <= 1e-12 * want), np.abs(got / want - 1).max()
    # 2.45 and 2.55 have equal d_z, and so does the direct form from the
    # fixed end: without 2.4 the best point has no route of its own, and
    # 2.6 rejects the direct form, so there is no model
    del near[2.4]
    assert form.model(0.5, dict(zip(ts, r.tolist())), near) is None


@pytest.mark.parametrize(
    "points,spacing,model",
    [pytest.param(points, spacing, model, id=f"{name}-{model.value}")
     for name, points, spacing in (("L", L_SHAPE, 0.1), ("comb", COMB, 0.2), ("spiral", SPIRAL, 0.1),
                                   ("square", SQUARE, 0.1), ("triangle", TRIANGLE, 0.085))
     for model in PursuerModel],
)
def test_sample_ratio_seeds_refinement(points, spacing, model, monkeypatch):
    # max_ratio passes the best sample pair's ratio in: it is the ratio the
    # refinement's first batch would evaluate, to the bit, so the result is
    # the same with one pair and one batch fewer
    refine, calls = ratio._refine_pair, []
    monkeypatch.setattr(ratio, "_refine_pair", lambda *args: calls.append(args) or refine(*args))
    relabellings = _relabellings(points)
    for k in range(4):  # shift k, k quarter-turns
        ctx = MetricContext(validate_polygon(relabellings[5 * k % len(relabellings)]), model)
        calls.clear()
        max_ratio(ctx, spacing)
        ((_, t_p, t_q, _, start),) = calls
        pts = ctx.polygon.boundary_point(np.array([[t_p, t_q]]))
        assert start.hex() == float(ratio._pair_measures(ctx, pts)[2][0]).hex()
        seeded, cold = refine(ctx, t_p, t_q, spacing, start), refine(ctx, t_p, t_q, spacing)
        assert [float(x).hex() for x in seeded[:5]] == [float(x).hex() for x in cold[:5]]
        assert (seeded[5], seeded[6]) == (cold[5] - 1, cold[6] - 1)


@pytest.mark.parametrize("points", [L_SHAPE, COMB, [tuple(p) for p in _star(24)]],
                         ids=["L", "comb", "star48"])
def test_refinement_batches_lie_on_the_boundary(points, monkeypatch):
    # _pair_measures runs no domain test: every pair _refine_pair fetches is
    # within tol of the boundary, on the relabellings of seeds 0-5, from a
    # random start at f/10 (boundary_point makes the points in either model)
    batches, pair_measures = [], ratio._pair_measures
    monkeypatch.setattr(ratio, "_pair_measures", lambda ctx, pts: batches.append(pts)
                        or pair_measures(ctx, pts))
    relabellings = _relabellings(points)
    for seed in range(6):
        poly = validate_polygon(relabellings[5 * seed % len(relabellings)])
        t_p, t_q = np.random.default_rng(seed).uniform(0, poly.perimeter, 2)
        batches.clear()
        _refine_pair(MetricContext(poly, PursuerModel.EXTERIOR), t_p, t_q,
                     poly.min_feature_size / 10)
        pts = np.concatenate(batches).reshape(-1, 2)
        assert np.all(geometry._boundary_distance2(poly, pts) <= poly.tol**2), seed


class TestRefinementWork:
    def test_each_distinct_pair_evaluated_once(self, monkeypatch):
        ctx = MetricContext(validate_polygon(L_SHAPE), PursuerModel.EXTERIOR)
        ctx.interior_visibility, ctx.exterior_visibility  # build the cached graphs first
        rows, kernel_calls = [], []
        kernel = geometry.segment_visibility
        monkeypatch.setattr(geometry, "segment_visibility",
                            lambda poly, a, b: kernel_calls.append(1) or kernel(poly, a, b))
        geodesics = geometry.pair_geodesics
        monkeypatch.setattr(geometry, "pair_geodesics", lambda poly, pts, i, j, sides: (
            rows.extend(map(tuple, np.hstack([pts[i], pts[j]]))) or geodesics(poly, pts, i, j, sides)))
        for name in ("interior_distance", "pursuer_distance"):
            monkeypatch.delattr(MetricContext, name)  # no scalar query
        # the best sample pair at spacing 0.1; the later rounds repeat searches
        *_, requested, distinct, evaluated, batches = _refine_pair(ctx, 0.7, 4.0, 0.1)
        assert len(rows) == len(set(rows)) == evaluated
        assert len(kernel_calls) == batches  # one kernel call per batch, both metrics
        assert (requested, distinct, evaluated, batches) == (253, 127, 149, 7)

    @pytest.mark.parametrize("points,work", [pytest.param(COMB, (253, 169, 204, 10), id="comb"),
                                             pytest.param(SQUARE, (253, 85, 98, 4), id="square")])
    def test_kinks_cost_no_fallback(self, points, work):
        # exterior model at f/13, from max_ratio's own start: the searches
        # meet kinks of d_z, where the geodesic form takes the shorter of two
        # routes; (requested, distinct, evaluated, batches)
        ctx = MetricContext(validate_polygon(points), PursuerModel.EXTERIOR)
        stats = max_ratio(ctx, ctx.polygon.min_feature_size / 13).stats
        assert tuple(stats["refine_" + k] for k in ("requested", "distinct", "evaluated",
                                                    "batches")) == work

    @pytest.mark.parametrize("model", list(PursuerModel))
    def test_sandwich_builds_no_pieces(self, model):
        # the convex pieces serve the move relations' piece rule alone
        ctx = MetricContext(validate_polygon(L_SHAPE), model)
        max_ratio(ctx, 0.1)
        assert "_pieces" not in ctx.polygon.__dict__

    def test_batch_pairs_per_vertex_count(self):
        # a batch of 1 + n segments a pair against n edges stays within the
        # element budget, and holds at least the floor's pairs
        budgets = {n: _batch_pairs(n) for n in (3, 4, 6, 8, 14, 24, 48, 100)}
        assert budgets == {3: 341, 4: 204, 6: 97, 8: 56, 14: 19, 24: 6, 48: 3, 100: 3}

    def test_logs_one_debug_line(self, l_moat, caplog):
        with caplog.at_level(logging.DEBUG, logger="escape_ratio.ratio"):
            max_ratio(l_moat, 0.1)
        lines = [r.getMessage() for r in caplog.records if r.name == "escape_ratio.ratio"]
        assert len(lines) == 1
        assert lines[0].startswith("max_ratio: m=80, 3160 pairs, 256 evaluated in 1 bound batches, "
                                   "253 refinement evaluations (")
        assert re.search(r" \(\d+ distinct\), \d+ pairs evaluated in \d+ batches, pairwise ",
                         lines[0]) and lines[0].endswith(" s")
