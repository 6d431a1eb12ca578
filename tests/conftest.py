import functools
import math

import numpy as np
import pytest

from escape_ratio import ratio
from escape_ratio.geometry import MetricContext, Point2, PursuerModel, validate_polygon

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
L_SHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
RECT_1x10 = [(0, 0), (10, 0), (10, 1), (0, 1)]
TRIANGLE = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
COMB = [(0, 0), (6, 0), (6, 4), (4, 4), (4, 2), (2, 2), (2, 4), (0, 4)]
# a unit-wide corridor winding inward from the bottom left; its exterior
# pocket winds the same way, so geodesics of both models bend at many vertices
SPIRAL = [(0, 0), (6, 0), (6, 6), (1, 6), (1, 2), (4, 2), (4, 4), (3, 4), (3, 3),
          (2, 3), (2, 5), (5, 5), (5, 1), (0, 1)]


@pytest.fixture(scope="session")
def square():
    return validate_polygon(SQUARE)


@pytest.fixture(scope="session")
def square_moat(square):
    return MetricContext(square, PursuerModel.MOAT)


@pytest.fixture(scope="session")
def square_exterior(square):
    return MetricContext(square, PursuerModel.EXTERIOR)


@pytest.fixture(scope="session")
def l_shape():
    return validate_polygon(L_SHAPE)


@pytest.fixture(scope="session")
def l_moat(l_shape):
    return MetricContext(l_shape, PursuerModel.MOAT)


@pytest.fixture(scope="session")
def triangle_moat():
    return MetricContext(validate_polygon(TRIANGLE), PursuerModel.MOAT)


def random_convex_polygon(rng, n):
    """Valtr's construction: convex polygon with exactly n vertices."""
    while True:
        xs = np.sort(rng.random(n))
        ys = np.sort(rng.random(n))

        def deltas(vals):
            lo, hi = vals[0], vals[-1]
            mid = vals[1:-1]
            side = rng.random(len(mid)) < 0.5
            a = np.concatenate([[lo], mid[side], [hi]])
            b = np.concatenate([[lo], mid[~side], [hi]])
            return np.concatenate([np.diff(a), -np.diff(b)])

        dx = deltas(xs)
        dy = rng.permutation(deltas(ys))
        vec = np.column_stack([dx, dy])
        ang = np.arctan2(vec[:, 1], vec[:, 0])
        pts = np.cumsum(vec[np.argsort(ang)], axis=0)
        try:
            poly = validate_polygon(pts)
        except Exception:
            continue
        if poly.is_convex and poly.n == n:
            return poly


def reference_distance_to_boundary(poly, p):
    """Distance from ``p`` to its nearest edge, one point at a time: the
    scalar oracle for ``Polygon.distance_to_boundary``."""
    p = np.asarray(p, dtype=float)
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    t = np.clip(((p - v) * e).sum(axis=1) / np.maximum(poly.edge_lengths**2, 1e-300), 0.0, 1.0)
    proj = v + t[:, None] * e
    return float(np.sqrt(((proj - p) ** 2).sum(axis=1).min()))


def reference_classify(poly, p):
    """'boundary', 'inside' or 'outside', one point at a time: the scalar
    oracle for ``point_classes``.  A point within tol of an edge (by its
    square-rooted distance) is on the boundary; otherwise half-open ray
    casting toward +x decides."""
    p = np.asarray(p, dtype=float)
    if reference_distance_to_boundary(poly, p) <= poly.tol:
        return "boundary"
    v = poly.vertices
    w = np.roll(v, -1, axis=0)
    cond = (v[:, 1] <= p[1]) != (w[:, 1] <= p[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = v[:, 0] + (p[1] - v[:, 1]) * (w[:, 0] - v[:, 0]) / (w[:, 1] - v[:, 1])
    crossings = int(np.count_nonzero(cond & (xs > p[0])))
    return "inside" if crossings % 2 == 1 else "outside"


@functools.lru_cache(maxsize=1)  # both prune values reuse one evaluation
def _all_pair_metrics(ctx, spacing):
    params, pts = ratio.boundary_samples(ctx, spacing)
    iu, ju = np.triu_indices(len(params), k=1)
    return (params, pts, iu, ju, ratio._pairwise_dh(ctx, pts, iu, ju),
            ratio._pairwise_dz(ctx, params, pts, iu, ju))


def all_pairs_max_ratio(ctx, spacing, prune=False):
    """``max_ratio`` with every sample pair evaluated exactly: the all-pairs
    argmax and inflation that its branch and bound replaced, as its oracle."""
    poly = ctx.polygon
    params, pts, iu, ju, dh_u, dz_u = _all_pair_metrics(ctx, spacing)
    valid = dh_u > poly.tol
    if prune and not poly.is_convex:
        chord = np.hypot(*(pts[ju] - pts[iu]).T)
        valid &= np.abs(chord - dh_u) <= 10 * poly.tol
    ratios = np.where(valid, dz_u / np.maximum(dh_u, poly.tol), -np.inf)
    k = int(np.argmax(ratios))  # ties: smallest (i, j) in lexicographic order
    tp, tq, refined, *_ = ratio._refine_pair(ctx, float(params[iu[k]]), float(params[ju[k]]),
                                             spacing)
    lower = max(float(ratios[k]), refined)
    floor = max(2.0 * spacing, poly.min_feature_size / 2.0)
    infl_mask = valid & (dh_u >= floor)
    inflated = lower
    if np.any(infl_mask):
        inflated = float(np.max((dz_u[infl_mask] + spacing) / (dh_u[infl_mask] - spacing)))
    return ratio.RatioBound(
        lower_certified=lower,
        upper_estimate=ratio.UPPER_FACTOR * max(inflated, lower),
        witness_p=Point2(*map(float, poly.boundary_point(tp))),
        witness_q=Point2(*map(float, poly.boundary_point(tq))),
        sampling_spacing=float(spacing),
    )


def random_point_inside(rng, poly):
    lo, hi = poly.bbox
    while True:
        p = lo + rng.random(2) * (hi - lo)
        if reference_classify(poly, p) == "inside":
            return p


def minimax_escaper_wins(game, h0, z0, depth=None):
    """Exhaustive memoized minimax on the raw game rules (solver oracle).

    Depth |escaper-turn states| + 1 suffices: a forced win never needs to
    revisit a state.
    """
    nh, nz = game.n_h, game.n_z
    if depth is None:
        depth = nh * nz + 1
    eh = game.e_h.toarray()
    ez = game.e_z
    exits_h = game.samples.exit_idx_h
    exits_z = game.samples.exit_idx_z
    memo = {}

    def predicate(h_threat, z):
        return bool(np.any(eh[h_threat, exits_h] & ~ez[z, exits_z]))

    def esc_win(h, z, d):
        if d == 0:
            return False
        key = (h, z, d)
        if key in memo:
            return memo[key]
        result = False
        for h2 in np.nonzero(eh[h])[0]:
            pursuer_survives = False
            for z2 in np.nonzero(ez[z])[0]:
                if predicate(h, z2):
                    continue
                if not esc_win(h2, z2, d - 1):
                    pursuer_survives = True
                    break
            if not pursuer_survives:
                result = True
                break
        memo[key] = result
        return result

    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 10 * depth + 100))
    try:
        return esc_win(h0, z0, depth)
    finally:
        sys.setrecursionlimit(old)
