"""Constant-factor sandwich on the critical speed ratio.

The maximum of d_z(p,q)/d_h(p,q) over boundary pairs is a certified lower
bound on r*: the escaper starts at p and runs straight to q, and the pursuer
cannot cover its longer distance in time unless the speed ratio reaches that
quotient.  Multiplying a conservatively inflated estimate of the same maximum
by 2*(3+sqrt(6)) < 10.89898 gives the upper side of the sandwich.

The maximizer is located by sampling the boundary at a given arc spacing,
evaluating all pairs, and locally refining the best pair on its two incident
edges.  The exact arrangement-based maximizer is deliberately not implemented;
sampling plus refinement provides the certified lower bound and a usable upper
estimate at a fraction of the complexity.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, OutsideDomain, SpacingTooCoarse
from .geometry import MetricContext, Point2, PursuerModel, segment_visibility

# Not called here: kept so ``escape_ratio.ratio.segment_in_polygon`` still
# resolves for the layer tracer in perfbench/tracing.py.
from .geometry import segment_in_polygon  # noqa: F401

logger = logging.getLogger(__name__)

UPPER_FACTOR = 2.0 * (3.0 + math.sqrt(6.0))  # < 10.89898

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RatioBound:
    """Certified lower bound and inflated upper estimate for max d_z/d_h."""

    lower_certified: float
    upper_estimate: float
    witness_p: Point2
    witness_q: Point2
    sampling_spacing: float

    def to_document(self) -> dict:
        return {
            "lower": self.lower_certified,
            "upper": self.upper_estimate,
            "witness_p": [self.witness_p.x, self.witness_p.y],
            "witness_q": [self.witness_q.x, self.witness_q.y],
            "spacing": self.sampling_spacing,
        }


def ratio_of_pair(ctx: MetricContext, p, q) -> float:
    """d_z(p,q) / d_h(p,q) for two boundary points; a lower bound on r*."""
    poly = ctx.polygon
    for pt in (p, q):
        if poly.distance_to_boundary(pt) > poly.tol:
            raise OutsideDomain("ratio pairs must lie on the polygon boundary")
    dh = ctx.interior_distance(p, q)
    if dh <= poly.tol:
        raise DegeneratePair("d_h(p, q) is below tolerance")
    dz = ctx.pursuer_distance(p, q)
    return dz / dh


def boundary_samples(ctx: MetricContext, spacing: float):
    """Boundary points at arc spacing <= spacing; returns (params, points).

    Each edge is subdivided uniformly into ceil(len/spacing) pieces, so halving
    the spacing yields a nested (refined) sample set.
    """
    poly = ctx.polygon
    params = []
    for i in range(poly.n):
        L = poly.edge_lengths[i]
        m = max(1, int(np.ceil(L / spacing - 1e-12)))
        t0 = poly.cumulative_lengths[i]
        params.extend(t0 + L * k / m for k in range(m))
    params = np.array(sorted(params))
    pts = np.array([poly.boundary_point(t) for t in params])
    return params, pts


def _pairwise_dh(ctx: MetricContext, params: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Interior geodesic distance matrix between boundary samples."""
    if ctx.polygon.is_convex:
        diff = pts[:, None, :] - pts[None, :, :]
        return np.hypot(diff[..., 0], diff[..., 1])
    return _visibility_geodesics(ctx.polygon, pts, interior=True)


def _pairwise_dz(ctx: MetricContext, params: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Pursuer distance matrix between boundary samples."""
    poly = ctx.polygon
    if ctx.model is PursuerModel.MOAT:
        F = poly.perimeter
        d = np.abs(params[:, None] - params[None, :]) % F
        return np.minimum(d, F - d)
    return _visibility_geodesics(poly, pts, interior=False)


def _visibility_geodesics(poly, pts: np.ndarray, interior: bool) -> np.ndarray:
    """Geodesics between pts on the visibility graph over pts plus vertices.

    ``interior`` picks segments within the closed polygon (d_h); otherwise
    segments that avoid the open interior (exterior-model d_z).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as cs_dijkstra

    m = len(pts)
    nodes = np.vstack([pts, poly.vertices])
    total = len(nodes)
    iu, ju = np.triu_indices(total, k=1)
    ok = segment_visibility(poly, nodes[iu], nodes[ju])[0 if interior else 1]
    iu, ju = iu[ok], ju[ok]
    w = np.hypot(*(nodes[ju] - nodes[iu]).T)
    adj = np.zeros((total, total))
    adj[iu, ju] = w
    adj[ju, iu] = w
    dist = cs_dijkstra(csr_matrix(adj), directed=False, indices=np.arange(m))
    return dist[:, :m]


def _refine_pair(ctx: MetricContext, t_p: float, t_q: float, spacing: float):
    """Golden-section refinement of the ratio around a sample pair.

    Alternates one-dimensional searches along the boundary arc around each
    point, each over a window of +/- one spacing, accepting only improvements.
    Returns ``(tp, tq, ratio, evaluations requested, evaluations made)``.
    """
    poly = ctx.polygon
    F = poly.perimeter
    # later rounds repeat searches whose fixed end and window did not move
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
    return tp, tq, best, requested, len(memo)


def max_ratio(
    ctx: MetricContext,
    spacing: float,
    prune: bool = False,
) -> RatioBound:
    """Sample boundary pairs, refine the best one, and build the sandwich.

    ``prune`` drops pairs whose interior shortest path touches the boundary
    strictly between the endpoints (valid when the exit set is the whole
    boundary: some maximizing pair always has a direct path).
    """
    poly = ctx.polygon
    f = poly.min_feature_size
    if spacing > f / 10 + poly.tol:
        raise SpacingTooCoarse(
            f"spacing {spacing} exceeds one tenth of the min feature size {f}"
        )
    params, pts = boundary_samples(ctx, spacing)
    t0 = time.perf_counter()
    dh = _pairwise_dh(ctx, params, pts)
    dz = _pairwise_dz(ctx, params, pts)
    t1 = time.perf_counter()

    m = len(params)
    iu, ju = np.triu_indices(m, k=1)
    dh_u = dh[iu, ju]
    dz_u = dz[iu, ju]
    valid = dh_u > poly.tol
    if prune and not poly.is_convex:
        diffs = pts[ju] - pts[iu]
        chord = np.hypot(diffs[:, 0], diffs[:, 1])
        valid &= np.abs(chord - dh_u) <= 10 * poly.tol
    ratios = np.where(valid, dz_u / np.maximum(dh_u, poly.tol), -np.inf)
    k = int(np.argmax(ratios))  # ties: smallest (i, j) in lexicographic order
    t_p, t_q = float(params[iu[k]]), float(params[ju[k]])
    sample_max = float(ratios[k])

    t2 = time.perf_counter()
    tp, tq, refined, requested, distinct = _refine_pair(ctx, t_p, t_q, spacing)
    logger.debug("max_ratio: m=%d, %d pairs, %d refinement evaluations (%d distinct), "
                 "pairwise %.4f s, refine %.4f s", m, len(iu), requested, distinct,
                 t1 - t0, time.perf_counter() - t2)
    lower = max(sample_max, refined)
    wp = poly.boundary_point(tp)
    wq = poly.boundary_point(tq)

    # Lipschitz inflation: any boundary pair lies within one spacing (in arc
    # length, hence in both metrics) of a sample pair, so the true maximum is
    # at most max (d_z + s)/(d_h - s) over feature-scale pairs.  Pairs below
    # the feature scale are sampled scale-freely (corner cones), where the
    # additive correction is meaningless, so they are left out of the set.
    floor = max(2.0 * spacing, f / 2.0)
    infl_mask = valid & (dh_u >= floor)
    if np.any(infl_mask):
        inflated = float(
            np.max((dz_u[infl_mask] + spacing) / (dh_u[infl_mask] - spacing))
        )
    else:
        inflated = lower
    upper = UPPER_FACTOR * max(inflated, lower)

    return RatioBound(
        lower_certified=lower,
        upper_estimate=upper,
        witness_p=Point2(*map(float, wp)),
        witness_q=Point2(*map(float, wq)),
        sampling_spacing=float(spacing),
    )


def r_star_sandwich(ctx: MetricContext, spacing: float, prune: bool = False):
    """(lower, upper) bounds on the critical speed ratio r*."""
    bound = max_ratio(ctx, spacing, prune=prune)
    return bound.lower_certified, bound.upper_estimate
