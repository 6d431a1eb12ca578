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
from .geometry import (
    MetricContext,
    Point2,
    PursuerModel,
    _boundary_distance2,
    pair_geodesics,
)

# Not called here: kept so ``escape_ratio.ratio.segment_in_polygon`` still
# resolves for the layer tracer in perfbench/tracing.py.
from .geometry import segment_in_polygon  # noqa: F401

logger = logging.getLogger(__name__)

UPPER_FACTOR = 2.0 * (3.0 + math.sqrt(6.0))  # < 10.89898

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# most golden steps whose pairs one refinement batch fetches ahead
_LOOKAHEAD = 3
# segment x edge elements a lookahead batch may hold before it looks one
# step less far: 3 steps for n <= 11, 2 for n = 12-16, 1 from n = 17
_LOOKAHEAD_ELEMENTS = 2**12


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
    if np.any(_boundary_distance2(poly, np.array([p, q], dtype=float)) > poly.tol**2):
        raise OutsideDomain("ratio pairs must lie on the polygon boundary")
    dh = ctx.interior_distance(p, q)
    if dh <= poly.tol:
        raise DegeneratePair("d_h(p, q) is below tolerance")
    dz = ctx.pursuer_distance(p, q)
    return dz / dh


def boundary_samples(ctx: MetricContext, spacing: float):
    """Boundary points at arc spacing <= spacing; returns (params, points).

    Each edge is subdivided uniformly into ceil(len/spacing) pieces.  Halving
    the spacing does not nest the sample sets in general, since ceil(2L/s)
    need not be 2 ceil(L/s): on the unit square, spacing 0.3 gives 16 samples
    and 0.15 gives 28, and t = 0.25 is missing from the finer set.
    """
    poly = ctx.polygon
    params = []
    for i in range(poly.n):
        L = poly.edge_lengths[i]
        m = max(1, int(np.ceil(L / spacing - 1e-12)))
        t0 = poly.cumulative_lengths[i]
        params.extend(t0 + L * k / m for k in range(m))
    params = np.array(sorted(params))
    return params, poly.boundary_point(params)


def _pairwise_dh(ctx: MetricContext, pts: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Interior geodesic distances between boundary samples ``i`` and ``j``."""
    if ctx.polygon.is_convex:
        return np.hypot(*(pts[j] - pts[i]).T)
    return pair_geodesics(ctx.polygon, pts, i, j, interior=True)


def _pairwise_dz(ctx: MetricContext, params: np.ndarray, pts: np.ndarray,
                 i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Pursuer distances between boundary samples ``i`` and ``j``."""
    if ctx.model is PursuerModel.MOAT:
        return ctx.polygon.arc_distance(params[i], params[j])
    return pair_geodesics(ctx.polygon, pts, i, j, interior=False)


def _pair_ratios(ctx: MetricContext, T: np.ndarray) -> np.ndarray:
    """d_z/d_h for each row (tp, tq) of ``T``, -inf where d_h is below tol:
    one domain test and at most one kernel call for the whole batch."""
    poly = ctx.polygon
    pts = poly.boundary_point(T)
    if np.any(_boundary_distance2(poly, pts.reshape(-1, 2)) > poly.tol**2):
        raise OutsideDomain("ratio pairs must lie on the polygon boundary")
    # a batch of one golden search holds one end fixed: pass it once
    P, Q = (pts[:1, i] if np.all(T[:, i] == T[0, i]) else pts[:, i] for i in (0, 1))
    if ctx.model is PursuerModel.MOAT:
        (dh,) = ctx._geodesics(P, Q, (0,))
        dz = poly.arc_distance(*poly.boundary_parameter(pts).T)
    else:
        dh, dz = ctx._geodesics(P, Q, (0, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dh <= poly.tol, -np.inf, dz / dh)


def _lookahead_depth(n: int) -> int:
    """Golden steps a refinement batch fetches ahead on an n-gon.

    Looking L steps ahead evaluates 2^(L+1) - 1 pairs per batch, most of them
    never asked for; measured, that pays while the batch at 1 + 2n segments a
    pair against n edges stays within ``_LOOKAHEAD_ELEMENTS``.
    """
    depth = _LOOKAHEAD
    while depth > 1 and (2 ** (depth + 1) - 1) * (1 + 2 * n) * n > _LOOKAHEAD_ELEMENTS:
        depth -= 1
    return depth


def _refine_pair(ctx: MetricContext, t_p: float, t_q: float, spacing: float):
    """Golden-section refinement of the ratio around a sample pair.

    Alternates one-dimensional searches along the boundary arc around each
    point, each over a window of +/- one spacing, accepting only improvements.
    A pair missing from the memo is fetched in one batch with every pair the
    next few steps could evaluate on either branch, so the steps taken are
    those of a pair-at-a-time search.  Returns ``(tp, tq, ratio, evaluations
    requested, distinct pairs requested, pairs evaluated, batches)``.
    """
    F = ctx.polygon.perimeter
    depth = _lookahead_depth(ctx.polygon.n)
    # later rounds repeat searches whose fixed end and window did not move
    memo: dict = {}
    used: set = set()
    requested = batches = 0

    def fetch(pairs):
        nonlocal batches
        new = [key for key in dict.fromkeys(pairs) if key not in memo]
        batches += 1
        memo.update(zip(new, _pair_ratios(ctx, np.array(new)).tolist()))

    def value(tp, tq) -> float:
        nonlocal requested
        requested += 1
        used.add((tp, tq))
        if (tp, tq) not in memo:
            fetch([(tp, tq)])
        return memo[tp, tq]

    def golden(fix, lo, hi, which):
        def pair(t):
            return (t, fix) if which == 0 else (fix, t)

        def ahead(a, b, c, d, steps):
            # the pairs of state (a, b, c, d) and of the next ``steps``
            # steps from it on either branch, in the loop's arithmetic
            yield pair(c)
            yield pair(d)
            if steps:
                yield from ahead(a, d, d - _GOLDEN * (d - a), c, steps - 1)
                yield from ahead(c, b, d, c + _GOLDEN * (b - c), steps - 1)

        def f(t, steps_left):
            # a miss fetches ahead from the loop's current (a, b, c, d)
            if pair(t) not in memo:
                fetch(ahead(a, b, c, d, min(depth, steps_left)))
            return value(*pair(t))

        a, b = lo, hi
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc = f(c, 40)
        fd = f(d, 40)
        for k in range(40):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = f(c, 39 - k)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = f(d, 39 - k)
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
    return tp, tq, best, requested, len(used), len(memo), batches


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
    if not 0 < spacing < math.inf:
        raise SpacingTooCoarse(f"spacing must be positive and finite, got {spacing}")
    f = poly.min_feature_size
    if spacing > f / 10 + poly.tol:
        raise SpacingTooCoarse(
            f"spacing {spacing} exceeds one tenth of the min feature size {f}"
        )
    params, pts = boundary_samples(ctx, spacing)
    m = len(params)
    iu, ju = np.triu_indices(m, k=1)
    t0 = time.perf_counter()
    dh_u = _pairwise_dh(ctx, pts, iu, ju)
    dz_u = _pairwise_dz(ctx, params, pts, iu, ju)
    t1 = time.perf_counter()

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
    tp, tq, refined, requested, distinct, evaluated, batches = _refine_pair(ctx, t_p, t_q, spacing)
    logger.debug("max_ratio: m=%d, %d pairs, %d refinement evaluations (%d distinct), "
                 "%d pairs evaluated in %d batches, pairwise %.4f s, refine %.4f s",
                 m, len(iu), requested, distinct, evaluated, batches,
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
