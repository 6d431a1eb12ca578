"""Constant-factor sandwich on the critical speed ratio.

The maximum of d_z(p,q)/d_h(p,q) over boundary pairs is a certified lower
bound on r*: the escaper starts at p and runs straight to q, and the pursuer
cannot cover its longer distance in time unless the speed ratio reaches that
quotient.  Multiplying a conservatively inflated estimate of the same maximum
by 2*(3+sqrt(6)) < 10.89898 gives the upper side of the sandwich.

The maximizer is located by sampling the boundary at a given arc spacing,
evaluating the sample pairs by branch and bound, and locally refining the best
pair on its two incident edges.  Two cheap bounds hold in both pursuer models,
d_h >= chord and d_z <= boundary arc, so a pair's ratio is at most arc/chord:
pairs are evaluated exactly in descending bound order until no pair left can
reach the best ratio found, with the result of evaluating them all.  The exact
arrangement-based maximizer is deliberately not implemented; sampling plus
refinement provides the certified lower bound and a usable upper
estimate at a fraction of the complexity.
"""

from __future__ import annotations

import logging
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, zip_longest

import numpy as np

from .errors import DegeneratePair, OutsideDomain, SpacingTooCoarse
from .geometry import MetricContext, Point2, PursuerModel, _boundary_distance2

# Not called here: kept so ``escape_ratio.ratio.segment_in_polygon`` still
# resolves for the layer tracer in perfbench/tracing.py.
from .geometry import segment_in_polygon  # noqa: F401

logger = logging.getLogger(__name__)

UPPER_FACTOR = 2.0 * (3.0 + math.sqrt(6.0))  # < 10.89898

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# segment x edge elements a refinement batch may hold; half or twice this
# measured no faster on the L-shape, comb and spiral
_LOOKAHEAD_ELEMENTS = 2**12
# fewest pairs a refinement batch may fetch; 2, 4 or 5 measured slower on
# the 48- and 100-vertex polygons, where a pair costs about a kernel call
_BATCH_FLOOR = 3
# golden steps a refinement batch covers on both branches
_TREE_STEPS = 2
# relative error within which a geodesic form fitted at one known point
# must give a neighbour's distance: a few ulps of sums is far below this
_FIT_TOL = 1e-12
# sample pairs the first branch-and-bound batch evaluates; each later batch
# may take twice as many
_BOUND_BATCH = 256
# relative slack on a pair bound: the geodesic sums it bounds round within a
# few ulps of it, far below this
_BOUND_SLACK = 1e-9
# pairs per block of the bound pass, which holds a few such arrays of floats
_BOUND_BLOCK = 2**16


@dataclass(frozen=True)
class RatioBound:
    """Certified lower bound and inflated upper estimate for max d_z/d_h.

    ``stats`` is the work that found it, left out of ``==``: the samples m,
    the sample pairs evaluated and their branch-and-bound batches, and the
    refinement's evaluations requested, distinct pairs among them, pairs
    evaluated and kernel batches.
    """

    lower_certified: float
    upper_estimate: float
    witness_p: Point2
    witness_q: Point2
    sampling_spacing: float
    stats: dict | None = field(default=None, compare=False)

    def to_document(self) -> dict:
        doc = {
            "lower": self.lower_certified,
            "upper": self.upper_estimate,
            "witness_p": [self.witness_p.x, self.witness_p.y],
            "witness_q": [self.witness_q.x, self.witness_q.y],
            "spacing": self.sampling_spacing,
        }
        if self.stats is not None:
            doc["stats"] = self.stats
        return doc


def ratio_of_pair(ctx: MetricContext, p, q) -> float:
    """d_z(p,q) / d_h(p,q) for two boundary points; a lower bound on r*."""
    pts = np.array([[p, q]], dtype=float)
    poly = ctx.polygon
    if np.any(_boundary_distance2(poly, pts.reshape(-1, 2)) > poly.tol**2):
        raise OutsideDomain("ratio pairs must lie on the polygon boundary")
    ratio = float(_pair_ratios(ctx, pts)[0])
    if ratio == -np.inf:
        raise DegeneratePair("d_h(p, q) is below tolerance")
    return ratio


def boundary_samples(ctx: MetricContext, spacing: float):
    """Boundary points at arc spacing <= spacing; returns (params, points).

    Each edge is subdivided uniformly into ceil(len/spacing) pieces.  Halving
    the spacing does not nest the sample sets in general, since ceil(2L/s)
    need not be 2 ceil(L/s): on the unit square, spacing 0.3 gives 16 samples
    and 0.15 gives 28, and t = 0.25 is missing from the finer set.
    """
    poly = ctx.polygon
    params = []
    for i, m in enumerate(edge_pieces(poly, spacing).astype(int).tolist()):
        L = poly.edge_lengths[i]
        t0 = poly.cumulative_lengths[i]
        params.extend(t0 + L * k / m for k in range(m))
    params = np.array(sorted(params))
    return params, poly.boundary_point(params)


def edge_pieces(poly, spacing: float) -> np.ndarray:
    """Pieces of each edge in ``boundary_samples``: ceil(len/spacing), at least
    1, as floats, so that a spacing too fine to sample still gives a count."""
    return np.maximum(1.0, np.ceil(poly.edge_lengths / spacing - 1e-12))


# Not called here: the layer tracer in perfbench/tracing.py names both, and
# the tests' all-pairs oracle measures with them.
def _pairwise_dh(ctx: MetricContext, pts: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Interior geodesic distances between boundary samples ``i`` and ``j``."""
    return ctx.pair_distances(pts, i, j, (0,))[0]


def _pairwise_dz(ctx: MetricContext, pts: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Pursuer distances between boundary samples ``i`` and ``j``."""
    return ctx.pair_distances(pts, i, j, (1,))[0]


def _pair_rows(m: int, k: np.ndarray):
    """The sample pairs (i, j) at flat indices ``k`` of ``np.triu_indices(m, k=1)``."""
    rows = np.arange(m)
    start = rows * (2 * m - rows - 1) // 2  # flat index of row i's first pair
    i = np.searchsorted(start, k, side="right") - 1
    return i, k - start[i] + i + 1


def _pair_bounds(poly, params: np.ndarray, pts: np.ndarray, spacing: float, floor: float):
    """Upper bounds on each sample pair's ratio and inflation term, in
    ``np.triu_indices`` order, with no kernel call.

    d_h >= chord (a path within the polygon is at least the segment) and
    d_z <= arc (the pursuer may walk the boundary) give arc/chord, and
    (arc + s)/(max(chord, floor) - s) for a pair with d_h >= floor > s.  A
    pair with chord <= tol has ratio bound inf, so it is always evaluated.
    """
    m = len(params)
    n_pairs = m * (m - 1) // 2
    ratio_ub, infl_ub = np.empty(n_pairs), np.empty(n_pairs)
    for lo in range(0, n_pairs, _BOUND_BLOCK):
        hi = min(lo + _BOUND_BLOCK, n_pairs)
        i, j = _pair_rows(m, np.arange(lo, hi))
        chord = np.hypot(*(pts[j] - pts[i]).T)  # a direct pair's d_h, to the bit
        arc = poly.arc_distance(params[i], params[j])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_ub[lo:hi] = np.where(chord > poly.tol, arc / chord, np.inf)
            infl_ub[lo:hi] = (arc + spacing) / (np.maximum(chord, floor) - spacing)
    return ratio_ub, infl_ub


def _branch_and_bound(bound: np.ndarray, best: float, evaluate) -> int:
    """Evaluate pairs in descending ``bound`` order until no pair left can
    reach ``best``; returns the number of batches.

    ``evaluate(k)`` computes the pairs at flat indices ``k`` exactly, sets
    their bounds to -inf and returns their best value.  A batch takes the
    ``_BOUND_BATCH`` largest bounds left, twice as many each batch after, but
    never a pair whose bound times 1 + ``_BOUND_SLACK`` stays below ``best``:
    such a pair's value is below ``best`` too, so it cannot even tie it.
    """
    size, batches = _BOUND_BATCH, 0
    while True:
        live = bound > best / (1 + _BOUND_SLACK)
        n_live = int(np.count_nonzero(live))
        if not n_live:
            return batches
        if n_live > size:
            # a copy: ``evaluate`` may keep k, and a view would keep the
            # whole partition (8 bytes a pair) alive with it
            k = np.argpartition(bound, len(bound) - size)[-size:].copy()
        else:
            k = np.flatnonzero(live)
        best = max(best, evaluate(k))
        batches += 1
        size *= 2


def _pair_measures(ctx: MetricContext, pts: np.ndarray):
    """(d_h, d_z, d_z/d_h) for each boundary point pair (p, q), rows of
    ``pts`` [k, 2, 2], the ratio -inf where d_h is below tol: at most one
    kernel call for the whole batch.  The points are not checked:
    ``boundary_point`` made the refinement's, and ``ratio_of_pair`` tests
    its own."""
    poly = ctx.polygon
    # a batch of one golden search holds one end fixed: pass it once
    P, Q = (pts[:1, i] if np.all(pts[:, i] == pts[0, i]) else pts[:, i] for i in (0, 1))
    rows = np.arange(len(pts))
    i, j = rows % len(P), len(P) + rows % len(Q)
    dh, dz = ctx.pair_distances(np.concatenate([P, Q]), i, j, (0, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return dh, dz, np.where(dh <= poly.tol, -np.inf, dz / dh)


def _pair_ratios(ctx: MetricContext, pts: np.ndarray) -> np.ndarray:
    """The ratios of ``_pair_measures``."""
    return _pair_measures(ctx, pts)[2]


def _batch_pairs(n: int) -> int:
    """Pairs one refinement batch may fetch on an n-gon: as many as keep
    its kernel call within ``_LOOKAHEAD_ELEMENTS`` at 1 + n segments a pair
    (its own and its moving end's fan) against n edges, and never fewer than
    ``_BATCH_FLOOR``."""
    return max(_BATCH_FLOOR, _LOOKAHEAD_ELEMENTS // ((1 + n) * n))


class _Form:
    """A golden search's pair distances in the geodesic's own form.

    With one end fixed at q and the other at p(t) = ``boundary_point(t)``, a
    shortest path is d(t) = |p(t) - u| + C for as long as its vertices stay
    the same: u is q (a direct pair, C = 0) or the polygon vertex the path
    leaves p(t) for, and C the rest of the path.  In the moat model d_z is
    the boundary arc to q, so only d_h is fitted.  ``point`` is
    ``boundary_point`` in plain floats, in the same arithmetic, so a
    prediction runs no numpy call.
    """

    def __init__(self, ctx: MetricContext):
        poly = ctx.polygon
        self.vertices = poly.vertices
        self.cum = poly.cumulative_lengths.tolist()
        self.edges = list(zip(poly.vertices.tolist(), poly._edge_vecs.tolist(),
                              poly.edge_lengths.tolist()))
        self.F, self.tol = poly.perimeter, poly.tol
        self.moat = ctx.model is PursuerModel.MOAT
        # vertices that fitted lately, tried before a scan of them all
        self.recent: list = []

    def point(self, t: float):
        t %= self.F
        i = min(bisect_right(self.cum, t) - 1, len(self.edges) - 1)
        (x, y), (ex, ey), L = self.edges[i]
        frac = (t - self.cum[i]) / L
        return x + frac * ex, y + frac * ey

    def _fit(self, q, ends, d):
        """(u_x, u_y, C) of the form through distances ``d`` at the moving
        ends ``ends``, the best point first: C from the best point, and every
        other end within a relative ``_FIT_TOL``; None if no u fits.  q and
        the vertices that fitted lately are tried first."""
        (x0, y0), *rest = ends
        checks = list(zip(rest, d[1:]))
        for ux, uy in (q, *self.recent):
            c = d[0] - math.hypot(x0 - ux, y0 - uy)
            if all(abs(math.hypot(x - ux, y - uy) + c - dk) <= _FIT_TOL * dk
                   for (x, y), dk in checks):
                return ux, uy, c
        # a scan of every vertex, in numpy: the nearest miss at the second end
        V = self.vertices
        c = d[0] - np.hypot(V[:, 0] - x0, V[:, 1] - y0)
        err = [np.abs(np.hypot(V[:, 0] - x, V[:, 1] - y) + c - dk) for (x, y), dk in checks]
        ok = np.logical_and.reduce([e <= _FIT_TOL * dk for e, (_, dk) in zip(err, checks)])
        if not ok.any():
            return None
        k = int(np.flatnonzero(ok)[err[0][ok].argmin()])
        u = tuple(V[k].tolist())
        self.recent = [u, *self.recent[:3]]
        return (*u, float(c[k]))

    def model(self, fix: float, seen: dict, near: dict):
        """The ratio at t from a search's known ratios ``seen`` {t: ratio}
        and the distances ``near`` {t: (d_h, d_z)} of those fetched, or
        None.  On each side of the best fetched point the form is fitted
        through it and its neighbour there, and must hold at the next point
        out too, if known; a side with no neighbour takes the other side's
        form.  None when a side has no form."""
        ts = sorted(near)
        if len(ts) < 2:
            return None
        t0 = max(ts, key=seen.__getitem__)
        k = ts.index(t0)
        q, p0, d0 = self.point(fix), self.point(t0), near[t0]
        forms = []
        for out in (ts[max(k - 2, 0) : k][::-1], ts[k + 1 : k + 3]):
            form = []
            if out:
                ends = [p0, *map(self.point, out)]
                for s in range(1 if self.moat else 2):
                    fit = self._fit(q, ends, [d0[s], *(near[t][s] for t in out)])
                    if fit is None:
                        return None
                    form.append(fit)
            forms.append(form)
        left, right = (f or forms[1 - i] for i, f in enumerate(forms))
        point, tol, F, moat = self.point, self.tol, self.F, self.moat

        def ratio(t):
            x, y = point(t)
            (ux, uy, c), *z = left if t < t0 else right
            dh = math.hypot(x - ux, y - uy) + c
            if dh <= tol:
                return -math.inf
            if moat:
                dz = abs(t - fix) % F
                return min(dz, F - dz) / dh
            ((wx, wy, e),) = z
            return (math.hypot(x - wx, y - wy) + e) / dh

        return ratio


def _models(seen: dict, fit=None) -> list:
    """Models of a search's known values ``seen`` {t: value}, each a
    function of t.  The geodesic's own form ``fit(seen)`` (``_Form.model``)
    alone where it fits: it gives every value to a few ulps.  Otherwise a
    parabola through the best point and its neighbours (a smooth maximum)
    and one line on each side of the best point, through the two known
    points nearest it there (a kink).  A model without the points it needs
    is left out."""
    geodesic = fit(seen) if fit is not None else None
    if geodesic is not None:
        return [geodesic]
    pts = sorted((t, v) for t, v in seen.items() if math.isfinite(v))
    k = max(range(len(pts)), key=lambda i: pts[i][1], default=0)
    models = []
    if 0 < k < len(pts) - 1:
        (x0, y0), (x1, y1), (x2, y2) = pts[k - 1 : k + 2]

        def parabola(t):
            return (y0 * (t - x1) * (t - x2) / ((x0 - x1) * (x0 - x2))
                    + y1 * (t - x0) * (t - x2) / ((x1 - x0) * (x1 - x2))
                    + y2 * (t - x0) * (t - x1) / ((x2 - x0) * (x2 - x1)))

        models.append(parabola)
    if 2 <= k < len(pts) - 2:
        (x0, y0), (x1, y1) = pts[k - 2 : k]
        (x2, y2), (x3, y3) = pts[k + 1 : k + 3]
        left, right = (y1 - y0) / (x1 - x0), (y3 - y2) / (x3 - x2)
        models.append(lambda t: min(y1 + left * (t - x1), y2 + right * (t - x2)))
    return models


def _refine_pair(ctx: MetricContext, t_p: float, t_q: float, spacing: float,
                 start: float | None = None):
    """Golden-section refinement of the ratio around a sample pair.

    Alternates one-dimensional searches along the boundary arc around each
    point, each over a window of +/- one spacing, accepting only improvements.
    ``start`` is the start pair's ratio when it is known already.  The loop
    reads only exact memoized ratios, so the steps taken are those of a
    pair-at-a-time search; a pair missing from the memo is fetched in one
    batch, of at most ``_batch_pairs(n)`` pairs, with the pairs the search
    is likely to ask for next: the path the loop would take to the end of
    the search under ``_models`` of the values known in this search, in the
    loop's own arithmetic, then every pair of the next ``_TREE_STEPS``
    steps on either branch.  There are three models: the geodesic's own form
    (``_Form``), fitted to the d_h and d_z the memo keeps of each fetched
    pair, alone where it fits, and else a parabola and a kink; where a batch
    holds only ``_BATCH_FLOOR`` pairs the form is not fitted.  Once the
    whole tree of the steps left fits a batch, where float ties make
    predictions useless, it is fetched instead.  A wrong prediction costs a
    batch and never changes a value.  Returns ``(tp, tq, ratio, evaluations
    requested, distinct pairs requested, pairs evaluated, batches)``.
    """
    F = ctx.polygon.perimeter
    budget = _batch_pairs(ctx.polygon.n)
    # the most steps whose whole tree, 2^(steps + 1) pairs, fits a batch
    tail = budget.bit_length() - 2
    # later rounds repeat searches whose fixed end and window did not move
    memo: dict = {}
    dists: dict = {}  # (d_h, d_z) of each fetched pair
    # a floor batch holds the missing pair and two more, which the parabola
    # and kink predict as well: there the form would cost more than it saves
    form = _Form(ctx) if budget > _BATCH_FLOOR else None
    used: set = set()
    requested = evaluated = batches = 0

    def fetch(pairs):
        # the first ``budget`` distinct pairs missing from the memo; the
        # predicted paths are computed only as far as they are read
        nonlocal evaluated, batches
        new: dict = {}  # an ordered set
        for key in pairs:
            if key not in memo:
                new[key] = None
                if len(new) == budget:
                    break
        evaluated += len(new)
        batches += 1
        dh, dz, ratios = _pair_measures(ctx, ctx.polygon.boundary_point(np.array(list(new))))
        memo.update(zip(new, ratios.tolist()))
        if form:
            dists.update(zip(new, zip(dh.tolist(), dz.tolist())))

    def value(tp, tq) -> float:
        nonlocal requested
        requested += 1
        used.add((tp, tq))
        if (tp, tq) not in memo:
            fetch([(tp, tq)])
        return memo[tp, tq]

    def golden(fix, centre, which):
        def pair(t):
            return (t, fix) if which == 0 else (fix, t)

        # t -> ratio for the models, from the window's centre: the current
        # pair, of ratio ``best``; and t -> (d_h, d_z) where fetched
        seen = {centre: best}
        near = {centre: dists[pair(centre)]} if pair(centre) in dists else {}

        def fit(seen):
            return form.model(fix, seen, near) if form else None

        def ahead(a, b, c, d, steps):
            # the pairs of state (a, b, c, d) and of the next ``steps``
            # steps from it on either branch, in the loop's arithmetic
            yield pair(c)
            yield pair(d)
            if steps:
                yield from ahead(a, d, d - _GOLDEN * (d - a), c, steps - 1)
                yield from ahead(c, b, d, c + _GOLDEN * (b - c), steps - 1)

        def path(model, a, b, c, d, steps):
            # the pairs of the ``steps`` steps the loop takes from state
            # (a, b, c, d) where known values are the memo's and others the
            # model's
            def guess(t):
                return memo[pair(t)] if pair(t) in memo else model(t)

            fc, fd = guess(c), guess(d)
            for _ in range(steps):
                if fc >= fd:
                    b, d, fd = d, c, fc
                    c = b - _GOLDEN * (b - a)
                    fc = guess(c)
                    yield pair(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + _GOLDEN * (b - a)
                    fd = guess(d)
                    yield pair(d)

        def f(t, steps_left):
            # a miss fetches ahead from the loop's current (a, b, c, d)
            key = pair(t)
            if key not in memo:
                if steps_left <= tail:
                    fetch(ahead(a, b, c, d, steps_left))
                else:
                    paths = [path(m, a, b, c, d, steps_left) for m in _models(seen, fit)]
                    # the paths step by step, then the tree
                    fetch(chain([pair(c), pair(d)],
                                (nxt for step in zip_longest(*paths) for nxt in step if nxt),
                                ahead(a, b, c, d, _TREE_STEPS)))
            seen[t] = value(*key)
            if key in dists:
                near[t] = dists[key]
            return seen[t]

        a, b = centre - spacing, centre + spacing
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

    if start is not None:
        memo[t_p, t_q] = start
    best = value(t_p, t_q)
    # only the start pair's ratio is kept, as when max_ratio passes it in,
    # so that no prediction depends on whether it did
    dists.pop((t_p, t_q), None)
    tp, tq = t_p, t_q
    for _ in range(3):
        t, val = golden(tq, tp, 0)
        if val > best:
            best, tp = val, t % F
        t, val = golden(tp, tq, 1)
        if val > best:
            best, tq = val, t % F
    return tp, tq, best, requested, len(used), evaluated, batches


def max_ratio(ctx: MetricContext, spacing: float) -> RatioBound:
    """Sample boundary pairs, refine the best one, and build the sandwich.

    The sample pairs are evaluated by branch and bound (``_branch_and_bound``
    over ``_pair_bounds``): first in descending arc/chord order until no pair
    left can reach the best ratio, then in descending bound order on the
    inflation term until none can exceed max(inflated, best ratio).  The
    result is that of evaluating every pair, to the bit.
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
    # pairs below the feature scale are left out of the inflation (see below)
    floor = max(2.0 * spacing, f / 2.0)
    t0 = time.perf_counter()
    ratio_ub, infl_ub = _pair_bounds(poly, params, pts, spacing, floor)
    found = []  # per batch: flat pair indices, ratios, inflation terms

    def evaluate(k):
        i, j = _pair_rows(m, k)
        # only the batch's endpoints: every point passed gets its fan tested
        ends, inv = np.unique(np.concatenate([i, j]), return_inverse=True)
        dh, dz = ctx.pair_distances(pts[ends], inv[: len(k)], inv[len(k):], (0, 1))
        valid = dh > poly.tol
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(valid, dz / np.maximum(dh, poly.tol), -np.inf)
            inflated = np.where(valid & (dh >= floor), (dz + spacing) / (dh - spacing), -np.inf)
        found.append((k, ratios, inflated))
        ratio_ub[k] = infl_ub[k] = -np.inf
        return float(ratios.max()), float(inflated.max())

    bound_batches = _branch_and_bound(ratio_ub, -np.inf, lambda k: evaluate(k)[0])
    sample_max = max(float(r.max()) for _, r, _ in found)
    # every pair left has a ratio below sample_max: only its inflation term
    # can still matter, and only where it exceeds max(inflated, sample_max)
    so_far = max(float(x.max()) for *_, x in found)
    bound_batches += _branch_and_bound(infl_ub, max(so_far, sample_max),
                                       lambda k: evaluate(k)[1])
    k, ratios, inflated = (np.concatenate(col) for col in zip(*found))
    # ties: the smallest (i, j) in lexicographic order, as np.argmax over all
    # pairs picks; every pair that ties the maximum has been evaluated
    i, j = _pair_rows(m, k[ratios == sample_max].min())
    t_p, t_q = float(params[i]), float(params[j])
    t1 = time.perf_counter()
    # sample_max is the pair's ratio as _pair_ratios gives it, to the bit:
    # both measure the pair with one pair_distances row per metric
    tp, tq, refined, requested, distinct, evaluated, batches = _refine_pair(
        ctx, t_p, t_q, spacing, sample_max)
    logger.debug("max_ratio: m=%d, %d pairs, %d evaluated in %d bound batches, "
                 "%d refinement evaluations (%d distinct), "
                 "%d pairs evaluated in %d batches, pairwise %.4f s, refine %.4f s",
                 m, m * (m - 1) // 2, len(k), bound_batches, requested, distinct,
                 evaluated, batches, t1 - t0, time.perf_counter() - t1)
    lower = max(sample_max, refined)
    wp = poly.boundary_point(tp)
    wq = poly.boundary_point(tq)

    # Lipschitz inflation: any boundary pair lies within one spacing (in arc
    # length, hence in both metrics) of a sample pair, so the true maximum is
    # at most max (d_z + s)/(d_h - s) over feature-scale pairs (d_h >= floor).
    # Pairs below the feature scale are sampled scale-freely (corner cones),
    # where the additive correction is meaningless, so they are left out of
    # the set.  A pair never evaluated has a term below max(inflated, lower).
    inflated = float(inflated.max())
    if inflated == -np.inf:
        inflated = lower
    upper = UPPER_FACTOR * max(inflated, lower)

    return RatioBound(
        lower_certified=lower,
        upper_estimate=upper,
        witness_p=Point2(*map(float, wp)),
        witness_q=Point2(*map(float, wq)),
        sampling_spacing=float(spacing),
        stats={"m": m, "pairs_evaluated": len(k), "bound_batches": bound_batches,
               "refine_requested": requested, "refine_distinct": distinct,
               "refine_evaluated": evaluated, "refine_batches": batches},
    )
