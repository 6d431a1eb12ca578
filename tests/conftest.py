import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from escape_ratio import ratio
from escape_ratio.discrete import (
    DiscreteGame,
    SampleSet,
    SolveResult,
    _csr_relation,
    threat_matrix,
)
from escape_ratio.errors import (
    DegenerateEdge,
    DomainViolation,
    SelfIntersecting,
    SpeedViolation,
    TooFewVertices,
    ZeroArea,
)
from escape_ratio.geometry import (
    TOL_SCALE,
    MetricContext,
    Point2,
    PursuerModel,
    _as_point_array,
    _cross,
    point_in_convex_hull,
    validate_polygon,
)
from escape_ratio.sim import MotionPath, PathView, Playthrough, SpeedReport, Strategy

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
    scalar oracle for the square root of ``geometry._boundary_distance2``."""
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


def reference_in_hull(hull, p, tol) -> bool:
    """Whether ``p`` lies at most tol beyond every edge line of the CCW
    convex ``hull``, one edge at a time in Python floats: the scalar oracle
    for ``point_in_convex_hull``."""
    x, y = float(p[0]), float(p[1])
    for (ax, ay), (bx, by) in zip(hull.tolist(), np.roll(hull, -1, axis=0).tolist()):
        ex, ey = bx - ax, by - ay
        if ex * (y - ay) - ey * (x - ax) < -tol * math.hypot(ex, ey):
            return False
    return True


def reference_contains(ctx, pts) -> np.ndarray:
    """The scalar oracle for ``MetricContext.contains``: ``reference_classify``
    and ``reference_in_hull`` one point at a time."""
    poly = ctx.polygon
    rows = []
    for p in pts:
        where = reference_classify(poly, p)
        if ctx.model is PursuerModel.MOAT:
            pursuer = where == "boundary"
        else:
            pursuer = where != "inside" and reference_in_hull(ctx.hull, p, poly.tol)
        rows.append((where != "outside", pursuer))
    return np.array(rows, dtype=bool).reshape(-1, 2).T


def _sorting_boundary_distance2(poly, pts):
    """The 3-D form of ``_boundary_distance2``: (points, edges, 2) temporaries
    reduced over the last axis."""
    v = poly.vertices
    e = poly._edge_vecs
    lens2 = np.maximum(poly.edge_lengths**2, 1e-300)
    diff = pts[:, None, :] - v[None, :, :]
    t = np.clip((diff * e[None, :, :]).sum(-1) / lens2[None, :], 0.0, 1.0)
    proj = v[None, :, :] + t[..., None] * e[None, :, :]
    return ((proj - pts[:, None, :]) ** 2).sum(-1).min(axis=1)


def _sorting_point_classes(poly, pts):
    """``point_classes`` measuring every point against every edge, on
    point-major (points x edges) tables."""
    v = poly.vertices
    on_b = _sorting_boundary_distance2(poly, pts) <= poly.tol**2
    w = np.roll(v, -1, axis=0)
    y = pts[:, 1][:, None]
    x = pts[:, 0][:, None]
    cond = (v[None, :, 1] <= y) != (w[None, :, 1] <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = v[None, :, 0] + (y - v[None, :, 1]) * (w[None, :, 0] - v[None, :, 0]) / (
            w[None, :, 1] - v[None, :, 1]
        )
    inside = (np.where(cond, xs > x, False)).sum(axis=1) % 2 == 1
    return np.where(on_b, 0, np.where(inside, 1, -1))


def _sorting_segment_visibility(poly, a, b):
    """The kernel that sorts every segment's cut table, evaluating the touch
    arithmetic at every segment x vertex, in one block, on segment-major
    (segments x edges) tables: the oracle for ``segment_visibility``.  Also
    returns which segments have more than one piece."""
    n = poly.n
    v = poly.vertices
    e = poly._edge_vecs
    tol = poly.tol
    d = b - a
    dx, dy = d[:, 0, None], d[:, 1, None]
    seg_len = np.hypot(d[:, 0], d[:, 1])[:, None]
    dvx = v[:, 0] - a[:, 0, None]
    dvy = v[:, 1] - a[:, 1, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = dx * e[:, 1] - dy * e[:, 0]
        t = (dvx * e[:, 1] - dvy * e[:, 0]) / denom
        s = (dvx * dy - dvy * dx) / denom
        eps = tol / seg_len
        cut = np.isfinite(t) & (t > eps) & (t < 1 - eps) & (s >= -1e-12) & (s <= 1 + 1e-12)
        par = np.abs(denom) <= tol * seg_len
        along = dvx * dx + dvy * dy
        u = np.clip(along / (dx * dx + dy * dy), 0.0, 1.0)
        gap = np.hypot(v[:, 0] - (a[:, 0, None] + u * dx), v[:, 1] - (a[:, 1, None] + u * dy))
        tt = along / (seg_len * seg_len)
        touch = (par | par[:, np.arange(-1, n - 1)]) & (gap <= tol) & (tt > eps) & (tt < 1 - eps)
    ts = np.ones((len(a), 2 + 2 * n))
    ts[:, 0] = 0.0
    ts[:, 2 : 2 + n] = np.where(cut, t, 1.0)
    ts[:, 2 + n :] = np.where(touch, tt, 1.0)
    ts = np.sort(np.round(ts, 15), axis=1)
    live = ts[:, 1:] > ts[:, :-1]
    rows = np.nonzero(live)[0]
    mid_t = (0.5 * (ts[:, :-1] + ts[:, 1:]))[live]
    d = np.where(seg_len <= tol, 0.0, d)
    cls = _sorting_point_classes(poly, a[rows] + mid_t[:, None] * d[rows])
    within = np.bincount(rows[cls < 0], minlength=len(a)) == 0
    avoids = np.bincount(rows[cls > 0], minlength=len(a)) == 0
    # segments with more than one piece: those an edge cuts or a vertex touches
    return within, avoids, np.bincount(rows, minlength=len(a)) > 1


def _point_segment_distance(p, a, b) -> float:
    ab = np.subtract(b, a)
    denom = float(ab @ ab)
    if denom <= 0.0:
        return float(np.hypot(*(np.subtract(p, a))))
    t = float(np.clip(np.subtract(p, a) @ ab / denom, 0.0, 1.0))
    proj = a + t * ab
    return float(np.hypot(p[0] - proj[0], p[1] - proj[1]))


def _seg_seg_distance(p1, p2, q1, q2) -> float:
    """Distance between two closed segments that do not cross."""
    return min(_point_segment_distance(q1, p1, p2), _point_segment_distance(q2, p1, p2),
               _point_segment_distance(p1, q1, q2), _point_segment_distance(p2, q1, q2))


def _segments_properly_intersect(p1, p2, q1, q2, tol2) -> bool:
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    return ((d1 > tol2 and d2 < -tol2) or (d1 < -tol2 and d2 > tol2)) and (
        (d3 > tol2 and d4 < -tol2) or (d3 < -tol2 and d4 > tol2)
    )


def reference_validate(points):
    """``validate_polygon`` one edge pair at a time: the scalar oracle for
    its batched simplicity test.  Returns ``(vertices, tol)`` of the CCW
    polygon, or raises what ``validate_polygon`` raises."""
    arr = _as_point_array(points)
    n = len(arr)
    if n < 3:
        raise TooFewVertices(f"polygon needs at least 3 vertices, got {n}")
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    tol = TOL_SCALE * float(np.hypot(*(hi - lo)))
    if tol == 0.0:
        raise ZeroArea("all vertices coincide")
    nxt = np.roll(arr, -1, axis=0)
    lengths = np.hypot(*(nxt - arr).T)
    if np.any(lengths <= tol):
        raise DegenerateEdge("two consecutive vertices coincide")
    # no proper crossing between nonadjacent edges and no vertex on a
    # nonadjacent edge
    for i in range(n):
        a1, a2 = arr[i], arr[(i + 1) % n]
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = arr[j], arr[(j + 1) % n]
            if _segments_properly_intersect(a1, a2, b1, b2, tol * tol):
                raise SelfIntersecting(f"edges {i} and {j} cross")
            if _seg_seg_distance(a1, a2, b1, b2) <= tol:
                raise SelfIntersecting(f"edges {i} and {j} touch")
    area = 0.5 * float(np.sum(arr[:, 0] * nxt[:, 1] - nxt[:, 0] * arr[:, 1]))
    if abs(area) <= tol * float(lengths.sum()):
        raise ZeroArea("polygon has (near) zero area")
    return (arr[::-1] if area < 0 else arr), tol


def reference_min_feature_size(poly):
    """Minimum distance between nonadjacent edges, one edge pair at a time
    (a triangle's smallest altitude): the scalar oracle for
    ``Polygon.min_feature_size``."""
    v = poly.vertices
    n = poly.n
    if n == 3:
        return min(_point_segment_distance(v[i], v[(i + 1) % 3], v[(i + 2) % 3])
                   for i in range(3))
    best = np.inf
    for i in range(n):
        for j in range(i + 2, n):
            if (j + 1) % n == i:
                continue
            best = min(best, _seg_seg_distance(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]))
    return float(best)


def all_pairs_max_ratio(ctx, spacing):
    """``max_ratio`` with every sample pair evaluated exactly: the all-pairs
    argmax and inflation that its branch and bound replaced, as its oracle."""
    poly = ctx.polygon
    params, pts = ratio.boundary_samples(ctx, spacing)
    iu, ju = np.triu_indices(len(params), k=1)
    dh_u = ratio._pairwise_dh(ctx, pts, iu, ju)
    dz_u = ratio._pairwise_dz(ctx, pts, iu, ju)
    valid = dh_u > poly.tol
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


def reference_verify_net(ctx, samples, probes, seed=0):
    """``verify_net`` one probe at a time: rejection loops that classify each
    draw with the scalar ``Polygon.classify``, and one checked metric query
    per shortlisted sample (``_reference_nearest``), as its oracle."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    poly = ctx.polygon
    rng = np.random.default_rng(seed)
    lo, hi = poly.bbox
    worst = 0.0

    tree_h = cKDTree(samples.escaper_samples)
    drawn = 0
    while drawn < probes:
        p = lo + rng.random(2) * (hi - lo)
        if poly.classify(p) == "outside":
            continue
        drawn += 1
        worst = max(worst, _reference_nearest(ctx.interior_distance, tree_h,
                                              samples.escaper_samples, p))

    if ctx.model is PursuerModel.MOAT:
        for _ in range(probes):
            t = rng.random() * poly.perimeter
            worst = max(worst, float(poly.arc_distance(samples.boundary_params, t).min()))
    else:
        tree_z = cKDTree(samples.pursuer_samples)
        # the boundary is always part of the pursuer domain; the hull pockets
        # have positive area only for nonconvex polygons (a convex one has
        # none to sample), and the rejection attempts are capped for pockets
        # too thin to hit
        for _ in range(probes):
            t = rng.random() * poly.perimeter
            p = poly.boundary_point(t)
            worst = max(worst, _reference_nearest(ctx.pursuer_distance, tree_z,
                                                  samples.pursuer_samples, p))
        if poly.is_convex:
            return worst
        hull = ctx.hull
        hlo, hhi = hull.min(axis=0), hull.max(axis=0)
        drawn = 0
        attempts = 0
        while drawn < probes and attempts < 60 * probes:
            attempts += 1
            p = hlo + rng.random(2) * (hhi - hlo)
            if not point_in_convex_hull(hull, p, poly.tol):
                continue
            if poly.classify(p) != "outside":
                continue
            drawn += 1
            worst = max(worst, _reference_nearest(ctx.pursuer_distance, tree_z,
                                                  samples.pursuer_samples, p))
    return worst


def _reference_nearest(metric, tree, pts, p) -> float:
    """Nearest-sample distance under ``metric``, shortlisted by Euclid."""
    k = min(8, len(pts))
    eu, idx = tree.query(p, k=k)
    eu = np.atleast_1d(eu)
    idx = np.atleast_1d(idx)
    best = math.inf
    for e, i in zip(eu, idx):
        if e >= best:
            break
        best = min(best, metric(p, pts[i]))
    return best


def toy_game(e_h, e_z, exit_idx_h, exit_idx_z, r: float = 1.0, delta: float = 1.0) -> DiscreteGame:
    """Abstract game from explicit move relations, for the solver tests.

    Matrices must be symmetric with true diagonals; exit index arrays give the
    shared exit samples' positions in each vertex set.
    """
    e_h = np.asarray(e_h, dtype=bool)
    e_z = np.asarray(e_z, dtype=bool)
    if not (np.array_equal(e_h, e_h.T) and np.array_equal(e_z, e_z.T)):
        raise ValueError("move relations must be symmetric")
    if not (e_h.diagonal().all() and e_z.diagonal().all()):
        raise ValueError("standing still must be legal (true diagonals)")
    exit_idx_h = np.asarray(exit_idx_h, dtype=int)
    exit_idx_z = np.asarray(exit_idx_z, dtype=int)
    if len(exit_idx_h) != len(exit_idx_z):
        raise ValueError("exit index arrays must pair up")
    n_h, n_z, n_x = len(e_h), len(e_z), len(exit_idx_h)
    samples = SampleSet(
        escaper_samples=np.column_stack([np.arange(n_h), np.zeros(n_h)]),
        pursuer_samples=np.column_stack([np.arange(n_z), np.ones(n_z)]),
        exit_samples=np.column_stack([np.arange(n_x), 0.5 * np.ones(n_x)]),
        gamma=1.0,
        exit_idx_h=exit_idx_h,
        exit_idx_z=exit_idx_z,
        boundary_count=n_x,
        interior_count=n_h - n_x,
        exterior_count=0,
    )
    e_h = _csr_relation(*np.nonzero(np.triu(e_h, 1)), n_h)
    return DiscreteGame(samples=samples, e_h=e_h, e_z=e_z, r=r, delta=delta)


def escaper_win_predicate(game, h_threat, z):
    """Direct evaluation of the two-reply exit threat for one state, as the
    oracle of ``threat_matrix``."""
    indptr, indices = game.e_h.indptr, game.e_h.indices
    hx = np.isin(game.samples.exit_idx_h, indices[indptr[h_threat] : indptr[h_threat + 1]])
    zx = game.e_z[z, game.samples.exit_idx_z]
    return bool(np.any(hx & ~zx))


def reference_solve(game):
    """Per-row Jacobi sweeps: every active row against all of its moves.

    The exact slow path that the semi-naive keyed solver replaced:
    ``discrete.solve`` must match it on every output.
    """
    n_h, n_z = game.n_h, game.n_z
    P = threat_matrix(game)
    W = np.zeros((n_h, n_z), dtype=bool)
    rank = np.zeros((n_h, n_z), dtype=np.int32)
    indptr = game.e_h.indptr
    indices = game.e_h.indices
    row_of = np.repeat(np.arange(n_h), np.diff(indptr))
    use_windows = game.z_windows is not None
    if use_windows:
        lo, hi = game.z_windows
    ez_f = game.e_z.astype(np.float32)

    iteration = 0
    changed = np.ones(n_h, dtype=bool)
    while True:
        iteration += 1
        U = ~W
        R = ~P
        W_new = W.copy()
        # rows with a move into a row that changed
        active = np.bincount(row_of[changed[indices]], minlength=n_h) > 0
        changed = np.zeros(n_h, dtype=bool)
        for h in np.nonzero(active)[0]:
            if W[h].all():
                continue
            rows = indices[indptr[h] : indptr[h + 1]]
            M_bad = U[rows] & R[h][None, :]
            if use_windows:
                C = np.cumsum(M_bad, axis=1, dtype=np.int32)
                total = C[:, -1][:, None]
                lowpart = np.where(lo > 0, C[:, np.maximum(lo - 1, 0)], 0)
                wrap = hi >= n_z
                cnt_wrap = total - lowpart + C[:, np.where(wrap, hi - n_z, 0)]
                cnt_flat = C[:, np.minimum(hi, n_z - 1)] - lowpart
                good = np.where(wrap, cnt_wrap, cnt_flat) == 0
            else:
                good = (M_bad.astype(np.float32) @ ez_f) < 0.5
            newly = good.any(axis=0) & ~W[h]
            if newly.any():
                W_new[h, newly] = True
                rank[h, newly] = iteration
                changed[h] = True
        if not changed.any():
            break
        W = W_new

    full_rows = W.all(axis=1)
    escaper_wins = bool(full_rows.any())
    return SolveResult(
        game=game, escaper_wins=escaper_wins, win_mask=W, rank=rank, threat=P,
        witness_h0=int(np.argmax(full_rows)) if escaper_wins else None,
        iterations=iteration,
    )


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


def reference_playthrough(
    escaper: Strategy,
    pursuer: Strategy,
    dt: float,
    t_max: float,
    epsilon: float,
    domain,
) -> Playthrough:
    """The scalar oracle for ``sim.playthrough``: one step at a time, each
    position checked with the domain's scalar ``contains`` and each step
    measured with its scalar distances before the next strategy call.

    Runs the alternating dt-grid game until escape or t_max.

    Escape fires at the first grid time the escaper is on an exit (a point of
    its domain that ``contains`` puts in the pursuer's domain too) with
    pursuer-metric separation >= epsilon.  Each new position is checked
    before it is measured: DomainViolation when a start or a step leaves the
    mover's domain, then SpeedViolation when a step is longer than
    max_speed * dt + ``domain.tol`` in the mover's metric.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(math.floor(t_max / dt + 1e-12))
    times = np.arange(n_steps + 1) * dt  # the same products as (k + 1) * dt
    h_pts = np.zeros((n_steps + 1, 2))
    z_pts = np.zeros((n_steps + 1, 2))

    escaper.reset()
    pursuer.reset()

    if escaper.start_point is None:
        raise ValueError("escaper strategy must declare a start point")
    h_pts[0] = np.asarray(escaper.start_point, dtype=float)
    in_escaper, on_exit = domain.contains(h_pts[0])
    if not in_escaper:
        raise DomainViolation("escaper start outside its domain")
    # One view per side for the whole run.  Before each call the engine
    # advances its length: the escaper sees the pursuer's k + 1 points up to
    # k*dt, the pursuer the escaper's k + 2 points up to (k+1)*dt.
    # Each view's ``last`` is the newest (x, y) float tuple the engine holds.
    # Per-step points travel as such tuples; the arrays keep the record.
    h = (float(h_pts[0, 0]), float(h_pts[0, 1]))
    esc_view = PathView(times, z_pts, 0)
    purs_view = PathView(times, h_pts, 1)
    purs_view._last = h
    z_pts[0] = np.asarray(pursuer.position(purs_view, 0.0), dtype=float)
    if not domain.contains(z_pts[0])[1]:
        raise DomainViolation("pursuer start outside its domain")
    z = (float(z_pts[0, 0]), float(z_pts[0, 1]))

    s_h = float(escaper.max_speed)
    s_z = float(pursuer.max_speed)
    step_h_max = s_h * dt + domain.tol
    step_z_max = s_z * dt + domain.tol
    touches = []
    escaper_position, pursuer_position = escaper.position, pursuer.position
    escaper_distance, pursuer_distance = domain.escaper_distance, domain.pursuer_distance
    contains = domain.contains

    def check_escape(h, z, t):
        # h is an exit (in both domains): record the touch, and escape at a
        # separation of at least epsilon
        sep = pursuer_distance(h, z)
        touches.append((t, sep))
        return sep if sep >= epsilon else None

    sep = check_escape(h, z, 0.0) if on_exit else None
    k_end = 0
    escaped_at = None
    if sep is None:
        for k in range(n_steps):
            t_next = (k + 1) * dt
            esc_view._len, esc_view._last = k + 1, z
            x, y = escaper_position(esc_view, t_next)
            h_next = (float(x), float(y))
            in_escaper, on_exit = contains(h_next)
            if not in_escaper:
                raise DomainViolation(f"escaper left its domain at t={t_next:.4g}")
            step_h = escaper_distance(h, h_next)
            if step_h > step_h_max:
                raise SpeedViolation(
                    f"escaper moved {step_h:.3g} in dt={dt:.3g} at t={t_next:.4g}"
                )
            h = h_next
            h_pts[k + 1, 0], h_pts[k + 1, 1] = h
            purs_view._len, purs_view._last = k + 2, h
            x, y = pursuer_position(purs_view, t_next)
            z_next = (float(x), float(y))
            if not contains(z_next)[1]:
                raise DomainViolation(f"pursuer left its domain at t={t_next:.4g}")
            step_z = pursuer_distance(z, z_next)
            if step_z > step_z_max:
                raise SpeedViolation(
                    f"pursuer moved {step_z:.3g} > r*dt={s_z * dt:.3g} at t={t_next:.4g}"
                )
            z = z_next
            z_pts[k + 1, 0], z_pts[k + 1, 1] = z
            k_end = k + 1
            if on_exit:
                sep = check_escape(h, z, t_next)
                if sep is not None:
                    escaped_at = t_next
                    break
    else:
        escaped_at = 0.0

    last = k_end + 1
    h_path = MotionPath(times[:last].copy(), h_pts[:last].copy(), s_h, "escaper")
    z_path = MotionPath(times[:last].copy(), z_pts[:last].copy(), s_z, "pursuer")
    if escaped_at is not None:
        return Playthrough(
            h_path,
            z_path,
            "escaped",
            epsilon,
            dt,
            escape_time=escaped_at,
            exit_point=h_pts[k_end].copy(),
            separation=sep,
            touches=touches,
        )
    return Playthrough(h_path, z_path, "no_escape_by_tmax", epsilon, dt, touches=touches)


def reference_validate_speed(path: MotionPath, domain, pairs: int = 200, seed: int = 0) -> SpeedReport:
    """The scalar oracle for ``sim.validate_speed``: one scalar distance call
    per pair.

    Check the speed-limit contract over consecutive samples and random pairs.

    Passes iff every checked pair satisfies d <= max_speed * dt + tol (the
    MotionPath invariant); the reported maxima are observed speeds.
    """
    if len(path) == 0:
        raise ValueError("empty path")
    tol = domain.tol
    dist = (
        domain.escaper_distance
        if path.domain_tag == "escaper"
        else domain.pursuer_distance
    )
    limit = path.max_speed
    max_cons = 0.0
    ok = True
    for k in range(1, len(path)):
        d = dist(path.points[k - 1], path.points[k])
        dt = path.times[k] - path.times[k - 1]
        max_cons = max(max_cons, d / dt)
        ok &= d <= limit * dt + tol
    max_pair = 0.0
    if len(path) > 2:
        rng = np.random.default_rng(seed)
        for _ in range(pairs):
            i, j = sorted(rng.integers(0, len(path), size=2).tolist())
            if i == j:
                continue
            d = dist(path.points[i], path.points[j])
            span = path.times[j] - path.times[i]
            max_pair = max(max_pair, d / span)
            ok &= d <= limit * span + tol
    return SpeedReport(max_cons, max_pair, limit, bool(ok))
