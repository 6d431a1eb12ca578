"""Polygon kernel and the two intrinsic metrics of the pursuit-escape game.

The escaper lives in the closed polygon (metric ``d_h``, interior geodesics);
the pursuer lives either on the boundary alone (moat model, arc-length metric)
or on the boundary plus exterior (exterior model, geodesics around the polygon
treated as an obstacle).  Shortest paths are computed on visibility graphs over
the polygon vertices plus the query points, which is exact for polygonal
domains and simple enough to trust at the target sizes (n <= 200).

All coordinates are plain floats; a global tolerance ``tol`` equal to
1e-9 times the bounding-box diagonal absorbs roundoff in orientation and
membership predicates.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateEdge,
    OutsideDomain,
    SelfIntersecting,
    TooFewVertices,
    ZeroArea,
)

TOL_SCALE = 1e-9


class Point2(NamedTuple):
    x: float
    y: float


class PursuerModel(Enum):
    MOAT = "moat"
    EXTERIOR = "exterior"


def _as_point_array(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise TooFewVertices("expected a sequence of (x, y) pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("polygon coordinates must be finite")
    return arr


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _seg_seg_distance(p1, p2, q1, q2) -> float:
    """Euclidean distance between two closed segments."""
    d = np.inf
    for a, b, pts in ((p1, p2, (q1, q2)), (q1, q2, (p1, p2))):
        ab = np.subtract(b, a)
        denom = float(ab @ ab)
        for p in pts:
            if denom <= 0.0:
                d = min(d, float(np.hypot(*(np.subtract(p, a)))))
                continue
            t = float(np.clip(np.subtract(p, a) @ ab / denom, 0.0, 1.0))
            proj = a + t * ab
            d = min(d, float(np.hypot(p[0] - proj[0], p[1] - proj[1])))
    # proper crossings give distance zero; detected by the caller separately
    return d


def _segments_properly_intersect(p1, p2, q1, q2, tol) -> bool:
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    return ((d1 > tol and d2 < -tol) or (d1 < -tol and d2 > tol)) and (
        (d3 > tol and d4 < -tol) or (d3 < -tol and d4 > tol)
    )


@dataclass(frozen=True)
class Polygon:
    """Validated simple polygon with counterclockwise orientation.

    Derived quantities (perimeter, min feature size, min interior angle,
    tolerance) are computed once at construction and cached.
    """

    vertices: np.ndarray
    tol: float = field(default=0.0)

    def __post_init__(self):
        v = self.vertices
        v.setflags(write=False)
        object.__setattr__(self, "_n", len(v))
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        object.__setattr__(self, "_edge_vecs", edges)
        object.__setattr__(self, "_edge_lengths", lengths)
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        object.__setattr__(self, "_cum_lengths", cum)

    # -- derived scalars -------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def perimeter(self) -> float:
        return float(self._cum_lengths[-1])

    @property
    def edge_lengths(self) -> np.ndarray:
        return self._edge_lengths

    @property
    def cumulative_lengths(self) -> np.ndarray:
        return self._cum_lengths

    @property
    def area(self) -> float:
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        return float(0.5 * np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))

    @property
    def bbox(self):
        v = self.vertices
        return v.min(axis=0), v.max(axis=0)

    @cached_property
    def is_convex(self) -> bool:
        v = self.vertices
        prev = np.roll(v, 1, axis=0)
        nxt = np.roll(v, -1, axis=0)
        cr = (v[:, 0] - prev[:, 0]) * (nxt[:, 1] - v[:, 1]) - (
            v[:, 1] - prev[:, 1]
        ) * (nxt[:, 0] - v[:, 0])
        return bool(np.all(cr >= -self.tol * max(1.0, self.perimeter)))

    @property
    def min_feature_size(self) -> float:
        return min_feature_size(self)

    @property
    def min_interior_angle(self) -> float:
        return min_interior_angle(self)

    def interior_angles(self) -> np.ndarray:
        """Interior angle at each vertex, in (0, 2*pi); reflex vertices > pi."""
        v = self.vertices
        prev = np.roll(v, 1, axis=0)
        nxt = np.roll(v, -1, axis=0)
        a = prev - v
        b = nxt - v
        ang_a = np.arctan2(a[:, 1], a[:, 0])
        ang_b = np.arctan2(b[:, 1], b[:, 0])
        # interior of a CCW polygon lies to the left of each directed edge;
        # the interior angle is the CCW sweep from the outgoing to the incoming edge
        ang = np.mod(ang_a - ang_b, 2.0 * np.pi)
        ang[ang == 0.0] = 2.0 * np.pi
        return ang

    # -- boundary parameterization ----------------------------------------

    def boundary_point(self, t: float) -> np.ndarray:
        """Point at arc-length parameter ``t`` (measured CCW from vertex 0)."""
        F = self.perimeter
        t = float(t) % F
        i = int(np.searchsorted(self._cum_lengths, t, side="right") - 1)
        i = min(i, self.n - 1)
        local = t - self._cum_lengths[i]
        frac = local / self._edge_lengths[i] if self._edge_lengths[i] > 0 else 0.0
        return self.vertices[i] + frac * self._edge_vecs[i]

    def boundary_parameter(self, p) -> float:
        """Arc-length parameter of the boundary point nearest to ``p``."""
        p = np.asarray(p, dtype=float)
        v = self.vertices
        e = self._edge_vecs
        denom = np.maximum(self._edge_lengths**2, 1e-300)
        t = np.clip(((p - v) * e).sum(axis=1) / denom, 0.0, 1.0)
        proj = v + t[:, None] * e
        d2 = ((proj - p) ** 2).sum(axis=1)
        i = int(np.argmin(d2))
        return float(self._cum_lengths[i] + t[i] * self._edge_lengths[i])

    def distance_to_boundary(self, p) -> float:
        p = np.asarray(p, dtype=float)
        v = self.vertices
        e = self._edge_vecs
        denom = np.maximum(self._edge_lengths**2, 1e-300)
        t = np.clip(((p - v) * e).sum(axis=1) / denom, 0.0, 1.0)
        proj = v + t[:, None] * e
        return float(np.sqrt(((proj - p) ** 2).sum(axis=1).min()))

    def arc_distance(self, t1: float, t2: float) -> float:
        """Boundary (moat) distance between two arc parameters."""
        F = self.perimeter
        d = abs(float(t1) - float(t2)) % F
        return min(d, F - d)

    # -- membership --------------------------------------------------------

    def classify(self, p) -> str:
        """Classify ``p`` as 'boundary', 'inside' or 'outside' (tolerance tol)."""
        p = np.asarray(p, dtype=float)
        if self.distance_to_boundary(p) <= self.tol:
            return "boundary"
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        # half-open ray casting toward +x
        cond = (v[:, 1] <= p[1]) != (w[:, 1] <= p[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = v[:, 0] + (p[1] - v[:, 1]) * (w[:, 0] - v[:, 0]) / (w[:, 1] - v[:, 1])
        crossings = int(np.count_nonzero(cond & (xs > p[0])))
        return "inside" if crossings % 2 == 1 else "outside"

    def contains(self, p) -> bool:
        return self.classify(p) != "outside"


def validate_polygon(points) -> Polygon:
    """Validate and normalize a vertex list into a CCW simple Polygon.

    Raises TooFewVertices, DegenerateEdge, SelfIntersecting or ZeroArea.
    Clockwise input is reversed.
    """
    arr = _as_point_array(points)
    n = len(arr)
    if n < 3:
        raise TooFewVertices(f"polygon needs at least 3 vertices, got {n}")

    lo, hi = arr.min(axis=0), arr.max(axis=0)
    tol = TOL_SCALE * float(np.hypot(*(hi - lo)))
    if tol == 0.0:
        raise ZeroArea("all vertices coincide")

    nxt = np.roll(arr, -1, axis=0)
    if np.any(np.hypot(*(nxt - arr).T) <= tol):
        raise DegenerateEdge("two consecutive vertices coincide")

    # simplicity: no proper crossing between nonadjacent edges and no vertex
    # on a nonadjacent edge
    for i in range(n):
        a1, a2 = arr[i], arr[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = arr[j], arr[(j + 1) % n]
            if _segments_properly_intersect(a1, a2, b1, b2, tol * tol):
                raise SelfIntersecting(f"edges {i} and {j} cross")
            if _seg_seg_distance(a1, a2, b1, b2) <= tol:
                raise SelfIntersecting(f"edges {i} and {j} touch")

    w = np.roll(arr, -1, axis=0)
    area = 0.5 * float(np.sum(arr[:, 0] * w[:, 1] - w[:, 0] * arr[:, 1]))
    perimeter = float(np.hypot(*(w - arr).T).sum())
    if abs(area) <= tol * perimeter:
        raise ZeroArea("polygon has (near) zero area")
    if area < 0:
        arr = arr[::-1].copy()
    return Polygon(vertices=np.ascontiguousarray(arr), tol=tol)


def min_feature_size(poly: Polygon) -> float:
    """Minimum distance between nonadjacent edges.

    Triangles have no nonadjacent edge pair; fall back to the minimum
    vertex-to-opposite-edge distance (the smallest altitude).
    """
    v = poly.vertices
    n = poly.n
    if n == 3:
        best = np.inf
        for i in range(3):
            a, b = v[(i + 1) % 3], v[(i + 2) % 3]
            best = min(best, _point_segment_distance(v[i], a, b))
        return float(best)
    best = np.inf
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            best = min(
                best,
                _seg_seg_distance(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]),
            )
    return float(best)


def _point_segment_distance(p, a, b) -> float:
    ab = np.subtract(b, a)
    denom = float(ab @ ab)
    if denom <= 0.0:
        return float(np.hypot(*(np.subtract(p, a))))
    t = float(np.clip(np.subtract(p, a) @ ab / denom, 0.0, 1.0))
    proj = a + t * ab
    return float(np.hypot(p[0] - proj[0], p[1] - proj[1]))


def min_interior_angle(poly: Polygon) -> float:
    """Smallest interior vertex angle (reflex angles never attain the min)."""
    return float(poly.interior_angles().min())


def triangulate(poly: Polygon) -> list[np.ndarray]:
    """Ear-clipping triangulation; returns n-2 coordinate triangles."""
    v = poly.vertices
    idx = list(range(poly.n))
    tol = poly.tol
    tris: list[np.ndarray] = []

    def is_ear(k: int) -> bool:
        i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % len(idx)]
        a, b, c = v[i0], v[i1], v[i2]
        if _cross(a, b, c) <= tol * tol:
            return False
        # no remaining vertex strictly inside the candidate ear
        for j in idx:
            if j in (i0, i1, i2):
                continue
            p = v[j]
            if (
                _cross(a, b, p) >= -tol * tol
                and _cross(b, c, p) >= -tol * tol
                and _cross(c, a, p) >= -tol * tol
            ):
                return False
        return True

    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * poly.n * poly.n:
            raise SelfIntersecting("ear clipping failed; polygon not simple?")
        for k in range(len(idx)):
            if is_ear(k):
                i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % len(idx)]
                tris.append(np.array([v[i0], v[i1], v[i2]]))
                del idx[k]
                break
        else:
            raise SelfIntersecting("no ear found; polygon not simple?")
    tris.append(np.array([v[idx[0]], v[idx[1]], v[idx[2]]]))
    return tris


# ---------------------------------------------------------------------------
# segment classification against the polygon
# ---------------------------------------------------------------------------


# Segment x edge elements per kernel block: the cut table and the midpoint
# classification of one block stay near 1 MB.
_SEGMENT_BLOCK_ELEMENTS = 2**12


def segment_visibility(poly: Polygon, a, b):
    """Exact batched segment tests; returns ``(in_polygon, avoids_interior)``.

    For segments ``a_i -> b_i`` the two bool arrays say whether each closed
    segment stays within the closed polygon and whether it never enters the
    open interior.  Each segment is cut at every proper crossing and vertex
    touch with an edge, and at the projections of the endpoints of edges
    parallel to it that lie within tol of it.  Every piece between two cuts
    lies wholly inside, outside or on the boundary, so the class of its
    midpoint is the class of the piece; a segment shorter than tol is the
    class of ``a``.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    within = np.empty(len(a), dtype=bool)
    avoids = np.empty(len(a), dtype=bool)
    block = max(1, _SEGMENT_BLOCK_ELEMENTS // poly.n)
    for lo in range(0, len(a), block):
        sl = slice(lo, lo + block)
        within[sl], avoids[sl] = _segment_block(poly, a[sl], b[sl])
    return within, avoids


def _segment_block(poly: Polygon, a: np.ndarray, b: np.ndarray):
    n = poly.n
    v = poly.vertices
    e = poly._edge_vecs
    tol = poly.tol
    d = b - a
    dx, dy = d[:, 0, None], d[:, 1, None]
    seg_len = np.hypot(d[:, 0], d[:, 1])[:, None]
    dvx = v[:, 0] - a[:, 0, None]
    dvy = v[:, 1] - a[:, 1, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # a + t*d = v_k + s*e_k for every segment x edge
        denom = dx * e[:, 1] - dy * e[:, 0]
        t = (dvx * e[:, 1] - dvy * e[:, 0]) / denom
        s = (dvx * dy - dvy * dx) / denom
        eps = tol / seg_len
        cut = np.isfinite(t) & (t > eps) & (t < 1 - eps) & (s >= -1e-12) & (s <= 1 + 1e-12)
        # vertex k ends edges k-1 and k; it cuts the segment when one of them
        # is parallel to it and the vertex lies within tol of it
        par = np.abs(denom) <= tol * seg_len
        along = dvx * dx + dvy * dy
        u = np.clip(along / (dx * dx + dy * dy), 0.0, 1.0)
        gap = np.hypot(v[:, 0] - (a[:, 0, None] + u * dx), v[:, 1] - (a[:, 1, None] + u * dy))
        tt = along / (seg_len * seg_len)
        touch = (par | par[:, np.arange(-1, n - 1)]) & (gap <= tol) & (tt > eps) & (tt < 1 - eps)
    # unused cut slots repeat t = 1 and leave empty pieces behind the sort
    ts = np.ones((len(a), 2 + 2 * n))
    ts[:, 0] = 0.0
    ts[:, 2 : 2 + n] = np.where(cut, t, 1.0)
    ts[:, 2 + n :] = np.where(touch, tt, 1.0)
    ts = np.sort(np.round(ts, 15), axis=1)
    live = ts[:, 1:] > ts[:, :-1]
    rows = np.nonzero(live)[0]
    mid_t = (0.5 * (ts[:, :-1] + ts[:, 1:]))[live]
    d = np.where(seg_len <= tol, 0.0, d)
    cls = point_classes(poly, a[rows] + mid_t[:, None] * d[rows])
    within = np.bincount(rows[cls < 0], minlength=len(a)) == 0
    avoids = np.bincount(rows[cls > 0], minlength=len(a)) == 0
    return within, avoids


def segment_in_polygon(poly: Polygon, a, b) -> bool:
    """True iff the closed segment ab stays within the closed polygon."""
    return bool(segment_visibility(poly, [a], [b])[0][0])


def segment_avoids_interior(poly: Polygon, a, b) -> bool:
    """True iff the closed segment ab never enters the open polygon interior."""
    return bool(segment_visibility(poly, [a], [b])[1][0])


def point_classes(poly: Polygon, pts) -> np.ndarray:
    """Vectorized membership: 1 inside, 0 boundary (within tol), -1 outside."""
    pts = np.asarray(pts, dtype=float)
    v = poly.vertices
    e = poly._edge_vecs
    lens2 = np.maximum(poly.edge_lengths**2, 1e-300)
    diff = pts[:, None, :] - v[None, :, :]
    t = np.clip((diff * e[None, :, :]).sum(-1) / lens2[None, :], 0.0, 1.0)
    proj = v[None, :, :] + t[..., None] * e[None, :, :]
    d2 = ((proj - pts[:, None, :]) ** 2).sum(-1).min(axis=1)
    on_b = d2 <= poly.tol**2
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


# ---------------------------------------------------------------------------
# convex hull (monotone chain)
# ---------------------------------------------------------------------------


def convex_hull(points: np.ndarray) -> np.ndarray:
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def point_in_convex_hull(hull: np.ndarray, p, tol: float):
    """Whether ``p`` lies in the CCW convex ``hull`` (within tol).

    ``p`` is one point or an array of points over leading axes; the answer
    has the leading shape (a numpy bool for one point).
    """
    p = np.asarray(p, dtype=float)
    w = np.roll(hull, -1, axis=0)
    cr = (w[:, 0] - hull[:, 0]) * (p[..., 1, None] - hull[:, 1]) - (w[:, 1] - hull[:, 1]) * (
        p[..., 0, None] - hull[:, 0]
    )
    return np.all(cr >= -tol * max(1.0, np.abs(hull).max()), axis=-1)


# ---------------------------------------------------------------------------
# metric context
# ---------------------------------------------------------------------------


class MetricContext:
    """Immutable bundle of a polygon, pursuer model, triangulation, and the
    cached visibility graphs backing the two intrinsic metrics.

    Safe to share across threads once constructed; the lazy caches are filled
    by pure recomputation, so a benign race only repeats work.
    """

    def __init__(self, polygon: Polygon, model: PursuerModel = PursuerModel.MOAT):
        if not isinstance(model, PursuerModel):
            model = PursuerModel(model)
        self.polygon = polygon
        self.model = model
        self.triangulation = triangulate(polygon)
        self._hull = convex_hull(polygon.vertices)
        self._interior_vis = None
        self._exterior_vis = None

    # -- visibility graphs over polygon vertices ---------------------------

    @property
    def interior_visibility(self) -> np.ndarray:
        """Dense matrix of vertex-to-vertex interior geodesic edge lengths.

        inf marks invisible pairs.
        """
        if self._interior_vis is None:
            self._interior_vis = self._build_vis(interior=True)
        return self._interior_vis

    @property
    def exterior_visibility(self) -> np.ndarray:
        if self._exterior_vis is None:
            self._exterior_vis = self._build_vis(interior=False)
        return self._exterior_vis

    def _build_vis(self, interior: bool) -> np.ndarray:
        poly = self.polygon
        n = poly.n
        v = poly.vertices
        m = np.full((n, n), np.inf)
        iu, ju = np.triu_indices(n, k=1)
        if poly.is_convex and interior:
            # chords of a convex polygon are in the polygon always
            ok = np.ones(len(iu), dtype=bool)
        elif poly.is_convex:
            # ... and avoid the interior exactly when their midpoint is not inside
            ok = point_classes(poly, 0.5 * (v[iu] + v[ju])) != 1
        else:
            ok = segment_visibility(poly, v[iu], v[ju])[0 if interior else 1]
        d = np.hypot(*(v[ju] - v[iu]).T)
        m[iu[ok], ju[ok]] = d[ok]
        m[ju[ok], iu[ok]] = d[ok]
        np.fill_diagonal(m, 0.0)
        return m

    def _visible_from(self, p, interior: bool) -> np.ndarray:
        """Euclidean lengths from p to each visible polygon vertex (inf else)."""
        poly = self.polygon
        v = poly.vertices
        p = np.asarray(p, dtype=float)
        if poly.is_convex and interior:
            return np.hypot(*(v - p).T)
        if poly.is_convex:
            ok = point_classes(poly, 0.5 * (v + p)) != 1
        else:
            ok = segment_visibility(poly, np.broadcast_to(p, v.shape), v)[0 if interior else 1]
        return np.where(ok, np.hypot(*(v - p).T), np.inf)

    # -- escaper metric -----------------------------------------------------

    def interior_distance(self, p, q) -> float:
        """Geodesic distance inside the closed polygon (d_h)."""
        poly = self.polygon
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if poly.classify(p) == "outside" or poly.classify(q) == "outside":
            raise OutsideDomain("point not in the escaper domain")
        d0 = float(np.hypot(*(q - p)))
        if d0 <= poly.tol:
            return 0.0
        if poly.is_convex or segment_in_polygon(poly, p, q):
            return d0
        base = self.interior_visibility
        wp = self._visible_from(p, interior=True)
        wq = self._visible_from(q, interior=True)
        return _two_point_dijkstra(base, wp, wq, direct=np.inf)

    # -- pursuer metric -----------------------------------------------------

    def pursuer_distance(self, p, q) -> float:
        """Distance in the pursuer domain (d_z) under the configured model."""
        if self.model is PursuerModel.MOAT:
            return self._moat_distance(p, q)
        return self._exterior_distance(p, q)

    def _require_on_boundary(self, p) -> float:
        poly = self.polygon
        if poly.distance_to_boundary(p) > poly.tol:
            raise OutsideDomain("point not on the boundary (moat model)")
        return poly.boundary_parameter(p)

    def _moat_distance(self, p, q) -> float:
        poly = self.polygon
        tp = self._require_on_boundary(p)
        tq = self._require_on_boundary(q)
        return poly.arc_distance(tp, tq)

    def _exterior_distance(self, p, q) -> float:
        poly = self.polygon
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        for pt in (p, q):
            if poly.classify(pt) == "inside":
                raise OutsideDomain("point inside the escaper domain")
            if not point_in_convex_hull(self._hull, pt, poly.tol):
                raise OutsideDomain("point beyond the convex hull of the boundary")
        d0 = float(np.hypot(*(q - p)))
        if d0 <= poly.tol:
            return 0.0
        if poly.is_convex:
            direct = poly.classify(0.5 * (p + q)) != "inside"
        else:
            direct = segment_avoids_interior(poly, p, q)
        if direct:
            return d0
        base = self.exterior_visibility
        wp = self._visible_from(p, interior=False)
        wq = self._visible_from(q, interior=False)
        return _two_point_dijkstra(base, wp, wq, direct=np.inf)


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


# ---------------------------------------------------------------------------
# polygon file format: JSON array of [x, y] pairs
# ---------------------------------------------------------------------------


def loads_polygon(text: str) -> Polygon:
    data = json.loads(text)
    return validate_polygon(data)


def dumps_polygon(poly: Polygon) -> str:
    return json.dumps([[float(x), float(y)] for x, y in poly.vertices])


def load_polygon(path) -> Polygon:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_polygon(fh.read())


def save_polygon(poly: Polygon, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_polygon(poly))
