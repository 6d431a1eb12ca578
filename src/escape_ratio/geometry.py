"""Polygon kernel and the two intrinsic metrics of the pursuit-escape game.

The escaper lives in the closed polygon (metric ``d_h``, interior geodesics);
the pursuer lives either on the boundary alone (moat model, arc-length metric)
or on the boundary plus exterior (exterior model, geodesics around the polygon
treated as an obstacle).  A shortest path is the direct segment when visible
and otherwise bends only at vertices, so it joins the two points' vertex fans
through the polygon's vertex visibility graph: exact for polygonal domains and
simple enough to trust at the target sizes (n <= 200).

All coordinates are plain floats; a global tolerance ``tol`` equal to
1e-9 times the bounding-box diagonal absorbs roundoff in orientation and
membership predicates.

The kernels (``_segment_block``, ``point_classes``, ``_edge_projections``)
lay their tables out edge-major, [edge, point or segment], so that every
reduction over edges runs over the leading axis.  numpy reduces a short
trailing axis slowly: with numpy 2.4 on a 2-CPU Xeon, ``min(axis=1)`` on a
(1200, 6) float table takes 63 us and ``min(axis=0)`` on the same data laid
out (6, 1200) 2.5 to 4 us; ``any`` and ``sum`` over bool tables gain alike.
Each value is the same float operations in the same order as in the
point-major layout, and ``min``, ``any`` and counts do not depend on the
order of reduction, so the layout moves no bit.  ``Polygon`` caches the
per-edge columns ([n, 1]) the kernels read.
"""

from __future__ import annotations

import json
import logging
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateEdge,
    InvalidCoordinates,
    OutsideDomain,
    SelfIntersecting,
    TooFewVertices,
    ZeroArea,
)

logger = logging.getLogger(__name__)

TOL_SCALE = 1e-9


class Point2(NamedTuple):
    x: float
    y: float


class PursuerModel(Enum):
    MOAT = "moat"
    EXTERIOR = "exterior"


def _as_point_array(points) -> np.ndarray:
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidCoordinates(f"polygon coordinates must be numbers ({exc})") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise TooFewVertices("expected a sequence of (x, y) pairs")
    # the float cast also reads booleans and numeric strings
    if any(isinstance(c, bool) or not isinstance(c, numbers.Real)
           for c in np.asarray(points, dtype=object).flat):
        raise InvalidCoordinates("polygon coordinates must be numbers, not booleans or strings")
    if not np.all(np.isfinite(arr)):
        raise InvalidCoordinates("polygon coordinates must be finite")
    return arr


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class Polygon:
    """Validated simple polygon with counterclockwise orientation.

    Derived quantities (perimeter, min feature size, min interior angle,
    tolerance) are computed once and cached.
    """

    vertices: np.ndarray
    tol: float

    def __post_init__(self):
        v = self.vertices
        v.setflags(write=False)
        object.__setattr__(self, "_n", len(v))
        nxt = np.roll(v, -1, axis=0)
        edges = nxt - v
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        object.__setattr__(self, "_next", nxt)
        object.__setattr__(self, "_edge_vecs", edges)
        object.__setattr__(self, "_edge_lengths", lengths)
        # the kernels' per-edge columns, each [n, 1] (see the module docstring)
        col = np.ascontiguousarray
        object.__setattr__(self, "_vx", col(v[:, :1]))
        object.__setattr__(self, "_vy", col(v[:, 1:]))
        object.__setattr__(self, "_wy", col(nxt[:, 1:]))
        object.__setattr__(self, "_ex", col(edges[:, :1]))
        object.__setattr__(self, "_ey", col(edges[:, 1:]))
        object.__setattr__(self, "_edge_lengths2", np.maximum(lengths**2, 1e-300)[:, None])
        # each edge's bounding box widened by 2 tol, as columns lo x, lo y,
        # hi x, hi y: a point outside all of them is more than 2 tol from the
        # boundary
        reach = 2.0 * self.tol
        boxes = np.hstack([np.minimum(v, nxt) - reach, np.maximum(v, nxt) + reach])
        object.__setattr__(self, "_edge_boxes", tuple(col(c) for c in boxes.T[:, :, None]))
        # row k of a table over edges, indexed by it, is edge k - 1's
        object.__setattr__(self, "_prev_edge", np.arange(-1, len(v) - 1))
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
        v, w = self.vertices, self._next
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

    @cached_property
    def _vertex_graphs(self) -> np.ndarray:
        """Interior and exterior vertex visibility graphs: [2, n, n] edge
        lengths, inf where the segment leaves the domain; one kernel call."""
        v = self.vertices
        iu, ju = np.triu_indices(self.n, k=1)
        graphs = np.full((2, self.n, self.n), np.inf)
        for g, ok in zip(graphs, segment_visibility(self, v[iu], v[ju])):
            g[iu[ok], ju[ok]] = g[ju[ok], iu[ok]] = np.hypot(*(v[ju] - v[iu]).T)[ok]
            np.fill_diagonal(g, 0.0)
        graphs.setflags(write=False)
        return graphs

    @cached_property
    def _hull(self) -> np.ndarray:
        """The convex hull's vertices (``convex_hull``: CCW, collinear points
        dropped), shared by ``MetricContext.hull`` and the pockets."""
        return convex_hull(self.vertices)

    @cached_property
    def _triangles(self) -> list[np.ndarray]:
        """The polygon's ear clipping (``triangulate``), built once."""
        return triangulate(self)

    @cached_property
    def _pieces(self) -> tuple:
        """Closed convex pieces of each side, for the piece rule of
        ``pairs_within`` (the move relations) alone: per side a
        ``(triangles [k, 3, 2], edges)`` pair.  Side 0 takes the ear
        clipping of the polygon, side 1 that of each hull pocket, slivers
        dropped (``_stout``); both take the tol/2 neighbourhood of every edge.

        A pocket is the polygon chain between two consecutive vertices on
        the hull boundary, closed by its lid.  ``convex_hull`` drops
        collinear points, so every vertex within tol of the hull boundary
        ends a chain: an unsplit pocket would have vertices on its own lid
        (the comb's tooth tops) and no ear.  A chain of one edge is no
        pocket, so a convex or collinear stretch adds no zero-area pocket.
        """
        v, n = self.vertices, self.n
        hull = Polygon(self._hull, self.tol)
        on_hull = np.flatnonzero(_boundary_distance2(hull, v) <= self.tol**2)
        pockets = []
        for a, b in zip(on_hull, np.roll(on_hull, -1)):
            chain = np.arange(a, b + 1 if b > a else b + n + 1) % n
            if len(chain) > 2:
                # the pocket lies right of the CCW chain: reversed, it is CCW
                pockets += triangulate(Polygon(v[chain[::-1]], self.tol))
        edges = np.arange(n)
        return (_stout(self._triangles), edges), (_stout(pockets), edges)

    @cached_property
    def min_feature_size(self) -> float:
        """Minimum distance between nonadjacent edges (a triangle's smallest
        altitude): the nearest vertex to an edge it does not end.

        Two disjoint segments are closest at an endpoint of one of them, and
        for n >= 4 every vertex off edge e ends an edge not adjacent to e.
        ``validate_polygon`` leaves f in the cache of a counterclockwise
        input, from the matrix it checked simplicity with.
        """
        v = self.vertices
        return _min_feature_size(_edge_projections(self, v[:, 0], v[:, 1])[1])

    @cached_property
    def min_interior_angle(self) -> float:
        """Smallest interior vertex angle (reflex angles never attain the min)."""
        return float(self.interior_angles().min())

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

    def boundary_point(self, t) -> np.ndarray:
        """Point at arc-length parameter ``t`` (measured CCW from vertex 0).

        Broadcasts: parameters of shape S give points of shape S + (2,).
        """
        t = np.mod(t, self.perimeter)
        i = np.minimum(np.searchsorted(self._cum_lengths, t, side="right") - 1, self.n - 1)
        frac = np.asarray((t - self._cum_lengths[i]) / self._edge_lengths[i])
        return self.vertices[i] + frac[..., None] * self._edge_vecs[i]

    def boundary_parameter(self, p):
        """Arc-length parameter of the boundary point nearest to ``p``.

        Broadcasts over the leading axes of ``p``; among equally near edges
        the first wins.
        """
        p = np.asarray(p, dtype=float)
        t, d2 = _edge_projections(self, p[..., 0].ravel(), p[..., 1].ravel())
        params = self._cum_lengths[:-1, None] + t * self._edge_lengths[:, None]
        i = d2.argmin(axis=0)
        return params[i, np.arange(len(i))].reshape(p.shape[:-1])[()]

    def arc_distance(self, t1, t2):
        """Boundary (moat) distance between arc parameters; broadcasts."""
        F = self.perimeter
        d = np.abs(np.subtract(t1, t2)) % F
        return np.minimum(d, F - d)

    # -- membership --------------------------------------------------------

    def classify(self, p) -> str:
        """Classify ``p`` as 'boundary', 'inside' or 'outside' (tolerance tol):
        one row of ``point_classes``."""
        p = np.asarray(p, dtype=float).reshape(1, 2)
        return _CLASS_NAMES[point_classes(self, p)[0]]


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

    poly = Polygon(vertices=np.array(arr), tol=tol)  # a copy: Polygon freezes its vertices
    if np.any(poly.edge_lengths <= tol):
        raise DegenerateEdge("two consecutive vertices coincide")

    # simplicity: no proper crossing between nonadjacent edges i < j and no
    # vertex within tol of a nonadjacent edge; the first bad pair is named
    v, w = poly.vertices, poly._next
    i, j = np.triu_indices(n, k=2)
    keep = (i > 0) | (j < n - 1)  # edges 0 and n - 1 share vertex 0
    i, j = i[keep], j[keep]
    tol2 = tol * tol
    d1 = _cross(v[j].T, w[j].T, v[i].T)
    d2 = _cross(v[j].T, w[j].T, w[i].T)
    d3 = _cross(v[i].T, w[i].T, v[j].T)
    d4 = _cross(v[i].T, w[i].T, w[j].T)
    cross = (((d1 > tol2) & (d2 < -tol2)) | ((d1 < -tol2) & (d2 > tol2))) & (
        ((d3 > tol2) & (d4 < -tol2)) | ((d3 < -tol2) & (d4 > tol2))
    )
    # segments that do not cross are closest at an endpoint of one of them,
    # so edges i and j touch when an end of one lies within tol of the other
    d2 = _edge_projections(poly, v[:, 0], v[:, 1])[1]
    near = d2 <= tol2
    touch = near[j, i] | near[j, (i + 1) % n] | near[i, j] | near[i, (j + 1) % n]
    bad = np.flatnonzero(cross | touch)
    if len(bad):
        k = bad[0]
        raise SelfIntersecting(f"edges {i[k]} and {j[k]} {'cross' if cross[k] else 'touch'}")

    area = poly.area
    if abs(area) <= tol * float(poly.edge_lengths.sum()):
        raise ZeroArea("polygon has (near) zero area")
    if area < 0:
        return Polygon(vertices=arr[::-1].copy(), tol=tol)
    # the candidate is the polygon returned: its f reads the same matrix
    object.__setattr__(poly, "min_feature_size", _min_feature_size(d2))
    return poly


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


def _stout(tris) -> np.ndarray:
    """Triangles as a [k, 3, 2] array, less those whose smallest angle has
    sine below 1e-6 (zero-area ones included).  Float cross signs accept
    points about d / sin(a) beyond a corner of angle a, for a roundoff d of
    about 1e-16 times the diagonal: under tol only for a stout triangle."""
    t = np.array(tris, dtype=float).reshape(-1, 3, 2)
    e = t[:, [1, 2, 0]] - t
    sides = np.hypot(e[..., 0], e[..., 1])
    # the sine at a corner is 2 area over the product of its two sides, and
    # the smallest angle faces the shortest side
    sine = _cross(t[:, 0].T, t[:, 1].T, t[:, 2].T) * sides.min(axis=1) / sides.prod(axis=1)
    return t[sine >= 1e-6]


# ---------------------------------------------------------------------------
# segment classification against the polygon
# ---------------------------------------------------------------------------


# Edge x segment elements per kernel block: each (edges x segments) float
# table of a block takes 2**14 * 8 bytes = 128 KB, and a full block peaks
# near 1.7 MB on the L-shape (tracemalloc), more when most segments are cut.
# Larger blocks spread the per-block numpy overhead over more segments.  The
# tables are edge-major, so each reduction over edges runs over the leading
# axis (see the module docstring).
_SEGMENT_BLOCK_ELEMENTS = 2**14


def segment_visibility(poly: Polygon, a, b):
    """Exact batched segment tests; returns ``(in_polygon, avoids_interior)``.

    For segments ``a_i -> b_i`` the two bool arrays say whether each closed
    segment stays within the closed polygon and whether it never enters the
    open interior.  Each segment is cut at every proper crossing and vertex
    touch with an edge, and at the projections of the endpoints of edges
    parallel to it that lie within tol of it.  Every piece between two cuts
    lies wholly inside, outside or on the boundary, so the class of its
    midpoint is the class of the piece; a segment shorter than tol is the
    class of ``a``.  Only segments with a cut sort their cut table; every
    other segment is one piece, classified at ``a + 0.5 * (b - a)``.
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
    tol = poly.tol
    d = b - a
    ax, ay = np.ascontiguousarray(a.T)
    dx, dy = np.ascontiguousarray(d.T)
    seg_len = np.hypot(dx, dy)
    # [edge k, segment r] tables
    dvx = poly._vx - ax
    dvy = poly._vy - ay
    ex, ey = poly._ex, poly._ey
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a + t*d = v_k + s*e_k for every edge x segment
        denom = dx * ey - dy * ex
        t = (dvx * ey - dvy * ex) / denom
        s = (dvx * dy - dvy * dx) / denom
        eps = tol / seg_len
        # a NaN or infinite t fails t > eps or t < 1 - eps
        cut = (t > eps) & (t < 1 - eps) & (s >= -1e-12) & (s <= 1 + 1e-12)
        # vertex k ends edges k-1 and k; it cuts the segment when one of them
        # is parallel to it and the vertex lies within tol of it
        par = np.abs(denom) <= tol * seg_len
        # only these (vertex k, segment r) pairs can touch
        k, r = (par | par[poly._prev_edge]).nonzero()
        tt = np.empty(0)
        if len(r):
            rx, ry, rl, r_eps = dx[r], dy[r], seg_len[r], eps[r]
            along = dvx[k, r] * rx + dvy[k, r] * ry
            u = np.clip(along / (rx * rx + ry * ry), 0.0, 1.0)
            gap = np.hypot(v[k, 0] - (ax[r] + u * rx), v[k, 1] - (ay[r] + u * ry))
            tt = along / (rl * rl)
            touch = (gap <= tol) & (tt > r_eps) & (tt < 1 - r_eps)
            r, k, tt = r[touch], k[touch], tt[touch]
    split = cut.any(axis=0)
    split[r] = True
    d = np.where(seg_len[:, None] <= tol, 0.0, d)
    mids = a + 0.5 * d
    if not split.any():
        cls = point_classes(poly, mids)
        return cls >= 0, cls <= 0
    whole = np.nonzero(~split)[0]
    parts = np.nonzero(split)[0]
    # split segments, one row each: unused cut slots repeat t = 1 and leave
    # empty pieces behind the sort
    ts = np.ones((len(parts), 2 + 2 * n))
    ts[:, 0] = 0.0
    ts[:, 2 : 2 + n] = np.where(cut[:, parts], t[:, parts], 1.0).T
    ts[np.searchsorted(parts, r), 2 + n + k] = tt
    ts = np.sort(np.round(ts, 15), axis=1)
    live = ts[:, 1:] > ts[:, :-1]
    pieces = parts[np.nonzero(live)[0]]
    mid_t = (0.5 * (ts[:, :-1] + ts[:, 1:]))[live]
    rows = np.concatenate([whole, pieces])
    cls = point_classes(poly, np.concatenate([mids[whole], a[pieces] + mid_t[:, None] * d[pieces]]))
    within = np.bincount(rows[cls < 0], minlength=len(a)) == 0
    avoids = np.bincount(rows[cls > 0], minlength=len(a)) == 0
    return within, avoids


def segment_in_polygon(poly: Polygon, a, b) -> bool:
    """True iff the closed segment ab stays within the closed polygon."""
    return bool(segment_visibility(poly, [a], [b])[0][0])


def segment_avoids_interior(poly: Polygon, a, b) -> bool:
    """True iff the closed segment ab never enters the open polygon interior."""
    return bool(segment_visibility(poly, [a], [b])[1][0])


def _edge_projections(poly: Polygon, x, y):
    """Projection of each point ``(x, y)`` (1-D arrays) onto each edge: the
    clamped edge parameter ``t`` and the squared distance ``d2``, both
    [edge, point]."""
    vx, vy, ex, ey = poly._vx, poly._vy, poly._ex, poly._ey
    t = np.clip(((x - vx) * ex + (y - vy) * ey) / poly._edge_lengths2, 0.0, 1.0)
    px = vx + t * ex - x
    py = vy + t * ey - y
    return t, px * px + py * py


def _min_feature_size(d2: np.ndarray) -> float:
    """``Polygon.min_feature_size`` from the squared distances d2[edge,
    vertex] of the vertices to the edges; overwrites the entries of each
    edge's own two vertices."""
    n = len(d2)
    k = np.arange(n)
    d2[k, k] = d2[k, (k + 1) % n] = np.inf
    return float(np.sqrt(d2.min()))


def _boundary_distance2(poly: Polygon, pts: np.ndarray) -> np.ndarray:
    """Squared distance from each point to its nearest edge."""
    return _edge_projections(poly, pts[:, 0], pts[:, 1])[1].min(axis=0)


_CLASS_NAMES = {1: "inside", 0: "boundary", -1: "outside"}


def point_classes(poly: Polygon, pts) -> np.ndarray:
    """Vectorized membership: 1 inside, 0 boundary (within tol), -1 outside.

    Only points inside some edge's bounding box widened by 2 tol are
    measured against the edges; every other point is off the boundary.
    """
    pts = np.asarray(pts, dtype=float)
    x, y = np.ascontiguousarray(pts.T)
    lo_x, lo_y, hi_x, hi_y = poly._edge_boxes
    near = np.nonzero(((x >= lo_x) & (x <= hi_x) & (y >= lo_y) & (y <= hi_y)).any(axis=0))[0]
    on_b = np.zeros(len(pts), dtype=bool)
    if len(near):
        on_b[near] = _boundary_distance2(poly, pts[near]) <= poly.tol**2
    vy = poly._vy
    # [edge, point]: the ray from each point toward +x crosses the edge
    cond = (vy <= y) != (poly._wy <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = poly._vx + (y - vy) * poly._ex / poly._ey
    # an odd number of crossings: their parity, not their count
    inside = np.logical_xor.reduce(cond & (xs > x), axis=0)
    return np.where(on_b, 0, np.where(inside, 1, -1))


# Pairs per block of the pair stages: a block's fan sums (pairs x n), like
# the relaxation's (rows x n x n), hold 2**14 * n floats, about 1 MB at n = 9.
_PAIR_BLOCK = 2**14


class _PointStage(NamedTuple):
    """What the pair stage of ``pairs_within`` reads of each point, for one
    side: coordinates (``pts``, and ``x`` and ``y`` contiguous), the fan to
    each vertex within the cap that the point sees (inf elsewhere), the fan
    relaxed over the side's vertex graph, the distance to the nearest edge,
    whether the point lies strictly in the side's open domain, its piece
    bits (``_piece_bits``), and the fan segments the kernel tested."""

    pts: np.ndarray
    x: np.ndarray
    y: np.ndarray
    fans: np.ndarray
    paths: np.ndarray
    clearance: np.ndarray
    own_side: np.ndarray
    pieces: np.ndarray
    fan_segments: int


def _point_stage(poly: Polygon, pts: np.ndarray, side: int, cap: float) -> _PointStage:
    """The per-point stage of ``pairs_within``: one kernel call over the
    fans within ``cap``, and ``_relaxed`` on the rows with a finite fan only
    (an all-inf row stays all-inf)."""
    v = poly.vertices
    diff = v - pts[:, None]
    fans = np.hypot(diff[..., 0], diff[..., 1])
    near = fans <= cap
    k, u = np.nonzero(near)
    near[k, u] = segment_visibility(poly, np.take(pts, k, axis=0), np.take(v, u, axis=0))[side]
    fans[~near] = np.inf
    d2 = _edge_projections(poly, pts[:, 0], pts[:, 1])[1]
    return _PointStage(
        pts=pts, x=pts[:, 0].copy(), y=pts[:, 1].copy(), fans=fans,
        paths=_relaxed(poly, fans, side, np.flatnonzero(near.any(axis=1))),
        clearance=np.sqrt(d2.min(axis=0)),
        own_side=point_classes(poly, pts) == (-1 if side else 1),
        pieces=_piece_bits(poly, pts, d2, side), fan_segments=len(k),
    )


def _pair_filter(st: _PointStage, a: np.ndarray, b: np.ndarray, tol: float):
    """The pair rules that need no kernel: returns the chords |pq|, whether
    each pair is bent as far as the rules decide, the pairs left for the
    kernel (positions in ``a``) and how many pairs share a piece.

    A pair whose endpoints' clearance disks cover it, with clearances
    summing to more than its length + 4 tol, keeps every point more than
    2 tol from every edge, so it takes its deeper endpoint's class.  A pair
    whose endpoints share a piece is not bent.
    """
    d = np.hypot(st.x.take(b) - st.x.take(a), st.y.take(b) - st.y.take(a))
    ca, cb = st.clearance.take(a), st.clearance.take(b)
    bent = ~st.own_side.take(np.where(ca >= cb, a, b))
    test = np.flatnonzero(ca + cb <= d + 4 * tol)
    share = (np.take(st.pieces, a.take(test), axis=0)
             & np.take(st.pieces, b.take(test), axis=0)).any(axis=1)
    bent[test[share]] = False
    return d, bent, test[~share], int(np.count_nonzero(share))


def pair_geodesics(poly: Polygon, pts, i, j, sides) -> np.ndarray:
    """Shortest path lengths from ``pts[i]`` to ``pts[j]`` for each index
    pair, one output row per entry of ``sides``: 0 for paths within the
    closed polygon (d_h), 1 for paths around its open interior
    (exterior-model d_z).

    A pair is |pq| when the segment p -> q passes the kernel, and otherwise
    the minimum over v of p's fan relaxed over the side's vertex graph plus
    q's fan to v; a pair at most tol apart is 0.  One kernel call tests
    every pair's segment and each point's fan to every vertex, and gives
    both predicates.  Side 0 of a convex polygon is the chord, with no test.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    i, j = np.ascontiguousarray(i, dtype=np.intp), np.ascontiguousarray(j, dtype=np.intp)
    v, n = poly.vertices, poly.n
    rows = len(i)
    # the kernel's segments: pq, then each point's fan
    a, b = np.empty((2, rows + len(pts) * n, 2))
    a[:rows], b[:rows] = np.take(pts, i, axis=0), np.take(pts, j, axis=0)
    d0 = np.hypot(b[:rows, 0] - a[:rows, 0], b[:rows, 1] - a[:rows, 1])
    d0[d0 <= poly.tol] = 0.0
    out = np.empty((len(sides), rows))
    out[:] = d0
    tested = [k for k, side in enumerate(sides) if side or not poly.is_convex]
    if not (tested and d0.any()):
        return out
    a[rows:].reshape(-1, n, 2)[:] = pts[:, None]
    b[rows:].reshape(-1, n, 2)[:] = v
    ok = segment_visibility(poly, a, b)
    del a, b  # freed before the bent sums: on a large batch each is megabytes
    diff = v - pts[:, None]
    fans = np.hypot(diff[..., 0], diff[..., 1])
    for k in tested:
        vis = ok[sides[k]]
        bent = np.flatnonzero(~vis[:rows] & (d0 > 0))
        if not len(bent):
            continue
        w = np.where(vis[rows:].reshape(-1, n), fans, np.inf)
        # only the rows the bent pairs read
        paths = _relaxed(poly, w, sides[k], np.unique(i.take(bent)))
        for lo in range(0, len(bent), _PAIR_BLOCK):
            block = bent[lo : lo + _PAIR_BLOCK]
            sums = np.take(paths, i.take(block), axis=0)
            sums += np.take(w, j.take(block), axis=0)
            out[k, block] = sums.min(axis=1)
    return out


def pairs_within(poly: Polygon, pts, i, j, side: int, limit: float) -> np.ndarray:
    """Whether each pair's intrinsic distance is at most ``limit`` + tol:
    ``pair_geodesics(poly, pts, i, j, (side,))[0] <= limit + tol`` (side 0
    for d_h, 1 for exterior d_z), to the bit, with fewer segment tests.

    Only vertices within the cap (``limit`` widened by a relative 1e-12 and
    by tol) of a point get a fan: a path using a longer fan is over the cap.
    A pair whose endpoints' clearance disks cover it takes its deeper
    endpoint's class without a kernel test (``_pair_filter``).  Nor does a
    pair whose endpoints both lie in one closed piece of its side
    (``Polygon._pieces``: a triangle by exact float cross signs, no slack,
    or the tol/2 neighbourhood of an edge): every point of its segment lies
    within roundoff of the piece, so every midpoint the kernel would
    classify is within tol of the side's closed domain and the kernel would
    pass it.

    Of the pairs left for the kernel, one is kept with no test when its
    through-vertex bound min_v(paths[p, v] + paths[q, v]) is at most
    (limit + tol)(1 - 1e-9).  This is sound: the bound is the length of a
    path p -> v -> q (p's relaxed path to v, then q's reversed), so the
    kernel's value is no larger.  That value is |pq| when the segment is
    visible, at most the bound by the triangle inequality; otherwise it is
    the minimum over u of paths[p, u] + fans[q, u], and the path through v
    ends with q's fan to some u, so paths[p, u] (a shortest fan-then-graph
    length) + fans[q, u] is at most the bound.  Each sum adds at most 2n
    edges, so float rounding moves it by a relative 2n * 2**-53 or so
    (4e-14 at n = 200), far below the 1e-9 margin.  The bound is kept
    finite, so a pair with no path through a vertex is never admitted.  The
    rest are tested in one kernel call per block of pairs; a bent one is the
    minimum over v of p's relaxed path plus q's fan.  Logs one DEBUG line
    per call with the fan segments tested, the pairs that share a piece, the
    pairs admitted, the pair segments tested and the pairs that bend.
    """
    pts = np.asarray(pts, dtype=float)
    i, j = np.ascontiguousarray(i, dtype=np.intp), np.ascontiguousarray(j, dtype=np.intp)
    tol = poly.tol
    st = _point_stage(poly, pts, side, limit * (1 + 1e-12) + tol)
    bound = min((limit + tol) * (1 - 1e-9), sys.float_info.max)
    keep = np.empty(len(i), dtype=bool)
    tested = shared = admitted = bends = 0
    for lo in range(0, len(i), _PAIR_BLOCK):
        a, b = i[lo : lo + _PAIR_BLOCK], j[lo : lo + _PAIR_BLOCK]
        d, bent, test, share = _pair_filter(st, a, b, tol)
        through = (np.take(st.paths, a.take(test), axis=0)
                   + np.take(st.paths, b.take(test), axis=0)).min(axis=1)
        admit, test = test[through <= bound], test[through > bound]
        bent[admit] = False
        bent[test] = ~segment_visibility(poly, np.take(st.pts, a.take(test), axis=0),
                                         np.take(st.pts, b.take(test), axis=0))[side]
        k = np.flatnonzero(bent)
        d[k] = (np.take(st.paths, a.take(k), axis=0)
                + np.take(st.fans, b.take(k), axis=0)).min(axis=1)
        ok = d <= limit + tol
        ok[admit] = True
        keep[lo : lo + _PAIR_BLOCK] = ok
        tested += len(test)
        shared += share
        admitted += len(admit)
        bends += len(k)
    logger.debug("pairs_within: %d points, %d pairs, %d fan segments tested, "
                 "%d pairs share a piece, %d pairs admitted, %d pair segments tested, "
                 "%d pairs bent", len(pts), len(i), st.fan_segments, shared, admitted, tested, bends)
    return keep


def _piece_bits(poly: Polygon, pts: np.ndarray, d2: np.ndarray, side: int) -> np.ndarray:
    """Which pieces of ``side`` hold each point, as packed bits per row: two
    points share a piece when their rows share a bit.  ``d2`` holds the
    squared distances from the edges to the points, [edge, point]."""
    tris, edges = poly._pieces[side]
    x, y = pts[:, 0, None], pts[:, 1, None]
    held = np.ones((len(pts), len(tris)), dtype=bool)
    # exact signs on the CCW triangles, no slack: near a sharp corner a
    # slack on the cross product admits points without bound in distance
    for k in range(3):
        o, e = tris[:, k], tris[:, (k + 1) % 3] - tris[:, k]
        held &= e[:, 0] * (y - o[:, 1]) - e[:, 1] * (x - o[:, 0]) >= 0
    near = (d2[edges] <= (0.5 * poly.tol) ** 2).T
    return np.packbits(np.concatenate([held, near], axis=1), axis=1)


def _relaxed(poly: Polygon, fans: np.ndarray, side: int, rows: np.ndarray) -> np.ndarray:
    """``fans`` with the rows ``rows`` relaxed over the side's vertex graph
    (``_relax``), a block of ``_PAIR_BLOCK`` // n rows at a time; the other
    rows as given.  Each row's result is independent of its block."""
    graph = poly._vertex_graphs[side]
    paths = fans.copy()
    block = max(1, _PAIR_BLOCK // poly.n)
    for lo in range(0, len(rows), block):
        sel = rows[lo : lo + block]
        paths[sel] = _relax(np.take(fans, sel, axis=0), graph)
    return paths


def _relax(fans: np.ndarray, graph: np.ndarray) -> np.ndarray:
    """Shortest fan-then-graph path lengths to each vertex, per row of fans:
    each path's edges are added left to right, as a Dijkstra would add them.
    The sums are vertex-major, [u, v, row], so the minimum over the last
    vertex u runs over the leading axis."""
    d = np.ascontiguousarray(fans.T)
    graph = graph[:, :, None]
    while True:
        nxt = np.minimum(d, (d[:, None] + graph).min(axis=0))
        if np.array_equal(nxt, d):
            return d.T
        d = nxt


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
    has the leading shape (a numpy bool for one point).  The slack is a
    distance: a point passes an edge when it lies at most tol beyond the
    edge's line (cross product >= -tol * edge length), wherever the hull is.
    """
    p = np.asarray(p, dtype=float)
    e = np.roll(hull, -1, axis=0) - hull
    cr = e[:, 0] * (p[..., 1, None] - hull[:, 1]) - e[:, 1] * (p[..., 0, None] - hull[:, 0])
    return np.all(cr >= -tol * np.hypot(e[:, 0], e[:, 1]), axis=-1)


# ---------------------------------------------------------------------------
# metric context
# ---------------------------------------------------------------------------


class MetricContext:
    """Immutable bundle of a polygon, pursuer model and convex hull; the
    hull, the triangulation and the vertex visibility graphs behind both
    metrics are cached on the polygon, each built on first use.

    Safe to share across threads once constructed; the lazy caches are filled
    by pure recomputation, so a benign race only repeats work.
    """

    def __init__(self, polygon: Polygon, model: PursuerModel = PursuerModel.MOAT):
        if not isinstance(model, PursuerModel):
            model = PursuerModel(model)
        self.polygon = polygon
        self.model = model
        self.hull = polygon._hull

    @cached_property
    def triangulation(self) -> list[np.ndarray]:
        """The polygon's cached ear clipping (O(n^3), built on first use):
        ``scheme.epsilon0`` reads it, and the interior pieces of
        ``pairs_within`` come from it."""
        return self.polygon._triangles

    # -- visibility graphs over polygon vertices ---------------------------

    @property
    def interior_visibility(self) -> np.ndarray:
        """Vertex-to-vertex interior edge lengths; inf marks invisible pairs."""
        return self.polygon._vertex_graphs[0]

    @property
    def exterior_visibility(self) -> np.ndarray:
        return self.polygon._vertex_graphs[1]

    # -- escaper metric -----------------------------------------------------

    def interior_distance(self, p, q) -> float:
        """Geodesic distance inside the closed polygon (d_h)."""
        return self._distance(p, q, 0)

    # -- pursuer metric -----------------------------------------------------

    def pursuer_distance(self, p, q) -> float:
        """Distance in the pursuer domain (d_z) under the configured model."""
        return self._distance(p, q, 1)

    def _distance(self, p, q, side: int) -> float:
        """The side's distance between two points of its domain: one row of
        ``pair_distances`` after ``_check_domain``."""
        pq = np.array([p, q], dtype=float)
        self._check_domain(pq, side)
        return float(self.pair_distances(pq, [0], [1], (side,))[0, 0])

    def pair_distances(self, pts, i, j, sides) -> np.ndarray:
        """The distances from ``pts[i]`` to ``pts[j]`` for each index pair,
        one output row per entry of ``sides``: 0 for d_h, 1 for d_z.  The
        points are not checked.  The moat pursuer's d_z is the boundary arc
        between the points' ``boundary_parameter``; every other row is
        ``pair_geodesics``, which alone answers when the model is exterior
        or no d_z is asked for."""
        poly = self.polygon
        if self.model is PursuerModel.EXTERIOR or 1 not in sides:
            return pair_geodesics(poly, pts, i, j, sides)
        out = np.empty((len(sides), len(i)))
        if 0 in sides:
            out[:] = pair_geodesics(poly, pts, i, j, (0,))
        t = poly.boundary_parameter(pts)
        out[np.equal(sides, 1)] = poly.arc_distance(t.take(i), t.take(j))
        return out

    # -- domains --------------------------------------------------------------

    def contains(self, pts) -> np.ndarray:
        """Which domains each point lies in, from one ``point_classes`` call:
        a [2, len(pts)] bool array whose row 0 is the escaper domain (the
        closed polygon) and row 1 the pursuer domain: the boundary in the
        moat model, the convex hull less the open interior in the exterior
        model (the hull test, within tol, runs in that model only).  The
        boundary, where the escaper escapes, lies in both."""
        pts = np.asarray(pts, dtype=float)
        cls = point_classes(self.polygon, pts)
        if self.model is PursuerModel.MOAT:
            return np.stack([cls >= 0, cls == 0])
        hull = point_in_convex_hull(self.hull, pts, self.polygon.tol)
        return np.stack([cls >= 0, (cls <= 0) & hull])

    def _check_domain(self, pts: np.ndarray, side: int) -> None:
        """Raise ``OutsideDomain`` at the first point outside the side's
        domain (row ``side`` of ``contains``).  Side 0 reads the classes
        alone: the hull test never decides row 0."""
        if side == 0:
            if np.any(point_classes(self.polygon, pts) < 0):
                raise OutsideDomain("point not in the escaper domain")
            return
        member = self.contains(pts)
        bad = ~member[1]
        if not bad.any():
            return
        if self.model is PursuerModel.MOAT:
            raise OutsideDomain("point not on the boundary (moat model)")
        raise OutsideDomain("point inside the escaper domain" if member[0, bad.argmax()]
                            else "point beyond the convex hull of the boundary")


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
