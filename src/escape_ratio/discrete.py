"""The (delta, gamma)-discretized pursuit-escape game and its exact solver.

Both domains are replaced by gamma-nets; the escaper may hop between samples
at interior distance <= delta per turn, the pursuer at pursuer distance
<= r*delta.  The escaper wins by threatening an exit sample the pursuer
cannot cover within its next two replies: after the pursuer's move z', the
threat from the escaper position h two plies back fires iff some exit x has
d_h(h, x) <= delta yet d_z(z', x) > r*delta.

``solve`` computes the least fixpoint of the escaper-win marking by value
iteration over the escaper-turn state matrix W[h, z]:

    W[h, z]  <-  OR over escaper moves h->h' of
                 AND over pursuer replies z->z' of  (threat(h, z') OR W[h', z'])

which folds the pursuer-turn layer into one step.  Sweeps are Jacobi steps
(each reads the previous sweep's W), so a state's rank is the sweep that
marked it.  A move h->h' contributes ``good(W[h'] | P[h])``, so it depends
only on its covered row ``W[h'] | P[h]``.  Evaluation is semi-naive: a sweep
re-evaluates a move only when h is open and its covered row changed in the
sweep before, that is when ``newly[h'] & ~P[h]`` is nonzero (``newly`` holds
the states that sweep marked; W only grows).  This is exact, by induction on
``good(W_{k-1}[h'] | P[h]) <= W_k[h]`` for every move: sweep 1 evaluates
every self-loop, and while W is empty every move's covered row is P[h]; a
skipped move's covered row is the one it had in sweep k - 1, so its good row
is already in W_{k-1}[h].  No rank and no sweep count changes.  Each sweep
evaluates one move per distinct covered row.  The distinct rows of P are
numbered once per solve and those of W that the sweep reads once per sweep;
the pair of numbers keys each selected move exactly, and an int32 table of
n_p * n_w entries (distinct P rows times distinct W rows read) maps each key
to its evaluated row.
The keys' covered rows are evaluated in blocks: moat-model games count bad
replies in circular windows through prefix sums (the pursuer's move set is
an arc interval); other games use a dense float32 matrix product.  W stays
packed in uint64 words across the sweeps, and so do the ranks: one bit plane
per bit of the sweep count, decoded into the int32 ``SolveResult.rank`` only
when it is first read (strategy extraction reads it).  The marking is
order-independent, so the result is deterministic.

``escaper_wins`` decides the winner alone, for the approximation scheme's
bisection: it runs the same sweeps and stops at the first sweep that fills a
row (W only grows, so that row's h0 beats every placement), or at the
fixpoint when none does.  It keeps no rank planes and no ``SolveResult``.

The module needs numpy alone: ``_close_pairs`` finds the candidate pairs of
the move relations, ``MoveRelation`` holds ``e_h`` row-compressed, and
``_nearest_samples`` shortlists the samples ``verify_net`` measures.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, GammaTooCoarse, InconsistentTables
from .geometry import MetricContext, PursuerModel, pairs_within
from .ratio import boundary_samples

# Not called here: kept so ``escape_ratio.discrete.point_classes`` still
# resolves for the layer tracer in perfbench/tracing.py.
from .geometry import point_classes  # noqa: F401


logger = logging.getLogger(__name__)

# Solver block size: a block of (h, h') pairs or of distinct row keys holds
# this many packed words of rows (pairs or keys x words per row), the
# covered-row test gathers this many words a block (two a move), and the
# distinct rows are evaluated in chunks of this many (rows x n_z) bools.
# The working set stays near 1 MB: the window path's int32 prefix counts
# over one chunk.
_BLOCK_ELEMENTS = 2**16

# Pair finder block: one pass of ``_close_pairs`` tests about this many
# candidate pairs, so each of its index and distance arrays (64 KiB) stays
# under glibc's default 128 KiB mmap threshold and comes from the heap's free
# lists.  On a 2-CPU host, passes of 2**18 page-faulted about 900 more times
# per game repetition and took 5 ms longer, and passes of 2**14 (arrays of
# exactly 128 KiB) read about 38.5 ms of bracket wall_s against 34 ms at 2**13.
_PAIR_CANDIDATES = 2**13


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Gamma-nets of the two domains with the shared exit samples.

    ``escaper_samples`` is boundary samples followed by the interior grid;
    ``pursuer_samples`` is boundary samples (moat) optionally followed by the
    exterior grid.  Exits are the boundary samples, present in both vertex
    sets at indices ``exit_idx_h`` / ``exit_idx_z``.
    """

    escaper_samples: np.ndarray
    pursuer_samples: np.ndarray
    exit_samples: np.ndarray
    gamma: float
    exit_idx_h: np.ndarray
    exit_idx_z: np.ndarray
    boundary_count: int
    interior_count: int
    exterior_count: int
    boundary_params: Optional[np.ndarray] = None  # arc position of each boundary sample

    @property
    def n_escaper(self) -> int:
        return len(self.escaper_samples)

    @property
    def n_pursuer(self) -> int:
        return len(self.pursuer_samples)


def _grid_points(lo, hi, spacing):
    xs = np.arange(lo[0], hi[0] + spacing * 0.5, spacing)
    ys = np.arange(lo[1], hi[1] + spacing * 0.5, spacing)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def gamma_sample(ctx: MetricContext, gamma: float) -> SampleSet:
    """Sample both domains so every domain point is within gamma of a sample.

    Boundary samples at arc spacing <= gamma double as the exit samples;
    interior (and exterior, for that model) points come from one
    axis-aligned grid of spacing gamma/sqrt(2) over the bounding box (the
    hull's too), so cell half-diagonals stay below gamma/2, and one
    ``MetricContext.contains`` call sorts the grid into the two domains.
    """
    poly = ctx.polygon
    if not 0 < gamma < math.inf:
        raise GammaTooCoarse(f"gamma must be positive and finite, got {gamma}")
    f = poly.min_feature_size
    if gamma > f / 4 + poly.tol:
        raise GammaTooCoarse(f"gamma {gamma} exceeds a quarter of the feature size {f}")

    params, boundary = boundary_samples(ctx, gamma)
    spacing = gamma / math.sqrt(2.0)
    lo, hi = poly.bbox
    grid = _grid_points(lo, hi, spacing)
    member = ctx.contains(grid)
    interior = grid[member[0]]

    escaper = np.vstack([boundary, interior])
    nb = len(boundary)

    if ctx.model is PursuerModel.MOAT:
        pursuer = boundary.copy()
        exterior_count = 0
    else:
        ext = grid[member[1]]
        pursuer = np.vstack([boundary, ext])
        exterior_count = len(ext)

    return SampleSet(
        escaper_samples=escaper,
        pursuer_samples=pursuer,
        exit_samples=boundary.copy(),
        gamma=float(gamma),
        exit_idx_h=np.arange(nb),
        exit_idx_z=np.arange(nb),
        boundary_count=nb,
        interior_count=len(interior),
        exterior_count=exterior_count,
        boundary_params=params,
    )


def verify_net(ctx: MetricContext, samples: SampleSet, probes: int, seed: int = 0) -> float:
    """Max intrinsic distance from random domain points to their nearest
    sample: each domain's probes come from batched draws (``_draw``) and are
    measured together (``_nearest_gap``)."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    poly = ctx.polygon
    rng = np.random.default_rng(seed)
    inside = _draw(rng, *poly.bbox, probes, lambda p: ctx.contains(p)[0])
    worst = _nearest_gap(ctx, samples.escaper_samples, inside, 0)
    t = rng.random(probes) * poly.perimeter
    if ctx.model is PursuerModel.MOAT:
        gaps = poly.arc_distance(samples.boundary_params, t[:, None]).min(axis=1)
        return max(worst, float(gaps.max()))
    # the boundary is always part of the pursuer domain; the hull pockets
    # (pursuer points off the escaper domain) have positive area only for
    # nonconvex polygons (a convex one has none to sample), and the draws
    # are capped for pockets too thin to hit
    outside = poly.boundary_point(t)
    if not poly.is_convex:
        def in_pocket(p):
            escaper, pursuer = ctx.contains(p)
            return pursuer & ~escaper

        pockets = _draw(rng, *poly.bbox, probes, in_pocket, cap=60 * probes)
        outside = np.concatenate([outside, pockets])
    return max(worst, _nearest_gap(ctx, samples.pursuer_samples, outside, 1))


def _draw(rng, lo, hi, count: int, keep, cap=math.inf) -> np.ndarray:
    """Up to ``count`` uniform points of the box [lo, hi] that ``keep``
    accepts, from at most ``cap`` draws.  A batch draws at most the points
    still needed and the draws left, so the generator is consumed exactly as
    by one draw at a time until enough points are kept."""
    kept, drawn = [], 0
    while count and drawn < cap:
        batch = lo + rng.random((min(count, cap - drawn), 2)) * (hi - lo)
        drawn += len(batch)
        kept.append(batch[keep(batch)])
        count -= len(kept[-1])
    return np.concatenate(kept)


def _nearest_gap(ctx: MetricContext, samples: np.ndarray, probes: np.ndarray, side: int) -> float:
    """Max over ``probes`` of the side's distance (d_h or exterior d_z) to
    the nearest sample.  Round r measures, in one ``pair_distances`` call,
    the r-th of the 8 Euclid-nearest samples of every probe whose Euclid
    distance to it is still below the probe's best: a scan of each shortlist
    with an early break, so the pairs and values are the scan's.  A sample
    measured outside its domain raises ``OutsideDomain``."""
    k = min(8, len(samples))
    eu, idx = _nearest_samples(samples, probes, k)
    best = np.full(len(probes), math.inf)
    for r in range(k):
        live = np.flatnonzero(eu[:, r] < best)
        if not len(live):
            break
        near = samples[idx[live, r]]
        ctx._check_domain(near, side)
        m = np.arange(len(live))
        ends = np.concatenate([probes[live], near])
        d = ctx.pair_distances(ends, m, m + len(m), (side,))[0]
        best[live] = np.minimum(best[live], d)
    return float(best.max())


def _nearest_samples(samples: np.ndarray, probes: np.ndarray, k: int):
    """The k Euclid-nearest samples of each probe: ``(eu, idx)``, each of
    shape (probes, k), ordered by (squared distance, index) with ties at
    the k-th distance taken by index, and ``eu`` = sqrt(dx*dx + dy*dy).
    Brute force over every sample, in blocks of probes of
    ``_BLOCK_ELEMENTS`` distances.  This is the shortlist of
    ``cKDTree.query(probes, k)`` to the bit, but for the order of equal
    distances, which cKDTree leaves to its tree."""
    n, m = len(samples), len(probes)
    eu = np.empty((m, k))
    idx = np.empty((m, k), dtype=np.intp)
    block = max(1, _BLOCK_ELEMENTS // n)
    for b0 in range(0, m, block):
        p = probes[b0 : b0 + block]
        dx = p[:, :1] - samples[:, 0]
        dy = p[:, 1:] - samples[:, 1]
        d2 = dx * dx + dy * dy
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        # every row holds k or more samples at or below its k-th distance;
        # nonzero lists them by (row, index), the sort by (row, distance)
        rows, cols = np.nonzero(d2 <= kth)
        vals = d2[rows, cols]
        order = np.lexsort((vals, rows))
        first = np.searchsorted(rows, np.arange(len(p)))
        take = order[first[:, None] + np.arange(k)]
        eu[b0 : b0 + len(p)] = np.sqrt(vals[take])
        idx[b0 : b0 + len(p)] = cols[take]
    return eu, idx


# ---------------------------------------------------------------------------
# move relations
# ---------------------------------------------------------------------------


def _threshold_distances(poly, pts, limit, side):
    """Pairs (i, j), i < j, of the move relation: intrinsic distance <= limit (+ tol).

    The candidates are the pairs of ``_close_pairs`` within limit widened by
    a relative 1e-12 and by tol; ``pairs_within`` keeps those whose exact
    distance (``pair_geodesics(..., (side,))[0]``) is at most limit + tol,
    and keeps a pair with a path through a vertex short enough before any
    segment test.  A convex interior (side 0) takes every pair within
    limit + tol (chords lie in it), so ``_close_pairs``' test alone decides
    which ties at the radius it keeps.  ``_csr_relation`` and
    ``_dense_relation`` turn the pairs into a relation.
    """
    tol = poly.tol
    chords = side == 0 and poly.is_convex
    cap = limit + tol if chords else limit * (1 + 1e-12) + tol
    i, j = _close_pairs(pts, cap)
    if not chords:
        keep = pairs_within(poly, pts, i, j, side, limit)
        i, j = i[keep], j[keep]
    return i, j


def _close_pairs(pts: np.ndarray, radius: float):
    """Pairs (i, j), i < j, of points with dx*dx + dy*dy <= radius*radius.

    This is the test, and so the pair set, of ``cKDTree.query_pairs`` in
    2-D: ties at the radius fall the same way.  A strip sweep: the points
    are cut into columns of width w, a hair over the radius, and ordered by
    the integer key column * n + rank of y.  Each point meets two
    contiguous runs of that order, each bounded by ``searchsorted``: the
    later points of its own column with y up to its own + w, and the points
    of the next column within w of its y.  The runs are expanded with
    ``repeat``, about ``_PAIR_CANDIDATES`` candidates a pass, and the exact
    test decides.  w exceeds the radius by 1e-12 of the radius plus the
    largest coordinate magnitude, far above the rounding of the column and
    bound arithmetic (a few 2**-53 of that), so every pair that passes the
    test lies in a run: its columns differ by at most one and its y by at
    most w.
    """
    n = len(pts)
    if n < 2:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    x, y = pts[:, 0], pts[:, 1]
    # w is 0 only when the radius is 0 and every point is at the origin
    w = radius + 1e-12 * (radius + float(np.abs(pts).max())) or 1.0
    ys = np.sort(y)
    key = np.floor((x - x.min()) / w).astype(np.int64) * n + np.searchsorted(ys, y)
    order = np.argsort(key, kind="stable")
    key = key[order]
    xo, yo = x[order], y[order]
    col = key - np.searchsorted(ys, yo)  # column * n
    lo = np.searchsorted(ys, yo - w)
    hi = np.searchsorted(ys, yo + w, side="right")
    # run r < n covers the own column of the r-th point in key order, run n + r its next column
    starts = np.concatenate([np.arange(1, n + 1), np.searchsorted(key, col + n + lo)])
    ends = np.concatenate([np.searchsorted(key, col + hi), np.searchsorted(key, col + n + hi)])
    counts = ends - starts
    owner = np.concatenate([np.arange(n), np.arange(n)])
    done = np.cumsum(counts)
    cuts = np.searchsorted(done, np.arange(_PAIR_CANDIDATES, done[-1], _PAIR_CANDIDATES))
    r2 = radius * radius
    out_i, out_j = [], []
    for r0, r1 in zip([0, *cuts], [*cuts, 2 * n]):
        c = counts[r0:r1]
        a = np.repeat(owner[r0:r1], c)
        b = _run_positions(starts[r0:r1], c)
        dx = xo[a] - xo[b]
        dy = yo[a] - yo[b]
        dx *= dx
        dy *= dy
        dx += dy
        hit = dx <= r2
        i, j = order[a[hit]], order[b[hit]]
        out_i.append(np.minimum(i, j))
        out_j.append(np.maximum(i, j))
    return np.concatenate(out_i), np.concatenate(out_j)


def _run_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions starts[r] + t, 0 <= t < counts[r], run after run."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


@dataclass(frozen=True, eq=False)
class MoveRelation:
    """Symmetric boolean relation on m vertices, row-compressed (CSR
    without values).

    Row i relates to ``indices[indptr[i] : indptr[i + 1]]``, sorted
    ascending; both arrays are int32.  ``e_h`` is one, built by
    ``_csr_relation``.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def shape(self) -> tuple:
        m = len(self.indptr) - 1
        return (m, m)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def row(self, i: int) -> np.ndarray:
        """The vertices that vertex i relates to, ascending."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def columns(self, cols) -> np.ndarray:
        """Dense bool block [i, k]: vertex i relates to vertex cols[k].  By
        symmetry column c is row c, so only the rows ``cols`` are read."""
        cols = np.asarray(cols, dtype=np.intp)
        starts = self.indptr[cols]
        counts = self.indptr[cols + 1] - starts
        block = np.zeros((self.shape[0], len(cols)), dtype=bool)
        block[self.indices[_run_positions(starts, counts)],
              np.repeat(np.arange(len(cols)), counts)] = True
        return block

    def toarray(self) -> np.ndarray:
        """The relation as a dense (m, m) bool matrix."""
        return self.columns(np.arange(self.shape[0]))


def _csr_relation(i, j, m: int) -> MoveRelation:
    """The relation on m vertices of the pairs both ways plus the diagonal.

    Built from the sorted keys row * m + col, so each row's indices are
    sorted (``SolveResult.escaper_move`` walks them in that order); row r's
    keys start at the first key >= r * m.  The keys are int32 when m * m
    fits, which sorts about twice as fast as int64.
    """
    dtype = np.int32 if m * m <= np.iinfo(np.int32).max else np.int64
    i, j = np.asarray(i, dtype=dtype), np.asarray(j, dtype=dtype)
    key = np.concatenate([i * m + j, j * m + i, np.arange(m, dtype=dtype) * (m + 1)])
    key.sort()
    starts = np.arange(m + 1, dtype=dtype) * m
    indptr = np.searchsorted(key, starts).astype(np.int32)
    key -= np.repeat(starts[:-1], np.diff(indptr))
    return MoveRelation(indptr=indptr, indices=key.astype(np.int32, copy=False))


def _dense_relation(i, j, m: int) -> np.ndarray:
    """Dense bool relation on m vertices: the pairs both ways plus the diagonal."""
    e = np.zeros((m, m), dtype=bool)
    e[i, j] = True
    e[j, i] = True
    np.fill_diagonal(e, True)
    return e


# ---------------------------------------------------------------------------
# game construction
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DiscreteGame:
    """Sampled game: vertex sets, symmetric move relations, and parameters.

    ``e_h`` is a ``MoveRelation`` over escaper samples (d_h <= delta,
    self-loops included); ``e_z`` is dense boolean over pursuer samples
    (d_z <= r*delta).
    ``_threshold_distances`` finds the pairs of both, except the moat model's
    arc ``e_z``.
    ``z_windows`` holds ``(lo, hi)`` when the pursuer move set is a circular
    interval (moat model): per-sample doubled-index arc windows.
    """

    samples: SampleSet
    e_h: MoveRelation
    e_z: np.ndarray
    r: float
    delta: float
    z_windows: Optional[tuple] = None

    @property
    def n_h(self) -> int:
        return self.samples.n_escaper

    @property
    def n_z(self) -> int:
        return self.samples.n_pursuer

    def h_neighbors(self, i: int) -> np.ndarray:
        return self.e_h.row(i)

    @functools.cached_property
    def h_exits(self) -> np.ndarray:
        """Dense bool [h, x]: escaper sample h moves to the x-th exit
        (``e_h``'s exit columns), built once per game."""
        return self.e_h.columns(self.samples.exit_idx_h)

    def z_neighbors(self, j: int) -> np.ndarray:
        return np.nonzero(self.e_z[j])[0]


def check_state_cap(n_h: int, n_z: int, state_cap: float) -> None:
    """Raise BudgetExceeded when the game's |V_h|^2*|V_z| states exceed the cap."""
    count = n_h * n_h * n_z
    if count > state_cap:
        raise BudgetExceeded(
            f"state count |V_h|^2*|V_z| = {n_h}^2*{n_z} = {count:.3g} exceeds cap {state_cap:.3g}",
            n_escaper=n_h,
            n_pursuer=n_z,
            state_count=count,
        )


def escaper_moves(ctx: MetricContext, samples: SampleSet, delta: float) -> MoveRelation:
    """The escaper move relation ``e_h`` that ``build_game`` uses: d_h <= delta."""
    pts = samples.escaper_samples
    i, j = _threshold_distances(ctx.polygon, pts, delta, 0)
    return _csr_relation(i, j, len(pts))


def build_game(
    ctx: MetricContext,
    r: float,
    delta: float,
    gamma: float,
    state_cap: float = 5e7,
    samples: Optional[SampleSet] = None,
    e_h: Optional[MoveRelation] = None,
) -> DiscreteGame:
    """Materialize the discretized game; refuses games over the state cap.

    Raises ValueError unless ``r`` and ``delta`` are zero or more and finite
    (r = 0 pins the pursuer in place).  ``samples`` may carry a precomputed
    SampleSet (from gamma_sample with the same gamma; ValueError otherwise)
    so parameter sweeps can share the sampling work; ``e_h`` may likewise
    carry ``escaper_moves`` of those samples at this delta, which does not
    depend on r.
    """
    if not (0 <= r < math.inf and 0 <= delta < math.inf):
        raise ValueError(f"r and delta must be zero or more and finite, got {r}, {delta}")
    poly = ctx.polygon
    if samples is None:
        samples = gamma_sample(ctx, gamma)
    elif samples.gamma != gamma:
        raise ValueError(f"samples are a net at gamma {samples.gamma}, the game needs {gamma}")
    n_h = samples.n_escaper
    n_z = samples.n_pursuer
    check_state_cap(n_h, n_z, state_cap)
    if e_h is None:
        e_h = escaper_moves(ctx, samples, delta)
    elif e_h.shape != (n_h, n_h):
        raise ValueError(f"e_h has shape {e_h.shape}, the samples need ({n_h}, {n_h})")

    tol = poly.tol
    reach = r * delta
    z_windows = None
    if ctx.model is PursuerModel.MOAT:
        t = samples.boundary_params
        e_z = poly.arc_distance(t[:, None], t[None, :]) <= reach + tol
        z_windows = _arc_windows(t, poly.perimeter, reach + tol)
    else:
        i, j = _threshold_distances(poly, samples.pursuer_samples, reach, 1)
        e_z = _dense_relation(i, j, n_z)
    return DiscreteGame(
        samples=samples, e_h=e_h, e_z=e_z, r=float(r),
        delta=float(delta), z_windows=z_windows,
    )


def _arc_windows(t: np.ndarray, F: float, reach: float):
    """(lo, hi) doubled-index ranges of the arc interval around each sample.

    Index d in the doubled frame [0, 2n) refers to circular sample d mod n;
    each window is a contiguous doubled range of length <= n, ready for the
    cumulative-sum containment count in the solver; a window that is the
    whole boundary is ``(0, n - 1)``.
    """
    n = len(t)
    if reach >= F / 2:
        return (np.zeros(n, dtype=int), np.full(n, n - 1, dtype=int))
    assert np.all(np.diff(t) > 0), "boundary samples must be arc-sorted"
    ext = np.concatenate([t - F, t, t + F])
    lo3 = np.searchsorted(ext, t - reach, side="left")
    hi3 = np.searchsorted(ext, t + reach, side="right") - 1
    lo = (lo3 - n) % n
    return (lo, lo + (hi3 - lo3))


# ---------------------------------------------------------------------------
# threat matrix and solver
# ---------------------------------------------------------------------------


def threat_matrix(game: DiscreteGame) -> np.ndarray:
    """P[h, z] = some exit is escaper-adjacent from h yet pursuer-uncovered from z."""
    adj_hx = game.h_exits
    adj_zx = game.e_z[:, game.samples.exit_idx_z]
    open_zx = (~adj_zx).astype(np.float32)
    counts = adj_hx.astype(np.float32) @ open_zx.T
    return counts > 0.5


@dataclass(eq=False)
class SolveResult:
    """Least-fixpoint marking of escaper-win states.

    ``escaper_move`` and ``pursuer_move`` are the extracted strategies; pass
    them to ``play_discrete`` to replay a game.  ``rank`` is decoded from
    ``rank_planes`` on first read; ``sweeps`` holds each sweep's counts, the
    numbers of its DEBUG line.
    """

    game: DiscreteGame
    escaper_wins: bool
    win_mask: np.ndarray  # bool over escaper-turn states [h, z]
    rank_planes: np.ndarray  # uint64 [bit, h, word]: bit b of each state's rank, packed
    threat: np.ndarray  # cached threat matrix P[h, z]
    witness_h0: Optional[int]
    iterations: int
    sweeps: list  # (selected, evaluated, distinct, marked) per sweep

    @property
    def win_count(self) -> int:
        return int(self.win_mask.sum())

    @functools.cached_property
    def rank(self) -> np.ndarray:
        """int32 [h, z]: the sweep that marked each state; 0 where unmarked.

        The planes are accumulated high bit first in the narrowest unsigned
        dtype that holds every rank, and widened to int32 once.
        """
        planes = self.rank_planes
        acc = np.zeros(self.win_mask.shape, dtype=np.min_scalar_type(2 ** len(planes) - 1))
        for plane in planes[::-1]:
            acc <<= 1
            acc |= _unpack_rows(plane, acc.shape[1])
        return acc.astype(np.int32)

    # -- strategy extraction ------------------------------------------------

    def escaper_move(self, h: int, z: int) -> int:
        """Move for the escaper at state (h, z); rank-decreasing on wins."""
        game = self.game
        nbrs = game.h_neighbors(h)
        if self.win_mask[h, z]:
            cur = self.rank[h, z]
            z_nbrs = game.z_neighbors(z)
            covered = self.threat[h, z_nbrs]
            for h2 in nbrs:
                ranks = self.rank[h2, z_nbrs]
                wins = self.win_mask[h2, z_nbrs]
                if np.all(covered | (wins & (ranks < cur))):
                    return int(h2)
            raise InconsistentTables("no rank-decreasing escaper move found")
        # losing states: press toward an exit threat if any move has one
        threatens = game.h_exits[nbrs].any(axis=1)
        return int(nbrs[np.argmax(threatens)]) if threatens.any() else int(h)

    def pursuer_move(self, h_threat: int, h_cur: int, z: int) -> int:
        """Pursuer reply at z after the escaper moved h_threat -> h_cur."""
        game = self.game
        z_nbrs = game.z_neighbors(z)
        safe = ~self.threat[h_threat, z_nbrs] & ~self.win_mask[h_cur, z_nbrs]
        if np.any(safe):
            return int(z_nbrs[np.argmax(safe)])
        # doomed: avoid triggering the threat as long as possible, then delay
        no_threat = ~self.threat[h_threat, z_nbrs]
        if np.any(no_threat):
            cand = z_nbrs[no_threat]
            ranks = self.rank[h_cur, cand]
            return int(cand[np.argmax(ranks)])
        return int(z_nbrs[0])


def solve(game: DiscreteGame) -> SolveResult:
    """Retrograde least-fixpoint marking of escaper-win states.

    Each sweep is a Jacobi step: every evaluation reads the marking W left by
    the previous sweep, so ``rank`` is the sweep that marked a state and
    ``escaper_move`` finds a strictly rank-decreasing move from every marked
    state.  A move h->h' contributes ``good = no reply z' with bad[z']``
    where ``bad = ~(W[h'] | P[h])``, so it depends only on its covered row
    ``W[h'] | P[h]``.  The sweep is semi-naive: sweep k re-evaluates a move
    only when row h is open (not full) and its covered row changed in sweep
    k - 1, that is when ``newly[h'] & ~P[h]`` is nonzero, where ``newly``
    holds the states sweep k - 1 marked (W only grows).  ``_select`` applies
    the rule.  It is exact, by induction on ``good(W_{k-1}[h'] | P[h]) <=
    W_k[h]`` for every move:

    - sweep 1 evaluates every self-loop: W is empty, so every move's covered
      row is P[h], the self-loop's (``e_h`` holds every self-loop);
    - a skipped move's covered row is the one it had in sweep k - 1, so its
      good row is already in ``W_{k-1}[h]``.

    So skipping changes neither ``rank`` nor ``iterations``.  ``_sweep``
    evaluates each distinct covered row of a sweep once: it keys each pair by
    the distinct rows of P (grouped once per solve) and of W (grouped once
    per sweep, over the rows the sweep's pairs read), in a table of
    n_p * n_w entries.  W stays packed in uint64 words across the sweeps,
    and ``win_mask`` is unpacked once, at the end.  No dense rank is kept:
    ``rank_planes[b]`` is bit b of every state's rank, packed like W, and
    sweep k ORs the states it marked into the planes of k's set bits (a
    state is marked once, so the planes hold its rank exactly).
    ``SolveResult.rank`` decodes them on first read.  Each sweep logs one
    DEBUG line: ``sweep k: S moves selected, E pairs evaluated, D distinct
    rows, M states newly marked``, with S the moves of open rows into rows
    that changed (the row rule), E those whose covered row changed, D the
    distinct covered rows evaluated and M the states marked;
    ``SolveResult.sweeps`` holds the same (S, E, D, M) per sweep.

    Always terminates: marking is monotone over the finite state lattice.
    The overall winner quantifies over placements: the escaper wins iff some
    h0 beats every pursuer placement z0.  ``_sweeps`` runs the sweeps, and
    ``escaper_wins`` reads the same ones up to the first full row.
    """
    P = threat_matrix(game)
    planes = []  # bit b of each state's rank, packed like W
    sweeps = []
    for iteration, W, newly, counts in _sweeps(game, P):
        sweeps.append(counts)
        if newly is None:
            break
        # each state is marked once, so OR-ing its sweep's bits in is exact
        if iteration >> len(planes):
            planes.append(np.zeros_like(W))
        for b, plane in enumerate(planes):
            if iteration >> b & 1:
                plane |= newly

    win_mask = _unpack_rows(W, game.n_z)
    full_rows = (W == _full_row(game.n_z)).all(axis=1)
    won = bool(full_rows.any())
    witness = int(np.argmax(full_rows)) if won else None
    return SolveResult(
        game=game,
        escaper_wins=won,
        win_mask=win_mask,
        rank_planes=np.array(planes, dtype=np.uint64).reshape(len(planes), *W.shape),
        threat=P,
        witness_h0=witness,
        iterations=iteration,
        sweeps=sweeps,
    )


def escaper_wins(game: DiscreteGame) -> bool:
    """The winner of ``game`` alone: True iff some h0 beats every placement.

    Runs ``solve``'s sweeps only until the winner is settled.  W only grows,
    so a row that is full stays full, and a row fills in a sweep that marks
    states in it: the escaper wins at the first sweep where a row it marked
    is full, and the pursuer when the sweeps reach the fixpoint without one.
    Logs one DEBUG line when it stops: ``escaper_wins: escaper at sweep k``
    or ``escaper_wins: pursuer at the fixpoint, sweep k``.
    """
    full = _full_row(game.n_z)
    for iteration, W, newly, _ in _sweeps(game, threat_matrix(game)):
        if newly is None:
            break
        if (W[newly.any(axis=1)] == full).all(axis=1).any():
            logger.debug("escaper_wins: escaper at sweep %d", iteration)
            return True
    logger.debug("escaper_wins: pursuer at the fixpoint, sweep %d", iteration)
    return False


def _full_row(n_z: int) -> np.ndarray:
    """A packed row with every one of its n_z states marked, shape (1, words)."""
    return _pack_rows(np.ones((1, n_z), dtype=bool))


def _sweeps(game: DiscreteGame, P: np.ndarray):
    """The semi-naive Jacobi sweeps of ``solve`` over ``game`` with threat P.

    Yields ``(k, W, newly, (S, E, D, M))`` after each sweep k: W is the
    packed marking after it, ``newly`` the states it marked and the counts
    those of its DEBUG line.  At the fixpoint (no state marked) ``newly`` is
    None and the generator ends.  The arrays are not copied: a consumer must
    not modify them.
    """
    n_h, n_z = game.n_h, game.n_z
    indices = game.e_h.indices
    degree = np.diff(game.e_h.indptr)
    row_of = np.repeat(np.arange(n_h, dtype=indices.dtype), degree)
    P_words = _pack_rows(P)
    pid, p_reps = _group_rows(P_words)
    P_rows = np.take(P_words, p_reps, axis=0)
    pid = pid.astype(np.int32)
    uncovered = np.ascontiguousarray(~P_words.T)  # word-major, for the covered-row test
    full = _full_row(n_z)
    windows = game.z_windows
    if windows is not None:
        lo, hi = windows
    else:
        ez = game.e_z.astype(np.float32)
    block = max(1, _BLOCK_ELEMENTS // P_words.shape[1])
    chunk = max(1, _BLOCK_ELEMENTS // n_z)

    def good_words(covered):
        """Packed good rows of the covered rows, in dense chunks."""
        good = []
        for c0 in range(0, len(covered), chunk):
            bad = _unpack_rows(~covered[c0 : c0 + chunk], n_z)
            if windows is None:
                # reply counts are integers below 2**24: exact in float32
                good.append(_pack_rows((bad.astype(np.float32) @ ez) < 0.5))
            else:
                good.append(_pack_rows(_window_good(bad, lo, hi)))
        return good

    W = np.zeros_like(P_words)
    # sweep 1: W is empty, so staying put covers every move
    h_sel = hp_sel = np.arange(n_h, dtype=indices.dtype)
    selected = n_h
    iteration = 0
    while True:
        iteration += 1
        evaluated = len(h_sel)
        W_next, distinct = _sweep(W, h_sel, hp_sel, pid, P_rows, block, good_words)
        newly = W_next & ~W
        # unpacking only the nonzero words counts faster than a byte table
        marked = int(np.count_nonzero(np.unpackbits(newly[newly != 0].view(np.uint8))))
        counts = (selected, evaluated, distinct, marked)
        logger.debug("sweep %d: %d moves selected, %d pairs evaluated, %d distinct rows, "
                     "%d states newly marked", iteration, *counts)
        if not marked:
            yield iteration, W, None, counts
            return
        W = W_next
        yield iteration, W, newly, counts
        if iteration > n_h * n_z + 2:
            raise RuntimeError("fixpoint failed to stabilize (bug)")
        selected, h_sel, hp_sel = _select((W != full).any(axis=1), newly, uncovered,
                                          row_of, indices, degree)


def _select(open_rows, newly, uncovered, row_of, indices, degree):
    """The pairs the next sweep evaluates, in CSR order.

    The row rule selects the moves h->h' with h open and row h' of ``newly``
    (the states the last sweep marked) nonzero; the covered-row rule keeps
    those with ``newly[h'] & ~P[h]`` nonzero (``uncovered`` is ~P,
    word-major).  Returns the number selected and the kept pairs.  Both
    rules run over blocks of ``_BLOCK_ELEMENTS // 2`` moves, the test word
    by word over the words where ``newly`` has a bit, so no array holds
    more than one word per move.
    """
    changed = newly.any(axis=1)
    words = np.flatnonzero(newly.any(axis=0))
    newly, uncovered = newly.T[words], uncovered[words]
    sel = np.repeat(open_rows, degree)
    selected = 0
    kept_h, kept_hp = [], []
    # each word of the test gathers two words a move: half a block of moves
    size = max(1, _BLOCK_ELEMENTS // 2)
    for b0 in range(0, len(indices), size):
        block = slice(b0, b0 + size)
        # gathers run several times faster on intp than on int32 indices
        hp = indices[block].astype(np.intp)
        pos = np.flatnonzero(np.take(changed, hp) & sel[block])
        selected += len(pos)
        hp = np.take(hp, pos)
        h = np.take(row_of[block], pos)
        hi = h.astype(np.intp)
        hit = np.take(newly[0], hp) & np.take(uncovered[0], hi)
        for new_w, open_w in zip(newly[1:], uncovered[1:]):
            hit |= np.take(new_w, hp) & np.take(open_w, hi)
        keep = np.flatnonzero(hit)
        kept_h.append(np.take(h, keep))
        kept_hp.append(np.take(hp, keep).astype(indices.dtype))
    return selected, np.concatenate(kept_h), np.concatenate(kept_hp)


def _sweep(W, h_sel, hp_sel, pid, P_rows, block, good_words):
    """One Jacobi sweep over the pairs (h_sel[k], hp_sel[k]), in CSR order.

    ``W`` is the marking packed into uint64 words.  Returns W_next, which is
    W with each pair's good row OR-ed into row h, and the number of distinct
    covered rows evaluated.  ``pid`` numbers the distinct rows ``P_rows`` of
    P; the distinct rows of W that the pairs read are numbered here, so the
    key pid[h] * n_w + wid[h'] names a pair's covered row exactly.  Pass 1
    marks the sweep's keys in an int32 table of n_p * n_w entries and has
    ``_evaluate_keys`` evaluate each distinct covered row once; pass 2 reads
    each pair's good row through the table.  Both passes go over the pairs
    in blocks of ``block``, so no array holds a word row per pair.
    """
    if not len(h_sel):
        return W.copy(), 0
    # number only the rows of W that the pairs read
    read = np.zeros(len(W), dtype=bool)
    read[hp_sel] = True
    read = np.flatnonzero(read)
    group, w_reps = _group_rows(W[read])
    w_reps = read[w_reps]
    wid = np.zeros(len(W), dtype=np.int32)
    wid[read] = group
    n_w = len(w_reps)
    if len(P_rows) * n_w > np.iinfo(np.int32).max:
        raise MemoryError(f"{len(P_rows)} x {n_w} distinct rows overflow the int32 row keys")

    def pair_keys(b0):
        key = np.take(pid, h_sel[b0 : b0 + block])
        key *= n_w
        key += np.take(wid, hp_sel[b0 : b0 + block])
        return key

    table = np.zeros(len(P_rows) * n_w, dtype=np.int32)
    for b0 in range(0, len(h_sel), block):
        table[pair_keys(b0)] = 1
    good, distinct = _evaluate_keys(table, n_w, np.take(W, w_reps, axis=0), P_rows,
                                    block, good_words)
    # pairs come in CSR order, grouped by h; every block starts a new run,
    # so a row split over two blocks is OR-ed into W_next from both
    run_start = np.ones(len(h_sel), dtype=bool)
    run_start[1:] = h_sel[1:] != h_sel[:-1]
    run_start[::block] = True
    W_next = W.copy()
    for b0 in range(0, len(h_sel), block):
        rows = np.take(good, np.take(table, pair_keys(b0)), axis=0)
        starts = np.flatnonzero(run_start[b0 : b0 + block])
        W_next[h_sel[b0 + starts]] |= np.bitwise_or.reduceat(rows, starts, axis=0)
    return W_next, distinct


def _evaluate_keys(table, n_w, W_rows, P_rows, block, good_words):
    """Evaluate the covered row W_rows[w] | P_rows[p] of each key p * n_w + w
    marked nonzero in ``table``, once per distinct row.

    Returns the packed good rows and their count, and leaves in each marked
    entry the index of its key's good row.  The keys are taken in blocks of
    ``block`` rows, and each block is grouped exactly by ``_group_rows``:
    distinct keys can still cover equal rows.
    """
    keys = np.flatnonzero(table != 0)  # several times faster than on int32
    good = [np.empty((0, W_rows.shape[1]), dtype=np.uint64)]
    distinct = 0
    for k0 in range(0, len(keys), block):
        p, w = np.divmod(keys[k0 : k0 + block], n_w)
        covered = np.take(W_rows, w, axis=0) | np.take(P_rows, p, axis=0)
        group, reps = _group_rows(covered)
        good += good_words(covered[reps])
        table[keys[k0 : k0 + block]] = distinct + group
        distinct += len(reps)
    return np.concatenate(good), distinct


def _pack_rows(M: np.ndarray) -> np.ndarray:
    """Rows of the bool matrix M packed into uint64 words (zero-padded)."""
    n_bytes = -(-M.shape[1] // 64) * 8
    out = np.zeros((len(M), n_bytes), dtype=np.uint8)
    packed = np.packbits(np.ascontiguousarray(M), axis=1)  # strided input packs slowly
    out[:, : packed.shape[1]] = packed
    return out.view(np.uint64)


def _unpack_rows(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``_pack_rows``: the first n bits of each row, as bool."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n).view(bool)


def _group_rows(keys: np.ndarray):
    """Exact grouping of equal rows of a 2-D key array, with no hashing.

    Returns ``(group, reps)``: ``keys[i]`` equals ``keys[reps[group[i]]]``,
    and the rows ``keys[reps]`` are pairwise distinct.
    """
    order = np.lexsort(keys.T)
    # word-major: the adjacent-row comparison reduces over long contiguous
    # rows rather than over a handful of words per key
    sorted_keys = np.take(np.ascontiguousarray(keys.T), order, axis=1)
    new = np.ones(len(order), dtype=bool)
    new[1:] = (sorted_keys[:, 1:] != sorted_keys[:, :-1]).any(axis=0)
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return group, order[new]


def _window_good(bad: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """good[k, z]: no bad[k] entry in the circular window [lo[z], hi[z]].

    Works z-major: C2 is the prefix count of bad over the doubled circular
    index, so each window count is a difference of two gathered rows.
    """
    n_z = bad.shape[1]
    C2 = np.empty((2 * n_z, len(bad)), dtype=np.int32)
    C2[0] = 0
    C2[1 : n_z + 1] = bad.T
    np.cumsum(C2[1 : n_z + 1], axis=0, out=C2[1 : n_z + 1])
    np.add(C2[1:n_z], C2[n_z], out=C2[n_z + 1 :])
    return (C2[hi + 1] == C2[lo]).T


# ---------------------------------------------------------------------------
# transcript replay
# ---------------------------------------------------------------------------


@dataclass
class Transcript:
    moves: list  # ("escaper" | "pursuer", index)
    decisive: Optional[tuple] = None  # (h_threat, z, exit_position_in_exit_list)
    turns: int = 0

    @property
    def escaper_won(self) -> bool:
        return self.decisive is not None


def play_discrete(
    game: DiscreteGame,
    escaper_move,
    pursuer_move,
    h0: int,
    z0: int,
) -> Transcript:
    """Replay two strategies from (h0, z0) until a decisive threat or a cycle.

    ``escaper_move(h, z)`` gives the escaper's next sample and
    ``pursuer_move(h_threat, h_cur, z)`` the pursuer's reply after the escaper
    moved h_threat -> h_cur, as ``SolveResult``'s methods of those names do.
    Both must be functions of their arguments, as those methods and table
    lookups are, so the state (h, z) decides the rest of the play: it ends
    at the first decisive two-reply threat, or before it would play from a
    state a second time (a cycle; at most n_h * n_z turns).  Raises
    InconsistentTables when a move function raises KeyError (a table with no
    entry for the state) or returns an illegal move: anything but an integer
    sample index in range (``bool`` included), or a hop the move relation
    does not allow.  A start (h0, z0) that is not a pair of sample indices
    raises it too.
    """
    if not (_is_index(h0, game.n_h) and _is_index(z0, game.n_z)):
        raise InconsistentTables(f"illegal start state {(h0, z0)!r}")
    e_z = game.e_z
    moves = []
    h, z = int(h0), int(z0)
    played = set()
    while (h, z) not in played:
        played.add((h, z))
        try:
            h2 = escaper_move(h, z)
        except KeyError as exc:
            raise InconsistentTables(f"escaper table has no move at {(h, z)}") from exc
        if not (_is_index(h2, game.n_h) and h2 in game.h_neighbors(h)):
            raise InconsistentTables(f"illegal escaper move {h}->{h2!r}")
        moves.append(("escaper", h2))
        try:
            z2 = pursuer_move(h, h2, z)
        except KeyError as exc:
            raise InconsistentTables(f"pursuer table has no move at {(h, h2, z)}") from exc
        if not (_is_index(z2, game.n_z) and e_z[z, z2]):
            raise InconsistentTables(f"illegal pursuer move {z}->{z2!r}")
        moves.append(("pursuer", z2))
        # the exits within reach from h that z2 leaves uncovered
        open_x = game.h_exits[h] & ~e_z[z2, game.samples.exit_idx_z]
        if open_x.any():
            return Transcript(moves=moves, decisive=(h, z2, int(np.argmax(open_x))),
                              turns=len(played))
        h, z = h2, z2
    return Transcript(moves=moves, decisive=None, turns=len(played))


def _is_index(value, n: int) -> bool:
    """``value`` is an integer (not a bool) in [0, n)."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and 0 <= value < n)

