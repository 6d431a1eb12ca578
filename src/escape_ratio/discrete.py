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
marked it.  Evaluation is semi-naive: a sweep re-evaluates a move h->h' only
when row h' of W changed in the sweep before, since the move's contribution
depends on W[h'] and the threat row of h alone; this skips work without
changing any rank or the sweep count.  The selected moves are evaluated in
blocks: moat-model games count bad replies in circular windows through
prefix sums (the pursuer's move set is an arc interval); other games use a
dense float32 matrix product.  The marking is order-independent, so the
result is deterministic.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as cs_dijkstra
from scipy.spatial import cKDTree

from .errors import BudgetExceeded, GammaTooCoarse, InconsistentTables
from .geometry import (
    MetricContext,
    PursuerModel,
    convex_hull,
    point_classes,
    point_in_convex_hull,
    segment_visibility,
)
from .ratio import boundary_samples


logger = logging.getLogger(__name__)

# Solver block sizes in (pairs x n_z) elements: each block's working set
# stays near 1 MB on both paths.
_WINDOW_BLOCK_ELEMENTS = 2**15
_MATMUL_BLOCK_ELEMENTS = 2**17


class EscaperTurn(NamedTuple):
    h: int
    z: int


class PursuerTurn(NamedTuple):
    h_threat: int
    h_cur: int
    z: int


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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
    interior (and exterior, for that model) points come from an axis-aligned
    grid of spacing gamma/sqrt(2) so cell half-diagonals stay below gamma/2.
    """
    poly = ctx.polygon
    if gamma <= 0:
        raise GammaTooCoarse("gamma must be positive")
    f = poly.min_feature_size
    if gamma > f / 4 + poly.tol:
        raise GammaTooCoarse(f"gamma {gamma} exceeds a quarter of the feature size {f}")

    params, boundary = boundary_samples(ctx, gamma)
    spacing = gamma / math.sqrt(2.0)
    lo, hi = poly.bbox
    grid = _grid_points(lo, hi, spacing)
    interior = grid[_points_not_outside(poly, grid)]

    escaper = np.vstack([boundary, interior])
    nb = len(boundary)

    if ctx.model is PursuerModel.MOAT:
        pursuer = boundary.copy()
        exterior_count = 0
    else:
        hull = convex_hull(poly.vertices)
        hlo = hull.min(axis=0)
        hhi = hull.max(axis=0)
        grid = _grid_points(hlo, hhi, spacing)
        keep = point_in_convex_hull(hull, grid, poly.tol) & ~_points_strictly_inside(poly, grid)
        ext = grid[keep]
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
    """Max intrinsic distance from random domain points to their nearest sample."""
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
        worst = max(worst, _nearest_intrinsic(ctx.interior_distance, tree_h,
                                              samples.escaper_samples, p))

    tree_z = cKDTree(samples.pursuer_samples)
    if ctx.model is PursuerModel.MOAT:
        for _ in range(probes):
            t = rng.random() * poly.perimeter
            p = poly.boundary_point(t)
            d = np.abs(samples.boundary_params - t) % poly.perimeter
            worst = max(worst, float(np.minimum(d, poly.perimeter - d).min()))
    else:
        # the boundary is always part of the pursuer domain; the hull pockets
        # have positive area only for nonconvex polygons, so cap the rejection
        # attempts (a convex polygon has no pocket to hit)
        for _ in range(probes):
            t = rng.random() * poly.perimeter
            p = poly.boundary_point(t)
            worst = max(worst, _nearest_intrinsic(ctx.pursuer_distance, tree_z,
                                                  samples.pursuer_samples, p))
        hull = convex_hull(poly.vertices)
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
            worst = max(worst, _nearest_intrinsic(ctx.pursuer_distance, tree_z,
                                                  samples.pursuer_samples, p))
    return worst


def _nearest_intrinsic(metric, tree, pts, p) -> float:
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


# ---------------------------------------------------------------------------
# move relations
# ---------------------------------------------------------------------------


def _points_not_outside(poly, pts) -> np.ndarray:
    return point_classes(poly, pts) >= 0


def _points_strictly_inside(poly, pts) -> np.ndarray:
    return point_classes(poly, pts) == 1


def _threshold_distances(poly, pts, limit, mode) -> csr_matrix:
    """Sparse matrix of pairwise intrinsic distances <= limit between pts.

    Candidate hops are Euclid-close visible pairs among pts plus the polygon
    vertices; Dijkstra with a path-length cap then recovers every geodesic of
    total length <= limit (each leg of such a path is itself <= limit).
    """
    m = len(pts)
    nodes = np.vstack([pts, poly.vertices])
    tree = cKDTree(nodes)
    pairs = tree.query_pairs(r=limit * (1 + 1e-12) + poly.tol, output_type="ndarray")
    if len(pairs):
        a = nodes[pairs[:, 0]]
        b = nodes[pairs[:, 1]]
        if mode == "interior" and poly.is_convex:
            vis = np.ones(len(pairs), dtype=bool)
        else:
            vis = segment_visibility(poly, a, b)[0 if mode == "interior" else 1]
        pairs = pairs[vis]
    if len(pairs):
        wts = np.hypot(*(nodes[pairs[:, 0]] - nodes[pairs[:, 1]]).T)
    else:
        wts = np.zeros(0)
    total = len(nodes)
    graph = csr_matrix(
        (np.concatenate([wts, wts]),
         (np.concatenate([pairs[:, 0], pairs[:, 1]]),
          np.concatenate([pairs[:, 1], pairs[:, 0]]))),
        shape=(total, total),
    )
    dist = cs_dijkstra(graph, directed=False, indices=np.arange(m), limit=limit * (1 + 1e-12) + poly.tol)
    return dist[:, :m]


# ---------------------------------------------------------------------------
# game construction
# ---------------------------------------------------------------------------


@dataclass
class DiscreteGame:
    """Sampled game: vertex sets, symmetric move relations, and parameters.

    ``e_h`` is CSR boolean over escaper samples (d_h <= delta, self-loops
    included); ``e_z`` is dense boolean over pursuer samples (d_z <= r*delta).
    ``z_windows`` holds (lo, hi) doubled-index arc windows when the pursuer
    move set is a circular interval (moat model).
    """

    samples: SampleSet
    e_h: csr_matrix
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

    def state_count(self) -> int:
        return self.n_h * self.n_h * self.n_z

    def h_neighbors(self, i: int) -> np.ndarray:
        row = self.e_h
        return row.indices[row.indptr[i] : row.indptr[i + 1]]

    def z_neighbors(self, j: int) -> np.ndarray:
        return np.nonzero(self.e_z[j])[0]


def build_game(
    ctx: MetricContext,
    r: float,
    delta: float,
    gamma: float,
    state_cap: float = 5e7,
    samples: Optional[SampleSet] = None,
) -> DiscreteGame:
    """Materialize the discretized game; refuses games over the state cap.

    ``samples`` may carry a precomputed SampleSet (from gamma_sample with the
    same gamma) so parameter sweeps can share the sampling work.
    """
    poly = ctx.polygon
    if samples is None:
        samples = gamma_sample(ctx, gamma)
    n_h = samples.n_escaper
    n_z = samples.n_pursuer
    count = n_h * n_h * n_z
    if count > state_cap:
        raise BudgetExceeded(
            f"state count |V_h|^2*|V_z| = {n_h}^2*{n_z} = {count:.3g} exceeds cap {state_cap:.3g}",
            n_escaper=n_h,
            n_pursuer=n_z,
            state_count=count,
        )

    tol = poly.tol
    if poly.is_convex:
        # d_h is the chord for every pair; no geodesic detours to consider
        pts = samples.escaper_samples
        tree = cKDTree(pts)
        pairs = tree.query_pairs(r=delta + tol, output_type="ndarray")
        rows = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(n_h)])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(n_h)])
        e_h = csr_matrix(
            (np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n_h, n_h)
        )
    else:
        dh = _threshold_distances(poly, samples.escaper_samples, delta, "interior")
        dh_dense = np.asarray(dh)
        e_h_dense = np.isfinite(dh_dense) & (dh_dense <= delta + tol)
        np.fill_diagonal(e_h_dense, True)
        e_h = csr_matrix(e_h_dense)

    reach = r * delta
    z_windows = None
    if ctx.model is PursuerModel.MOAT:
        t = samples.boundary_params
        F = poly.perimeter
        d = np.abs(t[:, None] - t[None, :]) % F
        arc = np.minimum(d, F - d)
        e_z = arc <= reach + tol
        z_windows = _arc_windows(t, F, reach + tol)
    else:
        dz = _threshold_distances(poly, samples.pursuer_samples, reach, "exterior")
        dz = np.asarray(dz)
        e_z = np.isfinite(dz) & (dz <= reach + tol)
        np.fill_diagonal(e_z, True)
    return DiscreteGame(
        samples=samples, e_h=e_h, e_z=np.asarray(e_z, dtype=bool), r=float(r),
        delta=float(delta), z_windows=z_windows,
    )


def _arc_windows(t: np.ndarray, F: float, reach: float):
    """(lo, hi) doubled-index ranges of the arc interval around each sample.

    Index d in the doubled frame [0, 2n) refers to circular sample d mod n;
    each window is a contiguous doubled range of length <= n, ready for the
    cumulative-sum containment count in the solver.
    """
    n = len(t)
    if reach >= F / 2:
        return (np.zeros(n, dtype=int), np.full(n, 2 * n - 1, dtype=int), True)
    assert np.all(np.diff(t) > 0), "boundary samples must be arc-sorted"
    lo = np.empty(n, dtype=int)
    hi = np.empty(n, dtype=int)
    ext = np.concatenate([t - F, t, t + F])
    for i in range(n):
        lo3 = int(np.searchsorted(ext, t[i] - reach, side="left"))
        hi3 = int(np.searchsorted(ext, t[i] + reach, side="right")) - 1
        width = hi3 - lo3
        d_lo = (lo3 - n) % n
        lo[i] = d_lo
        hi[i] = d_lo + width
    return (lo, hi, False)


def toy_game(e_h, e_z, exit_idx_h, exit_idx_z, r: float = 1.0, delta: float = 1.0) -> DiscreteGame:
    """Abstract game from explicit move relations; test and graph-model scaffolding.

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
    return DiscreteGame(samples=samples, e_h=csr_matrix(e_h), e_z=e_z, r=r, delta=delta)


# ---------------------------------------------------------------------------
# win predicate and solver
# ---------------------------------------------------------------------------


def threat_matrix(game: DiscreteGame) -> np.ndarray:
    """P[h, z] = some exit is escaper-adjacent from h yet pursuer-uncovered from z."""
    adj_hx = game.e_h[:, game.samples.exit_idx_h].toarray()
    adj_zx = game.e_z[:, game.samples.exit_idx_z]
    open_zx = (~adj_zx).astype(np.float32)
    counts = adj_hx.astype(np.float32) @ open_zx.T
    return counts > 0.5


def escaper_win_predicate(game: DiscreteGame, h_threat: int, z: int) -> bool:
    """Direct evaluation of the two-reply exit threat for one state."""
    hx = game.e_h[h_threat, game.samples.exit_idx_h].toarray().ravel()
    zx = game.e_z[z, game.samples.exit_idx_z]
    return bool(np.any(hx & ~zx))


@dataclass
class SolveResult:
    """Least-fixpoint marking of escaper-win states plus extracted strategies."""

    game: DiscreteGame
    escaper_wins: bool
    win_mask: np.ndarray  # bool over EscaperTurn states [h, z]
    rank: np.ndarray  # marking round per state; 0 where unmarked
    threat: np.ndarray  # cached threat matrix P[h, z]
    witness_h0: Optional[int]
    iterations: int
    escaper_moves: "MoveTable" = field(init=False)
    pursuer_moves: "MoveTable" = field(init=False)

    def __post_init__(self):
        self.escaper_moves = MoveTable(self, "escaper")
        self.pursuer_moves = MoveTable(self, "pursuer")

    @property
    def win_count(self) -> int:
        return int(self.win_mask.sum())

    def win_set(self) -> frozenset:
        """Escaper-win EscaperTurn states (materialized; small games only)."""
        hs, zs = np.nonzero(self.win_mask)
        return frozenset(EscaperTurn(int(h), int(z)) for h, z in zip(hs, zs))

    def is_win(self, state) -> bool:
        if isinstance(state, EscaperTurn):
            return bool(self.win_mask[state.h, state.z])
        if isinstance(state, PursuerTurn):
            move_ok = self._pursuer_turn_win(state.h_threat, state.h_cur, state.z)
            return move_ok
        raise TypeError("expected EscaperTurn or PursuerTurn")

    def _pursuer_turn_win(self, h_threat, h_cur, z) -> bool:
        nbrs = self.game.z_neighbors(z)
        return bool(np.all(self.threat[h_threat, nbrs] | self.win_mask[h_cur, nbrs]))

    # -- strategy extraction ------------------------------------------------

    def escaper_move(self, h: int, z: int) -> int:
        """Move for the escaper at EscaperTurn(h, z); rank-decreasing on wins."""
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
        exit_rows = game.e_h[:, game.samples.exit_idx_h]
        for h2 in nbrs:
            if exit_rows[h2].count_nonzero():
                return int(h2)
        return int(h)

    def pursuer_move(self, h_threat: int, h_cur: int, z: int) -> int:
        """Move for the pursuer at PursuerTurn(h_threat, h_cur, z)."""
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


class MoveTable:
    """Mapping view over extracted strategies, computed and cached on demand.

    Escaper keys are EscaperTurn (or (h, z)); pursuer keys are PursuerTurn
    (or (h_threat, h_cur, z)).
    """

    def __init__(self, result: SolveResult, side: str):
        self._result = result
        self._side = side
        self._cache: dict = {}

    def __getitem__(self, key):
        key = tuple(key)
        if key in self._cache:
            return self._cache[key]
        if self._side == "escaper":
            if len(key) != 2:
                raise InconsistentTables("escaper table keys are (h, z)")
            move = self._result.escaper_move(*key)
        else:
            if len(key) != 3:
                raise InconsistentTables("pursuer table keys are (h_threat, h_cur, z)")
            move = self._result.pursuer_move(*key)
        self._cache[key] = move
        return move

    def get(self, key, default=None):
        try:
            return self[key]
        except (IndexError, InconsistentTables):
            return default

    def __contains__(self, key):
        return self.get(key) is not None


def solve(game: DiscreteGame) -> SolveResult:
    """Retrograde least-fixpoint marking of escaper-win states.

    Each sweep is a Jacobi step: every evaluation reads the marking W left by
    the previous sweep, so ``rank`` is the sweep that marked a state and
    ``escaper_move`` finds a strictly rank-decreasing move from every marked
    state.  The sweep is semi-naive: it evaluates a pair (h, h') of an
    escaper row and one of its moves only when row h' of W changed in the
    previous sweep, and only when row h is not already full.  The pair's
    contribution depends on W[h'] and P[h] alone, so an unchanged h' was
    already evaluated against h in the sweep after its last change, and
    skipping it changes neither ``rank`` nor ``iterations``.  In the first
    sweep W is empty, so every move of h contributes what staying at h does
    (``e_h`` holds every self-loop) and only the pairs (h, h) are evaluated.
    Selected pairs are taken in CSR order, hence grouped by h, and processed
    in blocks of bounded size.

    Always terminates: marking is monotone over the finite state lattice.
    The overall winner quantifies over placements: the escaper wins iff some
    h0 beats every pursuer placement z0.
    """
    n_h, n_z = game.n_h, game.n_z
    P = threat_matrix(game)
    W = np.zeros((n_h, n_z), dtype=bool)
    rank = np.zeros((n_h, n_z), dtype=np.int32)

    indices = game.e_h.indices
    row_of = np.repeat(np.arange(n_h, dtype=indices.dtype), np.diff(game.e_h.indptr))
    not_P = ~P
    windows = game.z_windows
    if windows is not None:
        lo, hi, full = windows
        block = max(1, _WINDOW_BLOCK_ELEMENTS // n_z)
    else:
        ez = game.e_z.astype(np.float32)
        block = max(1, _MATMUL_BLOCK_ELEMENTS // n_z)

    iteration = 0
    changed = np.ones(n_h, dtype=bool)  # rows of W that changed last sweep
    while True:
        iteration += 1
        sel = changed[indices] & ~W.all(axis=1)[row_of]
        if iteration == 1:
            sel &= indices == row_of  # W is empty: every move acts as staying put
        h_sel = row_of[sel]
        hp_sel = indices[sel]
        # pairs come in CSR order, grouped by h; every block starts a new
        # run, so a row split over two blocks is OR-ed into W_next from both
        run_start = np.ones(len(h_sel), dtype=bool)
        run_start[1:] = h_sel[1:] != h_sel[:-1]
        run_start[::block] = True
        not_W = ~W
        W_next = W.copy()
        for b0 in range(0, len(h_sel), block):
            hs = h_sel[b0 : b0 + block]
            bad = not_W[hp_sel[b0 : b0 + block]] & not_P[hs]
            if windows is None:
                # reply counts are integers below 2**24: exact in float32
                good = (bad.astype(np.float32) @ ez) < 0.5
            elif full:
                good = ~bad.any(axis=1, keepdims=True)  # broadcasts over z
            else:
                good = _window_good(bad, lo, hi)
            starts = np.flatnonzero(run_start[b0 : b0 + block])
            W_next[hs[starts]] |= np.logical_or.reduceat(good, starts, axis=0)
        newly = W_next & ~W
        marked = int(np.count_nonzero(newly))
        logger.debug("sweep %d: %d pairs evaluated, %d states newly marked",
                     iteration, len(h_sel), marked)
        if not marked:
            break
        rank[newly] = iteration
        changed = newly.any(axis=1)
        W = W_next
        if iteration > n_h * n_z + 2:
            raise RuntimeError("fixpoint failed to stabilize (bug)")

    full_rows = W.all(axis=1)
    escaper_wins = bool(full_rows.any())
    witness = int(np.argmax(full_rows)) if escaper_wins else None
    return SolveResult(
        game=game,
        escaper_wins=escaper_wins,
        win_mask=W,
        rank=rank,
        threat=P,
        witness_h0=witness,
        iterations=iteration,
    )


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
    escaper_moves,
    pursuer_moves,
    max_turns: int,
    h0: int,
    z0: int,
) -> Transcript:
    """Replay extracted move tables from (h0, z0) for up to max_turns rounds.

    Ends at the first decisive two-reply threat or at the turn cap; raises
    InconsistentTables on missing keys or illegal table moves.
    """
    e_h = game.e_h
    e_z = game.e_z
    moves = []
    h, z = int(h0), int(z0)
    for turn in range(max_turns):
        try:
            h2 = escaper_moves[(h, z)]
        except KeyError as exc:
            raise InconsistentTables(f"escaper table has no move at {(h, z)}") from exc
        if h2 is None or not e_h[h, h2]:
            raise InconsistentTables(f"illegal escaper move {h}->{h2}")
        moves.append(("escaper", h2))
        try:
            z2 = pursuer_moves[(h, h2, z)]
        except KeyError as exc:
            raise InconsistentTables(f"pursuer table has no move at {(h, h2, z)}") from exc
        if z2 is None or not e_z[z, z2]:
            raise InconsistentTables(f"illegal pursuer move {z}->{z2}")
        moves.append(("pursuer", z2))
        if escaper_win_predicate(game, h, z2):
            hx = e_h[h, game.samples.exit_idx_h].toarray().ravel()
            zx = e_z[z2, game.samples.exit_idx_z]
            exit_pos = int(np.argmax(hx & ~zx))
            return Transcript(moves=moves, decisive=(h, z2, exit_pos), turns=turn + 1)
        h, z = h2, z2
    return Transcript(moves=moves, decisive=None, turns=max_turns)

