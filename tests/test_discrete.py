import dataclasses
import hashlib
import logging
import math
import random
import re

import numpy as np
import pytest
from scipy.spatial import cKDTree

from escape_ratio import discrete, exact, geometry, sim
from escape_ratio.errors import BudgetExceeded, GammaTooCoarse, InconsistentTables, OutsideDomain
from escape_ratio.discrete import (
    build_game,
    escaper_moves,
    escaper_wins,
    gamma_sample,
    play_discrete,
    solve,
    verify_net,
)
from escape_ratio.discrete import SampleSet, _grid_points
from escape_ratio.geometry import (
    MetricContext,
    Polygon,
    PursuerModel,
    convex_hull,
    pair_geodesics,
    point_classes,
    point_in_convex_hull,
    validate_polygon,
)
from escape_ratio.ratio import boundary_samples

from conftest import (
    COMB,
    L_SHAPE,
    SPIRAL,
    SQUARE,
    TRIANGLE,
    escaper_win_predicate,
    minimax_escaper_wins,
    reference_classify,
    reference_solve,
    reference_verify_net,
    toy_game,
)
from test_acceptance import criterion_4_games
from test_geometry import NOTCH, SLIT, _relabellings


def _scalar_gamma_sample(ctx, gamma):
    """gamma_sample's grid membership, one scalar oracle call per point."""
    poly = ctx.polygon
    _, boundary = boundary_samples(ctx, gamma)
    spacing = gamma / math.sqrt(2.0)
    grid = _grid_points(*poly.bbox, spacing)
    interior = grid[[reference_classify(poly, p) != "outside" for p in grid]]
    if ctx.model is PursuerModel.MOAT:
        return np.vstack([boundary, interior]), boundary.copy()
    hull = convex_hull(poly.vertices)
    grid = _grid_points(hull.min(axis=0), hull.max(axis=0), spacing)
    keep = [
        bool(point_in_convex_hull(hull, p, poly.tol)) and reference_classify(poly, p) != "inside"
        for p in grid
    ]
    return np.vstack([boundary, interior]), np.vstack([boundary, grid[keep]])


def _assert_same_solution(game):
    got, ref = solve(game), reference_solve(game)
    assert np.array_equal(got.win_mask, ref.win_mask)
    assert np.array_equal(got.rank, ref.rank) and got.rank.dtype == ref.rank.dtype
    assert got.iterations == ref.iterations
    assert got.witness_h0 == ref.witness_h0
    assert np.array_equal(got.threat, ref.threat)
    return ref


def _random_toy_game(rng):
    n_h = int(rng.integers(2, 9))
    n_z = int(rng.integers(2, 9))
    n_x = int(rng.integers(1, min(n_h, n_z) + 1))
    e_h = rng.random((n_h, n_h)) < rng.uniform(0.05, 0.4)
    e_h |= e_h.T
    np.fill_diagonal(e_h, True)
    e_z = rng.random((n_z, n_z)) < rng.uniform(0.05, 0.4)
    e_z |= e_z.T
    np.fill_diagonal(e_z, True)
    return toy_game(
        e_h,
        e_z,
        exit_idx_h=rng.choice(n_h, size=n_x, replace=False),
        exit_idx_z=rng.choice(n_z, size=n_x, replace=False),
    )


def _oracle_games():
    """Moat games on three shapes and an exterior game.

    On the second square game the pursuer's reach 2.5 is at least half the
    perimeter, so every arc window is the whole boundary.
    """
    tri = [(0, 0), (1, 0), (0, 1)]
    for points, model, r, delta, gamma in (
        (SQUARE, "moat", 2.0, 0.5, 0.2),
        (SQUARE, "moat", 5.0, 0.5, 0.2),
        (L_SHAPE, "moat", 2.0, 0.6, 0.25),
        (tri, "moat", 1.5, 0.4, 0.15),
        (L_SHAPE, "exterior", 2.0, 0.5, 0.25),
    ):
        ctx = MetricContext(validate_polygon(points), PursuerModel(model))
        yield build_game(ctx, r=r, delta=delta, gamma=gamma, state_cap=1e10)


_SWEEP_LINE = re.compile(r"sweep (\d+): (\d+) moves selected, (\d+) pairs evaluated, "
                         r"(\d+) distinct rows, (\d+) states newly marked")


def _logged_counts(records):
    """(moves selected, pairs evaluated) of each sweep DEBUG line."""
    counts = []
    for rec in records:
        m = _SWEEP_LINE.fullmatch(rec.getMessage())
        assert m, rec.getMessage()
        assert int(m[1]) == len(counts) + 1
        counts.append((int(m[2]), int(m[3])))
    return counts


def _skip_rule_counts(game, ref):
    """Brute-force (moves selected, pairs evaluated) of each sweep, from the
    reference solver's ranks.  Sweep 1 evaluates the n_h self-loops; sweep k
    selects the moves h->h' with h open (row h of W_{k-1} not full) and row
    h' of ``rank == k - 1`` nonzero, and evaluates those with
    ``(rank == k - 1)[h'] & ~P[h]`` nonzero."""
    h = np.repeat(np.arange(game.n_h), np.diff(game.e_h.indptr))
    hp = game.e_h.indices
    counts = [(game.n_h, game.n_h)]
    for k in range(2, ref.iterations + 1):
        won = (ref.rank > 0) & (ref.rank < k)
        newly = ref.rank == k - 1
        selected = ~won.all(axis=1)[h] & newly.any(axis=1)[hp]
        kept = selected & (newly[hp] & ~ref.threat[h]).any(axis=1)
        counts.append((int(selected.sum()), int(kept.sum())))
    return counts


def _assert_logged_counts(game, caplog):
    """``solve`` equals the reference on ``game``, and each sweep's DEBUG line
    gives the brute-force counts of ``_skip_rule_counts``; returns them."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="escape_ratio.discrete"):
        ref = _assert_same_solution(game)
    counts = _logged_counts(caplog.records)
    assert counts == _skip_rule_counts(game, ref)
    return counts


def _chain_game(sweeps):
    """A game whose solve takes ``sweeps`` sweeps (the last marks nothing).

    The escaper walks a path of samples 0 - 1 - ... - n_h - 1 whose one exit
    is sample 0; the pursuer stands still on the exit (sample 0) or away
    from it (sample 1).  From sample 1 the exit threat fires at once, so
    (h, 1) is won in sweep max(h, 1) and the ranks run up to ``sweeps - 1``.
    One sweep is the same path against a pursuer that reaches the exit from
    both samples, so nothing is won.
    """
    n_h = max(sweeps, 2)
    e_h = np.eye(n_h, dtype=bool) | np.eye(n_h, k=1, dtype=bool) | np.eye(n_h, k=-1, dtype=bool)
    e_z = np.ones((2, 2), dtype=bool) if sweeps == 1 else np.eye(2, dtype=bool)
    return toy_game(e_h, e_z, exit_idx_h=[0], exit_idx_z=[0])


def _bracket_probe_games():
    """The bracket benchmark's three probes: the unit square, moat model,
    delta = 0.2 and gamma = 0.05 (921 escaper by 80 pursuer samples)."""
    ctx = MetricContext(validate_polygon(SQUARE), PursuerModel.MOAT)
    samples = gamma_sample(ctx, 0.05)
    e_h = escaper_moves(ctx, samples, 0.2)
    for r in (6.602720495543138, 2.569575936909267, 4.119003727054065):
        yield build_game(ctx, r=r, delta=0.2, gamma=0.05, state_cap=1e13, samples=samples, e_h=e_h)


class TestGammaSample:
    def test_documented_construction_counts(self, square, square_moat):
        # spacing rule on the unit square at gamma = 0.5: 8 boundary samples
        # and a 3x3 interior grid (the guard forbids this gamma end to end,
        # so the construction pieces are exercised directly)
        params, pts = boundary_samples(square_moat, 0.5)
        assert len(pts) == 8
        grid = _grid_points(*square.bbox, 0.5 / np.sqrt(2))
        inside = [p for p in grid if reference_classify(square, p) != "outside"]
        assert len(inside) == 9

    def test_halving_gamma_doubles_edge_counts(self, square_moat):
        coarse = gamma_sample(square_moat, 0.25)
        fine = gamma_sample(square_moat, 0.125)
        assert fine.boundary_count == 2 * coarse.boundary_count

    def test_guard(self, square_moat):
        # coarser than the feature size allows, not positive, or not a number
        for gamma in (0.3, -1.0, 0.0, math.nan):
            with pytest.raises(GammaTooCoarse):
                gamma_sample(square_moat, gamma)

    def test_exits_shared(self, square_moat):
        s = gamma_sample(square_moat, 0.2)
        assert np.allclose(
            s.escaper_samples[s.exit_idx_h], s.pursuer_samples[s.exit_idx_z]
        )
        assert np.allclose(s.escaper_samples[s.exit_idx_h], s.exit_samples)

    def test_moat_pursuer_is_boundary_only(self, square_moat):
        s = gamma_sample(square_moat, 0.2)
        assert s.n_pursuer == s.boundary_count
        assert s.exterior_count == 0

    def test_exterior_model_adds_hull_grid(self, square_exterior):
        s = gamma_sample(square_exterior, 0.2)
        assert s.exterior_count > 0
        assert s.n_pursuer == s.boundary_count + s.exterior_count

    @pytest.mark.parametrize("model", list(PursuerModel))
    def test_one_classification(self, monkeypatch, model):
        # one grid over the bounding box serves both nets, classified once
        calls = []

        def counted(poly, pts):
            calls.append(len(pts))
            return point_classes(poly, pts)

        monkeypatch.setattr(geometry, "point_classes", counted)
        monkeypatch.setattr(discrete, "point_classes", counted)
        s = gamma_sample(MetricContext(validate_polygon(L_SHAPE), model), 0.1)
        assert len(calls) == 1
        assert calls[0] >= s.interior_count + s.exterior_count

    @pytest.mark.parametrize("model", ["moat", "exterior"])
    @pytest.mark.parametrize(
        "points,gamma", [(SQUARE, 0.05), (L_SHAPE, 0.1), (COMB, 0.25)]
    )
    def test_batched_membership_matches_scalar_path(self, points, gamma, model):
        turned = [(-y, x) for x, y in points]
        for pts in (points, turned):
            ctx = MetricContext(validate_polygon(pts), PursuerModel(model))
            s = gamma_sample(ctx, gamma)
            escaper, pursuer = _scalar_gamma_sample(ctx, gamma)
            assert np.array_equal(s.escaper_samples, escaper)
            assert np.array_equal(s.pursuer_samples, pursuer)
            assert s.interior_count == len(escaper) - s.boundary_count
            assert s.exterior_count == len(pursuer) - s.boundary_count


_NET_POLYGONS = {"square": SQUARE, "triangle": TRIANGLE, "L": L_SHAPE, "comb": COMB,
                 "spiral": SPIRAL, "notch": NOTCH, "slit": SLIT}
# the probe counts cycle so that each model sees 1, 37 and 150; the seeds
# vary with the case
_NET_CASES = [(name, model, (1, 37, 150)[k % 3], 11 * k + 3) for k, (name, model) in
              enumerate((name, model) for name in _NET_POLYGONS for model in ("moat", "exterior"))]


class TestVerifyNet:
    def test_square_net_within_gamma(self, square_moat):
        s = gamma_sample(square_moat, 0.25)
        gap = verify_net(square_moat, s, probes=500, seed=1)
        assert gap <= 0.25

    def test_l_shape_net_within_gamma(self, l_moat):
        s = gamma_sample(l_moat, 0.25)
        gap = verify_net(l_moat, s, probes=300, seed=2)
        assert gap <= 0.25

    def test_vertices_only_violates_small_gamma(self, square_moat):
        s = gamma_sample(square_moat, 0.25)
        broken = dataclasses.replace(
            s,
            escaper_samples=square_moat.polygon.vertices.copy(),
            pursuer_samples=square_moat.polygon.vertices.copy(),
            boundary_params=square_moat.polygon.cumulative_lengths[:-1].copy(),
        )
        gap = verify_net(square_moat, broken, probes=400, seed=3)
        assert gap > 0.25  # the four corners are no 0.25-net
        assert gap == reference_verify_net(square_moat, broken, probes=400, seed=3)

    def test_exterior_model_net(self, square_exterior):
        # a convex polygon has no hull pocket to probe
        s = gamma_sample(square_exterior, 0.2)
        gap = verify_net(square_exterior, s, probes=200, seed=5)
        assert gap == 0.0975161418589594
        assert gap <= 0.2

    def test_exterior_model_net_probes_pocket(self):
        # the worst probe lies in the hull pocket; without the pocket probes
        # the gap reads 0.1236
        ctx = MetricContext(validate_polygon(L_SHAPE), PursuerModel.EXTERIOR)
        s = gamma_sample(ctx, 0.25)
        gap = verify_net(ctx, s, probes=100, seed=6)
        assert gap == 0.146738767351759
        assert gap <= 0.25

    def test_single_probe(self, square_moat):
        s = gamma_sample(square_moat, 0.25)
        assert verify_net(square_moat, s, probes=1, seed=4) >= 0.0

    def test_probes_must_be_positive(self, square_moat):
        s = gamma_sample(square_moat, 0.25)
        with pytest.raises(ValueError):
            verify_net(square_moat, s, probes=0)

    @pytest.mark.parametrize("name, model, probes, seed", _NET_CASES)
    def test_matches_reference(self, name, model, probes, seed):
        ctx = MetricContext(validate_polygon(_NET_POLYGONS[name]), model)
        s = _coarse_net(ctx, 300)
        assert verify_net(ctx, s, probes, seed) == reference_verify_net(ctx, s, probes, seed)

    def test_no_scalar_query(self, monkeypatch):
        # the L's exterior probes the boundary and the hull pocket; each
        # domain's shortlist of 8 takes at most 8 rounds
        ctx = MetricContext(validate_polygon(L_SHAPE), PursuerModel.EXTERIOR)
        s = gamma_sample(ctx, 0.25)

        def refuse(*args):
            raise AssertionError("scalar call")

        sides = []
        pair_distances = MetricContext.pair_distances

        def counted(self, pts, i, j, side):
            sides.append(side)
            return pair_distances(self, pts, i, j, side)

        monkeypatch.setattr(Polygon, "classify", refuse)
        monkeypatch.setattr(MetricContext, "interior_distance", refuse)
        monkeypatch.setattr(MetricContext, "pursuer_distance", refuse)
        monkeypatch.setattr(MetricContext, "pair_distances", counted)
        verify_net(ctx, s, probes=300, seed=9)
        assert 1 <= sides.count((0,)) <= 8 and 1 <= sides.count((1,)) <= 8
        assert len(sides) == sides.count((0,)) + sides.count((1,))

    def test_sample_outside_its_domain_raises(self, square_moat):
        # an escaper sample moved 1e-6 below the square, and an exterior-model
        # pursuer sample moved 1e-6 into the L: each stays some probe's nearest
        s = gamma_sample(square_moat, 0.25)
        esc = s.escaper_samples.copy()
        k = int(np.argmin(np.hypot(esc[:, 0] - 0.5, esc[:, 1])))
        esc[k, 1] = -1e-6
        moved = dataclasses.replace(s, escaper_samples=esc)
        for net_gap in (verify_net, reference_verify_net):
            with pytest.raises(OutsideDomain, match="not in the escaper domain"):
                net_gap(square_moat, moved, probes=200, seed=1)
        ctx = MetricContext(validate_polygon(L_SHAPE), PursuerModel.EXTERIOR)
        s = gamma_sample(ctx, 0.25)
        purs = s.pursuer_samples.copy()
        k = int(np.argmin(np.hypot(purs[:, 0] - 1, purs[:, 1])))
        purs[k, 1] = 1e-6
        moved = dataclasses.replace(s, pursuer_samples=purs)
        for net_gap in (verify_net, reference_verify_net):
            with pytest.raises(OutsideDomain, match="inside the escaper domain"):
                net_gap(ctx, moved, probes=200, seed=1)


def _coarse_net(ctx, cells):
    """``gamma_sample``'s nets at the gamma that gives about ``cells`` grid
    cells of the bounding box, above its f/4 bound (the slit's f/4 net would
    hold over 300,000 samples)."""
    poly = ctx.polygon
    lo, hi = poly.bbox
    gamma = float(np.sqrt(np.prod(hi - lo) / cells))
    params, boundary = boundary_samples(ctx, gamma)
    grid = _grid_points(lo, hi, gamma / math.sqrt(2.0))
    escaper = np.vstack([boundary, grid[point_classes(poly, grid) >= 0]])
    pursuer = boundary
    if ctx.model is PursuerModel.EXTERIOR:
        hull = ctx.hull
        grid = _grid_points(hull.min(axis=0), hull.max(axis=0), gamma / math.sqrt(2.0))
        keep = point_in_convex_hull(hull, grid, poly.tol) & (point_classes(poly, grid) != 1)
        pursuer = np.vstack([boundary, grid[keep]])
    nb = len(boundary)
    return SampleSet(escaper, pursuer, boundary, gamma, np.arange(nb), np.arange(nb), nb,
                     len(escaper) - nb, len(pursuer) - nb, params)


def _seed_relabelling(points, seed):
    """The relabelling the benchmark workloads pick for ``seed``."""
    rng = random.Random(seed)
    shift = rng.randrange(len(points))
    return _relabellings(points)[4 * shift + rng.randrange(4)]


def _assert_kdtree_pairs(pts, radius) -> int:
    """``_close_pairs`` gives ``cKDTree.query_pairs``' pair set, each pair
    once with i < j; returns the pair count."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    n = len(pts)
    i, j = discrete._close_pairs(pts, radius)
    assert np.all(i < j)
    ref = cKDTree(pts).query_pairs(r=radius, output_type="ndarray").reshape(-1, 2)
    assert np.array_equal(np.sort(i * n + j), np.sort(ref[:, 0] * n + ref[:, 1]))
    return len(i)


class TestClosePairs:
    """The pair finder against its oracle, ``cKDTree.query_pairs``."""

    GAME_GAMMA = 2 * math.sqrt(2) / 36  # the game workload's net, grid spacing 1/18

    @pytest.mark.parametrize("seed", range(6))
    def test_workload_nets(self, seed):
        # the caps _threshold_distances asks for: the game's e_h (delta 0.3)
        # and e_z (r * delta = 0.9) on the L-shape, and the bracket's chord
        # e_h (delta 0.2) on the square at gamma 0.05
        l_ctx = MetricContext(validate_polygon(_seed_relabelling(L_SHAPE, seed)),
                              PursuerModel.EXTERIOR)
        net = gamma_sample(l_ctx, self.GAME_GAMMA)
        tol = l_ctx.polygon.tol
        assert _assert_kdtree_pairs(net.escaper_samples, 0.3 * (1 + 1e-12) + tol) > 40_000
        assert _assert_kdtree_pairs(net.pursuer_samples, 0.9 * (1 + 1e-12) + tol) > 25_000
        sq_ctx = MetricContext(validate_polygon(_seed_relabelling(SQUARE, seed)),
                               PursuerModel.MOAT)
        sq_net = gamma_sample(sq_ctx, 0.05)
        assert _assert_kdtree_pairs(sq_net.escaper_samples, 0.2 + sq_ctx.polygon.tol) > 30_000

    def test_criterion_6_net(self):
        ctx = MetricContext(validate_polygon(SQUARE), PursuerModel.MOAT)
        pts = gamma_sample(ctx, 0.02).escaper_samples
        assert len(pts) == 5241
        assert _assert_kdtree_pairs(pts, 0.2 + ctx.polygon.tol) > 1_000_000

    @pytest.mark.parametrize("seed", range(6))
    def test_ties_at_the_radius(self, seed):
        # radii k s and k s sqrt(2) (s the grid spacing) meet whole rows of
        # grid pairs at the radius, which the grid's rounding keeps or drops
        # differently at each relabelling
        ctx = MetricContext(validate_polygon(_seed_relabelling(L_SHAPE, seed)),
                            PursuerModel.EXTERIOR)
        net = gamma_sample(ctx, self.GAME_GAMMA)
        for k in (1, 2, 3, 4):
            for radius in (k / 18, k / 18 * math.sqrt(2)):
                _assert_kdtree_pairs(net.escaper_samples, radius)
                _assert_kdtree_pairs(net.pursuer_samples, radius)

    def test_tie_sets_differ_between_relabellings(self):
        counts = []
        for seed in (0, 1):
            ctx = MetricContext(validate_polygon(_seed_relabelling(L_SHAPE, seed)),
                                PursuerModel.EXTERIOR)
            net = gamma_sample(ctx, self.GAME_GAMMA)
            counts.append(_assert_kdtree_pairs(net.escaper_samples, 1 / 18))
        assert counts == [470, 730]

    def test_degenerate_inputs(self):
        rng = np.random.default_rng(5)
        cloud = rng.random((60, 2))
        line = rng.random(80)
        for pts, radius in [
            (np.zeros((0, 2)), 1.0),
            (np.zeros((1, 2)), 1.0),
            ([(0.0, 0.0), (0.6, 0.8)], 1.0),  # exactly at the radius
            ([(0.0, 0.0), (0.6, 0.8)], 0.999),
            (np.zeros((5, 2)), 0.0),  # every point at the origin
            (np.vstack([cloud, cloud]), 0.1),  # each point twice
            (np.vstack([cloud, cloud]), 0.0),
            (np.column_stack([np.full(80, 0.25), line]), 0.05),  # one vertical line
            (np.column_stack([line, np.full(80, -0.25)]), 0.05),  # one horizontal line
            (cloud - 7.0, 0.2),  # negative coordinates
            (cloud + 1e6, 0.2),  # far from the origin
            (cloud, 5.0),  # every pair
        ]:
            _assert_kdtree_pairs(pts, radius)

    def test_translated_net_keeps_its_ties(self):
        ctx = MetricContext(validate_polygon(L_SHAPE), PursuerModel.EXTERIOR)
        pts = gamma_sample(ctx, self.GAME_GAMMA).escaper_samples + 1e6
        for radius in (1 / 18, math.sqrt(2) / 18, 0.3):
            _assert_kdtree_pairs(pts, radius)

    def test_candidate_passes(self, monkeypatch):
        # passes of a few hundred candidates give the one-pass pair set
        ctx = MetricContext(validate_polygon(L_SHAPE), PursuerModel.EXTERIOR)
        pts = gamma_sample(ctx, self.GAME_GAMMA).escaper_samples
        whole = discrete._close_pairs(pts, 0.3)
        monkeypatch.setattr(discrete, "_PAIR_CANDIDATES", 300)
        split = discrete._close_pairs(pts, 0.3)
        n = len(pts)
        assert np.array_equal(np.sort(whole[0] * n + whole[1]), np.sort(split[0] * n + split[1]))


class TestNearestSamples:
    """``verify_net``'s shortlist against its oracle, ``cKDTree.query``."""

    @staticmethod
    def _assert_kdtree_shortlist(samples, probes, ties=False):
        """The same distances and samples as ``cKDTree.query``; with
        ``ties``, equal distances may list their samples in another order
        (cKDTree's follows its tree) and a tie at the k-th distance may
        take other samples of it."""
        k = min(8, len(samples))
        eu, idx = discrete._nearest_samples(samples, probes, k)
        ref_eu, ref_idx = (a.reshape(len(probes), k)
                           for a in cKDTree(samples).query(probes, k=k))
        assert np.array_equal(eu, ref_eu)
        d = probes[:, None] - samples[idx]
        d2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
        assert np.array_equal(eu, np.sqrt(d2))
        if not ties:
            assert np.array_equal(idx, ref_idx)
            return
        for row in range(len(probes)):
            inner = d2[row] < d2[row, -1]
            assert set(idx[row, inner]) == set(ref_idx[row, inner])
        # equal squared distances in ascending sample index
        tied = d2[:, 1:] == d2[:, :-1]
        assert tied.any()
        assert np.all(idx[:, 1:][tied] > idx[:, :-1][tied])

    def test_criterion_6_net(self):
        ctx = MetricContext(validate_polygon(SQUARE), PursuerModel.MOAT)
        samples = gamma_sample(ctx, 0.02).escaper_samples
        rng = np.random.default_rng(3)
        self._assert_kdtree_shortlist(samples, rng.random((500, 2)))

    def test_ties(self):
        # probes on samples and halfway between grid neighbours meet ties
        # at equal distance, which the shortlist orders by index
        ctx = MetricContext(validate_polygon(L_SHAPE), PursuerModel.EXTERIOR)
        net = gamma_sample(ctx, TestClosePairs.GAME_GAMMA)
        for samples in (net.escaper_samples, net.pursuer_samples):
            probes = np.vstack([samples[::7], (samples[:-1:5] + samples[1::5]) / 2])
            self._assert_kdtree_shortlist(samples, probes, ties=True)

    def test_fewer_samples_than_the_shortlist(self):
        rng = np.random.default_rng(4)
        samples = rng.random((5, 2))
        self._assert_kdtree_shortlist(samples, rng.random((20, 2)))
        self._assert_kdtree_shortlist(np.vstack([samples, samples]), samples, ties=True)


class TestBuildGame:
    def test_pursuer_reach_both_directions(self, square_moat):
        game = build_game(square_moat, r=4.0, delta=0.5, gamma=0.1, state_cap=1e10)
        t = game.samples.boundary_params
        F = square_moat.polygon.perimeter
        reach = 4.0 * 0.5
        for j in range(game.n_z):
            nbrs = game.z_neighbors(j)
            arcs = np.minimum(np.abs(t[nbrs] - t[j]) % F, F - np.abs(t[nbrs] - t[j]) % F)
            signed = (t[nbrs] - t[j] + F / 2) % F - F / 2
            assert arcs.max() <= reach + 1e-9
            assert signed.max() > 0.4 * reach and signed.min() < -0.4 * reach

    @pytest.mark.parametrize("points,r", [(SQUARE, 2.0), (SQUARE, 4.0), (L_SHAPE, 2.0),
                                          (L_SHAPE, 12.0)])
    def test_arc_windows_are_the_moat_moves(self, points, r):
        # r = 4 on the square and r = 12 on the L-shape put the reach at half
        # the perimeter or more, where every window is the whole boundary
        ctx = MetricContext(validate_polygon(points), PursuerModel.MOAT)
        game = build_game(ctx, r=r, delta=0.5, gamma=0.2, state_cap=1e10)
        lo, hi = game.z_windows
        n = game.n_z
        whole = hi - lo == n - 1
        assert whole.all() if r * 0.5 >= ctx.polygon.perimeter / 2 else not whole.any()
        for i in range(n):
            window = np.unique(np.arange(lo[i], hi[i] + 1) % n)
            assert np.array_equal(window, np.nonzero(game.e_z[i])[0])

    def test_threshold_distance_around_notch(self):
        # (0.3, 0) -> (7.5, 0) threads the notch's two mouth vertices on y = 0
        # and crosses no edge properly; the geodesic goes round the tip
        notch = [(0, -1), (8, -1), (8, 1), (4.5, 1), (4.05, 0), (4, -0.5), (3.95, 0),
                 (3.5, 1), (0, 1)]
        ctx = MetricContext(validate_polygon(notch), PursuerModel.MOAT)
        pts = np.array([[0.3, 0], [7.5, 0]])
        (dist,) = pair_geodesics(ctx.polygon, pts, [0], [1], (0,))
        exact = ctx.interior_distance((0.3, 0), (7.5, 0))
        assert exact == 7.269164846451632
        assert dist[0] == exact
        # the move relation keeps the pair at that limit and not just below it
        for limit, kept in ((exact, 1), (7.26, 0)):
            assert len(discrete._threshold_distances(ctx.polygon, pts, limit, 0)[0]) == kept

    def test_threshold_monotone_in_r(self, square_moat):
        s = gamma_sample(square_moat, 0.1)
        g1 = build_game(square_moat, r=2.0, delta=0.5, gamma=0.1, state_cap=1e10, samples=s)
        g2 = build_game(square_moat, r=3.0, delta=0.5, gamma=0.1, state_cap=1e10, samples=s)
        assert np.all(g2.e_z[g1.e_z])  # E_z(r) subset of E_z(r')

    def test_delta_zero_self_loops_only(self, square_moat):
        game = build_game(square_moat, r=4.0, delta=0.0, gamma=0.2, state_cap=1e10)
        eh = game.e_h.toarray()
        # only self-loops and coincident duplicate samples remain
        pts = game.samples.escaper_samples
        ii, jj = np.nonzero(eh)
        off = ii != jj
        if off.any():
            assert np.hypot(*(pts[ii[off]] - pts[jj[off]]).T).max() <= 1e-9
        ez = game.e_z
        ii, jj = np.nonzero(ez)
        assert np.all(ii == jj)

    def test_shared_escaper_relation(self, square_moat):
        s = gamma_sample(square_moat, 0.1)
        e_h = escaper_moves(square_moat, s, 0.5)
        fresh = build_game(square_moat, r=3.0, delta=0.5, gamma=0.1, state_cap=1e10, samples=s)
        shared = build_game(square_moat, r=3.0, delta=0.5, gamma=0.1, state_cap=1e10,
                            samples=s, e_h=e_h)
        assert shared.e_h is e_h
        assert np.array_equal(fresh.e_h.indptr, e_h.indptr)
        assert np.array_equal(fresh.e_h.indices, e_h.indices)
        assert np.array_equal(shared.e_z, fresh.e_z)
        none = np.zeros(0, dtype=int)  # the identity relation, one vertex short
        with pytest.raises(ValueError, match="shape"):
            build_game(square_moat, r=3.0, delta=0.5, gamma=0.1, state_cap=1e10,
                       samples=s, e_h=discrete._csr_relation(none, none, s.n_escaper - 1))

    def test_samples_must_match_gamma(self, square_moat):
        s = gamma_sample(square_moat, 0.1)
        for gamma in (0.2, float(np.nextafter(0.1, 1.0))):
            with pytest.raises(ValueError, match="gamma"):
                build_game(square_moat, r=3.0, delta=0.5, gamma=gamma, state_cap=1e10, samples=s)

    def test_state_cap(self, square_moat):
        with pytest.raises(BudgetExceeded):
            build_game(square_moat, r=4.0, delta=0.5, gamma=0.1, state_cap=1e3)

    @pytest.mark.parametrize("r,delta", [(-1.0, 0.5), (math.nan, 0.5), (math.inf, 0.5),
                                         (2.0, -0.5), (2.0, math.nan), (2.0, math.inf)])
    def test_bad_r_and_delta(self, square_moat, r, delta):
        with pytest.raises(ValueError):
            build_game(square_moat, r=r, delta=delta, gamma=0.2, state_cap=1e10)

    def test_nonconvex_moves_respect_geodesics(self, l_moat):
        # (2,1) and (1,2) are Euclid sqrt(2) apart but geodesic distance 2
        game = build_game(l_moat, r=1.0, delta=1.5, gamma=0.25, state_cap=1e10)
        pts = game.samples.escaper_samples
        ia = int(np.argmin(np.hypot(pts[:, 0] - 2, pts[:, 1] - 1)))
        ib = int(np.argmin(np.hypot(pts[:, 0] - 1, pts[:, 1] - 2)))
        assert np.allclose(pts[ia], (2, 1)) and np.allclose(pts[ib], (1, 2))
        assert ib not in game.e_h.row(ia)
        game2 = build_game(l_moat, r=1.0, delta=2.01, gamma=0.25, state_cap=1e10)
        assert ib in game2.e_h.row(ia)


class TestWinPredicate:
    def test_direct_cases(self):
        e_h = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)
        e_z = np.array([[1, 0], [0, 1]], dtype=bool)
        game = toy_game(e_h, e_z, exit_idx_h=[1], exit_idx_z=[0])
        # escaper 0 is adjacent to exit (index 1 in V_h); pursuer 1 does not
        # cover exit (index 0 in V_z)
        assert escaper_win_predicate(game, 0, 1)
        assert not escaper_win_predicate(game, 0, 0)
        assert not escaper_win_predicate(game, 2, 1)  # no exit within reach


class TestSolve:
    def test_fast_pursuer_wins_square(self, square_moat):
        game = build_game(square_moat, r=40.0, delta=0.5, gamma=0.2, state_cap=1e10)
        assert not solve(game).escaper_wins

    def test_pinned_pursuer_loses_square(self, square_moat):
        game = build_game(square_moat, r=0.0, delta=0.5, gamma=0.2, state_cap=1e10)
        assert solve(game).escaper_wins

    def test_hand_built_five_point_game_matches_minimax(self):
        # 2 escaper nodes, 2 pursuer nodes, 1 shared exit
        e_h = np.array([[1, 1], [1, 1]], dtype=bool)
        e_z = np.array([[1, 1], [1, 1]], dtype=bool)
        game = toy_game(e_h, e_z, exit_idx_h=[0], exit_idx_z=[0])
        res = solve(game)
        for h0 in range(2):
            for z0 in range(2):
                assert minimax_escaper_wins(game, h0, z0) == bool(res.win_mask[h0, z0])

    def test_window_and_generic_paths_agree(self, square_moat, l_moat):
        # the right triangle's hypotenuse subdivides at a different spacing
        # than its legs, stressing the nonuniform circular windows
        tri = MetricContext(
            validate_polygon([(0, 0), (1, 0), (0, 1)]), PursuerModel.MOAT
        )
        for ctx, delta, gamma in (
            (square_moat, 0.5, 0.2),
            (l_moat, 0.6, 0.25),
            (tri, 0.4, 0.15),
        ):
            for r in (1.0, 2.0, 4.0):
                game = build_game(ctx, r=r, delta=delta, gamma=gamma, state_cap=1e10)
                a = solve(game)
                b = solve(dataclasses.replace(game, z_windows=None))
                assert np.array_equal(a.win_mask, b.win_mask)
                assert np.array_equal(a.rank, b.rank)

    def test_matches_reference_on_random_toy_games(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            _assert_same_solution(_random_toy_game(rng))

    def test_matches_reference_on_built_games(self):
        for game in _oracle_games():
            _assert_same_solution(game)
            if game.z_windows is not None:
                _assert_same_solution(dataclasses.replace(game, z_windows=None))

    def test_matches_reference_on_bracket_probes(self, caplog):
        # the reference takes about a second on the three games; the
        # r = 4.119 probe evaluates 8,629 of the 51,979 moves its row rule
        # selects
        counts = [_assert_logged_counts(game, caplog) for game in _bracket_probe_games()]
        assert counts[2] == [(921, 921), (51_058, 7_708)]

    def test_skip_rule_matches_brute_force_counts(self, caplog):
        # the moves each sweep selects and evaluates, against a count from
        # the reference's ranks
        rng = np.random.default_rng(29)
        skipped = 0
        for game in [*(_random_toy_game(rng) for _ in range(200)), *_oracle_games()]:
            counts = _assert_logged_counts(game, caplog)
            skipped += sum(selected - evaluated for selected, evaluated in counts)
        assert skipped > 0

    def test_blocks_split_escaper_rows(self, monkeypatch):
        # blocks of one or three (h, h') pairs cut escaper rows' move lists
        # apart at block edges; a block holds _BLOCK_ELEMENTS packed words
        for game in _oracle_games():
            n_words = -(-game.n_z // 64)
            for pairs in (1, 3):
                monkeypatch.setattr(discrete, "_BLOCK_ELEMENTS", pairs * n_words)
                _assert_same_solution(game)

    def test_chunks_split_distinct_rows(self, monkeypatch):
        # dense chunks of one or two rows, fewer than a block's distinct rows
        distinct = []
        group_rows = discrete._group_rows

        def spy(keys):
            group, reps = group_rows(keys)
            distinct.append(len(reps))
            return group, reps

        monkeypatch.setattr(discrete, "_group_rows", spy)
        for rows in (1, 2):
            distinct.clear()
            for game in _oracle_games():
                monkeypatch.setattr(discrete, "_BLOCK_ELEMENTS", rows * game.n_z)
                _assert_same_solution(game)
            assert max(distinct) > rows

    def test_dedupe_evaluates_fewer_rows_than_pairs(self, caplog):
        # n_z = 195: covered rows span four packed words
        ctx = MetricContext(validate_polygon(L_SHAPE), PursuerModel.EXTERIOR)
        game = build_game(ctx, r=2.0, delta=0.4, gamma=0.12, state_cap=1e10)
        with caplog.at_level(logging.DEBUG, logger="escape_ratio.discrete"):
            solve(game)
        pairs = distinct = 0
        for rec in caplog.records:
            m = _SWEEP_LINE.fullmatch(rec.getMessage())
            assert m, rec.getMessage()
            assert int(m[4]) <= int(m[3]) <= int(m[2])
            pairs += int(m[3])
            distinct += int(m[4])
        assert 0 < distinct < pairs
        _assert_same_solution(game)

    def test_group_rows_is_exact(self):
        rng = np.random.default_rng(5)
        for n_rows, n_words in ((1, 1), (40, 1), (200, 3), (300, 7)):
            pool = rng.integers(0, 2**63, size=(9, n_words), dtype=np.uint64)
            pool[1] = pool[0]
            pool[1, -1] ^= np.uint64(1)  # rows 0 and 1 differ in one bit only
            keys = pool[rng.integers(0, len(pool), size=n_rows)]
            group, reps = discrete._group_rows(keys)
            assert np.array_equal(keys[reps[group]], keys)
            assert len(np.unique(keys[reps], axis=0)) == len(reps)

    def test_keys_span_several_key_blocks(self, monkeypatch):
        # a sweep evaluates its distinct (P-row, W-row) keys in blocks of
        # ``block`` rows: blocks of five rows split most sweeps' keys
        marked = []
        evaluate_keys = discrete._evaluate_keys

        def spy(table, *args):
            marked.append(np.count_nonzero(table))
            return evaluate_keys(table, *args)

        monkeypatch.setattr(discrete, "_evaluate_keys", spy)
        for game in _oracle_games():
            monkeypatch.setattr(discrete, "_BLOCK_ELEMENTS", 5 * -(-game.n_z // 64))
            _assert_same_solution(game)
        assert sum(keys > 3 * 5 for keys in marked) >= 8

    def test_sweeps_whose_w_rows_are_all_equal(self, monkeypatch):
        # a sweep whose pairs read equal W rows keys them by P rows alone
        # (n_w = 1).  When every escaper vertex moves to every other, P and
        # then W have equal rows, so every sweep has n_w = 1; but then
        # W_1 = good(P) lies in P (e_z holds every self-loop), so no covered
        # row changes and sweep 2 has no pair to key.  Random toy games
        # reach later n_w = 1 sweeps that key pairs.
        widths = []
        evaluate_keys = discrete._evaluate_keys

        def spy(table, n_w, *args):
            widths.append((n_w, np.count_nonzero(table)))
            return evaluate_keys(table, n_w, *args)

        monkeypatch.setattr(discrete, "_evaluate_keys", spy)
        rng = np.random.default_rng(11)
        for _ in range(40):
            toy = _random_toy_game(rng)
            game = dataclasses.replace(toy, e_h=toy_game(
                np.ones((toy.n_h, toy.n_h)), toy.e_z, toy.samples.exit_idx_h,
                toy.samples.exit_idx_z).e_h)
            widths.clear()
            _assert_same_solution(game)
            assert all(n_w == 1 for n_w, _ in widths)
            assert len(widths) == 1
        later_sweeps = 0
        for _ in range(300):
            widths.clear()
            _assert_same_solution(_random_toy_game(rng))
            later_sweeps += sum(n_w == 1 and keys > 0 for n_w, keys in widths[1:])
        assert later_sweeps > 0

    def test_canonical_l_shape_game_is_pinned(self):
        # the benchmark's game (exterior L-shape, r = 3, delta = 0.3, grid
        # spacing 1/18): sizes, relations, marking and ranks to the bit
        ctx = MetricContext(validate_polygon(L_SHAPE), PursuerModel.EXTERIOR)
        game = build_game(ctx, r=3.0, delta=0.3, gamma=2 * math.sqrt(2) / 36, state_cap=1e13)
        res = solve(game)

        def digest(*arrays):
            return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()[:16]

        assert (game.n_h, game.n_z) == (1149, 401)
        assert (game.e_h.nnz, np.count_nonzero(game.e_z)) == (96_225, 58_439)
        rows = np.split(game.e_h.indices, game.e_h.indptr[1:-1])
        assert all(np.all(np.diff(row) > 0) for row in rows)
        assert digest(game.e_h.indptr, game.e_h.indices) == "8ff619a8a799ee8e"
        assert digest(game.e_z) == "f9ca8b5579180307"
        assert (res.iterations, res.win_count) == (10, 460_749)
        assert digest(res.win_mask) == "1065becc40bbe536"
        assert digest(res.rank) == "201b2962cc2853d0"

    @pytest.mark.parametrize("sweeps", [*range(1, 10), 16, 17, 255, 256, 257])
    def test_rank_planes_cross_bit_boundaries(self, sweeps):
        # one rank bit plane per bit of the largest rank, sweeps - 1: the
        # decoder accumulates in uint8 up to 8 planes and in uint16 at 9
        game = _chain_game(sweeps)
        res = solve(game)
        assert "rank" not in vars(res)
        assert res.iterations == sweeps
        assert len(res.rank_planes) == (sweeps - 1).bit_length()
        rank = res.rank
        assert res.rank is rank
        ref = reference_solve(game)
        assert np.array_equal(rank, ref.rank) and rank.dtype == ref.rank.dtype == np.int32
        assert np.array_equal(res.win_mask, ref.win_mask)
        expected = np.zeros((game.n_h, 2), dtype=np.int32)
        if sweeps > 1:
            expected[:, 1] = np.maximum(np.arange(game.n_h), 1)
        assert np.array_equal(rank, expected)

    def test_sweeps_hold_the_debug_line_counts(self, caplog):
        # SolveResult.sweeps is (selected, evaluated, distinct, marked) per
        # sweep, the numbers of the DEBUG lines; marked counts each rank
        results = []
        for game in [*_bracket_probe_games(), *_oracle_games()]:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="escape_ratio.discrete"):
                res = solve(game)
            logged = [tuple(int(n) for n in _SWEEP_LINE.fullmatch(rec.getMessage()).groups()[1:])
                      for rec in caplog.records]
            assert res.sweeps == logged and len(logged) == res.iterations
            marked = [int(np.count_nonzero(res.rank == k)) for k in range(1, res.iterations + 1)]
            assert [m for *_, m in res.sweeps] == marked
            results.append(res)
        assert results[2].sweeps == [(921, 921, 353, 13_672), (51_058, 7_708, 274, 0)]

    def test_logs_one_line_per_sweep(self, square_moat, caplog):
        game = build_game(square_moat, r=2.0, delta=0.5, gamma=0.2, state_cap=1e10)
        with caplog.at_level(logging.DEBUG, logger="escape_ratio.discrete"):
            res = solve(game)
        lines = [r.getMessage() for r in caplog.records if r.name == "escape_ratio.discrete"]
        assert len(lines) == res.iterations
        assert lines[0].startswith("sweep 1: ")
        assert lines[-1].endswith(" 0 states newly marked")

    def test_determinacy_and_monotone_marking(self, square_moat):
        game = build_game(square_moat, r=2.0, delta=0.5, gamma=0.2, state_cap=1e10)
        a = solve(game)
        b = solve(game)
        assert a.escaper_wins == b.escaper_wins
        assert np.array_equal(a.win_mask, b.win_mask)
        assert np.all((a.rank > 0) == a.win_mask)


def _decider_games():
    """Games with both winners: chain games up to 17 sweeps, the five-point
    minimax game, criterion 4's tiny games, and moat and exterior games on
    the square and the L."""
    for sweeps in [*range(1, 10), 16, 17]:
        yield _chain_game(sweeps)
    yield toy_game(np.ones((2, 2), dtype=bool), np.ones((2, 2), dtype=bool),
                   exit_idx_h=[0], exit_idx_z=[0])
    yield from criterion_4_games()
    yield from _oracle_games()
    for points in (SQUARE, L_SHAPE):
        for model in PursuerModel:
            ctx = MetricContext(validate_polygon(points), model)
            for r in (1.0, 2.0, 4.0, 8.0):
                yield build_game(ctx, r=r, delta=0.5, gamma=0.25, state_cap=1e10)


class TestEscaperWins:
    def test_agrees_with_solve(self):
        winners = [(escaper_wins(game), solve(game).escaper_wins) for game in _decider_games()]
        assert all(a == b for a, b in winners)
        assert {a for a, _ in winners} == {True, False}

    @pytest.fixture
    def sweeps_run(self, monkeypatch):
        """One entry per ``_sweep`` call made from here on."""
        calls = []
        sweep = discrete._sweep

        def spy(*args):
            calls.append(None)
            return sweep(*args)

        monkeypatch.setattr(discrete, "_sweep", spy)
        return calls

    def test_stops_at_the_first_full_row(self, sweeps_run):
        # the bracket's r = 2.57 probe fills its first row in sweep 3 of 8
        probe = list(_bracket_probe_games())[1]
        res = solve(probe)
        assert len(sweeps_run) == 8
        full = res.win_mask.all(axis=1)
        assert res.escaper_wins and res.rank[full].max(axis=1).min() == 3
        sweeps_run.clear()
        assert escaper_wins(probe)
        assert len(sweeps_run) == 3

    def test_runs_to_the_fixpoint_on_a_pursuer_win(self, sweeps_run):
        # the pursuer guards the chain's one exit, so no row ever fills
        for sweeps in (1, 2, 9, 17):
            sweeps_run.clear()
            assert not escaper_wins(_chain_game(sweeps))
            assert len(sweeps_run) == sweeps

    def test_logs_the_sweeps_and_one_stop_line(self, caplog):
        games = list(_bracket_probe_games())
        for game, stop in ((games[1], "escaper_wins: escaper at sweep 3"),
                           (games[2], "escaper_wins: pursuer at the fixpoint, sweep 2")):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="escape_ratio.discrete"):
                escaper_wins(game)
            lines = [rec.getMessage() for rec in caplog.records]
            assert lines[-1] == stop
            k = int(stop.rsplit(" ", 1)[1])
            assert len(lines) == k + 1
            assert all(_SWEEP_LINE.fullmatch(line) for line in lines[:-1])
            # the sweep lines are those of solve's first k sweeps
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="escape_ratio.discrete"):
                solve(game)
            assert [rec.getMessage() for rec in caplog.records][:k] == lines[:-1]


class TestReplay:
    def test_escaper_win_replay_decisive(self, square_moat):
        game = build_game(square_moat, r=2.0, delta=0.5, gamma=0.2, state_cap=1e10)
        res = solve(game)
        assert res.escaper_wins
        for z0 in range(game.n_z):
            tr = play_discrete(game, res.escaper_move, res.pursuer_move,
                               h0=res.witness_h0, z0=z0)
            assert tr.escaper_won
            h_threat, z_final, _ = tr.decisive
            assert escaper_win_predicate(game, h_threat, z_final)

    def test_replay_from_random_marked_states(self, square_moat):
        game = build_game(square_moat, r=2.0, delta=0.5, gamma=0.2, state_cap=1e10)
        res = solve(game)
        rng = np.random.default_rng(13)
        hs, zs = np.nonzero(res.win_mask)
        for k in rng.choice(len(hs), size=12, replace=False):
            tr = play_discrete(game, res.escaper_move, res.pursuer_move,
                               h0=int(hs[k]), z0=int(zs[k]))
            assert tr.escaper_won
            assert tr.turns <= int(res.rank[hs[k], zs[k]])

    def test_move_relations_symmetric(self, square_moat, l_moat, square_exterior):
        for ctx in (square_moat, l_moat, square_exterior):
            game = build_game(ctx, r=2.0, delta=0.5, gamma=0.2, state_cap=1e10)
            eh = game.e_h.toarray()
            assert np.array_equal(eh, eh.T)
            assert np.array_equal(game.e_z, game.e_z.T)
            assert eh.diagonal().all() and game.e_z.diagonal().all()

    def test_predicate_matches_threat_matrix(self, square_moat):
        from escape_ratio.discrete import threat_matrix

        game = build_game(square_moat, r=2.0, delta=0.5, gamma=0.2, state_cap=1e10)
        P = threat_matrix(game)
        rng = np.random.default_rng(8)
        for _ in range(60):
            h = int(rng.integers(0, game.n_h))
            z = int(rng.integers(0, game.n_z))
            assert escaper_win_predicate(game, h, z) == bool(P[h, z])

    def test_pursuer_win_replay_ends_at_a_repeated_state(self, square_moat):
        # the moves are functions of the state (h, z), so a play that comes
        # back to a state cycles: it ends there, each earlier state played once
        game = build_game(square_moat, r=40.0, delta=0.5, gamma=0.2, state_cap=1e10)
        res = solve(game)
        assert not res.escaper_wins
        tr = play_discrete(game, res.escaper_move, res.pursuer_move, h0=0, z0=0)
        assert not tr.escaper_won
        assert len(tr.moves) == 2 * tr.turns
        states = [(0, 0)] + [(h, z) for (_, h), (_, z) in zip(tr.moves[::2], tr.moves[1::2])]
        assert len(set(states[:-1])) == tr.turns
        assert states[-1] in states[:-1]

    def test_inconsistent_tables_detected(self, square_moat):
        game = build_game(square_moat, r=2.0, delta=0.5, gamma=0.2, state_cap=1e10)
        res = solve(game)
        empty = {}
        with pytest.raises(InconsistentTables, match="no move"):
            play_discrete(game, lambda h, z: empty[(h, z)], res.pursuer_move,
                          h0=0, z0=0)
        with pytest.raises(InconsistentTables, match="no move"):
            play_discrete(game, res.escaper_move, lambda h, h2, z: empty[(h, h2, z)],
                          h0=0, z0=0)
        far = int(np.flatnonzero(~game.e_h.toarray()[0])[0])
        with pytest.raises(InconsistentTables, match="illegal escaper move"):
            play_discrete(game, lambda h, z: far, res.pursuer_move, h0=0, z0=0)

    @pytest.mark.parametrize("value", ["38", 2.0, 1e9, -1, True, None])
    def test_non_index_moves_refused(self, square_moat, value):
        # only integers in [0, n) are sample indices; -1 would otherwise
        # index from the end and True would pass for sample 1
        game = build_game(square_moat, r=2.0, delta=0.5, gamma=0.2, state_cap=1e10)
        res = solve(game)
        with pytest.raises(InconsistentTables, match="illegal escaper move"):
            play_discrete(game, lambda h, z: value, res.pursuer_move, h0=0, z0=0)
        with pytest.raises(InconsistentTables, match="illegal pursuer move"):
            play_discrete(game, res.escaper_move, lambda h, h2, z: value,
                          h0=0, z0=0)
        with pytest.raises(InconsistentTables, match="illegal start state"):
            play_discrete(game, res.escaper_move, res.pursuer_move,
                          h0=value, z0=0)
        with pytest.raises(InconsistentTables, match="illegal start state"):
            play_discrete(game, res.escaper_move, res.pursuer_move,
                          h0=0, z0=value)


class TestMonotonicityInR:
    @pytest.mark.parametrize(
        "points,delta,gamma",
        [
            ([(0, 0), (1, 0), (1, 1), (0, 1)], 0.5, 0.2),
            ([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], 0.6, 0.25),
            ([(0, 0), (3, 0), (3, 1), (0, 1)], 0.5, 0.25),
        ],
    )
    def test_single_flip_over_r_grid(self, points, delta, gamma):
        ctx = MetricContext(validate_polygon(points), PursuerModel.MOAT)
        s = gamma_sample(ctx, gamma)
        winners = []
        for r in (0.5, 1, 2, 4, 8, 16):
            game = build_game(ctx, r=r, delta=delta, gamma=gamma,
                              state_cap=1e10, samples=s)
            winners.append(solve(game).escaper_wins)
        flips = sum(1 for a, b in zip(winners, winners[1:]) if a != b)
        assert flips <= 1
        if flips == 1:
            assert winners[0] and not winners[-1]  # escaper first, never back


def _square_game():
    return build_game(MetricContext(validate_polygon(SQUARE), PursuerModel.MOAT), 2.0, 0.5, 0.2)


# each builds a fresh record holding numpy arrays, equal in content to the last
_ARRAY_RECORDS = {
    "Polygon": lambda: validate_polygon(SQUARE),
    "SampleSet": lambda: _square_game().samples,
    "DiscreteGame": _square_game,
    "SolveResult": lambda: solve(_square_game()),
    "MotionPath": lambda: sim.MotionPath([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]], 1.0, "escaper"),
    "Playthrough": lambda: sim.playthrough(*exact.disk_strategies(4.4), dt=1e-2, t_max=0.1,
                                           epsilon=0.05, domain=sim.DiskDomain()),
    "AploParams": lambda: exact.AploParams(h0=np.zeros(2), axial=np.array([1.0, 0.0]),
                                           r_prime=2.0, du=0.6, dv=0.8),
}


@pytest.mark.parametrize("name", list(_ARRAY_RECORDS))
def test_array_records_compare_by_identity(name):
    # a generated __eq__ would compare the arrays and raise "truth value of
    # an array is ambiguous"; these compare and hash as objects
    a, b = _ARRAY_RECORDS[name](), _ARRAY_RECORDS[name]()
    assert type(a).__name__ == type(b).__name__ == name
    assert (a == b) is False and a != b and a == a
    assert len({a, b, a}) == 2
