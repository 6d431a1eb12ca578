import dataclasses
import logging
import math

import numpy as np
import pytest

from escape_ratio import discrete
from escape_ratio.errors import BudgetExceeded, GammaTooCoarse, InconsistentTables
from escape_ratio.discrete import (
    EscaperTurn,
    PursuerTurn,
    SolveResult,
    build_game,
    escaper_win_predicate,
    gamma_sample,
    play_discrete,
    solve,
    threat_matrix,
    toy_game,
    verify_net,
)
from escape_ratio.discrete import _grid_points, _threshold_distances
from escape_ratio.geometry import (
    MetricContext,
    PursuerModel,
    convex_hull,
    point_in_convex_hull,
    validate_polygon,
)
from escape_ratio.ratio import boundary_samples

from conftest import COMB, L_SHAPE, SQUARE, minimax_escaper_wins


def _scalar_gamma_sample(ctx, gamma):
    """gamma_sample's grid membership, one ``classify`` call per point."""
    poly = ctx.polygon
    _, boundary = boundary_samples(ctx, gamma)
    spacing = gamma / math.sqrt(2.0)
    grid = _grid_points(*poly.bbox, spacing)
    interior = grid[[poly.classify(p) != "outside" for p in grid]]
    if ctx.model is PursuerModel.MOAT:
        return np.vstack([boundary, interior]), boundary.copy()
    hull = convex_hull(poly.vertices)
    grid = _grid_points(hull.min(axis=0), hull.max(axis=0), spacing)
    keep = [
        bool(point_in_convex_hull(hull, p, poly.tol)) and poly.classify(p) != "inside"
        for p in grid
    ]
    return np.vstack([boundary, interior]), np.vstack([boundary, grid[keep]])


def _reference_solve(game):
    """Per-row Jacobi sweeps: every active row against all of its moves.

    The exact slow path the semi-naive block solver replaced; ``solve`` must
    match it on every output.
    """
    n_h, n_z = game.n_h, game.n_z
    P = threat_matrix(game)
    W = np.zeros((n_h, n_z), dtype=bool)
    rank = np.zeros((n_h, n_z), dtype=np.int32)
    indptr = game.e_h.indptr
    indices = game.e_h.indices
    use_windows = game.z_windows is not None
    if use_windows:
        lo, hi, full = game.z_windows
    ez_f = game.e_z.astype(np.float32)

    iteration = 0
    changed = np.ones(n_h, dtype=bool)
    while True:
        iteration += 1
        U = ~W
        R = ~P
        W_new = W.copy()
        active = np.asarray(game.e_h.dot(changed.astype(np.int32))).ravel() > 0
        changed = np.zeros(n_h, dtype=bool)
        for h in np.nonzero(active)[0]:
            if W[h].all():
                continue
            rows = indices[indptr[h] : indptr[h + 1]]
            M_bad = U[rows] & R[h][None, :]
            if use_windows and full:
                good = np.broadcast_to(~M_bad.any(axis=1)[:, None], (len(rows), n_z))
            elif use_windows:
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


def _assert_same_solution(game):
    got, ref = solve(game), _reference_solve(game)
    assert np.array_equal(got.win_mask, ref.win_mask)
    assert np.array_equal(got.rank, ref.rank) and got.rank.dtype == ref.rank.dtype
    assert got.iterations == ref.iterations
    assert got.witness_h0 == ref.witness_h0
    assert np.array_equal(got.threat, ref.threat)


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


class TestGammaSample:
    def test_documented_construction_counts(self, square, square_moat):
        # spacing rule on the unit square at gamma = 0.5: 8 boundary samples
        # and a 3x3 interior grid (the guard forbids this gamma end to end,
        # so the construction pieces are exercised directly)
        params, pts = boundary_samples(square_moat, 0.5)
        assert len(pts) == 8
        grid = _grid_points(*square.bbox, 0.5 / np.sqrt(2))
        inside = [p for p in grid if square.classify(p) != "outside"]
        assert len(inside) == 9

    def test_halving_gamma_doubles_edge_counts(self, square_moat):
        coarse = gamma_sample(square_moat, 0.25)
        fine = gamma_sample(square_moat, 0.125)
        assert fine.boundary_count == 2 * coarse.boundary_count

    def test_guard(self, square_moat):
        with pytest.raises(GammaTooCoarse):
            gamma_sample(square_moat, 0.3)
        with pytest.raises(GammaTooCoarse):
            gamma_sample(square_moat, -1.0)

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

    def test_exterior_model_net(self, square_exterior):
        s = gamma_sample(square_exterior, 0.2)
        gap = verify_net(square_exterior, s, probes=200, seed=5)
        assert gap <= 0.2

    def test_single_probe(self, square_moat):
        s = gamma_sample(square_moat, 0.25)
        assert verify_net(square_moat, s, probes=1, seed=4) >= 0.0

    def test_probes_must_be_positive(self, square_moat):
        s = gamma_sample(square_moat, 0.25)
        with pytest.raises(ValueError):
            verify_net(square_moat, s, probes=0)


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

    def test_threshold_distance_around_notch(self):
        # (0.3, 0) -> (7.5, 0) threads the notch's two mouth vertices on y = 0
        # and crosses no edge properly; the geodesic goes round the tip
        notch = [(0, -1), (8, -1), (8, 1), (4.5, 1), (4.05, 0), (4, -0.5), (3.95, 0),
                 (3.5, 1), (0, 1)]
        ctx = MetricContext(validate_polygon(notch), PursuerModel.MOAT)
        dist = _threshold_distances(ctx.polygon, [[0.3, 0], [7.5, 0]], 8, "interior")
        exact = ctx.interior_distance((0.3, 0), (7.5, 0))
        assert exact == 7.269164846451632
        assert dist[0, 1] == exact

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

    def test_state_cap(self, square_moat):
        with pytest.raises(BudgetExceeded):
            build_game(square_moat, r=4.0, delta=0.5, gamma=0.1, state_cap=1e3)

    def test_nonconvex_moves_respect_geodesics(self, l_moat):
        # (2,1) and (1,2) are Euclid sqrt(2) apart but geodesic distance 2
        game = build_game(l_moat, r=1.0, delta=1.5, gamma=0.25, state_cap=1e10)
        pts = game.samples.escaper_samples
        ia = int(np.argmin(np.hypot(pts[:, 0] - 2, pts[:, 1] - 1)))
        ib = int(np.argmin(np.hypot(pts[:, 0] - 1, pts[:, 1] - 2)))
        assert np.allclose(pts[ia], (2, 1)) and np.allclose(pts[ib], (1, 2))
        assert not game.e_h[ia, ib]
        game2 = build_game(l_moat, r=1.0, delta=2.01, gamma=0.25, state_cap=1e10)
        assert game2.e_h[ia, ib]


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

    def test_blocks_split_escaper_rows(self, monkeypatch):
        # blocks of one or three (h, h') pairs cut escaper rows' move lists
        # apart at block edges
        for game in _oracle_games():
            for pairs in (1, 3):
                monkeypatch.setattr(discrete, "_WINDOW_BLOCK_ELEMENTS", pairs * game.n_z)
                monkeypatch.setattr(discrete, "_MATMUL_BLOCK_ELEMENTS", pairs * game.n_z)
                _assert_same_solution(game)

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

    def test_win_set_and_state_types(self, square_moat):
        game = build_game(square_moat, r=2.0, delta=0.5, gamma=0.2, state_cap=1e10)
        res = solve(game)
        ws = res.win_set()
        some = next(iter(ws))
        assert isinstance(some, EscaperTurn)
        assert res.is_win(some)
        pt = PursuerTurn(h_threat=some.h, h_cur=some.h, z=some.z)
        assert isinstance(res.is_win(pt), bool)


class TestReplay:
    def test_escaper_win_replay_decisive(self, square_moat):
        game = build_game(square_moat, r=2.0, delta=0.5, gamma=0.2, state_cap=1e10)
        res = solve(game)
        assert res.escaper_wins
        cap = game.n_h * game.n_z + 1
        for z0 in range(game.n_z):
            tr = play_discrete(game, res.escaper_moves, res.pursuer_moves,
                               max_turns=cap, h0=res.witness_h0, z0=z0)
            assert tr.escaper_won
            h_threat, z_final, _ = tr.decisive
            assert escaper_win_predicate(game, h_threat, z_final)

    def test_replay_from_random_marked_states(self, square_moat):
        game = build_game(square_moat, r=2.0, delta=0.5, gamma=0.2, state_cap=1e10)
        res = solve(game)
        rng = np.random.default_rng(13)
        hs, zs = np.nonzero(res.win_mask)
        cap = game.n_h * game.n_z + 1
        for k in rng.choice(len(hs), size=12, replace=False):
            tr = play_discrete(game, res.escaper_moves, res.pursuer_moves,
                               max_turns=cap, h0=int(hs[k]), z0=int(zs[k]))
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

    def test_pursuer_win_replay_times_out(self, square_moat):
        game = build_game(square_moat, r=40.0, delta=0.5, gamma=0.2, state_cap=1e10)
        res = solve(game)
        assert not res.escaper_wins
        tr = play_discrete(game, res.escaper_moves, res.pursuer_moves,
                           max_turns=25, h0=0, z0=0)
        assert not tr.escaper_won
        assert tr.turns == 25

    def test_zero_turns_empty_transcript(self, square_moat):
        game = build_game(square_moat, r=2.0, delta=0.5, gamma=0.2, state_cap=1e10)
        res = solve(game)
        tr = play_discrete(game, res.escaper_moves, res.pursuer_moves,
                           max_turns=0, h0=0, z0=0)
        assert tr.moves == [] and not tr.escaper_won

    def test_inconsistent_tables_detected(self, square_moat):
        game = build_game(square_moat, r=2.0, delta=0.5, gamma=0.2, state_cap=1e10)
        with pytest.raises(InconsistentTables):
            play_discrete(game, {}, {}, max_turns=5, h0=0, z0=0)


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
