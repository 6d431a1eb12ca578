"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a pytest failure on any test is that criterion's fail line.
"""

import math
import time

import numpy as np
import pytest

from escape_ratio import exact, sim
from escape_ratio.discrete import build_game, gamma_sample, solve
from escape_ratio.geometry import MetricContext, PursuerModel, validate_polygon
from escape_ratio.ratio import UPPER_FACTOR, max_ratio
from escape_ratio.scheme import approximate_r_star, decide_r

from conftest import minimax_escaper_wins, random_convex_polygon, toy_game
from test_ratio import square_dense_oracle


def report(k, text):
    print(f"\n[acceptance {k}] PASS - {text}", flush=True)


def test_criterion_1_canonical_values():
    t0 = time.perf_counter()
    phi = exact.disk_phi_star()
    assert abs(math.tan(phi) - math.pi - phi) < 1e-9
    assert exact.disk_r_star() == pytest.approx(4.6033, abs=1e-4)
    assert exact.triangle_r_star() == pytest.approx(7.40492, abs=1e-4)
    assert exact.square_r_star() == pytest.approx(5.78857, abs=1e-4)
    assert exact.wedge_r_star(math.pi) == 1.0
    # exact up to one ulp of the irrational angle argument pi/3
    assert abs(exact.wedge_r_star(math.pi / 3) - 2.0) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.05
    report(1, f"canonical values match in {elapsed * 1e3:.2f} ms")


def test_criterion_2_square_sandwich():
    t0 = time.perf_counter()
    ctx = MetricContext(
        validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), PursuerModel.MOAT
    )
    oracle_max, t1, t2 = square_dense_oracle(0.005)
    assert oracle_max == pytest.approx(2.0)
    assert (t1, t2) == (0.5, 2.5)
    bound = max_ratio(ctx, 0.05)
    assert bound.lower_certified == pytest.approx(2.0, abs=0.01)
    assert bound.lower_certified == pytest.approx(oracle_max, abs=0.01)
    assert bound.witness_p == pytest.approx((0.5, 0.0), abs=1e-6)
    assert bound.witness_q == pytest.approx((0.5, 1.0), abs=1e-6)
    # upper = 2(3+sqrt 6) * lower, up to the declared Lipschitz inflation
    quotient = bound.upper_estimate / (UPPER_FACTOR * bound.lower_certified)
    assert 1.0 <= quotient <= 1.1
    assert bound.lower_certified <= 5.78857 <= bound.upper_estimate
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, f"lower={bound.lower_certified:.4f} upper={bound.upper_estimate:.3f} "
              f"in {elapsed:.2f} s")


def test_criterion_3_exterior_moat_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        poly = random_convex_polygon(rng, int(rng.integers(8, 41)))
        ext = MetricContext(poly, PursuerModel.EXTERIOR)
        moat = MetricContext(poly, PursuerModel.MOAT)
        F = poly.perimeter
        for _ in range(100):
            p = poly.boundary_point(rng.uniform(0, F))
            q = poly.boundary_point(rng.uniform(0, F))
            diff = abs(ext.pursuer_distance(p, q) - moat.pursuer_distance(p, q))
            worst = max(worst, diff / F)
            assert diff <= 1e-9 * F
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"50 convex polygons x 100 pairs, worst relative diff {worst:.2e} "
              f"in {elapsed:.1f} s")


def criterion_4_games():
    """Criterion 4's 200 random tiny games (at most 12 samples each)."""
    rng = np.random.default_rng(99)
    for _ in range(200):
        n_h = int(rng.integers(2, 7))
        n_z = int(rng.integers(2, 7))
        if n_h + n_z > 12:
            n_z = 12 - n_h
        n_x = int(rng.integers(1, min(n_h, n_z) + 1))
        e_h = rng.random((n_h, n_h)) < rng.uniform(0.2, 0.8)
        e_h |= e_h.T
        np.fill_diagonal(e_h, True)
        e_z = rng.random((n_z, n_z)) < rng.uniform(0.2, 0.8)
        e_z |= e_z.T
        np.fill_diagonal(e_z, True)
        yield toy_game(
            e_h,
            e_z,
            exit_idx_h=rng.choice(n_h, size=n_x, replace=False),
            exit_idx_z=rng.choice(n_z, size=n_x, replace=False),
        )


def test_criterion_4_solver_matches_minimax():
    t0 = time.perf_counter()
    matches = 0
    for game in criterion_4_games():
        res = solve(game)
        oracle = any(
            all(minimax_escaper_wins(game, h0, z0) for z0 in range(game.n_z))
            for h0 in range(game.n_h)
        )
        assert oracle == res.escaper_wins
        matches += 1
    elapsed = time.perf_counter() - t0
    assert matches == 200
    assert elapsed < 60.0
    report(4, f"200/200 tiny games agree with memoized minimax in {elapsed:.1f} s")


def test_criterion_5_monotone_in_r_on_square():
    t0 = time.perf_counter()
    ctx = MetricContext(
        validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), PursuerModel.MOAT
    )
    # |V_h|^2 |V_z| ~ 6.8e10 here, so the configurable cap is raised for the
    # sweep; the guard still vets every build
    samples = gamma_sample(ctx, 0.05)
    winners = []
    for r in (1, 2, 4, 8, 16, 32):
        game = build_game(ctx, r=r, delta=0.25, gamma=0.05, state_cap=1e11,
                          samples=samples)
        winners.append(solve(game).escaper_wins)
    flips = sum(1 for a, b in zip(winners, winners[1:]) if a != b)
    assert flips <= 1
    if flips == 1:
        assert winners[0] is True and winners[-1] is False
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    names = ["escaper" if w else "pursuer" for w in winners]
    report(5, f"winners over r grid: {names} ({flips} flip) in {elapsed:.1f} s")


def test_criterion_6_heuristic_bracket():
    t0 = time.perf_counter()
    ctx = MetricContext(
        validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), PursuerModel.MOAT
    )
    samples = gamma_sample(ctx, 0.02)
    rec2 = decide_r(ctx, 2.0, delta=0.2, gamma=0.02, budget=1e13, samples=samples)
    rec20 = decide_r(ctx, 20.0, delta=0.2, gamma=0.02, budget=1e13, samples=samples)
    assert rec2.escaper_wins
    assert not rec20.escaper_wins
    res = approximate_r_star(ctx, epsilon=0.5, budget=1e13, override=(0.2, 0.02))
    assert res.heuristic is True
    assert res.r_lo <= 5.78857 <= res.r_hi
    elapsed = time.perf_counter() - t0
    report(6, f"heuristic bracket ({res.r_lo:.3f}, {res.r_hi:.3f}) contains "
              f"5.78857 in {elapsed:.0f} s")


def test_criterion_7_simulation_fidelity():
    t0 = time.perf_counter()
    dt = 1e-4

    # (a) halfplane projection pursuer at the critical ratio r = 1
    theta = math.pi / 2
    domain = sim.HalfplaneDomain(theta)
    escaper = sim.StraightRunEscaper([(1, 0), (0, 0), (0, 1)])
    pursuer = sim.HalfplaneProjectionPursuer(theta, 1.0)
    pt_a = sim.playthrough(escaper, pursuer, dt=dt, t_max=3.0, epsilon=0.05,
                           domain=domain)
    assert pt_a.outcome == "no_escape_by_tmax"
    assert pt_a.touches
    assert max(s for _, s in pt_a.touches) <= 1.0 * dt + 1e-9

    # (b) straight-run escaper below the critical ratio escapes
    theta = math.pi / 4
    domain = sim.HalfplaneDomain(theta)
    escaper = sim.StraightRunEscaper([(1, 0), (1, math.tan(theta))])
    pursuer = sim.HalfplaneProjectionPursuer(theta, 0.9)
    pt_b = sim.playthrough(escaper, pursuer, dt=dt, t_max=3.0, epsilon=0.05,
                           domain=domain)
    assert pt_b.escaped
    assert pt_b.separation >= 0.05
    assert pt_b.exit_point == pytest.approx((1.0, math.tan(theta)), abs=1e-6)

    # (c) disk: escape at r = 4.4, no escape at r = 4.8
    domain = sim.DiskDomain()
    esc, purs = exact.disk_strategies(4.4)
    pt_c1 = sim.playthrough(esc, purs, dt=dt, t_max=10.0, epsilon=0.01,
                            domain=domain)
    assert pt_c1.escaped
    assert pt_c1.separation > 0.0

    bound = 5 * 4.8 * dt
    esc, purs = exact.disk_strategies(4.8)
    pt_c2 = sim.playthrough(esc, purs, dt=dt, t_max=10.0, epsilon=bound,
                            domain=domain)
    assert pt_c2.outcome == "no_escape_by_tmax"
    assert pt_c2.touches  # the blocked escaper does press the boundary
    assert max(s for _, s in pt_c2.touches) <= bound

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, f"halfplane hold/escape and disk escape(sep={pt_c1.separation:.3f})/"
              f"block in {elapsed:.1f} s")


def test_criterion_8_contract_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    # 100 random APLO parameter draws against random admissible progress
    r = 3.5
    for _ in range(100):
        frac = rng.uniform(0.02, 0.98)
        params = exact.AploParams(
            h0=rng.normal(size=2),
            axial=rng.normal(size=2) + 1e-3,
            r_prime=r,
            du=math.cos(frac * math.pi / 2),
            dv=math.sin(frac * math.pi / 2),
        )
        times = np.linspace(0.0, 1.5, 76)
        steps = rng.uniform(-r, r, 75) * np.diff(times)
        progress = np.concatenate([[0.0], np.cumsum(steps)])
        pts = np.array(
            [exact.aplo_position(params, d, t) for d, t in zip(progress, times)]
        )
        path = sim.MotionPath(times, pts, 1.0, "escaper")
        assert sim.validate_speed(path, sim.DiskDomain(), pairs=60, seed=5).passed

    # delta-oblivious truncation probe on every built-in strategy
    delta = 0.3
    dt = 0.05
    steps = 30
    times = np.arange(steps + 1) * dt
    cut = 12
    t_agree = times[cut]

    def circle_paths():
        ang = math.pi + 0.4 * times
        a = np.column_stack([np.cos(ang), np.sin(ang)])
        b = a.copy()
        b[cut + 1 :] = b[cut]
        return a, b

    def plane_paths():
        a = np.column_stack([1.0 - 0.2 * times, 0.4 * times])
        b = a.copy()
        b[cut + 1 :, 0] += 0.05
        return a, b

    def wedge_paths():
        a = np.column_stack([1.0 + 0.1 * times, 0.2 * times])
        b = a.copy()
        b[cut + 1 :, 1] -= 0.1
        return a, b

    cases = [
        (lambda: sim.StraightRunEscaper([(1, 0), (0, 0)]), plane_paths),
        (lambda: sim.HalfplaneProjectionPursuer(math.pi / 2, 2.0), plane_paths),
        (lambda: sim.WedgeProjectionPursuer(math.pi / 4, 2.0), wedge_paths),
        (lambda: exact.DiskArcChasingPursuer(4.8), lambda: (
            np.column_stack([np.linspace(0.3, 0.9, steps + 1), np.zeros(steps + 1)]),
            np.column_stack([np.linspace(0.3, 0.9, steps + 1),
                             np.concatenate([np.zeros(cut + 1),
                                             0.05 * np.ones(steps - cut)])]),
        )),
        (lambda: exact.DiskAploEscaper(4.4), circle_paths),
    ]
    for factory, path_maker in cases:
        a, b = path_maker()
        w1 = sim.obliviate(factory(), delta)
        w2 = sim.obliviate(factory(), delta)
        w1.reset()
        w2.reset()
        for k, t in enumerate(times):
            o1 = w1.position(sim.PathView(times, a, k + 1), t)
            o2 = w2.position(sim.PathView(times, b, k + 1), t)
            if t <= t_agree + delta + 1e-12:
                assert np.allclose(o1, o2), (factory, t)

    elapsed = time.perf_counter() - t0
    report(8, f"100 APLO speed contracts + oblivious probes on 5 built-ins "
              f"in {elapsed:.1f} s")
