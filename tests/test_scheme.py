import math

import numpy as np
import pytest

from escape_ratio import scheme
from escape_ratio.discrete import gamma_sample
from escape_ratio.errors import BudgetExceeded
from escape_ratio.geometry import MetricContext, PursuerModel, validate_polygon
from escape_ratio.ratio import UPPER_FACTOR, max_ratio
from escape_ratio.scheme import (
    _gamma_for,
    _precheck_budget,
    approximate_r_star,
    decide_r,
    epsilon0,
    r_upper_bound_easy,
)

from conftest import COMB, L_SHAPE, SQUARE


class TestUpperBoundEasy:
    def test_square(self, square_moat):
        expected = UPPER_FACTOR * max(4.0 / 1.0, 1.0 / math.sin(math.pi / 4))
        assert r_upper_bound_easy(square_moat) == pytest.approx(expected)
        assert expected == pytest.approx(43.596, abs=1e-2)

    def test_triangle(self, triangle_moat):
        F_over_f = 3.0 / (math.sqrt(3) / 2)
        csc = 1.0 / math.sin(math.pi / 6)
        expected = UPPER_FACTOR * max(F_over_f, csc)
        assert r_upper_bound_easy(triangle_moat) == pytest.approx(expected)
        assert expected == pytest.approx(37.755, abs=1e-2)

    def test_lower_bounded_by_constant(self):
        rng = np.random.default_rng(31)
        from conftest import random_convex_polygon

        for _ in range(5):
            poly = random_convex_polygon(rng, 10)
            ctx = MetricContext(poly, PursuerModel.MOAT)
            assert r_upper_bound_easy(ctx) >= UPPER_FACTOR

    def test_dominates_certified_lower_bound(self, square_moat, l_moat):
        # the easy bound must genuinely upper-bound the max distance ratio
        for ctx, s in ((square_moat, 0.05), (l_moat, 0.1)):
            lower = max_ratio(ctx, s).lower_certified
            assert r_upper_bound_easy(ctx) >= UPPER_FACTOR * lower / UPPER_FACTOR
            assert r_upper_bound_easy(ctx) >= lower


class TestEpsilon0:
    def test_square_arithmetic(self, square_moat):
        # three stated bounds evaluated independently
        inradius = 0.5 / ((2.0 + math.sqrt(2)) / 2.0)  # right isoceles half-square
        edge = (1.0 / 4.0) ** 2
        speed = 1.0 / (2.0 * r_upper_bound_easy(square_moat) ** 2)
        assert epsilon0(square_moat) == pytest.approx(min(inradius, edge, speed))
        assert epsilon0(square_moat) == pytest.approx(2.6307e-4, rel=1e-3)

    def test_positive_for_valid_polygons(self, square_moat, l_moat, triangle_moat):
        for ctx in (square_moat, l_moat, triangle_moat):
            assert epsilon0(ctx) > 0.0

    def test_scaling_behavior(self):
        # scaling by s: inradius bound scales by s, edge bound by s^2, and the
        # speed bound is scale-free
        base = validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        big = validate_polygon([(0, 0), (7, 0), (7, 7), (0, 7)])
        cb = MetricContext(base, PursuerModel.MOAT)
        cbig = MetricContext(big, PursuerModel.MOAT)
        assert r_upper_bound_easy(cb) == pytest.approx(r_upper_bound_easy(cbig))
        # the scale-free speed bound dominates for both squares
        assert epsilon0(cb) == pytest.approx(epsilon0(cbig))

    def test_sliver_shrinks_quadratically_in_f(self):
        # on a near-sliver both the disk-condition bound (f/4)^2 and the
        # speed bound 1/(2 R^2) with R ~ F/f shrink like f^2
        thin = validate_polygon([(0, 0), (10, 0), (10, 0.08), (0, 0.08)])
        thinner = validate_polygon([(0, 0), (10, 0), (10, 0.04), (0, 0.04)])
        e1 = epsilon0(MetricContext(thin, PursuerModel.MOAT))
        e2 = epsilon0(MetricContext(thinner, PursuerModel.MOAT))
        assert e1 <= (0.08 / 4.0) ** 2
        assert e2 == pytest.approx(e1 / 4.0, rel=0.05)


class TestGammaFor:
    def test_positive_and_conforming(self):
        for r in (1.0, 2.0, 10.0):
            for eps in (0.1, 0.5, 1.0):
                delta = 0.3
                g = _gamma_for(r, delta, eps)
                assert 0 < g < min(0.25, r / 2, eps * r / 2) * delta


class TestPrecheckBudget:
    # a thin triangle whose grid keeps fewer interior points than
    # area / spacing^2: at gamma = f/5 (moat, n_h 707, n_z 222) an estimate
    # from the area alone refused the game at budget 1.18e8
    THIN = [(0, 0), (0.566647, 12.73404), (-0.028331, 12.760516)]

    @pytest.mark.parametrize("points", [SQUARE, L_SHAPE, COMB, THIN])
    @pytest.mark.parametrize("divisor", [4, 5, 7, 11])
    def test_never_refuses_a_game_within_budget(self, points, divisor):
        for model in PursuerModel:
            ctx = MetricContext(validate_polygon(points), model)
            samples = gamma_sample(ctx, ctx.polygon.min_feature_size / divisor)
            states = samples.n_escaper**2 * samples.n_pursuer
            _precheck_budget(ctx, samples.gamma, states)


class TestApproximate:
    def test_theoretical_delta_exceeds_any_desk_budget(self, square_moat):
        with pytest.raises(BudgetExceeded):
            approximate_r_star(square_moat, epsilon=0.5, budget=5e7)

    def test_decider_probes_on_square(self, square_moat):
        # coarse override decider: escaper side at small r, pursuer at large r
        rec2 = decide_r(square_moat, 2.0, delta=0.5, gamma=0.1, budget=1e10)
        rec20 = decide_r(square_moat, 20.0, delta=0.5, gamma=0.1, budget=1e10)
        assert rec2.escaper_wins
        assert not rec20.escaper_wins

    def test_override_bracket_and_flag(self, square_moat):
        res = approximate_r_star(
            square_moat, epsilon=0.5, budget=1e10, override=(0.5, 0.1)
        )
        assert res.heuristic
        assert res.r_lo >= 1.0
        assert res.r_lo < res.r_hi
        assert len(res.probes) >= 1

    def test_bracket_contains_certified_lower_bound(self, square_moat):
        res = approximate_r_star(
            square_moat, epsilon=0.5, budget=1e10, override=(0.5, 0.1)
        )
        lower = max_ratio(square_moat, 0.05).lower_certified
        assert res.r_lo <= lower <= res.r_hi

    def test_escaper_relation_built_once_per_bracket(self, square_moat, monkeypatch):
        from escape_ratio import discrete

        built, games = [], []
        threshold, build_game = discrete._threshold_distances, scheme.build_game

        def spy_threshold(poly, pts, limit, side):
            if side == 0:
                built.append(limit)
            return threshold(poly, pts, limit, side)

        def spy_build_game(*args, **kwargs):
            games.append(kwargs["r"])
            return build_game(*args, **kwargs)

        monkeypatch.setattr(discrete, "_threshold_distances", spy_threshold)
        monkeypatch.setattr(scheme, "build_game", spy_build_game)
        kwargs = dict(epsilon=0.3, budget=1e10, override=(0.5, 0.1))
        cached = approximate_r_star(square_moat, **kwargs)
        assert len(cached.probes) >= 3
        assert built == [0.5]
        assert games == [p.r for p in cached.probes]
        # the same bisection with every probe building its own relation
        decide_r = scheme.decide_r
        monkeypatch.setattr(scheme, "decide_r", lambda *a, e_h, **kw: decide_r(*a, **kw))
        built.clear()
        fresh = approximate_r_star(square_moat, **kwargs)
        assert len(built) == 1 + len(cached.probes)
        assert fresh.probes == cached.probes
        assert (fresh.r_lo, fresh.r_hi) == (cached.r_lo, cached.r_hi)

    def test_epsilon_one_stops_after_bracketing(self, square_moat):
        res = approximate_r_star(
            square_moat, epsilon=1.0, budget=1e10, override=(0.5, 0.1)
        )
        assert res.probes == []  # infinite slack: the prior bracket suffices
        assert res.r_lo == pytest.approx(1.0)
        assert res.r_hi == pytest.approx(2.0 * r_upper_bound_easy(square_moat))

    def test_decider_preconditions_checked(self, square_moat, monkeypatch):
        # a gamma at the limit min{1/4, r/2, eps*r/2} * delta is refused
        monkeypatch.setattr(scheme, "_gamma_for",
                            lambda r, delta, eps: min(0.25, r / 2, eps * r / 2) * delta)
        with pytest.raises(ValueError, match="decider preconditions"):
            approximate_r_star(square_moat, epsilon=0.5, budget=1e10, override=(0.5, 0.1))

    def test_epsilon_validated(self, square_moat):
        with pytest.raises(ValueError):
            approximate_r_star(square_moat, epsilon=0.0)
        with pytest.raises(ValueError):
            approximate_r_star(square_moat, epsilon=1.5)

    def test_probe_flip_at_most_once_on_grid(self, square_moat):
        from escape_ratio.discrete import gamma_sample

        s = gamma_sample(square_moat, 0.1)
        winners = []
        for r in (1.0, 2.0, 4.0, 8.0, 16.0):
            rec = decide_r(square_moat, r, delta=0.5, gamma=0.1, budget=1e10, samples=s)
            winners.append(rec.escaper_wins)
        flips = sum(1 for a, b in zip(winners, winners[1:]) if a != b)
        assert flips <= 1
