import functools
import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from conftest import L_SHAPE, SQUARE, reference_playthrough, reference_validate_speed
from test_exact import _points_near_circle

from escape_ratio import sim
from escape_ratio.errors import DomainViolation, OutsideDomain, SpeedViolation
from escape_ratio.exact import AploParams, DiskAploEscaper, aplo_position, disk_strategies
from escape_ratio.geometry import MetricContext, PursuerModel, validate_polygon
from escape_ratio.sim import (
    DiskDomain,
    HalfplaneDomain,
    HalfplaneProjectionPursuer,
    MotionPath,
    ObliviousStrategy,
    PathView,
    PolygonDomain,
    StraightRunEscaper,
    Strategy,
    WedgeDomain,
    WedgeProjectionPursuer,
    emit_svg,
    obliviate,
    playthrough,
    validate_speed,
)


def halfplane_scenario(theta, r):
    domain = HalfplaneDomain(theta)
    if theta >= math.pi / 2 - 1e-12:
        escaper = StraightRunEscaper([(1, 0), (0, 0), (0, 1)])
    else:
        escaper = StraightRunEscaper([(1, 0), (1, math.tan(theta))])
    return domain, escaper, HalfplaneProjectionPursuer(theta, r)


class TestMotionPath:
    def test_times_must_increase_from_zero(self):
        with pytest.raises(ValueError):
            MotionPath(np.array([0.0, 0.5, 0.5]), np.zeros((3, 2)), 1.0, "escaper")
        with pytest.raises(ValueError):
            MotionPath(np.array([0.1, 0.5]), np.zeros((2, 2)), 1.0, "escaper")


class TestPlaythrough:
    def test_halfplane_critical_no_escape(self):
        domain, escaper, pursuer = halfplane_scenario(math.pi / 2, 1.0)
        pt = playthrough(escaper, pursuer, dt=1e-3, t_max=3.0, epsilon=0.05,
                         domain=domain)
        assert pt.outcome == "no_escape_by_tmax"
        assert pt.touches
        assert max(s for _, s in pt.touches) <= 1.0 * 1e-3 + 1e-9

    def test_halfplane_subcritical_escape(self):
        domain, escaper, pursuer = halfplane_scenario(math.pi / 4, 0.9)
        pt = playthrough(escaper, pursuer, dt=1e-3, t_max=3.0, epsilon=0.05,
                         domain=domain)
        assert pt.escaped
        # straight run reaches (1, tan(theta)); the pursuer covers at most
        # r * tan(theta) of its 1/cos(theta) boundary distance
        assert pt.separation >= math.sqrt(2) - 0.9 - 1e-2

    def test_single_step_when_dt_exceeds_tmax(self):
        domain, escaper, pursuer = halfplane_scenario(math.pi / 2, 1.0)
        pt = playthrough(escaper, pursuer, dt=5.0, t_max=3.0, epsilon=0.05,
                         domain=domain)
        assert pt.outcome == "no_escape_by_tmax"
        assert len(pt.escaper_path) == 1

    def test_determinism(self):
        domain = DiskDomain()
        e1, p1 = disk_strategies(4.4)
        e2, p2 = disk_strategies(4.4)
        a = playthrough(e1, p1, dt=2e-3, t_max=5.0, epsilon=0.05, domain=domain)
        b = playthrough(e2, p2, dt=2e-3, t_max=5.0, epsilon=0.05, domain=domain)
        assert np.array_equal(a.escaper_path.points, b.escaper_path.points)
        assert np.array_equal(a.pursuer_path.points, b.pursuer_path.points)
        assert a.outcome == b.outcome

    def test_strategy_instance_reusable_across_runs(self):
        domain = DiskDomain()
        esc, purs = disk_strategies(4.4)
        a = playthrough(esc, purs, dt=2e-3, t_max=5.0, epsilon=0.05, domain=domain)
        b = playthrough(esc, purs, dt=2e-3, t_max=5.0, epsilon=0.05, domain=domain)
        assert a.outcome == b.outcome == "escaped"
        assert a.escape_time == b.escape_time

    def test_disk_blocker_stays_within_one_step_of_touches(self):
        esc, purs = disk_strategies(4.8)
        pt = playthrough(esc, purs, dt=1e-3, t_max=10.0, epsilon=0.05,
                         domain=DiskDomain())
        assert pt.outcome == "no_escape_by_tmax"
        assert pt.touches
        assert max(s for _, s in pt.touches) <= 4.8 * 1e-3 + 1e-9

    def test_grid_refinement_stability(self):
        domain = DiskDomain()
        seps = {}
        for dt in (2e-3, 1e-3):
            esc, purs = disk_strategies(4.4)
            pt = playthrough(esc, purs, dt=dt, t_max=5.0, epsilon=0.05, domain=domain)
            assert pt.escaped
            seps[dt] = pt.separation
        assert abs(seps[2e-3] - seps[1e-3]) < 10 * 4.4 * 2e-3

    def test_wedge_scenario_both_sides_of_critical(self):
        theta = math.pi / 4  # critical ratio 1/sin(theta) = sqrt(2)
        domain = WedgeDomain(theta)
        start = (math.cos(theta), 0.0)
        target = (math.cos(theta), math.sin(theta))
        outcomes = {}
        for r in (1.2, 1.5):
            escaper = StraightRunEscaper([start, target])
            pursuer = WedgeProjectionPursuer(theta, r)
            pt = playthrough(escaper, pursuer, dt=1e-3, t_max=3.0, epsilon=0.05,
                             domain=domain)
            outcomes[r] = pt
        assert outcomes[1.2].escaped
        # pursuer covers r*sin(theta) of its unit boundary distance to the exit
        assert outcomes[1.2].separation == pytest.approx(
            1.0 - 1.2 * math.sin(theta), abs=5e-3
        )
        assert outcomes[1.5].outcome == "no_escape_by_tmax"

    def test_polygon_domain_playthrough(self, square_moat):
        from escape_ratio.sim import PolygonDomain, Strategy

        class CampingPursuer(Strategy):
            max_speed = 1.0

            def position(self, opp, t):
                return np.array([0.5, 0.0])

        domain = PolygonDomain(square_moat)
        escaper = StraightRunEscaper([(0.5, 0.0), (0.5, 1.0)])
        pt = playthrough(escaper, CampingPursuer(), dt=0.01, t_max=2.0,
                         epsilon=0.5, domain=domain)
        assert pt.escaped
        assert pt.separation == pytest.approx(2.0)  # moat arc to the far side
        assert pt.escape_time == pytest.approx(1.0, abs=0.02)

    def test_speed_violation_detected(self):
        class Cheater(StraightRunEscaper):
            def position(self, opp, t):
                return np.array([1.0 - 5.0 * t, 0.0])

        domain = HalfplaneDomain(math.pi / 2)
        cheater = Cheater([(1, 0), (0, 0)])
        with pytest.raises(SpeedViolation):
            playthrough(cheater, HalfplaneProjectionPursuer(math.pi / 2, 1.0),
                        dt=0.01, t_max=1.0, epsilon=0.05, domain=domain)

    def test_domain_violation_detected(self):
        class Leaver(StraightRunEscaper):
            def position(self, opp, t):
                return np.array([-0.5, 0.0]) if t > 0.2 else self.start_point

        domain = WedgeDomain(math.pi / 4)
        bad = Leaver([(1, 0)])
        with pytest.raises((DomainViolation, SpeedViolation)):
            playthrough(bad, WedgeProjectionPursuer(math.pi / 4, 2.0),
                        dt=0.1, t_max=1.0, epsilon=0.05, domain=domain)


class TestNoLookahead:
    @pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2])
    def test_projection_pursuer(self, theta):
        # two escaper prefixes that agree on [0, t] must give identical
        # pursuer outputs on [0, t]
        steps = 40
        dt = 0.01
        times = np.arange(steps + 1) * dt
        base = np.column_stack([1.0 - 0.3 * times, 0.5 * times])
        other = base.copy()
        other[21:, 1] += 0.1 * (times[21:] - times[20])[:, None].ravel()
        outs = []
        for pts in (base, other):
            purs = HalfplaneProjectionPursuer(theta, 2.0)
            purs.reset()
            res = [
                purs.position(PathView(times, pts, k + 1), times[k])
                for k in range(21)
            ]
            outs.append(np.array(res))
        assert np.allclose(outs[0], outs[1])

    def test_disk_escaper(self):
        steps = 60
        dt = 0.01
        times = np.arange(steps + 1) * dt
        ang = np.pi + 0.3 * times
        base = np.column_stack([np.cos(ang), np.sin(ang)])
        other = base.copy()
        other[31:] = other[30]  # freeze after the agreement window
        outs = []
        for pts in (base, other):
            esc, _ = disk_strategies(4.4)
            esc.reset()
            res = [
                esc.position(PathView(times, pts, k + 1), times[k + 1])
                for k in range(30)
            ]
            outs.append(np.array(res))
        assert np.allclose(outs[0], outs[1])

    def test_wedge_pursuer_and_arc_chaser(self):
        from escape_ratio.exact import DiskArcChasingPursuer

        steps = 40
        dt = 0.01
        times = np.arange(steps + 1) * dt
        cut = 20
        wedge_a = np.column_stack([1.0 + 0.1 * times, 0.2 * times])
        wedge_b = wedge_a.copy()
        wedge_b[cut + 1 :, 1] -= 0.15
        disk_a = np.column_stack([np.linspace(0.3, 0.8, steps + 1),
                                  0.1 * np.ones(steps + 1)])
        disk_b = disk_a.copy()
        disk_b[cut + 1 :, 1] = -0.1
        for factory, (a, b) in (
            (lambda: WedgeProjectionPursuer(math.pi / 4, 2.0), (wedge_a, wedge_b)),
            (lambda: DiskArcChasingPursuer(4.8), (disk_a, disk_b)),
        ):
            outs = []
            for pts in (a, b):
                strat = factory()
                strat.reset()
                res = [
                    strat.position(PathView(times, pts, k + 1), times[k])
                    for k in range(cut + 1)
                ]
                outs.append(np.array(res))
            assert np.allclose(outs[0], outs[1])


class TestTracker:
    @pytest.mark.parametrize("r, lands", [(3.0, True), (1.0, False)])
    def test_step_within_reach_lands_on_target(self, r, lands):
        # theta = pi/2 puts the boundary on the y-axis, so the pursuer's
        # target is the escaper's height: 2.25 away, within reach at r = 3,
        # a full step of 1 at r = 1
        y0, y1 = -1.9619555905256945, 0.29279256832891765
        times = np.array([0.0, 1.0])
        pts = np.array([[1.0, y0], [1.0, y1]])
        purs = HalfplaneProjectionPursuer(math.pi / 2, r)
        purs.position(PathView(times, pts, 1), 0.0)
        _, y = purs.position(PathView(times, pts, 2), 1.0)
        assert y == (y1 if lands else y0 + 1.0)


class TestObliviate:
    def test_holds_start_until_delta(self):
        inner = StraightRunEscaper([(1, 0), (0, 0)])
        wrapped = obliviate(inner, delta=0.25)
        wrapped.reset()
        times = np.arange(11) * 0.05
        opp = np.tile([5.0, 0.0], (11, 1))
        for k, t in enumerate(times):
            if t <= 0.25:
                out = wrapped.position(PathView(times, opp, k + 1), t)
                assert out == pytest.approx((1.0, 0.0))

    def test_delayed_mimic_matches_shifted_inner(self):
        delta = 0.2
        inner = StraightRunEscaper([(1, 0), (0, 0)])
        wrapped = obliviate(inner, delta=delta)
        wrapped.reset()
        times = np.arange(31) * 0.05
        opp = np.column_stack([np.linspace(2, 1, 31), np.zeros(31)])
        for k, t in enumerate(times):
            out = wrapped.position(PathView(times, opp, k + 1), t)
            reference = inner_position_at(max(0.0, t - delta))
            assert out == pytest.approx(reference, abs=1e-12)

    def test_obliviated_disk_pursuer_still_blocks_at_widened_epsilon(self):
        # delaying the winning pursuer by delta = eps/(2r) costs at most
        # r*delta = eps/2 of separation, so it still wins at eps' = 1.5*eps
        r = 4.8
        eps = 0.05
        delta = eps / (2 * r)
        esc, purs = disk_strategies(r)
        delayed = obliviate(purs, delta)
        pt = playthrough(esc, delayed, dt=1e-3, t_max=10.0, epsilon=1.5 * eps,
                         domain=DiskDomain())
        assert pt.outcome == "no_escape_by_tmax"
        assert max((s for _, s in pt.touches), default=0.0) < 1.5 * eps

    def test_truncation_probe_delta_oblivious(self):
        # outputs on [0, t+delta] must ignore opponent data after t
        delta = 0.3
        dt = 0.05
        steps = 30
        times = np.arange(steps + 1) * dt
        a = np.column_stack([np.cos(times), np.sin(times)])
        b = a.copy()
        cut = 12  # agree on [0, times[cut]]
        b[cut + 1 :] = b[cut] + np.cumsum(
            np.tile([0.04, -0.02], (steps - cut, 1)), axis=0
        )
        t_agree = times[cut]
        inner1 = HalfplaneProjectionPursuer(math.pi / 2, 2.0)
        inner2 = HalfplaneProjectionPursuer(math.pi / 2, 2.0)
        w1 = obliviate(inner1, delta)
        w2 = obliviate(inner2, delta)
        w1.reset()
        w2.reset()
        for k, t in enumerate(times):
            o1 = w1.position(PathView(times, a, k + 1), t)
            o2 = w2.position(PathView(times, b, k + 1), t)
            if t <= t_agree + delta + 1e-12:
                assert np.allclose(o1, o2), t


def inner_position_at(t):
    # straight run (1,0) -> (0,0) at unit speed, then hold
    if t >= 1.0:
        return (0.0, 0.0)
    return (1.0 - t, 0.0)


class TestValidateSpeed:
    def test_constant_path(self):
        path = MotionPath(np.arange(5) * 0.1, np.tile([0.3, 0.2], (5, 1)), 1.0, "escaper")
        rep = validate_speed(path, DiskDomain())
        assert rep.max_consecutive == 0.0
        assert rep.passed

    def test_unit_speed_straight(self):
        times = np.linspace(0, 0.5, 26)
        pts = np.column_stack([times - 0.9, np.zeros_like(times)])
        path = MotionPath(times, pts, 1.0, "escaper")
        rep = validate_speed(path, DiskDomain())
        assert rep.max_consecutive == pytest.approx(1.0, abs=1e-9)
        assert rep.passed

    def test_overspeed_fails(self):
        times = np.linspace(0, 0.4, 21)
        pts = np.column_stack([1.5 * times - 0.9, np.zeros_like(times)])
        path = MotionPath(times, pts, 1.0, "escaper")
        assert not validate_speed(path, DiskDomain()).passed


class TestEmitSvg:
    def test_disk_structure(self):
        esc, purs = disk_strategies(4.4)
        pt = playthrough(esc, purs, dt=2e-3, t_max=5.0, epsilon=0.05,
                         domain=DiskDomain())
        svg = emit_svg(pt, DiskDomain())
        assert svg.count("<circle") == 1
        assert svg.count("<polyline") == 2
        assert "separation" in svg

    def test_stationary_pursuer_single_point_marker(self):
        class StillEscaper:
            start_point = np.array([0.0, 0.0])
            max_speed = 1.0

            def reset(self):
                pass

            def position(self, opp, t):
                return self.start_point

        _, purs = disk_strategies(4.8)
        pt = playthrough(StillEscaper(), purs, dt=0.01, t_max=0.5, epsilon=0.05,
                         domain=DiskDomain())
        svg = emit_svg(pt, DiskDomain())
        assert 'class="point-marker"' in svg

    def test_escaped_annotation_includes_separation(self):
        esc, purs = disk_strategies(4.4)
        pt = playthrough(esc, purs, dt=2e-3, t_max=5.0, epsilon=0.05,
                         domain=DiskDomain())
        svg = emit_svg(pt, DiskDomain())
        assert f"{pt.separation:.4g}" in svg


class TestAploPathsUnderSimulation:
    def test_aplo_path_respects_speed_limit(self):
        # the speed check uses the planar metric, so the path need not stay in
        # any particular domain here
        rng = np.random.default_rng(77)
        r = 3.0
        for _ in range(10):
            ang = rng.uniform(0, 2 * np.pi)
            frac = rng.uniform(0.05, 0.95)
            du = math.cos(frac * math.pi / 2)
            dv = math.sin(frac * math.pi / 2)
            params = AploParams(
                h0=rng.normal(size=2),
                axial=(math.cos(ang), math.sin(ang)),
                r_prime=r,
                du=du,
                dv=dv,
            )
            times = np.linspace(0, 2.0, 101)
            steps = rng.uniform(-r, r, 100) * np.diff(times)
            progress = np.concatenate([[0.0], np.cumsum(steps)])
            pts = np.array(
                [aplo_position(params, D, t) for D, t in zip(progress, times)]
            )
            path = MotionPath(times, pts, 1.0, "escaper")
            assert validate_speed(path, DiskDomain(), pairs=50, seed=1).passed


def _sha256(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


class _CampingPursuer(Strategy):
    max_speed = 1.0

    def position(self, opp, t):
        return np.array([0.5, 0.0])


def _disk_run(r, epsilon):
    # the benchmark's disk playthroughs: dt 1e-4, t_max 2
    esc, purs = disk_strategies(r)
    return playthrough(esc, purs, dt=1e-4, t_max=2.0, epsilon=epsilon, domain=DiskDomain())


def _halfplane_run(theta, r):
    domain, escaper, pursuer = halfplane_scenario(theta, r)
    return playthrough(escaper, pursuer, dt=1e-3, t_max=3.0, epsilon=0.05, domain=domain)


def _wedge_run(r):
    theta = math.pi / 4
    escaper = StraightRunEscaper([(math.cos(theta), 0.0), (math.cos(theta), math.sin(theta))])
    return playthrough(escaper, WedgeProjectionPursuer(theta, r), dt=1e-3, t_max=3.0,
                       epsilon=0.05, domain=WedgeDomain(theta))


def _oblivious_disk_run():
    esc, purs = disk_strategies(4.8)
    return playthrough(esc, obliviate(purs, 0.05 / 9.6), dt=1e-3, t_max=3.0,
                       epsilon=0.075, domain=DiskDomain())


def _polygon_run(ctx):
    escaper = StraightRunEscaper([(0.5, 0.0), (0.5, 1.0)])
    return playthrough(escaper, _CampingPursuer(), dt=0.01, t_max=2.0, epsilon=0.5,
                       domain=PolygonDomain(ctx))


# outcome, escape_time, separation, touch count, then SHA-256 digests of the
# little-endian float64 bytes of times, escaper points, pursuer points and
# the (t, separation) touches, all as computed before the engine's per-step
# path became scalar
PINNED = {
    "disk r=4.4": (
        lambda ctx: _disk_run(4.4, 0.01),
        "escaped", 1.5931000000000002, 0.17814566995437975, 1,
        "ba1f58ea43d3a5ee618ee2e5c0767e424e674a9480fe3bc6be6aa9787d3fed5b",
        "dea8fcb814e3687383b854a24306f1f3112da7a004a917d158eb80ce6d315a8c",
        "400f37907cdca4d539ca202f905221534caf33dbdfccfef46c06731b68b042de",
        "b49d075ce2f4754da1450249d992837c7f323e1655d321e52fc8efb8f7f444a2",
    ),
    "disk r=4.8": (
        lambda ctx: _disk_run(4.8, 5 * 4.8 * 1e-4),
        "no_escape_by_tmax", None, None, 1242,
        "c3438ffac7ace05c91efd7024076fb2af88f68749014fd8f01ab2b546dda708c",
        "0414d9de8d51608635f479330efdd650e130179af96ecfc2c61aedc117515150",
        "fcd74937e08c9ef38490ec8122348af8401ecfd73be34fa5002fe19939ecff23",
        "748b2ee9468f5d982f8dfea79a83b592845cab5c95cff254e98a6d0347877bee",
    ),
    "halfplane hold": (
        lambda ctx: _halfplane_run(math.pi / 2, 1.0),
        "no_escape_by_tmax", None, None, 2001,
        "757e898983a4ab610dad56743ea7eecc809b2a3bfe19f20e926108b08987a21b",
        "194bfad2b563407940d4934af243cd145501a9de4f51fe58e2f3c80397c549cb",
        "b9727a5cfd988b97c79c80583533ed5b1061d40b34efac470a3e6465cddf631c",
        "844f9d7be7a6df85caadf190d6da362ef15cf9d85aa32bd4b79e0c68df5ea18c",
    ),
    "halfplane escape": (
        lambda ctx: _halfplane_run(math.pi / 4, 0.9),
        "escaped", 1.0, 0.5142135623730856, 1,
        "be069d7d0c6719743ada6aed42916e2798ddc937afaa56bd63d766dcca764331",
        "00070dfe47014e7088836a8c38df2c244d5e39f2c7753ac503c01bdd04f4bd74",
        "6bf50a895e02ac71298a81a7ca77266d240cc540bd22d58fd3bd5dcd43394522",
        "1cf4836dbd0c31307aa8bba70cb5973ded489fd3409ab46450ff859365aa7aa9",
    ),
    "wedge escape": (
        lambda ctx: _wedge_run(1.2),
        "escaped", 0.708, 0.15040000000001008, 1,
        "c755eecd092e1e33c3fa9f93596c99c0289015776d5452195e37de40eebd3ef6",
        "2d1453f4f24cc2623a9638a6539bde3e150f1d5c1324a0b0be82628d55250faa",
        "6ddd6fd8e5aaaf2f5aa8d50889f1a4f67defe5c8bdc4f4c76dbe7ad153a3b4b5",
        "92a4430b5adbfa91996e341f8d621a51baf80e03912e0114a08ab68a098270eb",
    ),
    "wedge hold": (
        lambda ctx: _wedge_run(1.5),
        "no_escape_by_tmax", None, None, 2293,
        "757e898983a4ab610dad56743ea7eecc809b2a3bfe19f20e926108b08987a21b",
        "3e00339ceab97008967fd95fa6ecefa1ebe904a21edc91971d2a9e5b35796d06",
        "b1bc0951208368fcbfcfb2143f2c3430b28c2e35bb6e4433cd2d3929754c7e06",
        "22bb10de4b40ef3a7d7744252d7d78c1dd40d4b27ca312735fd6bda3a99ee9f5",
    ),
    "oblivious disk pursuer": (
        lambda ctx: _oblivious_disk_run(),
        "no_escape_by_tmax", None, None, 1110,
        "757e898983a4ab610dad56743ea7eecc809b2a3bfe19f20e926108b08987a21b",
        "14c5cb9523e7d3c705f0dfb5279a165b843bffd1839f6b0b1afdfbebcfdfebb5",
        "d74ed7439e2f0480f4de334ff9307de74590292300068447f97bee2087383ec3",
        "791885f105be012f743309a3f6b47779c58afeadd1dfbd94f84ca438f08414eb",
    ),
    "polygon square": (
        _polygon_run,
        "escaped", 1.0, 2.0, 2,
        "2d97dd2c2d94ed0b5ce6c902c0dcf2a41753796593ae2859ab77b0ba0c647bc3",
        "e1160aa4ce3cc730c9665f19208a703e99deed117014b7e02914184a70279021",
        "cc8358fa161f9f188f870a7f331dd7c438a9921d5e0727c46b0eb7de4173fa70",
        "2cdf4361ce601a616226667a64d33430f5dd379bdae8da4c2186d77a4bfc8541",
    ),
}


@pytest.mark.parametrize("case", list(PINNED))
def test_trajectories_are_pinned(case, square_moat):
    run, outcome, escape_time, separation, n_touches, *digests = PINNED[case]
    pt = run(square_moat)
    assert pt.outcome == outcome
    assert pt.escape_time == escape_time
    assert pt.separation == separation
    assert len(pt.touches) == n_touches
    touches = np.array(pt.touches, dtype=float).reshape(-1, 2)
    got = [_sha256(pt.escaper_path.times), _sha256(pt.escaper_path.points),
           _sha256(pt.pursuer_path.points), _sha256(touches)]
    assert got == digests
    assert np.array_equal(pt.pursuer_path.times, pt.escaper_path.times)


class _Recorder(Strategy):
    """Logs what each call sees, then defers to the wrapped strategy."""

    def __init__(self, inner):
        self.inner = inner
        self.start_point = getattr(inner, "start_point", None)
        self.max_speed = inner.max_speed
        self.log = []

    def reset(self):
        self.inner.reset()
        self.log = []

    def position(self, opp, t):
        self.log.append((t, len(opp), opp.last, tuple(opp.points[-1]),
                         float(opp.times[-1])))
        return self.inner.position(opp, t)


def _is_float_pair(point):
    return type(point) is tuple and len(point) == 2 and all(type(c) is float for c in point)


class TestViewContract:
    def test_prefix_lengths_and_last(self):
        dt = 0.01
        esc, purs = disk_strategies(4.8)
        esc, purs = _Recorder(esc), _Recorder(purs)
        pt = playthrough(esc, purs, dt=dt, t_max=1.0, epsilon=0.05, domain=DiskDomain())
        n = len(pt.escaper_path)
        assert n == 101
        # escaper at step k: the pursuer's k + 1 points, up to k*dt
        assert len(esc.log) == n - 1
        for k, (t, length, last, tail, t_last) in enumerate(esc.log):
            assert t == (k + 1) * dt
            assert length == k + 1
            assert _is_float_pair(last)
            assert last == tail == tuple(pt.pursuer_path.points[k])
            assert t_last == pt.escaper_path.times[k]
        # pursuer: its start sees the escaper's start, step k the k + 2
        # points up to (k+1)*dt
        assert len(purs.log) == n
        for j, (t, length, last, tail, t_last) in enumerate(purs.log):
            assert length == j + 1
            assert _is_float_pair(last)
            assert last == tail == tuple(pt.escaper_path.points[j])
            assert t_last == t

    def test_oblivious_wrapper_sees_shorter_views(self):
        dt, delta = 0.01, 0.05
        esc, purs = disk_strategies(4.8)
        inner = _Recorder(purs)
        outer = _Recorder(obliviate(inner, delta))
        assert isinstance(outer.inner, ObliviousStrategy)
        pt = playthrough(esc, outer, dt=dt, t_max=0.5, epsilon=0.05, domain=DiskDomain())
        times = pt.escaper_path.times
        assert [length for _, length, *_ in outer.log] == list(range(1, len(times) + 1))
        # the inner strategy gets its own truncated views, shifted back by delta
        shifted = [0.0] + [t - delta for t, *_ in outer.log if t > delta]
        assert len(inner.log) == len(shifted)
        for (t, length, last, tail, t_last), s in zip(inner.log, shifted):
            assert t == s
            assert length == int(np.searchsorted(times, s + 1e-15, side="right"))
            assert length < len(times)
            assert _is_float_pair(last)
            assert last == tail == tuple(pt.escaper_path.points[length - 1])
            assert t_last <= s + 1e-15

    def test_last_of_hand_built_view_is_a_float_pair(self):
        pts = np.array([[1, 2], [3, 4]])  # an integer array still gives floats
        last = PathView(np.arange(2.0), pts, 2).last
        assert _is_float_pair(last) and last == (3.0, 4.0)

    def test_obliviated_disk_escaper_progress_is_chunk_free(self):
        # the inner escaper of an obliviated one sees its view jump three
        # points a call; the progress it sums must equal, to the bit, that
        # of an escaper fed one point a call
        dt, n = 0.01, 33
        times = np.arange(n + 1) * dt
        # the pursuer holds still, antipodal to the escaper's start, while
        # both escapers reach their APLO phase; then it turns three steps one
        # way and three back, across the angle wrap at pi, and ends on a
        # forward turn.  Each turn exceeds pi, so a chunk summed as one angle
        # would lose a revolution.
        turns = np.tile([1.0, 1.0, 1.0, -1.0, -1.0, -1.0], 5)[:27]
        steps = np.concatenate([np.zeros(6), turns * (1.1 + 0.03 * np.sin(np.arange(27))), [0.0]])
        ang = math.pi + np.cumsum(steps)
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        single = DiskAploEscaper(4.4)
        for k in range(n):
            single.position(PathView(times, pts, k + 1), times[k + 1])
        inner = DiskAploEscaper(4.4)
        jumpy = obliviate(inner, 0.5 * dt)
        lengths = []
        for k in range(0, n + 1, 3):
            jumpy.position(PathView(times, pts, k + 1), times[k])
            lengths.append(inner._last_idx)
        assert inner._phase == single._phase == 2
        assert inner._exit is single._exit is None
        assert set(np.diff(lengths[2:])) == {3}
        assert inner._last_idx == single._last_idx == n
        assert inner._last_angle == single._last_angle
        assert inner._progress == single._progress > 3.0

    def test_last_of_empty_view_raises(self):
        view = PathView(np.zeros(3), np.ones((3, 2)), 0)
        with pytest.raises(IndexError):
            view.last


class _ClassifyingDisk(DiskDomain):
    """Counts its membership calls and records every point they classify."""

    def __init__(self):
        self.calls, self.points = 0, []

    def contains(self, p):
        self.calls += 1
        self.points.append(tuple(float(c) for c in p))
        return super().contains(p)

    def contains_many(self, pts):
        self.calls += 1
        self.points += [tuple(p) for p in pts.tolist()]
        return super().contains_many(pts)


class _Outputs(Strategy):
    """Logs the positions a strategy returns, then hands them on."""

    def __init__(self, inner):
        self.inner = inner
        self.start_point = getattr(inner, "start_point", None)
        self.max_speed = inner.max_speed
        self.out = []

    def reset(self):
        self.inner.reset()
        self.out = []

    def position(self, opp, t):
        p = self.inner.position(opp, t)
        self.out.append(tuple(float(c) for c in p))
        return p


@pytest.mark.parametrize("block", [3, sim._BLOCK])
@pytest.mark.parametrize("r", [4.4, 4.8], ids=["escape", "hold"])
def test_each_position_is_classified_once(r, block, monkeypatch):
    # a block of steps is one membership call, and every position a
    # strategy returns, including those past the end of the run, is
    # classified exactly once
    monkeypatch.setattr(sim, "_BLOCK", block)
    domain = _ClassifyingDisk()
    esc, purs = (_Outputs(s) for s in disk_strategies(r))
    pt = playthrough(esc, purs, dt=0.01, t_max=3.0, epsilon=0.01, domain=domain)
    steps = len(pt.escaper_path) - 1
    assert steps > 100
    assert domain.calls <= math.ceil(steps / block) + 2
    start = tuple(pt.escaper_path.points[0])
    assert Counter(domain.points) == Counter([start] + esc.out + purs.out)
    assert len(esc.out) - steps in range(block)
    assert esc.out[:steps] == [tuple(p) for p in pt.escaper_path.points[1:].tolist()]
    assert purs.out[: steps + 1] == [tuple(p) for p in pt.pursuer_path.points.tolist()]


class _Walker(Strategy):
    """Holds at ``a`` until t = 0.05, then runs at unit speed towards ``b``."""

    def __init__(self, a, b):
        self.start_point = np.asarray(a, dtype=float)
        self._b = np.asarray(b, dtype=float)

    def position(self, opp, t):
        d = self._b - self.start_point
        w = min(1.0, max(0.0, t - 0.05) / float(np.hypot(*d)))
        return self.start_point + w * d


class TestPolygonDomain:
    @pytest.mark.parametrize("model,escaper,pursuer,who", [
        # the escaper crosses the bottom edge
        ("moat", _Walker((0.5, 0.5), (0.5, -0.5)), _CampingPursuer(), "escaper"),
        # a moat pursuer steps off the boundary into the square
        ("moat", StraightRunEscaper([(0.5, 0.5)]), _Walker((0.5, 0.0), (0.5, 0.5)), "pursuer"),
        # an exterior pursuer steps out of the hull (the square itself)
        ("exterior", StraightRunEscaper([(0.5, 0.5)]), _Walker((0.5, 0.0), (0.5, -0.5)),
         "pursuer"),
    ], ids=["escaper-out", "moat-pursuer-in", "exterior-pursuer-beyond-hull"])
    def test_leaving_raises_domain_violation(self, square, model, escaper, pursuer, who):
        # containment is checked before the step is measured, so the metric's
        # own OutsideDomain never preempts the contract error
        domain = PolygonDomain(MetricContext(square, PursuerModel(model)))
        with pytest.raises(DomainViolation, match=f"{who} left its domain"):
            playthrough(escaper, pursuer, dt=0.01, t_max=1.0, epsilon=10.0, domain=domain)

    @pytest.mark.parametrize("model", list(PursuerModel))
    def test_predicates_apply_the_polygons_tol(self, l_shape, model):
        # the L-shape at 1/8 scale has diagonal 0.35, so polygon.tol is 3.5e-10,
        # below the domain's 1e-9 speed-check tol: a point 2 polygon.tol below
        # the bottom edge is rejected, one polygon.tol / 2 below is not (in
        # the exterior model the hull test measures that distance too)
        poly = validate_polygon(l_shape.vertices / 8)
        domain = PolygonDomain(MetricContext(poly, model))
        tol = domain.tol
        assert tol > 2 * poly.tol
        far, near = (0.125, -2 * poly.tol), (0.125, -poly.tol / 2)
        assert not domain.contains(far)[0] and domain.contains(near)[0]
        assert not domain.contains(far)[1] and domain.contains(near)[1]

    @pytest.mark.parametrize("model", list(PursuerModel))
    def test_pursuer_contains_matches_metric(self, l_shape, model):
        # a grid around the L-shape, plus points just within and just beyond
        # tol of each edge's midpoint and of each vertex
        ctx = MetricContext(l_shape, model)
        domain = PolygonDomain(ctx)
        poly = ctx.polygon
        xs = np.linspace(-0.5, 2.5, 25)
        pts = [np.array((x, y)) for x in xs for y in xs]
        mids = poly.vertices + poly._edge_vecs / 2
        normals = np.column_stack([poly._edge_vecs[:, 1], -poly._edge_vecs[:, 0]])
        normals /= np.hypot(*normals.T)[:, None]
        for base in (*mids, *poly.vertices):
            for nrm in normals:
                for k in (-1.001, -0.999, 0.999, 1.001):
                    pts.append(base + k * poly.tol * nrm)
        anchor = poly.vertices[0]
        verdicts = set()
        for p in pts:
            accepted = domain.contains(p)[1]
            try:
                ctx.pursuer_distance(p, anchor)
                measured = True
            except OutsideDomain:
                measured = False
            assert accepted == measured, p
            verdicts.add(accepted)
        assert verdicts == {True, False}


def _result(run):
    """What a playthrough gave, to compare bit for bit: the outcome, escape
    time, separation, exit point, times, both point arrays and touches, or
    the class and message of the error it raised."""
    try:
        pt = run()
    except Exception as exc:
        return type(exc), str(exc)
    exit_point = None if pt.exit_point is None else pt.exit_point.tobytes()
    return (pt.outcome, pt.escape_time, pt.separation, exit_point, pt.touches,
            pt.escaper_path.times.tobytes(), pt.pursuer_path.times.tobytes(),
            pt.escaper_path.points.tobytes(), pt.pursuer_path.points.tobytes())


class _Script(Strategy):
    """Follows ``path(t)``; as an escaper it starts at ``path(0)``."""

    def __init__(self, path, max_speed=1.0):
        self.path = path
        self.start_point = np.asarray(path(0.0), dtype=float)
        self.max_speed = max_speed

    def position(self, opp, t):
        return self.path(t)


class _Camp(Strategy):
    """A pursuer holding ``point``."""

    def __init__(self, point):
        self.point = point

    def position(self, opp, t):
        return self.point


class _RaisesOnOutsideEscaper(Strategy):
    """A disk pursuer at (1, 0) that cannot place itself against an
    escaper outside the disk."""

    def position(self, opp, t):
        if math.hypot(*opp.last) > 1.0 + 1e-9:
            raise ValueError("escaper outside the disk")
        return (1.0, 0.0)


def _disk(r, dt):
    epsilon = 5 * 4.8 * dt if r > 4.603 else 0.01
    return lambda engine: engine(*disk_strategies(r), dt=dt, t_max=2.0, epsilon=epsilon,
                                 domain=DiskDomain())


def _polygon(points, model, escaper, pursuer, epsilon=10.0):
    """A run at dt 0.01 to t = 1.5; ``escaper`` and ``pursuer`` make the
    strategies."""
    def run(engine):
        domain = PolygonDomain(MetricContext(validate_polygon(points), model))
        return engine(escaper(), pursuer(), dt=0.01, t_max=1.5, epsilon=epsilon, domain=domain)
    return run


class _Cheater(StraightRunEscaper):
    def position(self, opp, t):
        return np.array([1.0 - 5.0 * t, 0.0])


class _Leaver(StraightRunEscaper):
    def position(self, opp, t):
        return np.array([-0.5, 0.0]) if t > 0.2 else self.start_point


class _Still(Strategy):
    start_point = np.array([0.0, 0.0])

    def position(self, opp, t):
        return self.start_point


class _Mirror(Strategy):
    max_speed = 6.0

    def position(self, opp, t):
        h = opp.points[-1]
        a = math.atan2(h[1], h[0])
        return np.array([math.cos(a), math.sin(a)])


def _mirror_run(engine):
    return engine(DiskAploEscaper(6.0), _Mirror(), dt=0.01, t_max=200.0, epsilon=0.05,
                  domain=DiskDomain())


# every case runs under the block engine and under the scalar reference
ENGINE_CASES = {
    **{f"disk r={r} dt={dt}": _disk(r, dt) for r in (3.0, 4.4, 4.8) for dt in (1e-4, 1e-3)},
    "halfplane hold": lambda engine: engine(*halfplane_scenario(math.pi / 2, 1.0)[1:], dt=1e-3,
                                            t_max=3.0, epsilon=0.05,
                                            domain=HalfplaneDomain(math.pi / 2)),
    "halfplane escape": lambda engine: engine(*halfplane_scenario(math.pi / 4, 0.9)[1:],
                                              dt=1e-3, t_max=3.0, epsilon=0.05,
                                              domain=HalfplaneDomain(math.pi / 4)),
    **{f"wedge r={r}": (lambda r: lambda engine: engine(
        StraightRunEscaper([(math.cos(math.pi / 4), 0.0), (math.cos(math.pi / 4),
                                                           math.sin(math.pi / 4))]),
        WedgeProjectionPursuer(math.pi / 4, r), dt=1e-3, t_max=3.0, epsilon=0.05,
        domain=WedgeDomain(math.pi / 4)))(r) for r in (1.2, 1.5)},
    "oblivious disk pursuer": lambda engine: engine(
        disk_strategies(4.8)[0], obliviate(disk_strategies(4.8)[1], 0.05 / 9.6), dt=1e-3,
        t_max=3.0, epsilon=0.075, domain=DiskDomain()),
    # the square, moat model: a walk out through the top edge, and a run
    # along the bottom edge that touches every step
    "square walk out": _polygon(SQUARE, PursuerModel.MOAT,
                                lambda: _Walker((0.5, 0.5), (0.5, 1.0)),
                                lambda: _Camp((0.5, 0.0)), epsilon=0.5),
    "square run along an edge": _polygon(SQUARE, PursuerModel.MOAT,
                                         lambda: StraightRunEscaper([(0.2, 0.0), (0.9, 0.0)]),
                                         lambda: _Camp((0.0, 0.0))),
    # the L, exterior model: runs to the reflex vertex and to a convex one,
    # against a pursuer camping in the notch
    "L to the reflex vertex": _polygon(L_SHAPE, PursuerModel.EXTERIOR,
                                       lambda: StraightRunEscaper([(0.5, 0.5), (1.0, 1.0)]),
                                       lambda: _Camp((1.5, 1.5))),
    "L to a convex vertex": _polygon(L_SHAPE, PursuerModel.EXTERIOR,
                                     lambda: StraightRunEscaper([(1.0, 0.5), (2.0, 1.0)]),
                                     lambda: _Camp((1.5, 1.5)), epsilon=0.6),
    # the violation tests of this file and of test_exact
    "escaper speed": lambda engine: engine(
        _Cheater([(1, 0), (0, 0)]), HalfplaneProjectionPursuer(math.pi / 2, 1.0), dt=0.01,
        t_max=1.0, epsilon=0.05, domain=HalfplaneDomain(math.pi / 2)),
    "escaper domain": lambda engine: engine(
        _Leaver([(1, 0)]), WedgeProjectionPursuer(math.pi / 4, 2.0), dt=0.1, t_max=1.0,
        epsilon=0.05, domain=WedgeDomain(math.pi / 4)),
    "square escaper out": _polygon(SQUARE, PursuerModel.MOAT,
                                   lambda: _Walker((0.5, 0.5), (0.5, -0.5)),
                                   lambda: _Camp((0.5, 0.0))),
    "square moat pursuer in": _polygon(SQUARE, PursuerModel.MOAT,
                                       lambda: StraightRunEscaper([(0.5, 0.5)]),
                                       lambda: _Walker((0.5, 0.0), (0.5, 0.5))),
    "square exterior pursuer beyond hull": _polygon(
        SQUARE, PursuerModel.EXTERIOR, lambda: StraightRunEscaper([(0.5, 0.5)]),
        lambda: _Walker((0.5, 0.0), (0.5, -0.5))),
    "still escaper": lambda engine: engine(_Still(), disk_strategies(4.8)[1], dt=0.01,
                                           t_max=1.0, epsilon=0.05, domain=DiskDomain()),
    "circling cap": _mirror_run,
    # a pursuer that fails on the escaper point the reference never hands it
    "pursuer fails past an escaper violation": lambda engine: engine(
        _Script(lambda t: (0.5, 0.0) if t < 0.035 else (1.02, 0.0)),
        _RaisesOnOutsideEscaper(), dt=0.01, t_max=1.0, epsilon=0.05, domain=DiskDomain()),
}


@functools.cache
def _reference_result(case):
    return _result(lambda: ENGINE_CASES[case](reference_playthrough))


@pytest.mark.parametrize("case", list(ENGINE_CASES))
def test_block_engine_matches_reference(case):
    assert _result(lambda: ENGINE_CASES[case](playthrough)) == _reference_result(case)


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("case", [c for c in ENGINE_CASES if "dt=0.0001" not in c])
def test_small_blocks_match_reference(case, block, monkeypatch):
    monkeypatch.setattr(sim, "_BLOCK", block)
    assert _result(lambda: ENGINE_CASES[case](playthrough)) == _reference_result(case)


def _after(at, before, after):
    return lambda t: after if t > at else before


def _raise_after(at, position):
    def path(t):
        if t > at:
            raise RuntimeError(f"strategy failed at t={t:.4g}")
        return position
    return path


def _event_at(kind, step, dt=1e-3):
    """A disk run whose first event, of ``kind``, comes at ``step`` (at
    t = (step + 1) dt); every kind but the escape first fails on that step."""
    at = (step + 0.5) * dt
    escaper, pursuer, epsilon = _Script(lambda t: (0.5, 0.0)), _Camp((1.0, 0.0)), 0.05
    if kind == "escaper domain":
        escaper = _Script(_after(at, (0.5, 0.0), (1.5, 0.0)))
    elif kind == "escaper speed":
        escaper = _Script(_after(at, (0.5, 0.0), (0.5, 0.5)))
    elif kind == "escaper raises":
        escaper = _Script(_raise_after(at, (0.5, 0.0)))
    elif kind == "pursuer domain":
        pursuer = _Script(_after(at, (1.0, 0.0), (0.9, 0.0)))
    elif kind == "pursuer speed":
        pursuer = _Script(_after(at, (1.0, 0.0), (0.0, 1.0)))
    elif kind == "pursuer raises":
        pursuer = _Script(_raise_after(at, (1.0, 0.0)))
    else:  # the escaper reaches the circle at unit speed, far from the pursuer
        escaper, pursuer = StraightRunEscaper([(1 - (step + 1) * dt, 0.0), (1.0, 0.0)]), _Camp((-1.0, 0.0))
    return lambda engine: engine(escaper, pursuer, dt=dt, t_max=(step + 3) * dt,
                                 epsilon=epsilon, domain=DiskDomain())


EVENT_KINDS = ["escaper domain", "escaper speed", "escaper raises", "pursuer domain",
               "pursuer speed", "pursuer raises", "escape"]


@pytest.mark.parametrize("block", [3, sim._BLOCK])
@pytest.mark.parametrize("where", ["first step", "last step"])
@pytest.mark.parametrize("kind", EVENT_KINDS)
def test_event_at_a_block_edge(kind, where, block, monkeypatch):
    # the second block's first or last step
    monkeypatch.setattr(sim, "_BLOCK", block)
    step = block if where == "first step" else 2 * block - 1
    run = _event_at(kind, step)
    want = _result(lambda: run(reference_playthrough))
    assert _result(lambda: run(playthrough)) == want
    if kind == "escape":
        assert want[:2] == ("escaped", (step + 1) * 1e-3)
    else:
        assert want[1].endswith(f"t={(step + 1) * 1e-3:.4g}")


def _escaper_event(kind, step, dt=1e-3):
    at = (step + 0.5) * dt
    if kind == "escape":  # reaches the circle at unit speed
        return StraightRunEscaper([(1 - (step + 1) * dt, 0.0), (1.0, 0.0)])
    if kind == "raises":
        return _Script(_raise_after(at, (0.5, 0.0)))
    return _Script(_after(at, (0.5, 0.0), (1.5, 0.0) if kind == "domain" else (0.5, 0.5)))


def _pursuer_event(kind, step, dt=1e-3):
    at = (step + 0.5) * dt
    if kind == "raises":
        return _Script(_raise_after(at, (-1.0, 0.0)))
    return _Script(_after(at, (-1.0, 0.0), (-0.9, 0.0) if kind == "domain" else (0.0, 1.0)))


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("pursuer_kind", ["domain", "speed", "raises"])
@pytest.mark.parametrize("escaper_kind", ["domain", "speed", "raises", "escape"])
def test_two_events_in_one_block(escaper_kind, pursuer_kind, offset):
    # an escaper event at step 20 and a pursuer event one step before, on
    # the same step or one step after: the first in step order wins
    def run(engine):
        return engine(_escaper_event(escaper_kind, 20), _pursuer_event(pursuer_kind, 20 + offset),
                      dt=1e-3, t_max=0.05, epsilon=0.05, domain=DiskDomain())

    want = _result(lambda: run(reference_playthrough))
    assert _result(lambda: run(playthrough)) == want
    # within a step the exit test comes after the pursuer's checks
    pursuer_first = offset < 0 or (offset == 0 and escaper_kind == "escape")
    who, kind = ("pursuer", pursuer_kind) if pursuer_first else ("escaper", escaper_kind)
    if kind == "escape":
        assert want[0] == "escaped"
    else:
        expected = {"domain": f"{who} left its domain", "speed": f"{who} moved",
                    "raises": "strategy failed"}[kind]
        assert expected in want[1]


def test_pursuer_failing_on_an_escaper_it_never_sees_is_a_domain_violation():
    # the block runs the pursuer on the escaper's point outside the disk; the
    # reference engine stops at that point first
    got = _result(lambda: ENGINE_CASES["pursuer fails past an escaper violation"](playthrough))
    assert got == (DomainViolation, "escaper left its domain at t=0.04")


def _aplo_paths(seed, n, r, times, axial_offset=0.0):
    # random APLO parameters against random admissible progress, as the
    # contract suites draw them
    rng = np.random.default_rng(seed)
    for _ in range(n):
        if axial_offset:
            frac = rng.uniform(0.02, 0.98)
            h0, axial = rng.normal(size=2), rng.normal(size=2) + axial_offset
        else:
            ang = rng.uniform(0, 2 * np.pi)
            frac = rng.uniform(0.05, 0.95)
            h0, axial = None, (math.cos(ang), math.sin(ang))
        du, dv = math.cos(frac * math.pi / 2), math.sin(frac * math.pi / 2)
        params = AploParams(h0=rng.normal(size=2) if h0 is None else h0, axial=axial,
                            r_prime=r, du=du, dv=dv)
        steps = rng.uniform(-r, r, len(times) - 1) * np.diff(times)
        progress = np.concatenate([[0.0], np.cumsum(steps)])
        yield MotionPath(times, [aplo_position(params, D, t) for D, t in zip(progress, times)],
                         1.0, "escaper")


def _speed_cases():
    """(path, domain, pairs, seed) of every validate_speed call in the tests
    and the disk demo, and of the playthroughs compared with the reference
    engine above."""
    disk = DiskDomain()
    times = np.linspace(0, 0.5, 26)
    yield MotionPath(np.arange(5) * 0.1, np.tile([0.3, 0.2], (5, 1)), 1.0, "escaper"), disk, 200, 0
    yield MotionPath(times, np.column_stack([times - 0.9, np.zeros_like(times)]), 1.0,
                     "escaper"), disk, 200, 0
    times = np.linspace(0, 0.4, 21)
    yield MotionPath(times, np.column_stack([1.5 * times - 0.9, np.zeros_like(times)]), 1.0,
                     "escaper"), disk, 200, 0
    for path in _aplo_paths(77, 10, 3.0, np.linspace(0, 2.0, 101)):
        yield path, disk, 50, 1
    for path in _aplo_paths(7, 100, 3.5, np.linspace(0.0, 1.5, 76), axial_offset=1e-3):
        yield path, disk, 60, 5
    for case in ("disk r=4.4 dt=0.001", "disk r=4.8 dt=0.001", "halfplane hold",
                 "halfplane escape", "wedge r=1.2", "wedge r=1.5", "square walk out",
                 "square run along an edge", "L to the reflex vertex", "L to a convex vertex"):
        domains = []

        def engine(*args, domain, **kwargs):
            domains.append(domain)
            return playthrough(*args, domain=domain, **kwargs)

        pt = ENGINE_CASES[case](engine)
        for path in (pt.escaper_path, pt.pursuer_path):
            yield path, domains[0], 100, 0


def test_validate_speed_matches_scalar_loop():
    cases = list(_speed_cases())
    verdicts = set()
    for path, domain, pairs, seed in cases:
        got = validate_speed(path, domain, pairs=pairs, seed=seed)
        want = reference_validate_speed(path, domain, pairs=pairs, seed=seed)
        assert got.passed == want.passed
        assert got.limit == want.limit
        # the array forms' np.hypot, np.arctan2 and hand-written dot may
        # move a coordinate, an angle or a radius by an ulp; a distance that
        # subtracts two of them moves by up to 2 ulps of pi (the largest of
        # them), and a speed by that over the shortest span
        slack = 4 * np.spacing(math.pi) / np.diff(path.times).min()
        assert got.max_consecutive == pytest.approx(want.max_consecutive, rel=0, abs=slack)
        assert got.max_pairwise == pytest.approx(want.max_pairwise, rel=0, abs=slack)
        verdicts.add(got.passed)
    assert verdicts == {True, False}


class TestArguments:
    """``playthrough`` refuses a bad dt, t_max or epsilon with a ValueError
    naming it, as the CLI flags do."""

    @staticmethod
    def _run(**kwargs):
        args = dict(dt=1e-3, t_max=0.1, epsilon=0.05)
        args.update(kwargs)
        return playthrough(*disk_strategies(4.4), domain=DiskDomain(), **args)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_dt_must_be_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            self._run(dt=dt)

    @pytest.mark.parametrize("t_max", [-1.0, math.nan, math.inf])
    def test_t_max_must_be_zero_or_more_and_finite(self, t_max):
        with pytest.raises(ValueError, match="^t_max must be zero or more and finite"):
            self._run(t_max=t_max)
        assert len(self._run(t_max=0.0).escaper_path) == 1

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        with pytest.raises(ValueError, match="^epsilon must be positive and finite"):
            self._run(epsilon=epsilon)


def _domains():
    square = validate_polygon(SQUARE)
    return [DiskDomain(), HalfplaneDomain(math.pi / 3), WedgeDomain(math.pi / 5),
            PolygonDomain(MetricContext(square, PursuerModel.MOAT)),
            PolygonDomain(MetricContext(square, PursuerModel.EXTERIOR))]


class TestArrayForms:
    """Each array form decides as the scalar form it stands for."""

    def test_disk_membership_near_the_circle(self):
        # radii within a few ulps and within 3e-12 of 1 +- tol, where
        # np.hypot and math.hypot can fall on different sides
        domain = DiskDomain()
        pts = np.array([p for radius in (1 + domain.tol, 1 - domain.tol, 1.0)
                        for p in _points_near_circle(radius, seed=4, angles=40)])
        want = np.array([domain.contains(p) for p in pts.tolist()]).T
        assert np.array_equal(domain.contains_many(pts), want)
        assert want[0].any() and not want[0].all() and want[1].any() and not want[1].all()

    @pytest.mark.parametrize("domain", _domains(), ids=lambda d: type(d).__name__)
    def test_membership(self, domain):
        rng = np.random.default_rng(5)
        pts = np.vstack([rng.uniform(-1.5, 1.5, (400, 2)),
                         [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (0.0, 1.0), (0.5, 1e-12)]])
        want = np.array([domain.contains(p) for p in pts.tolist()]).T
        assert np.array_equal(domain.contains_many(pts), want)

    @pytest.mark.parametrize("domain", _domains(), ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("side", ["escaper", "pursuer"])
    def test_speed_decisions_at_the_limit(self, domain, side):
        # a limit equal to the scalar distance, and one ulp below it: the
        # scalar form says within, then over; the array form must agree
        # even where its last bit differs
        rng = np.random.default_rng(6)
        ang = rng.uniform(-math.pi, math.pi, 300)
        if isinstance(domain, PolygonDomain):
            poly = domain.ctx.polygon
            pts = (poly.boundary_point(rng.uniform(0, poly.perimeter, 300)) if side == "pursuer"
                   else rng.uniform(0, 1, (300, 2)))
        elif side == "pursuer" and isinstance(domain, DiskDomain):
            pts = np.column_stack([np.cos(ang), np.sin(ang)])
        else:
            pts = rng.uniform(-2, 2, (300, 2))
        i, j = np.arange(299), np.arange(1, 300)
        one = getattr(domain, f"{side}_distance")
        many = getattr(domain, f"{side}_distances")
        d = np.array([one(p, q) for p, q in zip(pts[i].tolist(), pts[j].tolist())])
        assert np.allclose(many(pts, i, j), d, rtol=0, atol=1e-14)
        for limit in (d, np.nextafter(d, -np.inf)):
            assert np.array_equal(sim._exceeds(many(pts, i, j), limit, one, pts, i, j), d > limit)
