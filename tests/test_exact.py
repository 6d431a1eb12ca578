import math

import numpy as np
import pytest

from escape_ratio.errors import InvalidAngle, StrategyFailure
from escape_ratio.exact import (
    AploParams,
    DiskAploEscaper,
    DiskArcChasingPursuer,
    aplo_position,
    disk_phi_star,
    disk_r_star,
    disk_strategies,
    halfplane_pursuer_position,
    halfplane_r_star,
    square_r_star,
    triangle_r_star,
    wedge_pursuer_position,
    wedge_r_star,
    _wrap_angle,
)


class TestClosedForms:
    def test_wedge_values(self):
        assert wedge_r_star(math.pi) == 1.0
        assert wedge_r_star(math.pi / 3) == pytest.approx(2.0, abs=1e-12)
        assert wedge_r_star(math.pi / 2) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_wedge_monotone_decreasing(self):
        angles = np.linspace(0.05, math.pi, 60)
        values = [wedge_r_star(a) for a in angles]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_wedge_rejects_bad_angle(self):
        with pytest.raises(InvalidAngle):
            wedge_r_star(0.0)
        with pytest.raises(InvalidAngle):
            wedge_r_star(3.5)

    def test_halfplane_cases(self):
        assert halfplane_r_star((0, 1), (0, 0)) == 1.0
        assert halfplane_r_star((1, 1), (0, 0)) == pytest.approx(math.sqrt(2))
        assert halfplane_r_star((math.sqrt(3), 1), (0, 0)) == pytest.approx(2.0)

    def test_halfplane_boundary_escaper(self):
        assert halfplane_r_star((0, 0), (0, 0)) == 1.0
        assert halfplane_r_star((1, 0), (0, 0)) == math.inf

    def test_disk_phi_star(self):
        phi = disk_phi_star()
        assert phi == pytest.approx(0.430 * math.pi, abs=2e-3)
        assert abs(math.tan(phi) - math.pi - phi) < 1e-9

    def test_disk_r_star(self):
        assert disk_r_star() == pytest.approx(4.6033, abs=1e-4)
        assert disk_r_star() == 1.0 / math.cos(disk_phi_star())

    def test_triangle_and_square(self):
        assert triangle_r_star() == pytest.approx(7.40492, abs=1e-4)
        assert square_r_star() == pytest.approx(5.78857, abs=1e-4)
        assert triangle_r_star() > square_r_star() > disk_r_star()


class TestAplo:
    def test_start_condition(self):
        p = AploParams(h0=(1.0, 2.0), axial=(0.0, 1.0), r_prime=3.0, du=0.5, dv=0.5)
        assert aplo_position(p, 0.0, 0.0) == pytest.approx((1.0, 2.0))

    def test_direct_substitution(self):
        p = AploParams(h0=(0.0, 0.0), axial=(1.0, 0.0), r_prime=4.0, du=0.6, dv=0.8)
        assert aplo_position(p, 4.0, 1.0) == pytest.approx((0.6, 0.8))

    def test_full_speed_clockwise_pursuer_stays_within_unit_speed(self):
        # clockwise full-speed progress D(t) = -r*t gives escaper velocity
        # du*axial - (r/r')*dv*lateral of magnitude at most 1
        p = AploParams(h0=(0.0, 0.0), axial=(1.0, 0.0), r_prime=4.0, du=0.6, dv=0.8)
        a = aplo_position(p, 0.0, 0.0)
        b = aplo_position(p, -4.0, 1.0)
        assert np.hypot(*(b - a)) <= 1.0 + 1e-12

    def test_memoryless_positions_equal_for_equal_progress(self):
        p = AploParams(h0=(0.0, 0.0), axial=(0.6, 0.8), r_prime=2.0, du=0.3, dv=0.9)
        # two different pursuer histories with the same net progress at t
        assert aplo_position(p, 1.25, 2.0) == pytest.approx(
            aplo_position(p, 1.25, 2.0)
        )

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            AploParams(h0=(0, 0), axial=(1, 0), r_prime=2.0, du=0.9, dv=0.9)
        with pytest.raises(ValueError):
            AploParams(h0=(0, 0), axial=(0, 0), r_prime=2.0, du=0.5, dv=0.5)
        with pytest.raises(ValueError):
            AploParams(h0=(0, 0), axial=(1, 0), r_prime=2.0, du=-0.5, dv=0.5)

    def test_lateral_is_ccw_quarter_turn(self):
        p = AploParams(h0=(0, 0), axial=(1.0, 0.0), r_prime=1.0, du=0.5, dv=0.5)
        assert p.lateral == pytest.approx((0.0, 1.0))


class TestProjectionPositions:
    def test_wedge_formula(self):
        assert wedge_pursuer_position(math.pi / 4, (1, 0.5)) == pytest.approx((0.5, 0.5))

    def test_halfplane_right_angle(self):
        assert halfplane_pursuer_position(math.pi / 2, (3.0, 7.0)) == pytest.approx((0.0, 7.0))

    def test_wedge_collocation_on_boundary(self):
        theta = math.pi / 6
        h = (2.0, 2.0 * math.tan(theta))
        assert wedge_pursuer_position(theta, h) == pytest.approx(h)


class TestDiskStrategies:
    def test_pursuer_gate_freezes_on_still_escaper(self):
        from escape_ratio.sim import DiskDomain, PathView, playthrough

        class StillEscaper:
            start_point = np.array([0.0, 0.0])
            max_speed = 1.0

            def reset(self):
                pass

            def position(self, opp, t):
                return self.start_point

        pursuer = DiskArcChasingPursuer(4.8)
        pt = playthrough(StillEscaper(), pursuer, dt=0.01, t_max=1.0,
                         epsilon=0.05, domain=DiskDomain())
        assert np.allclose(pt.pursuer_path.points, pt.pursuer_path.points[0])

    def test_strategy_pair_types(self):
        esc, purs = disk_strategies(4.4)
        assert isinstance(esc, DiskAploEscaper)
        assert isinstance(purs, DiskArcChasingPursuer)
        assert esc.dv < 1.0 and esc.du > 0.0

    def test_supercritical_parameters_stay_admissible(self):
        esc = DiskAploEscaper(6.0)
        assert math.hypot(esc.du, esc.dv) <= 1.0 + 1e-12

    def test_circling_cap_raises_against_matching_pursuer(self):
        # a pursuer that exactly mirrors the escaper's angular motion never
        # becomes antipodal; the circling phase must fail loudly
        from escape_ratio.sim import DiskDomain, playthrough

        class MirrorPursuer:
            max_speed = 6.0

            def reset(self):
                pass

            def position(self, opp, t):
                h = opp.points[-1]
                a = math.atan2(h[1], h[0])
                return np.array([math.cos(a), math.sin(a)])

        esc = DiskAploEscaper(6.0)
        with pytest.raises(StrategyFailure):
            playthrough(esc, MirrorPursuer(), dt=0.01, t_max=200.0,
                        epsilon=0.05, domain=DiskDomain())


class _NpHypotArcChaser(DiskArcChasingPursuer):
    """The pursuer's step with its gate on ``np.hypot`` every step, as the
    disk trajectories were pinned with.  It keeps its own state, so only the
    constants (r, gate radius, tie band) come from the class it checks."""

    def reset(self):
        self._angle = None
        self._last_t = 0.0
        self._direction = 1.0

    def position(self, opp, t):
        h = opp.last
        target = math.atan2(h[1], h[0])
        if self._angle is None:
            self._angle = target
            self._last_t = t
            return (math.cos(self._angle), math.sin(self._angle))
        dt = t - self._last_t
        self._last_t = t
        rad = float(np.hypot(h[0], h[1]))
        if rad > self.gate_radius * (1.0 + 1e-9):
            delta = _wrap_angle(target - self._angle)
            if abs(delta) >= math.pi - self.TIE_BAND:
                self._angle += self._direction * self.r * dt
            else:
                self._direction = 1.0 if delta >= 0 else -1.0
                step = min(self.r * dt, abs(delta))
                self._angle = target if step >= abs(delta) else self._angle + self._direction * step
        return (math.cos(self._angle), math.sin(self._angle))


def _np_hypot_exit(x, y):
    # the escaper's exit test on np.hypot, as the trajectories were pinned
    # with: (position, whether it exits)
    rad = float(np.hypot(x, y))
    if rad >= 1.0:
        return (x / rad, y / rad), True
    return (x, y), False


def _points_near_circle(radius, seed, angles=300):
    """Points at radius offsets of 0, +-1 and +-2 ulps, +-1e-13, +-1e-12 and
    +-2e-12 and random ones within 3e-12, each on the x-axis (where the hypot
    is exact) and at random angles (where the two hypots can differ by an ulp)."""
    rng = np.random.default_rng(seed)
    radii = [radius]
    for sign in (1.0, -1.0):
        step = radius
        for _ in range(2):
            step = float(np.nextafter(step, sign * math.inf))
            radii.append(step)
        radii += [radius + sign * d for d in (1e-13, 1e-12, 2e-12)]
    radii += list(radius + rng.uniform(-3e-12, 3e-12, 20))
    for rad in radii:
        yield rad, 0.0
        for a in rng.uniform(-math.pi, math.pi, angles):
            yield rad * math.cos(a), rad * math.sin(a)


def _bits(point):
    return np.asarray(point, dtype=float).tobytes()


class TestHypotBand:
    """The strategies compare ``math.hypot`` with a threshold and fall back to
    ``np.hypot`` within a band around it: every branch and output must match
    the ``np.hypot`` bodies to the bit."""

    def test_pursuer_gate_matches_np_hypot(self):
        from escape_ratio.sim import PathView

        times = np.array([0.0, 0.01])
        new, ref = DiskArcChasingPursuer(4.8), _NpHypotArcChaser(4.8)
        points = list(_points_near_circle(ref.gate_radius * (1.0 + 1e-9), seed=1))
        moved = 0
        for x, y in points:
            # the first call fixes the angle a little off the escaper's, so
            # the step shows whether the gate let the pursuer run
            a = math.atan2(y, x) + 0.3
            pts = np.array([[0.5 * math.cos(a), 0.5 * math.sin(a)], [x, y]])
            outs = []
            for strat in (new, ref):
                strat.reset()
                strat.position(PathView(times, pts, 1), 0.0)
                outs.append(strat.position(PathView(times, pts, 2), 0.01))
            assert _bits(outs[0]) == _bits(outs[1]), (x, y)
            assert (new._s, new._direction) == (ref._angle, ref._direction)
            moved += ref._angle != math.atan2(pts[0, 1], pts[0, 0])
        assert 0 < moved < len(points)  # both branches taken

    def test_pursuer_tie_band_matches_oracle(self):
        # the escaper steps to near the pursuer's antipode, on either side of
        # it, after the pursuer committed to either direction: within the tie
        # band the pursuer keeps running the committed way, outside it chases
        from escape_ratio.sim import PathView

        times = np.array([0.0, 0.01, 0.02])
        new, ref = DiskArcChasingPursuer(4.8), _NpHypotArcChaser(4.8)
        band = ref.TIE_BAND
        offsets = [0.0, 1e-12, 0.01, 0.03, band - 1e-9, band, band + 1e-9, 0.07, 0.1]
        rng = np.random.default_rng(3)
        branches = set()
        for a in [math.pi, -math.pi / 2, *rng.uniform(-math.pi, math.pi, 20)]:
            for direction in (1.0, -1.0):
                b = a + direction * 0.01  # within reach: commits to direction
                for off in offsets:
                    for side in (1.0, -1.0):
                        c = b + math.pi + side * off
                        pts = np.array([[0.5 * math.cos(a), 0.5 * math.sin(a)],
                                        [0.9 * math.cos(b), 0.9 * math.sin(b)],
                                        [0.9 * math.cos(c), 0.9 * math.sin(c)]])
                        outs = []
                        for strat in (new, ref):
                            strat.reset()
                            strat.position(PathView(times, pts, 1), 0.0)
                            strat.position(PathView(times, pts, 2), 0.01)
                            assert strat._direction == direction
                            outs.append(strat.position(PathView(times, pts, 3), 0.02))
                        assert _bits(outs[0]) == _bits(outs[1]), (a, direction, off, side)
                        assert (new._s, new._direction) == (ref._angle, ref._direction)
                        gap = _wrap_angle(math.atan2(pts[2, 1], pts[2, 0])
                                          - math.atan2(pts[1, 1], pts[1, 0]))
                        tie = abs(gap) >= math.pi - band
                        assert ref._direction == direction or not tie
                        branches.add((direction, side, tie))
        # ties and chases on both sides of the antipode, both ways committed
        assert len(branches) == 8

    def test_escaper_exit_matches_np_hypot(self):
        from escape_ratio.sim import PathView

        view = PathView(np.array([0.0, 0.01]), np.array([[-1.0, 0.0], [-1.0, 0.0]]), 2)
        esc = DiskAploEscaper(4.4)
        points = list(_points_near_circle(1.0, seed=2))
        exits = 0
        for x, y in points:
            # an APLO frame with zero axial and lateral steps places the
            # escaper exactly at its origin (x, y)
            esc.reset()
            esc._phase, esc._frame, esc._t2, esc._last_idx = 2, (x, y, 0.0, 0.0, 0.0, 0.0), 0.01, 2
            got = esc.position(view, 0.01)
            want, exit = _np_hypot_exit(x, y)
            assert _bits(got) == _bits(want), (x, y)
            assert (esc._exit is not None) == exit
            exits += esc._exit is not None
        assert 0 < exits < len(points)  # both branches taken
