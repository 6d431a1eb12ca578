"""Closed-form critical speed ratios and executable strategies for canonical
shapes: wedge, halfplane, disk (plus the triangle and square constants), and
the APLO escaper strategy evaluator.

APLO ("axially progressing laterally opposing") moves the escaper forward
along a fixed axis at constant speed while the lateral offset mirrors the
pursuer's net signed boundary progress, scaled by 1/r'.  It is the building
block of the optimal escaper strategies for the disk, triangle and square.

The strategy protocol ``Strategy`` lives here (``sim`` re-exports it), with
``_Tracker``, the one step rule every pursuer chases its target with.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidAngle, StrategyFailure

# SignedProgress: net counterclockwise boundary distance D(z, t) covered by
# the pursuer since t=0.  Admissible progress functions satisfy
# |D(t2) - D(t1)| <= r * |t2 - t1|.
SignedProgress = float


def wedge_r_star(full_angle: float) -> float:
    """Critical speed ratio 1/sin(full_angle/2) for a wedge of the given opening."""
    if not (0.0 < full_angle <= math.pi + 1e-12):
        raise InvalidAngle("wedge opening must lie in (0, pi]")
    return 1.0 / math.sin(min(full_angle, math.pi) / 2.0)


def halfplane_r_star(s_h, s_z) -> float:
    """Critical speed ratio for prescribed starts in the upper halfplane.

    The boundary is the x-axis; ``s_z`` must lie on it and ``s_h`` weakly
    above.  Returns 1/sin(theta) where theta is the angle at s_z between s_h
    and the foot of the perpendicular from s_h.  An escaper starting on the
    boundary yields 1 when collocated with the pursuer and infinity otherwise.
    """
    xh, yh = float(s_h[0]), float(s_h[1])
    xz, yz = float(s_z[0]), float(s_z[1])
    if abs(yz) > 1e-12:
        raise InvalidAngle("pursuer start must lie on the boundary line y=0")
    if yh < -1e-12:
        raise InvalidAngle("escaper start must lie in the upper halfplane")
    if yh <= 1e-12:
        return 1.0 if abs(xh - xz) <= 1e-12 else math.inf
    foot = (xh, 0.0)
    if abs(foot[0] - xz) <= 1e-12:
        theta = math.pi / 2.0
    else:
        theta = math.atan2(yh, abs(xh - xz))
    theta = min(theta, math.pi / 2.0)
    return 1.0 / math.sin(theta)


@functools.cache
def disk_phi_star() -> float:
    """Unique root of tan(phi) = pi + phi in (0, pi/2).

    Bisection on the guaranteed bracket (1.2, 1.5) followed by Newton polish;
    residual below 1e-12.  Computed once: every call returns the same float.
    """
    f = lambda p: math.tan(p) - math.pi - p
    lo, hi = 1.2, 1.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    phi = 0.5 * (lo + hi)
    for _ in range(5):
        fp = 1.0 / math.cos(phi) ** 2 - 1.0
        phi -= f(phi) / fp
    return phi


def disk_r_star() -> float:
    """Critical speed ratio 1/cos(phi*) for the unit disk, about 4.603."""
    return 1.0 / math.cos(disk_phi_star())


def triangle_r_star() -> float:
    """Critical speed ratio (3 + sqrt(5)) * sqrt(2) for the unit equilateral triangle."""
    return (3.0 + math.sqrt(5.0)) * math.sqrt(2.0)


def square_r_star() -> float:
    """Critical speed ratio sqrt(5/2 * (7 + sqrt(41))) for the unit square."""
    return math.sqrt(2.5 * (7.0 + math.sqrt(41.0)))


# ---------------------------------------------------------------------------
# APLO
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AploParams:
    """Parameters of an APLO escaper strategy.

    ``axial`` is normalized on construction; ``lateral`` is its counter-
    clockwise quarter-turn.  ``r_prime`` must upper-bound the actual pursuer
    speed (caller contract), and sqrt(du^2 + dv^2) <= 1 keeps the escaper
    within unit speed.
    """

    h0: np.ndarray
    axial: np.ndarray
    r_prime: float
    du: float
    dv: float
    lateral: np.ndarray = field(init=False)

    def __post_init__(self):
        h0 = np.asarray(self.h0, dtype=float)
        axial = np.asarray(self.axial, dtype=float)
        norm = float(np.hypot(*axial))
        if norm <= 0:
            raise ValueError("axial direction must be nonzero")
        axial = axial / norm
        if not (self.du > 0 and self.dv > 0):
            raise ValueError("axial and lateral speeds must be positive")
        if math.hypot(self.du, self.dv) > 1.0 + 1e-9:
            raise ValueError("sqrt(du^2 + dv^2) must not exceed 1")
        if self.r_prime <= 0:
            raise ValueError("r_prime must be positive")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "axial", axial)
        object.__setattr__(self, "lateral", np.array([-axial[1], axial[0]]))


def aplo_position(params: AploParams, progress: SignedProgress, t: float) -> np.ndarray:
    """Escaper position h0 + t*du*axial + (D/r')*dv*lateral.

    Memory-less: depends only on t and the pursuer's net signed progress at t.
    """
    return (
        params.h0
        + (t * params.du) * params.axial
        + (progress / params.r_prime * params.dv) * params.lateral
    )


# ---------------------------------------------------------------------------
# projection pursuer positions (wedge / halfplane proofs)
# ---------------------------------------------------------------------------


def wedge_pursuer_position(half_angle: float, h) -> np.ndarray:
    """Boundary point (|y|/tan(theta), y) tracking an escaper at h in the wedge.

    Frame: apex at the origin, bisector along +x, boundary rays at +/-theta.
    Collocates with the escaper whenever h is on the boundary.
    """
    if not (0.0 < half_angle <= math.pi / 2.0 + 1e-12):
        raise InvalidAngle("wedge half-angle must lie in (0, pi/2]")
    y = float(h[1])
    t = math.tan(min(half_angle, math.pi / 2.0))
    x = abs(y) / t if t != 0 and math.isfinite(t) else 0.0
    if half_angle >= math.pi / 2.0 - 1e-15:
        x = 0.0
    return np.array([x, y])


def halfplane_pursuer_position(theta: float, h) -> np.ndarray:
    """Boundary point (y/tan(theta), y) for the halfplane game G(s_h, s_z).

    Frame of the halfplane analysis: pursuer starts at the origin, escaper at
    (1, 0), and the boundary is the line through the origin at angle theta.
    """
    if not (0.0 < theta <= math.pi / 2.0 + 1e-12):
        raise InvalidAngle("theta must lie in (0, pi/2]")
    y = float(h[1])
    if theta >= math.pi / 2.0 - 1e-15:
        return np.array([0.0, y])
    return np.array([y / math.tan(theta), y])


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


class Strategy:
    """Callback contract: position(opponent prefix up to time t, t) -> point.

    The prefix is a ``sim.PathView``; ``opponent.last`` is its most recent
    point as an (x, y) tuple of Python floats, a plain attribute read
    without slicing ``opponent.points``.  The view is valid only during the
    call.  A point returned is any 2-sequence of floats (a tuple or an
    array); the engine copies it.  No-lookahead: the output at t may depend only on the prefix.
    Escaper strategies additionally declare ``start_point`` (independent of the
    opponent).  ``max_speed`` is the licensed speed of the paths the strategy
    emits.  Instances may keep incremental state between the engine's monotone
    queries; ``reset`` returns them to the initial state.  The engine runs
    the strategies a block of steps ahead of its checks, so it may query a
    strategy up to one block past the end of a run (an escape, a violation
    or another strategy's exception) and discards those positions, and any
    exception raised there.
    """

    start_point: np.ndarray | None = None
    max_speed: float = 1.0

    def reset(self):
        pass

    def position(self, opponent, t: float) -> np.ndarray:
        raise NotImplementedError


class _Tracker(Strategy):
    """A pursuer chasing a target boundary coordinate ``_s`` at speed ``r``.

    The first call lands on the target.  After that a step lands on it when
    it is within reach r*dt, else takes a full step toward it; ``gap``, when
    given, is the signed distance to cover in place of ``target - _s``.
    """

    def __init__(self, r: float):
        self.r = float(r)
        self.max_speed = float(r)
        self.reset()

    def reset(self):
        self._s = None
        self._last_t = 0.0

    def _track(self, target: float, t: float, gap: float | None = None) -> float:
        s = self._s
        if s is not None:
            reach = self.r * (t - self._last_t)
            d = target - s if gap is None else gap
            target = target if abs(d) <= reach else s + math.copysign(reach, d)
        self._s = target
        self._last_t = t
        return target


# ---------------------------------------------------------------------------
# disk strategies
# ---------------------------------------------------------------------------


_TAU = 2.0 * math.pi


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % _TAU - math.pi


# libm's hypot and CPython's math.hypot (3.10+) are each within 1 ulp of the
# true value, so on the O(1) radii of the disk game they differ by under
# 1e-15.  Outside this band around a threshold both compare the same way.
# A disk strategy's branch on a radius compares ``math.hypot`` with its
# threshold, and takes ``np.hypot`` (the arithmetic the disk trajectories are
# pinned to) when the two could fall on different sides of it.
_HYPOT_BAND = 1e-12


class DiskAploEscaper(Strategy):
    """Escaper strategy for the unit disk at speed ratio r.

    Starts on the inner circle of radius 1/r*, circles at full speed until
    antipodal to the pursuer, then runs the APLO strategy with dv = r/r* to
    the boundary and holds the exit point.  Above the critical ratio the
    lateral gain is capped so the parameters stay admissible; the strategy can
    then no longer hold antipodal opposition, which is exactly why it loses.
    """

    ANTIPODAL_TOL = 1e-6  # floor; the dt grid widens the detection band
    MAX_REVOLUTIONS = 10

    def __init__(self, r: float):
        self.r = float(r)
        self.r_star = disk_r_star()
        self.inner_radius = 1.0 / self.r_star
        self.start_point = np.array([self.inner_radius, 0.0])
        nominal = min(self.r, 0.95 * self.r_star)
        self.dv = nominal / self.r_star
        self.du = math.sqrt(max(0.0, 1.0 - self.dv**2))
        # the circling phase's constants, each the product a step would form
        self._max_angle = 2.0 * math.pi * self.MAX_REVOLUTIONS
        self._band_gain = 2.0 * (self.r_star + self.r)
        self.reset()

    def reset(self):
        self._phase = 1
        self._t_prev = 0.0  # the previous phase-1 query's time
        self._frame = None  # APLO h0, axial, lateral as six floats
        self._t2 = 0.0
        self._progress = 0.0
        self._last_idx = 0
        self._last_angle = 0.0
        self._exit = None

    def _consume_progress(self, opp):
        # each arc starts at the angle the previous one ended at
        a0 = self._last_angle
        for p in opp.points[self._last_idx :]:
            a1 = math.atan2(p[1], p[0])
            self._progress += _wrap_angle(a1 - a0)  # unit circle: arc == angle
            a0 = a1
        self._last_angle = a0
        self._last_idx = opp._len

    def position(self, opp, t: float):
        n = opp._len
        if t == 0.0 or n == 0:
            return self.start_point
        if self._exit is not None:
            return self._exit
        if self._phase == 1:
            zx, zy = opp.last
            phi_e = t * self.r_star  # unit speed on the inner circle
            if phi_e > self._max_angle:
                raise StrategyFailure(
                    "antipodal opposition never reached; pursuer faster than assumed?"
                )
            phi_z = math.atan2(zy, zx)
            gap = abs((phi_e - phi_z + math.pi) % _TAU - math.pi)  # _wrap_angle inline
            band = max(self.ANTIPODAL_TOL, self._band_gain * (t - self._t_prev))
            self._t_prev = t
            if abs(gap - math.pi) <= band:
                s_h = self.inner_radius * np.array([math.cos(phi_e), math.sin(phi_e)])
                axial = s_h - np.array([math.cos(phi_z), math.sin(phi_z)])
                aplo = AploParams(
                    h0=s_h, axial=axial, r_prime=self.r, du=self.du, dv=self.dv
                )
                self._frame = tuple(
                    float(c) for c in (*aplo.h0, *aplo.axial, *aplo.lateral)
                )
                self._t2 = t
                self._progress = 0.0
                self._last_idx = n
                self._last_angle = phi_z
                self._phase = 2
                return s_h
            ir = self.inner_radius
            return (ir * math.cos(phi_e), ir * math.sin(phi_e))
        if n == self._last_idx + 1:
            # the view grew by one point, as at every engine step:
            # _consume_progress on its newest point, in the same operations
            zx, zy = opp.last
            a1 = math.atan2(zy, zx)
            self._progress += (a1 - self._last_angle + math.pi) % _TAU - math.pi
            self._last_angle = a1
            self._last_idx = n
        else:
            self._consume_progress(opp)
        # aplo_position elementwise, in its order: (h0 + c1*axial) + c2*lateral
        h0x, h0y, ax, ay, lx, ly = self._frame
        c1 = (t - self._t2) * self.du
        c2 = self._progress / self.r * self.dv
        x = h0x + c1 * ax + c2 * lx
        y = h0y + c1 * ay + c2 * ly
        rad = math.hypot(x, y)
        if abs(rad - 1.0) <= _HYPOT_BAND:
            rad = float(np.hypot(x, y))
        if rad >= 1.0:
            rad = float(np.hypot(x, y))  # the exit point is stored
            self._exit = (x / rad, y / rad)
            return self._exit
        return (x, y)


class DiskArcChasingPursuer(_Tracker):
    """Pursuer strategy for the unit disk at speed ratio r.

    Starts at the boundary point nearest the escaper; whenever the escaper is
    strictly outside the inner circle of radius 1/r*, runs at full speed along
    the shorter arc toward the escaper's closest boundary point, otherwise
    stands still.  Near-antipodal ties keep the previous running direction so
    grid-scale dithering cannot freeze the chase.  The tracked coordinate is
    the pursuer's angle.
    """

    TIE_BAND = 0.05  # radians around the antipode treated as a tie

    def __init__(self, r: float):
        self.gate_radius = 1.0 / disk_r_star()
        # the gate and the tie threshold, each the value a step would form
        self._gate = self.gate_radius * (1.0 + 1e-9)
        self._tie = math.pi - self.TIE_BAND
        super().__init__(r)

    def reset(self):
        super().reset()
        self._direction = 1.0

    def position(self, opp, t: float):
        hx, hy = opp.last
        target, s, gap = math.atan2(hy, hx), self._s, None
        if s is not None:
            gate = self._gate
            rad = math.hypot(hx, hy)
            if abs(rad - gate) <= _HYPOT_BAND:
                rad = float(np.hypot(hx, hy))
            if rad > gate:
                gap = (target - s + math.pi) % _TAU - math.pi  # _wrap_angle inline
                if abs(gap) >= self._tie:
                    # near-antipodal tie: keep running the committed way
                    gap = self._direction * math.inf
                else:
                    self._direction = 1.0 if gap >= 0 else -1.0
            else:
                target = s  # escaper within the gate: stand still
        s = self._track(target, t, gap)
        return (math.cos(s), math.sin(s))


def disk_strategies(r: float):
    """(escaper, pursuer) strategy pair for the unit-disk game at ratio r."""
    if r <= 0:
        raise ValueError("speed ratio must be positive")
    return DiskAploEscaper(r), DiskArcChasingPursuer(r)
