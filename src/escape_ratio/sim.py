"""Continuous-game playthrough engine.

Continuous time is realized on a uniform dt grid with the escaper moving
first within each step: the escaper's position at (k+1)dt is computed from
the pursuer prefix [0, k*dt], then the pursuer's position at (k+1)dt from the
escaper prefix [0, (k+1)dt].  This staggered information flow is what makes
the playthrough unique, and the obliviate transform below makes any strategy
explicitly delay-tolerant.

Strategies are stateful objects queried monotonically in time; the engine
resets them at the start of every playthrough, so a strategy instance can be
reused across runs.  ``Strategy`` (re-exported here) and ``_Tracker``, the
one step rule every pursuer chases its target with, live in ``exact``.

A domain asks three questions, each in a scalar and an array form, and has
a tolerance: ``contains(p)`` answers which domains p lies in as a pair of
bools (escaper, pursuer), ``escaper_distance(p, q)`` and
``pursuer_distance(p, q)`` measure a step in each, and ``tol`` is the slack
of the speed checks.  The array forms ``contains_many(pts)`` (a [2, N] bool
array) and ``escaper_distances(pts, i, j)`` and
``pursuer_distances(pts, i, j)`` (the N pairs ``pts[i]``, ``pts[j]``) answer
for many points at once.  ``PolygonDomain`` measures both forms with
``MetricContext.pair_distances``, so they agree to the bit in either pursuer
model.  The escaper wins at the boundary, where the two domains meet, so an
escaper position is an exit exactly when ``contains`` puts it in the
pursuer's domain too.

The engine checks a playthrough in blocks of ``_BLOCK`` steps.  It runs both
strategies for a block, storing each position as it goes, then makes one
``contains_many`` call over the block's positions and one distance call per
mover over the steps whose endpoints passed membership, and finds the
block's first event in the order a step checks: the escaper's domain and
speed, the pursuer's domain and speed, then the exit test.  The strategies
never read the checks, so this is the same run as checking each step before
the next: the prefix up to the first event is kept, a strategy exception
raised after it is discarded, and one raised before it is re-raised.  Each
position is classified once.  Touch separations, the exit point and the
figures of a violation's message are computed with the scalar forms, at the
steps that need them only.

The array forms only decide.  The analytic domains' scalar and array
forms can differ in the last bit (``math.hypot`` and ``np.hypot``,
``math.atan2`` and ``np.arctan2``, the halfplane's ``@`` and a hand-written
dot), so a step length within ``_HYPOT_BAND`` (1e-12) of its limit, or a
disk radius that close to 1 +- tol, is decided again by the scalar form;
outside that band both take the same branch.  The analytic domains
(disk, halfplane, wedge) and strategies work on the two coordinates as
Python floats, since a strategy handles single 2-vectors; a view's ``last``
hands the newest point over as an (x, y) float tuple.  Every value that is
stored keeps the numpy arithmetic the trajectories were pinned with
(``np.hypot``, ``@``).  A strategy's branch on a radius (the disk pursuer's
gate, the disk escaper's exit test) compares ``math.hypot`` with its
threshold and calls ``np.hypot`` only within the same band of it, so
trajectories do not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainViolation, SpeedViolation
from .exact import (
    _HYPOT_BAND,
    Strategy,
    _Tracker,
    halfplane_pursuer_position,
    wedge_pursuer_position,
)
from .geometry import MetricContext

# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


class _AnalyticDomain:
    """Tolerance and Euclidean escaper metric of the disk, halfplane and wedge."""

    tol = 1e-9

    def escaper_distance(self, p, q):
        return math.hypot(q[0] - p[0], q[1] - p[1])  # speed checks only

    def escaper_distances(self, pts, i, j):
        d = pts[j] - pts[i]
        return np.hypot(d[:, 0], d[:, 1])


class DiskDomain(_AnalyticDomain):
    """Unit disk escaper domain; pursuer on the unit circle (moat)."""

    def _at_radius(self, r):
        # the domains of a point at radius r; elementwise on arrays
        tol = self.tol
        return r <= 1.0 + tol, abs(r - 1.0) <= tol

    def contains(self, p):
        return self._at_radius(math.hypot(p[0], p[1]))

    def contains_many(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        member = np.stack(self._at_radius(r))
        # both tests compare the radius with 1 +- tol: near it, the scalar
        # form's math.hypot decides
        for k in np.flatnonzero(np.abs(np.abs(r - 1.0) - self.tol) <= _HYPOT_BAND).tolist():
            member[:, k] = self.contains(pts[k].tolist())
        return member

    def pursuer_distance(self, p, q):
        a = math.atan2(p[1], p[0])
        b = math.atan2(q[1], q[0])
        d = abs(a - b) % (2.0 * math.pi)
        return min(d, 2.0 * math.pi - d)

    def pursuer_distances(self, pts, i, j):
        a = np.arctan2(pts[:, 1], pts[:, 0])  # one angle per point
        d = np.abs(a[i] - a[j]) % (2.0 * math.pi)
        return np.minimum(d, 2.0 * math.pi - d)


class HalfplaneDomain(_AnalyticDomain):
    """Halfplane game frame: boundary through the origin at angle theta.

    The escaper domain is the side containing (1, 0); the pursuer walks the
    boundary line.  theta = pi/2 makes the boundary the y-axis.
    """

    def __init__(self, theta: float):
        self.theta = float(theta)
        self.direction = np.array([math.cos(self.theta), math.sin(self.theta)])
        # unit normal pointing to the escaper's side, the one holding (1, 0)
        nx, ny = math.sin(self.theta), -math.cos(self.theta)
        self._nx, self._ny = (-nx, -ny) if nx < 0 else (nx, ny)

    def _offset(self, p):
        # predicates only: a hand-written dot may differ from ``@`` in the last bit
        return p[0] * self._nx + p[1] * self._ny

    def contains(self, p):
        # elementwise, so ``p`` may be a point or the [2, N] array pts.T
        offset, tol = self._offset(p), self.tol
        return offset >= -tol, abs(offset) <= tol

    def contains_many(self, pts):
        return np.stack(self.contains(pts.T))

    def pursuer_distance(self, p, q):
        # separations are stored, so keep the ``@`` arithmetic
        return abs(float(self.direction @ p) - float(self.direction @ q))

    def pursuer_distances(self, pts, i, j):
        # decisions only, hand-written like ``_offset``
        d = self.direction
        s = pts[:, 0] * d[0] + pts[:, 1] * d[1]
        return np.abs(s[i] - s[j])


class WedgeDomain(_AnalyticDomain):
    """Wedge with apex at the origin, bisector +x, half-angle theta."""

    def __init__(self, half_angle: float):
        self.half_angle = float(half_angle)
        self._tan = math.tan(self.half_angle)

    def _boundary_param(self, p):
        # signed arc coordinate along the V-shaped boundary through the apex;
        # it is stored and steers the pursuer, so it keeps np.hypot
        r = float(np.hypot(p[0], p[1]))
        return r if p[1] >= 0 else -r

    def contains(self, p):
        # elementwise, so ``p`` may be a point or the [2, N] array pts.T
        x, y, tol = p[0], p[1], self.tol
        return (abs(y) <= x * self._tan + tol,
                (x >= -tol) & (abs(abs(y) - x * self._tan) <= tol * (1 + x)))

    def contains_many(self, pts):
        return np.stack(self.contains(pts.T))

    def pursuer_distance(self, p, q):
        return abs(self._boundary_param(p) - self._boundary_param(q))

    def pursuer_distances(self, pts, i, j):
        r = np.hypot(pts[:, 0], pts[:, 1])
        s = np.where(pts[:, 1] >= 0, r, -r)
        return np.abs(s[i] - s[j])


class PolygonDomain:
    """Polygon escaper domain backed by a MetricContext.  ``contains`` is
    one column of ``MetricContext.contains``, the test the metrics guard
    their own inputs with, so a point the metrics reject is never accepted;
    it applies ``polygon.tol`` (1e-9 times the bounding-box diagonal).  The
    speed checks' ``tol`` is 1e-9 * max(1, that diagonal): the two differ
    for a polygon whose diagonal is below 1.

    The array forms are one ``MetricContext.contains`` call and one
    ``MetricContext.pair_distances`` row, of which each scalar metric is one
    pair, so both forms share their arithmetic in either pursuer model.
    Unlike the scalar metrics they do not test their points for membership:
    the engine measures only steps whose endpoints passed ``contains_many``."""

    def __init__(self, ctx: MetricContext):
        self.ctx = ctx
        lo, hi = ctx.polygon.bbox
        self.tol = 1e-9 * max(1.0, float(np.hypot(*(hi - lo))))

    def contains(self, p):
        escaper, pursuer = self.ctx.contains([p])[:, 0]
        return bool(escaper), bool(pursuer)

    def contains_many(self, pts):
        return self.ctx.contains(pts)

    def escaper_distance(self, p, q):
        return self.ctx.interior_distance(p, q)

    def escaper_distances(self, pts, i, j):
        return self.ctx.pair_distances(pts, i, j, (0,))[0]

    def pursuer_distance(self, p, q):
        return self.ctx.pursuer_distance(p, q)

    def pursuer_distances(self, pts, i, j):
        return self.ctx.pair_distances(pts, i, j, (1,))[0]


# ---------------------------------------------------------------------------
# motion paths
# ---------------------------------------------------------------------------


@dataclass
class MotionPath:
    """Timed piecewise-linear trajectory with a maximum-speed contract."""

    times: np.ndarray
    points: np.ndarray
    max_speed: float
    domain_tag: str  # "escaper" | "pursuer"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if len(self.times) != len(self.points):
            raise ValueError("times and points must have equal length")
        if len(self.times) and (self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0)):
            raise ValueError("times must strictly increase from 0")

    def __len__(self):
        return len(self.times)


class PathView:
    """Read-only growing prefix of a trajectory handed to strategies.

    ``playthrough`` builds one view per side for a whole run and advances its
    length before each strategy call, so a view is valid only during the call
    it was passed to: kept past it, it shows a later prefix.  Arrays taken
    from it (``points``, ``times``) and the ``last`` tuple do not change.  No
    strategy can look ahead this way: no strategy code runs between the
    engine's advance and the call.
    """

    __slots__ = ("_times", "_points", "_len", "_last")

    def __init__(self, times: np.ndarray, points: np.ndarray, length: int):
        self._times = times
        self._points = points
        self._len = length
        self._last = None  # the engine's newest (x, y), set with ``_len``

    @property
    def times(self) -> np.ndarray:
        return self._times[: self._len]

    @property
    def points(self) -> np.ndarray:
        return self._points[: self._len]

    @property
    def last(self) -> tuple:
        """The most recent point, ``points[-1]``, as an (x, y) tuple of floats."""
        if self._last is not None:
            return self._last
        if self._len == 0:
            raise IndexError("empty path view")
        p = self._points[self._len - 1]
        return (float(p[0]), float(p[1]))

    def __len__(self):
        return self._len


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


class StraightRunEscaper(Strategy):
    """Runs at full speed through a fixed sequence of waypoints, then holds."""

    def __init__(self, waypoints):
        pts = [np.asarray(w, dtype=float) for w in waypoints]
        self.start_point = pts[0]
        self._legs = []
        t0 = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            L = float(np.hypot(*(b - a)))
            self._legs.append((t0, t0 + L, a, b))
            t0 += L
        self._t_end = t0
        self._final = pts[-1]

    def position(self, opponent, t):
        if t >= self._t_end:
            return self._final
        for t0, t1, a, b in self._legs:
            if t <= t1:
                w = (t - t0) / (t1 - t0)
                v = 1 - w
                return (v * a[0] + w * b[0], v * a[1] + w * b[1])
        return self._final


class HalfplaneProjectionPursuer(_Tracker):
    """Tracks the boundary projection of the escaper in the halfplane frame.

    The target point at height y is (y/tan(theta), y) on the boundary line;
    the chase is clamped to the licensed speed.
    """

    def __init__(self, theta: float, r: float):
        self.theta = float(theta)
        self.domain = HalfplaneDomain(theta)
        super().__init__(r)

    def _target_s(self, h) -> float:
        # steers the chase, so it keeps the ``@`` arithmetic
        z = halfplane_pursuer_position(self.theta, h)
        return float(z @ self.domain.direction)

    def position(self, opponent, t):
        s = self._track(self._target_s(opponent.last), t)
        d = self.domain.direction
        return (s * d[0], s * d[1])


class WedgeProjectionPursuer(_Tracker):
    """Tracks (|y|/tan(theta), y) on the wedge boundary, speed-clamped."""

    def __init__(self, half_angle: float, r: float):
        self.half_angle = float(half_angle)
        self.domain = WedgeDomain(half_angle)
        super().__init__(r)

    def position(self, opponent, t):
        z = wedge_pursuer_position(self.half_angle, opponent.last)
        s = self._track(self.domain._boundary_param(z), t)
        r = abs(s)
        sign = 1.0 if s >= 0 else -1.0
        return (r * math.cos(self.half_angle), r * (sign * math.sin(self.half_angle)))


class ObliviousStrategy(Strategy):
    """Delay wrapper: holds the start for delta time, then mimics the inner
    strategy fed with the opponent prefix shifted back by delta."""

    def __init__(self, inner: Strategy, delta: float):
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.inner = inner
        self.delta = float(delta)
        self.start_point = getattr(inner, "start_point", None)
        self.max_speed = getattr(inner, "max_speed", 1.0)
        self.reset()

    def reset(self):
        self.inner.reset()
        self._start = None

    def position(self, opponent, t):
        if self._start is None:
            self._start = np.asarray(
                self.inner.position(_truncate(opponent, 0.0), 0.0), dtype=float
            )
        if t <= self.delta:
            return self._start
        shifted = t - self.delta
        return self.inner.position(_truncate(opponent, shifted), shifted)


def _truncate(view: PathView, t: float) -> PathView:
    ts = view.times
    n = int(np.searchsorted(ts, t + 1e-15, side="right"))
    return PathView(view._times, view._points, max(n, 1 if len(view) else 0))


def obliviate(strategy: Strategy, delta: float) -> Strategy:
    """Make a strategy delta-oblivious by delaying its information by delta."""
    return ObliviousStrategy(strategy, delta)


# ---------------------------------------------------------------------------
# playthrough
# ---------------------------------------------------------------------------


@dataclass
class Playthrough:
    escaper_path: MotionPath
    pursuer_path: MotionPath
    outcome: str  # "escaped" | "no_escape_by_tmax"
    epsilon: float
    dt: float
    escape_time: Optional[float] = None
    exit_point: Optional[np.ndarray] = None
    separation: Optional[float] = None
    touches: list = field(default_factory=list)  # (t, separation) at exits

    @property
    def escaped(self) -> bool:
        return self.outcome == "escaped"

    def to_document(self) -> dict:
        doc = {
            "outcome": self.outcome,
            "epsilon": self.epsilon,
            "dt": self.dt,
            "steps": int(len(self.escaper_path)),
            "touch_count": len(self.touches),
        }
        if self.escaped:
            doc["escape_time"] = self.escape_time
            doc["exit"] = [float(c) for c in self.exit_point]
            doc["separation"] = self.separation
        if self.touches:
            doc["max_touch_separation"] = max(s for _, s in self.touches)
        return doc


# Steps the strategies run ahead of the checks.  A block's checks are a few
# numpy calls whatever its length: on the disk, blocks of 32 steps kept a
# third of the gain of 256, and 256 to 2048 ran alike.  The strategies may
# run up to a block minus one step past the end of a run.
_BLOCK = 256


def playthrough(
    escaper: Strategy,
    pursuer: Strategy,
    dt: float,
    t_max: float,
    epsilon: float,
    domain,
) -> Playthrough:
    """Run the alternating dt-grid game until escape or t_max.

    Escape fires at the first grid time the escaper is on an exit (a point of
    its domain that ``contains`` puts in the pursuer's domain too) with
    pursuer-metric separation >= epsilon.  Each new position is checked
    before it is measured: DomainViolation when a start or a step leaves the
    mover's domain, then SpeedViolation when a step is longer than
    max_speed * dt + ``domain.tol`` in the mover's metric.  The steps are
    checked a block at a time (see the module docstring), with the outcome
    and errors of checking each step before the next.

    ``dt`` and ``epsilon`` must be positive and finite and ``t_max`` zero or
    more and finite, else ValueError.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not 0 <= t_max < math.inf:
        raise ValueError(f"t_max must be zero or more and finite, got {t_max!r}")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    n_steps = int(math.floor(t_max / dt + 1e-12))
    times = np.arange(n_steps + 1) * dt  # the same products as (k + 1) * dt
    h_pts = np.zeros((n_steps + 1, 2))
    z_pts = np.zeros((n_steps + 1, 2))

    escaper.reset()
    pursuer.reset()

    if escaper.start_point is None:
        raise ValueError("escaper strategy must declare a start point")
    h_pts[0] = np.asarray(escaper.start_point, dtype=float)
    in_escaper, on_exit = domain.contains(h_pts[0])
    if not in_escaper:
        raise DomainViolation("escaper start outside its domain")
    # One view per side for the whole run.  Before each call the engine
    # advances its length: the escaper sees the pursuer's k + 1 points up to
    # k*dt, the pursuer the escaper's k + 2 points up to (k+1)*dt.
    # Each view's ``last`` is the newest (x, y) float tuple the engine holds.
    # Per-step points travel as such tuples; the arrays keep the record, and
    # are written before the next call, which may read them.
    h = (float(h_pts[0, 0]), float(h_pts[0, 1]))
    esc_view = PathView(times, z_pts, 0)
    purs_view = PathView(times, h_pts, 1)
    purs_view._last = h
    z_pts[0] = np.asarray(pursuer.position(purs_view, 0.0), dtype=float)
    if not domain.contains(z_pts[0])[1]:
        raise DomainViolation("pursuer start outside its domain")
    z = (float(z_pts[0, 0]), float(z_pts[0, 1]))

    s_h = float(escaper.max_speed)
    s_z = float(pursuer.max_speed)
    limits = (s_h * dt + domain.tol, s_z * dt + domain.tol)
    touches = []
    escaper_position, pursuer_position = escaper.position, pursuer.position
    # flat float views of the records: storing a coordinate through one
    # costs about half of a numpy item assignment
    h_flat, z_flat = memoryview(h_pts.reshape(-1)), memoryview(z_pts.reshape(-1))

    def check_escape(k):
        # the escaper's position k is an exit: record the touch, and escape
        # at a separation of at least epsilon
        sep = domain.pursuer_distance(_point(h_pts, k), _point(z_pts, k))
        touches.append((k * dt, sep))
        return sep if sep >= epsilon else None

    sep = check_escape(0) if on_exit else None
    k_end = 0  # the last step checked
    while sep is None and k_end < n_steps:
        k = k_end
        stop = min(k + _BLOCK, n_steps)
        failure = None
        try:
            for j in range(k, stop):
                t_next = (j + 1) * dt
                esc_view._len, esc_view._last = j + 1, z
                x, y = escaper_position(esc_view, t_next)
                h = (float(x), float(y))
                h_flat[2 * j + 2], h_flat[2 * j + 3] = h
                purs_view._len, purs_view._last = j + 2, h
                x, y = pursuer_position(purs_view, t_next)
                z = (float(x), float(y))
                z_flat[2 * j + 2], z_flat[2 * j + 3] = z
        except Exception as exc:  # counts only if no check fails before it
            failure, stop = exc, j
        # the block's new positions: the escaper's k + 1 .. k + n_h (its view
        # holds them) and the pursuer's k + 1 .. stop
        n_h, n_z = purs_view._len - 1 - k, stop - k
        on_exit, event = _first_violation(domain, h_pts, z_pts, k, n_h, n_z, limits)
        if failure is not None:
            # an escaper exception comes before anything else of its step, a
            # pursuer exception after the escaper's checks of its step
            failed_at = (n_z, 0 if n_h == n_z else 2)
            event = failed_at if event is None else min(event, failed_at)
        end = n_z if event is None else event[0]
        for i in np.flatnonzero(on_exit[:end]).tolist():
            sep = check_escape(k + 1 + i)
            if sep is not None:
                k_end = k + 1 + i
                break
        else:
            if event is not None:
                if failure is not None and event == failed_at:
                    raise failure
                raise _violation(domain, h_pts, z_pts, k + 1 + event[0], event[1], dt, s_z)
            k_end = stop

    last = k_end + 1
    h_path = MotionPath(times[:last].copy(), h_pts[:last].copy(), s_h, "escaper")
    z_path = MotionPath(times[:last].copy(), z_pts[:last].copy(), s_z, "pursuer")
    if sep is not None:
        return Playthrough(
            h_path,
            z_path,
            "escaped",
            epsilon,
            dt,
            escape_time=k_end * dt,
            exit_point=h_pts[k_end].copy(),
            separation=sep,
            touches=touches,
        )
    return Playthrough(h_path, z_path, "no_escape_by_tmax", epsilon, dt, touches=touches)


def _point(pts: np.ndarray, k: int) -> tuple:
    """Row k of ``pts`` as the (x, y) float tuple the scalar forms were given."""
    return tuple(pts[k].tolist())


def _first(mask: np.ndarray) -> int:
    """Index of the first True of ``mask``, or its length when it has none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


def _exceeds(d, limit, distance, pts, i, j) -> np.ndarray:
    """``d > limit`` for the distances ``d`` an array form measured between
    ``pts[i]`` and ``pts[j]``.  A value within ``_HYPOT_BAND`` of its limit
    is measured again by the scalar form ``distance``, whose decisions the
    array forms repeat."""
    limit = np.broadcast_to(limit, d.shape)
    over = d > limit
    for k in np.flatnonzero(np.abs(d - limit) <= _HYPOT_BAND).tolist():
        over[k] = distance(_point(pts, i[k]), _point(pts, j[k])) > limit[k]
    return over


def _first_violation(domain, h_pts, z_pts, k, n_h, n_z, limits):
    """Check the block after step k: the escaper's positions k + 1 ..
    k + n_h and the pursuer's k + 1 .. k + n_z (n_h is n_z or n_z + 1).

    One ``contains_many`` call classifies every position; a step is measured
    only when no membership check before it failed, so both its endpoints
    passed.  Returns the escaper's exit flags and the first failed
    check as (step in the block, order), ordered as a step checks: 0 the
    escaper's domain, 1 its speed, 2 the pursuer's domain, 3 its speed; or
    None.
    """
    member = domain.contains_many(
        np.concatenate((h_pts[k + 1 : k + 1 + n_h], z_pts[k + 1 : k + 1 + n_z])))
    out_h, out_z = _first(~member[0, :n_h]), _first(~member[1, n_h:])
    events = [(out_h, 0)] if out_h < n_h else []
    if out_z < n_z:
        events.append((out_z, 2))
    # the escaper's step s follows the pursuer's checks of step s - 1
    for pts, m, order, many, one, limit in (
        (h_pts, min(out_h, out_z + 1), 1,
         domain.escaper_distances, domain.escaper_distance, limits[0]),
        (z_pts, min(out_h, out_z), 3,
         domain.pursuer_distances, domain.pursuer_distance, limits[1]),
    ):
        if m:
            chain, i = pts[k : k + m + 1], np.arange(m)
            fast = _first(_exceeds(many(chain, i, i + 1), limit, one, chain, i, i + 1))
            if fast < m:
                events.append((fast, order))
    return member[1, :n_h], min(events, default=None)


def _violation(domain, h_pts, z_pts, k, order, dt, s_z) -> Exception:
    """The error of check ``order`` (as ``_first_violation``) failing at
    position k; the step lengths it reports are the scalar forms'."""
    t = k * dt
    if order == 0:
        return DomainViolation(f"escaper left its domain at t={t:.4g}")
    if order == 2:
        return DomainViolation(f"pursuer left its domain at t={t:.4g}")
    if order == 1:
        step = domain.escaper_distance(_point(h_pts, k - 1), _point(h_pts, k))
        return SpeedViolation(f"escaper moved {step:.3g} in dt={dt:.3g} at t={t:.4g}")
    step = domain.pursuer_distance(_point(z_pts, k - 1), _point(z_pts, k))
    return SpeedViolation(f"pursuer moved {step:.3g} > r*dt={s_z * dt:.3g} at t={t:.4g}")


# ---------------------------------------------------------------------------
# speed validation
# ---------------------------------------------------------------------------


@dataclass
class SpeedReport:
    max_consecutive: float
    max_pairwise: float
    limit: float
    passed: bool


def validate_speed(path: MotionPath, domain, pairs: int = 200, seed: int = 0) -> SpeedReport:
    """Check the speed-limit contract over consecutive samples and random pairs.

    Passes iff every checked pair satisfies d <= max_speed * dt + tol (the
    MotionPath invariant), decided as the engine decides its speed checks;
    the reported maxima are observed speeds.  The distances come from one
    array-form call for the consecutive samples and one for the pairs, which
    do not test membership: the points are taken to lie in the mover's
    domain, as every playthrough's do.
    """
    if len(path) == 0:
        raise ValueError("empty path")
    escaper = path.domain_tag == "escaper"
    many = domain.escaper_distances if escaper else domain.pursuer_distances
    one = domain.escaper_distance if escaper else domain.pursuer_distance
    limit, tol, pts, times = path.max_speed, domain.tol, path.points, path.times

    def speeds(i, j):
        # the largest speed over the pairs, and whether every pair keeps the limit
        if not len(i):
            return 0.0, True
        d, span = many(pts, i, j), times[j] - times[i]
        within = ~_exceeds(d, limit * span + tol, one, pts, i, j) & ~np.isnan(d)
        return max(0.0, float(np.max(d / span))), bool(within.all())

    steps = np.arange(len(path) - 1)
    max_cons, ok = speeds(steps, steps + 1)
    max_pair = 0.0
    if len(path) > 2:
        rng = np.random.default_rng(seed)
        # one draw of two per pair, the stream the pairs were first drawn with
        drawn = [rng.integers(0, len(path), size=2) for _ in range(pairs)]
        ij = np.sort(np.array(drawn, dtype=np.intp).reshape(-1, 2), axis=1)
        ij = ij[ij[:, 0] != ij[:, 1]]
        max_pair, ok_pairs = speeds(ij[:, 0], ij[:, 1])
        ok &= ok_pairs
    return SpeedReport(max_cons, max_pair, limit, bool(ok))


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


def _downsample(points: np.ndarray) -> np.ndarray:
    """At most 400 of ``points``, evenly spaced, keeping both ends."""
    if len(points) <= 400:
        return points
    idx = np.linspace(0, len(points) - 1, 400).round().astype(int)
    return points[idx]


def emit_svg(pt: Playthrough, domain) -> str:
    """Render the domain, both trajectories and the outcome annotation as a
    480 x 480 SVG.

    Trajectories are polylines stroked with time-gradient colors; a degenerate
    (single-point) trajectory becomes a small square marker instead.
    """
    size = 480
    pts = np.vstack([pt.escaper_path.points, pt.pursuer_path.points])
    if isinstance(domain, DiskDomain):
        lo = np.array([-1.1, -1.1])
        hi = np.array([1.1, 1.1])
    elif isinstance(domain, PolygonDomain):
        blo, bhi = domain.ctx.polygon.bbox
        pad = 0.08 * float(np.hypot(*(bhi - blo)))
        lo, hi = blo - pad, bhi + pad
    else:
        lo = pts.min(axis=0) - 0.3
        hi = pts.max(axis=0) + 0.3
    span = hi - lo
    scale = size / max(span)

    def sx(p):
        return (p[0] - lo[0]) * scale

    def sy(p):
        return (hi[1] - p[1]) * scale  # flip y for SVG

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        "<defs>"
        '<linearGradient id="grad-h"><stop offset="0" stop-color="#9ecae1"/>'
        '<stop offset="1" stop-color="#08519c"/></linearGradient>'
        '<linearGradient id="grad-z"><stop offset="0" stop-color="#fcae91"/>'
        '<stop offset="1" stop-color="#a50f15"/></linearGradient>'
        "</defs>",
    ]

    if isinstance(domain, DiskDomain):
        c = np.array([0.0, 0.0])
        parts.append(
            f'<circle cx="{sx(c):.2f}" cy="{sy(c):.2f}" r="{scale:.2f}" '
            'fill="none" stroke="#444" stroke-width="1.5"/>'
        )
    elif isinstance(domain, PolygonDomain):
        coords = " ".join(
            f"{sx(v):.2f},{sy(v):.2f}" for v in domain.ctx.polygon.vertices
        )
        parts.append(
            f'<polygon points="{coords}" fill="#f7f7f7" stroke="#444" stroke-width="1.5"/>'
        )
    elif isinstance(domain, HalfplaneDomain):
        a = -2.0 * max(span) * domain.direction
        b = 2.0 * max(span) * domain.direction
        parts.append(
            f'<line x1="{sx(a):.2f}" y1="{sy(a):.2f}" x2="{sx(b):.2f}" '
            f'y2="{sy(b):.2f}" stroke="#444" stroke-width="1.5"/>'
        )
    elif isinstance(domain, WedgeDomain):
        for sgn in (1.0, -1.0):
            d = np.array(
                [math.cos(domain.half_angle), sgn * math.sin(domain.half_angle)]
            )
            b = 2.0 * max(span) * d
            parts.append(
                f'<line x1="{sx((0, 0)):.2f}" y1="{sy((0, 0)):.2f}" '
                f'x2="{sx(b):.2f}" y2="{sy(b):.2f}" stroke="#444" stroke-width="1.5"/>'
            )

    for path, grad in ((pt.escaper_path, "grad-h"), (pt.pursuer_path, "grad-z")):
        p = _downsample(path.points)
        distinct = len(np.unique(np.round(p, 12), axis=0))
        if distinct <= 1:
            q = p[0]
            parts.append(
                f'<rect x="{sx(q) - 3:.2f}" y="{sy(q) - 3:.2f}" width="6" height="6" '
                f'fill="url(#{grad})" class="point-marker"/>'
            )
        else:
            coords = " ".join(f"{sx(q):.2f},{sy(q):.2f}" for q in p)
            parts.append(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="url(#{grad})" stroke-width="2"/>'
            )

    if pt.escaped:
        q = pt.exit_point
        parts.append(
            f'<rect x="{sx(q) - 4:.2f}" y="{sy(q) - 4:.2f}" width="8" height="8" '
            'fill="none" stroke="#2ca02c" stroke-width="2" class="exit-marker"/>'
        )
        parts.append(
            f'<text x="8" y="{size - 10}" font-size="13" fill="#222">'
            f"escaped at t={pt.escape_time:.4g}, separation={pt.separation:.4g}</text>"
        )
    else:
        parts.append(
            f'<text x="8" y="{size - 10}" font-size="13" fill="#222">'
            f"no escape by t={pt.escaper_path.times[-1]:.4g} (epsilon={pt.epsilon:.4g})</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)
