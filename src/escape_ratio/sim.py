"""Continuous-game playthrough engine.

Continuous time is realized on a uniform dt grid with the escaper moving
first within each step: the escaper's position at (k+1)dt is computed from
the pursuer prefix [0, k*dt], then the pursuer's position at (k+1)dt from the
escaper prefix [0, (k+1)dt].  This staggered information flow is what makes
the playthrough unique, and the obliviate transform below makes any strategy
explicitly delay-tolerant.

Strategies are stateful objects queried monotonically in time; the engine
resets them at the start of every playthrough, so a strategy instance can be
reused across runs.

A domain is three methods and a tolerance: ``contains(p)`` answers which
domains p lies in as a pair of bools (escaper, pursuer),
``escaper_distance(p, q)`` and ``pursuer_distance(p, q)`` measure a step in
each, and ``tol`` is the slack of the speed checks.  The escaper wins at the
boundary, where the two domains meet, so an escaper position is an exit
exactly when ``contains`` puts it in the pursuer's domain too: the engine
reads that from the answer it got when it checked the position, so a step
asks two membership questions, one per mover.

The analytic domains (disk, halfplane, wedge) and strategies work on the two
coordinates as Python floats, since a step handles single 2-vectors; a view's
``last`` hands the newest point over as an (x, y) float tuple.  Tolerance
comparisons (domain predicates, speed checks) use ``math.hypot``.  Every
value that is stored keeps the numpy arithmetic the trajectories were pinned
with (``np.hypot``, ``@``), whose last bit can differ.  A branch on a radius
(the disk pursuer's gate, the disk escaper's exit test) compares
``math.hypot`` with its threshold and calls ``np.hypot`` only within 1e-12 of
it: both are within an ulp of the true value, so outside that band they take
the same branch, and trajectories do not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainViolation, SpeedViolation
from .exact import halfplane_pursuer_position, wedge_pursuer_position
from .geometry import MetricContext

# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


class DiskDomain:
    """Unit disk escaper domain; pursuer on the unit circle (moat)."""

    name = "disk"
    tol = 1e-9

    def contains(self, p):
        r, tol = math.hypot(p[0], p[1]), self.tol
        return r <= 1.0 + tol, abs(r - 1.0) <= tol

    def escaper_distance(self, p, q):
        return math.hypot(q[0] - p[0], q[1] - p[1])  # speed checks only

    def pursuer_distance(self, p, q):
        a = math.atan2(p[1], p[0])
        b = math.atan2(q[1], q[0])
        d = abs(a - b) % (2.0 * math.pi)
        return min(d, 2.0 * math.pi - d)


class HalfplaneDomain:
    """Halfplane game frame: boundary through the origin at angle theta.

    The escaper domain is the side containing (1, 0); the pursuer walks the
    boundary line.  theta = pi/2 makes the boundary the y-axis.
    """

    name = "halfplane"
    tol = 1e-9

    def __init__(self, theta: float):
        self.theta = float(theta)
        self.direction = np.array([math.cos(self.theta), math.sin(self.theta)])
        self.normal = np.array([math.sin(self.theta), -math.cos(self.theta)])
        if self.normal @ np.array([1.0, 0.0]) < 0:
            self.normal = -self.normal
        self._nx, self._ny = float(self.normal[0]), float(self.normal[1])

    def _offset(self, p):
        # predicates only: a hand-written dot may differ from ``@`` in the last bit
        return p[0] * self._nx + p[1] * self._ny

    def contains(self, p):
        offset, tol = self._offset(p), self.tol
        return offset >= -tol, abs(offset) <= tol

    def escaper_distance(self, p, q):
        return math.hypot(q[0] - p[0], q[1] - p[1])  # speed checks only

    def pursuer_distance(self, p, q):
        # separations are stored, so keep the ``@`` arithmetic
        return abs(float(self.direction @ p) - float(self.direction @ q))


class WedgeDomain:
    """Wedge with apex at the origin, bisector +x, half-angle theta."""

    name = "wedge"
    tol = 1e-9

    def __init__(self, half_angle: float):
        self.half_angle = float(half_angle)
        self._tan = math.tan(self.half_angle)

    def _boundary_param(self, p):
        # signed arc coordinate along the V-shaped boundary through the apex;
        # it is stored and steers the pursuer, so it keeps np.hypot
        r = float(np.hypot(p[0], p[1]))
        return r if p[1] >= 0 else -r

    def contains(self, p):
        x, y, tol = float(p[0]), float(p[1]), self.tol
        return (abs(y) <= x * self._tan + tol,
                x >= -tol and abs(abs(y) - x * self._tan) <= tol * (1 + x))

    def escaper_distance(self, p, q):
        return math.hypot(q[0] - p[0], q[1] - p[1])  # speed checks only

    def pursuer_distance(self, p, q):
        return abs(self._boundary_param(p) - self._boundary_param(q))


class PolygonDomain:
    """Polygon escaper domain backed by a MetricContext.  ``contains`` is
    one column of ``MetricContext.contains``, the test the metrics guard
    their own inputs with, so a point the metrics reject is never accepted;
    it applies ``polygon.tol`` (1e-9 times the bounding-box diagonal).  The
    speed checks' ``tol`` is 1e-9 * max(1, that diagonal): the two differ
    for a polygon whose diagonal is below 1."""

    name = "polygon"

    def __init__(self, ctx: MetricContext):
        self.ctx = ctx
        lo, hi = ctx.polygon.bbox
        self.tol = 1e-9 * max(1.0, float(np.hypot(*(hi - lo))))

    def contains(self, p):
        escaper, pursuer = self.ctx.contains([p])[:, 0]
        return bool(escaper), bool(pursuer)

    def escaper_distance(self, p, q):
        return self.ctx.interior_distance(p, q)

    def pursuer_distance(self, p, q):
        return self.ctx.pursuer_distance(p, q)


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

    def position_at(self, t: float) -> np.ndarray:
        """Linear interpolation; clamps beyond the sampled range."""
        ts = self.times
        if t <= ts[0]:
            return self.points[0]
        if t >= ts[-1]:
            return self.points[-1]
        k = int(np.searchsorted(ts, t, side="right") - 1)
        t0, t1 = ts[k], ts[k + 1]
        w = (t - t0) / (t1 - t0)
        return (1 - w) * self.points[k] + w * self.points[k + 1]


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


class Strategy:
    """Callback contract: position(opponent prefix up to time t, t) -> point.

    The prefix is a ``PathView``; ``opponent.last`` is its most recent point
    as an (x, y) tuple of Python floats, read without slicing
    ``opponent.points``.  The view is valid only during the call.  A point
    returned is any 2-sequence of floats (a tuple or an array); the engine
    copies it.  No-lookahead: the output at t may depend only on the prefix.
    Escaper strategies additionally declare ``start_point`` (independent of the
    opponent).  ``max_speed`` is the licensed speed of the paths the strategy
    emits.  Instances may keep incremental state between the engine's monotone
    queries; ``reset`` returns them to the initial state.
    """

    start_point: Optional[np.ndarray] = None
    max_speed: float = 1.0

    def reset(self):
        pass

    def position(self, opponent: PathView, t: float) -> np.ndarray:
        raise NotImplementedError


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


class _BoundaryTracker(Strategy):
    """Chases a target boundary coordinate ``_s`` at the licensed speed ``r``."""

    def reset(self):
        self._s = None  # arc coordinate along the boundary
        self._last_t = 0.0

    def _track(self, target: float, t: float) -> float:
        if self._s is None:
            self._s = target
        else:
            dt = t - self._last_t
            self._s += min(max(target - self._s, -self.r * dt), self.r * dt)
        self._last_t = t
        return self._s


class HalfplaneProjectionPursuer(_BoundaryTracker):
    """Tracks the boundary projection of the escaper in the halfplane frame.

    The target point at height y is (y/tan(theta), y) on the boundary line;
    the chase is clamped to the licensed speed.
    """

    def __init__(self, theta: float, r: float):
        self.theta = float(theta)
        self.r = float(r)
        self.max_speed = float(r)
        self.domain = HalfplaneDomain(theta)
        self.reset()

    def _target_s(self, h) -> float:
        # steers the chase, so it keeps the ``@`` arithmetic
        z = halfplane_pursuer_position(self.theta, h)
        return float(z @ self.domain.direction)

    def position(self, opponent, t):
        s = self._track(self._target_s(opponent.last), t)
        d = self.domain.direction
        return (s * d[0], s * d[1])


class WedgeProjectionPursuer(_BoundaryTracker):
    """Tracks (|y|/tan(theta), y) on the wedge boundary, speed-clamped."""

    def __init__(self, half_angle: float, r: float):
        self.half_angle = float(half_angle)
        self.r = float(r)
        self.max_speed = float(r)
        self.domain = WedgeDomain(half_angle)
        self.reset()

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
    max_speed * dt + ``domain.tol`` in the mover's metric.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
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
    # Per-step points travel as such tuples; the arrays keep the record.
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
    step_h_max = s_h * dt + domain.tol
    step_z_max = s_z * dt + domain.tol
    touches = []
    escaper_position, pursuer_position = escaper.position, pursuer.position
    escaper_distance, pursuer_distance = domain.escaper_distance, domain.pursuer_distance
    contains = domain.contains

    def check_escape(h, z, t):
        # h is an exit (in both domains): record the touch, and escape at a
        # separation of at least epsilon
        sep = pursuer_distance(h, z)
        touches.append((t, sep))
        return sep if sep >= epsilon else None

    sep = check_escape(h, z, 0.0) if on_exit else None
    k_end = 0
    escaped_at = None
    if sep is None:
        for k in range(n_steps):
            t_next = (k + 1) * dt
            esc_view._len, esc_view._last = k + 1, z
            x, y = escaper_position(esc_view, t_next)
            h_next = (float(x), float(y))
            in_escaper, on_exit = contains(h_next)
            if not in_escaper:
                raise DomainViolation(f"escaper left its domain at t={t_next:.4g}")
            step_h = escaper_distance(h, h_next)
            if step_h > step_h_max:
                raise SpeedViolation(
                    f"escaper moved {step_h:.3g} in dt={dt:.3g} at t={t_next:.4g}"
                )
            h = h_next
            h_pts[k + 1, 0], h_pts[k + 1, 1] = h
            purs_view._len, purs_view._last = k + 2, h
            x, y = pursuer_position(purs_view, t_next)
            z_next = (float(x), float(y))
            if not contains(z_next)[1]:
                raise DomainViolation(f"pursuer left its domain at t={t_next:.4g}")
            step_z = pursuer_distance(z, z_next)
            if step_z > step_z_max:
                raise SpeedViolation(
                    f"pursuer moved {step_z:.3g} > r*dt={s_z * dt:.3g} at t={t_next:.4g}"
                )
            z = z_next
            z_pts[k + 1, 0], z_pts[k + 1, 1] = z
            k_end = k + 1
            if on_exit:
                sep = check_escape(h, z, t_next)
                if sep is not None:
                    escaped_at = t_next
                    break
    else:
        escaped_at = 0.0

    last = k_end + 1
    h_path = MotionPath(times[:last].copy(), h_pts[:last].copy(), s_h, "escaper")
    z_path = MotionPath(times[:last].copy(), z_pts[:last].copy(), s_z, "pursuer")
    if escaped_at is not None:
        return Playthrough(
            h_path,
            z_path,
            "escaped",
            epsilon,
            dt,
            escape_time=escaped_at,
            exit_point=h_pts[k_end].copy(),
            separation=sep,
            touches=touches,
        )
    return Playthrough(h_path, z_path, "no_escape_by_tmax", epsilon, dt, touches=touches)


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
    MotionPath invariant); the reported maxima are observed speeds.
    """
    if len(path) == 0:
        raise ValueError("empty path")
    tol = domain.tol
    dist = (
        domain.escaper_distance
        if path.domain_tag == "escaper"
        else domain.pursuer_distance
    )
    limit = path.max_speed
    max_cons = 0.0
    ok = True
    for k in range(1, len(path)):
        d = dist(path.points[k - 1], path.points[k])
        dt = path.times[k] - path.times[k - 1]
        max_cons = max(max_cons, d / dt)
        ok &= d <= limit * dt + tol
    max_pair = 0.0
    if len(path) > 2:
        rng = np.random.default_rng(seed)
        for _ in range(pairs):
            i, j = sorted(rng.integers(0, len(path), size=2).tolist())
            if i == j:
                continue
            d = dist(path.points[i], path.points[j])
            span = path.times[j] - path.times[i]
            max_pair = max(max_pair, d / span)
            ok &= d <= limit * span + tol
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
