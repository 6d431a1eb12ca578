"""The four benchmark workloads and their reference checks.

Each workload calls the public functions the CLI dispatches to, always
through module attributes (``ratio.max_ratio``, ``discrete.solve``...) so the
tracer's wrappers see the calls.  A workload has three phases:

* ``setup(seed)``: everything the timed phase takes as prepared input --
  ``validate_polygon``, the ``MetricContext`` with its vertex visibility
  graphs, and any nets passed in through ``samples=``;
* ``run(state)``: the timed phase; returns ``{operation: output}``;
* ``check(state, outputs)``: ``{operation: [problems]}`` against the values
  the seed code produced (an empty list means the operation is correct).

``warmup()`` runs a separate small instance first, so lazy imports and
first-call costs are paid without filling the timed ``MetricContext``.

The seed picks a relabelling of the input polygon -- a cyclic shift of the
vertex list and a quarter-turn -- that leaves every checked value unchanged.
Counts and winners are checked exactly, floats within ``poly.tol``: the
sandwich's lower bound reads 4.4e-16 higher when the vertex list starts at
(0, 2); every other float is bit-identical on every relabelling.
"""

from __future__ import annotations

import math
import random

from escape_ratio import discrete, exact, geometry, ratio, scheme, sim
from escape_ratio.geometry import PursuerModel

L_SHAPE = ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0))
UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def relabel(vertices, seed: int):
    """Cyclic shift of the vertex list plus a quarter-turn, both from ``seed``.

    Negating a coordinate is exact in floating point, so the turned polygon
    is the same point set up to rotation.
    """
    rng = random.Random(seed)
    shift = rng.randrange(len(vertices))
    turns = rng.randrange(4)
    pts = tuple(vertices[shift:]) + tuple(vertices[:shift])
    for _ in range(turns):
        pts = tuple((-y, x) for x, y in pts)
    return pts


def _context(vertices, model: PursuerModel) -> geometry.MetricContext:
    ctx = geometry.MetricContext(geometry.validate_polygon(vertices), model)
    ctx.interior_visibility  # noqa: B018 -- build the vertex visibility graphs now
    ctx.exterior_visibility  # noqa: B018
    return ctx


def _near(value, ref, tol, what):
    if abs(value - ref) <= tol:
        return []
    return [f"{what} = {value!r}, expected {ref!r} (within {tol:.3g})"]


def _equal(value, ref, what):
    return [] if value == ref else [f"{what} = {value!r}, expected {ref!r}"]


class Sandwich:
    """``max_ratio`` on the L-shape, exterior model.

    Dominated by the per-pair exact segment tests in ``ratio._pairwise_dh``
    and ``_pairwise_dz``; never reaches ``discrete``.
    """

    name = "sandwich-lshape-exterior"
    ops = ("max_ratio",)
    spacing = 0.1  # m = 80 boundary samples
    lower = 3.1622776601683795  # sqrt(10)
    upper = 39.253524465491196

    def warmup(self):
        # a triangle takes the exterior pairwise path with few samples; one
        # pair on the L-shape takes the nonconvex geodesic path
        tri = _context(((0, 0), (1, 0), (0.5, 0.866)), PursuerModel.EXTERIOR)
        ratio.max_ratio(tri, 0.08)
        ratio.ratio_of_pair(_context(L_SHAPE, PursuerModel.EXTERIOR), (2, 0.5), (0.5, 2))

    def setup(self, seed):
        return _context(relabel(L_SHAPE, seed), PursuerModel.EXTERIOR)

    def run(self, ctx):
        return {"max_ratio": ratio.max_ratio(ctx, self.spacing)}

    def check(self, ctx, outputs):
        b = outputs["max_ratio"]
        tol = ctx.polygon.tol
        return {"max_ratio": _near(b.lower_certified, self.lower, tol, "lower")
                + _near(b.upper_estimate, self.upper, tol, "upper")}


class Bracket:
    """``approximate_r_star`` on the unit square, moat model, with an override.

    Three probes share one net; the solver's circular-window path dominates.
    The square is convex, so the exact visibility code is bypassed.
    """

    name = "bracket-square-moat"
    ops = ("approximate_r_star",)
    epsilon = 0.2
    override = (0.2, 0.05)  # n_h = 921, n_z = 80 per probe
    budget = 1e13
    probes = ((6.602720495543138, False), (2.569575936909267, True),
              (4.119003727054065, False))
    r_lo = 2.0556607495274135
    r_hi = 4.942804472464878
    n_escaper, n_pursuer = 921, 80

    def warmup(self):
        ctx = _context(UNIT_SQUARE, PursuerModel.MOAT)
        scheme.approximate_r_star(ctx, epsilon=self.epsilon, budget=self.budget,
                                  override=(0.2, 0.2))

    def setup(self, seed):
        return _context(relabel(UNIT_SQUARE, seed), PursuerModel.MOAT)

    def run(self, ctx):
        return {"approximate_r_star": scheme.approximate_r_star(
            ctx, epsilon=self.epsilon, budget=self.budget, override=self.override)}

    def check(self, ctx, outputs):
        res = outputs["approximate_r_star"]
        tol = ctx.polygon.tol
        bad = _equal(res.heuristic, True, "heuristic")
        bad += _near(res.r_lo, self.r_lo, tol, "r_lo") + _near(res.r_hi, self.r_hi, tol, "r_hi")
        bad += _equal(len(res.probes), len(self.probes), "probe count")
        for k, (p, (r, wins)) in enumerate(zip(res.probes, self.probes)):
            bad += _near(p.r, r, tol, f"probe {k} r")
            bad += _equal(p.escaper_wins, wins, f"probe {k} escaper_wins")
            bad += _equal((p.n_escaper, p.n_pursuer), (self.n_escaper, self.n_pursuer),
                          f"probe {k} sizes")
        return {"approximate_r_star": bad}


class Game:
    """``build_game`` plus ``solve`` on the L-shape, exterior model.

    Visibility runs batched on many short segments (``_threshold_distances``,
    ``point_classes``) and ``solve`` takes the generic BLAS matmul path.
    ``gamma_sample`` anchors its grid at the bounding-box corner, so gamma
    is chosen to make the grid spacing gamma/sqrt(2) divide the side 2
    exactly; only then is the net the same point set after a quarter-turn.
    """

    name = "game-lshape-exterior"
    ops = ("build_game", "solve")
    r, delta = 3.0, 0.3
    gamma = 2.0 * math.sqrt(2.0) / 36  # grid spacing 1/18
    n_h, n_z = 1149, 401
    e_h_nnz = 96_225
    win_count = 460_749
    iterations = 10

    def warmup(self):
        ctx = _context(L_SHAPE, PursuerModel.EXTERIOR)
        game = discrete.build_game(ctx, r=self.r, delta=0.5, gamma=0.25, state_cap=1e13)
        discrete.solve(game)

    def setup(self, seed):
        ctx = _context(relabel(L_SHAPE, seed), PursuerModel.EXTERIOR)
        return ctx, discrete.gamma_sample(ctx, self.gamma)

    def run(self, state):
        ctx, samples = state
        game = discrete.build_game(ctx, r=self.r, delta=self.delta, gamma=self.gamma,
                                   state_cap=1e13, samples=samples)
        return {"build_game": game, "solve": discrete.solve(game)}

    def check(self, state, outputs):
        game, res = outputs["build_game"], outputs["solve"]
        return {
            "build_game": _equal((game.n_h, game.n_z, int(game.e_h.nnz)),
                                 (self.n_h, self.n_z, self.e_h_nnz), "(n_h, n_z, nnz(e_h))"),
            "solve": _equal(res.escaper_wins, True, "escaper_wins")
            + _equal(res.win_count, self.win_count, "win_count")
            + _equal(res.iterations, self.iterations, "iterations"),
        }


class Disk:
    """``sim.playthrough`` on the disk with ``exact.disk_strategies``.

    Below r* = 4.60334 (r = 4.4) the escaper gets out; above it (r = 4.8)
    the pursuer holds it until t_max.  Deterministic: the seed has no input
    to relabel.
    """

    name = "disk-playthrough"
    ops = ("escape r=4.4", "hold r=4.8")
    dt = 1e-4
    t_max = 2.0  # 20,001 steps at r = 4.8; the first touches come at t = 1.876
    escape_time = 1.5931
    separation = 0.17814566995437975
    escape_steps = 15932

    def warmup(self):
        esc, purs = exact.disk_strategies(4.4)
        sim.playthrough(esc, purs, dt=self.dt, t_max=0.05, epsilon=0.01,
                        domain=sim.DiskDomain())

    def setup(self, seed):
        return sim.DiskDomain(), exact.disk_strategies(4.4), exact.disk_strategies(4.8)

    def run(self, state):
        domain, (esc_a, purs_a), (esc_b, purs_b) = state
        return {
            "escape r=4.4": sim.playthrough(esc_a, purs_a, dt=self.dt, t_max=self.t_max,
                                            epsilon=0.01, domain=domain),
            "hold r=4.8": sim.playthrough(esc_b, purs_b, dt=self.dt, t_max=self.t_max,
                                          epsilon=5 * 4.8 * self.dt, domain=domain),
        }

    def check(self, state, outputs):
        a, b = outputs["escape r=4.4"], outputs["hold r=4.8"]
        r_star = exact.disk_r_star()
        bound = 5 * 4.8 * self.dt
        touches = [s for _, s in b.touches]
        return {
            "escape r=4.4": _equal(4.4 < r_star, True, "4.4 < r*")
            + _equal(a.outcome, "escaped", "outcome")
            + _near(a.escape_time, self.escape_time, 1e-9, "escape_time")
            + _near(a.separation, self.separation, 1e-9, "separation")
            + _equal(len(a.escaper_path), self.escape_steps, "path length"),
            "hold r=4.8": _equal(4.8 > r_star, True, "4.8 > r*")
            + _equal(b.outcome, "no_escape_by_tmax", "outcome")
            + _equal(bool(touches) and max(touches) <= bound, True,
                     f"touches present and all <= {bound:.3g}"),
        }


WORKLOADS = {w.name: w for w in (Sandwich(), Bracket(), Game(), Disk())}
