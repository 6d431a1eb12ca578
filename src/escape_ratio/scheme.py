"""Pseudopolynomial approximation scheme: binary search over the speed ratio
with the discrete game as the decider.

An escaper win of the discrete game at ratio r certifies r* > (1-eps)*r and a
pursuer win certifies r* < (1+eps)*r, provided delta and gamma are chosen per
the discretization theory.  The theory mandates delta = 2*eps0^3/r with eps0
the margin-of-victory scale; eps0^3 is microscopic for ordinary polygons, so a
practical override (delta, gamma) floor is supported and flags the returned
interval as heuristic (no width guarantee claimed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BudgetExceeded
from .geometry import MetricContext
from .discrete import build_game, check_state_cap, escaper_moves, escaper_wins, gamma_sample
from .ratio import UPPER_FACTOR, edge_pieces

# Not called here: kept so ``escape_ratio.scheme.solve`` still resolves for the
# layer tracer in perfbench/tracing.py.
from .discrete import solve  # noqa: F401


def r_upper_bound_easy(ctx: MetricContext) -> float:
    """Cheap upper bound on r*: 2*(3+sqrt(6)) * max(F/f, csc(theta_min/2)).

    F/f bounds the boundary-pair distance ratio for points on nonincident
    edges; the cosecant term bounds it for points straddling a shared vertex.
    """
    poly = ctx.polygon
    F = poly.perimeter
    f = poly.min_feature_size
    theta_min = poly.min_interior_angle
    return UPPER_FACTOR * max(F / f, 1.0 / math.sin(theta_min / 2.0))


def epsilon0(ctx: MetricContext) -> float:
    """Computable margin-of-victory scale; minimum of three bounds.

    (a) the largest inradius over the triangulation's triangles (a point that
    deep inside the polygon exists); (b) (f/4)^2, so that no disk of radius
    2*sqrt(eps) can meet two nonadjacent edges at feature distance f; and
    (c) 1/(2*R^2) for the easy upper bound R on the critical ratio.
    """
    poly = ctx.polygon
    best_inradius = 0.0
    for tri in ctx.triangulation:
        a = float(np.hypot(*(tri[1] - tri[0])))
        b = float(np.hypot(*(tri[2] - tri[1])))
        c = float(np.hypot(*(tri[0] - tri[2])))
        s = 0.5 * (a + b + c)
        area = 0.5 * abs(
            (tri[1][0] - tri[0][0]) * (tri[2][1] - tri[0][1])
            - (tri[2][0] - tri[0][0]) * (tri[1][1] - tri[0][1])
        )
        best_inradius = max(best_inradius, area / s)
    f = poly.min_feature_size
    edge_bound = (f / 4.0) ** 2
    r_up = r_upper_bound_easy(ctx)
    speed_bound = 1.0 / (2.0 * r_up * r_up)
    return min(best_inradius, edge_bound, speed_bound)


def _gamma_for(r: float, delta: float, eps: float) -> float:
    """Largest gamma honoring the discrete-to-continuous preconditions.

    Needs gamma < min{1/4, r/2, eps*r/2} * delta and, for the decider's
    escaper side, gamma <= delta*(eps/4*(1+eps_hat) - eps_hat/2) with the
    auxiliary slack eps_hat fixed at eps/10.
    """
    eps_hat = eps / 10.0
    decider = eps / 4.0 * (1.0 + eps_hat) - eps_hat / 2.0
    c = min(0.25, r / 2.0, eps * r / 2.0, decider)
    return 0.999 * c * delta


@dataclass
class ProbeRecord:
    r: float
    delta: float
    gamma: float
    escaper_wins: bool
    n_escaper: int
    n_pursuer: int


@dataclass
class ApproxResult:
    r_lo: float
    r_hi: float
    heuristic: bool
    probes: list = field(default_factory=list)

    def to_document(self) -> dict:
        return {
            "r_lo": self.r_lo,
            "r_hi": self.r_hi,
            "heuristic": self.heuristic,
            "probes": [
                {
                    "r": p.r,
                    "delta": p.delta,
                    "gamma": p.gamma,
                    "winner": "escaper" if p.escaper_wins else "pursuer",
                    "n_escaper": p.n_escaper,
                    "n_pursuer": p.n_pursuer,
                }
                for p in self.probes
            ],
        }


def decide_r(
    ctx: MetricContext,
    r: float,
    delta: float,
    gamma: float,
    budget: float = 5e7,
    samples=None,
    e_h=None,
) -> ProbeRecord:
    """One decider call: build and decide the discrete game at (r, delta, gamma).

    ``discrete.escaper_wins`` decides it: the sweeps stop at the first full
    row, since a probe reads only the winner.  ``samples`` and ``e_h`` pass
    through to ``build_game``.
    """
    game = build_game(
        ctx, r=r, delta=delta, gamma=gamma, state_cap=budget, samples=samples, e_h=e_h
    )
    return ProbeRecord(
        r=float(r),
        delta=float(delta),
        gamma=float(gamma),
        escaper_wins=escaper_wins(game),
        n_escaper=game.n_h,
        n_pursuer=game.n_z,
    )


def approximate_r_star(
    ctx: MetricContext,
    epsilon: float,
    budget: float = 5e7,
    override: Optional[tuple] = None,
) -> ApproxResult:
    """Bracket r* by bisection over [1, R_up] using the discrete decider.

    Without an override, each probe uses the theoretical delta = 2*eps0^3/r
    and a gamma < min{1/4, r/2, eps*r/2} * delta (ValueError otherwise); if
    its state count exceeds ``budget`` the ``override`` (delta, gamma) floor
    is substituted and the result is flagged heuristic.  BudgetExceeded
    propagates when even the override is too large.  The search stops once
    r_hi/r_lo <= (1+eps)^2/(1-eps), the slack at which further probes cannot
    tighten the certified interval, or after 32 probes.
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    eps0 = epsilon0(ctx)
    r_lo, r_hi = 1.0, r_upper_bound_easy(ctx)
    heuristic = False
    probes: list[ProbeRecord] = []
    # the samples depend on gamma only, and the escaper relation on (gamma,
    # delta): probes under the override share both.  Probes off the override
    # each have their own delta, so only the newest relation is kept.
    sample_cache: dict = {}
    moves_cache: dict = {}

    if epsilon < 1.0:
        slack = (1.0 + epsilon) ** 2 / (1.0 - epsilon)
    else:
        slack = math.inf

    def decide(r: float, delta: float, gamma: float) -> ProbeRecord:
        if gamma not in sample_cache:
            sample_cache[gamma] = gamma_sample(ctx, gamma)
        samples = sample_cache[gamma]
        if (gamma, delta) not in moves_cache:
            # refuse an over-budget game before building its relation
            check_state_cap(samples.n_escaper, samples.n_pursuer, budget)
            moves_cache.clear()
            moves_cache[gamma, delta] = escaper_moves(ctx, samples, delta)
        return decide_r(
            ctx, r, delta, gamma, budget, samples=samples, e_h=moves_cache[gamma, delta]
        )

    def run_probe(r: float) -> ProbeRecord:
        nonlocal heuristic
        delta = 2.0 * eps0**3 / r
        gamma = _gamma_for(r, delta, epsilon)
        if not (0.0 < gamma < min(0.25, r / 2.0, epsilon * r / 2.0) * delta):
            raise ValueError("gamma violates the decider preconditions")
        try:
            # cheap pre-estimate: refuse before sampling when clearly hopeless
            _precheck_budget(ctx, gamma, budget)
            return decide(r, delta, gamma)
        except BudgetExceeded:
            if override is None:
                raise
        heuristic = True
        return decide(r, *override)

    while r_hi / r_lo > slack and len(probes) < 32:
        r = math.sqrt(r_lo * r_hi)
        rec = run_probe(r)
        probes.append(rec)
        if rec.escaper_wins:
            r_lo = r
        else:
            r_hi = r
    return ApproxResult(
        r_lo=max(1.0, (1.0 - epsilon) * r_lo),
        r_hi=(1.0 + epsilon) * r_hi,
        heuristic=heuristic,
        probes=probes,
    )


def _precheck_budget(ctx: MetricContext, gamma: float, budget: float) -> None:
    """Refuse a game over budget without materializing the samples.

    The estimate is a lower bound on the state count n_h^2 * n_z, so it never
    refuses a game the real construction would admit; build_game enforces
    the cap exactly afterwards.  The boundary count is the sampler's own and
    the pursuer count is taken as the boundary net only.  Interior: each point
    of the polygon lies within gamma (the diagonal of a grid cell of spacing
    s = gamma/sqrt(2)) of its cell's lower-left grid point, so the points
    whose corner is no interior sample lie within w = gamma + tol of the
    boundary, in a strip of area at most P*w + n*pi*w^2/2; at least
    (A - P*w - n*pi*w^2/2) / s^2 grid points are interior.
    """
    poly = ctx.polygon
    nb = float(edge_pieces(poly, gamma).sum())
    w = gamma + poly.tol
    strip = poly.perimeter * w + poly.n * math.pi * w * w / 2.0
    n_h = nb + max(0.0, 2.0 * (abs(poly.area) - strip) / (gamma * gamma))
    est = n_h * n_h * nb
    if est > budget:
        raise BudgetExceeded(
            f"estimated state count {est:.3g} exceeds budget {budget:.3g}",
            state_count=est,
        )
