"""Pursuit-escape games on simple polygons.

Compute certified bounds on the critical speed ratio, evaluate exact closed
forms for canonical shapes, solve the discretized game by retrograde analysis,
and simulate escaper/pursuer strategies.
"""

from . import discrete, errors, exact, geometry, ratio, scheme, sim
from .discrete import build_game, gamma_sample, play_discrete, solve, verify_net
from .exact import (
    disk_phi_star,
    disk_r_star,
    disk_strategies,
    square_r_star,
    triangle_r_star,
    wedge_r_star,
)
from .geometry import (
    MetricContext,
    Point2,
    Polygon,
    PursuerModel,
    load_polygon,
    save_polygon,
    triangulate,
    validate_polygon,
)
from .ratio import RatioBound, max_ratio, ratio_of_pair
from .scheme import approximate_r_star, epsilon0, r_upper_bound_easy
from .sim import MotionPath, Playthrough, emit_svg, obliviate, playthrough, validate_speed

__all__ = [
    "discrete",
    "errors",
    "exact",
    "geometry",
    "ratio",
    "scheme",
    "sim",
    "MetricContext",
    "MotionPath",
    "Playthrough",
    "Point2",
    "Polygon",
    "PursuerModel",
    "RatioBound",
    "approximate_r_star",
    "build_game",
    "disk_phi_star",
    "disk_r_star",
    "disk_strategies",
    "emit_svg",
    "epsilon0",
    "gamma_sample",
    "load_polygon",
    "max_ratio",
    "obliviate",
    "play_discrete",
    "playthrough",
    "r_upper_bound_easy",
    "ratio_of_pair",
    "save_polygon",
    "solve",
    "square_r_star",
    "triangle_r_star",
    "triangulate",
    "validate_polygon",
    "validate_speed",
    "verify_net",
    "wedge_r_star",
]

__version__ = "0.1.0"
