"""Command-line entry point.

One result document per invocation: JSON on stdout (machine format) or a
text rendering of the same fields, one ``key  value`` line each.  Exit codes:
0 success, 2 validation problems (bad or unread flags, unreadable polygon or
tables files, an unwritable --output), 3 state budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import math
import sys
import time

from . import errors
from .geometry import MetricContext, PursuerModel, load_polygon


def _checked(convert, ok, what):
    """argparse ``type=`` for a number that must satisfy ``ok`` (else exit 2)."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_positive = _checked(float, lambda x: 0 < x < math.inf, "positive and finite")
_nonnegative = _checked(float, lambda x: 0 <= x < math.inf, "zero or more and finite")
_count = _checked(int, lambda x: x >= 0, "zero or more")
_fraction = _checked(float, lambda x: 0 < x <= 1, "in (0, 1]")
_angle = _checked(float, lambda x: 0 < x <= math.pi / 2, "in (0, pi/2]")


def _add_output(p: argparse.ArgumentParser):
    p.add_argument("--output", help="write the result document to this file")
    p.add_argument("--format", choices=["json", "text"], default="json")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--polygon", required=True, help="polygon file (JSON array of [x, y] pairs)")
    p.add_argument("--model", choices=["moat", "exterior"], default="moat")
    _add_output(p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="escape-ratio",
        description="Pursuit-escape solver toolkit for simple polygons",
    )
    ap.add_argument("--log-level", choices=["debug", "info", "warning"],
                    help="write the escape_ratio loggers' records of this level "
                         "and above to stderr")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="closed-form critical speed ratios")
    _add_output(p)

    p = sub.add_parser("ratio", help="certified lower/upper sandwich on r*")
    _add_common(p)
    p.add_argument("--spacing", type=_positive, required=True,
                   help="boundary sampling arc spacing (<= min feature size / 10)")

    p = sub.add_parser("discrete-solve", help="solve one discretized game")
    _add_common(p)
    p.add_argument("-r", "--speed-ratio", type=_positive, required=True)
    p.add_argument("--delta", type=_nonnegative, required=True)
    p.add_argument("--gamma", type=_positive, required=True)
    p.add_argument("--state-cap", type=_positive, default=5e7)
    p.add_argument("--tables-out", help="dump reachable strategy tables to this JSON file")
    p.add_argument("--verify-net", type=_count, metavar="PROBES", default=0,
                   help="also report the sampled net gap from this many random probes")
    p.add_argument("--seed", type=_count, help="seed for the --verify-net probes (default 0)")

    p = sub.add_parser("replay", help="replay the tables of discrete-solve --tables-out")
    p.add_argument("--polygon", required=True, help="the polygon the tables were solved on")
    p.add_argument("--tables", required=True, help="strategy tables JSON from discrete-solve")
    _add_output(p)

    p = sub.add_parser("approximate", help="bracket r* by binary search")
    _add_common(p)
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--budget", type=_positive, default=5e7)
    p.add_argument("--override", nargs=2, type=_positive, metavar=("DELTA", "GAMMA"),
                   help="the (delta, gamma) of a probe over the budget (heuristic)")

    p = sub.add_parser("simulate", help="run a continuous playthrough")
    _add_output(p)
    p.add_argument("--scenario", choices=["disk", "halfplane", "wedge"], required=True)
    p.add_argument("-r", "--speed-ratio", type=_positive, required=True)
    p.add_argument("--dt", type=_positive, default=1e-3)
    p.add_argument("--t-max", type=_nonnegative, default=10.0)
    p.add_argument("--epsilon", type=_positive, default=0.05)
    p.add_argument("--theta", type=_angle,
                   help="halfplane angle or wedge half-angle (radians, default pi/2)")
    p.add_argument("--svg-out", help="write an SVG rendering of the playthrough")
    return ap


def _text_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return value if isinstance(value, str) else json.dumps(value)


def _text(doc: dict) -> str:
    """The document as ``key  value`` lines, floats to 6 significant digits
    and lists or dicts as one-line JSON; a list of records (the approximate
    probes) as a ``key:`` line and one indented ``k=v`` line per record."""
    width = max(map(len, doc))
    lines = []
    for key, value in doc.items():
        if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            lines.append(f"{key}:")
            lines += ["  " + " ".join(f"{k}={_text_value(v)}" for k, v in record.items())
                      for record in value]
        else:
            lines.append(f"{key:{width}}  {_text_value(value)}")
    return "\n".join(lines)


def _emit(doc: dict, args) -> None:
    out = json.dumps(doc, indent=2) if args.format == "json" else _text(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _load_ctx(path: str, model: str) -> MetricContext:
    try:
        poly = load_polygon(path)
    except FileNotFoundError:
        raise errors.EscapeRatioError(f"--polygon: cannot read file {path!r}")
    except json.JSONDecodeError as exc:
        raise errors.EscapeRatioError(f"--polygon: {path!r} is not valid JSON ({exc})")
    return MetricContext(poly, PursuerModel(model))


def _cmd_exact(args) -> dict:
    from . import exact

    return {
        "wedge_pi": exact.wedge_r_star(math.pi),
        "wedge_pi_3": exact.wedge_r_star(math.pi / 3),
        "disk": exact.disk_r_star(),
        "triangle": exact.triangle_r_star(),
        "square": exact.square_r_star(),
        "disk_phi_star": exact.disk_phi_star(),
    }


def _cmd_ratio(args) -> dict:
    from .ratio import max_ratio

    ctx = _load_ctx(args.polygon, args.model)
    return max_ratio(ctx, args.spacing).to_document()


def _cmd_discrete_solve(args) -> dict:
    from .discrete import build_game, solve, verify_net

    if args.seed is not None and not args.verify_net:
        raise errors.EscapeRatioError("--seed: seeds the --verify-net probes; give --verify-net")
    ctx = _load_ctx(args.polygon, args.model)
    t0 = time.perf_counter()
    game = build_game(ctx, r=args.speed_ratio, delta=args.delta, gamma=args.gamma,
                      state_cap=args.state_cap)
    result = solve(game)
    elapsed = time.perf_counter() - t0
    doc = {
        "winner": "escaper" if result.escaper_wins else "pursuer",
        "n_escaper": game.n_h,
        "n_pursuer": game.n_z,
        "win_set_size": result.win_count,
        "elapsed": elapsed,
    }
    if args.verify_net:
        doc["net_gap"] = verify_net(ctx, game.samples, args.verify_net, seed=args.seed or 0)
        doc["gamma"] = args.gamma
    if args.tables_out:
        tables = _reachable_tables(game, result)
        tables.update(_polygon_fingerprint(ctx), n_h=game.n_h, n_z=game.n_z)
        with open(args.tables_out, "w", encoding="utf-8") as fh:
            json.dump(tables, fh)
        doc["tables_out"] = args.tables_out
    return doc


def _reachable_tables(game, result) -> dict:
    """Move tables restricted to states reachable under the extracted policies."""
    esc: dict = {}
    purs: dict = {}
    if result.escaper_wins:
        starts = [(result.witness_h0, z0) for z0 in range(game.n_z)]
    else:
        starts = [(h0, 0) for h0 in range(min(game.n_h, 8))]
    seen = set()
    stack = list(starts)
    budget = 200000
    while stack and budget > 0:
        h, z = stack.pop()
        if (h, z) in seen:
            continue
        seen.add((h, z))
        budget -= 1
        h2 = result.escaper_move(h, z)
        esc[f"{h},{z}"] = int(h2)
        z2 = result.pursuer_move(h, h2, z)
        purs[f"{h},{h2},{z}"] = int(z2)
        if not result.threat[h, z2]:
            stack.append((h2, z2))
    return {
        "escaper_moves": esc,
        "pursuer_moves": purs,
        "witness_h0": result.witness_h0,
        "winner": "escaper" if result.escaper_wins else "pursuer",
        "r": game.r,
        "delta": game.delta,
        "gamma": game.samples.gamma,
    }


def _polygon_fingerprint(ctx: MetricContext) -> dict:
    """The validated polygon and the pursuer model a strategy table belongs to."""
    vertices = ctx.polygon.vertices.astype("<f8", order="C")
    return {
        "polygon_sha256": hashlib.sha256(vertices.tobytes()).hexdigest(),
        "model": ctx.model.value,
    }


def _field(tables, key: str):
    """``tables[key]``; exit code 2 if the tables are no JSON object or lack the field."""
    if not isinstance(tables, dict) or key not in tables:
        raise errors.InconsistentTables(
            f"--tables: no {key!r} field; re-run discrete-solve --tables-out")
    return tables[key]


def _check_tables(tables: dict, expected: dict) -> None:
    """Refuse tables solved on another game (exit code 2)."""
    for key, value in expected.items():
        if _field(tables, key) != value:
            raise errors.InconsistentTables(
                f"--tables: field {key!r} is {tables[key]!r}, but this replay has {value!r}"
            )


def _cmd_approximate(args) -> dict:
    from .scheme import approximate_r_star

    ctx = _load_ctx(args.polygon, args.model)
    res = approximate_r_star(ctx, epsilon=args.epsilon, budget=args.budget,
                             override=args.override)
    return res.to_document()


def _cmd_simulate(args) -> dict:
    from . import exact, sim

    theta = math.pi / 2 if args.theta is None else args.theta
    if args.scenario == "disk":
        if args.theta is not None:
            raise errors.EscapeRatioError("--theta: the disk scenario has no angle")
        domain = sim.DiskDomain()
        escaper, pursuer = exact.disk_strategies(args.speed_ratio)
    elif args.scenario == "halfplane":
        domain = sim.HalfplaneDomain(theta)
        if theta >= math.pi / 2 - 1e-12:
            waypoints = [(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)]
        else:
            waypoints = [(1.0, 0.0), (1.0, math.tan(theta))]
        escaper = sim.StraightRunEscaper(waypoints)
        pursuer = sim.HalfplaneProjectionPursuer(theta, args.speed_ratio)
    else:
        domain = sim.WedgeDomain(theta)
        start = (math.cos(theta), 0.0)
        target = (math.cos(theta), math.sin(theta))
        escaper = sim.StraightRunEscaper([start, target])
        pursuer = sim.WedgeProjectionPursuer(theta, args.speed_ratio)

    pt = sim.playthrough(escaper, pursuer, dt=args.dt, t_max=args.t_max,
                         epsilon=args.epsilon, domain=domain)
    doc = pt.to_document()
    doc["scenario"] = args.scenario
    doc["r"] = args.speed_ratio
    if args.svg_out:
        with open(args.svg_out, "w", encoding="utf-8") as fh:
            fh.write(sim.emit_svg(pt, domain))
        doc["svg_out"] = args.svg_out
    return doc


def _cmd_replay(args) -> dict:
    """Replay discrete-solve tables at the r, delta, gamma and model they record."""
    from .discrete import build_game, play_discrete

    try:
        with open(args.tables, "r", encoding="utf-8") as fh:
            tables = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise errors.EscapeRatioError(f"--tables: cannot read {args.tables!r} ({exc})")
    esc, purs, model = (_field(tables, key) for key in ("escaper_moves", "pursuer_moves", "model"))
    if not (isinstance(esc, dict) and isinstance(purs, dict)):
        raise errors.InconsistentTables("--tables: 'escaper_moves' or 'pursuer_moves' is no object")
    if model not in [m.value for m in PursuerModel]:
        raise errors.InconsistentTables(f"--tables: field 'model' is {model!r}")
    numbers = []  # r, delta and gamma as build_game takes them
    for key, parse in (("r", _nonnegative), ("delta", _nonnegative), ("gamma", _positive)):
        try:  # the repr of a string, boolean or null is no number
            numbers.append(parse(repr(_field(tables, key))))
        except (ValueError, argparse.ArgumentTypeError):
            raise errors.InconsistentTables(f"--tables: field {key!r} is {tables[key]!r}")
    ctx = _load_ctx(args.polygon, model)
    _check_tables(tables, _polygon_fingerprint(ctx))
    game = build_game(ctx, *numbers, state_cap=1e12)
    _check_tables(tables, {"n_h": game.n_h, "n_z": game.n_z})
    transcript = play_discrete(game, lambda h, z: esc[f"{h},{z}"],
                               lambda h, h2, z: purs[f"{h},{h2},{z}"],
                               h0=tables.get("witness_h0") or 0, z0=0)
    return {
        "scenario": "polygon",
        "r": game.r,
        "turns": transcript.turns,
        "escaper_won": transcript.escaper_won,
        "moves": transcript.moves[:200],
    }


_COMMANDS = {
    "exact": _cmd_exact,
    "ratio": _cmd_ratio,
    "discrete-solve": _cmd_discrete_solve,
    "replay": _cmd_replay,
    "approximate": _cmd_approximate,
    "simulate": _cmd_simulate,
}


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        with _logging_to_stderr(args.log_level):
            _emit(_COMMANDS[args.command](args), args)
        return 0
    except errors.BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (errors.EscapeRatioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@contextlib.contextmanager
def _logging_to_stderr(level):
    """Route the ``escape_ratio`` loggers to stderr at ``level`` (a
    ``--log-level`` choice, or None for no routing) while the block runs."""
    if level is None:
        yield
        return
    logger = logging.getLogger("escape_ratio")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(level.upper())
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
