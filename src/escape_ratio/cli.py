"""Command-line entry point.

One result document per invocation: JSON on stdout (machine format) or a
human-readable text rendering.  Exit codes: 0 success, 2 validation problems
(bad flags, unreadable polygon files), 3 state budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

from . import errors
from .geometry import MetricContext, PursuerModel, load_polygon


def _add_common(p: argparse.ArgumentParser, polygon_required=True):
    p.add_argument("--polygon", help="polygon file (JSON array of [x, y] pairs)",
                   required=polygon_required)
    p.add_argument("--model", choices=["moat", "exterior"], default="moat")
    p.add_argument("--output", help="write the result document to this file")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized probes (reproducibility)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="escape-ratio",
        description="Pursuit-escape solver toolkit for simple polygons",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="closed-form critical speed ratios")
    _add_common(p, polygon_required=False)

    p = sub.add_parser("ratio", help="certified lower/upper sandwich on r*")
    _add_common(p)
    p.add_argument("--spacing", type=float, required=True,
                   help="boundary sampling arc spacing (<= min feature size / 10)")
    p.add_argument("--prune", action="store_true",
                   help="drop sample pairs whose interior path bends at the boundary")

    p = sub.add_parser("discrete-solve", help="solve one discretized game")
    _add_common(p)
    p.add_argument("-r", "--speed-ratio", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--state-cap", type=float, default=5e7)
    p.add_argument("--tables-out", help="dump reachable strategy tables to this JSON file")
    p.add_argument("--verify-net", type=int, metavar="PROBES", default=0,
                   help="also report the sampled net gap from this many random probes")

    p = sub.add_parser("approximate", help="bracket r* by binary search")
    _add_common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--budget", type=float, default=5e7)
    p.add_argument("--override-delta", type=float)
    p.add_argument("--override-gamma", type=float)

    p = sub.add_parser("simulate", help="run a continuous playthrough")
    _add_common(p, polygon_required=False)
    p.add_argument("--scenario", choices=["disk", "halfplane", "wedge", "polygon"],
                   required=True)
    p.add_argument("-r", "--speed-ratio", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--theta", type=float, default=math.pi / 2,
                   help="halfplane angle or wedge half-angle (radians)")
    p.add_argument("--tables", help="strategy tables JSON from discrete-solve (polygon scenario)")
    p.add_argument("--svg-out", help="write an SVG rendering of the playthrough")
    return ap


def _emit(doc: dict, args, text_renderer) -> None:
    if args.format == "json":
        out = json.dumps(doc, indent=2)
    else:
        out = text_renderer(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _load_ctx(args) -> MetricContext:
    try:
        poly = load_polygon(args.polygon)
    except FileNotFoundError:
        raise errors.EscapeRatioError(f"--polygon: cannot read file {args.polygon!r}")
    except json.JSONDecodeError as exc:
        raise errors.EscapeRatioError(f"--polygon: {args.polygon!r} is not valid JSON ({exc})")
    return MetricContext(poly, PursuerModel(args.model))


def _cmd_exact(args) -> int:
    from . import exact

    rows = [
        ("wedge (opening pi)", exact.wedge_r_star(math.pi)),
        ("wedge (opening pi/3)", exact.wedge_r_star(math.pi / 3)),
        ("disk", exact.disk_r_star()),
        ("equilateral triangle", exact.triangle_r_star()),
        ("square", exact.square_r_star()),
    ]
    doc = {
        "wedge_pi": rows[0][1],
        "wedge_pi_3": rows[1][1],
        "disk": rows[2][1],
        "triangle": rows[3][1],
        "square": rows[4][1],
        "disk_phi_star": exact.disk_phi_star(),
    }

    def text(doc):
        lines = ["shape                  r*", "-" * 32]
        lines += [f"{name:22s} {value:.5f}" for name, value in rows]
        return "\n".join(lines)

    _emit(doc, args, text)
    return 0


def _cmd_ratio(args) -> int:
    from .ratio import max_ratio

    ctx = _load_ctx(args)
    bound = max_ratio(ctx, args.spacing, prune=args.prune)
    doc = bound.to_document()

    def text(doc):
        return (
            f"lower (certified) {doc['lower']:.6f}\n"
            f"upper (estimate)  {doc['upper']:.6f}\n"
            f"witness p         ({doc['witness_p'][0]:.6f}, {doc['witness_p'][1]:.6f})\n"
            f"witness q         ({doc['witness_q'][0]:.6f}, {doc['witness_q'][1]:.6f})\n"
            f"spacing           {doc['spacing']}"
        )

    _emit(doc, args, text)
    return 0


def _cmd_discrete_solve(args) -> int:
    from .discrete import build_game, play_discrete, solve, verify_net

    ctx = _load_ctx(args)
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
        doc["net_gap"] = verify_net(ctx, game.samples, args.verify_net, seed=args.seed)
        doc["gamma"] = args.gamma
    if args.tables_out:
        tables = _reachable_tables(game, result)
        tables.update(_polygon_fingerprint(ctx), n_h=game.n_h, n_z=game.n_z)
        with open(args.tables_out, "w", encoding="utf-8") as fh:
            json.dump(tables, fh)
        doc["tables_out"] = args.tables_out

    def text(doc):
        lines = [f"winner      {doc['winner']}",
                 f"|V_h|       {doc['n_escaper']}",
                 f"|V_z|       {doc['n_pursuer']}",
                 f"|win set|   {doc['win_set_size']}",
                 f"elapsed     {doc['elapsed']:.3f} s"]
        if "net_gap" in doc:
            lines.append(f"net gap     {doc['net_gap']:.6f} (gamma {doc['gamma']})")
        return "\n".join(lines)

    _emit(doc, args, text)
    return 0


def _reachable_tables(game, result) -> dict:
    """Move tables restricted to states reachable under the extracted policies."""
    from .discrete import escaper_win_predicate

    esc: dict = {}
    purs: dict = {}
    if result.escaper_wins:
        h0 = result.witness_h0
        starts = [(h0, z0) for z0 in range(game.n_z)]
    else:
        starts = [(h0, int(game.z_neighbors(0)[0])) for h0 in range(min(game.n_h, 8))]
    seen = set()
    stack = list(starts)
    budget = 200000
    while stack and budget > 0:
        h, z = stack.pop()
        if (h, z) in seen:
            continue
        seen.add((h, z))
        budget -= 1
        h2 = result.escaper_moves[(h, z)]
        esc[f"{h},{z}"] = int(h2)
        z2 = result.pursuer_moves[(h, h2, z)]
        purs[f"{h},{h2},{z}"] = int(z2)
        if not escaper_win_predicate(game, h, z2):
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


def _check_tables(tables: dict, expected: dict) -> None:
    """Refuse tables solved on another game (exit code 2)."""
    for key, value in expected.items():
        if key not in tables:
            raise errors.InconsistentTables(
                f"--tables: no {key!r} field; re-run discrete-solve --tables-out"
            )
        if tables[key] != value:
            raise errors.InconsistentTables(
                f"--tables: field {key!r} is {tables[key]!r}, but this replay has {value!r}"
            )


def _cmd_approximate(args) -> int:
    from .scheme import approximate_r_star

    ctx = _load_ctx(args)
    override = None
    if (args.override_delta is None) != (args.override_gamma is None):
        raise errors.EscapeRatioError(
            "--override-delta and --override-gamma must be given together"
        )
    if args.override_delta is not None:
        override = (args.override_delta, args.override_gamma)
    res = approximate_r_star(ctx, epsilon=args.epsilon, budget=args.budget,
                             override=override)
    doc = res.to_document()

    def text(doc):
        lines = [
            f"r_lo       {doc['r_lo']:.6f}",
            f"r_hi       {doc['r_hi']:.6f}",
            f"heuristic  {doc['heuristic']}",
            "probes:",
        ]
        lines += [
            f"  r={p['r']:.4f} delta={p['delta']:.4g} gamma={p['gamma']:.4g} -> {p['winner']}"
            for p in doc["probes"]
        ]
        return "\n".join(lines)

    _emit(doc, args, text)
    return 0


def _cmd_simulate(args) -> int:
    from . import exact, sim

    if args.scenario == "disk":
        domain = sim.DiskDomain()
        escaper, pursuer = exact.disk_strategies(args.speed_ratio)
    elif args.scenario == "halfplane":
        theta = args.theta
        domain = sim.HalfplaneDomain(theta)
        if theta >= math.pi / 2 - 1e-12:
            waypoints = [(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)]
        else:
            waypoints = [(1.0, 0.0), (1.0, math.tan(theta))]
        escaper = sim.StraightRunEscaper(waypoints)
        pursuer = sim.HalfplaneProjectionPursuer(theta, args.speed_ratio)
    elif args.scenario == "wedge":
        theta = args.theta
        domain = sim.WedgeDomain(theta)
        start = (math.cos(theta), 0.0)
        target = (math.cos(theta), math.sin(theta))
        escaper = sim.StraightRunEscaper([start, target])
        pursuer = sim.WedgeProjectionPursuer(theta, args.speed_ratio)
    else:
        return _simulate_polygon_tables(args)

    pt = sim.playthrough(escaper, pursuer, dt=args.dt, t_max=args.t_max,
                         epsilon=args.epsilon, domain=domain)
    doc = pt.to_document()
    doc["scenario"] = args.scenario
    doc["r"] = args.speed_ratio
    if args.svg_out:
        with open(args.svg_out, "w", encoding="utf-8") as fh:
            fh.write(sim.emit_svg(pt, domain))
        doc["svg_out"] = args.svg_out

    def text(doc):
        lines = [f"scenario   {doc['scenario']} (r={doc['r']})",
                 f"outcome    {doc['outcome']}"]
        if doc["outcome"] == "escaped":
            lines.append(f"escape t   {doc['escape_time']:.5f}")
            lines.append(f"separation {doc['separation']:.5f}")
        return "\n".join(lines)

    _emit(doc, args, text)
    return 0


def _simulate_polygon_tables(args) -> int:
    """Replay discrete strategy tables over a polygon as a timed transcript."""
    from .discrete import build_game, play_discrete

    if not args.polygon:
        raise errors.EscapeRatioError("--polygon: required for the polygon scenario")
    if not args.tables:
        raise errors.EscapeRatioError("--tables: required for the polygon scenario")
    ctx = _load_ctx(args)
    try:
        with open(args.tables, "r", encoding="utf-8") as fh:
            tables = json.load(fh)
    except FileNotFoundError:
        raise errors.EscapeRatioError(f"--tables: cannot read file {args.tables!r}")
    _check_tables(tables, _polygon_fingerprint(ctx))
    game = build_game(ctx, r=tables["r"], delta=tables["delta"], gamma=tables["gamma"],
                      state_cap=1e12)
    _check_tables(tables, {"n_h": game.n_h, "n_z": game.n_z})
    esc = {tuple(map(int, k.split(","))): v for k, v in tables["escaper_moves"].items()}
    purs = {tuple(map(int, k.split(","))): v for k, v in tables["pursuer_moves"].items()}
    h0 = tables.get("witness_h0") or 0
    z0 = 0
    transcript = play_discrete(game, esc, purs, max_turns=game.n_h * game.n_z + 1,
                               h0=h0, z0=z0)
    doc = {
        "scenario": "polygon",
        "r": game.r,
        "turns": transcript.turns,
        "escaper_won": transcript.escaper_won,
        "moves": transcript.moves[:200],
    }

    def text(doc):
        return (f"turns      {doc['turns']}\n"
                f"escaper won {doc['escaper_won']}")

    _emit(doc, args, text)
    return 0


_COMMANDS = {
    "exact": _cmd_exact,
    "ratio": _cmd_ratio,
    "discrete-solve": _cmd_discrete_solve,
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
        return _COMMANDS[args.command](args)
    except errors.BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except errors.EscapeRatioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
