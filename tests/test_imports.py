"""No command or API loads a scipy module: scipy is only the tests' oracle.

Each check runs in a fresh interpreter, since a module once imported stays in
``sys.modules``.  The interpreter imports the package from the same ``src``
as this test run.  Every name the layer tracer (``perfbench/tracing.py``)
wraps still exists, so deleting one fails here and not only in a traced
benchmark run.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import escape_ratio

SRC = str(Path(escape_ratio.__file__).resolve().parent.parent)

_LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

_NO_GAME = """
import contextlib, io
from escape_ratio import cli, exact, sim
from escape_ratio.geometry import MetricContext, PursuerModel, validate_polygon
from escape_ratio.ratio import max_ratio

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["exact"]) == 0
    assert cli.run(["ratio", "--polygon", "square.json", "--spacing", "0.1"]) == 0
    assert cli.run(["simulate", "--scenario", "disk", "-r", "4.4", "--t-max", "0.2"]) == 0
l_shape = validate_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
max_ratio(MetricContext(l_shape, PursuerModel.EXTERIOR), 0.1)
escaper, pursuer = exact.disk_strategies(4.4)
sim.playthrough(escaper, pursuer, dt=1e-3, t_max=0.2, epsilon=0.05, domain=sim.DiskDomain())
"""

_GAME = """
import contextlib, io
from escape_ratio import cli
from escape_ratio.discrete import build_game, play_discrete, solve, verify_net
from escape_ratio.geometry import MetricContext, PursuerModel, validate_polygon

l_shape = validate_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
ctx = MetricContext(l_shape, PursuerModel.EXTERIOR)
game = build_game(ctx, 2.0, 0.5, 0.25)
res = solve(game)
play_discrete(game, res.escaper_move, res.pursuer_move, 0, 0)
verify_net(ctx, game.samples, 50)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["discrete-solve", "--polygon", "square.json", "-r", "2", "--delta", "0.5",
                    "--gamma", "0.2", "--tables-out", "tables.json", "--verify-net", "20"]) == 0
    assert cli.run(["replay", "--polygon", "square.json", "--tables", "tables.json"]) == 0
    assert cli.run(["approximate", "--polygon", "square.json", "--epsilon", "0.5",
                    "--budget", "1e10", "--override", "0.5", "0.1"]) == 0
"""


def _scipy_modules_after(code: str, cwd) -> list:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code + _LOADED], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_without_a_game_load_no_scipy(tmp_path):
    (tmp_path / "square.json").write_text("[[0,0],[1,0],[1,1],[0,1]]")
    assert _scipy_modules_after(_NO_GAME, tmp_path) == []


def test_games_load_no_scipy(tmp_path):
    # building, solving, replaying and checking a game, in the API and
    # through the discrete-solve, replay and approximate commands
    (tmp_path / "square.json").write_text("[[0,0],[1,0],[1,1],[0,1]]")
    assert _scipy_modules_after(_GAME, tmp_path) == []


def test_every_trace_point_resolves():
    # the tracer's source is executed, not imported, so nothing is written
    # next to it; it wraps ``owner.__dict__[attr]``
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing.__dict__)
    missing = [(owner, attr) for owner, attr, _ in tracing.TRACE_POINTS
               if attr not in tracing._resolve(owner).__dict__]
    assert len(tracing.TRACE_POINTS) > 20
    assert missing == []
