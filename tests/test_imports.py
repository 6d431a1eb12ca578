"""The commands and APIs that build no discrete game load no scipy module.

Each check runs in a fresh interpreter, since a module once imported stays in
``sys.modules``.  The interpreter imports the package from the same ``src``
as this test run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import escape_ratio

SRC = str(Path(escape_ratio.__file__).resolve().parent.parent)

_LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("scipy.sparse", "scipy.spatial")))))
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
from escape_ratio.discrete import build_game
from escape_ratio.geometry import MetricContext, PursuerModel, validate_polygon

square = validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
build_game(MetricContext(square, PursuerModel.EXTERIOR), 2.0, 0.3, 0.2)
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


def test_building_a_game_loads_scipy(tmp_path):
    loaded = _scipy_modules_after(_GAME, tmp_path)
    assert "scipy.sparse" in loaded and "scipy.spatial" in loaded
