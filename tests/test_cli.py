import json
import math

import pytest

from escape_ratio.cli import run

SQUARE_JSON = "[[0,0],[1,0],[1,1],[0,1]]"


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(SQUARE_JSON)
    return str(path)


def run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestExact:
    def test_table_values(self, capsys):
        rc, doc = run_json(capsys, ["exact"])
        assert rc == 0
        assert doc["wedge_pi"] == 1.0
        assert doc["wedge_pi_3"] == pytest.approx(2.0, abs=1e-12)
        assert doc["disk"] == pytest.approx(4.6033, abs=1e-4)
        assert doc["triangle"] == pytest.approx(7.40492, abs=1e-4)
        assert doc["square"] == pytest.approx(5.78857, abs=1e-4)

    def test_text_format(self, capsys):
        rc = run(["exact", "--format", "text"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "square" in out and "disk" in out
        assert "4.60334" in out

    def test_json_round_trips(self, capsys):
        rc, doc = run_json(capsys, ["exact"])
        assert json.loads(json.dumps(doc)) == doc


class TestRatio:
    def test_square_document(self, capsys, square_file):
        rc, doc = run_json(
            capsys,
            ["ratio", "--polygon", square_file, "--model", "moat", "--spacing", "0.05"],
        )
        assert rc == 0
        assert doc["lower"] == pytest.approx(2.0, abs=0.01)
        assert doc["upper"] == pytest.approx(2 * (3 + math.sqrt(6)) * 2, rel=0.1)
        assert doc["witness_p"] == pytest.approx([0.5, 0.0])
        assert doc["spacing"] == 0.05

    def test_missing_polygon_flag_exits_2(self, capsys):
        rc = run(["ratio", "--spacing", "0.05"])
        assert rc == 2
        assert "--polygon" in capsys.readouterr().err

    def test_unreadable_polygon_exits_2(self, capsys):
        rc = run(["ratio", "--polygon", "/nonexistent.json", "--spacing", "0.05"])
        assert rc == 2
        assert "--polygon" in capsys.readouterr().err

    def test_invalid_json_polygon_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        rc = run(["ratio", "--polygon", str(bad), "--spacing", "0.05"])
        assert rc == 2
        assert "--polygon" in capsys.readouterr().err

    def test_invalid_polygon_geometry_exits_2(self, capsys, tmp_path):
        bowtie = tmp_path / "bowtie.json"
        bowtie.write_text("[[0,0],[2,0],[0,2],[2,2]]")
        rc = run(["ratio", "--polygon", str(bowtie), "--spacing", "0.05"])
        assert rc == 2

    def test_output_file(self, capsys, square_file, tmp_path):
        out = tmp_path / "res.json"
        rc = run(["ratio", "--polygon", square_file, "--spacing", "0.05",
                  "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["lower"] == pytest.approx(2.0, abs=0.01)


class TestDiscreteSolve:
    def test_document_fields(self, capsys, square_file):
        rc, doc = run_json(
            capsys,
            ["discrete-solve", "--polygon", square_file, "-r", "2",
             "--delta", "0.5", "--gamma", "0.2", "--state-cap", "1e9"],
        )
        assert rc == 0
        assert doc["winner"] == "escaper"
        assert doc["n_escaper"] > 0 and doc["n_pursuer"] > 0
        assert doc["win_set_size"] > 0
        assert doc["elapsed"] > 0

    def test_budget_exit_code_3(self, capsys, square_file):
        rc = run(["discrete-solve", "--polygon", square_file, "-r", "2",
                  "--delta", "0.5", "--gamma", "0.2", "--state-cap", "100"])
        assert rc == 3

    def test_verify_net_seed_reproducible(self, capsys, square_file):
        argv = ["discrete-solve", "--polygon", square_file, "-r", "2",
                "--delta", "0.5", "--gamma", "0.2", "--state-cap", "1e9",
                "--verify-net", "50", "--seed", "11"]
        _, doc1 = run_json(capsys, argv)
        _, doc2 = run_json(capsys, argv)
        assert doc1["net_gap"] == doc2["net_gap"]
        _, doc3 = run_json(capsys, argv[:-1] + ["12"])
        assert doc3["net_gap"] != doc1["net_gap"]

    def test_text_format(self, capsys, square_file):
        rc = run(["discrete-solve", "--polygon", square_file, "-r", "2",
                  "--delta", "0.5", "--gamma", "0.2", "--state-cap", "1e9",
                  "--format", "text"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "winner" in out and "escaper" in out

    def test_tables_roundtrip_through_simulate(self, capsys, square_file, tmp_path):
        tables = tmp_path / "tables.json"
        rc = run(["discrete-solve", "--polygon", square_file, "-r", "2",
                  "--delta", "0.5", "--gamma", "0.2", "--state-cap", "1e9",
                  "--tables-out", str(tables)])
        assert rc == 0
        capsys.readouterr()
        rc, doc = run_json(
            capsys,
            ["simulate", "--scenario", "polygon", "--polygon", square_file,
             "--tables", str(tables), "-r", "2"],
        )
        assert rc == 0
        assert doc["escaper_won"] is True


class TestTableFingerprint:
    SOLVE = ["-r", "2", "--delta", "0.5", "--gamma", "0.2", "--state-cap", "1e9"]

    @pytest.fixture()
    def tables(self, capsys, square_file, tmp_path):
        path = tmp_path / "tables.json"
        rc = run(["discrete-solve", "--polygon", square_file, "--model", "exterior",
                  *self.SOLVE, "--tables-out", str(path)])
        assert rc == 0
        capsys.readouterr()
        return path

    def replay(self, capsys, polygon, tables, *extra):
        rc = run(["simulate", "--scenario", "polygon", "--polygon", polygon,
                  "--tables", str(tables), "-r", "2", *extra])
        return rc, capsys.readouterr().err

    def test_tables_record_the_game(self, tables):
        doc = json.loads(tables.read_text())
        assert doc["model"] == "exterior"
        assert len(doc["polygon_sha256"]) == 64
        assert doc["n_h"] > 0 and doc["n_z"] > 0

    def test_same_model_replays(self, capsys, square_file, tables):
        rc, err = self.replay(capsys, square_file, tables, "--model", "exterior")
        assert rc == 0, err

    def test_exterior_tables_on_default_model_exit_2(self, capsys, square_file, tables):
        rc, err = self.replay(capsys, square_file, tables)
        assert rc == 2
        assert "'model'" in err

    def test_other_polygon_exit_2(self, capsys, tables, tmp_path):
        other = tmp_path / "rect.json"
        other.write_text("[[0,0],[2,0],[2,1],[0,1]]")
        rc, err = self.replay(capsys, str(other), tables, "--model", "exterior")
        assert rc == 2
        assert "'polygon_sha256'" in err

    @pytest.mark.parametrize("field", ["polygon_sha256", "model", "n_h", "n_z"])
    def test_missing_field_exit_2(self, capsys, square_file, tables, field):
        doc = json.loads(tables.read_text())
        del doc[field]
        tables.write_text(json.dumps(doc))
        rc, err = self.replay(capsys, square_file, tables, "--model", "exterior")
        assert rc == 2
        assert repr(field) in err

    def test_net_size_mismatch_exit_2(self, capsys, square_file, tables):
        doc = json.loads(tables.read_text())
        doc["n_z"] += 1
        tables.write_text(json.dumps(doc))
        rc, err = self.replay(capsys, square_file, tables, "--model", "exterior")
        assert rc == 2
        assert "'n_z'" in err


class TestApproximate:
    def test_override_bracket(self, capsys, square_file):
        rc, doc = run_json(
            capsys,
            ["approximate", "--polygon", square_file, "--epsilon", "0.5",
             "--budget", "1e10", "--override-delta", "0.5", "--override-gamma", "0.1"],
        )
        assert rc == 0
        assert doc["heuristic"] is True
        assert doc["r_lo"] < doc["r_hi"]
        assert all(p["winner"] in ("escaper", "pursuer") for p in doc["probes"])

    def test_budget_exceeded_exit_3(self, capsys, square_file):
        rc = run(["approximate", "--polygon", square_file, "--epsilon", "0.5",
                  "--budget", "5e7"])
        assert rc == 3

    def test_text_format(self, capsys, square_file):
        rc = run(["approximate", "--polygon", square_file, "--epsilon", "0.5",
                  "--budget", "1e10", "--override-delta", "0.5",
                  "--override-gamma", "0.1", "--format", "text"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "r_lo" in out and "heuristic" in out and "probes:" in out

    def test_partial_override_rejected(self, capsys, square_file):
        rc = run(["approximate", "--polygon", square_file, "--epsilon", "0.5",
                  "--override-delta", "0.5"])
        assert rc == 2


class TestSimulate:
    def test_disk_escape(self, capsys):
        rc, doc = run_json(
            capsys,
            ["simulate", "--scenario", "disk", "-r", "4.4", "--dt", "0.002",
             "--t-max", "5", "--epsilon", "0.05"],
        )
        assert rc == 0
        assert doc["outcome"] == "escaped"
        assert doc["separation"] > 0

    def test_halfplane_svg(self, capsys, tmp_path):
        svg = tmp_path / "out.svg"
        rc, doc = run_json(
            capsys,
            ["simulate", "--scenario", "halfplane", "-r", "1.0", "--dt", "0.01",
             "--t-max", "3", "--epsilon", "0.05", "--svg-out", str(svg)],
        )
        assert rc == 0
        assert doc["outcome"] == "no_escape_by_tmax"
        assert svg.read_text().startswith("<svg")

    def test_wedge_runs(self, capsys):
        rc, doc = run_json(
            capsys,
            ["simulate", "--scenario", "wedge", "-r", "1.2", "--theta",
             str(math.pi / 4), "--dt", "0.01", "--t-max", "2", "--epsilon", "0.01"],
        )
        assert rc == 0
        assert doc["outcome"] in ("escaped", "no_escape_by_tmax")
