import hashlib
import json
import logging
import math
import re

import pytest

from escape_ratio.cli import run

SQUARE_JSON = "[[0,0],[1,0],[1,1],[0,1]]"
L_SHAPE_JSON = "[[0,0],[2,0],[2,1],[1,1],[1,2],[0,2]]"


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(SQUARE_JSON)
    return str(path)


def run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def _untimed(text):
    """``text`` with the values of its time fields (``elapsed`` and the
    stage times ``*_s``) masked: the part of a document that varies from run
    to run."""
    return re.sub(r'("?(?:elapsed|\w+_s)"?:? +)[-+.e0-9]+', r"\1*", text)


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
        # the work behind the bound: every golden search asks 42 values,
        # the three rounds' six searches and the start pair 253
        stats = doc["stats"]
        assert list(stats) == ["m", "pairs_evaluated", "bound_batches", "refine_requested",
                               "refine_distinct", "refine_evaluated", "refine_batches",
                               "pairwise_s", "refine_s"]
        assert stats["m"] == 80
        assert 0 < stats["pairs_evaluated"] <= 80 * 79 // 2
        assert stats["bound_batches"] >= 1
        assert stats["refine_requested"] == 253
        assert 0 < stats["refine_distinct"] <= 253
        assert 0 < stats["refine_batches"] <= stats["refine_evaluated"]
        assert stats["pairwise_s"] > 0 and stats["refine_s"] > 0

    def test_log_level_writes_records_to_stderr(self, capsys, square_file):
        argv = ["ratio", "--polygon", square_file, "--spacing", "0.1"]
        assert run(argv) == 0
        quiet = capsys.readouterr()
        assert run(["--log-level", "debug", *argv]) == 0
        loud = capsys.readouterr()
        assert _untimed(loud.out) == _untimed(quiet.out)
        assert quiet.err == ""
        assert "DEBUG escape_ratio.ratio: max_ratio: m=" in loud.err
        # the handler and level last only as long as the run
        logger = logging.getLogger("escape_ratio")
        assert logger.handlers == [] and logger.level == logging.NOTSET
        assert run(["--log-level", "warning", *argv]) == 0
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("body", [
        "[[0,0],[1,0],[NaN,1]]", "[[0,0],[1,0],[Infinity,1]]", '[[0,0],[1,0],["a",1]]',
        "[[0,0],[1,0],[1,1,1]]", '{"a":1}', '[[0,0],[1,0],[1,"1"],[0,1]]',
        "[[false,false],[2,0],[2,2],[false,true]]",
    ], ids=["nan", "infinity", "string", "ragged", "object", "numeric-string", "boolean"])
    def test_malformed_coordinates_exit_2(self, capsys, tmp_path, body):
        bad = tmp_path / "bad.json"
        bad.write_text(body)
        rc = run(["ratio", "--polygon", str(bad), "--spacing", "0.05"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

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
        rc, doc = run_json(capsys, ["replay", "--polygon", square_file, "--tables", str(tables)])
        assert rc == 0
        assert doc["escaper_won"] is True

    # sha256 of the replay document (stdout) that simulate --scenario polygon
    # printed for these tables before replay became its own command; the
    # pursuer win's replay ends at its first repeated state (turn 1), where
    # that command played it to the n_h * n_z + 1 turn cap
    @pytest.mark.parametrize("polygon,model,r,digest", [
        (SQUARE_JSON, "moat", "2",
         "8f61b8ee695a5107d16624941c2fba1e33a7606cdc76ff408f65fd1f368e7702"),
        (SQUARE_JSON, "exterior", "3",
         "2d4f7a8d20261b6b834e05c79b92e4ab4f4ec77aaec9f9b58a88a10d3b19dfaf"),
        (L_SHAPE_JSON, "moat", "3",
         "adfadd20cbe1d91db28ed564f2f6f799d9d82b31de250c8afb2532b5f48df6c9"),
        (L_SHAPE_JSON, "exterior", "2",
         "756b0cde37c1190da6635da9da97ba44a7e47c7f068644eefb150cfea5f40082"),
    ], ids=["square-moat-escaper", "square-exterior-pursuer", "lshape-moat-escaper",
            "lshape-exterior-escaper"])
    def test_replay_document_pinned(self, capsys, tmp_path, polygon, model, r, digest):
        poly = tmp_path / "polygon.json"
        poly.write_text(polygon)
        tables = tmp_path / "tables.json"
        assert run(["discrete-solve", "--polygon", str(poly), "--model", model, "-r", r,
                    "--delta", "0.5", "--gamma", "0.25", "--tables-out", str(tables)]) == 0
        capsys.readouterr()
        assert run(["replay", "--polygon", str(poly), "--tables", str(tables)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def replay(self, capsys, polygon, tables):
        rc = run(["replay", "--polygon", polygon, "--tables", str(tables)])
        return rc, capsys.readouterr().err

    def test_tables_record_the_game(self, tables):
        doc = json.loads(tables.read_text())
        assert doc["model"] == "exterior"
        assert len(doc["polygon_sha256"]) == 64
        assert doc["n_h"] > 0 and doc["n_z"] > 0

    def test_same_model_replays(self, capsys, square_file, tables):
        rc, err = self.replay(capsys, square_file, tables)
        assert rc == 0, err

    def test_exterior_tables_replay_under_exterior_model(self, capsys, square_file, tables):
        from escape_ratio.discrete import build_game, play_discrete
        from escape_ratio.geometry import MetricContext, PursuerModel, load_polygon

        rc, doc = run_json(capsys, ["replay", "--polygon", square_file, "--tables", str(tables)])
        assert rc == 0
        t = json.loads(tables.read_text())
        ctx = MetricContext(load_polygon(square_file), PursuerModel.EXTERIOR)
        game = build_game(ctx, r=2, delta=0.5, gamma=0.2)
        transcript = play_discrete(game, lambda h, z: t["escaper_moves"][f"{h},{z}"],
                                   lambda h, h2, z: t["pursuer_moves"][f"{h},{h2},{z}"],
                                   h0=t["witness_h0"] or 0, z0=0)
        assert doc["moves"] == [list(m) for m in transcript.moves[:200]]
        assert (doc["turns"], doc["escaper_won"]) == (transcript.turns, transcript.escaper_won)

    def test_other_polygon_exit_2(self, capsys, tables, tmp_path):
        other = tmp_path / "rect.json"
        other.write_text("[[0,0],[2,0],[2,1],[0,1]]")
        rc, err = self.replay(capsys, str(other), tables)
        assert rc == 2
        assert "'polygon_sha256'" in err

    @pytest.mark.parametrize("field", ["polygon_sha256", "model", "n_h", "n_z", "r", "delta",
                                       "gamma", "escaper_moves", "pursuer_moves"])
    def test_missing_field_exit_2(self, capsys, square_file, tables, field):
        doc = json.loads(tables.read_text())
        del doc[field]
        tables.write_text(json.dumps(doc))
        rc, err = self.replay(capsys, square_file, tables)
        assert rc == 2
        assert repr(field) in err

    @pytest.mark.parametrize("field,value", [
        ("r", "fast"), ("r", -1), ("r", "2"), ("r", math.inf), ("delta", math.nan),
        ("delta", None), ("gamma", True), ("gamma", 0), ("model", "inside"),
        ("model", ["exterior"]), ("escaper_moves", [1, 2]), ("pursuer_moves", "38"),
    ])
    def test_malformed_field_exit_2(self, capsys, square_file, tables, field, value):
        doc = json.loads(tables.read_text())
        doc[field] = value
        tables.write_text(json.dumps(doc))
        rc, err = self.replay(capsys, square_file, tables)
        assert rc == 2
        assert repr(field) in err

    @pytest.mark.parametrize("body", [b"not json at all", b'{"r": 2', b"\xff\xfe{}", b"[]",
                                      b'"model"'],
                             ids=["text", "truncated", "not-utf8", "array", "string"])
    def test_malformed_tables_file_exit_2(self, capsys, square_file, tables, body):
        tables.write_bytes(body)
        rc, err = self.replay(capsys, square_file, tables)
        assert rc == 2
        assert err.startswith("error: --tables:")

    @pytest.mark.parametrize("side", ["escaper", "pursuer"])
    @pytest.mark.parametrize("value", ["38", 2.0, 1e9, -1, True])
    def test_non_index_move_exit_2(self, capsys, square_file, tables, side, value):
        doc = json.loads(tables.read_text())
        h0 = doc["witness_h0"] or 0
        h2 = doc["escaper_moves"][f"{h0},0"]
        if side == "escaper":
            doc["escaper_moves"][f"{h0},0"] = value
        else:
            doc["pursuer_moves"][f"{h0},{h2},0"] = value
        tables.write_text(json.dumps(doc))
        rc, err = self.replay(capsys, square_file, tables)
        assert rc == 2
        assert f"illegal {side} move" in err

    @pytest.mark.parametrize("value", ["abc", 1e9, -1, True])
    def test_non_index_witness_exit_2(self, capsys, square_file, tables, value):
        doc = json.loads(tables.read_text())
        doc["witness_h0"] = value
        tables.write_text(json.dumps(doc))
        rc, err = self.replay(capsys, square_file, tables)
        assert rc == 2
        assert "illegal start state" in err

    def test_net_size_mismatch_exit_2(self, capsys, square_file, tables):
        doc = json.loads(tables.read_text())
        doc["n_z"] += 1
        tables.write_text(json.dumps(doc))
        rc, err = self.replay(capsys, square_file, tables)
        assert rc == 2
        assert "'n_z'" in err


class TestApproximate:
    def test_override_bracket(self, capsys, square_file):
        rc, doc = run_json(
            capsys,
            ["approximate", "--polygon", square_file, "--epsilon", "0.5",
             "--budget", "1e10", "--override", "0.5", "0.1"],
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
                  "--budget", "1e10", "--override", "0.5", "0.1", "--format", "text"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "r_lo" in out and "heuristic" in out and "probes:" in out

    def test_partial_override_rejected(self, capsys, square_file):
        rc = run(["approximate", "--polygon", square_file, "--epsilon", "0.5",
                  "--override", "0.5"])
        assert rc == 2
        assert "--override" in capsys.readouterr().err


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


class TestNumericFlags:
    # each command line is valid; the case appends one flag again, and
    # argparse keeps the last value given
    COMMANDS = {
        "ratio": ["ratio", "--spacing", "0.05"],
        "discrete-solve": ["discrete-solve", "-r", "2", "--delta", "0.5", "--gamma", "0.2"],
        "approximate": ["approximate", "--epsilon", "0.5"],
        "simulate": ["simulate", "--scenario", "disk", "-r", "4.4"],
        "replay": ["replay", "--polygon", "p.json", "--tables", "t.json"],
    }

    @pytest.mark.parametrize("command,flag,values", [
        ("ratio", "--spacing", ["0", "-0.05", "nan", "inf"]),
        ("discrete-solve", "-r", ["nan", "-1", "0", "inf"]),
        ("discrete-solve", "--delta", ["-0.1", "nan", "inf"]),
        ("discrete-solve", "--gamma", ["0", "-0.2", "nan"]),
        ("discrete-solve", "--state-cap", ["0", "-1", "nan"]),
        ("discrete-solve", "--verify-net", ["-3", "1.5", "many"]),
        ("approximate", "--epsilon", ["0", "1.5", "nan"]),
        ("approximate", "--budget", ["0", "-5", "nan"]),
        ("simulate", "-r", ["-1", "nan"]),
        ("simulate", "--dt", ["0", "nan", "-0.001"]),
        ("simulate", "--t-max", ["-1", "nan", "inf"]),
        ("approximate", "--override", ["-0.5 0.1", "nan 0.1", "0 0.1"]),
        ("approximate", "--override", ["0.5 -0.1", "0.5 nan", "0.5 inf"]),
        ("simulate", "--epsilon", ["nan", "-1", "0"]),
        ("simulate", "--theta", ["inf", "nan", "0", "-1", "2"]),
        ("discrete-solve", "--seed", ["-1", "1.5", "x"]),
    ])
    def test_bad_value_exits_2(self, capsys, square_file, command, flag, values):
        argv = self.COMMANDS[command] + ["--polygon", square_file]
        for value in values:
            assert run([*argv, flag, *value.split()]) == 2, value
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["exact", "--model", "moat"], "--model"),
        (["exact", "--polygon", "p.json"], "--polygon"),
        (["exact", "--seed", "3"], "--seed"),
        ([*COMMANDS["ratio"], "--polygon", "p.json", "--seed", "3"], "--seed"),
        ([*COMMANDS["approximate"], "--polygon", "p.json", "--seed", "3"], "--seed"),
        ([*COMMANDS["simulate"], "--seed", "3"], "--seed"),
        ([*COMMANDS["ratio"], "--polygon", "p.json", "--prune"], "--prune"),
        ([*COMMANDS["simulate"], "--polygon", "p.json"], "--polygon"),
        ([*COMMANDS["simulate"], "--model", "moat"], "--model"),
        ([*COMMANDS["simulate"], "--tables", "t.json"], "--tables"),
        ([*COMMANDS["replay"], "-r", "2"], "-r"),
        ([*COMMANDS["replay"], "--dt", "0.01"], "--dt"),
        ([*COMMANDS["replay"], "--t-max", "5"], "--t-max"),
        ([*COMMANDS["replay"], "--epsilon", "0.05"], "--epsilon"),
        ([*COMMANDS["replay"], "--theta", "0.3"], "--theta"),
        ([*COMMANDS["replay"], "--svg-out", "x.svg"], "--svg-out"),
        ([*COMMANDS["replay"], "--model", "exterior"], "--model"),
        ([*COMMANDS["simulate"], "--theta", "0.3"], "--theta"),
        ([*COMMANDS["discrete-solve"], "--polygon", "p.json", "--seed", "3"], "--seed"),
        ([*COMMANDS["approximate"], "--polygon", "p.json", "--override-delta", "0.5"],
         "--override-delta"),
    ])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv, flag):
        # exact reads no polygon; ratio has no --prune; simulate (disk) no
        # polygon, tables or angle; replay takes r, the game and the model
        # from its tables; discrete-solve reads --seed only for --verify-net
        assert run(argv) == 2
        assert flag in capsys.readouterr().err

    def test_edge_values_parse(self):
        from escape_ratio.cli import build_parser

        ap = build_parser()
        args = ap.parse_args(["discrete-solve", "--polygon", "p", "-r", "2", "--delta", "0",
                              "--gamma", "0.2", "--verify-net", "0"])
        assert (args.delta, args.verify_net) == (0.0, 0)
        assert ap.parse_args(["approximate", "--polygon", "p", "--epsilon", "1"]).epsilon == 1.0
        assert ap.parse_args(["simulate", "--scenario", "disk", "-r", "4",
                              "--t-max", "0"]).t_max == 0.0
        assert ap.parse_args(["simulate", "--scenario", "wedge", "-r", "2",
                              "--theta", str(math.pi / 2)]).theta == math.pi / 2


class TestTextFormat:
    # one valid command line each; {square} and {tables} are filled in
    COMMANDS = {
        "exact": ["exact"],
        "ratio": ["ratio", "--polygon", "{square}", "--spacing", "0.1"],
        "discrete-solve": ["discrete-solve", "--polygon", "{square}", "-r", "2", "--delta", "0.5",
                           "--gamma", "0.2", "--verify-net", "20", "--tables-out", "{tables}"],
        "replay": ["replay", "--polygon", "{square}", "--tables", "{tables}"],
        "approximate": ["approximate", "--polygon", "{square}", "--epsilon", "0.5",
                        "--budget", "1e10", "--override", "0.5", "0.1"],
        "simulate": ["simulate", "--scenario", "disk", "-r", "4.4", "--t-max", "2"],
    }

    def argv(self, command, square_file, tmp_path):
        fill = {"square": square_file, "tables": str(tmp_path / "tables.json")}
        return [arg.format(**fill) for arg in self.COMMANDS[command]]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_field_one_line(self, capsys, square_file, tmp_path, command):
        if command == "replay":  # replay reads the tables discrete-solve writes
            assert run(self.argv("discrete-solve", square_file, tmp_path)) == 0
            capsys.readouterr()
        argv = self.argv(command, square_file, tmp_path)
        rc, doc = run_json(capsys, argv)
        assert rc == 0
        assert run([*argv, "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        fields = [line for line in lines if not line.startswith(" ")]
        assert [line.split()[0].rstrip(":") for line in fields] == list(doc)
        # a list of records: a "key:" line, then one indented k=v line per record
        records = {key: value for key, value in doc.items()
                   if isinstance(value, list) and value and isinstance(value[0], dict)}
        assert list(records) == (["probes"] if command == "approximate" else [])
        for key, value in records.items():
            at = lines.index(f"{key}:") + 1
            rows = lines[at : at + len(value)]
            assert all(row.startswith("  ") for row in rows)
            assert [[kv.split("=")[0] for kv in row.split()] for row in rows] == \
                [list(record) for record in value]
            assert len(lines) == len(fields) + len(value)
        # --output writes what stdout shows, but for the times
        out = tmp_path / "out.txt"
        assert run([*argv, "--format", "text", "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        written = out.read_text().splitlines()
        assert list(map(_untimed, written)) == list(map(_untimed, lines))
