"""CLI tests: every subcommand, both formats, exit codes, error objects."""

import io
import json
import os
import subprocess
import sys

import pytest

from pursuit.cli import main
from pursuit.constructions import cycle, grid, path, petersen, random_connected
from pursuit.graphs import Graph, from_graph6, to_graph6
from pursuit.shadows import wide_shadow
from pursuit.strategy import Trace, validate_trace


@pytest.fixture()
def corpus(tmp_path):
    f = tmp_path / "corpus.g6"
    f.write_text(
        "\n".join(to_graph6(g) for g in (cycle(4), path(5), grid(3, 3))) + "\n"
    )
    return str(f)


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def records(out):
    return [json.loads(ln) for ln in out.splitlines()]


class TestHelly:
    def test_json_records(self, capsys, corpus):
        code, out, err = run(capsys, ["helly", corpus])
        assert code == 0 and err == ""
        recs = records(out)
        assert [r["index"] for r in recs] == [0, 1, 2]
        assert recs[0]["helly"] is False
        assert recs[0]["hole_centers"] == [0, 1, 2, 3]
        assert recs[1]["helly"] is True
        assert recs[1]["dismantling"] is not None

    def test_tsv_summary(self, capsys, corpus):
        code, out, _ = run(capsys, ["helly", corpus, "--format", "tsv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t")[:3] == ["index", "n", "helly"]
        assert len(lines) == 4

    def test_byte_identical_runs(self, capsys, corpus):
        _, a, _ = run(capsys, ["helly", corpus])
        _, b, _ = run(capsys, ["helly", corpus])
        assert a == b

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["helly", str(tmp_path / "nope.g6")])
        assert code == 2
        assert json.loads(err)["error"]["code"] == 2

    def test_bad_graph6_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "junk.g6"
        f.write_text("!!notagraph\n")
        code, _, err = run(capsys, ["helly", str(f)])
        assert code == 2
        assert "line 1" in json.loads(err)["error"]["message"]

    def test_stdin_corpus(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(cycle(4)) + "\n"))
        code, out, _ = run(capsys, ["helly", "-"])
        assert code == 0
        assert records(out)[0]["helly"] is False

    def test_large_helly_graphs_answer(self, capsys, tmp_path):
        # Helly graphs past 9 vertices: the triple test answers before any
        # hole search starts, so these take milliseconds.
        king = Graph(
            16,
            [
                (4 * r + c, 4 * rr + cc)
                for r in range(4)
                for c in range(4)
                for rr, cc in ((r, c + 1), (r + 1, c - 1), (r + 1, c), (r + 1, c + 1))
                if 0 <= rr < 4 and 0 <= cc < 4
            ],
        )
        tree = random_connected(14, 0.0, 5)
        f = tmp_path / "helly.g6"
        f.write_text("\n".join(to_graph6(g) for g in (path(12), king, tree)) + "\n")
        code, out, err = run(capsys, ["helly", str(f)])
        assert code == 0 and err == ""
        recs = records(out)
        assert [r["n"] for r in recs] == [12, 16, 14]
        for r in recs:
            assert r["helly"] is True
            assert r["hole_centers"] is None and r["hole_radii"] is None
            assert len(r["dismantling"]) == r["n"] - 1


class TestExactValues:
    def test_copnumber(self, capsys, corpus):
        code, out, _ = run(capsys, ["copnumber", corpus, "--max", "3"])
        assert code == 0
        recs = records(out)
        assert [r["cop_number"] for r in recs] == [2, 1, 2]
        assert all(r["max_cops"] == 3 and "state_cap" in r for r in recs)

    def test_copnumber_over_cap_is_negative(self, capsys, corpus):
        code, out, _ = run(capsys, ["copnumber", corpus, "--max", "1"])
        assert code == 1
        assert records(out)[0]["cop_number"] is None

    def test_kmove_echoes_active(self, capsys, corpus):
        code, out, _ = run(capsys, ["kmove", corpus, "--active", "1", "--max", "4"])
        assert code == 0
        recs = records(out)
        assert all(r["active"] == 1 for r in recs)
        assert recs[0]["cop_number"] == 2

    def test_budget_refusal(self, capsys, corpus, monkeypatch):
        monkeypatch.setenv("PURSUIT_STATE_CAP", "50000000")
        code, _, err = run(
            capsys, ["copnumber", corpus, "--max", "3", "--state-cap", "10"]
        )
        assert code == 3
        assert json.loads(err)["error"]["code"] == 3

    def test_budget_advice_names_the_knob(self, capsys, corpus, monkeypatch):
        monkeypatch.delenv("PURSUIT_STATE_CAP", raising=False)
        code, _, err = run(
            capsys, ["copnumber", corpus, "--max", "3", "--state-cap", "10"]
        )
        message = json.loads(err)["error"]["message"]
        assert code == 3
        assert "PURSUIT_STATE_CAP" not in message
        assert "raise --state-cap" in message
        monkeypatch.setenv("PURSUIT_STATE_CAP", "10")
        code, _, err = run(capsys, ["copnumber", corpus, "--max", "3"])
        assert code == 3
        assert "raise PURSUIT_STATE_CAP" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["copnumber", "CORPUS", "--max", "3"], 0),
            (["kmove", "CORPUS", "--active", "1", "--max", "3"], 0),
            (["guardable", "CORPUS", "--subgraph", "0,1", "--cops", "1"], 0),
            (["simulate", "CORPUS", "--adversary", "optimal"], 3),
        ],
    )
    def test_state_cap_leaves_environment_alone(self, capsys, corpus, monkeypatch, argv, code):
        monkeypatch.delenv("PURSUIT_STATE_CAP", raising=False)
        argv = [corpus if a == "CORPUS" else a for a in argv] + ["--state-cap", "1000"]
        got, out, _ = run(capsys, argv)
        assert got == code
        assert "PURSUIT_STATE_CAP" not in os.environ
        if code == 0 and argv[0] != "simulate":
            assert all(r["state_cap"] == 1000 for r in records(out))


class TestShadowAndBypaths:
    def test_shadow_matches_library(self, capsys, corpus):
        code, out, _ = run(
            capsys, ["shadow", corpus, "--subgraph", "0,1,2", "--vertex", "3"]
        )
        assert code == 0
        for r, g in zip(records(out), (cycle(4), path(5), grid(3, 3))):
            assert r["shadow"] == sorted(wide_shadow(g, (0, 1, 2), 3))

    def test_vertex_out_of_range(self, capsys, corpus):
        code, _, err = run(
            capsys, ["shadow", corpus, "--subgraph", "0,1", "--vertex", "99"]
        )
        assert code == 2
        assert "99" in json.loads(err)["error"]["message"]

    def test_bypaths_c4(self, capsys, tmp_path):
        f = tmp_path / "c4.g6"
        f.write_text(to_graph6(cycle(4)) + "\n")
        code, out, _ = run(capsys, ["bypaths", str(f), "--path", "0,1,2"])
        assert code == 0
        rec = records(out)[0]
        assert rec["bypath_free"] is False
        assert rec["bypaths"] == [[0, 3, 2]]

    def test_non_isometric_path_is_negative(self, capsys, tmp_path):
        f = tmp_path / "c6.g6"
        f.write_text(to_graph6(cycle(6)) + "\n")
        code, _, err = run(capsys, ["bypaths", str(f), "--path", "0,1,2,3,4"])
        assert code == 1
        assert json.loads(err)["error"]["code"] == 1


class TestGuardableAndConstruct:
    def test_guardable_path(self, capsys, corpus):
        code, out, _ = run(
            capsys, ["guardable", corpus, "--subgraph", "0,1,2", "--cops", "1"]
        )
        assert code == 0
        assert all(r["guardable"] is True for r in records(out))

    def test_unguardable_hole_gadget(self, capsys, tmp_path):
        # one cop cannot hold a C4 once an apex offers a way around it
        f = tmp_path / "c4.g6"
        f.write_text(to_graph6(cycle(4)) + "\n")
        out_file = tmp_path / "gadget.g6"
        code, _, _ = run(
            capsys,
            [
                "construct",
                "hole-gadget",
                str(f),
                "--format",
                "tsv",
                "--output",
                str(out_file),
            ],
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            ["guardable", str(out_file), "--subgraph", "0,1,2,3", "--cops", "1"],
        )
        assert code == 1
        assert records(out)[0]["guardable"] is False

    def test_hts_record(self, capsys):
        code, out, _ = run(capsys, ["construct", "hts", "--t", "3", "--s", "1"])
        assert code == 0
        rec = records(out)[0]
        assert rec["t"] == 3 and rec["s"] == 1
        assert from_graph6(rec["graph6"]).n == rec["n"] == 6

    def test_hts_tsv_is_bare_graph6(self, capsys):
        code, out, _ = run(
            capsys, ["construct", "hts", "--t", "5", "--s", "1", "--format", "tsv"]
        )
        assert code == 0
        g = from_graph6(out.strip())
        assert g.n == 5 + 10

    def test_hts_bad_parameters(self, capsys):
        code, _, err = run(capsys, ["construct", "hts", "--t", "4", "--s", "1"])
        assert code == 2
        assert json.loads(err)["error"]["code"] == 2

    def test_adversary_gadget(self, capsys):
        code, out, _ = run(
            capsys,
            ["construct", "hts", "--t", "3", "--s", "2", "--adversary", "1"],
        )
        assert code == 0
        rec = records(out)[0]
        assert rec["apex_count"] == 8
        assert from_graph6(rec["graph6"]).n == rec["n"]

    def test_adversary_gadget_budget_refusal(self, capsys):
        code, _, err = run(
            capsys,
            ["construct", "hts", "--t", "5", "--s", "3", "--adversary", "2"],
        )
        assert code == 3
        assert json.loads(err)["error"]["code"] == 3

    def test_hole_gadget_on_helly_graph_is_negative(self, capsys, tmp_path):
        f = tmp_path / "p5.g6"
        f.write_text(to_graph6(path(5)) + "\n")
        code, out, _ = run(capsys, ["construct", "hole-gadget", str(f)])
        assert code == 1
        assert records(out)[0]["graph6"] is None


class TestSimulateValidateReplay:
    def test_simulate_traces_validate(self, capsys, corpus):
        code, out, err = run(
            capsys, ["simulate", corpus, "--adversary", "greedy", "--seed", "4"]
        )
        assert code == 0 and err == ""
        for rec, g in zip(records(out), (cycle(4), path(5), grid(3, 3))):
            assert rec["outcome"] == "captured"
            assert rec["seed"] == 4 and rec["adversary"] == "greedy"
            assert rec["turn_cap"] == 10 * g.n * g.n
            tr = Trace.from_json(json.dumps(rec))
            assert validate_trace(g, tr) == []

    def test_simulate_deterministic(self, capsys, corpus):
        _, a, _ = run(capsys, ["simulate", corpus, "--seed", "9"])
        _, b, _ = run(capsys, ["simulate", corpus, "--seed", "9"])
        assert a == b

    def test_simulate_tsv_summary(self, capsys, corpus):
        code, out, _ = run(capsys, ["simulate", corpus, "--format", "tsv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t") == [
            "index", "n", "adversary", "seed", "turn_cap", "outcome", "turn",
        ]

    def test_simulate_optimal_small(self, capsys, tmp_path):
        f = tmp_path / "small.g6"
        f.write_text(to_graph6(cycle(5)) + "\n" + to_graph6(grid(2, 3)) + "\n")
        code, out, _ = run(capsys, ["simulate", str(f), "--adversary", "optimal"])
        assert code == 0
        assert all(r["outcome"] == "captured" for r in records(out))

    def test_simulate_nonplanar_is_negative(self, capsys, tmp_path):
        f = tmp_path / "pet.g6"
        f.write_text(to_graph6(petersen()) + "\n")
        code, _, err = run(capsys, ["simulate", str(f)])
        assert code == 1
        assert "planar" in json.loads(err)["error"]["message"]

    def test_simulate_nonzero_padding_is_usage_error(self, capsys, tmp_path):
        # "A`" once decoded as K2, whose record then read graph "A_"
        f = tmp_path / "pad.g6"
        f.write_text("A_\nA`\n")
        code, out, err = run(capsys, ["simulate", str(f)])
        assert code == 2 and out == ""
        msg = json.loads(err)["error"]["message"]
        assert "line 2" in msg and "padding" in msg

    def test_simulate_tiny_cap_aborts(self, capsys, corpus):
        code, out, _ = run(capsys, ["simulate", corpus, "--turn-cap", "1"])
        assert code == 1
        assert all(r["outcome"] == "aborted" for r in records(out))

    def test_validate_round_trip(self, capsys, corpus, tmp_path):
        traces = tmp_path / "traces.jsonl"
        code, _, _ = run(capsys, ["simulate", corpus, "--output", str(traces)])
        assert code == 0
        code, out, _ = run(capsys, ["validate", str(traces)])
        assert code == 0
        assert all(r["ok"] and r["violations"] == [] for r in records(out))

    def test_validate_flags_tampering(self, capsys, corpus, tmp_path):
        traces = tmp_path / "traces.jsonl"
        run(capsys, ["simulate", corpus, "--output", str(traces)])
        lines = traces.read_text().splitlines()
        doc = json.loads(lines[0])
        for rec in doc["turns"]:
            if isinstance(rec.get("note"), dict) and "case" in rec["note"]:
                rec["note"]["territory"] += 1
                break
        lines[0] = json.dumps(doc)
        traces.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, ["validate", str(traces)])
        assert code == 1
        recs = records(out)
        assert recs[0]["ok"] is False and recs[0]["violations"]
        assert all(r["ok"] for r in recs[1:])

    def test_replay_renders_turns(self, capsys, corpus, tmp_path):
        traces = tmp_path / "traces.jsonl"
        run(capsys, ["simulate", corpus, "--output", str(traces)])
        code, out, _ = run(capsys, ["replay", str(traces)])
        assert code == 0
        assert "trace 0:" in out
        assert "place-cops" in out
        assert "violations: none" in out

    def test_replay_json_equals_validate(self, capsys, corpus, tmp_path):
        traces = tmp_path / "traces.jsonl"
        run(capsys, ["simulate", corpus, "--output", str(traces)])
        _, a, _ = run(capsys, ["replay", str(traces), "--format", "json"])
        _, b, _ = run(capsys, ["validate", str(traces)])
        assert a == b

    def test_bad_trace_file_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "bad.jsonl"
        f.write_text('{"graph": "Cl"}\n')
        code, _, err = run(capsys, ["validate", str(f)])
        assert code == 2
        assert json.loads(err)["error"]["code"] == 2

    @pytest.mark.parametrize(
        "line",
        [
            '{"graph": "A_", "turns": [{}], "verdict": {}}',
            '{"graph": "A_", "turns": [{"t": 0, "mover": "place-cops", "cops": 0, "robber": null}], "verdict": {}}',
            '{"graph": "A_", "turns": [{"t": "0", "mover": "place-cops", "cops": [0], "robber": null}], "verdict": {}}',
            '{"graph": "A_", "turns": [{"t": 2, "mover": "cops", "cops": [0], "robber": 1, "note": {"case": "a"}}], "verdict": {}}',
        ],
    )
    def test_replay_malformed_turn_is_usage_error(self, capsys, tmp_path, line):
        f = tmp_path / "bad.jsonl"
        f.write_text(line + "\n")
        code, out, err = run(capsys, ["replay", str(f), "--format", "tsv"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "turn 0" in err

    @pytest.mark.parametrize(
        "line",
        [
            "[1]",
            '"x"',
            '{"graph": "A_", "turns": 5, "verdict": "captured"}',
            '{"graph": 5, "turns": [], "verdict": {}}',
            '{"graph": "A_", "turns": [1], "verdict": {}}',
            '{"graph": "A_", "turns": [], "verdict": []}',
        ],
    )
    def test_malformed_trace_is_usage_error(self, capsys, tmp_path, line):
        f = tmp_path / "bad.jsonl"
        f.write_text(line + "\n")
        code, out, err = run(capsys, ["validate", str(f)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == 2


class TestPlay:
    def test_human_robber_capture(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "p3.g6"
        f.write_text(to_graph6(path(3)) + "\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("2\n" + "2\n" * 20))
        code, out, _ = run(capsys, ["play", str(f)])
        assert code == 0
        assert "captured on turn" in out

    def test_abandoned_game(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "p3.g6"
        f.write_text(to_graph6(path(3)) + "\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, out, _ = run(capsys, ["play", str(f)])
        assert code == 2
        assert "abandoned" in out


class TestEntryPoint:
    def test_module_invocation(self, corpus):
        proc = subprocess.run(
            [sys.executable, "-m", "pursuit.cli", "helly", corpus],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout.splitlines()[0])["index"] == 0

    def test_unknown_command_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pursuit.cli", "bogus"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
