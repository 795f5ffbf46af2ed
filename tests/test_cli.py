"""CLI tests: every subcommand, both formats, exit codes, error objects."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pursuit import constructions
from pursuit.cli import _build_parser, main
from pursuit.constructions import (
    build_hole_gadget,
    cycle,
    grid,
    path,
    petersen,
    random_connected,
    random_planar_triangulation,
)
from pursuit.controllers import GreedyAdversary, RandomAdversary
from pursuit.graphs import Graph, from_graph6, to_graph6
from pursuit.helly import find_hole
from pursuit.referee import Trace, validate_trace
from pursuit.shadows import wide_shadow
from pursuit.strategy import run_two_move_strategy

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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

    @pytest.mark.parametrize("command", ["helly", "validate"])
    def test_non_ascii_file_is_usage_error(self, capsys, tmp_path, command):
        f = tmp_path / "accent.g6"
        f.write_bytes(b"C\xc3\xa9\n")
        code, out, err = run(capsys, [command, str(f)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"].startswith(f"cannot read {f}: ")

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

    @pytest.mark.parametrize(
        "argv", [["copnumber", "--max", "2"], ["kmove", "--max", "2", "--active", "1"], ["simulate"]]
    )
    def test_empty_graph_is_refused(self, capsys, tmp_path, argv):
        f = tmp_path / "empty.g6"
        f.write_text("?\n")
        code, out, err = run(capsys, argv[:1] + [str(f)] + argv[1:])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {"code": 1, "command": argv[0], "message": "graph 0: empty graph"}

    def test_budget_refusal(self, capsys, corpus):
        code, _, err = run(
            capsys, ["copnumber", corpus, "--max", "3", "--state-cap", "10"]
        )
        assert code == 3
        assert json.loads(err)["error"]["code"] == 3

    def test_budget_advice_names_the_knob(self, capsys, corpus, tmp_path):
        code, _, err = run(
            capsys, ["copnumber", corpus, "--max", "3", "--state-cap", "10"]
        )
        assert code == 3
        assert json.loads(err)["error"]["message"] == (
            "estimated 40 states exceeds budget 10; raise --state-cap to proceed"
        )
        # the default budget is refused with the same advice
        f = tmp_path / "p30.g6"
        f.write_text(to_graph6(path(30)) + "\n")
        code, _, err = run(capsys, ["guardable", str(f), "--subgraph", "0", "--cops", "6"])
        assert code == 3
        message = json.loads(err)["error"]["message"]
        assert "exceeds budget 50000000; raise --state-cap to proceed" in message

    @pytest.mark.parametrize(
        "argv",
        [
            ["kmove", "CORPUS", "--max", "3", "--active", "0"],
            ["guardable", "CORPUS", "--subgraph", "0,1", "--cops", "-1"],
            ["simulate", "CORPUS", "--turn-cap", "0"],
            ["play", "CORPUS", "--turn-cap", "0"],
            ["copnumber", "CORPUS", "--max", "3", "--state-cap", "-5"],
            ["copnumber", "CORPUS", "--max", "-1"],
            ["kmove", "CORPUS", "--active", "1", "--max", "0"],
        ],
        ids=["active", "cops", "turn-cap", "play-turn-cap", "state-cap", "max", "kmove-max"],
    )
    def test_count_flag_below_one_is_usage_error(self, capsys, corpus, argv):
        code, out, err = run(capsys, [corpus if a == "CORPUS" else a for a in argv])
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == 2
        assert error["message"] == f"{argv[-2]} must be at least 1"

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
        assert rec["max_bypaths"] == 10000

    def test_too_many_bypaths_is_refused(self, capsys, tmp_path):
        # The top row and last column of the 11 x 11 grid has C(20, 10) - 1
        # bypaths; they are counted, not listed, before the refusal.
        f = tmp_path / "grid11.g6"
        f.write_text(to_graph6(grid(11, 11)) + "\n")
        corner = ",".join(map(str, list(range(11)) + [10 + 11 * t for t in range(1, 11)]))
        start = time.perf_counter()
        code, out, err = run(capsys, ["bypaths", str(f), "--path", corner])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["message"] == (
            "184755 bypaths exceed budget 10000; raise --max-bypaths to proceed"
        )
        small = ["bypaths", str(f), "--path", "0,1,2,13", "--max-bypaths"]
        code, out, _ = run(capsys, small + ["2"])
        assert code == 0 and records(out)[0]["bypaths"] == [[0, 11, 12, 13], [1, 12, 13]]
        assert run(capsys, small + ["1"])[0] == 3
        assert run(capsys, small + ["0"])[0] == 2

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

    @pytest.mark.parametrize("t, s, n", [(15, 1, 6450), (13, 3, 5161)])
    def test_hts_refused_past_vertex_limit(self, capsys, monkeypatch, t, s, n):
        # H(t,s) has t + s*C(t, (t+1)/2) vertices; past the 4096 limit it is
        # refused before the graph is built.
        def build(*args):
            raise AssertionError("H(t,s) built past the vertex limit")

        monkeypatch.setattr(constructions, "Graph", build)
        for fmt in ("json", "tsv"):
            argv = ["construct", "hts", "--t", str(t), "--s", str(s), "--format", fmt]
            code, out, err = run(capsys, argv)
            assert code == 3 and out == ""
            assert f"H({t},{s}) has {n} vertices, over the limit of 4096" in err

    @pytest.mark.parametrize("t, s, n, steps", [(3, 1000, 3003, 27054027), (7, 60, 2107, 22197245)])
    def test_hts_refused_past_build_limit(self, capsys, monkeypatch, t, s, n, steps):
        # Under the vertex limit, but its self-checks would take (m + 1) n^2
        # steps, past 2.5 million: refused before the graph is built.
        def build(*args):
            raise AssertionError("H(t,s) built past the build limit")

        monkeypatch.setattr(constructions, "Graph", build)
        for fmt in ("json", "tsv"):
            argv = ["construct", "hts", "--t", str(t), "--s", str(s), "--format", fmt]
            code, out, err = run(capsys, argv)
            assert code == 3 and out == ""
            assert f"H({t},{s}) needs {steps} self-check steps" in err
            assert f"n = {n}, over the limit of 2500000" in err

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


def _only_record_0(payload, verdict):
    payload["turns"] = payload["turns"][:1]
    del payload["turns"][0]["robber"]
    payload["verdict"] = verdict


# Each edit drops a key that the validator once read with [], which raised
# KeyError.  Record 0 places no robber, so a record 0 without the key is
# read as one that says so.
MISSING_KEYS = {
    "no-mover": (
        lambda p: p["turns"][2].pop("mover"),
        [
            "turn: record 2 mover is None, expected 'cops'",
            "legality: cops moved on the robber's turn 2",
            "moved-flag: robber turn 2 flags cop movement",
        ],
    ),
    "no-robber-at-0": (lambda p: p["turns"][0].pop("robber"), []),
    "no-last-t": (
        lambda p: p["turns"][-1].pop("t"),
        ["turn: record 2 carries t=None", "verdict: capture turn disagrees with the last record"],
    ),
    "only-record-0-captured": (
        lambda p: _only_record_0(p, p["verdict"]),
        [
            "verdict: capture turn disagrees with the last record",
            "verdict: captured without a cop on the robber",
        ],
    ),
    "only-record-0-aborted": (lambda p: _only_record_0(p, {"outcome": "aborted", "reason": "stopped"}), []),
}


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
            "index", "n", "adversary", "seed", "turn_cap", "state_cap", "outcome", "turn",
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

    @pytest.mark.parametrize("budget", [[], ["--state-cap", "1000"]], ids=["default-cap", "cap-1000"])
    @pytest.mark.parametrize(
        "graph, message",
        [
            # C8 x C8, the 8x8 torus: 64 vertices, not planar
            (
                Graph(64, [(v, v // 8 * 8 + (v + 1) % 8) for v in range(64)] + [(v, (v + 8) % 64) for v in range(64)]),
                "graph is not planar",
            ),
            (Graph(4, [(0, 1), (2, 3)]), "graph must be connected"),
        ],
        ids=["torus", "disconnected"],
    )
    def test_simulate_refuses_before_solving(self, capsys, tmp_path, monkeypatch, graph, message, budget):
        # The engine's input contract runs before the optimal adversary's
        # solve, so the verdict does not depend on the state budget.
        def solve(*args, **kwargs):
            raise AssertionError("solve ran on input the engine refuses")

        monkeypatch.setattr("pursuit.cli.solve", solve)
        f = tmp_path / "refused.g6"
        f.write_text(to_graph6(graph) + "\n")
        code, out, err = run(capsys, ["simulate", str(f), "--adversary", "optimal", *budget])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["message"] == f"graph 0: {message}"

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

    def test_unwritable_output_is_usage_error(self, capsys, corpus, tmp_path):
        target = tmp_path / "missing" / "out.jsonl"
        code, out, err = run(capsys, ["helly", corpus, "--output", str(target)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"].startswith(f"cannot write {target}: ")

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
            '{"graph": "A_", "turns": [{"t": false, "mover": "place-cops", "cops": [0], "robber": null}], "verdict": {}}',
            '{"graph": "A_", "turns": [{"t": 0, "mover": "place-cops", "cops": [0], "robber": true}], "verdict": {}}',
            '{"graph": "A_", "turns": [{"t": 0, "mover": "place-cops", "cops": [true, "x", 0.5], "robber": null}], "verdict": {}}',
            '{"graph": "A_", "turns": [{"t": 0, "mover": "cops", "cops": [0], "robber": 1, '
            '"note": {"case": "a", "guards": [], "territory": "many"}}], "verdict": {}}',
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

    @pytest.mark.parametrize("name", MISSING_KEYS)
    def test_missing_key_is_a_finding(self, capsys, tmp_path, name):
        g = grid(3, 3)
        payload = json.loads(run_two_move_strategy(g, adversary=RandomAdversary(g, seed=1)).to_json())
        edit, findings = MISSING_KEYS[name]
        edit(payload)
        f = tmp_path / "trace.jsonl"
        f.write_text(json.dumps(payload) + "\n")
        code, out, err = run(capsys, ["validate", str(f)])
        assert code == (1 if findings else 0) and err == ""
        assert json.loads(out)["violations"] == findings


# Values a fuzzed trace edit writes: wrong types, out-of-range vertices, empties.
TRACE_POOL = (None, True, False, -1, 0, 1, 2, 99, 1.5, "x", "cops", "captured", [], [0, 0, 0], {})
TRACE_COMMANDS = {"validate": ["validate"], "replay": ["replay"], "replay-json": ["replay", "--format", "json"]}


def mutate_trace(payload, rng):
    """Make 1-3 seeded edits in place, each at the end of a random descent:
    set a value from TRACE_POOL, delete a key or a list entry, or cut a list
    short.  Most descents start at the turn list, where most rules live."""
    for _ in range(rng.randint(1, 3)):
        box = payload
        if isinstance(payload.get("turns"), list) and payload["turns"] and rng.random() < 0.9:
            box = payload["turns"]
        while box:
            keys = sorted(box) if isinstance(box, dict) else list(range(len(box)))
            key = rng.choice(keys)
            if isinstance(box, list) and rng.random() < 0.3:
                key = rng.choice((0, min(1, len(box) - 1), len(box) - 1))  # the ends and the opening
            child = box[key]
            if isinstance(child, (dict, list)) and child and rng.random() < 0.7:
                box = child
                continue
            roll = rng.random()
            if roll < 0.5:
                box[key] = rng.choice(TRACE_POOL)
            elif roll < 0.65 and isinstance(box, list):
                del box[key + 1 :]
            else:
                del box[key]
            break


@pytest.fixture(scope="module")
def fuzzed_traces():
    """1,000 seeded mutations of six engine traces, one JSON line each."""
    bases = []
    for g in (grid(4, 4), grid(3, 6), random_planar_triangulation(20, seed=3)):
        for adv in (RandomAdversary(g, seed=1), GreedyAdversary(g, seed=1)):
            bases.append(run_two_move_strategy(g, adversary=adv).to_json())
    lines = []
    for seed in range(1000):
        payload = json.loads(bases[seed % len(bases)])
        mutate_trace(payload, random.Random(seed))
        lines.append(json.dumps(payload))
    return lines


# Characters a graph6 mutation writes: printable ASCII, tab, DEL and one
# letter outside ASCII.
G6_ALPHABET = "".join(map(chr, range(32, 127))) + "\t\x7f\u00e9"
G6_BASES = [to_graph6(g) for g in (path(6), cycle(8), grid(3, 4), petersen())] + [
    to_graph6(random_connected(n, 0.4, seed)) for n, seed in ((5, 1), (9, 2), (11, 3))
]


def mutate_graph6(text, rng):
    """Make one to three seeded edits (one in half the draws), each
    replacing (three times in five), inserting or deleting one character.
    A replacement inside the body often still decodes, so about one
    mutation in six reaches the commands."""
    chars = list(text)
    for _ in range(rng.choice((1, 1, 2, 3))):
        at = rng.randrange(len(chars) + 1)
        op = rng.choice(("replace", "replace", "replace", "insert", "delete"))
        if op == "insert" or not chars:
            chars.insert(at, rng.choice(G6_ALPHABET))
        elif op == "replace":
            chars[min(at, len(chars) - 1)] = rng.choice(G6_ALPHABET)
        else:
            del chars[min(at, len(chars) - 1)]
    return "".join(chars)


# One corpus command per line, each under small budgets.
G6_COMMANDS = {
    "helly": ["helly"],
    "copnumber": ["copnumber", "--max", "2", "--state-cap", "100000"],
    "kmove": ["kmove", "--active", "1", "--max", "2", "--state-cap", "100000"],
    "shadow": ["shadow", "--subgraph", "0,1", "--vertex", "2"],
    "bypaths": ["bypaths", "--path", "0,1,2", "--max-bypaths", "100"],
    "guardable": ["guardable", "--subgraph", "0,1", "--cops", "1", "--state-cap", "100000"],
    "hole-gadget": ["construct", "hole-gadget"],
    "simulate-greedy": ["simulate", "--adversary", "greedy", "--turn-cap", "200"],
    "simulate-optimal": ["simulate", "--adversary", "optimal", "--turn-cap", "200", "--state-cap", "100000"],
}

# Flag templates for the fuzz test; each {name} is filled from one draw.
FUZZ_COMMANDS = {
    "copnumber": ["--max", "{max}", "--state-cap", "{state_cap}"],
    "kmove": ["--active", "{active}", "--max", "{max}", "--state-cap", "{state_cap}"],
    "shadow": ["--subgraph", "{subgraph}", "--vertex", "{vertex}"],
    "bypaths": ["--path", "{path}"],
    "guardable": ["--subgraph", "{subgraph}", "--cops", "{cops}", "--state-cap", "{state_cap}"],
    "simulate": ["--adversary", "{adversary}", "--turn-cap", "{turn_cap}", "--state-cap", "{state_cap}"],
}

# Small counts most of the time, any integer sometimes.  --state-cap stays
# under 10**5 states so that a large --cops or --max is refused, not solved.
_counts = st.integers(-3, 12) | st.integers()
_vertex_lists = st.text(alphabet="0123456789,- ", max_size=12) | st.text(max_size=8)


class TestThreeOutcomes:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(sorted(FUZZ_COMMANDS)),
        fmt=st.sampled_from(["json", "tsv"]),
        values=st.fixed_dictionaries(
            {
                "max": _counts,
                "active": _counts,
                "cops": _counts,
                "turn_cap": _counts,
                "vertex": _counts,
                "state_cap": st.integers(max_value=10**5),
                "subgraph": _vertex_lists,
                "path": _vertex_lists,
                "adversary": st.sampled_from(["random", "greedy", "optimal"]),
            }
        ),
    )
    def test_answer_refuse_or_usage(self, capsys, corpus, command, fmt, values):
        argv = [command, corpus, "--format", fmt]
        argv += [a.format(**values) for a in FUZZ_COMMANDS[command]]
        try:
            code = main(argv)
        except SystemExit as e:
            assert e.code == 2
        else:
            assert code in (0, 1, 2, 3)
        capsys.readouterr()

    @pytest.mark.parametrize("command", TRACE_COMMANDS)
    def test_fuzzed_trace_answers_or_refuses(self, capsys, tmp_path, fuzzed_traces, command):
        # A trace line answers (0), carries findings (1) or is refused (2);
        # it never raises.
        f = tmp_path / "trace.jsonl"
        codes = set()
        crashes = []
        for seed, line in enumerate(fuzzed_traces):
            f.write_text(line + "\n")
            try:
                codes.add(main(TRACE_COMMANDS[command] + [str(f)]))
            except Exception as e:
                crashes.append(f"mutation {seed}: {type(e).__name__}: {e}")
            capsys.readouterr()
        assert crashes == []
        assert codes == {0, 1, 2}

    @pytest.mark.parametrize("command", sorted(G6_COMMANDS))
    def test_fuzzed_graph6_answers_or_refuses(self, capsys, tmp_path, command):
        # A mutated graph6 line is answered (0 or 1), refused for its size
        # (3) or refused as input (2); it never raises or prints a traceback.
        f = tmp_path / "corpus.g6"
        codes = set()
        crashes = []
        for seed in range(40):
            rng = random.Random(seed)
            line = mutate_graph6(G6_BASES[seed % len(G6_BASES)], rng)
            f.write_text(line + "\n", encoding="utf-8")
            argv = G6_COMMANDS[command] + [str(f), "--format", ("json", "tsv")[seed % 2]]
            try:
                code, _, err = run(capsys, argv)
            except Exception as e:
                crashes.append(f"mutation {seed} {line!r}: {type(e).__name__}: {e}")
                capsys.readouterr()
                continue
            if code not in (0, 1, 2, 3) or "Traceback" in err:
                crashes.append(f"mutation {seed} {line!r}: exit {code}: {err}")
            codes.add(code)
        assert crashes == []
        assert 2 in codes and codes & {0, 1}


class TestPlay:
    def test_human_robber_capture(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "p3.g6"
        f.write_text(to_graph6(path(3)) + "\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("2\n" + "2\n" * 20))
        code, out, _ = run(capsys, ["play", str(f)])
        assert code == 0
        assert "captured on turn" in out

    def test_human_robber_reprompts(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "p3.g6"
        f.write_text(to_graph6(path(3)) + "\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("x\n7\n2\n" + "2\n" * 20))
        code, out, _ = run(capsys, ["play", str(f)])
        assert code == 0
        assert "not a vertex: 'x'" in out
        assert "pick one of 0, 1, 2" in out

    def test_nonplanar_is_negative(self, capsys, tmp_path):
        f = tmp_path / "pet.g6"
        f.write_text(to_graph6(petersen()) + "\n")
        code, _, err = run(capsys, ["play", str(f)])
        assert code == 1
        assert "planar" in json.loads(err)["error"]["message"]

    def test_turn_cap_abort_is_negative(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "grid.g6"
        f.write_text(to_graph6(grid(3, 3)) + "\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("8\n" * 20))
        code, out, _ = run(capsys, ["play", str(f), "--turn-cap", "1"])
        assert code == 1
        assert "no capture: no capture within 1 cops' turns" in out

    def test_abandoned_game(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "p3.g6"
        f.write_text(to_graph6(path(3)) + "\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, out, _ = run(capsys, ["play", str(f)])
        assert code == 2
        assert "abandoned" in out


def run_module(*args):
    # The child interpreter imports pursuit from this checkout's src, as the
    # test process does, whether or not PYTHONPATH already names it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "pursuit.cli", *args], capture_output=True, text=True, env=env
    )


class TestEntryPoint:
    def test_module_invocation(self, corpus):
        proc = run_module("helly", corpus)
        assert proc.returncode == 0
        assert json.loads(proc.stdout.splitlines()[0])["index"] == 0

    def test_unknown_command_exits_2(self):
        proc = run_module("bogus")
        assert proc.returncode == 2

    def test_repeated_calls_in_one_process(self, capsys, pinned_files):
        # main reuses one parser across calls; every call must still print
        # what its first call printed, usage errors in between included.
        traces, corpus = pinned_files["TRACES"], pinned_files["CORPUS"]
        calls = [
            [cmd, *args, "--format", fmt]
            for fmt in ("tsv", "json")
            for cmd, *args in (
                ["simulate", corpus, "--seed", "2"],
                ["replay", traces],
                ["validate", traces],
                ["helly", corpus],
                ["simulate", corpus, "--turn-cap", "0"],
            )
        ]
        first = [run(capsys, argv) for argv in calls]
        with pytest.raises(SystemExit) as exc:
            main(["simulate", corpus, "--adversary", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert [run(capsys, argv) for argv in reversed(calls)] == first[::-1]
        assert first[4][0] == 2 and first[0][0] == 0
        assert _build_parser() is _build_parser()


# Every subcommand but play, and the error paths, each run under --format json
# and --format tsv.  Upper-case arguments name the files that the fixture
# below writes.
PINNED_CASES = {
    "helly": ["helly", "CORPUS"],
    "copnumber": ["copnumber", "CORPUS", "--max", "3"],
    "copnumber-over-cap": ["copnumber", "CORPUS", "--max", "1"],
    "kmove": ["kmove", "CORPUS", "--active", "1", "--max", "3"],
    "kmove-two": ["kmove", "CORPUS", "--active", "2", "--max", "3", "--state-cap", "100000"],
    "shadow": ["shadow", "CORPUS", "--subgraph", "0,1,2", "--vertex", "3"],
    "bypaths": ["bypaths", "CORPUS", "--path", "0,1,2"],
    "guardable": ["guardable", "CORPUS", "--subgraph", "0,1,2", "--cops", "1"],
    "guardable-gadget": ["guardable", "GADGET", "--subgraph", "0,1,2,3", "--cops", "1"],
    "hts": ["construct", "hts", "--t", "3", "--s", "1"],
    "hts-adversary": ["construct", "hts", "--t", "3", "--s", "2", "--adversary", "1"],
    "hole-gadget": ["construct", "hole-gadget", "CORPUS"],
    "simulate-random": ["simulate", "CORPUS", "--seed", "3"],
    "simulate-greedy": ["simulate", "CORPUS", "--adversary", "greedy", "--seed", "4"],
    "simulate-optimal": ["simulate", "SMALL", "--adversary", "optimal"],
    "simulate-turn-cap": ["simulate", "CORPUS", "--turn-cap", "1"],
    "simulate-nonplanar": ["simulate", "PETERSEN"],
    "validate": ["validate", "TRACES"],
    "validate-tampered": ["validate", "TAMPERED"],
    "replay": ["replay", "TRACES"],
    "replay-tampered": ["replay", "TAMPERED"],
    "missing-file": ["helly", "MISSING"],
    "bad-graph6": ["helly", "JUNK"],
    "empty-corpus": ["copnumber", "EMPTY", "--max", "2"],
    "empty-traces": ["validate", "EMPTY"],
    "vertex-out-of-range": ["shadow", "CORPUS", "--subgraph", "0,1", "--vertex", "99"],
    "bad-vertex-list": ["guardable", "CORPUS", "--subgraph", "0,x", "--cops", "1"],
    "empty-vertex-list": ["shadow", "CORPUS", "--subgraph", ",", "--vertex", "0"],
    "repeated-path-vertex": ["bypaths", "CORPUS", "--path", "0,1,0"],
    "non-path": ["bypaths", "CORPUS", "--path", "0,2"],
    "non-isometric-path": ["bypaths", "C6", "--path", "0,1,2,3,4"],
    "non-isometric-guard": ["guardable", "C6", "--subgraph", "0,1,2,3,4", "--cops", "1"],
    "malformed-trace": ["validate", "BADTRACE"],
    "malformed-turn": ["replay", "BADTURN"],
    "refusal-copnumber": ["copnumber", "CORPUS", "--max", "3", "--state-cap", "10"],
    "refusal-guardable": ["guardable", "CORPUS", "--subgraph", "0,1", "--cops", "1", "--state-cap", "10"],
    "refusal-simulate": ["simulate", "CORPUS", "--adversary", "optimal", "--state-cap", "10"],
    "hts-even-t": ["construct", "hts", "--t", "4", "--s", "1"],
    "hts-oversize": ["construct", "hts", "--t", "5", "--s", "3", "--adversary", "1"],
}

# sha256 of repr((exit code, stdout, stderr)), with the temporary directory
# written as TMP, recorded from the CLI before its per-item driver; the two
# bypaths outputs were re-recorded when their records began to echo
# --max-bypaths, and the eight simulate outputs that print records when
# those began to echo --state-cap.
PINNED_OUTPUTS = {
    "bad-graph6/json": "257b831a4aa07954e972b35b7df7e51d6f346a2f3a3283131304c6776ae69968",
    "bad-graph6/tsv": "dffb3e1a47888be3b251b724e179aa65a79dbfba4a1e4facfe4263fdb39b97ff",
    "bad-vertex-list/json": "eca57a3a8c476cd37d5a60285f5632073f259203a34ddb18431757cc21554924",
    "bad-vertex-list/tsv": "a5d663f25f3feb3a8f5985f705c4d5b40e324c39087c854c0d25cf7f9a73259c",
    "bypaths/json": "2d6a22db17ec8a067612f47cc445b37b87aa30e32e5e633ae8a6c1be353a6c8d",
    "bypaths/tsv": "d82183077b8d8fc6d45afdc23ce6a071de935a934be0c7be5ab38022f34d80f9",
    "copnumber-over-cap/json": "bcfe7df7b40735a3fd280edcd5d38571a4020be5915c8155ecde802e5e9c0979",
    "copnumber-over-cap/tsv": "bf8b8a58c6cef45283512dc06cac4af4ae0fb4cb09177c850258085eefb15955",
    "copnumber/json": "60e50e43fe71bddd43bb16d4bda4c9d988b5a48d97b2a62b4af792a9fe53d3fa",
    "copnumber/tsv": "87a8aab1e1c26c26da222715509e56e2e967f8f08c024c31727503710704a0f0",
    "empty-corpus/json": "5851260bed5afa3937813fb7b68d687b12d75616fa0c126b0ddf4f0452ba2ccc",
    "empty-corpus/tsv": "d2de6bb02b20e2f938683ea713f1df8f83c52c45c61cbf9dc40b8144d10f556b",
    "empty-traces/json": "172237eb524d7d2f0117b061157c38a14b5bf32ce1cd1d321ff378d642fb9b63",
    "empty-traces/tsv": "5b7409fdb9c72191483a79e66f74f4d9c01c0acce4c969e4eaec1a9a1c67b056",
    "empty-vertex-list/json": "637dce39885ba219a62f055dbec333ff8c9087cf81c41762dca8bfae87affea6",
    "empty-vertex-list/tsv": "f6fb7fc45eb721e974a574cdb5ee98140f2a4e7acffd00d3e20ab76b460a91f8",
    "guardable-gadget/json": "3ea1bf1cd4741fef5c0cc4b151f2c4fbf6a9059cc6226c6eabbb6846ce596ccf",
    "guardable-gadget/tsv": "e89dffe639a61d4ec9ef1bfe0a5c6eaa4ca51ea8075800e78f1f243d5b0eac07",
    "guardable/json": "46a1331ebd8d914307decda9c05297ce694e69ddeaada722fea2e30bd4926ac4",
    "guardable/tsv": "53693646b5f599e96e7e85d8faf45ae4143c1ca4dc60f2c8c7cbc2c8849660ca",
    "helly/json": "a19ab15b11d5e57a260f5bb2a8298314394189d84845d1a4658ac9d0317af72c",
    "helly/tsv": "3003b6f52bd896fab67a0df3e49778a49234345726b854795cf569b12169a346",
    "hole-gadget/json": "15def1122ab1a5ee3ba02aad346b3ba116ca9103904c24ca43210f50d805cca3",
    "hole-gadget/tsv": "4f30cf36aef7f8f44de230befce659fd5439e5fe38aa616dad2bb7f32916ae89",
    "hts-adversary/json": "8a56eb1bfaaccaf5a605049c7c8aa289aedfdb7b633df00ebe1f7d385d78ff7f",
    "hts-adversary/tsv": "c2cd006bc0f53ca1f90c18607d81c9840c0885442bf976f9a8d87366b163b482",
    "hts-even-t/json": "30ae8e051ec3436d50c2aeccd3061144936ea35be80f61088a5591b7c116b6c8",
    "hts-even-t/tsv": "48c89d57ddeecc4e301ff86b06c3613001dd69a87a135822778834f1d531b990",
    "hts-oversize/json": "267e37e92887e76431c5efc5ddda568e1f92f30e53efee97f3e28e3dda2dc3fa",
    "hts-oversize/tsv": "6a491317acbba009bdabcd32d48200f1c19f27c5f9fa738600c6cf4221af2c3a",
    "hts/json": "00d3eca11ea40b6cc8e7e36623457524c460b3bf47bf55877f1e312f362e48e0",
    "hts/tsv": "36c4d545fbc460a673758fcc36c6f7d724fd57212469b07ac848cecafbc83eb7",
    "kmove-two/json": "6f2936afe4a97562825d585f70d4695c8358b7c7d535cd0e60f2da442d5dee7f",
    "kmove-two/tsv": "2ac893b4f18d7f27dc23586798dd490739e5b27eb57c42873c5bf45434ab068d",
    "kmove/json": "710cbabeb7579bffc17ba6c596e1b8ff6ead2a9a73e9bd736fc67f8e6380cc80",
    "kmove/tsv": "deb87ea94cd215af94e0abe4a4b3ec82c45e30fef9393017362f0f6a87b1240e",
    "malformed-trace/json": "99137109d1993a4a040ba41c3bcaa3c4473280667dfb79f3e4f956d05ffb47b0",
    "malformed-trace/tsv": "4cc9bdd83342aba71fa8022af6cf7486c1ef45acae688df96e66d6e702e30aa5",
    "malformed-turn/json": "6c9ac1a7587051243b72df7ecc3da44e086c6b097bea0f0d012b0297ac5056e3",
    "malformed-turn/tsv": "21b0163134781594aab1cb89852ba53fc2c6bdafd7922201a61e44f576c65361",
    "missing-file/json": "2884b1630c9ee6795c43da11dc3bc5bea60b5e5e060a904d5ca6fffee0c137db",
    "missing-file/tsv": "aae35de8c84a574d462523e3b19e9ce0df5f6e910e37145b569243388f72339b",
    "non-isometric-guard/json": "1ed61d20de4fa50d0be279e50a59d764646bb97737b4fe35e25eda76a3baf8d8",
    "non-isometric-guard/tsv": "c975bbf6890b370d358e785f101254871863f0b8b00c6c8b72da15cbd9ed5c3a",
    "non-isometric-path/json": "08ee7830b964b2d2da57d979a63d08749d52d2c738da80740dc210feee40eda6",
    "non-isometric-path/tsv": "2297cde0eb6a46d2444c96eab379426619e03d95126531981b8fb97c6d00a927",
    "non-path/json": "08ee7830b964b2d2da57d979a63d08749d52d2c738da80740dc210feee40eda6",
    "non-path/tsv": "2297cde0eb6a46d2444c96eab379426619e03d95126531981b8fb97c6d00a927",
    "refusal-copnumber/json": "86c54e81eee75e450edc7f1672ec2c8f5483a2d746912a78385fd783105bae17",
    "refusal-copnumber/tsv": "a44e1cf191523064baa320f1903a9dd44ff3aa8e43b444ae6357237bd8e1a40a",
    "refusal-guardable/json": "001e8cfd45a9d6b9eba754a270cfc3d1ed8eac512e66df862d26e570cbd5ba22",
    "refusal-guardable/tsv": "c8bd0e62d0790fc78fa925c4e5380871861aa479a74efca2c20198b5d8bb0db6",
    "refusal-simulate/json": "87ae1a6312916778c775d73cf15e87bf973f8888097b69e5615a256b32252100",
    "refusal-simulate/tsv": "f97df93a676e7e900c9142d8d8e4dd20984414ba13f2c7400a10bc381a11e363",
    "repeated-path-vertex/json": "310c5227910c8215a754cb03441ecb2118ad99e91875b641270f1756267d8af1",
    "repeated-path-vertex/tsv": "e1a2749f905ca01140c564bf2633b3989f5771a0d160b825a42d1f7633d80bf9",
    "replay-tampered/json": "e947d287b1a6db371ac68ab5140870f813f8aa2b8ff9321fa82f9e2787221e10",
    "replay-tampered/tsv": "3a6b7d64648e5fc51024132e1d452af3f17999b87d5119395cef3a3afe98150d",
    "replay/json": "f8127a3bebe9a7d261de461db01db6495b9ab3f5120648fe9e5fae175de724f1",
    "replay/tsv": "b44afadfdccf3e7f0c27bc92c2f42b619fc456a9b22d87c831173a07aa50cef3",
    "shadow/json": "ce6d0eb6467392046a943dd476f25fd8ae2071abeff7ff31d9681d04821d290d",
    "shadow/tsv": "359486c8976d95023d8a2fae7105f97b5ca9ef92a79ae19ed55121ec58195df4",
    "simulate-greedy/json": "b2eb0ccc970aca95698477d1488a7b3d1ec3e6294d5e22c2e8db0cacbeb030d5",
    "simulate-greedy/tsv": "21b9a812692366ab2dea9fe2c9a88077feef03e6c7d7991f481da5db201415bc",
    "simulate-nonplanar/json": "11d3bfdb8ffa52e92e8deac2f8e5061a39a4c9b3566df93bc239662b7670e3b7",
    "simulate-nonplanar/tsv": "d4d6bd212b5ec7e3076d4b5f3fc5190333b41aa3e267a9787061ffcd8cfd61b0",
    "simulate-optimal/json": "2dd5c011e3a0a29bf22c6759439534d0c96369bb9c97d646cbf1d4cb6ccaf8f6",
    "simulate-optimal/tsv": "8093e7026729706708923f8ced6230a5591c6d3c343c4f18f2593caf09277c3a",
    "simulate-random/json": "56f03735c9a4a01175c5da001bc77892a4d4ee759541b72f2b0c76c344f077ac",
    "simulate-random/tsv": "8a0c5edaeae1d8eee42f5d55345f43d637c7d0a26269abb5014648abc07039e5",
    "simulate-turn-cap/json": "c742df36c4043f2162fe4c67d272dcec2e1b8f93914f21e43aee7195ae32d253",
    "simulate-turn-cap/tsv": "8931538fe5bd0bb926fc772bd959828eb9b017252444c62d03041a31d098e0a6",
    "validate-tampered/json": "e947d287b1a6db371ac68ab5140870f813f8aa2b8ff9321fa82f9e2787221e10",
    "validate-tampered/tsv": "bf99951ccb14813eb2d8401357b043c9d049e920b9a176dfd34c49e87bf0ac3e",
    "validate/json": "f8127a3bebe9a7d261de461db01db6495b9ab3f5120648fe9e5fae175de724f1",
    "validate/tsv": "f0f8d6d516f1f0d6964a6f69f7e8c3872effe81bf0d7776a70852c0ac445942d",
    "vertex-out-of-range/json": "898afd632389e4b09dca916d0104f2b49de4180e1c17f3fd60727769b5cf2f7e",
    "vertex-out-of-range/tsv": "cd7c1e256287c740029b479e0b4ac844a1857110e9581c5ea2436f9118c3331a",
}


@pytest.fixture()
def pinned_files(tmp_path, corpus):
    def write(name, lines):
        f = tmp_path / name
        f.write_text("".join(ln + "\n" for ln in lines))
        return str(f)

    c4 = cycle(4)
    traces = [
        run_two_move_strategy(g, adversary=GreedyAdversary(g, seed=1)).to_json().strip()
        for g in (c4, grid(3, 3))
    ]
    doc = json.loads(traces[1])
    for rec in doc["turns"]:
        if isinstance(rec.get("note"), dict) and "case" in rec["note"]:
            rec["note"]["territory"] += 1
            break
    return {
        "CORPUS": corpus,
        "GADGET": write("gadget.g6", [to_graph6(build_hole_gadget(c4, find_hole(c4)))]),
        "SMALL": write("small.g6", [to_graph6(cycle(5)), to_graph6(grid(2, 3))]),
        "PETERSEN": write("petersen.g6", [to_graph6(petersen())]),
        "C6": write("c6.g6", [to_graph6(cycle(6))]),
        "TRACES": write("traces.jsonl", traces),
        "TAMPERED": write("tampered.jsonl", [traces[0], json.dumps(doc, sort_keys=True)]),
        "MISSING": str(tmp_path / "missing.g6"),
        "JUNK": write("junk.g6", ["# comment", "Cl", "!!notagraph"]),
        "EMPTY": write("empty.g6", ["# nothing here", ""]),
        "BADTRACE": write("bad.jsonl", [traces[0], '{"graph": "Cl"}']),
        "BADTURN": write("badturn.jsonl", ['{"graph": "A_", "turns": [{}], "verdict": {}}']),
    }


class TestPinnedOutputs:
    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    @pytest.mark.parametrize("case", sorted(PINNED_CASES))
    def test_output_digest(self, capsys, tmp_path, pinned_files, case, fmt):
        argv = [pinned_files.get(a, a) for a in PINNED_CASES[case]] + ["--format", fmt]
        code, out, err = run(capsys, argv)
        got = (code, out.replace(str(tmp_path), "TMP"), err.replace(str(tmp_path), "TMP"))
        digest = hashlib.sha256(repr(got).encode()).hexdigest()
        assert digest == PINNED_OUTPUTS[f"{case}/{fmt}"], got
