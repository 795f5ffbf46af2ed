"""Strategy engine tests: capture campaigns, trace validation, fault injection."""

import hashlib
import json
import random

import pytest

from pursuit.constructions import (
    complete,
    connected_graphs,
    cycle,
    grid,
    path,
    petersen,
    random_planar_triangulation,
)
from pursuit.controllers import (
    ControllerFault,
    GreedyAdversary,
    OptimalAdversary,
    PathShadowGuard,
    RandomAdversary,
)
from pursuit.graphs import Graph, from_graph6, mask_of, to_graph6
from pursuit.planar import PlanarityFault, embed
from pursuit.referee import Trace, validate_trace
from pursuit.shadows import PathShadows
from pursuit.solver import GameSpec, solve
from pursuit import strategy
from pursuit.strategy import _Engine, _Mission, run_two_move_strategy


def sparse_planar(n, seed):
    """random_planar_triangulation(n, seed) with seeded edges deleted.

    Deleting edges keeps a graph planar; a deletion that would disconnect
    the graph is skipped.  Between none and all of the non-tree edges go.
    """
    g = random_planar_triangulation(n, seed=seed)
    rng = random.Random(seed)
    edges = g.edges()
    rng.shuffle(edges)
    drop = rng.randrange(g.m - n + 2)
    kept = set(edges)
    for e in edges:
        if drop == 0:
            break
        trial = Graph(n, sorted(kept - {e}))
        if trial.is_connected():
            kept.discard(e)
            drop -= 1
    return Graph(n, sorted(kept))


@pytest.fixture(scope="module")
def small_planar_games():
    """(graph, trace) for every connected planar graph with n <= 6, played
    against the random robber (seed 0) and then the greedy robber."""
    games = []
    for n in range(1, 7):
        for g in connected_graphs(n):
            if embed(g) is None:
                continue
            for adversary in (RandomAdversary(g, seed=0), GreedyAdversary(g)):
                games.append((g, run_two_move_strategy(g, adversary=adversary)))
    return games


def assert_clean_capture(g, adversary, turn_cap=None):
    tr = run_two_move_strategy(g, adversary=adversary, turn_cap=turn_cap)
    assert tr.captured, tr.verdict
    assert tr.verdict["turn"] <= 2 * 10 * g.n * g.n + 1
    assert validate_trace(g, tr) == []
    return tr


class TestCaptures:
    @pytest.mark.parametrize(
        "g",
        [path(2), path(7), cycle(4), cycle(9), complete(4), grid(3, 3), grid(4, 6)],
        ids=["p2", "p7", "c4", "c9", "k4", "grid3x3", "grid4x6"],
    )
    def test_small_families(self, g):
        for seed in (0, 1):
            assert_clean_capture(g, RandomAdversary(g, seed=seed))
            assert_clean_capture(g, GreedyAdversary(g, seed=seed))

    def test_triangulations(self):
        for seed in range(4):
            g = random_planar_triangulation(30, seed=seed)
            assert_clean_capture(g, RandomAdversary(g, seed=seed))
            assert_clean_capture(g, GreedyAdversary(g, seed=seed))

    def test_bigger_triangulation(self):
        g = random_planar_triangulation(80, seed=3)
        assert_clean_capture(g, GreedyAdversary(g))

    def test_grid_against_exact_play(self):
        # The exact table plays the best robber the rules allow, so a capture
        # here is a capture against everything.
        g = grid(3, 3)
        solved, table = solve(GameSpec(g, cops=3, active_cap=2))
        assert solved
        assert_clean_capture(g, OptimalAdversary(g, table))

    def test_cycle_against_exact_play(self):
        g = cycle(8)
        solved, table = solve(GameSpec(g, cops=3, active_cap=2))
        assert solved
        assert_clean_capture(g, OptimalAdversary(g, table))

    def test_single_vertex(self):
        tr = run_two_move_strategy(path(1))
        assert tr.captured

    def test_sparse_planar_fuzz(self):
        # The acceptance campaign plays only grids and triangulations; these
        # are planar graphs between a spanning tree and a triangulation.
        for i in range(30):
            g = sparse_planar(4 + i * 35 // 29, seed=i)
            assert_clean_capture(g, RandomAdversary(g, seed=i))
            assert_clean_capture(g, GreedyAdversary(g, seed=i))

    @pytest.mark.parametrize("g6", ["KO?w~COKX_II", "M?_AA_g@Esd@[VHA?", r"M@K_@oEGE\?STEbB?"])
    def test_pair_with_a_single_contact_guard(self, g6):
        # Two spread guards, one touching the territory at a single vertex:
        # that guard is blocked or classified, as a lone guard would be; a
        # span cut there would glue a walk that repeats the vertex.
        g = from_graph6(g6)
        assert_clean_capture(g, GreedyAdversary(g))
        solved, table = solve(GameSpec(g, cops=3, active_cap=2))
        assert solved
        assert_clean_capture(g, OptimalAdversary(g, table))

    @pytest.mark.parametrize(
        "n, seed",
        [
            (10, 1250), (14, 782), (16, 188), (16, 457), (16, 671), (16, 2247), (24, 3194),
            (30, 247), (30, 515), (30, 3279), (40, 507), (40, 1237), (40, 1624),
        ],
    )
    def test_chase_lands_beside_the_robber(self, n, seed):
        # A chase whose cop stands in the robber's shadow lands even with a
        # cop adjacent to the robber; deferring it let the robber step off
        # the shadow, and the chase repeated until its turn bound.
        g = sparse_planar(n, seed)
        assert_clean_capture(g, GreedyAdversary(g))

    def test_chase_lands_beside_the_exact_robber(self):
        g = from_graph6("IJIKK_KR?")
        assert_clean_capture(g, GreedyAdversary(g))
        solved, table = solve(GameSpec(g, cops=3, active_cap=2))
        assert solved
        assert_clean_capture(g, OptimalAdversary(g, table))


class TestPinnedTraces:
    def test_traces_are_pinned(self):
        # sha256 of every Trace.to_json(), recorded from the engine that
        # lands a chase at once, with a cop beside the robber or not.
        graphs = [(grid(r, c), 0) for r, c in ((12, 12), (13, 13), (14, 14), (15, 15), (3, 30))]
        graphs += [(random_planar_triangulation(n, s), s) for n in (30, 60, 120, 200) for s in (0, 1)]
        graphs += [(sparse_planar(4 + i * 35 // 29, seed=i), i) for i in range(30)]
        h = hashlib.sha256()
        count = 0
        for g, seed in graphs:
            for adversary in (RandomAdversary(g, seed=seed), GreedyAdversary(g, seed=seed)):
                h.update(run_two_move_strategy(g, adversary=adversary).to_json().encode())
                count += 1
        assert (count, h.hexdigest()) == (
            86,
            "bdc1eefed3dc5b455f8fb1ef8a9dbeddf48352beedc05de87f491544e71baa0b",
        )

    def test_pair_builders_are_pinned(self):
        # Games that reach the pair planner's cut-vertex park, its
        # two-attachment chase and its two-adjacent-doors park, which the
        # campaign above never plays; recorded from the engine with a
        # separate shadow-chase class and one bridge helper per call site.
        games = [
            (16, 70, "greedy"), (35, 86, "greedy"), (39, 59, "random"),
            (32, 174, "greedy"), (29, 171, "greedy"), (28, 50, "greedy"),
            (26, 49, "greedy"), (24, 47, "greedy"), (8, 34, "optimal"),
        ]
        h = hashlib.sha256()
        for n, seed, kind in games:
            g = sparse_planar(n, seed)
            if kind == "optimal":
                solved, table = solve(GameSpec(g, 3, active_cap=2))
                assert solved
                adversary = OptimalAdversary(g, table)
            elif kind == "greedy":
                adversary = GreedyAdversary(g, seed=seed)
            else:
                adversary = RandomAdversary(g, seed=seed)
            tr = assert_clean_capture(g, adversary)
            h.update(tr.to_json().encode())
        assert h.hexdigest() == (
            "6b3d9e82e6f2ca0256a269837de71ee0ced39c5cee22237de3b96e28cc3452ec"
        )

    def test_small_planar_corpus_is_pinned(self, small_planar_games):
        # Every small planar graph, exhaustively; recorded from the engine
        # that released guards three ways: a per-mission list, a pass for
        # guards without contacts, and the coverage sweep.
        h = hashlib.sha256()
        for _, tr in small_planar_games:
            h.update(tr.to_json().encode())
        assert (len(small_planar_games), h.hexdigest()) == (
            258,
            "45fdee566e9595786cf9fdc01a561d8442e9cc763c3b750f89db59b08919e309",
        )


class TestShadowRows:
    def test_no_rows_built_twice_in_one_game(self, monkeypatch):
        # A settle keeps the rows of the guards it leaves pinned; the next
        # settle and the replan's reroute reuse them while their host stands.
        built = []
        init = PathShadows.__init__

        def counted(self, g, path, within=None):
            built.append((path.vertices, within))
            init(self, g, path, within)

        monkeypatch.setattr(PathShadows, "__init__", counted)
        total = 0
        for seed in (0, 1):
            g = random_planar_triangulation(200, seed)
            for adv in (RandomAdversary(g, seed=0), GreedyAdversary(g)):
                built.clear()
                run_two_move_strategy(g, adversary=adv)
                assert len(built) == len(set(built))
                total += len(built)
        assert total == 40


class TestTraceSerialization:
    def test_json_round_trip(self):
        g = grid(3, 4)
        tr = assert_clean_capture(g, RandomAdversary(g, seed=5))
        back = Trace.from_json(tr.to_json())
        assert back.graph == tr.graph
        assert back.turns == tr.turns
        assert back.verdict == tr.verdict
        assert validate_trace(g, back) == []

    def test_graph_field_is_graph6(self):
        g = cycle(5)
        tr = run_two_move_strategy(g, adversary=RandomAdversary(g))
        assert tr.graph == to_graph6(g)

    def test_payload_shape(self):
        g = path(4)
        tr = run_two_move_strategy(g, adversary=RandomAdversary(g))
        payload = json.loads(tr.to_json())
        assert set(payload) == {"graph", "turns", "verdict"}
        first = payload["turns"][0]
        assert set(first) == {"t", "mover", "cops", "robber", "moved", "note"}

    def test_determinism_per_seed(self):
        g = random_planar_triangulation(30, seed=7)
        a = run_two_move_strategy(g, adversary=RandomAdversary(g, seed=7))
        b = run_two_move_strategy(g, adversary=RandomAdversary(g, seed=7))
        assert a.to_json() == b.to_json()


class TestMilestones:
    def test_territory_never_grows(self):
        g = random_planar_triangulation(40, seed=2)
        tr = assert_clean_capture(g, GreedyAdversary(g))
        sizes = [
            rec["note"]["territory"]
            for rec in tr.turns
            if isinstance(rec.get("note"), dict) and "case" in rec["note"]
        ]
        assert sizes
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_at_most_two_guards(self):
        g = random_planar_triangulation(40, seed=4)
        tr = assert_clean_capture(g, RandomAdversary(g, seed=4))
        for rec in tr.turns:
            note = rec.get("note")
            if isinstance(note, dict) and "case" in note:
                assert 1 <= len(note["guards"]) <= 2

    def test_every_guard_keeps_a_door_of_its_own(self, small_planar_games):
        # The coverage sweep's post-condition, read off the trace alone:
        # each listed guard has a vertex with a territory neighbor that lies
        # on no other listed guard's path, so none could be released.
        seen = 0
        for g, tr in small_planar_games:
            for rec in tr.turns:
                note = rec["note"]
                if not (isinstance(note, dict) and "case" in note):
                    continue
                paths = [mask_of(gd["path"]) for gd in note["guards"]]
                blocked = 0
                for p in paths:
                    blocked |= p
                territory = g.component_of(rec["robber"], g.vertex_mask() & ~blocked)
                assert bin(territory).count("1") == note["territory"]
                for i, gd in enumerate(note["guards"]):
                    others = 0
                    for k, p in enumerate(paths):
                        if k != i:
                            others |= p
                    assert any(
                        g.adj_mask(v) & territory and not others >> v & 1 for v in gd["path"]
                    ), (to_graph6(g), rec["t"], gd)
                seen += 1
        assert seen


class TestAbortAndInput:
    def test_tiny_cap_aborts(self):
        g = grid(6, 6)
        tr = run_two_move_strategy(g, adversary=GreedyAdversary(g), turn_cap=2)
        assert tr.verdict["outcome"] == "aborted"
        assert tr.verdict["reason"]
        assert validate_trace(g, tr) == []

    @pytest.mark.parametrize("fault", [PlanarityFault, ControllerFault])
    def test_fault_becomes_aborted_trace(self, monkeypatch, fault):
        replan = _Engine._replan
        calls = []

        def failing(engine):
            calls.append(None)
            if len(calls) == 3:
                raise fault("injected")
            return replan(engine)

        monkeypatch.setattr(_Engine, "_replan", failing)
        g = grid(6, 6)
        tr = run_two_move_strategy(g, adversary=GreedyAdversary(g))
        assert len(calls) == 3
        assert tr.verdict == {
            "outcome": "aborted",
            "reason": f"{fault.__name__}: injected",
        }
        assert validate_trace(g, tr) == []

    def test_pinned_guard_start_fault_aborts(self, monkeypatch):
        # A chase that reports done as soon as its cop reaches the path
        # hands the pinned guard a cop outside the robber's shadow.
        monkeypatch.setattr(_Mission, "done", lambda m, robber: m.walk.done)
        g = grid(6, 6)
        tr = run_two_move_strategy(g, adversary=GreedyAdversary(g))
        assert tr.verdict == {
            "outcome": "aborted",
            "reason": "ControllerFault: cop must start inside the robber's shadow",
        }
        assert validate_trace(g, tr) == []

    def test_pinned_guard_drift_fault_aborts(self, monkeypatch):
        class Drifting(PathShadowGuard):
            def step(self, robber):
                # the guard sees the robber jump to a path vertex two
                # positions away, whose shadow is that vertex alone
                verts = self.path.vertices
                far = self.at + 2 if self.at + 2 < len(verts) else self.at - 2
                return super().step(verts[far])

        monkeypatch.setattr(strategy, "PathShadowGuard", Drifting)
        g = random_planar_triangulation(30, seed=0)
        tr = run_two_move_strategy(g, adversary=GreedyAdversary(g))
        assert tr.verdict == {
            "outcome": "aborted",
            "reason": "ControllerFault: shadow drifted more than one step",
        }
        assert validate_trace(g, tr) == []

    def test_other_errors_propagate(self, monkeypatch):
        def failing(engine):
            raise RuntimeError("not a fault")

        monkeypatch.setattr(_Engine, "_replan", failing)
        with pytest.raises(RuntimeError):
            run_two_move_strategy(grid(3, 3), adversary=GreedyAdversary(grid(3, 3)))

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError):
            run_two_move_strategy(path(3), turn_cap=0)

    def test_nonplanar_rejected(self):
        with pytest.raises(ValueError):
            run_two_move_strategy(petersen())

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            run_two_move_strategy(g)

    def test_foreign_embedding_rejected(self):
        with pytest.raises(ValueError):
            run_two_move_strategy(path(4), e=embed(path(3)))
        with pytest.raises(ValueError):
            run_two_move_strategy(cycle(6), e=embed(path(6)))


def synthetic(g, turns, verdict):
    return Trace(graph=to_graph6(g), turns=tuple(turns), verdict=verdict)


def rec(t, mover, cops, robber, moved, note=None):
    return {
        "t": t,
        "mover": mover,
        "cops": list(cops),
        "robber": robber,
        "moved": list(moved),
        "note": note,
    }


STILL, ALL = (False, False, False), (True, True, True)
STOPPED = {"outcome": "aborted", "reason": "stopped for the test"}


def opening(cops=(0, 0, 0), robber=5):
    return [rec(0, "place-cops", cops, None, ALL), rec(1, "place-robber", cops, robber, STILL)]


def one_turn(note=None):
    """The opening and one cops' turn, no cop moving, that carries note."""
    return opening() + [rec(2, "cops", (0, 0, 0), 5, STILL, note)]


def milestone(*guards, case="a", territory=4):
    return {"case": case, "guards": list(guards), "territory": territory}


def guard(cop, kind, path, host=None):
    return {"cop": cop, "kind": kind, "path": list(path), "host": host}


PARK = guard(0, "park", [0, 1])  # cop 0 on 0 covers 0-1; the robber's side 2..5 has 4 vertices
HOST = list(range(6))

# One minimal path(6) game per validator finding that no fuller test
# produces: (turns, verdict, the exact findings).
FAULTS = {
    "schema-record": (opening() + ["x"], STOPPED, ["schema: record 2 is not an object"]),
    "schema-moved": (
        opening() + [rec(2, "cops", (0, 0, 0), 5, (False, False))],
        STOPPED,
        ["schema: record 2 moved flags are malformed"],
    ),
    "schema-no-robber": (
        opening() + [rec(2, "cops", (0, 0, 0), None, STILL)],
        STOPPED,
        ["schema: record 2 has no robber position"],
    ),
    "schema-robber": (
        opening() + [rec(2, "cops", (0, 0, 0), 6, STILL)],
        STOPPED,
        ["schema: record 2 robber position is malformed"],
    ),
    "schema-placed-robber": (
        [rec(0, "place-cops", (0, 0, 0), 5, ALL), rec(1, "place-robber", (0, 0, 0), 5, STILL)],
        STOPPED,
        ["schema: record 0 places a robber"],
    ),
    "milestone-case": (
        one_turn(milestone(PARK, case="d")),
        STOPPED,
        ["milestone: unknown case 'd' at turn 2"],
    ),
    "milestone-guard-list": (
        one_turn(milestone()),
        STOPPED,
        ["milestone: guard list malformed at turn 2"],
    ),
    "milestone-guard-entry": (
        one_turn(milestone("park")),
        STOPPED,
        ["milestone: guard entry malformed at turn 2"],
    ),
    "milestone-guard-cop": (
        one_turn(milestone(guard(3, "park", [0, 1]))),
        STOPPED,
        ["milestone: bad guard cop index at turn 2"],
    ),
    "milestone-guard-kind": (
        one_turn(milestone(guard(0, "post", [0, 1]))),
        STOPPED,
        ["milestone: unknown guard kind 'post' at turn 2"],
    ),
    "milestone-guard-path": (
        one_turn(milestone(guard(0, "park", [0, 2]))),
        STOPPED,
        ["milestone: guard path of cop 0 is not a path at turn 2"],
    ),
    "milestone-park-host": (
        one_turn(milestone(guard(0, "park", [0, 1], HOST))),
        STOPPED,
        ["milestone: parked guard carries a host at turn 2"],
    ),
    "park-cover": (
        one_turn(milestone(guard(0, "park", [0, 1, 2]), territory=3)),
        STOPPED,
        ["park: cop 0 does not cover its path at turn 2"],
    ),
    "milestone-host": (
        one_turn(milestone(guard(0, "shadow", [0, 1], [2, 3, 4, 5]))),
        STOPPED,
        ["milestone: guard host malformed at turn 2"],
    ),
    "milestone-robber-guarded": (
        opening((4, 0, 0)) + [rec(2, "cops", (4, 0, 0), 5, STILL, milestone(guard(0, "park", [4, 5])))],
        STOPPED,
        ["milestone: robber stands on a guarded path at turn 2"],
    ),
    "milestone-robber-turn": (
        one_turn() + [rec(3, "robber", (0, 0, 0), 5, STILL, milestone(PARK))],
        STOPPED,
        ["milestone: note outside a cops' turn at 3"],
    ),
    "milestone-territory-grew": (
        opening((1, 0, 0))
        + [
            rec(2, "cops", (1, 0, 0), 5, STILL, milestone(guard(0, "park", [0, 1, 2]), territory=3)),
            rec(3, "robber", (1, 0, 0), 5, STILL),
            rec(4, "cops", (1, 0, 0), 5, STILL, milestone(guard(0, "park", [0, 1]))),
        ],
        STOPPED,
        ["milestone: territory grew 3 to 4 at turn 4"],
    ),
    "milestone-case-change": (
        one_turn(milestone(PARK))
        + [
            rec(3, "robber", (0, 0, 0), 5, STILL),
            rec(4, "cops", (0, 0, 0), 5, STILL, milestone(PARK, case="b")),
        ],
        STOPPED,
        ["milestone: case change without territory decrease at turn 4"],
    ),
    "legality-placement": (
        [rec(0, "place-cops", (0, 0, 0), None, ALL), rec(1, "place-robber", (1, 0, 0), 5, STILL)],
        STOPPED,
        ["legality: cops changed while the robber was placed"],
    ),
    "moved-flag-placement": (
        [rec(0, "place-cops", (0, 0, 0), None, ALL), rec(1, "place-robber", (0, 0, 0), 5, (True, False, False))],
        STOPPED,
        ["moved-flag: robber placement flags cop movement"],
    ),
    "moved-flag-cop-placement": (
        [rec(0, "place-cops", (0, 0, 0), None, (True, False, True)), rec(1, "place-robber", (0, 0, 0), 5, STILL)],
        STOPPED,
        ["moved-flag: cop placement leaves a cop unflagged"],
    ),
    "legality-cop-jump": (
        opening() + [rec(2, "cops", (2, 0, 0), 5, (True, False, False))],
        STOPPED,
        ["legality: cop 0 jumped 0 to 2 on turn 2"],
    ),
    "moved-flag-cop": (
        opening() + [rec(2, "cops", (1, 0, 0), 5, STILL)],
        STOPPED,
        ["moved-flag: cop 0 flag disagrees with positions on turn 2"],
    ),
    "legality-robber-on-cops-turn": (
        opening() + [rec(2, "cops", (0, 0, 0), 4, STILL)],
        STOPPED,
        ["legality: robber moved on the cops' turn 2"],
    ),
    "legality-cops-on-robber-turn": (
        one_turn() + [rec(3, "robber", (1, 0, 0), 5, STILL)],
        STOPPED,
        ["legality: cops moved on the robber's turn 3"],
    ),
    "moved-flag-robber-turn": (
        one_turn() + [rec(3, "robber", (0, 0, 0), 5, (True, False, False))],
        STOPPED,
        ["moved-flag: robber turn 3 flags cop movement"],
    ),
    "legality-play-after-capture": (
        opening((4, 0, 0))
        + [
            rec(2, "cops", (4, 0, 0), 5, STILL),
            rec(3, "robber", (4, 0, 0), 4, STILL),
            rec(4, "cops", (4, 0, 0), 4, STILL),
        ],
        {"outcome": "captured", "turn": 4},
        ["legality: play continued with the robber caught at turn 3"],
    ),
    "shadow-off-path": (
        opening((2, 0, 0))
        + [
            rec(2, "cops", (2, 0, 0), 5, STILL, milestone(guard(0, "shadow", [0, 1, 2], HOST), territory=3)),
            rec(3, "robber", (2, 0, 0), 5, STILL),
            rec(4, "cops", (3, 0, 0), 5, (True, False, False)),
        ],
        STOPPED,
        ["shadow: cop 0 is off its path on turn 4"],
    ),
    "shadow-host": (
        one_turn(milestone(guard(0, "shadow", [0, 1, 2], HOST[:5]), territory=3)),
        STOPPED,
        ["shadow: robber outside the host of cop 0 on turn 2"],
    ),
    "verdict-capture-turn": (
        opening((4, 0, 0)) + [rec(2, "cops", (5, 0, 0), 5, (True, False, False))],
        {"outcome": "captured", "turn": 3},
        ["verdict: capture turn disagrees with the last record"],
    ),
    "verdict-no-cop": (
        one_turn(),
        {"outcome": "captured", "turn": 2},
        ["verdict: captured without a cop on the robber"],
    ),
    "verdict-aborted-caught": (
        opening((4, 0, 0)) + [rec(2, "cops", (5, 0, 0), 5, (True, False, False))],
        STOPPED,
        ["verdict: aborted although the robber was caught"],
    ),
    "verdict-no-reason": (
        one_turn(),
        {"outcome": "aborted"},
        ["verdict: aborted without a reason"],
    ),
    "verdict-outcome": (
        one_turn(),
        {"outcome": "won"},
        ["verdict: unknown outcome 'won'"],
    ),
}


def _first_guard(p, turn):
    return p["turns"][turn]["note"]["guards"][0]


# Edits to a clean grid(4, 4) game against GreedyAdversary, each storing a
# bool or a float where the schema wants an int (True == 1 in Python).
NON_INTS = {
    "t-bool": (lambda p: p["turns"][1].update(t=True), ["turn: record 1 carries t=True"]),
    "t-float": (lambda p: p["turns"][1].update(t=1.0), ["turn: record 1 carries t=1.0"]),
    "cop-bool": (lambda p: p["turns"][2]["cops"].__setitem__(1, True), ["schema: record 2 cop positions are malformed"]),
    "robber-float": (lambda p: p["turns"][1].update(robber=15.0), ["schema: record 1 robber position is malformed"]),
    "guard-cop-bool": (lambda p: _first_guard(p, 2).update(cop=True), ["milestone: bad guard cop index at turn 2"]),
    "path-bool": (
        lambda p: _first_guard(p, 2)["path"].__setitem__(1, True),
        ["milestone: guard path of cop 1 is not a path at turn 2"],
    ),
    "host-bool": (
        lambda p: _first_guard(p, 4)["host"].__setitem__(0, False),
        ["milestone: guard host malformed at turn 4"]
        + [f"park: cop 1 left its post on turn {t}" for t in (6, 8, 10, 12)],
    ),
    "territory-float": (
        lambda p: p["turns"][2]["note"].update(territory=13.0),
        ["milestone: territory recorded as 13.0, recomputed 13 at turn 2"],
    ),
    "verdict-turn-float": (
        lambda p: p["verdict"].update(turn=26.0),
        ["verdict: capture turn disagrees with the last record"],
    ),
}


class TestValidatorFaults:
    def test_three_movers_flagged(self):
        g = cycle(4)
        tr = synthetic(
            g,
            [
                rec(0, "place-cops", (0, 1, 2), None, (True, True, True)),
                rec(1, "place-robber", (0, 1, 2), 3, (False, False, False)),
                rec(2, "cops", (1, 2, 3), 3, (True, True, True)),
            ],
            {"outcome": "captured", "turn": 2},
        )
        out = validate_trace(g, tr)
        assert out == ["active-cap: three cops moved on turn 2"]

    def test_robber_teleport_flagged(self):
        g = path(6)
        tr = synthetic(
            g,
            [
                rec(0, "place-cops", (0, 1, 2), None, (True, True, True)),
                rec(1, "place-robber", (0, 1, 2), 5, (False, False, False)),
                rec(2, "cops", (0, 1, 2), 5, (False, False, False)),
                rec(3, "robber", (0, 1, 2), 3, (False, False, False)),
            ],
            {"outcome": "aborted", "reason": "stopped for the test"},
        )
        out = validate_trace(g, tr)
        assert out == ["legality: robber jumped 5 to 3 on turn 3"]

    def test_deserting_park_flagged(self):
        g = path(5)
        note = {
            "case": "a",
            "guards": [{"cop": 0, "kind": "park", "path": [2], "host": None}],
            "territory": 2,
        }
        tr = synthetic(
            g,
            [
                rec(0, "place-cops", (2, 2, 2), None, (True, True, True)),
                rec(1, "place-robber", (2, 2, 2), 4, (False, False, False)),
                rec(2, "cops", (2, 2, 2), 4, (False, False, False), note),
                rec(3, "robber", (2, 2, 2), 4, (False, False, False)),
                rec(4, "cops", (1, 2, 2), 4, (True, False, False)),
            ],
            {"outcome": "aborted", "reason": "stopped for the test"},
        )
        out = validate_trace(g, tr)
        assert out == ["park: cop 0 left its post on turn 4"]

    def test_off_path_milestone_flagged_once(self):
        # The milestone that attaches the guard already reports the cop off
        # its path; the discipline check on the same turn must not repeat it.
        g = path(6)
        note = {
            "case": "a",
            "guards": [{"cop": 0, "kind": "shadow", "path": [0, 1, 2], "host": [0, 1, 2, 3, 4, 5]}],
            "territory": 3,
        }
        tr = synthetic(
            g,
            [
                rec(0, "place-cops", (3, 0, 0), None, (True, True, True)),
                rec(1, "place-robber", (3, 0, 0), 5, (False, False, False)),
                rec(2, "cops", (3, 0, 0), 5, (False, False, False), note),
            ],
            {"outcome": "aborted", "reason": "stopped for the test"},
        )
        assert validate_trace(g, tr) == ["shadow: cop 0 is off its path at turn 2"]

    def test_restless_leisurely_guard_flagged(self):
        g = path(6)
        note = {
            "case": "a",
            "guards": [
                {
                    "cop": 0,
                    "kind": "leisurely",
                    "path": [0, 1, 2],
                    "host": [0, 1, 2, 3, 4, 5],
                }
            ],
            "territory": 3,
        }
        turns = [
            rec(0, "place-cops", (0, 0, 0), None, (True, True, True)),
            rec(1, "place-robber", (0, 0, 0), 5, (False, False, False)),
            rec(2, "cops", (0, 0, 0), 5, (False, False, False), note),
            rec(3, "robber", (0, 0, 0), 5, (False, False, False)),
            rec(4, "cops", (1, 0, 0), 5, (True, False, False)),
            rec(5, "robber", (1, 0, 0), 5, (False, False, False)),
            rec(6, "cops", (0, 0, 0), 5, (True, False, False)),
            rec(7, "robber", (0, 0, 0), 5, (False, False, False)),
            rec(8, "cops", (1, 0, 0), 5, (True, False, False)),
        ]
        tr = synthetic(g, turns, {"outcome": "aborted", "reason": "stopped"})
        out = validate_trace(g, tr)
        assert len(out) == 1
        assert out[0].startswith("rest: cop 0 moved 3 straight turns")

    @pytest.mark.parametrize(
        "route, findings",
        [
            # The robber steps onto the guard's path at turn 3.  That grants
            # no rest exemption: a cop in the wide shadow of a robber on its
            # path would stand on it, so that turn is already a shadow
            # finding, and the run still breaks the rest window at turn 8.
            (
                (2, 3),
                [
                    "shadow: cop 0 is outside the wide shadow on turn 4",
                    "rest: cop 0 moved 3 straight turns on a path of length 2 at turn 8",
                ],
            ),
            ((4, 3), ["rest: cop 0 moved 3 straight turns on a path of length 2 at turn 8"]),
        ],
    )
    def test_leisurely_rest_counts_robber_on_path(self, route, findings):
        g = path(6)
        note = milestone(guard(0, "leisurely", [0, 1, 2], HOST), territory=3)
        step = (True, False, False)
        a, b = route
        turns = opening((1, 5, 5), 3) + [
            rec(2, "cops", (1, 5, 5), 3, STILL, note),
            rec(3, "robber", (1, 5, 5), a, STILL),
            rec(4, "cops", (0, 5, 5), a, step),
            rec(5, "robber", (0, 5, 5), b, STILL),
            rec(6, "cops", (1, 5, 5), b, step),
            rec(7, "robber", (1, 5, 5), b, STILL),
            rec(8, "cops", (2, 5, 5), b, step),
        ]
        assert validate_trace(g, synthetic(g, turns, STOPPED)) == findings

    def test_path_vertex_out_of_the_robbers_reach_sets_no_bound(self):
        # The host leaves out 3, so the robber on 5 or 4 reaches no vertex of
        # the guarded path inside it, and no cop position on it is too far.
        g = path(6)
        note = milestone(guard(0, "shadow", [0, 1, 2], [0, 1, 2, 4, 5]), territory=3)
        turns = opening() + [
            rec(2, "cops", (0, 0, 0), 5, STILL, note),
            rec(3, "robber", (0, 0, 0), 4, STILL),
            rec(4, "cops", (1, 0, 0), 4, (True, False, False)),
        ]
        assert validate_trace(g, synthetic(g, turns, STOPPED)) == []

    def test_repeated_robber_and_host_flagged_each_time(self, monkeypatch):
        # The robber stands on 3 at three cops' turns (and on 4 at one) in
        # one host; the cop is outside the wide shadow whenever it is on 0.
        g = path(7)
        note = {
            "case": "a",
            "guards": [{"cop": 0, "kind": "shadow", "path": [0, 1, 2], "host": [0, 1, 2, 3, 4, 5]}],
            "territory": 4,
        }
        still, step = (False, False, False), (True, False, False)
        turns = [
            rec(0, "place-cops", (0, 0, 0), None, (True, True, True)),
            rec(1, "place-robber", (0, 0, 0), 3, still),
            rec(2, "cops", (0, 0, 0), 3, still, note),
            rec(3, "robber", (0, 0, 0), 3, still),
            rec(4, "cops", (1, 0, 0), 3, step),
            rec(5, "robber", (1, 0, 0), 3, still),
            rec(6, "cops", (0, 0, 0), 3, step),
            rec(7, "robber", (0, 0, 0), 4, still),
            rec(8, "cops", (0, 0, 0), 4, still),
            rec(9, "robber", (0, 0, 0), 3, still),
            rec(10, "cops", (0, 0, 0), 3, still),
        ]
        tr = synthetic(g, turns, {"outcome": "aborted", "reason": "stopped"})
        calls = []
        bfs = Graph._bfs
        monkeypatch.setattr(Graph, "_bfs", lambda self, src, allowed: calls.append(src) or bfs(self, src, allowed))
        out = validate_trace(g, tr)
        assert out == [f"shadow: cop 0 is outside the wide shadow on turn {t}" for t in (2, 6, 10)]
        assert sorted(calls) == [3, 4]  # one masked BFS per (robber, host) pair

    def test_tampered_territory_flagged(self):
        g = grid(4, 4)
        tr = assert_clean_capture(g, RandomAdversary(g, seed=1))
        payload = json.loads(tr.to_json())
        for r in payload["turns"]:
            if isinstance(r.get("note"), dict) and "case" in r["note"]:
                r["note"]["territory"] += 1
                break
        bad = Trace.from_json(json.dumps(payload))
        out = validate_trace(g, bad)
        assert out
        assert all(v.startswith("milestone:") for v in out)

    def test_wrong_graph_flagged(self):
        g = cycle(5)
        tr = run_two_move_strategy(g, adversary=RandomAdversary(g))
        out = validate_trace(cycle(6), tr)
        assert any(v.startswith("schema:") for v in out)

    @pytest.mark.parametrize("name", FAULTS)
    def test_each_finding(self, name):
        turns, verdict, findings = FAULTS[name]
        g = path(6)
        assert validate_trace(g, synthetic(g, turns, verdict)) == findings

    @pytest.mark.parametrize("name", NON_INTS)
    def test_non_int_numbers_flagged(self, name):
        edit, findings = NON_INTS[name]
        g = grid(4, 4)
        payload = json.loads(assert_clean_capture(g, GreedyAdversary(g)).to_json())
        edit(payload)
        tampered = Trace.from_json(json.dumps(payload))
        assert validate_trace(g, tampered) == findings
        assert validate_trace(g, Trace.from_json(tampered.to_json())) == findings

    def test_empty_trace_flagged(self):
        tr = synthetic(path(3), [], {"outcome": "captured", "turn": 0})
        assert validate_trace(path(3), tr) == ["schema: trace has no turns"]
