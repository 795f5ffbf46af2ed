"""Exact-solver tests: frozen cop numbers, replay soundness, guard mode."""

import hashlib
import itertools
import random

import pytest

from pursuit.constructions import (
    build_guard_adversary,
    build_hole_gadget,
    build_hts,
    complete,
    connected_graphs,
    cycle,
    grid,
    path,
    petersen,
    random_connected,
    random_planar_triangulation,
)
from pursuit.graphs import Graph, domination_number, from_graph6, shortest_path
from pursuit.helly import is_dismantlable
from pursuit.solver import (
    COPS,
    DEFAULT_STATE_BUDGET,
    ROBBER,
    BudgetExceeded,
    GameSpec,
    StrategyTable,
    _move_table,
    _multiset_index,
    cop_number,
    estimate_states,
    is_guardable,
    k_move_cop_number,
    solve,
)


class TestFrozenCopNumbers:
    def test_paths_are_cop_win(self):
        for n in range(2, 9):
            assert cop_number(path(n), 3) == 1

    def test_trees_are_cop_win(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_connected(rng.randrange(3, 9), 0.0, rng.randrange(10**6))
            assert cop_number(g, 2) == 1

    def test_complete_graphs_are_cop_win(self):
        for n in (2, 4, 6):
            assert cop_number(complete(n), 2) == 1

    def test_cycles_need_two_cops(self):
        for n in range(4, 11):
            assert cop_number(cycle(n), 3) == 2

    def test_grids_need_two_cops(self):
        # Bipartite with no leaves, so no corner exists and one cop loses.
        assert cop_number(grid(3, 3), 2) == 2
        assert cop_number(grid(2, 5), 2) == 2
        assert cop_number(grid(1, 5), 2) == 1

    def test_petersen_needs_three_cops(self):
        assert cop_number(petersen(), 4) == 3

    def test_none_when_budget_of_cops_too_small(self):
        assert cop_number(petersen(), 2) is None
        assert cop_number(cycle(5), 1) is None

    def test_single_vertex(self):
        assert cop_number(Graph(1, []), 1) == 1


class TestActiveCap:
    def test_one_mover_square(self):
        assert k_move_cop_number(cycle(4), 1, 4) == 2

    def test_one_mover_petersen_pinched_by_domination(self):
        # c1 >= c = 3 and c1 <= domination number, which is also 3.
        assert domination_number(petersen()) == 3
        assert k_move_cop_number(petersen(), 1, 3) == 3

    def test_cap_never_below_unrestricted(self):
        rng = random.Random(23)
        for _ in range(12):
            g = random_connected(rng.randrange(3, 7), rng.random() * 0.5, rng.randrange(10**6))
            c = cop_number(g, 4)
            c2 = k_move_cop_number(g, 2, 4)
            c1 = k_move_cop_number(g, 1, 4)
            assert c1 >= c2 >= c

    def test_dominating_parking_bounds_one_mover(self):
        rng = random.Random(29)
        for _ in range(8):
            g = random_connected(rng.randrange(3, 7), rng.random() * 0.4, rng.randrange(10**6))
            c1 = k_move_cop_number(g, 1, g.n)
            assert c1 is not None and c1 <= domination_number(g)


class TestSpecValidation:
    def test_rejects_bad_parameters(self):
        g = path(3)
        with pytest.raises(ValueError):
            GameSpec(g, 0)
        with pytest.raises(ValueError):
            GameSpec(g, 2, active_cap=3)
        with pytest.raises(ValueError):
            GameSpec(g, 2, active_cap=0)

    def test_rejects_empty_graph(self):
        for call in (
            lambda: GameSpec(Graph(0), 1),
            lambda: solve(GameSpec(Graph(0), 1)),
            lambda: cop_number(Graph(0), 2),
            lambda: k_move_cop_number(Graph(0), 1, 2),
        ):
            with pytest.raises(ValueError, match="^empty graph$"):
                call()


def _restricted_adjacency(g: Graph, hv: tuple[int, ...]) -> list[list[int]]:
    """The adjacency is_guardable passes: g's edges inside hv, relabelled 0..len(hv)-1."""
    local = {v: k for k, v in enumerate(hv)}
    return [[local[u] for u in g.neighbors(v) if u in local] for v in hv]


class TestMoveTable:
    ADJACENCIES = {
        "P4": [path(4).neighbors(v) for v in range(4)],
        "C5": [cycle(5).neighbors(v) for v in range(5)],
        "K4": [complete(4).neighbors(v) for v in range(4)],
        "K1,3": [Graph(4, [(0, 1), (0, 2), (0, 3)]).neighbors(v) for v in range(4)],
        "Petersen": [petersen().neighbors(v) for v in range(10)],
        # a path 0-1-2 with a pendant 4, and 8 cut off inside the 3x3 grid
        "grid3x3-restricted": _restricted_adjacency(grid(3, 3), (0, 1, 2, 4, 8)),
    }

    @staticmethod
    def _brute_rows(adj, c: int, cap: int) -> list[list[int]]:
        m = len(adj)
        rows = []
        for cops in itertools.combinations_with_replacement(range(m), c):
            reached = set()
            for moved in itertools.product(*[(v, *adj[v]) for v in cops]):
                if sum(u != v for u, v in zip(moved, cops)) <= cap:
                    reached.add(_multiset_index(tuple(sorted(moved)), m))
            rows.append(sorted(reached))
        return rows

    @pytest.mark.parametrize("name", sorted(ADJACENCIES))
    def test_rows_match_brute_force(self, name):
        adj = self.ADJACENCIES[name]
        for c in range(1, 4):
            for cap in range(1, c + 1):
                rows = _move_table(adj, c, cap)
                assert rows == self._brute_rows(adj, c, cap), (c, cap)
                assert all(a < b for row in rows for a, b in zip(row, row[1:]))


class TestBudget:
    def test_refusal_carries_estimate(self):
        for call, estimate, budget in (
            (lambda: solve(GameSpec(petersen(), 3), budget=1000), estimate_states(10, 3), 1000),
            (lambda: cop_number(petersen(), 3, budget=1000), estimate_states(10, 2), 1000),
            (lambda: k_move_cop_number(petersen(), 1, 3, budget=1000), estimate_states(10, 2), 1000),
            (lambda: solve(GameSpec(path(30), 6)), estimate_states(30, 6), DEFAULT_STATE_BUDGET),
        ):
            with pytest.raises(BudgetExceeded) as exc:
                call()
            assert exc.value.estimate == estimate
            assert exc.value.budget == budget
            assert str(exc.value) == f"estimated {estimate} states exceeds budget {budget}"

    def test_guard_budget(self):
        with pytest.raises(BudgetExceeded) as exc:
            is_guardable(cycle(6), (0, 1, 2), 1, budget=10)
        assert exc.value.budget == 10
        assert is_guardable(cycle(6), (0, 1, 2), 1, budget=10**6)


def _digest(items) -> str:
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()


# sha256 of repr(sorted(table.rank.items())), recorded from the dict-based
# solver that the flat solver replaced.
PINNED_TABLES = {
    "grid4x5-c3-cap2": "335c05bbe5d0cc9901afaceca19deb16925e9ccfdbbc9f6cdab2f4c636b5ba28",
    "petersen-c3": "539864b1f0e08cc06d0173f82909724135e86fb0a1e3bd2e5bec8901a8d7222d",
    "cycle7-c2": "b201daa07a73fd59064526de1497e7130c0915d672454a06a20571c7a734d86e",
    "tri24-0-c2": "dbad0c20a80a36d389c2c6d505ac699ace5583fedefd6c5c5a4b38e9d122edd8",
    "tri24-0-c2-cap1": "af154259034476d640277bb05b47c2584201c81414f5d1684fb56a31f88bf17e",
    "tri24-1-c2": "20a257d477c7e4a1328821d079a13e1d38dbb7426f3abd2e2f28b8dff93091c0",
    "tri24-1-c2-cap1": "3ca4c54278b019a1adfd54acbffa29ce08176293bdfc6a6e12a50af8b810b7bb",
    "tri24-2-c2": "3b1cf2fbdf41c37965b847508a74463362a9fa225beff188a8f94f4c17f536a4",
    "tri24-2-c2-cap1": "431375354593e20a4dfaabf4ec135e9ae7025728a657d3b11d6cfddffb327f59",
    "tri24-3-c2": "51f954e3a023b8d3783f3466dff5a18d598e3a4772c80c1a5374f53ec3e5e5ea",
    "tri24-3-c2-cap1": "bb8a5c9318eabf47e8442bd02be7c3a519f95cff9c0258e85ba407343a25f265",
    "tri24-4-c2": "5a146da5301871a30997df84c9d75b116baea4d84869bd6a2203121afd950027",
    "tri24-4-c2-cap1": "5b56ee433a59e3620152ffd4b9da39eb9c95de24f9f6643981744e5e0f66347f",
    "tri24-5-c2": "e7104fa06d7e51d34653e2151b722bf65461cace5c6277d3e0fe281ad8afc7d3",
    "tri24-5-c2-cap1": "ff790adde2824d2ae76aecad2efa258cdd83e2a717fde5713789deb5791069e6",
    "tri24-6-c2": "cc500f0b6462183aaa496981996b538d60ce43f0977730798e112750a0b21b9b",
    "tri24-6-c2-cap1": "0111a7098e58cdea021d33dfb0eeeff07700789d0e45095ac1ac8acb854aa081",
    "tri24-7-c2": "5ba422c6f205530f9470b9cbf962fe2dd489cf5160e444c7801a79c7cfef0a20",
    "tri24-7-c2-cap1": "be9cc41860096e218eb45d9ffa2d493b3ffd995765b807aee8aae5d967aa5776",
    "tri24-8-c2": "9b16515454dacb962ad522e977a41fcc8db692eafc3dfd9291f07c6318ee4178",
    "tri24-8-c2-cap1": "627786fded2c80dc4c87eff3fa81e0c24ccb5e945e92e8ca4c930e3fc0d50b64",
}


# table.initial of each PINNED_TABLES spec.
PINNED_INITIAL = {
    "cycle7-c2": (0, 2),
    "grid4x5-c3-cap2": (0, 2, 13),
    "petersen-c3": (0, 2, 6),
    "tri24-0-c2": (0, 2),
    "tri24-0-c2-cap1": (0, 2),
    "tri24-1-c2": (1, 6),
    "tri24-1-c2-cap1": (3, 18),
    "tri24-2-c2": (1, 3),
    "tri24-2-c2-cap1": (1, 3),
    "tri24-3-c2": (1, 2),
    "tri24-3-c2-cap1": (1, 2),
    "tri24-4-c2": (0, 2),
    "tri24-4-c2-cap1": (0, 2),
    "tri24-5-c2": (0, 0),
    "tri24-5-c2-cap1": (0, 0),
    "tri24-6-c2": (0, 1),
    "tri24-6-c2-cap1": (0, 2),
    "tri24-7-c2": (0, 0),
    "tri24-7-c2-cap1": (0, 1),
    "tri24-8-c2": (0, 3),
    "tri24-8-c2-cap1": (0, 3),
}

# sha256 of repr() of the list of (cop_number(g, 3), k_move_cop_number(g, 1, 3),
# k_move_cop_number(g, 2, 3)) over connected_graphs(n) for n = 1..7, in order.
PINNED_COP_NUMBERS = "9099b27f3847354d47f1254651191bc8ad7f1eb8ef02c3dbade5c2df98846186"
# sha256 of repr() of the list of is_guardable(g, h, cops, strict) for cops in
# (1, 2) and strict in (True, False), over every connected graph with n <= 6
# and, per graph, h = shortest_path(g, a, b).vertices for each pair a < b
# ("paths") or h = every vertex ("whole").  Every path verdict is True.
PINNED_GUARD_VERDICTS = {
    "paths": "d453ac7b24e0f6801a0b1f43d3739eaf3d099ceb00ec90053e90d0387034b0d1",
    "whole": "f5502d18a2f6408146b19c37728749a1e4521a82330cddce3235d5467c964914",
}


def _pinned_spec(name: str) -> GameSpec:
    if name == "grid4x5-c3-cap2":
        return GameSpec(grid(4, 5), 3, active_cap=2)
    if name == "petersen-c3":
        return GameSpec(petersen(), 3)
    if name == "cycle7-c2":
        return GameSpec(cycle(7), 2)
    _, seed, _, *cap = name.split("-")
    return GameSpec(random_planar_triangulation(24, int(seed)), 2, active_cap=1 if cap else None)


# Guard verdicts: the exact-solve benchmark's grid targets (seeds 1 and 7919),
# whole cycles, and isometric paths of cycles, under both entry semantics.
PINNED_GRID_GUARDS = [
    (7, (14, 15, 16, 17, 18, 19, 21, 28, 35), 2, True),
    (12, (91, 92, 103, 115, 127, 139), 1, True),
    (7, (17, 18, 25), 2, True),
    (12, (14, 15, 16, 17, 26, 38, 50, 62, 74, 86, 98, 110, 122), 1, True),
]
# Non-Helly cores whose hole gadget defeats one guard but not two.
PINNED_GADGET_CORES = ["EsPw", "EsP_", "EsZo", "Eutw", "Eqoo", "Er~o", "EsOo", "Eqyw", "Eqqo", "Euhw"]


class TestPinnedAnswers:
    @pytest.mark.parametrize("name", sorted(PINNED_TABLES))
    def test_tables_match_recorded_digests(self, name):
        spec = _pinned_spec(name)
        won, table = solve(spec)
        assert won
        assert _digest(table.rank.items()) == PINNED_TABLES[name]
        # Each ranked cop state moves to the least placement, over every
        # stay-or-step choice under the cap, whose robber state ranks one lower.
        g, cap = spec.graph, spec.active_cap or spec.cops
        successors = {}
        expected = {}
        for (cops, r, side), k in table.rank.items():
            if side != COPS or k == 0:
                continue
            if cops not in successors:
                successors[cops] = sorted(
                    {
                        tuple(sorted(moved))
                        for moved in itertools.product(*[(v, *g.neighbors(v)) for v in cops])
                        if sum(u != v for u, v in zip(moved, cops)) <= cap
                    }
                )
            expected[cops, r, COPS] = next(
                nxt for nxt in successors[cops] if table.rank.get((nxt, r, ROBBER)) == k - 1
            )
        assert dict(table.move.items()) == expected

    @pytest.mark.parametrize("name", sorted(PINNED_TABLES))
    def test_initial_placements(self, name):
        assert solve(_pinned_spec(name))[1].initial == PINNED_INITIAL[name]

    def test_small_graph_cop_numbers(self):
        values = [
            (cop_number(g, 3), k_move_cop_number(g, 1, 3), k_move_cop_number(g, 2, 3))
            for n in range(1, 8)
            for g in connected_graphs(n)
        ]
        assert len(values) == 996
        assert hashlib.sha256(repr(values).encode()).hexdigest() == PINNED_COP_NUMBERS

    def test_small_graph_guard_verdicts(self):
        targets = {"paths": [], "whole": []}
        for n in range(1, 7):
            for g in connected_graphs(n):
                pairs = [(a, b) for a in range(g.n) for b in range(a + 1, g.n)]
                targets["paths"] += [(g, shortest_path(g, a, b).vertices) for a, b in pairs]
                targets["whole"].append((g, tuple(range(g.n))))
        for name, cases in targets.items():
            verdicts = [
                is_guardable(g, h, cops, strict=strict)
                for g, h in cases
                for cops in (1, 2)
                for strict in (True, False)
            ]
            assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == PINNED_GUARD_VERDICTS[name], name

    def test_grid_guard_verdicts(self):
        for k, target, cops, expect in PINNED_GRID_GUARDS:
            for strict in (True, False):
                assert is_guardable(grid(k, k), target, cops, strict=strict) == expect

    def test_gadget_guard_verdicts(self):
        from pursuit.helly import find_hole

        for core in PINNED_GADGET_CORES:
            h = from_graph6(core)
            g = build_hole_gadget(h, find_hole(h))
            for strict in (True, False):
                assert not is_guardable(g, tuple(range(h.n)), 1, strict=strict)
                assert is_guardable(g, tuple(range(h.n)), 2, strict=strict)

    def test_cycle_guard_verdicts(self):
        for n in range(4, 9):
            g = cycle(n)
            for strict in (True, False):
                for length in range(1, n // 2 + 2):
                    assert is_guardable(g, tuple(range(length)), 1, strict=strict)
                assert not is_guardable(g, tuple(range(n)), 1, strict=strict)
                assert is_guardable(g, tuple(range(n)), 2, strict=strict)


def _replay(g: Graph, table: StrategyTable) -> int:
    """Drive the table against its own optimal adversary; return ply count."""
    cops = table.initial
    worst = max(table.state_rank(cops, r, COPS) for r in range(g.n))
    robber = max(range(g.n), key=lambda r: table.state_rank(cops, r, COPS))
    plies = 0
    rank = table.state_rank(cops, robber, COPS)
    assert rank == worst
    while robber not in cops:
        nxt = table.cop_move(cops, robber)
        assert table.state_rank(nxt, robber, ROBBER) == rank - 1
        cops, rank = nxt, rank - 1
        plies += 1
        if robber in cops:
            break
        robber = table.robber_reply(cops, robber)
        assert table.state_rank(cops, robber, COPS) == rank - 1
        rank -= 1
        plies += 1
    assert rank == 0
    return plies


class TestStrategyReplay:
    def test_exact_rank_playout(self):
        cases = [
            (path(6), 1),
            (cycle(6), 2),
            (grid(3, 3), 2),
            (petersen(), 3),
        ]
        rng = random.Random(31)
        for _ in range(6):
            g = random_connected(rng.randrange(3, 7), rng.random() * 0.5, rng.randrange(10**6))
            cases.append((g, cop_number(g, 4)))
        for g, c in cases:
            won, table = solve(GameSpec(g, c))
            assert won
            plies = _replay(g, table)
            assert plies <= 2 * estimate_states(g.n, c)

    def test_losing_state_raises(self):
        won, table = solve(GameSpec(cycle(5), 1))
        assert not won
        assert table.initial is None
        with pytest.raises(ValueError):
            table.cop_move((0,), 2)

    def test_robber_reply_escapes_losing_cop(self):
        _, table = solve(GameSpec(cycle(6), 1))
        r = table.robber_reply((0,), 3)
        assert table.state_rank((0,), r, COPS) is None

    def test_determinism(self):
        g = cycle(7)
        _, a = solve(GameSpec(g, 2))
        _, b = solve(GameSpec(g, 2))
        assert a.initial == b.initial
        assert a.rank == b.rank


class TestGuardMode:
    def test_isometric_paths_in_cycles_are_one_guardable(self):
        g = cycle(6)
        assert is_guardable(g, (0, 1, 2), 1)
        assert is_guardable(g, (0, 1, 2, 3), 1)

    def test_whole_graph_guarding_matches_cop_win(self):
        for g in connected_graphs(4) + connected_graphs(5):
            h = tuple(range(g.n))
            assert is_guardable(g, h, 1) == (cop_number(g, 1) == 1)

    def test_hole_gadget_defeats_one_guard(self):
        from pursuit.helly import find_hole

        for base in (cycle(4), cycle(5)):
            hole = find_hole(base)
            g = build_hole_gadget(base, hole)
            h = tuple(range(base.n))
            assert not is_guardable(g, h, 1)
            assert is_guardable(g, h, 2)

    def test_non_isometric_target_rejected(self):
        with pytest.raises(ValueError):
            is_guardable(path(3), (0, 2), 1)
        with pytest.raises(ValueError):
            is_guardable(cycle(5), (0, 1, 2, 3), 1)
        with pytest.raises(ValueError):
            is_guardable(path(3), (), 1)

    def test_strict_entry_implies_lenient(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(20):
            g = random_connected(rng.randrange(4, 8), rng.random() * 0.5, rng.randrange(10**6))
            a, b = rng.sample(range(g.n), 2)
            h = shortest_path(g, a, b).vertices
            if is_guardable(g, h, 1, strict=True):
                assert is_guardable(g, h, 1, strict=False)
                checked += 1
        assert checked >= 5

    def test_lenient_entry_not_degenerate(self):
        assert is_guardable(cycle(6), (0, 1, 2), 1, strict=False)

    def test_adversary_gadget_beats_k_guards(self):
        h, desc = build_hts(3, 2)
        gadget = build_guard_adversary(h, desc, 1)
        assert gadget.explicit
        assert cop_number(h, 1) == 1 and is_dismantlable(h)
        target = tuple(range(h.n))
        assert not is_guardable(gadget.graph, target, 1)
