"""Exact-solver tests: frozen cop numbers, replay soundness, guard mode."""

import hashlib
import itertools
import random

import pytest

from pursuit import solver
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
from pursuit.controllers import OptimalAdversary
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
    _move_tables,
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
        with pytest.raises(ValueError, match="^active_cap must be in 1..cops$"):
            k_move_cop_number(g, 0, 2)

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
        multisets = list(itertools.combinations_with_replacement(range(len(adj)), c))
        index = {cops: i for i, cops in enumerate(multisets)}
        rows = []
        for cops in multisets:
            reached = set()
            for moved in itertools.product(*[(v, *adj[v]) for v in cops]):
                if sum(u != v for u, v in zip(moved, cops)) <= cap:
                    reached.add(index[tuple(sorted(moved))])
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

    @pytest.mark.parametrize("name", sorted(ADJACENCIES))
    def test_one_stream_yields_every_size(self, name):
        # One stream per cap; a cap of at least c is the unrestricted game.
        adj = self.ADJACENCIES[name]
        for cap in (None, 1, 2, 3):
            tables = _move_tables(adj, cap)
            for c in range(1, 4):
                assert next(tables) == self._brute_rows(adj, c, min(c, cap or c)), (c, cap)


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

    def test_refusal_builds_no_table(self, monkeypatch):
        # cop_number checks the budget for c before it pulls table c.
        pulled = []
        stream = solver._move_tables

        def counted(*args):
            for table in stream(*args):
                pulled.append(len(table))
                yield table

        monkeypatch.setattr(solver, "_move_tables", counted)
        with pytest.raises(BudgetExceeded):
            cop_number(petersen(), 3, budget=estimate_states(10, 1))
        assert pulled == [10]

    def test_non_restricting_cap_builds_no_capped_rows(self, monkeypatch):
        # A cap of at least the most cops a call asks for restricts no move,
        # so the stream receives None and builds only the free rows.
        caps = []
        stream = solver._move_tables

        def spied(adj, cap=None):
            caps.append(cap)
            return stream(adj, cap)

        monkeypatch.setattr(solver, "_move_tables", spied)
        g = grid(4, 5)
        won, table = solve(GameSpec(g, 3, active_cap=3))
        won_free, free = solve(GameSpec(g, 3))
        assert (won, table.initial, dict(table.rank)) == (won_free, free.initial, dict(free.rank))
        assert cop_number(petersen(), 3, active_cap=3) == cop_number(petersen(), 3) == 3
        assert cop_number(petersen(), 3, active_cap=2) == 3
        solve(GameSpec(g, 3, active_cap=2))
        assert caps == [None, None, None, None, 2, 2]

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

# Per PINNED_TABLES spec, sha256 of repr() of the list of
# (adversary.place(cops), [adversary.move(cops, r) for every vertex r]) for
# adversary = OptimalAdversary(g, table), over every cop multiset in
# combinations_with_replacement order; recorded before the placement rule
# moved into the strategy table.
PINNED_ROBBER = {
    "cycle7-c2": "07e3cf25a4a538d1cd8c3354d612a7d46406e38c9917d521cb7a7daf4d47b85e",
    "grid4x5-c3-cap2": "d827afccc1a776221f1723ed5a723b1c76cd8415b03d20f67f2b50ffa2eedac4",
    "petersen-c3": "f2ee0821c0a3bcf59db5ac6b3c196bab983f2f761ae8cd36a685932253eaf307",
    "tri24-0-c2": "e9f8082a270c3d55e1381329b61b46d8c676acf912506028115e9a10b0eeda2f",
    "tri24-0-c2-cap1": "b9a1d7bc3cb96e4bd1f62f79a7ee48a2cdb830b5d87ed70f510d29d633dc7f4c",
    "tri24-1-c2": "a2f4c37cf176bcab9fac4bc4e1a0972510d67eb5c4aa6934f56bcd8f8c0b048d",
    "tri24-1-c2-cap1": "e8e60ad204c9bb219833460c7d719d21c4ec883b7a3543ddde09711924e6d742",
    "tri24-2-c2": "57945b14464682c79bf45edfdcbd8db0276a619952e2813992b92c6d2cdfc7d0",
    "tri24-2-c2-cap1": "aeb61f17306f8523b237fda9e228d2373a71183a4769e029e53cc94317b399f1",
    "tri24-3-c2": "81a5448cb326c3920b822f3bbf88829c338f30cea98df509f4b764fe539b0330",
    "tri24-3-c2-cap1": "141ff9e366fc5a5babab1d1c99d8db3a4238c4e575e70688ed3371fcf9a1f20f",
    "tri24-4-c2": "993bbf68285c1abcdd72022247f36b45382a907d4b6c95382d17af765c495b3d",
    "tri24-4-c2-cap1": "ca3051ce7a8a7c239e579379cc7dc0745c328aafd474201540f123f0fc6900a1",
    "tri24-5-c2": "8b71f72773ba4f4b4dd002327025dcffa4f7af14f55877f7739cae3826a47fa6",
    "tri24-5-c2-cap1": "1d429b8ff79b7900af2a8ccc939f1fae5bc93f867a4cc654f4eff90391c78baa",
    "tri24-6-c2": "3822557bf0a7591727176f713996f3ff3111217fc205de2dc507a2547edfb1c6",
    "tri24-6-c2-cap1": "bd9dd1cde6496c6459e82859138c864659d8dd7ac4259e985a0df3ddf6f56634",
    "tri24-7-c2": "d11d35e31cd675ad48405a8b3975dcc399bfdcb5a0cc98cd2b20f1e36c4e6e30",
    "tri24-7-c2-cap1": "52c7ae2dbb81131fa6baeb3343f55c82e876fd08deda51645cd462e430bfe2f4",
    "tri24-8-c2": "2ba85928a6cd06756e4c3407ef76fd408cfaaa86a114cb07d7bcc8a67e8c143d",
    "tri24-8-c2-cap1": "b13b4e0e992e2f15f792b8a120c529c217429daf66d7e9ecbb625ac60b90622d",
}

# sha256 of repr() of the list of (cop_number(g, 3), k_move_cop_number(g, 1, 3),
# k_move_cop_number(g, 2, 3)) over connected_graphs(n) for n = 1..7, in order.
PINNED_COP_NUMBERS = "9099b27f3847354d47f1254651191bc8ad7f1eb8ef02c3dbade5c2df98846186"
# sha256 of repr() of the list of is_guardable(g, h, cops) for cops in (1, 2),
# over every connected graph with n <= 6 and, per graph,
# h = shortest_path(g, a, b).vertices for each pair a < b ("paths") or
# h = every vertex ("whole").  Every path verdict is True.
PINNED_GUARD_VERDICTS = {
    "paths": "a9c16dfc3d5a2c4878ef66d4b13a93266967a30b2926767cbd2eda2a58920810",
    "whole": "7b63dbaf18d225f8cd9a55d044f2d75b079e615a4221f7e8cb248f3497f17c4d",
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
# whole cycles, and isometric paths of cycles.
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
        assert {(cops, r, COPS): table.cop_move(cops, r) for cops, r, _ in expected} == expected

    @pytest.mark.parametrize("name", sorted(PINNED_TABLES))
    def test_initial_placements(self, name):
        assert solve(_pinned_spec(name))[1].initial == PINNED_INITIAL[name]

    @pytest.mark.parametrize("name", sorted(PINNED_TABLES))
    def test_optimal_robber(self, name):
        spec = _pinned_spec(name)
        g = spec.graph
        adversary = OptimalAdversary(g, solve(spec)[1])
        values = [
            (adversary.place(cops), [adversary.move(cops, r) for r in range(g.n)])
            for cops in itertools.combinations_with_replacement(range(g.n), spec.cops)
        ]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == PINNED_ROBBER[name]

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
            verdicts = [is_guardable(g, h, cops) for g, h in cases for cops in (1, 2)]
            assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == PINNED_GUARD_VERDICTS[name], name

    def test_grid_guard_verdicts(self):
        for k, target, cops, expect in PINNED_GRID_GUARDS:
            assert is_guardable(grid(k, k), target, cops) == expect

    def test_gadget_guard_verdicts(self):
        from pursuit.helly import find_hole

        for core in PINNED_GADGET_CORES:
            h = from_graph6(core)
            g = build_hole_gadget(h, find_hole(h))
            assert not is_guardable(g, tuple(range(h.n)), 1)
            assert is_guardable(g, tuple(range(h.n)), 2)

    def test_cycle_guard_verdicts(self):
        for n in range(4, 9):
            g = cycle(n)
            for length in range(1, n // 2 + 2):
                assert is_guardable(g, tuple(range(length)), 1)
            assert not is_guardable(g, tuple(range(n)), 1)
            assert is_guardable(g, tuple(range(n)), 2)


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


def _cop_successors(g: Graph, cops: tuple[int, ...], cap: int | None) -> set[tuple[int, ...]]:
    """Every placement the cops reach in one turn, each staying or stepping,
    with at most cap of them stepping."""
    return {
        tuple(sorted(moved))
        for moved in itertools.product(*[(v, *g.neighbors(v)) for v in cops])
        if cap is None or sum(u != v for u, v in zip(moved, cops)) <= cap
    }


class TestRankRecurrence:
    """Every rank against the game's rules, read off the graph with no kernel
    code: the cops-win half of a certificate for the solver's answer."""

    @staticmethod
    def _games():
        for n in range(1, 6):
            for g in connected_graphs(n):
                for c in (1, 2):
                    for cap in (None, 1):
                        yield g, c, cap
        yield grid(3, 3), 2, None
        yield grid(3, 3), 3, None

    def test_ranks_obey_the_recurrence(self):
        games = 0
        for g, c, cap in self._games():
            games += 1
            table = solve(GameSpec(g, c, active_cap=cap))[1]
            rank = dict(table.rank.items())
            assert len(table.rank) == len(rank) == sum(1 for _ in table.rank)
            for cops in itertools.combinations_with_replacement(range(g.n), c):
                nexts = _cop_successors(g, cops, cap)
                for r in range(g.n):
                    where = (g, c, cap, cops, r)
                    k, kr = rank.get((cops, r, COPS)), rank.get((cops, r, ROBBER))
                    # rank 0 holds exactly where the robber stands on a cop
                    assert (k == 0) == (kr == 0) == (r in cops), where
                    after = [rank.get((nxt, r, ROBBER)) for nxt in nexts]
                    ranked = [x for x in after if x is not None]
                    if k is None:
                        assert not ranked, where
                    elif k >= 1:
                        assert min(ranked) == k - 1, where
                    options = [rank.get((cops, x, COPS)) for x in (r, *g.neighbors(r))]
                    if kr is None:
                        assert None in options, where
                    elif kr >= 1:
                        assert None not in options and max(options) == kr - 1, where
        assert games == 2 * 2 * sum(len(connected_graphs(n)) for n in range(1, 6)) + 2


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

    def test_caught_robber_leaves_cops_in_place(self):
        _, table = solve(GameSpec(cycle(6), 2))
        assert table.state_rank((3, 0), 3, COPS) == 0
        assert table.cop_move((3, 0), 3) == (0, 3)

    def test_keys_naming_no_state_are_absent(self):
        _, table = solve(GameSpec(cycle(6), 2))
        # unknown cops, a robber off the graph on either side, a bad side
        for cops, robber, side in (((0, 1, 2), 0, COPS), ((0, 3), 6, COPS), ((0, 3), -1, ROBBER), ((0, 3), 1, 2)):
            assert table.state_rank(cops, robber, side) is None
        # and keys of the wrong shape or with unhashable cops
        for key in (((0, 1, 2), 0, COPS), ((0, 3), 6, COPS), ((0, 3), 1, 2), ((0, 3), 1), ([0, 3], 1, COPS)):
            assert table.rank.get(key) is None
            with pytest.raises(KeyError):
                table.rank[key]

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

    def test_adversary_gadget_beats_k_guards(self):
        h, desc = build_hts(3, 2)
        gadget = build_guard_adversary(h, desc, 1)
        assert gadget.explicit
        assert cop_number(h, 1) == 1 and is_dismantlable(h)
        target = tuple(range(h.n))
        assert not is_guardable(gadget.graph, target, 1)
