"""Controller tests: shadow guarding, the dismantling chase, leisurely rests."""

import hashlib
import random
from itertools import combinations

import pytest

from pursuit.constructions import connected_graphs, cycle, grid, path, random_connected
from pursuit.controllers import (
    ControllerFault,
    GreedyAdversary,
    LeisurelyGuard,
    OptimalAdversary,
    PathShadowGuard,
    RandomAdversary,
    ScriptedWalk,
    WideShadowGuard,
    capture_shadow,
)
from pursuit.graphs import Graph, Path, shortest_path
from pursuit.shadows import PathShadows, wide_shadow
from pursuit.solver import GameSpec, solve


class TestWideShadowGuard:
    def test_robber_stays_cop_stays(self):
        g = cycle(6)
        guard = WideShadowGuard(g, (0, 1, 2), 1, robber=4)
        assert guard.step(4) == 1

    def test_square_capture_step(self):
        # Robber beside the path's end: its shadow collapses to that end,
        # and the cop's single step from the middle lands on the robber.
        g = cycle(4)
        guard = WideShadowGuard(g, (0, 1, 2), 1, robber=3)
        assert guard.shadow == frozenset({1})
        assert guard.step(0) == 0

    def test_shadow_membership_invariant(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_connected(rng.randrange(4, 9), rng.random() * 0.5, rng.randrange(10**6))
            a, b = rng.sample(range(g.n), 2)
            h = shortest_path(g, a, b).vertices
            robber = rng.randrange(g.n)
            start = min(wide_shadow(g, h, robber))
            guard = WideShadowGuard(g, h, start, robber)
            for _ in range(20):
                opts = sorted((robber,) + g.neighbors(robber))
                robber = rng.choice(opts)
                at = guard.step(robber)
                assert at in wide_shadow(g, h, robber)

    def test_entry_is_captured(self):
        rng = random.Random(11)
        captures = 0
        for _ in range(40):
            g = random_connected(rng.randrange(4, 9), rng.random() * 0.4, rng.randrange(10**6))
            a, b = rng.sample(range(g.n), 2)
            h = shortest_path(g, a, b).vertices
            robber = rng.randrange(g.n)
            guard = WideShadowGuard(g, h, min(wide_shadow(g, h, robber)), robber)
            for _ in range(15):
                robber = rng.choice(sorted((robber,) + g.neighbors(robber)))
                at = guard.step(robber)
                if robber in h:
                    assert at == robber
                    captures += 1
                    break
        assert captures >= 10

    def test_attach_requires_shadow_membership(self):
        g = path(5)
        with pytest.raises(ValueError):
            WideShadowGuard(g, (0, 1, 2, 3, 4), 0, robber=4)

    def test_rejects_bad_subgraphs(self):
        with pytest.raises(ValueError):
            WideShadowGuard(cycle(4), (0, 1, 2, 3), 0, robber=0)  # not Helly
        with pytest.raises(ValueError):
            WideShadowGuard(cycle(5), (0, 1, 2, 3), 0, robber=0)  # not isometric

    def test_rejects_empty_subgraph(self):
        with pytest.raises(ValueError):
            WideShadowGuard(cycle(5), (), 0, robber=0)
        with pytest.raises(ValueError):
            capture_shadow(cycle(5), (), 0, iter([1]))

    def test_teleporting_robber_faults(self):
        g = path(9)
        guard = WideShadowGuard(g, tuple(range(9)), 0, robber=0)
        with pytest.raises(ControllerFault):
            guard.step(8)


class TestCaptureShadow:
    def test_single_vertex_target(self):
        g = path(4)
        turns, at = capture_shadow(g, (2,), 2, iter([0]))
        assert (turns, at) == (0, 2)

    def test_stationary_robber_on_path_host(self):
        g = path(6)
        h = tuple(range(6))
        for r in range(6):
            turns, at = capture_shadow(g, h, 0, iter([r]))
            assert at == r
            assert turns == r  # straight walk along the path
            assert turns <= 5

    def test_random_robber_within_bound(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_connected(rng.randrange(4, 11), rng.random() * 0.5, rng.randrange(10**6))
            a, b = rng.sample(range(g.n), 2)
            h = shortest_path(g, a, b).vertices
            walk = [rng.randrange(g.n)]
            for _ in range(4 * g.n * g.n):
                walk.append(rng.choice(sorted((walk[-1],) + g.neighbors(walk[-1]))))
            cop = rng.randrange(g.n)
            turns, at = capture_shadow(g, h, cop, iter(walk))
            finished = walk[min(turns - 1, len(walk) - 1)] if turns else walk[0]
            assert at in wide_shadow(g, h, finished)
            assert turns <= g.n + len(h) ** 2

    def test_grid_corner_approach(self):
        g = grid(4, 4)
        h = (0, 1, 2, 3)
        turns, at = capture_shadow(g, h, 15, iter([12]))
        # Robber pinned at the far column: shadow is the path's left part.
        assert at in wide_shadow(g, h, 12)
        assert turns <= 6 + 16

    def test_handoff_to_guard(self):
        g = grid(3, 3)
        h = (0, 1, 2)
        walk = [8, 7, 6, 7, 8, 5, 2, 1]
        turns, at = capture_shadow(g, h, 6, iter(walk))
        robber = walk[min(turns - 1, len(walk) - 1)] if turns else walk[0]
        guard = WideShadowGuard(g, h, at, robber)
        assert guard.cop_at in wide_shadow(g, h, robber)

    def test_rejects_empty_stream(self):
        with pytest.raises(ValueError):
            capture_shadow(path(3), (0, 1), 2, iter([]))


def _controller_cases():
    """(graph, target) pairs: every nonempty target of every connected graph
    on at most 5 vertices, then sampled targets on seeded 9- to 14-vertex
    hosts (shortest paths, a random set, the whole vertex set), then rows,
    columns and blocks of a 4x5 grid."""
    for n in range(1, 6):
        for g in connected_graphs(n):
            for size in range(1, n + 1):
                yield from ((g, h) for h in combinations(range(n), size))
    for seed in range(12):
        g = random_connected(9 + seed % 6, 0.3, seed)
        rng = random.Random(seed)
        for _ in range(4):
            a, b = rng.sample(range(g.n), 2)
            yield g, shortest_path(g, a, b).vertices
        yield g, tuple(sorted(rng.sample(range(g.n), 4)))
        yield g, tuple(range(g.n))
    g = grid(4, 5)
    for h in (
        (0, 1, 2, 3, 4),
        (10, 11, 12, 13, 14),
        (0, 5, 10, 15),
        (2, 7, 12, 17),
        (0, 1, 5, 6),
        (6, 7, 8, 11, 12, 13),
        tuple(range(20)),
    ):
        yield g, h


def _robber_walks(g: Graph, rng: random.Random):
    """A lazy random walk of 3n steps; a robber that jumps to a random
    vertex n times, which the guard may not survive; a robber that never
    moves, so the chase reads past the end of its stream."""
    lazy = [rng.randrange(g.n)]
    for _ in range(3 * g.n):
        r = lazy[-1]
        lazy.append(r if rng.random() < 0.5 else rng.choice(g.neighbors(r) or (r,)))
    jumps = [rng.randrange(g.n) for _ in range(g.n + 1)]
    return lazy, jumps, lazy[:1]


def _controller_answers(g: Graph, h, cop: int, walk):
    """capture_shadow's (turns, vertex), then the steps of a WideShadowGuard
    started where the chase landed and following the rest of the walk; an
    exception is recorded as its class and message."""
    try:
        turns, at = capture_shadow(g, h, cop, iter(walk))
        chase = (turns, at)
        k = min(max(turns - 1, 0), len(walk) - 1)
    except (ValueError, ControllerFault) as e:
        chase = (type(e).__name__, str(e))
        at, k = cop, 0
    steps: list = []
    try:
        guard = WideShadowGuard(g, h, at, walk[k])
        for r in walk[k + 1 :]:
            steps.append(guard.step(r))
    except (ValueError, ControllerFault) as e:
        steps.append((type(e).__name__, str(e)))
    return chase, steps


class TestPinnedControllers:
    def test_chase_and_guard_moves_are_pinned(self):
        # sha256 of repr of every case and its answers, in case order;
        # recorded from the controllers that each kept their own target
        # check, one-step rule and route counter.  The walks are seeded per
        # (graph, target).
        h = hashlib.sha256()
        count = 0
        for i, (g, target) in enumerate(_controller_cases()):
            for walk in _robber_walks(g, random.Random(i)):
                for cop in range(g.n):
                    answers = _controller_answers(g, target, cop, walk)
                    h.update(repr((g.edges(), target, cop, walk, answers)).encode())
                    count += 1
        assert (count, h.hexdigest()) == (
            13896,
            "499e18d4a9d076fb336cb13b316e9c69cb26f1a2f465232481da0387c9e7f5ce",
        )


class TestPathShadowGuard:
    def test_moves_as_the_wide_shadow_guard(self):
        # On an isometric path both guards keep the cop in the same shadow
        # and take the same single step back into it.
        rng = random.Random(17)
        for _ in range(40):
            g = random_connected(rng.randrange(4, 11), rng.random() * 0.5, rng.randrange(10**6))
            a, b = rng.sample(range(g.n), 2)
            h = shortest_path(g, a, b)
            robber = rng.randrange(g.n)
            start = min(wide_shadow(g, h.vertices, robber))
            wide = WideShadowGuard(g, h.vertices, start, robber)
            pinned = PathShadowGuard(PathShadows(g, h), start, robber)
            for _ in range(20):
                robber = rng.choice(sorted((robber,) + g.neighbors(robber)))
                assert pinned.step(robber) == wide.step(robber)

    def test_start_outside_shadow_faults(self):
        shadows = PathShadows(path(7), Path(tuple(range(7))))
        with pytest.raises(ControllerFault):
            PathShadowGuard(shadows, 0, robber=6)
        with pytest.raises(ControllerFault):
            PathShadowGuard(PathShadows(grid(2, 4), Path((0, 1, 2, 3))), 5, robber=5)

    def test_drift_of_two_faults(self):
        guard = PathShadowGuard(PathShadows(path(7), Path(tuple(range(7)))), 0, robber=0)
        assert guard.step(1) == 1
        with pytest.raises(ControllerFault):
            guard.step(3)


class TestLeisurelyGuard:
    def test_bypath_rejected_at_attach(self):
        g = cycle(4)
        with pytest.raises(ValueError):
            LeisurelyGuard(PathShadows(g, Path((0, 1, 2))), 1)

    def test_short_path_parks_forever(self):
        g = path(5)
        guard = LeisurelyGuard(PathShadows(g, Path((1, 2, 3))), 2)
        robber = 4
        rng = random.Random(3)
        for _ in range(30):
            robber = rng.choice(sorted((robber,) + g.neighbors(robber)))
            if robber in (1, 2, 3):
                robber = 4  # stay off the path; parking is the point here
            at, rested = guard.step(robber)
            assert at == 2 and rested

    def test_grid_shuttle_rest_window(self):
        g = grid(2, 6)
        p = Path(tuple(range(6)))
        guard = LeisurelyGuard(PathShadows(g, p), 0)
        flags = []
        robber = 6
        direction = 1
        for _ in range(60):
            nxt = robber + direction
            if nxt < 6 or nxt > 11:
                direction = -direction
                nxt = robber + direction
            robber = nxt
            _, rested = guard.step(robber)
            flags.append(rested)
        ell = p.length
        for i in range(len(flags) - ell):
            assert any(flags[i : i + ell + 1])

    def test_entry_is_captured(self):
        g = grid(2, 4)
        guard = LeisurelyGuard(PathShadows(g, Path((0, 1, 2, 3))), 1)
        assert guard.step(5) == (1, True)
        at, rested = guard.step(1)
        assert at == 1 and rested  # robber walked onto the resting cop
        guard2 = LeisurelyGuard(PathShadows(g, Path((0, 1, 2, 3))), 1)
        at, rested = guard2.step(0)
        assert at == 0 and not rested

    def test_far_shadow_faults(self):
        g = path(5)
        guard = LeisurelyGuard(PathShadows(g, Path((0, 1, 2, 3, 4))), 0)
        with pytest.raises(ControllerFault):
            guard.step(4)

    def test_degenerate_path_rejected(self):
        with pytest.raises(ValueError):
            LeisurelyGuard(PathShadows(path(3), Path((1,))), 1)


class TestScriptedWalk:
    def test_walks_route(self):
        g = path(4)
        w = ScriptedWalk(g, (0, 1, 2, 2, 3))
        assert w.cop_at == 0 and not w.done
        assert [w.step() for _ in range(5)] == [1, 2, 2, 3, 3]
        assert w.done

    def test_illegal_route_rejected(self):
        with pytest.raises(ValueError):
            ScriptedWalk(path(4), (0, 2))
        with pytest.raises(ValueError):
            ScriptedWalk(path(4), ())


class TestAdversaries:
    def test_random_is_seeded_and_legal(self):
        g = cycle(7)
        a = RandomAdversary(g, seed=5)
        b = RandomAdversary(g, seed=5)
        r1, r2 = a.place((0,)), b.place((0,))
        assert r1 == r2 and r1 != 0
        for _ in range(20):
            m1, m2 = a.move((0,), r1), b.move((0,), r2)
            assert m1 == m2
            assert m1 == r1 or g.has_edge(m1, r1)
            r1 = r2 = m1

    def test_greedy_runs_away(self):
        g = path(5)
        a = GreedyAdversary(g)
        assert a.move((0,), 2) == 3
        assert a.place((0,)) == 4

    def test_greedy_tie_breaks_low(self):
        g = cycle(4)
        a = GreedyAdversary(g)
        assert a.place((0, 2)) == 1
        assert a.move((0,), 2) == 2

    def test_greedy_places_beyond_every_cops_reach(self):
        # 5 and 6 form another component: the lowest of them beats 4, the
        # farthest vertex the cops reach.
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)])
        a = GreedyAdversary(g)
        assert a.place((0, 0, 1)) == 5
        assert a.move((0,), 6) == 5

    def test_optimal_evades_forever_when_winning(self):
        g = cycle(5)
        _, table = solve(GameSpec(g, 1))
        adv = OptimalAdversary(g, table)
        cop = 0
        robber = adv.place((cop,))
        assert table.state_rank((cop,), robber, 0) is None
        for _ in range(30):
            # A simple chasing cop: step along a shortest path to the robber.
            cop = shortest_path(g, cop, robber).vertices[1]
            if cop == robber:
                break
            robber = adv.move((cop,), robber)
            assert robber != cop
        assert cop != robber

    def test_optimal_stalls_maximally(self):
        g = path(4)
        _, table = solve(GameSpec(g, 1))
        adv = OptimalAdversary(g, table)
        robber = adv.place((0,))
        best = max(table.state_rank((0,), r, 0) for r in range(4))
        assert table.state_rank((0,), robber, 0) == best
        nxt = adv.move((1,), robber)
        assert table.state_rank((1,), nxt, 0) == table.state_rank((1,), robber, 1) - 1
