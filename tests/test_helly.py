"""Helly recognition, dismantling, and hole witnesses."""

import hashlib
import random

import pytest

from pursuit.constructions import connected_graphs
from pursuit.graphs import Graph
from pursuit.helly import (
    Hole,
    dismantling_order,
    find_corner,
    find_hole,
    is_dismantlable,
    is_helly,
    is_helly_oracle,
    is_valid_hole,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n):
    return Graph(n, [(0, i) for i in range(1, n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def random_connected(n, rng, p=0.3):
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((min(order[i], order[j]), max(order[i], order[j])))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def random_tree(n, rng):
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


class TestFrozenWitnesses:
    def test_c4_not_helly(self):
        g = cycle_graph(4)
        assert not is_helly(g)
        assert not is_helly_oracle(g)

    def test_c4_canonical_hole(self):
        hole = find_hole(cycle_graph(4))
        assert hole == Hole(centers=(0, 1, 2, 3), radii=(1, 1, 1, 1))
        assert is_valid_hole(cycle_graph(4), hole)

    def test_c5_canonical_hole(self):
        hole = find_hole(cycle_graph(5))
        assert hole == Hole(centers=(0, 1, 3), radii=(1, 1, 1))
        assert is_valid_hole(cycle_graph(5), hole)

    def test_trees_are_helly(self):
        rng = random.Random(7)
        samples = [path_graph(7), star_graph(6)] + [
            random_tree(n, rng) for n in range(2, 9)
        ]
        for g in samples:
            assert is_helly(g)
            assert find_hole(g) is None
            assert is_dismantlable(g)

    def test_complete_graphs_are_helly(self):
        for n in range(1, 6):
            g = complete_graph(n)
            assert is_helly(g)
            assert find_hole(g) is None
            assert is_dismantlable(g)

    def test_graphs_on_at_most_two_vertices_are_helly(self):
        # The triple test has no triple to fail, so no small-n shortcut is needed.
        for g in (Graph(0), Graph(1), Graph(2), Graph(2, [(0, 1)])):
            assert is_helly(g)
            assert find_hole(g) is None

    def test_long_cycles_have_no_corner(self):
        for n in (4, 5, 6, 7):
            g = cycle_graph(n)
            assert find_corner(g) is None
            assert dismantling_order(g) is None

    def test_petersen_not_dismantlable(self):
        assert dismantling_order(petersen()) is None
        assert not is_helly(petersen())


class TestDismantling:
    def test_single_vertex_trivial_order(self):
        assert dismantling_order(Graph(1, [])) == []

    def test_edge(self):
        assert dismantling_order(Graph(2, [(0, 1)])) == [(0, 1)]

    def test_isolated_pair_stuck(self):
        assert dismantling_order(Graph(2, [])) is None

    def test_order_replays_as_valid_corner_sequence(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(60):
            g = random_connected(rng.randrange(2, 8), rng)
            order = dismantling_order(g)
            if order is None:
                continue
            checked += 1
            alive = g.vertex_mask()
            for x, y in order:
                assert alive >> x & 1 and alive >> y & 1
                assert g.has_edge(x, y)
                nx = (g.adj_mask(x) | (1 << x)) & alive
                ny = (g.adj_mask(y) | (1 << y)) & alive
                assert nx & ~ny == 0
                alive &= ~(1 << x)
            assert alive.bit_count() == 1
        assert checked >= 20

    def test_helly_implies_dismantlable(self):
        rng = random.Random(13)
        for _ in range(80):
            g = random_connected(rng.randrange(2, 8), rng)
            if is_helly(g):
                assert is_dismantlable(g)


class TestAgreement:
    def test_three_routes_agree_on_random_graphs(self):
        rng = random.Random(17)
        seen_holes = 0
        for _ in range(120):
            g = random_connected(rng.randrange(3, 8), rng)
            helly = is_helly(g)
            assert is_helly_oracle(g) == helly
            hole = find_hole(g)
            assert (hole is None) == helly
            if hole is not None:
                seen_holes += 1
                assert is_valid_hole(g, hole)
        assert seen_holes >= 10

    def test_agreement_on_disconnected_graphs(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randrange(3, 6)
            a = random_connected(n, rng)
            b = random_connected(rng.randrange(2, 9 - n), rng)
            edges = a.edges() + [(u + n, v + n) for u, v in b.edges()]
            g = Graph(n + b.n, edges)
            helly = is_helly(g)
            assert is_helly_oracle(g) == helly
            assert (find_hole(g) is None) == helly
            assert helly == (is_helly(a) and is_helly(b))

    def test_corner_deletion_preserves_helly(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(120):
            g = random_connected(rng.randrange(3, 8), rng)
            if not is_helly(g):
                continue
            corner = find_corner(g)
            if corner is None:
                continue
            checked += 1
            rest = [v for v in range(g.n) if v != corner[0]]
            sub, _ = g.induced(rest)
            assert is_helly(sub)
        assert checked >= 20


class TestGuards:
    def test_oracle_size_guard(self):
        with pytest.raises(ValueError):
            is_helly_oracle(path_graph(9))

    def test_hole_validation(self):
        with pytest.raises(ValueError):
            Hole(centers=(0, 1), radii=(1, 1))
        with pytest.raises(ValueError):
            Hole(centers=(0, 1, 1), radii=(1, 1, 1))
        with pytest.raises(ValueError):
            Hole(centers=(0, 1, 2), radii=(1, 0, 1))
        with pytest.raises(ValueError):
            Hole(centers=(0, 1, 2), radii=(1, 1))

    def test_invalid_hole_rejected(self):
        g = cycle_graph(6)
        # Balls around 0 and 3 with radius 1 do not even pairwise intersect.
        assert not is_valid_hole(g, Hole(centers=(0, 1, 3), radii=(1, 1, 1)))
        # Common vertex exists for this family.
        assert not is_valid_hole(g, Hole(centers=(0, 1, 2), radii=(2, 2, 2)))
        # A centre outside the graph.
        assert not is_valid_hole(g, Hole(centers=(0, 1, 6), radii=(1, 1, 1)))


class TestPinnedAnswers:
    def test_verdicts_and_holes_are_pinned(self):
        # sha256 of repr of (edges, is_helly, find_hole) over every connected
        # graph on up to 7 vertices, in corpus order; recorded from the
        # implementation that looped over every center inside each triple
        # and searched for holes on Helly graphs too.
        h = hashlib.sha256()
        count = 0
        for n in range(1, 8):
            for g in connected_graphs(n):
                h.update(repr((g.edges(), is_helly(g), find_hole(g))).encode())
                count += 1
        assert (count, h.hexdigest()) == (
            996,
            "314536f19eade55401de9d72b02d77ea1368b2f61d35a81cb40715c889b936c5",
        )

    def test_holes_on_eight_vertices_are_pinned(self):
        # sha256 of repr of (edges, find_hole) over every connected graph on
        # 8 vertices, in corpus order; recorded from the search that tried
        # every radius composition of each sum in turn.
        h = hashlib.sha256()
        holes = []
        for g in connected_graphs(8):
            hole = find_hole(g)
            holes.append(hole)
            h.update(repr((g.edges(), hole)).encode())
        found = [hole for hole in holes if hole is not None]
        assert (len(holes), len(found), sum(len(hole.centers) == 4 for hole in found)) == (11117, 8542, 1442)
        assert h.hexdigest() == "3272477224a70805f4dc0fb79acb74f31a0e9839914bcb28e3fb97552e916573"


class TestMinimalRadii:
    def test_no_radius_of_a_hole_can_be_lowered(self):
        # Lowering a radius of the canonical hole either reaches 0 or
        # breaks the pairwise intersection, else a smaller hole would exist.
        holes = 0
        for n in range(3, 8):
            for g in connected_graphs(n):
                hole = find_hole(g)
                if hole is None:
                    continue
                holes += 1
                rows = [g.bfs_levels(v) for v in hole.centers]
                for i, r in enumerate(hole.radii):
                    lowered = hole.radii[:i] + (r - 1,) + hole.radii[i + 1 :]
                    meets = all(
                        rows[a][hole.centers[b]] <= lowered[a] + lowered[b]
                        for a in range(len(lowered))
                        for b in range(a + 1, len(lowered))
                    )
                    assert r - 1 == 0 or not meets, (g.edges(), hole, i)
        assert holes == 556
