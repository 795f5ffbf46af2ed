"""Graph core: construction, graph6 codec, metrics, paths."""

from __future__ import annotations

import hashlib
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pursuit.constructions import (
    connected_graphs,
    grid,
    random_connected,
    random_planar_triangulation,
)
from pursuit.graphs import (
    UNREACHABLE,
    Graph,
    Path,
    ball,
    distance_matrix,
    domination_number,
    from_edge_list,
    from_graph6,
    is_isometric_subgraph,
    mask_of,
    shortest_path,
    shortest_path_between,
    to_edge_list,
    to_graph6,
)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


class TestConstruction:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        # equal graphs hash alike, so they key one dict entry
        assert len({g: 1, Graph(3, [(1, 0)]): 2}) == 1

    def test_degree_and_neighbors(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.neighbors(0) == (1, 2, 3)
        assert g.neighbors(1) == (0,)

    def test_edges_sorted_upper(self):
        g = Graph(4, [(3, 1), (2, 0)])
        assert g.edges() == [(0, 2), (1, 3)]

    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.m == 0
        assert g.is_connected()


class TestGraph6:
    # Hand-decoded vectors. "A_": n=2, bit x_01=1 -> K2.
    # "A?": n=2, no bits -> two isolated vertices. "Bw": n=3, all bits -> K3.
    def test_k2(self):
        g = from_graph6("A_")
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_two_isolated(self):
        g = from_graph6("A?")
        assert g.n == 2 and g.m == 0

    def test_k3(self):
        g = from_graph6("Bw")
        assert g.n == 3 and g.m == 3

    def test_header_accepted(self):
        assert from_graph6(">>graph6<<A_").m == 1

    def test_encode_k2(self):
        assert to_graph6(Graph(2, [(0, 1)])) == "A_"

    def test_encode_k3(self):
        assert to_graph6(Graph(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"

    def test_single_vertex(self):
        assert to_graph6(Graph(1)) == "@"
        assert from_graph6("@").n == 1

    def test_bad_length(self):
        with pytest.raises(ValueError):
            from_graph6("A")

    def test_bad_character(self):
        with pytest.raises(ValueError):
            from_graph6("B" + chr(30))

    def test_large_n_header(self):
        # n=100 needs the '~' 18-bit form.
        g = path_graph(100)
        s = to_graph6(g)
        assert s[0] == "~"
        h = from_graph6(s)
        assert h.n == 100 and h.edges() == g.edges()

    @given(st.integers(0, 12), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, n, rng):
        g = random_graph(rng, n, 0.4)
        assert from_graph6(to_graph6(g)) == g

    def test_nonzero_padding_rejected(self):
        # "A`" carries x_01 = 1 and a set pad bit; only "A_" encodes K2.
        with pytest.raises(ValueError, match="padding"):
            from_graph6("A`")
        with pytest.raises(ValueError, match="padding"):
            from_graph6("Bx")  # K3 is "Bw"
        # n = 63 in the '~' form: 1953 bits, then 3 pad bits, the last set
        assert from_graph6("~??~" + "?" * 326).n == 63
        with pytest.raises(ValueError, match="padding"):
            from_graph6("~??~" + "?" * 325 + "@")

    def test_encoding_is_pinned(self):
        # sha256 of the encodings, recorded from the bit-at-a-time encoder;
        # n = 62, 63 and 64 straddle the switch to the '~' size header.
        h = hashlib.sha256()
        for g in _codec_corpus():
            h.update(to_graph6(g).encode() + b"\n")
        assert h.hexdigest() == (
            "602c41e087472e710ea0f09eb0c384955da85c52ef6eba6a8122e45ffb419024"
        )

    def test_decode_round_trip(self):
        for g in _codec_corpus():
            assert from_graph6(to_graph6(g)) == g


def _codec_corpus():
    for n in range(1, 8):
        yield from connected_graphs(n)
    for k in range(12, 16):
        yield grid(k, k)
    yield grid(3, 30)
    for s in range(10):
        yield random_planar_triangulation(200, s)
    for n in (62, 63, 64):
        yield random_connected(n, 0.1, n)


class TestEdgeListIO:
    def test_roundtrip(self):
        g = cycle_graph(5)
        assert from_edge_list(to_edge_list(g)) == g

    def test_comments_and_blanks(self):
        text = "# a cycle\n4\n\n0 1\n1 2\n# middle\n2 3\n3 0\n"
        assert from_edge_list(text) == cycle_graph(4)

    def test_implicit_n(self):
        g = from_edge_list("0 1\n1 4\n")
        assert g.n == 5 and g.m == 2

    def test_duplicate_count_line(self):
        with pytest.raises(ValueError):
            from_edge_list("3\n4\n0 1\n")


class TestMetrics:
    def test_path_distances(self):
        g = path_graph(5)
        assert g.bfs_levels(0) == [0, 1, 2, 3, 4]

    def test_unreachable_sentinel(self):
        g = Graph(3, [(0, 1)])
        d = g.distances_from(0)
        assert d == [0, 1, UNREACHABLE]
        assert math.isinf(d[2])

    def test_within_mask(self):
        # Removing the middle of a cycle forces the long way around.
        g = cycle_graph(6)
        allowed = mask_of([0, 1, 2, 3, 4])
        assert g.bfs_levels(0, allowed)[3] == 3

    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = sorted(g.components())
        assert comps == [mask_of([0, 1]), mask_of([2, 3]), mask_of([4])]

    def test_component_of_within(self):
        g = cycle_graph(6)
        comp = g.component_of(0, mask_of([0, 1, 2]))
        assert comp == mask_of([0, 1, 2])

    def test_distance_matrix_metric_axioms(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 10), 0.35)
            dm = distance_matrix(g)
            for u in range(g.n):
                assert dm[u, u] == 0
                for v in range(g.n):
                    assert dm[u, v] == dm[v, u]
                    assert (dm[u, v] == 1) == g.has_edge(u, v)
                    for w in range(g.n):
                        assert dm[u, w] <= dm[u, v] + dm[v, w]

    def test_ball(self):
        g = path_graph(7)
        assert ball(g, 3, 0) == {3}
        assert ball(g, 3, 2) == {1, 2, 3, 4, 5}
        assert ball(g, 0, 100) == set(range(7))

    def test_unreachable_reads_n_in_rows_and_infinity_in_metrics(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.bfs_levels(0) == [0, 1, 4, 4]
        assert g.bfs_levels(0, mask_of([0, 1, 2])) == [0, 1, 4, 4]
        assert g.distances_from(0) == [0, 1, UNREACHABLE, UNREACHABLE]
        assert distance_matrix(g)[0, 3] == UNREACHABLE

    def test_ball_past_n_keeps_to_the_component(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        for r in (4, 5, 6, 100):
            assert ball(g, 0, r) == {0, 1, 2}
            assert ball(g, 4, r) == {3, 4}


class TestRowCache:
    def test_rows_match_networkx(self):
        for seed in range(200):
            rng = random.Random(seed)
            g = random_connected(rng.randint(1, 30), rng.choice((0.0, 0.1, 0.3)), seed)
            ref = nx.Graph(g.edges())
            ref.add_nodes_from(range(g.n))
            for _ in range(2):  # the second pass reads kept rows
                for v in range(g.n):
                    want = nx.single_source_shortest_path_length(ref, v)
                    assert g.bfs_levels(v) == [want[u] for u in range(g.n)]
                    assert g.bfs_levels(v, g.vertex_mask()) == [want[u] for u in range(g.n)]

    def test_returned_row_is_the_callers(self):
        g = path_graph(4)
        row = g.bfs_levels(1)
        row[0] = 99
        row.append(7)
        assert g.bfs_levels(1) == [1, 0, 1, 2]
        assert g.bfs_levels(1) is not g.bfs_levels(1)

    def test_masked_call_never_reads_the_cache(self):
        g = cycle_graph(6)
        allowed = mask_of([0, 1, 2, 3, 4])
        assert g.bfs_levels(0, allowed) == [0, 1, 2, 3, 4, 6]
        assert g._rows is None  # masked calls allocate nothing
        assert g.bfs_levels(0) == [0, 1, 2, 3, 2, 1]
        g._rows[0] = [-5] * 6  # a masked call must not see a poisoned row
        assert g.bfs_levels(0, allowed) == [0, 1, 2, 3, 4, 6]
        assert g.bfs_levels(0) == [-5] * 6


def _reference_bfs(g: Graph, src: int, allowed: int) -> list[int]:
    """Queue BFS over neighbour lists: src reads 0 wherever it is, and the
    search enters only vertices of allowed; n marks the unreached."""
    dist = [g.n] * g.n
    dist[src] = 0
    queue = [src]
    for u in queue:
        for w in g.neighbors(u):
            if allowed >> w & 1 and dist[w] == g.n:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


class TestTraversalsAgainstReference:
    def test_rows_components_and_balls(self):
        cases = 0
        for seed in range(150):
            rng = random.Random(seed)
            n = rng.randint(1, 18)
            g = random_graph(rng, n, rng.choice((0.05, 0.15, 0.3, 0.6)))
            full = g.vertex_mask()
            for _ in range(3):
                within = rng.getrandbits(n) | rng.getrandbits(n)
                for src in range(n):  # sources inside and outside within
                    want = _reference_bfs(g, src, within)
                    assert g.bfs_levels(src, within) == want, (g.edges(), src, within)
                    reached = mask_of(v for v in range(n) if want[v] < n)
                    assert g.component_of(src, within) == reached
                    cases += 1
            for src in range(n):
                want = _reference_bfs(g, src, full)
                assert g.bfs_levels(src) == want
                assert g.component_of(src) == mask_of(v for v in range(n) if want[v] < n)
                ecc = max(d for d in want if d < n)
                assert g.ball_masks(src) == tuple(
                    mask_of(v for v in range(n) if want[v] <= r) for r in range(ecc + 1)
                )
        assert cases > 3000


class TestIsometry:
    def test_path_in_cycle(self):
        # In C6 an arc of 4 vertices spans distance 3 > floor(6/2)? No:
        # d(0,3)=3 both along the arc and in the cycle, so it is isometric.
        g = cycle_graph(6)
        assert is_isometric_subgraph(g, [0, 1, 2, 3])
        # Five consecutive vertices are not: d(0,4)=2 in C6 but 4 on the arc.
        assert not is_isometric_subgraph(g, [0, 1, 2, 3, 4])

    def test_disconnected_subgraph_not_isometric(self):
        g = path_graph(5)
        assert not is_isometric_subgraph(g, [0, 4])

    def test_path_object_isometric(self):
        g = cycle_graph(6)
        assert Path((0, 1, 2, 3)).is_isometric_in(g)
        assert not Path((0, 1, 2, 3, 4)).is_isometric_in(g)

    def test_path_isometric_within_host(self):
        # Inside the host that omits vertex 5, the long arc becomes isometric.
        g = cycle_graph(6)
        host = mask_of([0, 1, 2, 3, 4])
        assert Path((0, 1, 2, 3, 4)).is_isometric_in(g, host)

    def test_empty_subgraph_not_isometric(self):
        assert not is_isometric_subgraph(cycle_graph(6), [])

    def test_geodesic_row(self):
        # One row, from the first vertex, decides isometry.
        g = cycle_graph(6)
        assert Path((1, 2, 3)).geodesic_row(g) == g.bfs_levels(1)
        assert Path((0, 1, 2, 3, 4)).geodesic_row(g) is None  # d(0, 4) = 2 in C6
        assert Path((0, 2)).geodesic_row(g) is None  # not a path in g
        host = mask_of([0, 1, 2, 3, 4])
        assert Path((0, 1, 2, 3, 4)).geodesic_row(g, host) == g.bfs_levels(0, host)
        # A path that leaves within is refused, even where the row would fit.
        assert Path((0, 1, 2)).geodesic_row(path_graph(3), mask_of([1, 2])) is None
        assert not Path((0, 1, 2)).is_isometric_in(path_graph(3), mask_of([1, 2]))

    def test_path_validation(self):
        with pytest.raises(ValueError):
            Path(())
        with pytest.raises(ValueError):
            Path((0, 1, 0))
        assert not Path((0, 2)).is_path_in(path_graph(3))


class TestShortestPath:
    def test_simple(self):
        g = cycle_graph(6)
        p = shortest_path(g, 0, 3)
        assert p is not None and p.length == 3

    def test_lex_least(self):
        # Two shortest routes 0-1-3 and 0-2-3; lex-least picks vertex 1.
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        p = shortest_path(g, 0, 3)
        assert p is not None and p.vertices == (0, 1, 3)

    def test_none_when_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert shortest_path(g, 0, 3) is None

    def test_within(self):
        g = cycle_graph(6)
        p = shortest_path(g, 0, 3, mask_of([0, 1, 2, 3]))
        assert p is not None and p.vertices == (0, 1, 2, 3)

    def test_shortest_is_isometric(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 10), 0.3)
            u, v = rng.sample(range(g.n), 2)
            p = shortest_path(g, u, v)
            if p is not None:
                assert p.is_isometric_in(g)

    def test_answers_are_pinned(self):
        # sha256 of repr of every answer, recorded from the implementation
        # that walked a full BFS row from dst: every ordered pair of every
        # connected 6-vertex graph, then every ordered pair of seeded
        # random hosts restricted to seeded masks.
        h = hashlib.sha256()
        count = 0
        for g in connected_graphs(6):
            for u in range(g.n):
                for v in range(g.n):
                    p = shortest_path(g, u, v)
                    ans = None if p is None else p.vertices
                    h.update(repr((g.edges(), u, v, ans)).encode())
                    count += 1
        for g, within, _, _ in _masked_hosts(150):
            for u in range(g.n):
                for v in range(g.n):
                    p = shortest_path(g, u, v, within)
                    ans = None if p is None else p.vertices
                    h.update(repr((g.edges(), within, u, v, ans)).encode())
                    count += 1
        assert (count, h.hexdigest()) == (
            14476,
            "4349e76d546c91a3615c138c30e5f157df77128247bc3d84de57bfacd7c94553",
        )

    def test_between_masks_is_least_over_pairs(self):
        # Reference: the least (length, vertices) over every pair's path.
        hits = 0
        for g, within, sources, targets in _masked_hosts(400):
            best = None
            for a in range(g.n):
                for b in range(g.n):
                    if not (sources >> a & 1 and targets >> b & 1):
                        continue
                    p = shortest_path(g, a, b, within)
                    if p is not None and (best is None or (p.length, p.vertices) < best):
                        best = (p.length, p.vertices)
            got = shortest_path_between(g, sources, targets, within)
            assert (None if got is None else (got.length, got.vertices)) == best
            hits += best is not None
        assert hits > 200

    def test_between_masks_edge_cases(self):
        g = cycle_graph(6)
        assert shortest_path_between(g, 0, mask_of([3])) is None
        assert shortest_path_between(g, mask_of([2, 4]), mask_of([4, 5])).vertices == (4,)
        # 1 and 5 are both two steps from 3; the lex-least sequence wins.
        p = shortest_path_between(g, mask_of([1, 5]), mask_of([3]))
        assert p.vertices == (1, 2, 3)
        assert shortest_path_between(g, mask_of([0]), mask_of([3]), mask_of([0, 1, 3])) is None


def _masked_hosts(count: int):
    """Seeded (graph, host mask, source mask, target mask) cases."""
    for seed in range(count):
        rng = random.Random(seed)
        g = random_connected(rng.randint(2, 14), rng.choice((0.0, 0.1, 0.25, 0.5)), seed)
        within = rng.getrandbits(g.n) | rng.getrandbits(g.n)
        yield g, within, rng.getrandbits(g.n), rng.getrandbits(g.n)


class TestDomination:
    def test_values(self):
        assert domination_number(path_graph(1)) == 1
        assert domination_number(path_graph(3)) == 1
        assert domination_number(path_graph(4)) == 2
        assert domination_number(path_graph(7)) == 3
        assert domination_number(cycle_graph(6)) == 2
        assert domination_number(Graph(4, [(0, 1), (0, 2), (0, 3)])) == 1

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            domination_number(path_graph(30))
