"""Wide shadows and bypaths: frozen small cases plus cross-route checks."""

from __future__ import annotations

import hashlib
import random
import time

import pytest

from pursuit.constructions import connected_graphs, grid
from pursuit.constructions import random_connected as seeded_connected
from pursuit.graphs import Graph, Path, bits, is_isometric_subgraph, mask_of
from pursuit.shadows import (
    PathShadows,
    TooManyBypaths,
    bypath_vertices,
    bypaths,
    find_bypath,
    first_bypath,
    gamma,
    is_bypath_free,
    is_bypath_free_by_search,
    wide_shadow,
)


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_connected(rng: random.Random, n: int) -> Graph:
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    extra = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.25
    ]
    return Graph(n, edges + extra)


def isometric_paths(g: Graph, max_len: int = 6, within: int | None = None):
    """All isometric paths, as vertex tuples, up to the given length."""
    host = g.vertex_mask() if within is None else within
    found = []
    stack = [(v,) for v in range(g.n) if host >> v & 1]
    while stack:
        seq = stack.pop()
        found.append(seq)
        if len(seq) > max_len:
            continue
        for w in g.neighbors(seq[-1]):
            if host >> w & 1 and w not in seq and Path(seq + (w,)).is_isometric_in(g, within):
                stack.append(seq + (w,))
    return found


# Hand-computed shadows. In C5 with path 0-1-2: vertex 3 has distances
# (2,2,1) to the path, giving interval [max(0-2,1-2,2-1), min(0+2,1+2,2+1)]
# = [1,2]; vertex 4 has distances (1,2,2), giving [0,1].
class TestFrozenShadows:
    def test_c5_path_intervals(self):
        g = cycle(5)
        oracle = PathShadows(g, Path((0, 1, 2)))
        assert oracle.interval(3) == (1, 2)
        assert oracle.interval(4) == (0, 1)
        assert oracle.shadow_vertices(3) == (1, 2)

    def test_c4_unit_shadow(self):
        # In C4 the off-path vertex 3 is a detour of 0-1-2, shadow pins to 1.
        g = cycle(4)
        oracle = PathShadows(g, Path((0, 1, 2)))
        assert oracle.interval(3) == (1, 1)

    def test_on_path_shadow_is_self(self):
        g = cycle(6)
        oracle = PathShadows(g, Path((0, 1, 2, 3)))
        for q in range(4):
            assert oracle.interval(oracle.path.vertices[q]) == (q, q)

    def test_gamma_matches_definition(self):
        g = cycle(5)
        target = {0, 1, 2}
        assert gamma(g, target, 2, 3) == {1, 2}
        assert gamma(g, target, 0, 3) == {0, 1, 2}

    def test_wide_shadow_sets(self):
        g = cycle(4)
        assert wide_shadow(g, {0, 1, 2}, 3) == {1}
        g5 = cycle(5)
        assert wide_shadow(g5, {0, 1, 2}, 3) == {1, 2}
        # Empty after the constraints of 0 and 2, before 4's is read.
        assert wide_shadow(cycle(6), {0, 2, 4}, 1) == frozenset()

    def test_disconnected_probe_full_shadow(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert wide_shadow(g, {0, 1, 2}, 4) == {0, 1, 2}

    def test_target_vertex_out_of_reach(self):
        # 0, 1, 2 and 3, 4 are two components.
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        target = {0, 1, 2, 3}
        assert gamma(g, target, 0, 2) == {0, 1, 2}  # x = 0 does not reach 3
        assert gamma(g, target, 3, 2) == target  # v = 2 is not reached from x = 3
        assert gamma(g, target, 3, 4) == {3}
        assert wide_shadow(g, target, 2) == {2}
        assert wide_shadow(g, target, 4) == {3}

    def test_interval_of_a_vertex_the_path_cannot_reach(self):
        # Inside the host {0, 1, 2, 4} of the path 0-1-2-3-4, vertex 4 is cut
        # off from the guarded path 0-1-2: its shadow is the whole path.
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        oracle = PathShadows(g, Path((0, 1, 2)), mask_of([0, 1, 2, 4]))
        assert oracle.interval(4) == (0, 2)
        assert oracle.shadow_vertices(4) == (0, 1, 2)
        whole = PathShadows(Graph(4, [(0, 1), (1, 2)]), Path((0, 1, 2)))
        assert whole.interval(3) == (0, 2)

    def test_non_isometric_path_rejected(self):
        g = cycle(6)
        with pytest.raises(ValueError):
            PathShadows(g, Path((0, 1, 2, 3, 4)))

    def test_contains_matches_interval(self):
        # Position q is in the shadow of v when q lies within d(v, p-th
        # vertex) of every path position p.
        for n in range(2, 6):
            for g in connected_graphs(n):
                for seq in isometric_paths(g, 4):
                    oracle = PathShadows(g, Path(seq))
                    for v in range(g.n):
                        lo, hi = oracle.interval(v)
                        dist = g.bfs_levels(v, g.vertex_mask())
                        for q in range(len(seq)):
                            inside = all(abs(p - q) <= dist[u] for p, u in enumerate(seq))
                            assert oracle.contains(v, q) == (lo <= q <= hi) == inside

    def test_query_outside_host(self):
        g = cycle(6)
        oracle = PathShadows(g, Path((0, 1, 2)), mask_of([0, 1, 2, 3]))
        with pytest.raises(ValueError):
            oracle.interval(5)


def _gamma_fold(g: Graph, target, v: int) -> frozenset[int]:
    """The wide shadow by its definition: filter the target through gamma
    once per target vertex, with no early stop."""
    result = frozenset(target)
    for x in sorted(result):
        result = gamma(g, result, x, v)
    return result


class TestWideShadowByBalls:
    def test_matches_the_gamma_fold(self):
        triples = 0
        graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
        for seed in range(40):  # disconnected ones, isolated vertices included
            rng = random.Random(seed)
            n = rng.randint(2, 10)
            graphs.append(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15]))
        for index, g in enumerate(graphs):
            rng = random.Random(index)
            targets = [range(g.n)] + [
                [x for x in range(g.n) if rng.random() < 0.5] or [rng.randrange(g.n)] for _ in range(30)
            ]
            for target in targets:
                for v in range(g.n):
                    assert wide_shadow(g, target, v) == _gamma_fold(g, target, v), (g.edges(), target, v)
                    triples += 1
        assert triples > 30000


class TestFrozenBypaths:
    def test_c4_has_bypath(self):
        g = cycle(4)
        p = Path((0, 1, 2))
        assert [b.vertices for b in bypaths(g, p)] == [(0, 3, 2)]
        assert find_bypath(g, p) == Path((0, 3, 2))
        assert not is_bypath_free(g, p)
        assert bypath_vertices(g, p) == {3}

    def test_c5_bypath_free(self):
        g = cycle(5)
        p = Path((0, 1, 2))
        assert bypaths(g, p) == []
        assert find_bypath(g, p) is None
        assert is_bypath_free(g, p)

    def test_c6_long_detour(self):
        g = cycle(6)
        p = Path((0, 1, 2, 3))
        assert [b.vertices for b in bypaths(g, p)] == [(0, 5, 4, 3)]
        assert bypath_vertices(g, p) == {4, 5}

    def test_short_paths_trivially_free(self):
        g = cycle(4)
        assert is_bypath_free(g, Path((0,)))
        assert is_bypath_free(g, Path((0, 1)))

    def test_two_path_unique_common_neighbor(self):
        # A 2-path is bypath-free exactly when its middle vertex is the only
        # common neighbor of the ends.
        g = Graph(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
        assert not is_bypath_free(g, Path((0, 1, 2)))
        h = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert is_bypath_free(h, Path((0, 1, 2)))

    def test_host_restriction_changes_answer(self):
        # Dropping the detour vertex from the host removes the bypath.
        g = cycle(4)
        p = Path((0, 1, 2))
        assert not is_bypath_free(g, p)
        assert is_bypath_free(g, p, mask_of([0, 1, 2]))

    def test_bypath_limit(self):
        # K_{2,3} minus nothing: path 0-2-1 has two detours through 3 and 4.
        g = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        p = Path((0, 2, 1))
        assert len(bypaths(g, p)) == 2


class TestBypathStructure:
    def test_reroute_is_isometric(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_connected(rng, rng.randint(4, 9))
            for seq in isometric_paths(g, 5):
                if len(seq) < 3:
                    continue
                p = Path(seq)
                for b in bypaths(g, p):
                    i = p.index_of(b.vertices[0])
                    j = p.index_of(b.vertices[-1])
                    assert j - i == b.length >= 2
                    assert set(b.vertices[1:-1]).isdisjoint(seq)
                    rerouted = seq[:i] + b.vertices + seq[j + 1 :]
                    assert Path(rerouted).is_isometric_in(g)

    def test_shadow_criterion_matches_search(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_connected(rng, rng.randint(3, 8))
            for seq in isometric_paths(g, 5):
                p = Path(seq)
                assert is_bypath_free(g, p) == is_bypath_free_by_search(g, p)

    def test_unit_shadow_iff_on_bypath(self):
        rng = random.Random(9)
        for _ in range(60):
            g = random_connected(rng, rng.randint(3, 8))
            for seq in isometric_paths(g, 5):
                if len(seq) < 2:
                    continue
                p = Path(seq)
                oracle = PathShadows(g, p)
                on_bypath = bypath_vertices(g, p)
                for v in range(g.n):
                    if v in seq:
                        continue
                    lo, hi = oracle.interval(v)
                    assert (lo == hi) == (v in on_bypath)

    def test_shadow_drift_at_most_one(self):
        # Neighboring probes have shadow intervals whose endpoints differ by
        # at most one position.
        rng = random.Random(17)
        for _ in range(40):
            g = random_connected(rng, rng.randint(3, 9))
            for seq in isometric_paths(g, 5):
                p = Path(seq)
                oracle = PathShadows(g, p)
                for u, v in g.edges():
                    lo_u, hi_u = oracle.interval(u)
                    lo_v, hi_v = oracle.interval(v)
                    assert abs(lo_u - lo_v) <= 1
                    assert abs(hi_u - hi_v) <= 1

    def test_wide_shadow_nonempty_on_isometric_paths(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_connected(rng, rng.randint(2, 9))
            for seq in isometric_paths(g, 5):
                assert is_isometric_subgraph(g, seq)
                for v in range(g.n):
                    assert wide_shadow(g, set(seq), v)


def _answer(call):
    """A call's result, or its ValueError as (type name, message)."""
    try:
        return call()
    except ValueError as e:
        return ("ValueError", str(e))


def _pinned_cases():
    """(graph, path, host) triples: every isometric path of every connected
    6-vertex graph, then seeded graphs with host masks, where the paths are
    the isometric ones of the host plus paths of g whose first vertex's
    masked row does not read j at vertex j (those record the refusals)."""
    for g in connected_graphs(6):
        for seq in isometric_paths(g):
            yield g, Path(seq), None
    for seed in range(12):
        g = seeded_connected(7 + seed % 4, 0.3, seed)
        rng = random.Random(seed)
        kept = g.vertex_mask() & ~mask_of(rng.sample(range(g.n), 2))
        host = g.component_of(next(bits(kept)), kept)
        for seq in isometric_paths(g, 5, host):
            yield g, Path(seq), host
        for seq in isometric_paths(g, 4):
            p = Path(seq)
            row = g.bfs_levels(seq[0], host)
            if p.length >= 2 and any(row[v] != j for j, v in enumerate(seq)):
                yield g, p, host


def _pinned_answers(g: Graph, p: Path, host: int | None):
    def intervals():
        oracle = PathShadows(g, p, host)
        return [_answer(lambda v=v: oracle.interval(v)) for v in range(g.n)]

    return (
        _answer(lambda: find_bypath(g, p, host)),
        _answer(lambda: bypaths(g, p, host)),
        _answer(lambda: sorted(bypath_vertices(g, p, host))),
        _answer(lambda: is_bypath_free(g, p, host)),
        _answer(lambda: is_bypath_free_by_search(g, p, host)),
        _answer(intervals),
    )


class TestPinnedAnswers:
    def test_shadow_and_bypath_answers_are_pinned(self):
        # sha256 of repr of every answer, in case order; recorded from the
        # implementation that ran one BFS set per call before the detour
        # scanner and the isometry check were shared.
        h = hashlib.sha256()
        count = 0
        for g, p, host in _pinned_cases():
            h.update(repr((g.edges(), p.vertices, host, _pinned_answers(g, p, host))).encode())
            count += 1
        assert (count, h.hexdigest()) == (
            5825,
            "b96dbca4bf6bc2f5e27132f621edbaf26854acde541409d0ab07579ed223d1ca",
        )


# -- the definitions, from one BFS row per path position ----------------------


def _rows(g: Graph, p: Path, host: int) -> list[list[int]]:
    return [g.bfs_levels(v, host) for v in p.vertices]


def _isometric_by_pairs(g: Graph, p: Path, rows: list[list[int]]) -> bool:
    verts = p.vertices
    return p.is_path_in(g) and all(
        rows[i][verts[j]] == j - i for i in range(len(verts)) for j in range(i + 1, len(verts))
    )


def _interval_by_scan(rows: list[list[int]], length: int, v: int) -> tuple[int, int]:
    lo, hi = 0, length
    for q, dist in enumerate(rows):
        if dist[v] >= 0:
            lo, hi = max(lo, q - dist[v]), min(hi, q + dist[v])
    return lo, hi


def _bypaths_by_search(g: Graph, p: Path, host: int, rows: list[list[int]]) -> list[tuple[int, ...]]:
    """Every walk v_i, w_1, ..., v_j of length j - i >= 2 whose inner
    vertices are off-path host vertices, in order of i, then j, then vertex
    sequence; the row of v_j prunes walks that can no longer arrive in time."""
    verts, off = p.vertices, host & ~p.mask()
    found = []
    for i in range(len(verts)):
        for j in range(i + 2, len(verts)):
            span, to_j = j - i, rows[j]

            def extend(seq):
                if len(seq) == span:
                    if g.has_edge(seq[-1], verts[j]):
                        found.append(tuple(seq) + (verts[j],))
                    return
                for w in g.neighbors(seq[-1]):
                    if off >> w & 1 and to_j[w] == span - len(seq):
                        extend(seq + [w])

            extend([verts[i]])
    return found


def corner_path(k: int) -> tuple[Graph, Path]:
    """The top row and last column of a k x k grid: every other monotone
    lattice path, C(2k - 2, k - 1) - 1 of them, is a bypath."""
    return grid(k, k), Path(tuple(range(k)) + tuple(k - 1 + k * t for t in range(1, k)))


def _oracle_cases():
    """(graph, path, host): every path of up to five edges of every
    connected graph on at most six vertices in the whole graph, then those
    of seeded 7- to 9-vertex graphs inside a host that drops two vertices,
    then grid corner paths, whose detours are longer than those fit."""
    for n in range(1, 7):
        for g in connected_graphs(n):
            for p in _simple_paths(g, g.vertex_mask()):
                yield g, p, g.vertex_mask()
    for seed in range(15):
        g = seeded_connected(7 + seed % 3, 0.35, 100 + seed)
        rng = random.Random(seed)
        kept = g.vertex_mask() & ~mask_of(rng.sample(range(g.n), 2))
        host = g.component_of(next(bits(kept)), kept)
        for p in _simple_paths(g, host):
            yield g, p, host
    for k in (3, 4, 5):
        g, p = corner_path(k)
        for host in (g.vertex_mask(), g.vertex_mask() & ~mask_of([k * k - k])):
            for q in range(p.length):
                yield g, p.segment(q, p.length), host


def _simple_paths(g: Graph, host: int, max_len: int = 5):
    stack = [(v,) for v in bits(host)]
    while stack:
        seq = stack.pop()
        yield Path(seq)
        if len(seq) <= max_len:
            stack.extend(seq + (w,) for w in g.neighbors(seq[-1]) if host >> w & 1 and w not in seq)


class TestDefinitionOracles:
    def test_isometry_intervals_and_bypaths_match_definitions(self):
        isometric = refused = 0
        for g, p, host in _oracle_cases():
            rows = _rows(g, p, host)
            iso = _isometric_by_pairs(g, p, rows)
            assert p.is_isometric_in(g, host) == iso, (g.edges(), p, host)
            if not iso:
                refused += 1
                with pytest.raises(ValueError):
                    PathShadows(g, p, host)
                continue
            isometric += 1
            shadows = PathShadows(g, p, host)
            for v in bits(host):
                assert shadows.interval(v) == _interval_by_scan(rows, p.length, v)
            found = _bypaths_by_search(g, p, host, rows)
            assert [b.vertices for b in bypaths(g, p, host)] == found
            assert shadows.is_bypath_free() == (not found)
            assert is_bypath_free_by_search(g, p, host) == (not found)
            assert bypath_vertices(g, p, host) == {w for b in found for w in b[1:-1]}
            first = first_bypath(shadows)
            assert (first and first.vertices) == (found[0] if found else None)
        assert isometric > 1000 and refused > 1000


class TestBfsCounts:
    """The two-row design in BFS calls: what each query costs the graph."""

    @pytest.fixture()
    def bfs_calls(self, monkeypatch):
        calls = []
        bfs = Graph._bfs

        def counted(g, src, allowed):
            calls.append(src)
            return bfs(g, src, allowed)

        monkeypatch.setattr(Graph, "_bfs", counted)
        return calls

    def test_two_rows_per_path(self, bfs_calls):
        g, p = corner_path(8)
        shadows = PathShadows(g, p)
        assert len(bfs_calls) <= 2
        bfs_calls.clear()
        assert first_bypath(shadows) == Path((0, 8, 9, 10, 11, 12, 13, 14, 15))
        assert len(bypaths(g, p)) == 3431
        assert bfs_calls == []  # g keeps its whole-graph rows

    def test_isometry_reads_one_row(self, bfs_calls):
        g = grid(6, 6)
        host = g.vertex_mask() & ~mask_of([35])
        assert Path(tuple(range(6))).is_isometric_in(g, host)
        assert len(bfs_calls) == 1


class TestBypathBudget:
    def test_count_refuses_before_listing(self):
        g, p = corner_path(11)
        start = time.perf_counter()
        with pytest.raises(TooManyBypaths) as info:
            bypaths(g, p)
        assert time.perf_counter() - start < 1.0
        assert (info.value.count, info.value.budget) == (184755, 10_000)
        assert str(info.value) == "184755 bypaths exceed budget 10000"

    def test_budget_is_inclusive(self):
        g, p = corner_path(5)
        assert len(bypaths(g, p, budget=69)) == 69
        with pytest.raises(TooManyBypaths):
            bypaths(g, p, budget=68)
