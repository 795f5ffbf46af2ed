"""Wide shadows and bypaths: frozen small cases plus cross-route checks."""

from __future__ import annotations

import hashlib
import random

import pytest

from pursuit.constructions import connected_graphs
from pursuit.constructions import random_connected as seeded_connected
from pursuit.graphs import Graph, Path, bits, is_isometric_subgraph, mask_of
from pursuit.shadows import (
    PathShadows,
    bypath_vertices,
    bypaths,
    find_bypath,
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

    def test_disconnected_probe_full_shadow(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert wide_shadow(g, {0, 1, 2}, 4) == {0, 1, 2}

    def test_non_isometric_path_rejected(self):
        g = cycle(6)
        with pytest.raises(ValueError):
            PathShadows(g, Path((0, 1, 2, 3, 4)))

    def test_query_outside_host(self):
        g = cycle(6)
        oracle = PathShadows(g, Path((0, 1, 2)), mask_of([0, 1, 2, 3]))
        with pytest.raises(ValueError):
            oracle.interval(5)


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
    the isometric ones of the host plus paths of g that are not isometric in
    it (those record the refusals)."""
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
            if p.length >= 2 and not p.is_isometric_in(g, host):
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
