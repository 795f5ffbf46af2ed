"""Embedding, region, classification, and bypath-selection tests."""

import hashlib
import random

import networkx as nx
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
from pursuit.graphs import Graph, Path, bits, mask_of
from pursuit.planar import (
    BypathChoice,
    PlanarEmbedding,
    _lr_rotation,
    _strip_interior,
    classify_vertex,
    embed,
    region,
    select_bypath,
)
from pursuit.shadows import is_bypath_free


class TestEmbedding:
    def test_k4_has_four_faces(self):
        e = embed(complete(4))
        assert e is not None
        assert e.face_count() == 4

    def test_k5_is_not_planar(self):
        assert embed(complete(5)) is None

    def test_petersen_is_not_planar(self):
        assert embed(petersen()) is None

    def test_grid_faces(self):
        e = embed(grid(3, 3))
        assert e is not None
        assert e.face_count() == 5  # four cells plus the outer face

    def test_tree_has_one_face(self):
        e = embed(path(6))
        assert e is not None
        assert e.face_count() == 1

    def test_single_vertex(self):
        e = embed(Graph(1))
        assert e is not None
        assert e.face_count() == 1

    def test_empty_or_disconnected_graph_refused(self):
        triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        k5_and_isolated = Graph(6, [(a, b) for a in range(5) for b in range(a + 1, 5)])
        for g in (Graph(0), Graph(2), triangles, k5_and_isolated):
            with pytest.raises(ValueError, match="connected graph with at least one vertex"):
                embed(g)

    def test_twisted_rotation_rejected(self):
        # All-sorted rotations wrap K4 on the torus: the darts close into
        # two faces and the sphere count fails.
        g = complete(4)
        rotation = [tuple(u for u in range(4) if u != v) for v in range(4)]
        with pytest.raises(ValueError):
            PlanarEmbedding(g, rotation)

    def test_wrong_neighbor_set_rejected(self):
        g = cycle(4)
        rotation = [(1, 3), (0, 2), (1, 3), (0, 1)]
        with pytest.raises(ValueError):
            PlanarEmbedding(g, rotation)

    def test_faces_partition_darts(self):
        for seed in range(3):
            g = random_planar_triangulation(16, seed=seed)
            e = embed(g)
            darts = [d for face in e.faces() for d in face]
            assert len(darts) == 2 * g.m
            assert len(set(darts)) == len(darts)

    def test_outer_face_deterministic(self):
        e = embed(grid(2, 3))
        assert e.outer_face() == e.outer_face()
        assert len(e.faces()[e.outer_face()]) == max(len(f) for f in e.faces())

    def test_faces_are_pinned(self):
        # sha256 of repr((faces(), outer_face())) for every connected planar
        # graph with n <= 7 and six random triangulations; recorded from the
        # embedding that looked up each next dart in the rotation row and
        # indexed the faces in a second pass.
        graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
        graphs += [random_planar_triangulation(n, s) for n in (30, 60, 200) for s in (0, 1)]
        h = hashlib.sha256()
        count = 0
        for g in graphs:
            e = embed(g)
            if e is None:
                continue
            h.update(repr((e.faces(), e.outer_face())).encode() + b"\n")
            count += 1
        assert (count, h.hexdigest()) == (
            781,
            "a76e4c146e63d5cf22596ad2cd192eef369f79988a4d089e83642e537ccf1d5e",
        )


def _networkx_rows(g: Graph):
    """Rotation rows from networkx's planarity test, or None if non-planar."""
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    ok, emb = nx.check_planarity(ng)
    if not ok:
        return None
    data = emb.get_data()
    return [tuple(data[v]) for v in range(g.n)]


def _random_graph(rng: random.Random) -> Graph:
    n = rng.randint(1, 40)
    p = rng.choice((0.03, 0.08, 0.15, 0.3))
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])


class TestNetworkxOracle:
    """The left-right test behind embed returns networkx's rotations, start
    neighbor included, or None exactly where networkx finds no embedding."""

    def assert_matches(self, graphs) -> tuple[int, int]:
        planar = nonplanar = 0
        for g in graphs:
            want = _networkx_rows(g)
            assert _lr_rotation(g) == want, (g.n, g.edges())
            planar += want is not None
            nonplanar += want is None
        return planar, nonplanar

    def test_connected_graphs_up_to_seven_vertices(self):
        graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
        assert len(graphs) == 996
        planar, nonplanar = self.assert_matches(graphs)
        assert nonplanar == 221

    def test_small_and_classic_graphs(self):
        k33 = Graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
        graphs = [Graph(0), Graph(1), Graph(2), path(2), complete(5), k33, petersen()]
        # Wheels (hub 0), fans and stars (hub n-1): inserts at the front of
        # long rows and back edges into one high-degree vertex.
        for n in (50, 500):
            spokes = [(v, n - 1) for v in range(n - 1)]
            rim = [(v, v + 1) for v in range(n - 2)]
            wheel = Graph(n, [(0, v) for v in range(1, n)] + [(v + 1, v + 2) for v in range(n - 2)] + [(1, n - 1)])
            graphs += [wheel, Graph(n, spokes + rim), Graph(n, spokes)]
        assert self.assert_matches(graphs) == (10, 3)

    def test_seeded_random_graphs(self):
        rng = random.Random(17)
        graphs = [_random_graph(rng) for _ in range(300)]
        planar, nonplanar = self.assert_matches(graphs)
        disconnected = sum(1 for g in graphs if not g.is_connected())
        assert planar > 100 and nonplanar > 50 and disconnected > 50

    def test_triangulations(self):
        graphs = [random_planar_triangulation(n, seed=1) for n in (10, 50, 200, 2000)]
        assert self.assert_matches(graphs) == (4, 0)
        assert embed(graphs[-1]).rotation == dict(enumerate(_networkx_rows(graphs[-1])))

    def test_grids(self):
        graphs = [grid(r, c) for r in range(1, 16) for c in range(r, 16, 2)]
        assert self.assert_matches(graphs) == (len(graphs), 0)


def _component_sets(g: Graph, boundary) -> list[set[int]]:
    allowed = g.vertex_mask() & ~mask_of(boundary)
    out = []
    seen = 0
    for v in bits(allowed):
        if seen >> v & 1:
            continue
        comp = g.component_of(v, allowed)
        seen |= comp
        out.append(set(bits(comp)))
    return out


def _sides_partition(g: Graph, e: PlanarEmbedding, p: Path, q: Path) -> None:
    boundary = p.vertex_set() | q.vertex_set()
    rest = [v for v in range(g.n) if v not in boundary]
    if not rest:
        return
    first = frozenset(bits(region(e, p, q, rest[0])))
    other = frozenset(v for v in rest if v not in first)
    for v in rest:
        got = frozenset(bits(region(e, p, q, v)))
        assert got in (first, other)
        assert v in got
        assert not got & boundary
    # independent check: components of g minus the boundary stay on one side
    for comp in _component_sets(g, boundary):
        assert comp <= first or not comp & first


def _set_split(e: PlanarEmbedding, p: Path, q: Path, seeds) -> tuple[frozenset, frozenset]:
    """Reference split: flood the faces dart by dart through sets, never
    across a cycle edge, then collect each side's vertices face by face."""
    blocked = {
        dart
        for path in (p, q)
        for a, b in zip(path.vertices, path.vertices[1:])
        for dart in ((a, b), (b, a))
    }
    faces = e.faces()
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for u, v in faces[todo.pop()]:
            if (u, v) not in blocked and e.face_of(v, u) not in seen:
                seen.add(e.face_of(v, u))
                todo.append(e.face_of(v, u))
    near: set[int] = set()
    far: set[int] = set()
    for f, face in enumerate(faces):
        (near if f in seen else far).update(u for u, _ in face)
    boundary = p.vertex_set() | q.vertex_set()
    return frozenset(near - boundary), frozenset(far - boundary)


def _two_path_cycles(g: Graph):
    """Every 4-cycle a-x-b-y as the paths (a, x, b) and (a, y, b), x < y."""
    for a in range(g.n):
        for b in range(a + 1, g.n):
            common = list(bits(g.adj_mask(a) & g.adj_mask(b)))
            for i, x in enumerate(common):
                for y in common[i + 1 :]:
                    yield a, b, x, y


class TestSplitMasks:
    def test_region_and_strip_match_the_set_flood(self):
        cycles = 0
        for n in (30, 60):
            for seed in (0, 1):
                g = random_planar_triangulation(n, seed)
                e = embed(g)
                for a, b, x, y in _two_path_cycles(g):
                    p, q = Path((a, x, b)), Path((a, y, b))
                    off = [v for v in range(n) if v not in (a, b, x, y)]
                    near, far = _set_split(e, p, q, {e.face_of(off[0], w) for w in e.rotation[off[0]]})
                    assert region(e, p, q, off[0]) == mask_of(near)
                    if far:
                        pivot = max(far)
                        assert region(e, p, q, pivot) == mask_of(_set_split(e, p, q, {e.face_of(pivot, w) for w in e.rotation[pivot]})[0])
                    # q's span (a, x, b) against the detour (a, y, b), p's
                    # first edge leaving a off the pocket cycle
                    w = min(set(g.neighbors(a)) - {x, y})
                    want = _set_split(e, p, q, {e.face_of(a, w)})[1]
                    assert _strip_interior(e, Path((a, w)), p, q) == mask_of(want)
                    cycles += 1
        assert cycles == 1990

class TestRegion:
    def test_hub_inside_split_cycle(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)])
        e = embed(g)
        assert region(e, Path((0, 1, 2)), Path((0, 3, 2)), 4) == mask_of({4})

    def test_grid_center_between_halves(self):
        e = embed(grid(3, 3))
        p = Path((0, 1, 2, 5, 8))
        q = Path((0, 3, 6, 7, 8))
        assert region(e, p, q, 4) == mask_of({4})

    def test_grid_outer_side(self):
        e = embed(grid(3, 3))
        p = Path((0, 1, 2))
        q = Path((0, 3, 4, 5, 2))
        assert region(e, p, q, 7) == mask_of({6, 7, 8})

    def test_pivot_on_boundary_rejected(self):
        e = embed(grid(3, 3))
        with pytest.raises(ValueError):
            region(e, Path((0, 1, 2, 5, 8)), Path((0, 3, 6, 7, 8)), 7)

    def test_degenerate_pair_rejected(self):
        e = embed(grid(3, 3))
        with pytest.raises(ValueError):
            region(e, Path((0, 1)), Path((0, 1)), 4)
        with pytest.raises(ValueError):
            region(e, Path((0, 1, 2)), Path((0, 3, 4, 1)), 8)

    def test_sides_partition_on_faces(self):
        for seed in range(6):
            g = random_planar_triangulation(14, seed=seed)
            e = embed(g)
            for face in e.faces():
                verts = [u for u, _ in face]
                if len(set(verts)) != len(verts) or len(verts) < 3:
                    continue
                p = Path((verts[0], verts[1]))
                q = Path(tuple([verts[0]] + verts[:0:-1]))
                _sides_partition(g, e, p, q)
                break

    def test_sides_partition_grid(self):
        g = grid(4, 4)
        e = embed(g)
        p = Path((0, 1, 2, 3, 7, 11, 15))
        q = Path((0, 4, 8, 12, 13, 14, 15))
        _sides_partition(g, e, p, q)


class TestClassifyVertex:
    def test_dominating_cases(self):
        star = Graph(5, [(4, i) for i in range(4)])
        for g, v in ((complete(4), 2), (star, 4)):
            e = embed(g)
            assert classify_vertex(e, v, 0).case == "dominating"

    def test_path_case_on_path(self):
        e = embed(path(5))
        got = classify_vertex(e, 2, 4)
        assert got.case == "path"
        assert got.path == Path((2, 1, 0))

    def test_poles_on_k23(self):
        g = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        e = embed(g)
        got = classify_vertex(e, 0, 3)
        assert got.case == "poles"
        assert got.u == 1
        assert 3 in (got.x1, got.x2)
        assert len(got.region_vertices) == 4
        assert len({2, 3, 4} - got.region_vertices) == 1

    def test_poles_on_grid_edge_vertex(self):
        e = embed(grid(3, 3))
        got = classify_vertex(e, 1, 8)
        assert got.case == "poles"
        assert {got.x1, got.x2} == {0, 4} or {got.x1, got.x2} == {2, 4} or {
            got.x1,
            got.x2,
        } == {0, 2}
        assert 8 in got.region_vertices

    def test_boundary_witness_takes_small_side(self):
        e = embed(grid(3, 3))
        got = classify_vertex(e, 1, 0)
        assert got.case == "poles"
        assert 0 in got.region_vertices

    def test_exhaustive_over_small_hosts(self):
        hosts = [grid(3, 4), random_planar_triangulation(10, seed=1)]
        for g in hosts:
            e = embed(g)
            for v in range(g.n):
                for z in range(g.n):
                    got = classify_vertex(e, v, z)
                    if got.case == "path":
                        assert v in got.path.vertex_set()
                        assert got.path.is_isometric_in(g)
                        assert is_bypath_free(g, got.path)
                    elif got.case == "poles":
                        assert z in got.region_vertices
                        within = mask_of(got.region_vertices)
                        for pa, xb in ((got.p1, got.x2), (got.p2, got.x1)):
                            host = within & ~(1 << xb)
                            assert pa.is_isometric_in(g, host)
                            assert is_bypath_free(g, pa, host)


class TestPinnedClassification:
    def test_classifications_are_pinned(self):
        # sha256 of repr(classify_vertex(e, v, z)), or of the exception's
        # class name, for every ordered (v, z) on every connected planar
        # graph with 3 to 6 vertices; recorded from the classifier that
        # flooded each side of a fan quadrant in its own pass.
        h = hashlib.sha256()
        count = 0
        for n in range(3, 7):
            for g in connected_graphs(n):
                e = embed(g)
                if e is None:
                    continue
                for v in range(g.n):
                    for z in range(g.n):
                        try:
                            out = repr(classify_vertex(e, v, z))
                        except Exception as exc:
                            out = type(exc).__name__
                        h.update(out.encode() + b"\n")
                        count += 1
        assert (count, h.hexdigest()) == (
            4178,
            "cb6b6c0f12573bfb580d444770ca2caacfd74eee046cb3d67a7a7b976d1e64d6",
        )

    def test_masked_classifications_are_pinned(self):
        # sha256 of repr(classify_vertex(...)), or of the exception's class
        # name, on every connected planar graph with 3 to 6 vertices, every
        # host mask of at least 3 vertices inducing a connected subgraph,
        # and every ordered (v, z) in that host; recorded from the
        # classifier that ran on a separate embedding of each host.
        h = hashlib.sha256()
        count = 0
        for n in range(3, 7):
            for g in connected_graphs(n):
                e = embed(g)
                if e is None:
                    continue
                for mask in range(1 << n):
                    if bin(mask).count("1") < 3:
                        continue
                    if g.component_of((mask & -mask).bit_length() - 1, mask) != mask:
                        continue
                    for v in bits(mask):
                        for z in bits(mask):
                            try:
                                out = repr(classify_vertex(e, v, z, mask))
                            except Exception as exc:
                                out = type(exc).__name__
                            h.update(out.encode() + b"\n")
                            count += 1
        assert (count, h.hexdigest()) == (
            46377,
            "d1a41f48a84022afb97cb7cb131469556a2c4ff8409a1ee8d9c298b50819aaad",
        )


def _theta_with_two_detours():
    # q runs 0-1-2-3; detours through 4 and 5 nest between the 2-route and
    # the outer path through 6 that plays the part of p.
    g = Graph(
        7,
        [
            (0, 1),
            (1, 2),
            (2, 3),
            (1, 4),
            (4, 3),
            (1, 5),
            (5, 3),
            (0, 6),
            (6, 3),
        ],
    )
    return g, Path((0, 6, 3)), Path((0, 1, 2, 3))


class TestSelectBypath:
    def test_free_verdict(self):
        g = grid(2, 3)
        e = embed(g)
        got = select_bypath(e, Path((0, 1, 2)), Path((0, 3, 4, 5, 2)))
        assert got == BypathChoice(free=True)

    def test_innermost_of_nested_detours(self):
        g, p, q = _theta_with_two_detours()
        e = embed(g)
        got = select_bypath(e, p, q)
        assert not got.free
        assert got.strip == frozenset()
        assert (got.bypath.vertices[0], got.bypath.vertices[-1]) == (1, 3)
        mid = got.bypath.vertices[1]
        assert mid in {4, 5}
        assert got.composite == Path((0, 1, mid, 3))

    def test_pocket_vertex_survives_selection(self):
        # vertex 7 sits in a pocket between detour routes
        g, p, q = _theta_with_two_detours()
        g = Graph(8, g.edges() + [(7, 2), (7, 4)])
        e = embed(g)
        got = select_bypath(e, p, q)
        assert not got.free
        assert got.bypath.vertices[1] in {4, 5}
        assert not {4, 5} & got.strip

    def test_descent_through_composite_violations(self):
        # Pinned rotations put 7 in the pocket between the detour through
        # 6, 4 and the path q, so the first candidate's composite gains a
        # detour through 7 and the selection must descend through it.
        g = Graph(
            8,
            [
                (0, 1), (1, 2), (2, 3),
                (0, 5), (5, 3),
                (0, 6), (6, 4), (4, 3),
                (6, 7), (7, 3),
            ],
        )
        rotation = [
            (5, 6, 1),
            (2, 0),
            (3, 1),
            (2, 7, 4, 5),
            (3, 6),
            (3, 0),
            (4, 7, 0),
            (3, 6),
        ]
        e = PlanarEmbedding(g, rotation)
        assert e.face_count() == 4
        got = select_bypath(e, Path((0, 5, 3)), Path((0, 1, 2, 3)))
        assert not got.free
        assert got.bypath == Path((0, 6, 7, 3))
        assert got.composite == Path((0, 6, 7, 3))
        assert got.strip == frozenset()

    def test_descent_terminates_on_ambiguous_instance(self):
        g, p, q = _theta_with_two_detours()
        g = Graph(8, g.edges() + [(7, 0), (7, 4)])
        e = embed(g)
        got = select_bypath(e, p, q)
        assert not got.free
        assert got.bypath.vertices[0] in q.vertex_set()
        assert got.bypath.vertices[-1] in q.vertex_set()
        inner = set(got.bypath.vertices[1:-1])
        assert inner and inner.isdisjoint(q.vertex_set())
        assert got.composite.vertices[0] == 0 and got.composite.vertices[-1] == 3
        assert got.strip.isdisjoint(got.composite.vertex_set() | q.vertex_set())

    def test_precondition_violations_are_named(self):
        e = embed(grid(3, 3))
        with pytest.raises(ValueError, match="not isometric"):
            select_bypath(e, Path((0, 1, 2)), Path((0, 3, 6, 7, 8, 5, 2)))
        g, p, q = _theta_with_two_detours()
        g = Graph(8, g.edges() + [(0, 7), (7, 3)])
        e2 = embed(g)
        with pytest.raises(ValueError, match="bypath"):
            select_bypath(e2, p, q)

    @pytest.mark.parametrize(
        "extra, calls",
        [(None, 4), ([], 13), ([(7, 2), (7, 4)], 11), ([(7, 0), (7, 4)], 13)],
        ids=["free", "nested", "pocket", "ambiguous"],
    )
    def test_bfs_calls(self, monkeypatch, extra, calls):
        # The graphs of the tests above.  Isometry is checked once per (path,
        # host): find_bypath's rows refuse a path that is not isometric, so
        # no separate check runs before or after it.
        if extra is None:
            e, p, q = embed(grid(2, 3)), Path((0, 1, 2)), Path((0, 3, 4, 5, 2))
        else:
            g, p, q = _theta_with_two_detours()
            e = embed(Graph(8, g.edges() + extra) if extra else g)
        sources = []
        bfs = Graph._bfs

        def counted(g, src, allowed):
            sources.append(src)
            return bfs(g, src, allowed)

        monkeypatch.setattr(Graph, "_bfs", counted)
        select_bypath(e, p, q)
        assert len(sources) == calls
