"""Generators, the exhaustive corpus, and witness constructions."""

import hashlib
import random
from itertools import permutations

import networkx as nx
import pytest

from pursuit import constructions
from pursuit.constructions import (
    _automorphisms,
    _labels,
    build_guard_adversary,
    build_hole_gadget,
    build_hts,
    complete,
    connected_graphs,
    cycle,
    grid,
    is_isomorphic,
    path,
    petersen,
    random_connected,
    random_planar_triangulation,
)
from pursuit.graphs import Graph, is_dominating, is_isometric_subgraph, to_graph6
from pursuit.helly import Hole, find_hole, is_helly


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestGenerators:
    def test_grid(self):
        g = grid(3, 3)
        assert g.n == 9 and g.m == 12
        assert g.has_edge(0, 1) and g.has_edge(0, 3) and not g.has_edge(0, 4)

    def test_path_cycle_complete(self):
        assert path(5).m == 4
        assert cycle(4).edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert complete(5).m == 10

    def test_petersen(self):
        g = petersen()
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_bounds(self):
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            grid(0, 3)
        with pytest.raises(ValueError):
            random_planar_triangulation(2, 1)

    def test_random_connected_deterministic(self):
        a = random_connected(9, 0.3, seed=41)
        b = random_connected(9, 0.3, seed=41)
        assert a == b
        assert a.is_connected()
        assert a != random_connected(9, 0.3, seed=42)

    def test_triangulation_counts(self):
        for n, seed in [(3, 0), (4, 1), (8, 2), (20, 3), (50, 4)]:
            g = random_planar_triangulation(n, seed)
            assert g.n == n and g.m == 3 * n - 6
            assert g.is_connected()
        assert random_planar_triangulation(20, 3) == random_planar_triangulation(20, 3)

    @pytest.mark.parametrize(
        "sizes, digest",
        [
            (
                (4, 5, 8, 24, 30),
                "1fc56ceb119003cbb230afb320a1396feec88c4c1a59e4f95f9bc5081b6792d8",
            ),
            # The acceptance campaign's corpus.
            (
                (200,),
                "ec41565e5ee870ae7d68225d3a24643e8a11ad4ebcc615ee9c82d8a626e23140",
            ),
        ],
    )
    def test_triangulation_output_is_pinned(self, sizes, digest):
        # sha256 of the graph6 lines for seeds 0..49 of each size, recorded
        # from the original generator: the seeds name a fixed corpus.
        h = hashlib.sha256()
        for n in sizes:
            for seed in range(50):
                g6 = to_graph6(random_planar_triangulation(n, seed))
                h.update(g6.encode("ascii") + b"\n")
        assert h.hexdigest() == digest


class TestCorpus:
    def test_connected_counts(self):
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
        for n, count in expected.items():
            assert len(connected_graphs(n)) == count

    def test_all_connected(self):
        for g in connected_graphs(5):
            assert g.is_connected()

    def test_pairwise_distinct(self):
        reps = connected_graphs(4)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not is_isomorphic(reps[i], reps[j])

    def test_isomorphism_spot_checks(self):
        assert is_isomorphic(cycle(5), Graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]))
        assert not is_isomorphic(path(4), Graph(4, [(0, 1), (0, 2), (0, 3)]))

    @pytest.mark.parametrize(
        "n, digest",
        [
            (1, "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae"),
            (2, "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f"),
            (3, "ff300d6b5191490a6a2d507279c750a00c4d53fb98b6e1b3e8b59ef7894631ec"),
            (4, "59f05773e1599dbd0d7a4a269f3cf4b28b2db33e02c061f11cc56710029566f8"),
            (5, "b464d15021b10ce593e1ff4e3d8007961284f62b404d597fd548e42e19407975"),
            (6, "5b10ca0b43ce2f03e40ed371ee233b1653654334962c7e1613908db99a84af99"),
            (7, "c8e1cca3fdec9f27faddabd4eca8b34ad4db427ef26073aed433b8874a2bea34"),
            (8, "7b4360f5f590a8073cc969dfa8e886bd3f1228dc4cf553ad09c67344b4112e55"),
        ],
    )
    def test_graph6_lists_are_pinned(self, n, digest):
        # sha256 of the newline-joined graph6 list: the corpora's
        # representatives and their order are fixed, whatever the bucketing.
        text = "\n".join(to_graph6(g) for g in connected_graphs(n))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    def test_isomorphism_matches_networkx(self):
        # Random pairs (mostly of unequal size), pairs with equal n and m,
        # and a seeded relabelling of each graph, with and without one edge
        # moved, held to networkx.
        rng = random.Random(22)
        pairs = []

        def rand_graph(n, m):
            pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
            return Graph(n, rng.sample(pool, min(m, len(pool))))

        for _ in range(300):
            a = rand_graph(rng.randint(1, 7), rng.randint(0, 12))
            b = rand_graph(rng.randint(1, 7), rng.randint(0, 12))
            pairs.append((a, b))
            pairs.append((a, rand_graph(a.n, a.m)))
        for g in connected_graphs(6) + rng.sample(connected_graphs(7), 60):
            perm = list(range(g.n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in g.edges()]
            h = Graph(g.n, edges)
            pairs.append((g, h))
            absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not h.has_edge(u, v)]
            if absent:
                edges[rng.randrange(len(edges))] = rng.choice(absent)
                pairs.append((g, Graph(g.n, edges)))
        agree = set()
        for a, b in pairs:
            want = nx.is_isomorphic(_to_nx(a), _to_nx(b))
            assert is_isomorphic(a, b) == want, (to_graph6(a), to_graph6(b))
            agree.add(want)
        assert agree == {True, False}

    def test_automorphisms_match_brute_force(self):
        # Aut from the backtracking, against all n! permutations, on every
        # connected graph with n <= 6: the same set, and no repeats.
        for n in range(1, 7):
            for g in connected_graphs(n):
                adj = [g.adj_mask(v) for v in range(n)]
                found = _automorphisms(adj)
                brute = {p for p in permutations(range(n)) if all(g.has_edge(p[u], p[v]) for u, v in g.edges())}
                assert len(found) == len(set(found)), to_graph6(g)
                assert set(found) == brute, to_graph6(g)

    def test_label_equal_pairs_are_refuted(self):
        # Both pairs are regular with every vertex carrying one label, so
        # only the backtracking can tell them apart.
        k33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
        prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
        rook = Graph(16, [(a, b) for a in range(16) for b in range(a + 1, 16) if a // 4 == b // 4 or a % 4 == b % 4])
        steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
        shrikhande = Graph(
            16,
            [(a, b) for a in range(16) for b in range(a + 1, 16) if ((b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4) in steps],
        )
        for a, b, label in ((k33, prism, ((3, 3, 3), (1, 3, 2))), (rook, shrikhande, ((6,) * 6, (1, 6, 9)))):
            for g in (a, b):
                assert _labels([g.adj_mask(v) for v in range(g.n)]) == [label] * g.n
                assert is_isomorphic(g, g)
            assert not is_isomorphic(a, b) and not is_isomorphic(b, a)

    def test_orders_differ_never_isomorphic(self):
        assert not is_isomorphic(Graph(0), Graph(1))
        assert not is_isomorphic(Graph(3), Graph(4))
        assert not is_isomorphic(path(3), path(4))
        assert not is_isomorphic(complete(4), Graph(5, complete(4).edges()))

    def test_orbit_pruning_candidate_count(self, monkeypatch):
        # A fresh n = 7 build labels each candidate once; orbit pruning under
        # Aut(parent) leaves 3,771 of the 112 * 63 = 7,056 neighbourhood
        # subsets.  The cache is swapped for one holding n <= 6 only, and
        # monkeypatch puts the full one back.
        parents = {n: connected_graphs(n) for n in range(1, 7)}
        orders = []

        def spy(adj):
            orders.append(len(adj))
            return _labels(adj)

        monkeypatch.setattr(constructions, "_CONNECTED_CACHE", parents)
        monkeypatch.setattr(constructions, "_labels", spy)
        fresh = connected_graphs(7)
        assert len(parents[6]) == 112 and orders.count(7) == 3771
        monkeypatch.undo()
        assert fresh == connected_graphs(7)


class TestHts:
    def test_sizes(self):
        for (t, s), size in [((3, 1), 6), ((3, 2), 9), ((5, 3), 35)]:
            g, desc = build_hts(t, s)
            assert g.n == size
            assert len(desc.subsets) == len(desc.privates)
            assert all(len(p) == s for p in desc.privates)

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            build_hts(4, 1)
        with pytest.raises(ValueError):
            build_hts(3, 0)

    def test_domination_characterization(self):
        # A set dominates H(t,s) exactly when it meets every clique K_X.
        for t, s in [(3, 1), (3, 2)]:
            g, desc = build_hts(t, s)
            cliques = [
                set(x) | set(p) for x, p in zip(desc.subsets, desc.privates)
            ]
            for mask in range(1 << g.n):
                a = {v for v in range(g.n) if mask >> v & 1}
                expected = all(a & kx for kx in cliques)
                assert is_dominating(g, a) == expected


class TestAdversary:
    def test_explicit_gadget(self):
        h, desc = build_hts(3, 2)
        gadget = build_guard_adversary(h, desc, k=1)
        assert gadget.explicit
        assert gadget.graph.n == 9 + 8
        assert len(gadget.transversals) == 8
        for idx, chosen in enumerate(gadget.transversals):
            apex = gadget.apex_base + idx
            assert set(gadget.graph.neighbors(apex)) == set(chosen)

    def test_certificate_against_every_single_cop(self):
        h, desc = build_hts(3, 2)
        gadget = build_guard_adversary(h, desc, k=1)
        cert = gadget.certificate
        for cop in range(h.n):
            i = cert.cop_free_subset((cop,))
            kx = set(desc.subsets[i]) | set(desc.privates[i])
            assert cop not in kx
            s = cert.escape_transversal((cop,))
            assert cop not in s
            assert len(s) == len(desc.subsets)

    def test_certificate_mode_for_large_family(self):
        h, desc = build_hts(5, 3)
        gadget = build_guard_adversary(h, desc, k=2)
        assert not gadget.explicit and gadget.graph is None
        rng = random.Random(99)
        for _ in range(200):
            cops = tuple(rng.sample(range(h.n), 2))
            i = gadget.certificate.cop_free_subset(cops)
            kx = set(desc.subsets[i]) | set(desc.privates[i])
            assert not kx & set(cops)
            s = gadget.certificate.escape_transversal(cops)
            assert not set(s) & set(cops)

    def test_hypothesis_violations(self):
        h, desc = build_hts(3, 2)
        with pytest.raises(ValueError):
            build_guard_adversary(h, desc, k=2)  # m = 2 is not > k
        h5, desc5 = build_hts(5, 2)
        with pytest.raises(ValueError):
            build_guard_adversary(h5, desc5, k=2)  # s = 2 is not > k
        with pytest.raises(ValueError):
            gadget = build_guard_adversary(h, desc, k=1)
            gadget.certificate.cop_free_subset((0, 1))


class TestHoleGadget:
    def test_c4_wheel(self):
        g = cycle(4)
        gadget = build_hole_gadget(g, find_hole(g))
        assert gadget.n == 5 and gadget.m == 8
        assert set(gadget.neighbors(4)) == {0, 1, 2, 3}

    def test_radius_two_path(self):
        g = cycle(7)
        hole = find_hole(g)
        assert hole == Hole(centers=(0, 1, 4), radii=(1, 1, 2))
        gadget = build_hole_gadget(g, hole)
        assert gadget.n == 9
        assert gadget.has_edge(7, 0) and gadget.has_edge(7, 1)
        assert gadget.has_edge(7, 8) and gadget.has_edge(8, 4)

    def test_invalid_hole_rejected(self):
        with pytest.raises(ValueError):
            build_hole_gadget(cycle(6), Hole(centers=(0, 1, 3), radii=(1, 1, 1)))

    def test_isometry_preserved_small_corpus(self):
        checked = 0
        for n in range(3, 7):
            for g in connected_graphs(n):
                if is_helly(g):
                    continue
                gadget = build_hole_gadget(g, find_hole(g))
                assert is_isometric_subgraph(gadget, range(g.n))
                checked += 1
        assert checked >= 10
