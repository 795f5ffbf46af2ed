"""Release gate: ten end-to-end guarantees, one test line each.

The ten tests below are the claims the package ships with.  They favour
exhaustive small corpora over spot checks: every connected graph up to a
size bound, every isometric path, every non-Helly core, plus randomized
corpora with pinned seeds where exhaustion is out of reach.  Expensive
corpora are built once at module scope and shared between tests.

Reading order matches the dependency order of the library: wide shadows,
bypaths, Helly recognition, cop-win certificates, guardability both ways,
exact game values, the planar two-move bound, the capture campaign, the
adversary gadgets, and the rest discipline of leisurely guards.
"""

import random
import time

import pytest

from pursuit.constructions import (
    build_guard_adversary,
    build_hole_gadget,
    build_hts,
    connected_graphs,
    cycle,
    grid,
    path,
    petersen,
    random_connected,
    random_planar_triangulation,
)
from pursuit.controllers import GreedyAdversary, OptimalAdversary, RandomAdversary
from pursuit.graphs import (
    Path,
    bits,
    domination_number,
    is_isometric_subgraph,
    mask_of,
    shortest_path,
)
from pursuit.helly import dismantling_order, find_hole, is_helly, is_helly_oracle
from pursuit.planar import embed
from pursuit.referee import validate_trace
from pursuit.shadows import PathShadows, bypath_vertices, wide_shadow
from pursuit.solver import GameSpec, cop_number, is_guardable, k_move_cop_number, solve
from pursuit.strategy import run_two_move_strategy


# -- shared corpora -----------------------------------------------------------


@pytest.fixture(scope="module")
def corpus7():
    """Every connected graph on at most 7 vertices, one per isomorphism class."""
    return [g for n in range(1, 8) for g in connected_graphs(n)]


@pytest.fixture(scope="module")
def corpus8(corpus7):
    return corpus7 + connected_graphs(8)


@pytest.fixture(scope="module")
def campaign():
    """Planar capture runs shared by the campaign and rest-discipline tests.

    Grids up to 15x15, fifty triangulations on 200 vertices under both the
    random and the greedy adversary, and exact adversaries on instances small
    enough to solve.  Each entry carries the graph, the finished trace, and
    the validator's findings so no test re-runs the engine.
    """
    start = time.monotonic()
    runs = []
    for rows, cols in ((2, 3), (5, 5), (8, 8), (12, 12), (15, 15), (3, 20)):
        g = grid(rows, cols)
        runs.append((g, run_two_move_strategy(g, adversary=RandomAdversary(g, seed=11))))
        runs.append((g, run_two_move_strategy(g, adversary=GreedyAdversary(g, seed=12))))
    for seed in range(50):
        g = random_planar_triangulation(200, seed)
        runs.append((g, run_two_move_strategy(g, adversary=RandomAdversary(g, seed=seed))))
        runs.append((g, run_two_move_strategy(g, adversary=GreedyAdversary(g, seed=seed))))
    for g in (grid(3, 3), cycle(8), path(7)):
        _, table = solve(GameSpec(g, cops=3, active_cap=2))
        runs.append((g, run_two_move_strategy(g, adversary=OptimalAdversary(g, table))))
    checked = [(g, tr, validate_trace(g, tr)) for g, tr in runs]
    return checked, time.monotonic() - start


# -- target enumeration helpers -----------------------------------------------


def isometric_paths(g):
    """All isometric paths of length >= 1, one orientation per path."""
    seen = set()
    for v in range(g.n):
        stack = [(v,)]
        while stack:
            seq = stack.pop()
            if len(seq) >= 2:
                # Dedup reversals at the yield only; a pruned prefix would
                # also prune extensions that have no other spelling.
                key = seq if seq[0] < seq[-1] else seq[::-1]
                if key not in seen:
                    seen.add(key)
                    yield Path(seq)
            for w in g.neighbors(seq[-1]):
                if w in seq:
                    continue
                cand = seq + (w,)
                if Path(cand).is_isometric_in(g):
                    stack.append(cand)


def isometric_path_sets(g):
    out = {frozenset(p.vertices) for p in isometric_paths(g)}
    return sorted(tuple(sorted(s)) for s in out)


def helly_targets(g):
    """Vertex sets inducing connected isometric Helly subgraphs.

    Covers every isometric path as well: an isometric path never has a
    chord, so its vertex set induces a path, which is Helly.
    """
    for m in range(1, g.vertex_mask() + 1):
        hv = tuple(bits(m))
        if len(hv) > 1:
            if g.component_of(hv[0], m) != m:
                continue
            if not is_isometric_subgraph(g, hv):
                continue
            sub, _ = g.induced(hv)
            if not is_helly(sub):
                continue
        yield hv


def check_shadow_pair(g, hv):
    """Shadows onto hv are nonempty, and adjacent vertices throw shadows
    within distance one of each other."""
    shadows = [wide_shadow(g, hv, v) for v in range(g.n)]
    for s in shadows:
        assert s, (g.edges(), hv)
    for u, v in g.edges():
        for a, b in ((u, v), (v, u)):
            sb = shadows[b]
            for y in shadows[a]:
                assert y in sb or any(g.has_edge(y, z) for z in sb), (
                    g.edges(),
                    hv,
                    a,
                    b,
                    y,
                )


# -- the ten guarantees -------------------------------------------------------


def test_01_wide_shadows_nonempty_and_lipschitz(corpus7):
    start = time.monotonic()
    pairs = 0
    for g in corpus7:
        for hv in helly_targets(g):
            check_shadow_pair(g, hv)
            pairs += 1
    rng = random.Random(20240)
    for _ in range(500):
        n = rng.randrange(4, 13)
        g = random_connected(n, rng.random() * 0.5, rng.randrange(10**6))
        for hv in isometric_path_sets(g):
            check_shadow_pair(g, hv)
            pairs += 1
    assert pairs > 50000
    assert time.monotonic() - start < 300


def test_02_singleton_path_shadows_mark_bypaths(corpus7):
    pairs = singletons = 0
    for g in corpus7:
        for p in isometric_paths(g):
            ps = PathShadows(g, p)
            marked = bypath_vertices(g, p)
            on_path = set(p.vertices)
            for v in range(g.n):
                if v in on_path:
                    continue
                lo, hi = ps.interval(v)
                assert (lo == hi) == (v in marked), (g.edges(), p.vertices, v)
                pairs += 1
                singletons += lo == hi
    assert pairs > 100000
    assert singletons > 0


def test_03_helly_recognition_routes_agree(corpus7):
    for g in corpus7:
        direct = is_helly(g)
        oracle = is_helly_oracle(g)
        hole = find_hole(g)
        assert direct == oracle == (hole is None), g.edges()


def test_04_helly_graphs_are_cop_win(corpus7):
    members = [g for g in corpus7 if is_helly(g)]
    assert len(members) > 100
    for g in members:
        assert dismantling_order(g) is not None, g.edges()
        assert cop_number(g, 1) == 1, g.edges()


def test_05_guardability_of_helly_targets_both_ways(corpus7):
    # Forward: isometric Helly targets in random hosts fall to one guard.
    rng = random.Random(31415)
    pairs = 0
    while pairs < 200:
        n = rng.randrange(5, 11)
        g = random_connected(n, 0.15 + rng.random() * 0.35, rng.randrange(10**6))
        for _ in range(4):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            p = shortest_path(g, u, v)
            hv = tuple(sorted(p.vertices))
            assert is_guardable(g, hv, 1), (g.edges(), hv)
            pairs += 1
        for _ in range(6):
            k = rng.randrange(2, n + 1)
            hv = tuple(sorted(rng.sample(range(n), k)))
            m = mask_of(hv)
            if g.component_of(hv[0], m) != m:
                continue
            if not is_isometric_subgraph(g, hv):
                continue
            sub, _ = g.induced(hv)
            if not is_helly(sub):
                continue
            assert is_guardable(g, hv, 1), (g.edges(), hv)
            pairs += 1
    # Converse: every connected non-Helly core on at most 6 vertices stays
    # isometric inside its hole gadget yet defeats a single guard there.
    cores = 0
    for h in (g for n in range(2, 7) for g in connected_graphs(n)):
        hole = find_hole(h)
        if hole is None:
            continue
        gadget = build_hole_gadget(h, hole)
        hv = tuple(range(h.n))
        assert is_isometric_subgraph(gadget, hv)
        assert not is_guardable(gadget, hv, 1), h.edges()
        cores += 1
    assert cores == 53


def test_06_exact_values_and_monotonicity(corpus8):
    for n in range(4, 11):
        assert cop_number(path(n), 3) == 1
        assert cop_number(cycle(n), 3) == 2
    assert cop_number(petersen(), 3) == 3
    for g in corpus8:
        c = cop_number(g, 4)
        c2 = cop_number(g, 4, active_cap=2)
        c1 = cop_number(g, 4, active_cap=1)
        assert c is not None and c2 is not None and c1 is not None, g.edges()
        assert c1 >= c2 >= c, (g.edges(), c1, c2, c)
        assert c <= domination_number(g), g.edges()


def test_07_planar_two_move_cop_number_at_most_three():
    corpus = [
        g
        for n in range(1, 7)
        for g in connected_graphs(n)
        if embed(g) is not None
    ]
    rng = random.Random(9009)
    while len(corpus) < 500:
        n = rng.randrange(7, 11)
        if rng.random() < 0.3:
            corpus.append(random_planar_triangulation(n, rng.randrange(10**6)))
            continue
        g = random_connected(n, 0.2 + rng.random() * 0.3, rng.randrange(10**6))
        if embed(g) is not None:
            corpus.append(g)
    corpus = corpus[:500]
    assert len(corpus) == 500
    for g in corpus:
        k = k_move_cop_number(g, 2, 3)
        assert k is not None and k <= 3, g.edges()


def test_08_capture_campaign(campaign):
    runs, elapsed = campaign
    assert len(runs) >= 115
    for g, tr, violations in runs:
        assert tr.verdict.get("outcome") == "captured", (g.n, tr.verdict)
        cop_turns = sum(1 for rec in tr.turns if rec["mover"] == "cops")
        assert cop_turns <= 10 * g.n * g.n, (g.n, cop_turns)
        assert violations == [], (g.n, violations[:3])
    assert elapsed < 1800


def test_09_adversary_gadgets():
    # Small case: a cop-win core that no single cop can guard in its gadget.
    h, desc = build_hts(3, 2)
    assert cop_number(h, 1) == 1
    gadget = build_guard_adversary(h, desc, 1)
    assert gadget.explicit and gadget.graph is not None
    hv = tuple(range(h.n))
    assert is_isometric_subgraph(gadget.graph, hv)
    assert not is_guardable(gadget.graph, hv, 1)
    # Large case: the explicit gadget is refused, the certificate stands in.
    h2, desc2 = build_hts(5, 3)
    gadget2 = build_guard_adversary(h2, desc2, 2)
    assert not gadget2.explicit and gadget2.graph is None
    cert = gadget2.certificate
    rng = random.Random(65537)
    for _ in range(1000):
        cops = tuple(rng.randrange(h2.n) for _ in range(rng.randrange(1, 3)))
        placed = set(cops)
        i = cert.cop_free_subset(cops)
        assert placed.isdisjoint(desc2.subsets[i])
        assert placed.isdisjoint(desc2.privates[i])
        chosen = cert.escape_transversal(cops)
        assert len(chosen) == len(desc2.subsets)
        assert placed.isdisjoint(chosen)
        for j, pick in enumerate(chosen):
            assert pick in desc2.privates[j]


def _audit_rest(g, trace):
    """Recount the rest rule straight from the records.

    A leisurely guard on a path with L edges may move at most L cop turns in
    a row unless the robber stepped onto the path during the run; it must
    rest at least once per L+1 turns otherwise.  Returns (faults, rests,
    leisurely guards seen).
    """
    faults = rests = seen = 0
    runs: dict = {}
    captured = trace.verdict.get("outcome") == "captured"
    final = len(trace.turns) - 1
    for idx, rec in enumerate(trace.turns):
        if rec["mover"] != "cops":
            continue
        note = rec.get("note")
        if note and "guards" in note:
            fresh = [gd for gd in note["guards"] if gd["kind"] == "leisurely"]
            seen += sum(
                1 for gd in fresh if (gd["cop"], tuple(gd["path"])) not in runs
            )
            runs = {
                (gd["cop"], tuple(gd["path"])): runs.get(
                    (gd["cop"], tuple(gd["path"])), [0, False]
                )
                for gd in fresh
            }
        if captured and idx == final:
            continue
        for (c, p), run in runs.items():
            if rec["robber"] in p:
                run[1] = True
            if rec["moved"][c]:
                run[0] += 1
                if run[0] > len(p) - 1 and not run[1]:
                    faults += 1
            else:
                rests += 1
                run[0] = 0
                run[1] = False
    return faults, rests, seen


def test_10_leisurely_guards_rest(campaign):
    runs, _ = campaign
    faults = rests = seen = 0
    for g, tr, violations in runs:
        assert not any(v.startswith("rest:") for v in violations)
        f, r, s = _audit_rest(g, tr)
        faults += f
        rests += r
        seen += s
    assert faults == 0
    assert seen > 0 and rests > 0
