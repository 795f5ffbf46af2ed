"""The four workloads: inputs built from a seed, and items that check their answers.

``prepare(name, seed, workdir)`` builds a workload's inputs (its set-up) and
returns the items of one round.  Every item is a ``(label, fn)`` pair whose
``fn()`` runs the timed work, checks every answer with ``measure.check``,
and returns the cop turns of the games it played against a robber that
ignores its seed (greedy or optimal); games against the random robber are
played and checked but not counted, so capture_turns_mean is a count of the
code, not of the seed.  A round's items are the same each time it runs, so
a run covers whole rounds of identical work.

The workload seed picks the random robbers of triangulation-campaign, the
guard targets and hole-gadget cores of exact-solve, and the path ends of
corpus-census.  Inputs whose cost swings with the seed by more than a run
can average are fixed instead: the triangulations, and grid-chase's random
robbers, whose games on one grid last from 3 to 60 turns as the seed varies.

``tiny=True`` shrinks every input so that a smoke test finishes in seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

# Imported here, not inside the first item: ``pursuit.planar.embed`` imports
# networkx lazily, and that import is set-up, not load.
import networkx  # noqa: F401

from pursuit import cli
from pursuit.constructions import (
    build_hole_gadget,
    connected_graphs,
    grid,
    is_isomorphic,
    petersen,
    random_planar_triangulation,
)
from pursuit.controllers import GreedyAdversary, OptimalAdversary, RandomAdversary
from pursuit.graphs import (
    Graph,
    domination_number,
    from_graph6,
    shortest_path,
    to_graph6,
)
from pursuit.helly import dismantling_order, find_hole, is_helly, is_valid_hole
from pursuit.planar import embed
from pursuit.shadows import PathShadows, bypath_vertices, is_bypath_free
from pursuit.solver import GameSpec, cop_number, is_guardable, k_move_cop_number, solve
from pursuit.strategy import Trace, run_two_move_strategy, validate_trace

from measure import check

NAMES = ("triangulation-campaign", "grid-chase", "exact-solve", "corpus-census")

# Rounds are kept to a few seconds, so that a run holds five or more of
# them and each item's time is its median over those rounds.
#
# The triangulations are a fixed corpus, random_planar_triangulation(200, i)
# for i in range(2), as in the acceptance campaign; the workload seed picks
# the random robbers' seeds.  Seeded graphs would make the round time swing
# with the graphs drawn, since a round holds only two.  Two, not more: an
# item takes about 2 s, and a run needs six or so rounds for steady medians.
TRIANGULATION_N = 200
TRIANGULATION_POOL = 2
# Every square size from 12 to 15 and a long strip, so that game times are
# spread evenly and item_p50_ref_s does not jump across a gap between sizes.
# Larger grids do not fit a short round: an 18x18 game with validation takes
# 1-2 s, a 24x24 one 8 s.
GRIDS = tuple((k, k) for k in range(12, 16)) + ((3, 30),)
# corpus-census takes every connected graph on up to 6 vertices and every
# sixth on 7 (in connected_graphs order), and every fourth tree on 8.
CENSUS_SEVEN_STRIDE = 6
CENSUS_TREE_STRIDE = 4
# exact-solve's one grid solve (3 cops, 2 moving): 4x5, 62k states, about
# 1 s.  A 5x5 solve (146k states, 2-3 s) read 3.0 to 4.2 ref_s across ten
# runs: its memory-bound time follows the reference kernel less closely, and
# a run holds only four or five.  A 6x6 solve takes 10 s and 164 MB.
SOLVE_GRID = (4, 5)


@dataclass
class Prepared:
    items: list
    digest: str | None  # sha256 of the graph6 inputs built in set-up


def prepare(name: str, seed: int, workdir: str, digests: dict, tiny: bool = False) -> Prepared:
    rng = random.Random(f"{name}:{seed}")
    if name == "triangulation-campaign":
        return _triangulation_campaign(rng, digests, tiny)
    if name == "grid-chase":
        return _grid_chase(workdir, tiny)
    if name == "exact-solve":
        return _exact_solve(rng, tiny)
    if name == "corpus-census":
        return _corpus_census(rng, tiny)
    raise ValueError(f"unknown workload {name!r}")


def memory_probe(name: str) -> GameSpec | None:
    """The solve whose tracemalloc peak gives solver.bytes_per_state, if any.

    It is exact-solve's first query; tracemalloc slows it about fourfold.
    """
    return GameSpec(grid(*SOLVE_GRID), 3, active_cap=2) if name == "exact-solve" else None


def sha256_lines(lines) -> str:
    return hashlib.sha256("".join(ln + "\n" for ln in lines).encode("ascii")).hexdigest()


def cop_turns(trace: Trace) -> int:
    return sum(1 for t in trace.turns if t["mover"] == "cops")


def _checked(g: Graph, tr: Trace) -> int:
    """Require capture and a clean validation; return the game's cop turns."""
    check(tr.captured, f"game not captured: {tr.verdict}")
    problems = validate_trace(g, tr)
    check(problems == [], f"validator findings: {problems[:3]}")
    return cop_turns(tr)


# -- triangulation-campaign ----------------------------------------------------


def _triangulation_campaign(rng: random.Random, digests: dict, tiny: bool) -> Prepared:
    n = 30 if tiny else TRIANGULATION_N
    pool = 2 if tiny else TRIANGULATION_POOL
    expected = [] if tiny else digests.get("triangulations", [])
    items = []
    for i in range(pool):
        adv_seed = rng.randrange(2**31)
        want = expected[i] if i < len(expected) else None
        items.append((f"tri{n}-{i}", _triangulation_item(n, i, adv_seed, want)))
    # The graphs are generated inside the items, which check each graph6
    # against the digest recorded for its graph seed; set-up builds none.
    return Prepared(items, None)


def _triangulation_item(n: int, graph_seed: int, adv_seed: int, want: str | None):
    def run() -> list[int]:
        g = random_planar_triangulation(n, graph_seed)
        check(g.m == 3 * n - 6 and g.is_connected(), "not a connected triangulation")
        if want is not None:
            got = hashlib.sha256(to_graph6(g).encode("ascii")).hexdigest()
            check(got == want, f"graph6 of seed {graph_seed} differs from the recorded digest")
        e = embed(g)
        check(e is not None, "triangulation reported non-planar")
        turns = []
        for adv in (RandomAdversary(g, seed=adv_seed), GreedyAdversary(g)):
            tr = run_two_move_strategy(g, e, adv)
            played = _checked(g, tr)
            text = tr.to_json()
            check(Trace.from_json(text).to_json() == text, "trace JSON round trip changed it")
            if adv.name == "greedy":
                turns.append(played)
        return turns

    return run


# -- grid-chase --------------------------------------------------------------------


def _grid_chase(workdir: str, tiny: bool) -> Prepared:
    dims = ((4, 4), (3, 6)) if tiny else GRIDS
    robbers = random.Random("grid-chase robbers")  # fixed: see the module docstring
    lines, items = [], []
    for r, c in dims:
        g6 = to_graph6(grid(r, c))
        lines.append(g6)
        path = os.path.join(workdir, f"grid-{r}x{c}.g6")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(g6 + "\n")
        for adversary in ("random", "greedy"):
            label = f"grid{r}x{c}-{adversary}"
            base = os.path.join(workdir, label)
            items.append((label, _cli_game(path, g6, adversary, robbers.randrange(2**31), base)))
    return Prepared(items, sha256_lines(lines))


def _records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(ln) for ln in fh if ln.strip()]


def _cli_game(g6_path: str, g6: str, adversary: str, seed: int, base: str):
    def run() -> list[int]:
        sim, val = base + ".sim.jsonl", base + ".val.jsonl"
        argv = ["simulate", g6_path, "--adversary", adversary, "--seed", str(seed), "--output", sim]
        code = cli.main(argv)
        check(code == 0, f"pursuit simulate exited {code}")
        recs = _records(sim)
        check(len(recs) == 1, f"simulate emitted {len(recs)} records for one graph")
        rec = recs[0]
        check(rec["outcome"] == "captured" and rec["graph"] == g6, "simulate record is wrong")
        code = cli.main(["validate", sim, "--output", val])
        check(code == 0, f"pursuit validate exited {code}")
        vals = _records(val)
        check(len(vals) == 1, f"validate emitted {len(vals)} records for one trace")
        check(vals[0]["ok"] is True and vals[0]["violations"] == [], "validate found violations")
        if adversary != "greedy":
            return []
        return [sum(1 for t in rec["turns"] if t["mover"] == "cops")]

    return run


# -- exact-solve -------------------------------------------------------------------


def _exact_solve(rng: random.Random, tiny: bool) -> Prepared:
    lines, items = [], []
    tables: dict[str, object] = {}

    def note(g: Graph, extra: str = "") -> Graph:
        lines.append(to_graph6(g) + extra)
        return g

    r, c = (3, 3) if tiny else SOLVE_GRID
    g = note(grid(r, c))
    items.append((f"solve-grid{r}x{c}", _solve_item(g, tables, "grid")))
    items.append((f"optimal-game-grid{r}x{c}", _optimal_game_item(g, tables, "grid")))

    pete = note(petersen())
    items.append(("copnumbers-petersen", _copnumbers_item(pete, expect=3)))
    # Nine fixed triangulations of one size: their items cost about the
    # same, and the median item falls among them.
    for i in range(2 if tiny else 9):
        g = note(random_planar_triangulation(8 if tiny else 24, i))
        items.append((f"copnumbers-tri{g.n}-{i}", _copnumbers_item(g)))

    # Guard mode: an isometric path is guarded by one cop, so by two as well.
    for k, cops in (((3, 1),) if tiny else ((7, 2), (12, 1))):
        g = grid(k, k)
        u, v = rng.sample(range(g.n), 2)
        target = tuple(sorted(shortest_path(g, u, v).vertices))
        note(g, " " + ",".join(map(str, target)))
        items.append((f"guard{cops}-grid{k}", _guard_item(g, target, cops, True)))
    # A non-Helly core stays isometric in its hole gadget but defeats one guard.
    cores = [h for n in range(4, 5 if tiny else 7) for h in connected_graphs(n) if not is_helly(h)]
    for h in rng.sample(cores, 1 if tiny else 6):
        gadget = note(build_hole_gadget(h, find_hole(h)))
        items.append((f"guard1-gadget{to_graph6(h)}", _guard_item(gadget, tuple(range(h.n)), 1, False)))
    return Prepared(items, sha256_lines(lines))


def _solve_item(g: Graph, tables: dict, key: str):
    def run() -> list[int]:
        won, table = solve(GameSpec(g, 3, active_cap=2))
        check(won and table.initial is not None, "three cops with two moving lost on a grid")
        tables[key] = table
        return []

    return run


def _optimal_game_item(g: Graph, tables: dict, key: str):
    def run() -> list[int]:
        table = tables.pop(key)  # frees the table once its game is played
        return [_checked(g, run_two_move_strategy(g, adversary=OptimalAdversary(g, table)))]

    return run


def _copnumbers_item(g: Graph, expect: int | None = None):
    """Unrestricted and one-move cop numbers of one graph, checked together."""

    def run() -> list[int]:
        c = cop_number(g, 3)
        check(c is not None, "planar or Petersen graph needs more than three cops")
        if expect is not None:
            check(c == expect, f"cop number {c}, expected {expect}")
        c1 = k_move_cop_number(g, 1, 3)
        check(c1 is None or c1 >= c, f"1-move cop number {c1} below unrestricted {c}")
        return []

    return run


def _guard_item(g: Graph, target: tuple[int, ...], cops: int, expect: bool):
    def run() -> list[int]:
        got = is_guardable(g, target, cops)
        check(got == expect, f"is_guardable gave {got}, expected {expect}")
        return []

    return run


# -- corpus-census -----------------------------------------------------------------


def trees_on(n: int) -> list[Graph]:
    """Every tree on n >= 2 vertices up to isomorphism, by attaching a leaf."""
    if n == 2:
        return [Graph(2, [(0, 1)])]
    out: list[Graph] = []
    for t in trees_on(n - 1):
        for v in range(n - 1):
            g = Graph(n, t.edges() + [(v, n - 1)])
            if not any(is_isomorphic(g, h) for h in out):
                out.append(g)
    return out


def king_grid(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    edges.append((r * cols + c, rr * cols + cc))
    return Graph(rows * cols, edges)


def _corpus_census(rng: random.Random, tiny: bool) -> Prepared:
    top = 4 if tiny else 6
    corpus = [g for n in range(1, top + 1) for g in connected_graphs(n)]
    if not tiny:
        corpus += connected_graphs(7)[::CENSUS_SEVEN_STRIDE]
    # Helly graphs on 8 vertices: every fourth tree and the 2x4 king grid.
    # They stop at 8 because find_hole searches exhaustively even on Helly
    # graphs: the slowest of these trees take a third of a second each, P8
    # (not among them) 3 s, P10 minutes.  Each is also played against the
    # greedy robber, so capture_turns_mean exists here.
    extras = [king_grid(2, 2)] if tiny else trees_on(8)[::CENSUS_TREE_STRIDE] + [king_grid(2, 4)]
    lines = [to_graph6(g) for g in corpus + extras]
    items = []
    for i, g6 in enumerate(lines):
        g = corpus[i] if i < len(corpus) else extras[i - len(corpus)]
        ends = tuple(rng.sample(range(g.n), 2)) if g.n > 1 else None
        play = i >= len(corpus)
        items.append((f"census-{i}-{g6}", _census_item(g6, ends, play, rng.randrange(2**31))))
    return Prepared(items, sha256_lines(lines))


def _census_item(g6: str, ends: tuple[int, int] | None, play: bool, seed: int):
    def run() -> list[int]:
        g = from_graph6(g6)
        helly = is_helly(g)
        order = dismantling_order(g)
        hole = find_hole(g)
        check(helly == (hole is None), "is_helly disagrees with find_hole")
        if hole is not None:
            check(is_valid_hole(g, hole), f"invalid hole {hole}")
        if helly:
            check(order is not None, "Helly graph without a dismantling order")
        c = cop_number(g, 3)
        c1 = k_move_cop_number(g, 1, 3)
        check(c is not None, "small graph needs more than three cops")
        check(c1 is None or c1 >= c, f"1-move cop number {c1} below unrestricted {c}")
        check(c <= domination_number(g), "cop number above domination number")
        degrees = {g.degree(v) for v in range(g.n)}
        if helly or (g.m == g.n - 1 and max(degrees, default=0) <= 2):
            check(c == 1, f"Helly graph or path with cop number {c}")
        if g.n >= 4 and g.m == g.n and degrees == {2}:
            check(c == 2, f"cycle with cop number {c}")
        if ends is not None:
            p = shortest_path(g, *ends)
            shadows = PathShadows(g, p)
            singles = set()
            for v in range(g.n):
                lo, hi = shadows.interval(v)
                check(lo <= hi, "empty shadow on an isometric path")
                if lo == hi and v not in p.vertex_set():
                    singles.add(v)
            marked = bypath_vertices(g, p)
            check(singles == set(marked), "singleton shadows do not mark the bypath vertices")
            check(is_bypath_free(g, p) == (not marked), "bypath-freeness disagrees with bypaths")
        if play:
            return [_checked(g, run_two_move_strategy(g, adversary=GreedyAdversary(g, seed=seed)))]
        return []

    return run
