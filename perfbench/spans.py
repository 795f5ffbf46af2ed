"""Spans around calls into pursuit's public functions, and the per-layer
metrics derived from them.

Tracing wraps functions from outside the package: ``instrument`` replaces
each target in its defining module or class, and in every other loaded
module that imported it by name (``from pursuit.helly import find_hole``
binds a second reference), then puts the originals back.  Spans stay in
memory as four parallel arrays (name, start, end, parent) and are written
out once the run ends.  A span's self time is its duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = (
    "graphs",
    "shadows",
    "helly",
    "solver",
    "controllers",
    "planar",
    "strategy",
    "constructions",
    "cli",
)

# (module, qualified name) of every wrapped function or method.  Graph
# primitives that run in a microsecond (neighbors, has_edge, adj_mask) stay
# unwrapped: their time counts as the caller's self time.
TARGETS = {
    "graphs": (
        "Graph.bfs_levels",
        "Graph.distances_from",
        "Graph.is_connected",
        "Graph.components",
        "Graph.component_of",
        "Graph.induced",
        "Path.is_isometric_in",
        "distance_matrix",
        "ball",
        "is_isometric_subgraph",
        "shortest_path",
        "is_dominating",
        "domination_number",
        "from_graph6",
        "to_graph6",
        "from_edge_list",
        "to_edge_list",
    ),
    "shadows": (
        "gamma",
        "wide_shadow",
        "PathShadows.__init__",
        "PathShadows.interval",
        "PathShadows.shadow_vertices",
        "PathShadows.contains",
        "find_bypath",
        "bypaths",
        "bypath_vertices",
        "is_bypath_free",
        "is_bypath_free_by_search",
    ),
    "helly": (
        "find_corner",
        "dismantling_order",
        "is_dismantlable",
        "is_helly",
        "is_helly_oracle",
        "is_valid_hole",
        "find_hole",
    ),
    "solver": (
        "solve",
        "cop_number",
        "k_move_cop_number",
        "is_guardable",
        "StrategyTable.cop_move",
        "StrategyTable.robber_reply",
    ),
    "controllers": (
        "WideShadowGuard.__init__",
        "WideShadowGuard.step",
        "LeisurelyGuard.__init__",
        "LeisurelyGuard.step",
        "capture_shadow",
        "ScriptedWalk.step",
        "RandomAdversary.place",
        "RandomAdversary.move",
        "GreedyAdversary.__init__",
        "GreedyAdversary.place",
        "GreedyAdversary.move",
        "OptimalAdversary.place",
        "OptimalAdversary.move",
    ),
    "planar": ("embed", "region", "classify_vertex", "select_bypath"),
    "strategy": (
        "run_two_move_strategy",
        "validate_trace",
        "Trace.to_json",
        "Trace.from_json",
    ),
    "constructions": (
        "path",
        "cycle",
        "complete",
        "grid",
        "petersen",
        "random_connected",
        "random_planar_triangulation",
        "is_isomorphic",
        "connected_graphs",
        "build_hts",
        "build_guard_adversary",
        "build_hole_gadget",
    ),
    "cli": ("main",),
}

# Per-layer time metrics: the self time of the named spans, summed.
SELF_TIME_METRICS = {
    "constructions.triangulation_s": ("constructions.random_planar_triangulation",),
    "constructions.corpus_s": ("constructions.connected_graphs", "constructions.is_isomorphic"),
    "planar.embed_s": ("planar.embed",),
    "strategy.play_self_s": ("strategy.run_two_move_strategy",),
    "strategy.validate_s": ("strategy.validate_trace",),
    "controllers.guard_step_s": ("controllers.WideShadowGuard.step", "controllers.LeisurelyGuard.step"),
    "controllers.adversary_s": tuple(
        f"controllers.{cls}.{m}"
        for cls in ("RandomAdversary", "GreedyAdversary", "OptimalAdversary")
        for m in ("__init__", "place", "move")
    ),
    "shadows.path_shadows_s": (
        "shadows.gamma",
        "shadows.wide_shadow",
        "shadows.PathShadows.__init__",
        "shadows.PathShadows.interval",
        "shadows.PathShadows.shadow_vertices",
        "shadows.PathShadows.contains",
    ),
    "shadows.bypath_s": (
        "shadows.find_bypath",
        "shadows.bypaths",
        "shadows.bypath_vertices",
        "shadows.is_bypath_free",
        "shadows.is_bypath_free_by_search",
    ),
    "graphs.bfs_s": tuple(
        f"graphs.{f}"
        for f in (
            "Graph.bfs_levels",
            "Graph.distances_from",
            "Graph.is_connected",
            "Graph.components",
            "Graph.component_of",
            "Path.is_isometric_in",
            "distance_matrix",
            "ball",
            "is_isometric_subgraph",
            "shortest_path",
        )
    ),
    "graphs.codec_s": tuple(
        f"graphs.{f}" for f in ("from_graph6", "to_graph6", "from_edge_list", "to_edge_list")
    ),
    "helly.find_hole_s": ("helly.find_hole",),
    "helly.is_helly_s": ("helly.is_helly", "helly.is_helly_oracle"),
    "helly.dismantling_s": ("helly.dismantling_order", "helly.find_corner", "helly.is_dismantlable"),
    "solver.solve_s": ("solver.solve", "solver.cop_number", "solver.k_move_cop_number"),
    "solver.guard_s": ("solver.is_guardable",),
}

# Span names whose calls are counted.
CALL_COUNTS = {
    "graphs.bfs_calls": ("graphs.Graph.bfs_levels",),
    "solver.solves": ("solver.solve",),
    "cli.invocations": ("cli.main",),
    "shadows.calls": tuple(f"shadows.{q}" for q in TARGETS["shadows"]),
}

ITEM = "item"


class Recorder:
    """Spans in four parallel arrays, plus counters fed by result hooks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def write(self, path: str) -> None:
        """Write every span as [name, start, end, parent], times relative to the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write('{"names": ')
            json.dump(self.names, fh)
            fh.write(', "spans": [')
            for i in range(len(self.name)):
                if i:
                    fh.write(",")
                fh.write(
                    f"[{self.name[i]},{self.start[i] - t0:.7f},"
                    f"{self.end[i] - t0:.7f},{self.parent[i]}]"
                )
            fh.write("]}\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval; overlapping children
    are merged so that no instant is subtracted twice.
    """
    n = len(start)
    kids: dict[int, list[int]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            kids.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, ks in kids.items():
        lo_p, hi_p = start[p], end[p]
        ivs = sorted((max(start[k], lo_p), min(end[k], hi_p)) for k in ks)
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


# -- instrumentation ----------------------------------------------------------


def _on_return(span_name: str, rec: Recorder, result) -> None:
    """Counters read off return values at the layer boundary."""
    if span_name == "solver.solve":
        rec.count("solver.states", len(result[1].rank))
    elif span_name == "strategy.run_two_move_strategy":
        rec.count("strategy.games")
        for turn in result.turns:
            if turn.get("mover") == "cops":
                rec.count("strategy.cop_turns")
            note = turn.get("note")
            if isinstance(note, dict) and "case" in note:
                rec.count("strategy.replans")


_COUNTED = {"solver.solve", "strategy.run_two_move_strategy"}


def _wrap(fn, span_name: str, rec: Recorder):
    nid = rec.name_id(span_name)
    counted = span_name in _COUNTED

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if counted:
            _on_return(span_name, rec, result)
        return result

    return spanned


@contextmanager
def instrument(rec: Recorder):
    """Wrap every target in TARGETS for the duration of the block."""
    modules = {name: mod for name, mod in list(sys.modules.items()) if mod is not None}
    undo: list[tuple[object, str, object]] = []
    try:
        for layer, qualnames in TARGETS.items():
            mod = modules[f"pursuit.{layer}"]
            for qual in qualnames:
                *owner_path, attr = qual.split(".")
                owner = mod
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                span_name = f"{layer}.{qual}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrap(raw.__func__, span_name, rec))
                else:
                    wrapped = _wrap(raw, span_name, rec)
                undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                if owner is mod:
                    # rebind the copies that `from pursuit.<layer> import <attr>`
                    # made, in pursuit and in the benchmark's own modules
                    for other in modules.values():
                        if other is not mod and other.__dict__.get(attr) is raw:
                            undo.append((other, attr, raw))
                            setattr(other, attr, wrapped)
        yield rec
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(rec: Recorder, rounds: int) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one round of the load.

    Spans under an item span belong to the load and are divided by the
    number of rounds; spans outside any item come from set-up and count
    once.  The counters come from the traced load only: cop turns and
    replans per game, states per round.
    """
    item_id = rec._ids.get(ITEM)
    in_load = _under_item(rec, item_id)
    selfs = self_times(rec.start, rec.end, rec.parent)
    setup_t: dict[str, float] = {}
    load_t: dict[str, float] = {}
    setup_n: dict[str, int] = {}
    load_n: dict[str, int] = {}
    for i, s in enumerate(selfs):
        name = rec.names[rec.name[i]]
        t, c = (load_t, load_n) if in_load[i] else (setup_t, setup_n)
        t[name] = t.get(name, 0.0) + s
        c[name] = c.get(name, 0) + 1
    per = max(rounds, 1)

    def total(table_t, names):
        return sum(table_t.get(n, 0.0) for n in names)

    def per_round(names, setup_table, load_table):
        return total(setup_table, names) + total(load_table, names) / per

    out: dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = per_round(names, setup_t, load_t)
    for metric, names in CALL_COUNTS.items():
        out[metric] = per_round(names, setup_n, load_n)
    for layer in LAYERS:
        names = [n for n in set(setup_t) | set(load_t) if n.startswith(layer + ".")]
        out[f"{layer}.self_s"] = per_round(names, setup_t, load_t)
    out["bench.self_s"] = load_t.get(ITEM, 0.0) / per

    counters = rec.counters  # filled during the traced load only
    games = counters.get("strategy.games", 0)
    out["strategy.cop_turns"] = counters.get("strategy.cop_turns", 0) / games if games else 0.0
    out["strategy.replans"] = counters.get("strategy.replans", 0) / games if games else 0.0
    states = counters.get("solver.states", 0)
    solve_s = load_t.get("solver.solve", 0.0)
    solves = load_n.get("solver.solve", 0)
    out["solver.states"] = states / per
    out["solver.states_per_s"] = states / solve_s if solve_s > 0 else 0.0
    out["solver.solve_per_call_s"] = solve_s / solves if solves else 0.0
    return out


def _under_item(rec: Recorder, item_id: int | None) -> list[bool]:
    """Whether each span lies inside an item span (parents precede children)."""
    n = len(rec.name)
    flags = [False] * n
    if item_id is None:
        return flags
    for i in range(n):
        p = rec.parent[i]
        flags[i] = rec.name[i] == item_id or (p >= 0 and flags[p])
    return flags
