"""Three-cop capture on planar graphs with at most two cops moving per turn.

The engine keeps the robber inside a shrinking territory: the component of
the unguarded part of the graph he occupies.  At most two cops guard at any
time, each responsible for one path.  A guard is parked (its closed
neighborhood covers the whole path), pinned to the robber's wide shadow on
the path, or patrolling leisurely on a bypath-free path.  The remaining cop
is free and runs one mission at a time: a walk that ends in a park, or in a
chase that captures the wide shadow of a freshly chosen path.  An arbiter
grants the mission cop a move only on turns when at most one guard moved,
which keeps every cops' turn at or below two movers.

Replanning fires whenever no mission is active.  It recomputes the
territory, discards guards the territory no longer touches, upgrades
shadow-pinned guards to leisurely patrols once their paths are bypath-free
in the shrunken host, and otherwise reads the next mission off the guard
contact pattern: a path touched on one vertex becomes a parked block or a
classified fan park, a path touched on two adjacent vertices is bridged
through the territory, a wider contact span is rerouted through the
territory and the old guard released, and two single-contact guards are
bridged contact to contact.  A walk glued through the territory is parked
on when it has at most two edges and chased otherwise.  Milestones annotate
the trace with the case label, the guard set, and the territory size; sizes
never increase and strictly decrease whenever the label changes.

A guarded path has one `PathShadows` in its host, the BFS rows from the
path's two ends, from chase to release: the shadow chase builds it, the
pinned guard steps by its intervals, and the leisurely upgrade and the
bypath reroute reuse it while the host is unchanged.  A chase reads its entry off the free cop's
whole-graph BFS row and walks the route `shortest_path` gives to it.  A
territory bridge is one `shortest_path_between` call.

`check_engine_input` owns the input contract; `run_two_move_strategy` and
the command line's `simulate` both call it, the latter before any solve.

The engine writes a `referee.Trace`; `referee.validate_trace` re-checks it
against the graph alone, without this module.
"""

from __future__ import annotations

from pursuit.controllers import (
    ControllerFault,
    LeisurelyGuard,
    PathShadowGuard,
    RandomAdversary,
    ScriptedWalk,
)
from pursuit.graphs import (
    Graph,
    Path,
    bits,
    shortest_path,
    shortest_path_between,
    to_graph6,
)
from pursuit.planar import PlanarEmbedding, PlanarityFault, classify_vertex, embed
from pursuit.referee import Trace

# Only because perfbench/workloads.py and spans.TARGETS["strategy"] still
# name validate_trace through this module; the engine never calls it.
from pursuit.referee import validate_trace
from pursuit.shadows import PathShadows, first_bypath

__all__ = ["check_engine_input", "run_two_move_strategy"]


# -- the free cop's missions -----------------------------------------------------


class _Guard:
    """One cop bound to one path, with the controller that keeps it honest."""

    __slots__ = ("cop", "path", "ctl", "rows")

    def __init__(self, cop: int, path: Path, ctl=None):
        self.cop = cop
        self.path = path
        self.ctl = ctl  # a pinned or leisurely guard's host is ctl.shadows.within
        self.rows: PathShadows | None = None  # the path's rows last built in another host

    @property
    def kind(self) -> str:
        """Milestone kind: "park" without a controller, else the controller's."""
        return "park" if self.ctl is None else self.ctl.kind


class _Mission:
    """Free-cop assignment: a walk that ends in a park or a chase.

    The cop replays route.  Without shadows it then parks, covering
    park_path.  With shadows, the rows of an isometric path that route ends
    on, it then steps toward the robber's wide shadow on that path.  The
    shadow is a position interval that drifts by at most one per robber move
    and cannot leave the path, so the cop ends up inside it no matter how
    its granted turns interleave with robber moves: the interval must cross
    the cop's position to get past it, and the crossing is observed.

    release lists guards to drop once the mission lands; any further guard
    whose doors end up covered is released by the coverage sweep then.
    """

    def __init__(self, g: Graph, cop: int, route, release, park_path=None, shadows=None):
        self.cop = cop
        self.walk = ScriptedWalk(g, route)
        self.release = tuple(release)
        self.park_path = park_path
        self.shadows = shadows
        if shadows is not None:
            self.at = shadows.path.index_of(route[-1])  # path position once walked
            self.steps = 0
            self.cap = len(route) + (shadows.path.length + 2) * (g.n + 2)

    def done(self, robber: int) -> bool:
        if self.shadows is None or not self.walk.done:
            return self.walk.done
        lo, hi = self.shadows.interval(robber)
        return lo <= self.at <= hi

    def step(self, robber: int) -> int:
        if self.shadows is None:
            return self.walk.step()
        self.steps += 1
        if self.steps > self.cap:
            raise PlanarityFault("shadow chase exceeded its turn bound")
        if not self.walk.done:
            return self.walk.step()
        lo, hi = self.shadows.interval(robber)
        if self.at < lo:
            self.at += 1
        elif self.at > hi:
            self.at -= 1
        return self.shadows.path.vertices[self.at]


# -- the engine ------------------------------------------------------------------


class _Engine:
    def __init__(self, g: Graph, e, adversary, turn_cap: int):
        self.g = g
        self.e = e
        self.adversary = adversary
        self.turn_cap = turn_cap
        self.cops: list[int] = []
        self.robber: int | None = None
        self.guards: list[_Guard] = []
        self.last_territory: int | None = None
        self.last_case: str | None = None
        self.turns: list[dict] = []

    # -- bookkeeping --------------------------------------------------------

    def _record(self, t: int, mover: str, moved, note) -> None:
        self.turns.append(
            {
                "t": t,
                "mover": mover,
                "cops": list(self.cops),
                "robber": self.robber,
                "moved": list(moved),
                "note": note,
            }
        )

    def _trace(self, verdict: dict) -> Trace:
        return Trace(to_graph6(self.g), tuple(self.turns), verdict)

    def _start_vertex(self) -> int:
        faces = self.e.faces()
        if not faces:
            return min(self.e.vertex_list())
        boundary = faces[self.e.outer_face()]
        return min(u for u, _ in boundary)

    def _territory(self) -> int:
        blocked = 0
        for gd in self.guards:
            blocked |= gd.path.mask()
        if blocked >> self.robber & 1:
            raise PlanarityFault("robber on a guarded path survived the pounce")
        return self.g.component_of(self.robber, self.g.vertex_mask() & ~blocked)

    def _contacts(self, gd: _Guard, ymask: int) -> list[int]:
        return [
            i
            for i, v in enumerate(gd.path.vertices)
            if self.g.adj_mask(v) & ymask
        ]

    def _release_covered(self, ymask: int, keep: "_Guard | None" = None) -> bool:
        """Release guards whose doors the remaining paths still cover.

        A guard's doors are its vertices with territory neighbors; when every
        door lies on another active path, removing the guard leaves all exits
        blocked, so the territory is unchanged.  Each drop is re-evaluated
        against the surviving set, keeping chains of releases sound.
        """
        changed = False
        while len(self.guards) > 1:
            for gd in self.guards:
                if gd is keep:
                    continue
                others = 0
                for og in self.guards:
                    if og is not gd:
                        others |= og.path.mask()
                verts = gd.path.vertices
                if all(others >> verts[k] & 1 for k in self._contacts(gd, ymask)):
                    self.guards.remove(gd)
                    changed = True
                    break
            else:
                return changed
        return changed

    def _prune(self, ymask: int) -> bool:
        alive = [gd for gd in self.guards if self._contacts(gd, ymask)]
        changed = len(alive) != len(self.guards)
        self.guards = alive
        return changed

    def _convert(self, ymask: int) -> bool:
        """Upgrade pinned guards to leisurely patrols where that is sound."""
        changed = False
        for gd in self.guards:
            if gd.kind != "shadow":
                continue
            shadows = self._rows_in(gd, ymask)
            if not shadows.is_bypath_free():
                continue
            gd.ctl = LeisurelyGuard(shadows, self.cops[gd.cop])
            changed = True
        return changed

    def _rows_in(self, gd: _Guard, ymask: int) -> PathShadows:
        """gd's path rows in territory plus path: the guard's own rows, or the
        set last built for it, while that host is unchanged, else a fresh set."""
        host = ymask | gd.path.mask()
        for shadows in (gd.ctl.shadows, gd.rows):
            if shadows is not None and shadows.within == host:
                return shadows
        gd.rows = PathShadows(self.g, gd.path, host)
        return gd.rows

    def _free_cop(self) -> int:
        used = {gd.cop for gd in self.guards}
        for c in range(3):
            if c not in used:
                return c
        raise PlanarityFault("all three cops are guarding")

    def _note(self, ymask: int) -> dict:
        if len(self.guards) > 2:
            raise PlanarityFault("more than two guards at a milestone")
        size = bin(ymask).count("1")
        if self.last_territory is not None and size > self.last_territory:
            raise PlanarityFault("robber territory grew")
        if self.last_territory is None or size < self.last_territory:
            # fresh label only on strict progress; stalls keep the old label
            if all(gd.kind == "park" for gd in self.guards):
                self.last_case = "c"
            elif len(self.guards) == 1:
                self.last_case = "a"
            else:
                self.last_case = "b"
        self.last_territory = size
        return {
            "case": self.last_case,
            "guards": [
                {
                    "cop": gd.cop,
                    "kind": gd.kind,
                    "path": list(gd.path.vertices),
                    "host": None if gd.ctl is None else sorted(bits(gd.ctl.shadows.within)),
                }
                for gd in self.guards
            ],
            "territory": size,
        }

    # -- mission builders ---------------------------------------------------

    def _park(self, target: int, covered: Path, release) -> _Mission:
        cop = self._free_cop()
        route = shortest_path(self.g, self.cops[cop], target)
        if route is None:
            raise PlanarityFault("park target unreachable by the free cop")
        return _Mission(self.g, cop, route.vertices, release, park_path=covered)

    def _attach(self, path: Path, host: int, release) -> _Mission:
        """Chase the robber's shadow on path, entering it at the vertex
        nearest the free cop, the lowest position among ties."""
        cop = self._free_cop()
        shadows = PathShadows(self.g, path, host)  # verifies isometry; kept by the guard
        at = self.cops[cop]
        dist = self.g.bfs_levels(at)
        entry = min(range(len(path.vertices)), key=lambda i: (dist[path.vertices[i]], i))
        if dist[path.vertices[entry]] < 0:
            raise PlanarityFault("chase target unreachable by the free cop")
        route = shortest_path(self.g, at, path.vertices[entry])
        return _Mission(self.g, cop, route.vertices, release, shadows=shadows)

    def _guard_walk(self, walk: Path, ymask: int, release) -> _Mission:
        """Guard a walk glued through the territory: park on its middle
        vertex when it has at most two edges, else chase it in territory
        plus walk."""
        if not walk.is_path_in(self.g):
            raise PlanarityFault("glued guard walk is not a path")
        if walk.length <= 2:
            return self._park(walk.vertices[len(walk.vertices) // 2], walk, release)
        return self._attach(walk, ymask | walk.mask(), release)

    def _movepath(self, gd: _Guard, ymask: int) -> _Mission:
        """Replace gd's span between a bypath's ends, i < j, by the bypath.

        The tails outside the span have no territory neighbors, so the glued
        walk is isometric in territory plus walk and chaseable there.
        """
        detour = first_bypath(self._rows_in(gd, ymask))
        if detour is None:
            raise PlanarityFault("pinned guard has no bypath to reroute")
        verts = gd.path.vertices
        i = gd.path.index_of(detour.vertices[0])
        j = gd.path.index_of(detour.vertices[-1])
        walk = Path(verts[: i + 1] + detour.vertices[1:-1] + verts[j:])
        if not walk.is_path_in(self.g):
            raise PlanarityFault("glued guard walk is not a path")
        return self._attach(walk, ymask | walk.mask(), ())

    def _span_flow(self, gd: _Guard, ymask: int, i: int, j: int) -> _Mission:
        """Cut the territory away from gd's contact span [i..j].

        Without an edge joining the span ends, the span can be traded for a
        bridge through the territory and the glued walk chased; the bridge is
        shortest over all pairs of end-neighborhoods, so the walk has no
        shortcuts.  With such an edge no glued walk is isometric, so the
        bridge is guarded on its own while gd stays in place.
        """
        verts = gd.path.vertices
        vi, vj = verts[i], verts[j]
        inner = self._inner_bridge(ymask, vi, vj)
        if not self.g.has_edge(vi, vj):
            return self._guard_walk(Path(verts[: i + 1] + inner.vertices + verts[j:]), ymask, ())
        if j == i + 1:
            # consecutive doors; only the bridge itself needs covering
            if inner.length == 0:
                y = inner.vertices[0]
                return self._park(y, Path((vi, y, vj)), (gd,))
            return self._attach(inner, ymask, ())
        # the chord keeps the span; wall the territory off behind it
        if inner.length == 0:
            return self._park(inner.vertices[0], Path(inner.vertices[:1]), ())
        return self._attach(inner, ymask, ())

    def _inner_bridge(self, ymask: int, vi: int, vj: int) -> Path:
        """Shortest territory route between neighborhoods of two contacts."""
        adj = self.g.adj_mask
        bridge = shortest_path_between(self.g, adj(vi) & ymask, adj(vj) & ymask, ymask)
        if bridge is None:
            raise PlanarityFault("no territory bridge between adjacent contacts")
        return bridge

    def _classified(self, gd: _Guard, w: int, ymask: int) -> _Mission:
        emb = self.e.restrict(tuple(bits(ymask)) + (w,))
        cls = classify_vertex(emb, w, self.robber)
        if cls.case == "dominating":
            # every territory vertex is one step from w; park there and pounce
            return self._park(w, Path((w,)), ())
        p = cls.path if cls.case == "path" else cls.p1
        return self._park(p.vertices[1], p, (gd,))

    # -- replanning ---------------------------------------------------------

    def _plan_single(self, gd: _Guard, ymask: int) -> _Mission:
        cont = self._contacts(gd, ymask)
        verts = gd.path.vertices
        if len(cont) == 1:
            w = verts[cont[0]]
            if gd.kind != "park":
                # the whole guarded path funnels into one vertex: block it
                return self._park(w, Path((w,)), (gd,))
            return self._classified(gd, w, ymask)
        return self._span_flow(gd, ymask, cont[0], cont[-1])

    def _plan_pair(self, ymask: int) -> _Mission:
        first, second = self.guards
        attach = 0
        for gd in self.guards:
            for v in gd.path.vertices:
                attach |= self.g.adj_mask(v)
        points = list(bits(attach & ymask))
        if len(points) == 1:
            # the territory hangs on a cut vertex
            return self._park(points[0], Path((points[0],)), (first, second))
        if len(points) == 2:
            s = shortest_path(self.g, points[0], points[1], ymask)
            if s is None:
                raise PlanarityFault("territory attachments are separated")
            return self._guard_walk(s, ymask, (first, second))
        for gd, other in ((first, second), (second, first)):
            # a guard with one door of its own folds into a walk joining
            # that door to a far partner door; its other doors stay covered
            own = self._own_doors(gd, other, ymask)
            if len(own) != 1:
                continue
            for k in self._contacts(other, ymask):
                b = other.path.vertices[k]
                if b != own[0] and not self.g.has_edge(b, own[0]):
                    return self._cross(ymask, b, own[0])
        deck = set()
        for gd in self.guards:
            deck.update(gd.path.vertices[k] for k in self._contacts(gd, ymask))
        doors = sorted(deck)
        if len(doors) == 2:
            a, b = doors
            if self.g.has_edge(a, b):
                return self._park(a, Path((a, b)), (first, second))
            return self._cross(ymask, a, b)
        if len(doors) == 3:
            # huddled doors fold under one park, freeing the second cop
            for c in doors:
                rest = [v for v in doors if v != c]
                if all(self.g.has_edge(c, v) for v in rest):
                    return self._park(c, Path((rest[0], c, rest[1])), (first, second))
        mission = self._lobe_cross(ymask, first, second)
        if mission is not None:
            return mission
        for gd in (first, second):
            cont = self._contacts(gd, ymask)
            verts = gd.path.vertices
            if not self.g.has_edge(verts[cont[0]], verts[cont[-1]]):
                return self._span_flow(gd, ymask, cont[0], cont[-1])
        raise PlanarityFault("no isometric cut between two spread guards")

    def _lobe_cross(self, ymask: int, first: _Guard, second: _Guard) -> _Mission | None:
        """Cross-walk between one door of each guard, vetted to split well.

        The bridge carves the territory into lobes; a candidate door pair is
        usable only when no lobe touches uncovered doors of both guards, so
        wherever the robber ends up one guard loses all its exits and is
        released.  The vetting runs on the components of the cut territory
        before any cop commits to the walk.
        """
        owns = (self._own_doors(first, second, ymask), self._own_doors(second, first, ymask))
        for a in owns[0]:
            for b in owns[1]:
                if self.g.has_edge(a, b):
                    continue
                inner = self._inner_bridge(ymask, a, b)
                live = (
                    [d for d in owns[0] if d != a],
                    [d for d in owns[1] if d != b],
                )
                left = ymask & ~inner.mask()
                good = True
                while left:
                    v = (left & -left).bit_length() - 1
                    comp = self.g.component_of(v, left)
                    left &= ~comp
                    if all(
                        any(self.g.adj_mask(d) & comp for d in side)
                        for side in live
                    ):
                        good = False
                        break
                if good:
                    return self._guard_walk(Path((a,) + inner.vertices + (b,)), ymask, ())
        return None

    def _own_doors(self, gd: _Guard, other: _Guard, ymask: int) -> list[int]:
        """gd's doors that do not lie on the other guard's path."""
        omask = other.path.mask()
        verts = gd.path.vertices
        return [verts[k] for k in self._contacts(gd, ymask) if not omask >> verts[k] & 1]

    def _cross(self, ymask: int, a: int, b: int) -> _Mission:
        """Guard a door-to-door route bridged through the territory."""
        inner = self._inner_bridge(ymask, a, b)
        return self._guard_walk(Path((a,) + inner.vertices + (b,)), ymask, ())

    def _settle(self, keep: "_Guard | None" = None) -> tuple[int, bool]:
        """Recompute the territory and re-settle the guard set on it: drop
        guards it no longer touches, release covered ones, upgrade pinned
        ones.  Returns the territory and whether the guard set changed."""
        ymask = self._territory()
        changed = self._prune(ymask)
        if not self.guards:
            raise PlanarityFault("guard set emptied while the robber is free")
        changed |= self._release_covered(ymask, keep)
        changed |= self._convert(ymask)
        return ymask, changed

    def _replan(self) -> tuple[_Mission, dict | None]:
        ymask, changed = self._settle()
        note = self._note(ymask) if changed or self.last_territory is None else None
        pinned = [gd for gd in self.guards if gd.kind == "shadow"]
        if pinned:
            mission = self._movepath(pinned[0], ymask)
        elif len(self.guards) == 1:
            mission = self._plan_single(self.guards[0], ymask)
        else:
            mission = self._plan_pair(ymask)
        return mission, note

    # -- mission completion -------------------------------------------------

    def _finish(self, m: _Mission) -> dict:
        pos = self.cops[m.cop]
        if m.shadows is None:
            for v in m.park_path.vertices:
                if v != pos and not self.g.has_edge(pos, v):
                    raise PlanarityFault("parked cop does not cover its path")
            new = _Guard(m.cop, m.park_path)
        else:
            ctl = PathShadowGuard(m.shadows, pos, self.robber)
            new = _Guard(m.cop, ctl.path, ctl)
        self.guards.append(new)
        dead = {id(gd) for gd in m.release}
        self.guards = [gd for gd in self.guards if id(gd) not in dead]
        ymask, _ = self._settle(keep=new)
        return self._note(ymask)

    # -- the game loop ------------------------------------------------------

    def run(self) -> Trace:
        g = self.g
        v0 = self._start_vertex()
        self.cops = [v0, v0, v0]
        self.guards = [_Guard(0, Path((v0,)))]
        self._record(0, "place-cops", (True, True, True), {"start": v0})
        r = self.adversary.place(tuple(self.cops))
        if not 0 <= r < g.n:
            raise ValueError("adversary placed the robber outside the graph")
        self.robber = r
        self._record(1, "place-robber", (False, False, False), None)
        if r in self.cops:
            return self._trace({"outcome": "captured", "turn": 1})
        mission: _Mission | None = None
        t = 2
        for _ in range(self.turn_cap):
            prev = tuple(self.cops)
            note = None
            near = [c for c in range(3) if g.has_edge(self.cops[c], self.robber)]
            if near:
                # adjacency ends the game; the pouncing cop may abandon a post
                self.cops[near[0]] = self.robber
                moved = tuple(self.cops[c] != prev[c] for c in range(3))
                self._record(t, "cops", moved, None)
                return self._trace({"outcome": "captured", "turn": t})
            if mission is None:
                mission, note = self._replan()
            movers = 0
            for gd in self.guards:
                if gd.ctl is None:
                    continue  # parks hold still
                gd.ctl.step(self.robber)
                pos = gd.ctl.cop_at
                if pos != self.cops[gd.cop]:
                    self.cops[gd.cop] = pos
                    movers += 1
            if movers <= 1 and not mission.done(self.robber):
                self.cops[mission.cop] = mission.step(self.robber)
            if mission.done(self.robber):
                # deferred while a pounce is pending: the robber may stand on
                # a vertex the new park is about to cover
                if not any(g.has_edge(self.cops[c], self.robber) for c in range(3)):
                    note = self._finish(mission)
                    mission = None
            moved = tuple(self.cops[c] != prev[c] for c in range(3))
            if sum(moved) > 2:
                raise PlanarityFault("three cops moved on one turn")
            self._record(t, "cops", moved, note)
            t += 1
            nxt = self.adversary.move(tuple(self.cops), self.robber)
            if nxt != self.robber and not g.has_edge(self.robber, nxt):
                raise ValueError("adversary made an illegal robber move")
            self.robber = nxt
            self._record(t, "robber", (False, False, False), None)
            if self.robber in self.cops:
                # walking onto a cop is surrender
                return self._trace({"outcome": "captured", "turn": t})
            t += 1
        return self._trace(
            {
                "outcome": "aborted",
                "reason": f"no capture within {self.turn_cap} cops' turns",
            }
        )


def check_engine_input(g: Graph, e=None, turn_cap=None) -> tuple[PlanarEmbedding, int]:
    """The engine's input contract: (embedding, turn cap) for a game on g.

    g must be non-empty, connected and planar; a supplied embedding must be
    one of g itself, and one is computed otherwise.  turn_cap defaults to
    10 n^2 cops' turns and must be at least 1.  A breach is a ValueError.
    """
    if g.n < 1:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if e is None:
        e = embed(g)
        if e is None:
            raise ValueError("graph is not planar")
    elif e.graph != g or e.mask != g.vertex_mask():
        raise ValueError("embedding does not cover this graph")
    cap = 10 * g.n * g.n if turn_cap is None else int(turn_cap)
    if cap < 1:
        raise ValueError("turn cap must be positive")
    return e, cap


def run_two_move_strategy(g: Graph, e=None, adversary=None, turn_cap=None) -> Trace:
    """Play three cops, at most two moving per turn, to capture on g.

    The input must pass `check_engine_input`, which also supplies the
    embedding and the turn cap when they are not given.  An exceeded cap
    yields an aborted verdict rather than an exception, as does a
    ControllerFault or PlanarityFault, whose message becomes the reason.
    """
    e, cap = check_engine_input(g, e, turn_cap)
    if adversary is None:
        adversary = RandomAdversary(g)
    engine = _Engine(g, e, adversary, cap)
    try:
        return engine.run()
    except (ControllerFault, PlanarityFault) as fault:
        reason = f"{type(fault).__name__}: {fault}"
        return engine._trace({"outcome": "aborted", "reason": reason})

