"""Three-cop capture on planar graphs with at most two cops moving per turn.

The engine keeps the robber inside a shrinking territory: the component of
the unguarded part of the graph he occupies.  At most two cops guard at any
time, each responsible for one path.  A guard is parked (its closed
neighborhood covers the whole path), pinned to the robber's wide shadow on
the path, or patrolling leisurely on a bypath-free path; each guard is its
controller, keyed by cop, checks its own landing, and every turn steps
them all alike, reading each cop's vertex off its guard's step.  The
remaining cop is free and runs one mission at a time: a walk that ends in
a park, or in a chase that captures the wide shadow of a freshly chosen
path.  An arbiter grants the mission cop a move only on turns when at most
one guard moved, which keeps every cops' turn at or below two movers.
Every mission counts its cops' turns, granted a move or not, against one
bound, len(route) + (L + 2)(n + 2) for a guarded path of length L, and
past it the game aborts with "mission exceeded its turn bound".

Replanning fires whenever no mission is active.  It and every landing
first settle the guards: recompute the territory, then run the coverage
sweep, the only way a guard leaves.  In one pass, oldest first, with a
landed guard appended last, the sweep releases each guard whose doors (path
vertices with territory neighbors) all lie on other guards' paths, one
without doors included, so of two guards that cover each other the older
goes.  One pass suffices because the territory, and with it every guard's
doors, stays fixed while covered guards leave, and a drop only shrinks the
cover left for the rest.  Settling then upgrades shadow-pinned guards to
leisurely patrols once their paths are bypath-free in the shrunken host.
Replanning reads the next mission off the guards' doors: a path with one
door becomes a parked block or a classified fan park, a path with two
adjacent doors is bridged through the territory, a wider door span is
spliced out for a bridge through the territory, and two guards with one
door each are bridged door to door.  Every bridge is one door-to-door walk
through the territory, and every glued walk one splice of a path.  A walk
through the territory is parked on when it has at most two edges and
chased otherwise.  Milestones annotate the trace with the case label, the
guard set, and the territory size; sizes never increase and strictly
decrease whenever the label changes.

A guarded path has one `PathShadows` in its host, the BFS rows from the
path's two ends, from chase to release: the shadow chase builds it, the
pinned guard steps by its intervals, and the leisurely upgrade and the
bypath reroute reuse it while the host is unchanged.  Once the territory
shrinks, a settle builds the pinned guard's rows in the new host once and
keeps them; the next settle reuses them while that host stands, and the
reroute reads the ones its replan's settle kept.  A chase reads its entry
off the first BFS level from the free cop that meets the path, and walks
the route `shortest_path` gives to it.  A territory bridge is one
`shortest_path_between` call.

`check_engine_input` owns the input contract; `run_two_move_strategy` and
the command line's `simulate` both call it, the latter before any solve.

The engine writes a `referee.Trace`; `referee.validate_trace` re-checks it
against the graph alone, without this module.
"""

from __future__ import annotations

from pursuit.controllers import (
    ControllerFault,
    LeisurelyGuard,
    ParkGuard,
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

Guard = ParkGuard | PathShadowGuard  # a LeisurelyGuard is a PathShadowGuard


# -- the free cop's missions -----------------------------------------------------


class _Mission:
    """Free-cop assignment: a walk that ends in a park or a chase.

    The cop replays route.  Without shadows it then parks, covering
    park_path.  With shadows, the rows of an isometric path that route ends
    on, it then steps toward the robber's wide shadow on that path.  The
    shadow is a position interval that drifts by at most one per robber move
    and cannot leave the path, so the cop ends up inside it no matter how
    its granted turns interleave with robber moves: the interval must cross
    the cop's position to get past it, and the crossing is observed.

    Every mission, park or chase, counts its cops' turns, granted a move or
    not, from the one it is planned in, and the game aborts with "mission
    exceeded its turn bound" past cap = len(route) + (L + 2)(n + 2), where
    L is the length of the path it will guard: a bound on granted moves
    never fires for a cop the arbiter starves.

    A mission only adds a guard; the coverage sweep that follows its landing
    releases every guard the new one made redundant.
    """

    def __init__(self, g: Graph, cop: int, route, park_path=None, shadows=None):
        self.cop = cop
        self.walk = ScriptedWalk(g, route)
        self.shadows = shadows
        self.path = park_path if shadows is None else shadows.path  # to guard
        self.turns = 0
        self.cap = len(route) + (self.path.length + 2) * (g.n + 2)
        if shadows is not None:
            self.at = self.path.index_of(route[-1])  # path position once walked

    def done(self, robber: int) -> bool:
        if self.shadows is None or not self.walk.done:
            return self.walk.done
        lo, hi = self.shadows.interval(robber)
        return lo <= self.at <= hi

    def step(self, robber: int) -> int:
        if self.shadows is None or not self.walk.done:
            return self.walk.step()
        lo, hi = self.shadows.interval(robber)
        if self.at < lo:
            self.at += 1
        elif self.at > hi:
            self.at -= 1
        return self.path.vertices[self.at]


# -- the engine ------------------------------------------------------------------


class _Engine:
    def __init__(self, g: Graph, e, adversary, turn_cap: int):
        self.g = g
        self.e = e
        self.adversary = adversary
        self.turn_cap = turn_cap
        self.cops: list[int] = []
        self.robber: int | None = None
        self.guards: dict[int, Guard] = {}  # cop index to controller, oldest first
        # rows in territory plus path of the guards the last settle left pinned
        self.pinned: list[PathShadows] = []
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
        faces = self.e.faces()  # none on a single vertex
        return min(u for u, _ in faces[self.e.outer_face()]) if faces else 0

    def _territory(self) -> int:
        blocked = 0
        for gd in self.guards.values():
            blocked |= gd.path.mask()
        if blocked >> self.robber & 1:
            raise PlanarityFault("robber on a guarded path survived the pounce")
        return self.g.component_of(self.robber, self.g.vertex_mask() & ~blocked)

    def _doors(self, gd: Guard, ymask: int) -> list[int]:
        """gd's path vertices with territory neighbors, in path order."""
        return [v for v in gd.path.vertices if self.g.adj_mask(v) & ymask]

    def _release_covered(self, ymask: int) -> bool:
        """Release guards whose doors the remaining paths still cover.

        The only way a guard leaves.  When every door of a guard lies on
        another active path, removing the guard leaves all exits blocked, so
        the territory is unchanged, and a guard without doors is covered.
        One pass, oldest first, suffices: the territory, and so every
        guard's doors, stays fixed while covered guards leave, and a drop
        only shrinks the cover the others give, so a guard kept earlier in
        the pass is never released by a later drop.  Of two guards that
        cover each other the older goes.  The last guard stays: in a
        connected graph the territory touches some path.
        """
        changed = False
        for cop, gd in list(self.guards.items()):
            if len(self.guards) == 1:
                break
            others = 0
            for og in self.guards.values():
                if og is not gd:
                    others |= og.path.mask()
            if all(others >> v & 1 for v in self._doors(gd, ymask)):
                del self.guards[cop]
                changed = True
        return changed

    def _convert(self, ymask: int) -> bool:
        """Upgrade pinned guards to leisurely patrols where that is sound,
        and keep the rows of the guards left pinned in ``pinned``.

        A guard's rows are taken in territory plus path: its own rows, or
        the ones the last settle kept, while that host is unchanged, else a
        fresh set."""
        changed, kept, self.pinned = False, self.pinned, []
        for cop, gd in self.guards.items():
            if gd.kind != "shadow":
                continue
            host = ymask | gd.path.mask()
            shadows = next((s for s in (gd.shadows, *kept) if s.path is gd.path and s.within == host), None)
            if shadows is None:
                shadows = PathShadows(self.g, gd.path, host)
            if not shadows.is_bypath_free():
                self.pinned.append(shadows)
                continue
            self.guards[cop] = LeisurelyGuard(shadows, self.cops[cop])
            changed = True
        return changed

    def _free_cop(self) -> int:
        for c in range(3):
            if c not in self.guards:
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
            if all(gd.kind == "park" for gd in self.guards.values()):
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
                    "cop": cop,
                    "kind": gd.kind,
                    "path": list(gd.path.vertices),
                    "host": None if gd.shadows is None else sorted(bits(gd.shadows.within)),
                }
                for cop, gd in self.guards.items()
            ],
            "territory": size,
        }

    # -- mission builders ---------------------------------------------------

    def _park(self, target: int, covered: Path) -> _Mission:
        cop = self._free_cop()
        route = shortest_path(self.g, self.cops[cop], target)
        if route is None:
            raise PlanarityFault("park target unreachable by the free cop")
        return _Mission(self.g, cop, route.vertices, park_path=covered)

    def _attach(self, path: Path, host: int) -> _Mission:
        """Chase the robber's shadow on path, entering it at the vertex
        nearest the free cop, the lowest position among ties."""
        cop = self._free_cop()
        shadows = PathShadows(self.g, path, host)  # verifies isometry; kept by the guard
        at = self.cops[cop]
        on_path = path.mask()
        for level in self.g.levels(1 << at):
            if level & on_path:
                entry = next(v for v in path.vertices if level >> v & 1)
                break
        else:
            raise PlanarityFault("chase target unreachable by the free cop")
        route = shortest_path(self.g, at, entry)
        return _Mission(self.g, cop, route.vertices, shadows=shadows)

    def _guard_walk(self, walk: Path, ymask: int) -> _Mission:
        """Guard a walk through the territory: park on its middle vertex
        when it has at most two edges, else chase it in territory plus
        walk."""
        if walk.length <= 2:
            return self._park(walk.vertices[len(walk.vertices) // 2], walk)
        return self._attach(walk, ymask | walk.mask())

    def _movepath(self, shadows: PathShadows, ymask: int) -> _Mission:
        """Replace a pinned guard's span between a bypath's ends, i < j, by
        the bypath; shadows holds the guard's rows in territory plus path.

        The tails outside the span have no territory neighbors, so the glued
        walk is isometric in territory plus walk and chaseable there.
        """
        detour = first_bypath(shadows)
        if detour is None:
            raise PlanarityFault("pinned guard has no bypath to reroute")
        ends = detour.vertices
        walk = self._splice(shadows.path, ends[0], ends[-1], ends[1:-1])
        return self._attach(walk, ymask | walk.mask())

    def _span_flow(self, path: Path, ymask: int, a: int, b: int) -> _Mission:
        """Cut the territory away from the span of path between its end
        doors a and b, a first.

        Without an edge joining a and b, the span can be traded for a
        bridge through the territory and the glued walk guarded; the bridge
        is shortest over all pairs of end-neighborhoods, so the walk has no
        shortcuts.  With such an edge no glued walk is isometric, so the
        bridge's inner part is guarded on its own while path stays guarded.
        """
        bridge = self._bridge(ymask, a, b)
        inner = bridge.vertices[1:-1]
        if not self.g.has_edge(a, b):
            return self._guard_walk(self._splice(path, a, b, inner), ymask)
        if len(inner) > 1:
            return self._attach(Path(inner), ymask)
        # consecutive doors: the park covers the bridge; a chord keeps the
        # span, so the park walls the territory off behind it
        consecutive = path.index_of(b) == path.index_of(a) + 1
        return self._park(inner[0], bridge if consecutive else Path(inner))

    def _splice(self, path: Path, a: int, b: int, middle: tuple[int, ...]) -> Path:
        """path with its span from a to b, a first, replaced by a .. middle .. b."""
        verts = path.vertices
        walk = Path(verts[: path.index_of(a) + 1] + middle + verts[path.index_of(b) :])
        if not walk.is_path_in(self.g):
            raise PlanarityFault("glued guard walk is not a path")
        return walk

    def _bridge(self, ymask: int, a: int, b: int) -> Path:
        """Door-to-door walk from a to b through the territory, shortest
        between the doors' territory neighborhoods."""
        adj = self.g.adj_mask
        inner = shortest_path_between(self.g, adj(a) & ymask, adj(b) & ymask, ymask)
        if inner is None:
            raise PlanarityFault("no territory bridge between adjacent contacts")
        return Path((a,) + inner.vertices + (b,))

    def _classified(self, w: int, ymask: int) -> _Mission:
        cls = classify_vertex(self.e, w, self.robber, ymask | 1 << w)
        if cls.case == "dominating":
            # every territory vertex is one step from w; park there and pounce
            return self._park(w, Path((w,)))
        p = cls.path if cls.case == "path" else cls.p1
        return self._park(p.vertices[1], p)

    # -- replanning ---------------------------------------------------------

    def _plan_single(self, gd: Guard, ymask: int) -> _Mission:
        doors = self._doors(gd, ymask)
        if len(doors) == 1:
            w = doors[0]
            if gd.kind != "park":
                # the whole guarded path funnels into one vertex: block it
                return self._park(w, Path((w,)))
            return self._classified(w, ymask)
        return self._span_flow(gd.path, ymask, doors[0], doors[-1])

    def _plan_pair(self, ymask: int) -> _Mission:
        first, second = self.guards.values()
        attach = 0
        for gd in (first, second):
            for v in gd.path.vertices:
                attach |= self.g.adj_mask(v)
        points = list(bits(attach & ymask))
        if len(points) <= 2:
            # one point is a cut vertex the territory hangs on: its walk parks there
            s = shortest_path(self.g, points[0], points[-1], ymask)
            if s is None:
                raise PlanarityFault("territory attachments are separated")
            return self._guard_walk(s, ymask)
        for gd, other in ((first, second), (second, first)):
            # a guard with one door of its own folds into a walk joining
            # that door to a far partner door; its other doors stay covered
            own = self._own_doors(gd, other, ymask)
            if len(own) != 1:
                continue
            for b in self._doors(other, ymask):
                if b != own[0] and not self.g.has_edge(b, own[0]):
                    return self._guard_walk(self._bridge(ymask, b, own[0]), ymask)
        doors = sorted({*self._doors(first, ymask), *self._doors(second, ymask)})
        if len(doors) == 2 and self.g.has_edge(doors[0], doors[1]):
            # each guard owns one door; a far pair was crossed above
            return self._park(doors[0], Path(tuple(doors)))
        if len(doors) == 3:
            # huddled doors fold under one park, freeing the second cop
            for c in doors:
                rest = [v for v in doors if v != c]
                if all(self.g.has_edge(c, v) for v in rest):
                    return self._park(c, Path((rest[0], c, rest[1])))
        walk = self._lobe_cross(ymask, first, second)
        if walk is not None:
            return self._guard_walk(walk, ymask)
        for gd in (first, second):
            # _plan_single blocks or classifies a lone door and cuts a chordless span
            doors = self._doors(gd, ymask)
            if len(doors) == 1 or not self.g.has_edge(doors[0], doors[-1]):
                return self._plan_single(gd, ymask)
        raise PlanarityFault("no isometric cut between two spread guards")

    def _lobe_cross(self, ymask: int, first: Guard, second: Guard) -> Path | None:
        """Bridge between one door of each guard, vetted to split well.

        The bridge carves the territory into lobes; a candidate door pair is
        usable only when no lobe touches uncovered doors of both guards, so
        wherever the robber ends up one guard loses all its exits and is
        released.  The vetting runs on the components of the cut territory
        before any cop commits to the walk; the end doors lie outside the
        territory, so cutting the whole walk cuts just its inner part.
        """
        owns = (self._own_doors(first, second, ymask), self._own_doors(second, first, ymask))
        for a in owns[0]:
            for b in owns[1]:
                if self.g.has_edge(a, b):
                    continue
                walk = self._bridge(ymask, a, b)
                live = (
                    [d for d in owns[0] if d != a],
                    [d for d in owns[1] if d != b],
                )
                left = ymask & ~walk.mask()
                while left:
                    v = (left & -left).bit_length() - 1
                    comp = self.g.component_of(v, left)
                    left &= ~comp
                    if all(any(self.g.adj_mask(d) & comp for d in side) for side in live):
                        break
                else:
                    return walk
        return None

    def _own_doors(self, gd: Guard, other: Guard, ymask: int) -> list[int]:
        """gd's doors that do not lie on the other guard's path."""
        omask = other.path.mask()
        return [v for v in self._doors(gd, ymask) if not omask >> v & 1]

    def _settle(self) -> tuple[int, bool]:
        """Recompute the territory and re-settle the guard set on it: release
        covered guards, upgrade pinned ones.  Returns the territory and
        whether the guard set changed."""
        ymask = self._territory()
        changed = self._release_covered(ymask)
        changed |= self._convert(ymask)
        return ymask, changed

    def _replan(self) -> tuple[_Mission, dict | None]:
        ymask, changed = self._settle()
        note = self._note(ymask) if changed or self.last_territory is None else None
        if self.pinned:
            mission = self._movepath(self.pinned[0], ymask)
        elif len(self.guards) == 1:
            mission = self._plan_single(*self.guards.values(), ymask)
        else:
            mission = self._plan_pair(ymask)
        return mission, note

    # -- mission completion -------------------------------------------------

    def _finish(self, m: _Mission) -> dict:
        pos = self.cops[m.cop]
        if m.shadows is None:
            self.guards[m.cop] = ParkGuard(self.g, m.path, pos)
        else:
            self.guards[m.cop] = PathShadowGuard(m.shadows, pos, self.robber)
        ymask, _ = self._settle()
        return self._note(ymask)

    # -- the game loop ------------------------------------------------------

    def run(self) -> Trace:
        g = self.g
        v0 = self._start_vertex()
        self.cops = [v0, v0, v0]
        self.guards = {0: ParkGuard(g, Path((v0,)), v0)}
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
            mission.turns += 1
            if mission.turns > mission.cap:
                raise PlanarityFault("mission exceeded its turn bound")
            movers = 0
            for cop, gd in self.guards.items():
                at = gd.step(self.robber)
                if at != self.cops[cop]:
                    self.cops[cop] = at
                    movers += 1
            if movers <= 1 and not mission.done(self.robber):
                self.cops[mission.cop] = mission.step(self.robber)
            if mission.done(self.robber):
                # only a park defers its landing while a pounce is pending:
                # the robber may stand on a vertex it is about to cover.  A
                # chase is done only with its cop in the robber's shadow, and
                # a robber on the path would be its own shadow, a vertex no
                # cop reaches in the cops' turn because the pounce comes first
                if mission.shadows is not None or not any(
                    g.has_edge(self.cops[c], self.robber) for c in range(3)
                ):
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
    elif e.graph != g:
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

