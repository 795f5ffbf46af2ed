"""Cop controllers and the adversaries they play against.

The wide-shadow guard pins a cop inside the robber's wide shadow on a
Helly isometric subgraph; `capture_shadow` attaches it by chasing the
shadow through a dismantling of the subgraph; both first check that the
subgraph is isometric and Helly.  On an isometric path the shadow is an
interval read off the `PathShadows` rows from the path's two ends: the
path-shadow guard stays pinned to it, and the leisurely guard patrols a bypath-free path and
certifies a rest at least once in every window of length+1 cop turns
unless the robber stepped onto the path.  The park guard holds one vertex
that covers its path and never moves; it steps like the others, so a game
loop treats every guard alike.

Controllers are single-owner state machines.  Proof-backed invariants are
re-checked every turn; a violation raises ControllerFault, which game
runners surface as an aborted trace rather than a crash.  Domain errors
(bad subgraph, bypath present) are ValueError at attach time.

The optimal adversary reads its placement and each reply from a solved
`StrategyTable`; it keeps no rule of its own.
"""

from __future__ import annotations

import random

from .graphs import Graph, Path, is_isometric_subgraph, shortest_path
from .helly import dismantling_order, is_helly
from .shadows import PathShadows, wide_shadow


class ControllerFault(RuntimeError):
    """An invariant the theory guarantees failed at run time."""


def _helly_target(g: Graph, h) -> tuple[tuple[int, ...], Graph, list[int]]:
    """(sorted h, induced subgraph, its vertex labels in g); ValueError
    unless h is isometric in g and Helly."""
    hv = tuple(sorted(set(h)))
    if not is_isometric_subgraph(g, hv):
        raise ValueError("guarded subgraph must be isometric in its host")
    sub, keep = g.induced(hv)
    if not is_helly(sub):
        raise ValueError("guarded subgraph must be Helly")
    return hv, sub, keep


def _step_into(g: Graph, shadow, x: int) -> int | None:
    """The least shadow vertex that is x or adjacent to x, or None."""
    return min((y for y in shadow if y == x or g.has_edge(y, x)), default=None)


class WideShadowGuard:
    """Cop glued to the robber's wide shadow on a Helly isometric subgraph."""

    def __init__(self, g: Graph, guarded, cop_at: int, robber: int):
        self.graph = g
        self.guarded = _helly_target(g, guarded)[0]
        self.cop_at = cop_at
        self.shadow = wide_shadow(g, self.guarded, robber)
        if cop_at not in self.shadow:
            raise ValueError("cop must start inside the robber's shadow")

    def step(self, robber: int) -> int:
        """Stay or make the single step that re-enters the shadow."""
        nxt = wide_shadow(self.graph, self.guarded, robber)
        if self.cop_at not in nxt:
            at = _step_into(self.graph, nxt, self.cop_at)
            if at is None:
                raise ControllerFault(
                    f"shadow drifted out of reach of cop at {self.cop_at}"
                )
            self.cop_at = at
        self.shadow = nxt
        return self.cop_at


def capture_shadow(g: Graph, h, cop_at: int, robber_stream) -> tuple[int, int]:
    """Walk a cop into the robber's wide shadow on h.

    The stream yields the robber's position before the first cop move and
    then once per robber turn; if it runs dry the robber is treated as
    stationary.  Returns (cop turn count, final cop vertex); turn 0 means
    the cop already stood inside the shadow.

    Phase one walks a fixed shortest route to the dismantling's last
    surviving vertex; phase two descends the composed retraction images of
    a tracking point that follows the shadow.  Either phase exits as soon
    as the cop's vertex lies in the current shadow.  The turn cap is the
    route length plus |V(h)| squared; exceeding it is a ControllerFault,
    since the theory bounds the chase well under that.
    """
    hv, sub, keep = _helly_target(g, h)
    order = dismantling_order(sub)
    if order is None:
        raise ValueError("guarded subgraph must be dismantlable")
    local = {v: i for i, v in enumerate(keep)}

    # stages[j] maps every start vertex to its image after j retractions.
    stages = [list(range(sub.n))]
    for corner, witness in order:
        prev = stages[-1]
        stages.append([witness if x == corner else x for x in prev])
    removed = {corner for corner, _ in order}
    (last,) = [i for i in range(sub.n) if i not in removed]

    stream = iter(robber_stream)
    try:
        r = next(stream)
    except StopIteration:
        raise ValueError("robber stream yielded no placement") from None

    pos = cop_at
    shadow = wide_shadow(g, hv, r)  # one per robber position
    if pos in shadow:
        return 0, pos

    walk = ScriptedWalk(g, shortest_path(g, pos, keep[last]).vertices)
    cap = len(walk.route) - 1 + len(hv) ** 2
    stage = len(stages) - 1
    anchor: int | None = None  # tracking point, a shadow member in g labels
    turns = 0
    while True:
        turns += 1
        if turns > cap:
            raise ControllerFault("shadow chase exceeded its turn bound")
        if not walk.done:
            pos = walk.step()
            if walk.done:
                anchor = min(shadow)
        else:
            if anchor is None:
                anchor = min(shadow)
            img = None
            for j in range(stage + 1):
                cand = keep[stages[j][local[anchor]]]
                if cand == pos or g.has_edge(cand, pos):
                    img = j
                    break
            if img is None:
                raise ControllerFault("retraction image out of reach")
            stage = img
            pos = keep[stages[img][local[anchor]]]
        if pos in shadow:
            return turns, pos
        try:
            r = next(stream)
        except StopIteration:
            continue
        shadow = wide_shadow(g, hv, r)
        if anchor is not None:
            anchor = _step_into(g, shadow, anchor)
            if anchor is None:
                raise ControllerFault("shadow drifted more than one step")


class ParkGuard:
    """Cop parked on a vertex whose closed neighborhood covers path, as the
    caller checked; it never moves."""

    kind = "park"
    shadows = None

    def __init__(self, path: Path, cop_at: int):
        self.path = path
        self.cop_at = cop_at

    def step(self, robber: int) -> int:
        """Stay put."""
        return self.cop_at


class PathShadowGuard:
    """Cop pinned to the robber's shadow interval on an isometric path.

    ``shadows`` holds the path's rows in its host; building it verified
    that the path is isometric there.  The cop must start inside the
    shadow, which then drifts at most one position per robber move;
    either violation is a ControllerFault.
    """

    kind = "shadow"

    def __init__(self, shadows: PathShadows, cop_at: int, robber: int):
        lo, hi = shadows.interval(robber)
        verts = shadows.path.vertices
        if cop_at not in verts[lo : hi + 1]:
            raise ControllerFault("cop must start inside the robber's shadow")
        self.shadows = shadows
        self.path = shadows.path
        self.at = verts.index(cop_at)
        self.cop_at = cop_at

    def step(self, robber: int) -> int:
        """Stay or make the single step that re-enters the shadow."""
        self._follow(robber)
        return self.cop_at

    def _follow(self, robber: int) -> bool:
        """Step one position toward the robber's shadow; True if already in."""
        lo, hi = self.shadows.interval(robber)
        if lo <= self.at <= hi:
            return True
        if self.at < lo - 1 or self.at > hi + 1:
            raise ControllerFault("shadow drifted more than one step")
        self.at += 1 if self.at < lo else -1
        self.cop_at = self.path.vertices[self.at]
        return False


class LeisurelyGuard(PathShadowGuard):
    """Cop patrolling a bypath-free isometric path, resting when possible.

    ``shadows`` is as for the path-shadow guard, and the caller may already
    have read its bypath-freeness from the same rows.  The cop may start
    anywhere on the path.
    """

    kind = "leisurely"

    def __init__(self, shadows: PathShadows, cop_at: int):
        path = shadows.path
        if path.length < 1:
            raise ValueError("leisurely guarding needs a path of length >= 1")
        if not shadows.is_bypath_free():
            raise ValueError("path has a bypath; leisurely guarding unsound")
        self.shadows = shadows
        self.path = path
        self.at = path.index_of(cop_at)
        self.cop_at = cop_at
        self.unrested = 0

    def step(self, robber: int) -> tuple[int, bool]:
        """Return (cop vertex, rested) for one turn against this robber."""
        entered = robber in self.path.vertex_set()
        if self._follow(robber):
            self.unrested = 0
            return self.cop_at, True
        if entered:
            if self.cop_at != robber:
                raise ControllerFault("robber on the path escaped capture")
            self.unrested = 0
        else:
            self.unrested += 1
            if self.unrested > self.path.length:
                raise ControllerFault("rest window exceeded without entry")
        return self.cop_at, False


class ScriptedWalk:
    """Cop replaying a fixed stay-or-step route, one vertex per turn."""

    def __init__(self, g: Graph, route):
        route = tuple(route)
        if not route:
            raise ValueError("empty route")
        for a, b in zip(route, route[1:]):
            if a != b and not g.has_edge(a, b):
                raise ValueError(f"route jumps from {a} to {b}")
        self.route = route
        self.leg = 0

    @property
    def cop_at(self) -> int:
        return self.route[self.leg]

    @property
    def done(self) -> bool:
        return self.leg == len(self.route) - 1

    def step(self) -> int:
        if not self.done:
            self.leg += 1
        return self.route[self.leg]


# -- adversaries ---------------------------------------------------------------


class RandomAdversary:
    """Uniform over stay plus neighbors, seeded for replayable games."""

    name = "random"

    def __init__(self, g: Graph, seed: int = 0):
        self.graph = g
        self.rng = random.Random(seed)

    def place(self, cops) -> int:
        free = [v for v in range(self.graph.n) if v not in cops]
        return self.rng.choice(free or list(range(self.graph.n)))

    def move(self, cops, robber: int) -> int:
        return self.rng.choice(sorted((robber,) + self.graph.neighbors(robber)))


class GreedyAdversary:
    """Maximize the minimum distance to any cop; ties to the lowest vertex.

    Deterministic: seed is ignored, and kept so that every adversary takes
    the same arguments (the benchmark workloads pass one).
    """

    name = "greedy"

    def __init__(self, g: Graph, seed: int = 0):
        self.graph = g

    def _farthest(self, cops, options) -> int:
        """The option whose nearest cop is farthest, ties to the lowest.

        Reads one whole-graph row per cop.  A vertex that no cop reaches
        scores n, above every distance; with no cops every option ties.
        """
        g = self.graph
        rows = [g.bfs_levels(c) for c in set(cops)]

        def score(v: int) -> int:
            return min((row[v] for row in rows), default=g.n)

        return max(options, key=lambda v: (score(v), -v))

    def place(self, cops) -> int:
        return self._farthest(cops, range(self.graph.n))

    def move(self, cops, robber: int) -> int:
        return self._farthest(cops, (robber,) + self.graph.neighbors(robber))


class OptimalAdversary:
    """Exact play from a solved strategy table (small instances only)."""

    def __init__(self, g: Graph, table):
        self.table = table

    def place(self, cops) -> int:
        return self.table.robber_place(cops)

    def move(self, cops, robber: int) -> int:
        return self.table.robber_reply(cops, robber)
