"""Wide shadows and bypaths on isometric subgraphs.

The wide shadow of a vertex v on a subgraph H collects the H-vertices that are
at most as far from every x in H as v is. On an isometric path the shadow is an
interval of positions and drifts by at most one position per robber move, which
is what makes shadow-tracking cop play work. Bypaths are the exact obstruction
to slack: an off-path vertex has a one-point shadow precisely when it sits
inside an equally long detour of the path.

`wide_shadow` is an AND of balls, H with B(x, d(x, v)) for each x in H, read
off the graph's ball tables; `gamma`, one such ball as a set filter, is its
reference.

Everything about one path in one host comes from two BFS rows, from the
path's first and last vertex, which `PathShadows` keeps.  The first row
checks isometry (`Path.geodesic_row`), a shadow interval is read off both
rows at one vertex in constant time, an off-path vertex lies on a bypath
exactly when the two rows sum to the path's length there, and the detour
scanner `_detours` takes those vertices as its candidates, levelled by
their distance from the first vertex.  A host vertex that the path does
not reach reads n in both rows, so its shadow is the whole path and it lies
on no bypath, with no case of its own.  The planar engine keeps one such
object per guarded path and host, from the chase that attaches the path's
guard to the guard's release.

Bypaths can be exponentially many, so `bypaths` counts them over the detour
levels first and refuses a count over its budget before the one walker,
`_walks`, lists them; `first_bypath` (its first walk), `bypath_vertices`
and both bypath-free tests stay polynomial.
"""

from __future__ import annotations

from typing import Iterator

from pursuit.graphs import Graph, Path, bits, mask_of

__all__ = [
    "DEFAULT_BYPATH_BUDGET",
    "PathShadows",
    "TooManyBypaths",
    "bypath_vertices",
    "bypaths",
    "find_bypath",
    "first_bypath",
    "gamma",
    "is_bypath_free",
    "is_bypath_free_by_search",
    "wide_shadow",
]


def gamma(g: Graph, target: frozenset[int] | set[int], x: int, v: int) -> frozenset[int]:
    """Target vertices no farther from x than v is (one shadow constraint)."""
    dist = g.bfs_levels(x)
    dv = dist[v]
    return frozenset(y for y in target if dist[y] <= dv)


def wide_shadow(g: Graph, target, v: int) -> frozenset[int]:
    """Intersection of gamma over all target vertices: the target ANDed with
    B(x, d(x, v)) for each x in it that reaches v (a finite d(x, v) is at
    most x's eccentricity), with d(x, v) read off v's row."""
    n, row = g.n, g.bfs_levels(v)
    result = tmask = mask_of(target)
    for x in bits(tmask):
        if row[x] < n:
            result &= g.ball_masks(x)[row[x]]
            if not result:
                break
    return frozenset(bits(result))


class PathShadows:
    """Shadow queries against one isometric path in a fixed host.

    first and last hold the host distances from the path's two ends, v_0
    and v_L; building first checks isometry, which refuses a non-isometric
    path.  f(p) = d(v_p, x) is 1-Lipschitz in p, so p - f(p) and p + f(p)
    never decrease along the path, and the shadow of x, the interval
    [max_p(p - f(p)), min_p(p + f(p))] clamped to the path, reads
    [L - d_L(x), d_0(x)] off the two rows.
    """

    __slots__ = ("g", "path", "within", "first", "last")

    def __init__(self, g: Graph, path: Path, within: int | None = None) -> None:
        self.g = g
        self.path = path
        self.within = g.vertex_mask() if within is None else within
        first = path.geodesic_row(g, self.within)
        if first is None:
            raise ValueError("path is not isometric in the host")
        self.first = first
        self.last = g.bfs_levels(path.vertices[-1], self.within)

    def interval(self, v: int) -> tuple[int, int]:
        """Shadow of v as an inclusive (lo, hi) position range on the path."""
        if not self.within >> v & 1:
            raise ValueError(f"vertex {v} is outside the host")
        length = self.path.length
        # Nonempty: d_0(v) + d_L(v) >= L on an isometric path.
        return max(0, length - self.last[v]), min(length, self.first[v])

    def shadow_vertices(self, v: int) -> tuple[int, ...]:
        lo, hi = self.interval(v)
        return self.path.vertices[lo : hi + 1]

    def contains(self, v: int, q: int) -> bool:
        """Whether path position q lies in the shadow of v."""
        lo, hi = self.interval(v)
        return lo <= q <= hi

    def is_bypath_free(self) -> bool:
        """Bypath-freeness via the shadow criterion.

        An off-path vertex has a one-point shadow exactly when it lies on a
        bypath, that is on a v_0-v_L geodesic of the host, where
        d_0 + d_L = L.  Paths shorter than two edges admit no bypath at all.
        """
        length = self.path.length
        first, last = self.first, self.last
        return length < 2 or all(
            first[v] + last[v] != length for v in bits(self.within & ~self.path.mask())
        )


# -- bypaths ------------------------------------------------------------------


def _detours(shadows: PathShadows):
    """Yield (i, j, levels) for each span i < j - 1 of the path that has an
    equal-length detour avoiding the path, by smallest i, then smallest j.

    levels[k - 1] lists, in increasing order, the off-path host vertices at
    distance k from v_i and j - i - k from v_j that lie on such a detour.
    Every detour vertex lies on a v_0-v_L geodesic, at distance i + k from
    v_0, so the candidates for level k are the off-path vertices with
    d_0 + d_L = L and d_0 = i + k; pruning keeps exactly those on a walk
    from v_i to v_j through the levels, which are the detour vertices.
    """
    g, verts = shadows.g, shadows.path.vertices
    first, last, length = shadows.first, shadows.last, shadows.path.length
    by_level: list[list[int]] = [[] for _ in range(length + 1)]
    for w in bits(shadows.within & ~shadows.path.mask()):
        if first[w] + last[w] == length:
            by_level[first[w]].append(w)
    for i in range(length - 1):
        for j in range(i + 2, length + 1):
            if not by_level[j - 1]:
                break
            levels = by_level[i + 1 : j]
            if _prune_levels(g, verts[i], verts[j], levels):
                yield i, j, levels


def _prune_levels(g: Graph, vi: int, vj: int, levels: list[list[int]]) -> bool:
    """Keep only vertices reachable from v_i and co-reachable to v_j, in
    place; False as soon as some level empties."""
    for order, end in ((range(len(levels)), vi), (reversed(range(len(levels))), vj)):
        reach = 1 << end
        for k in order:
            levels[k] = [w for w in levels[k] if g.adj_mask(w) & reach]
            if not levels[k]:
                return False
            reach = mask_of(levels[k])
    return True


def find_bypath(g: Graph, path: Path, within: int | None = None) -> Path | None:
    """First bypath of the path in the host, or None.

    Deterministic: smallest start position, then smallest end position, then
    the lexicographically least vertex sequence through the detour levels.
    """
    return first_bypath(PathShadows(g, path, within))


def first_bypath(shadows: PathShadows) -> Path | None:
    """`find_bypath` on rows already built for the path and host."""
    return next(_walks(shadows.g, shadows.path, _detours(shadows)), None)


def _walks(g: Graph, path: Path, detours) -> Iterator[Path]:
    """Every bypath of the given detours, lazily: each span's walks from v_i
    through one vertex of each level to v_j, in lexicographic order."""
    for i, j, levels in detours:
        levels = levels + [[path.vertices[j]]]
        stack = [(path.vertices[i],)]
        while stack:
            seq = stack.pop()
            if len(seq) > len(levels):
                yield Path(seq)
            else:
                step = levels[len(seq) - 1]
                stack.extend(seq + (w,) for w in reversed(step) if g.has_edge(seq[-1], w))


DEFAULT_BYPATH_BUDGET = 10_000


class TooManyBypaths(RuntimeError):
    """A bypath listing counted past its budget."""

    def __init__(self, count: int, budget: int):
        super().__init__(count, budget)
        self.count, self.budget = count, budget

    def __str__(self) -> str:
        return f"{self.count} bypaths exceed budget {self.budget}"


def _walk_count(g: Graph, vi: int, vj: int, levels: list[list[int]]) -> int:
    """Walks from v_i through one vertex of each level to v_j: the bypaths
    of one span, counted level by level."""
    ways = {vi: 1}
    for lvl in levels + [[vj]]:
        ways = {w: sum(c for u, c in ways.items() if g.has_edge(u, w)) for w in lvl}
    return ways[vj]


def bypaths(
    g: Graph, path: Path, within: int | None = None, budget: int = DEFAULT_BYPATH_BUDGET
) -> list[Path]:
    """All bypaths of the path in the host, in deterministic order.

    A bypath replaces the stretch between two positions i < j (at least two
    apart) by an equally long detour that avoids the path internally; the
    rerouted walk is then itself a geodesic, hence isometric.  Their number
    can grow exponentially (the top-row-and-last-column path of a k x k grid
    has C(2k - 2, k - 1) - 1), so they are counted first, in polynomial
    time, and a count over budget raises TooManyBypaths instead of listing.
    """
    detours = list(_detours(PathShadows(g, path, within)))
    count = sum(_walk_count(g, path.vertices[i], path.vertices[j], lv) for i, j, lv in detours)
    if count > budget:
        raise TooManyBypaths(count, budget)
    return list(_walks(g, path, detours))


def bypath_vertices(g: Graph, path: Path, within: int | None = None) -> frozenset[int]:
    """Off-path vertices lying on at least one bypath.

    Computed by level pruning alone (reachable and co-reachable across each
    detour), so it stays polynomial even when bypaths are plentiful.
    """
    return frozenset(
        w
        for _, _, levels in _detours(PathShadows(g, path, within))
        for lvl in levels
        for w in lvl
    )


def is_bypath_free_by_search(
    g: Graph, path: Path, within: int | None = None
) -> bool:
    """Bypath-freeness straight from the definition (detour search)."""
    return find_bypath(g, path, within) is None


def is_bypath_free(g: Graph, path: Path, within: int | None = None) -> bool:
    """Bypath-freeness via the shadow criterion (`PathShadows.is_bypath_free`)."""
    return PathShadows(g, path, within).is_bypath_free()
