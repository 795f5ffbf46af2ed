"""Wide shadows and bypaths on isometric subgraphs.

The wide shadow of a vertex v on a subgraph H collects the H-vertices that are
at most as far from every x in H as v is. On an isometric path the shadow is an
interval of positions and drifts by at most one position per robber move, which
is what makes shadow-tracking cop play work. Bypaths are the exact obstruction
to slack: an off-path vertex has a one-point shadow precisely when it sits
inside an equally long detour of the path.

Everything about one path in one host comes from one set of rows, a BFS from
each path vertex inside the host. `Path.geodesic_rows` computes them while it
checks isometry and `PathShadows` keeps them: a shadow interval is a scan of
the rows at one vertex, and the detour scanner `_detours` reads the levels of
every equal-length detour off the rows of its two ends.  The planar engine
keeps one such object per guarded path and host, from the chase that
attaches the path's guard to the guard's release.

Two independent routes still decide bypath-freeness from those rows: the
shadow criterion (`PathShadows.is_bypath_free`, no off-path vertex with a
one-point shadow) and the detour search straight from the definition
(`is_bypath_free_by_search`). Tests hold them against each other.
"""

from __future__ import annotations

from pursuit.graphs import Graph, Path, bits, mask_of

__all__ = [
    "PathShadows",
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
    if dv < 0:
        return frozenset(target)
    return frozenset(y for y in target if 0 <= dist[y] <= dv)


def wide_shadow(g: Graph, target, v: int) -> frozenset[int]:
    """Intersection of gamma over all target vertices."""
    tv = sorted(set(target))
    result = set(tv)
    for x in tv:
        dist = g.bfs_levels(x)
        dv = dist[v]
        if dv < 0:
            continue
        result = {y for y in result if 0 <= dist[y] <= dv}
        if not result:
            break
    return frozenset(result)


class PathShadows:
    """Shadow queries against one isometric path in a fixed host.

    dists[p] holds the host distances from the path's p-th vertex: the rows
    of the isometry check, which refuses a non-isometric path. Each query
    is then a single min/max scan over positions. Distances along the path
    equal position differences by isometry, so the shadow is always the
    interval [max_p(p - d_p), min_p(p + d_p)] clamped to the path.
    """

    __slots__ = ("g", "path", "within", "dists")

    def __init__(self, g: Graph, path: Path, within: int | None = None) -> None:
        self.g = g
        self.path = path
        self.within = g.vertex_mask() if within is None else within
        dists = path.geodesic_rows(g, self.within)
        if dists is None:
            raise ValueError("path is not isometric in the host")
        self.dists = dists

    def interval(self, v: int) -> tuple[int, int]:
        """Shadow of v as an inclusive (lo, hi) position range on the path."""
        if not self.within >> v & 1:
            raise ValueError(f"vertex {v} is outside the host")
        lo, hi = 0, self.path.length
        for p, dist in enumerate(self.dists):
            d = dist[v]
            if d < 0:
                continue
            if p - d > lo:
                lo = p - d
            if p + d < hi:
                hi = p + d
        # Nonempty for any isometric path: paths are Helly, so the balls that
        # define the shadow have a common vertex.
        if lo > hi:
            raise AssertionError("empty shadow on an isometric path")
        return lo, hi

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
        bypath, so a non-trivial isometric path is bypath-free exactly when
        every off-path host vertex keeps a shadow of at least two positions.
        Paths shorter than two edges admit no bypath at all.
        """
        if self.path.length < 2:
            return True
        for v in bits(self.within & ~self.path.mask()):
            lo, hi = self.interval(v)
            if lo == hi:
                return False
        return True


# -- bypaths ------------------------------------------------------------------


def _detours(shadows: PathShadows):
    """Yield (i, j, levels) for each span i < j - 1 of the path that has an
    equal-length detour avoiding the path, by smallest i, then smallest j.

    levels[k - 1] lists, in increasing order, the off-path host vertices at
    distance k from v_i and j - i - k from v_j that lie on such a detour.
    """
    g, verts, dists = shadows.g, shadows.path.vertices, shadows.dists
    off = list(bits(shadows.within & ~shadows.path.mask()))
    for i in range(len(verts) - 2):
        di = dists[i]
        for j in range(i + 2, len(verts)):
            dj, span = dists[j], j - i
            levels: list[list[int]] = [[] for _ in range(span - 1)]
            for w in off:
                k = di[w]
                if 0 < k < span and dj[w] == span - k:
                    levels[k - 1].append(w)
            if all(levels) and _prune_levels(g, verts[i], verts[j], levels):
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
    g, path = shadows.g, shadows.path
    for i, j, levels in _detours(shadows):
        seq = [path.vertices[i]]
        for lvl in levels:
            seq.append(min(w for w in lvl if g.has_edge(seq[-1], w)))
        seq.append(path.vertices[j])
        return Path(tuple(seq))
    return None


def bypaths(g: Graph, path: Path, within: int | None = None) -> list[Path]:
    """All bypaths of the path in the host, in deterministic order.

    A bypath replaces the stretch between two positions i < j (at least two
    apart) by an equally long detour that avoids the path internally; the
    rerouted walk is then itself a geodesic, hence isometric.
    """
    out: list[Path] = []
    for i, j, levels in _detours(PathShadows(g, path, within)):
        vj = path.vertices[j]
        stack: list[list[int]] = [[path.vertices[i]]]
        while stack:
            seq = stack.pop()
            k = len(seq) - 1
            if k == len(levels):
                if g.has_edge(seq[-1], vj):
                    out.append(Path(tuple(seq) + (vj,)))
                continue
            for nxt in sorted(
                (x for x in levels[k] if g.has_edge(seq[-1], x)), reverse=True
            ):
                stack.append(seq + [nxt])
    return out


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
