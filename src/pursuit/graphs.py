"""Core graph type and metric utilities.

Simple undirected graphs on dense vertex ids 0..n-1. Adjacency is kept as one
Python int bitmask per vertex, which makes BFS and set algebra cheap enough for
the exhaustive corpora and the n=200 strategy campaigns without numpy.

A `bfs_levels` row reads n, the vertex count, at every vertex the source
does not reach: n exceeds every finite distance, so `min`, `max` and radius
tests rank an unreachable vertex farthest and the row stays all ints.  The
metric API (`distances_from`, `distance_matrix`) maps n to UNREACHABLE, IEEE
infinity, so a metric check on a disconnected graph fails loudly.

One BFS kernel, `_levels`, yields level masks: a row fills from them, a
component ORs them, a ball table accumulates them, a geodesic walks them.

A graph answers each whole-graph distance question once.  `bfs_levels` keeps
a row per source for BFS over the whole graph (no mask, or the full vertex
mask), filled on first use, so distance matrices, shadows, Helly tests and
isometry rows all read the same rows; a graph that is never asked allocates
nothing.  Each caller gets its own copy of the row.  Beside each row the
graph keeps, once asked by `ball_masks`, that source's cumulative ball
masks: entry r is the vertex mask of B(src, r).  `ball`, `wide_shadow`, the
Helly test and hole search read them, so a graph builds its ball table once
however many of them ask; the tuple is shared, as nothing can change it.  A
BFS restricted to a smaller mask (the validator's, or the two rows from a
guarded path's ends in a `PathShadows`) is almost always a fresh (source,
mask) pair, so it runs uncached.

The graph6 codec handles the bit stream as text: the encoder writes it column
by column and maps it six bits at a time, and the decoder reads the set bits
with `str.find`, both in time linear in the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import or_
from typing import Iterable, Iterator, Sequence

UNREACHABLE: float = math.inf


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _levels(adj: Sequence[int], sources: int, allowed: int) -> Iterator[int]:
    """BFS level masks: sources as given, then each nonempty mask of the
    allowed vertices first reached from the level before.  A source outside
    allowed still expands into it.  Stops once every allowed vertex is seen."""
    frontier, rest = sources, allowed & ~sources
    while frontier:
        yield frontier
        if not rest:
            return
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & rest
        rest ^= frontier


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_neigh", "_rows", "_balls")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self._neigh: tuple[tuple[int, ...], ...] | None = None
        self._rows: list[list[int] | None] | None = None
        self._balls: list[tuple[int, ...] | None] | None = None

    # -- basic accessors ---------------------------------------------------

    def adj_mask(self, v: int) -> int:
        return self._adj[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        if self._neigh is None:
            self._neigh = tuple(tuple(bits(m)) for m in self._adj)
        return self._neigh[v]

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self._adj[u] >> (u + 1)
            for k in bits(rest):
                out.append((u, u + 1 + k))
        return out

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self._adj) // 2

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- traversal ---------------------------------------------------------

    def bfs_levels(self, src: int, within: int | None = None) -> list[int]:
        """Distances from src as a list the caller owns, n for unreachable.

        within restricts the search to the given vertex bitmask; a src
        outside it still reads 0 and expands into it.  A whole-graph row
        (within None or the full vertex mask) is computed once per source
        and kept; a masked call runs its own BFS and never touches those
        rows.
        """
        if within is not None and within != (1 << self.n) - 1:
            return self._bfs(src, within)
        return self._row(src)[:]

    def _row(self, src: int) -> list[int]:
        """The kept whole-graph row of src, filled on first use; not a copy."""
        rows = self._rows
        if rows is None:
            rows = self._rows = [None] * self.n
        row = rows[src]
        if row is None:
            row = rows[src] = self._bfs(src, (1 << self.n) - 1)
        return row

    def ball_masks(self, src: int) -> tuple[int, ...]:
        """Cumulative ball masks of src: entry r is the mask of B(src, r) for
        r in 0..ecc(src), so the last entry is src's component and any
        radius of at least ecc(src) reads it.  Accumulated from src's BFS
        levels on first use and kept."""
        balls = self._balls
        if balls is None:
            balls = self._balls = [None] * self.n
        masks = balls[src]
        if masks is None:
            levels = _levels(self._adj, 1 << src, (1 << self.n) - 1)
            masks = balls[src] = tuple(accumulate(levels, or_))
        return masks

    def _bfs(self, src: int, allowed: int) -> list[int]:
        dist = [self.n] * self.n
        for d, level in enumerate(_levels(self._adj, 1 << src, allowed)):
            while level:
                low = level & -level
                dist[low.bit_length() - 1] = d
                level ^= low
        return dist

    def distances_from(self, src: int) -> list[float]:
        return [UNREACHABLE if d == self.n else d for d in self.bfs_levels(src)]

    def is_connected(self) -> bool:
        return self.n == 0 or self.component_of(0) == self.vertex_mask()

    def components(self) -> list[int]:
        """Connected components as vertex bitmasks."""
        remaining = self.vertex_mask()
        out = []
        while remaining:
            comp = self.component_of((remaining & -remaining).bit_length() - 1, remaining)
            out.append(comp)
            remaining &= ~comp
        return out

    def component_of(self, v: int, within: int | None = None) -> int:
        """Bitmask of the component of v inside the given vertex mask."""
        allowed = self.vertex_mask() if within is None else within
        return reduce(or_, _levels(self._adj, 1 << v, allowed))

    # -- derived graphs ----------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
        """Induced subgraph plus the list mapping new ids to old ids."""
        keep = sorted(set(vertices))
        index = {old: new for new, old in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in index and v in index
        ]
        return Graph(len(keep), edges), keep


# -- graph6 codec -----------------------------------------------------------


def _g6_size(data: str) -> tuple[int, int]:
    """Decode the leading size field, return (n, chars consumed)."""
    if not data:
        raise ValueError("empty graph6 string")
    c = ord(data[0])
    if c == 126:
        if len(data) < 4:
            raise ValueError("truncated graph6 size field")
        if ord(data[1]) == 126:
            raise ValueError("graph6 inputs beyond 258047 vertices not supported")
        n = 0
        for ch in data[1:4]:
            n = n << 6 | (ord(ch) - 63)
        return n, 4
    if not 63 <= c <= 125:
        raise ValueError(f"invalid graph6 size character {data[0]!r}")
    return c - 63, 1


# Each graph6 data character carries six bits of the stream, most
# significant first.
_G6_BITS = {chr(63 + c): format(c, "06b") for c in range(64)}
_G6_CHAR = {six: ch for ch, six in _G6_BITS.items()}


def from_graph6(text: str) -> Graph:
    """Parse one graph in graph6 format (optional >>graph6<< header).

    The stream lists the upper triangle column by column (x_01, x_02, x_12,
    x_03, ...); the pad bits that round it up to whole characters must be 0,
    so each graph has exactly one accepted body.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    n, at = _g6_size(s)
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[at:]
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)}, expected {need} for n={n}")
    try:
        stream = "".join([_G6_BITS[ch] for ch in body])
    except KeyError as e:
        raise ValueError(f"invalid graph6 data character {e.args[0]!r}") from None
    nbits = n * (n - 1) // 2
    if "1" in stream[nbits:]:
        raise ValueError("graph6 padding bits must be 0")
    # Bit k is x_ij for the column j with top - j <= k < top, top = j(j+1)/2.
    edges = []
    j = top = 1
    k = stream.find("1", 0, nbits)
    while k >= 0:
        while k >= top:
            j += 1
            top += j
        edges.append((k - top + j, j))
        k = stream.find("1", k + 1, nbits)
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    elif n <= 258047:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    else:
        raise ValueError("graphs beyond 258047 vertices not supported")
    # Column j is x_0j .. x_(j-1)j: the binary digits of j's lower
    # neighbours, least significant first.  The guard bit 1 << j fixes the
    # digit count; reversing drops it with the "0b" prefix.
    stream = "".join(
        [bin(g.adj_mask(j) & ((1 << j) - 1) | 1 << j)[:2:-1] for j in range(1, n)]
    )
    stream += "0" * (-len(stream) % 6)
    return head + "".join([_G6_CHAR[stream[k : k + 6]] for k in range(0, len(stream), 6)])


# -- edge-list text I/O ------------------------------------------------------


def from_edge_list(text: str) -> Graph:
    """Parse edge-list text: optional 'n' line, then 'u v' lines.

    Blank lines and lines starting with '#' are ignored. Without an explicit
    vertex-count line, n is one past the largest mentioned vertex.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 1:
            if n is not None:
                raise ValueError("duplicate vertex-count line in edge list")
            n = int(parts[0])
        elif len(parts) == 2:
            edges.append((int(parts[0]), int(parts[1])))
        else:
            raise ValueError(f"bad edge-list line: {raw!r}")
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
    return Graph(n, edges)


def to_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# -- metric structures -------------------------------------------------------


class DistanceMatrix:
    """All-pairs shortest-path distances with an UNREACHABLE sentinel."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[float]]) -> None:
        self.rows = tuple(tuple(r) for r in rows)

    def __getitem__(self, pair: tuple[int, int]) -> float:
        u, v = pair
        return self.rows[u][v]

    def diameter(self) -> float:
        return max((max(r) for r in self.rows), default=0)


def distance_matrix(g: Graph) -> DistanceMatrix:
    return DistanceMatrix([g.distances_from(v) for v in range(g.n)])


def ball(g: Graph, center: int, radius: int) -> frozenset[int]:
    """Closed ball: all vertices within the given distance of center."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    masks = g.ball_masks(center)
    return frozenset(bits(masks[min(radius, len(masks) - 1)]))


def is_isometric_subgraph(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the induced subgraph preserves all host distances.

    An empty vertex set is not an isometric subgraph.
    """
    keep = sorted(set(vertices))
    if not keep:
        return False
    sub_mask = mask_of(keep)
    for v in keep:
        host = g.bfs_levels(v)
        inner = g.bfs_levels(v, sub_mask)
        for u in keep:
            if host[u] != inner[u]:
                return False
    return True


@dataclass(frozen=True)
class Path:
    """A path given by its vertex sequence; consecutive vertices are adjacent."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("path must have at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("path vertices must be distinct")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def index_of(self, v: int) -> int:
        return self.vertices.index(v)

    def segment(self, i: int, j: int) -> Path:
        if i > j:
            raise ValueError("segment indices out of order")
        return Path(self.vertices[i : j + 1])

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def mask(self) -> int:
        return mask_of(self.vertices)

    def is_path_in(self, g: Graph) -> bool:
        return all(
            g.has_edge(u, v) for u, v in zip(self.vertices, self.vertices[1:])
        )

    def geodesic_row(self, g: Graph, within: int | None = None) -> list[int] | None:
        """Distances from the first vertex inside within if the path lies in
        within and is isometric there, else None.

        One row decides it: a shortcut from vertex i to vertex j > i would
        bring vertex j closer than j to vertex 0, so the path is isometric
        exactly when the row reads j at vertex j for every j.
        """
        if within is not None and self.mask() & ~within or not self.is_path_in(g):
            return None
        row = g.bfs_levels(self.vertices[0], within)
        if any(row[v] != j for j, v in enumerate(self.vertices)):
            return None
        return row

    def is_isometric_in(self, g: Graph, within: int | None = None) -> bool:
        """True iff distances along the path equal distances in g.

        within restricts g to a vertex mask (the path must lie inside it), so
        the same check serves both whole-graph and induced-host isometry.
        """
        return self.geodesic_row(g, within) is not None


def shortest_path(
    g: Graph, src: int, dst: int, within: int | None = None
) -> Path | None:
    """Lexicographically least shortest path from src to dst, or None:
    the one-vertex case of `shortest_path_between`."""
    return shortest_path_between(g, 1 << src, 1 << dst, within)


def shortest_path_between(
    g: Graph, sources: int, targets: int, within: int | None = None
) -> Path | None:
    """Lexicographically least shortest path from the mask sources to the
    mask targets inside within, or None when no such path exists.

    Lex-least over vertex sequences among the shortest paths of the nearest
    pairs, which pins down a deterministic choice everywhere a geodesic is
    needed.  A BFS grows level masks from the targets up to the first level
    that holds a source; the walk then takes the least vertex of each level
    that continues it.
    """
    allowed = g.vertex_mask() if within is None else within
    sources &= allowed
    targets &= allowed
    if not (sources and targets):
        return None
    adj = g._adj
    levels = []
    for level in _levels(adj, targets, allowed):
        levels.append(level)
        if level & sources:
            break
    else:
        return None
    seq: list[int] = []
    pick = sources
    for level in reversed(levels):
        step = level & pick
        seq.append((step & -step).bit_length() - 1)
        pick = adj[seq[-1]]
    return Path(tuple(seq))


# -- small exact invariants ---------------------------------------------------


def is_dominating(g: Graph, vertices: Iterable[int]) -> bool:
    covered = 0
    for v in vertices:
        covered |= g.adj_mask(v) | 1 << v
    return covered == g.vertex_mask()


def domination_number(g: Graph) -> int:
    """Exact minimum dominating set size, by subset search over closed stars.

    Guarded to small graphs: raises for n > 24 since the search is
    exponential.
    """
    n = g.n
    if n == 0:
        return 0
    if n > 24:
        raise ValueError(f"domination_number is exact-only, n={n} exceeds 24")
    stars = [g.adj_mask(v) | 1 << v for v in range(n)]
    full = g.vertex_mask()
    from itertools import combinations

    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            cov = 0
            for v in combo:
                cov |= stars[v]
            if cov == full:
                return k
    return n
