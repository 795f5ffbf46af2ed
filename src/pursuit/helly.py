"""Helly recognition, dismantling orders, and hole witnesses.

A graph is Helly when its family of closed balls has the Helly property:
every pairwise-intersecting collection of balls has a common vertex.  A
*hole* is a minimal witness against that property: at least three centers
with positive radii whose balls pairwise intersect yet share no vertex.

Recognition, the hole search and ``shadows.wide_shadow`` (an AND of balls)
share one table: the BFS distance rows and the nested ball masks B(u, r) of
every center u, kept by the graph beside each other (``Graph.bfs_levels``,
``Graph.ball_masks``), so ``is_helly`` and then ``find_hole`` on one graph
build them once.  A row reads n where its center does not reach, so radius
tests and `max` rank that vertex farthest.

* ``is_helly`` runs the triple test of Berge and Duchet: a hypergraph is
  Helly exactly when, for each vertex triple, the edges holding at least
  two of the three have a common point.  Balls around one center are
  nested, so for ball hypergraphs (Bandelt and Prisner, "Clique graphs and
  Helly graphs", JCTB 1991) the test reads P(a,b) & P(b,c) & P(a,c) != 0,
  where the pair mask P(x,y) intersects B(u, max(d(u,x), d(u,y))) over
  every center u.
* ``find_hole`` decides with the same triple test and returns ``None`` on
  Helly graphs; only a non-Helly graph reaches the exponential search for
  the canonical smallest witness, which tries minimal radii only.
* ``is_helly_oracle`` is the independent route: it searches exhaustively
  for a pairwise-intersecting ball family with empty intersection.
  Exponential, guarded to small n, and sharing only the distance rows
  with the triple test.

Dismantling orders double as data for shadow-capture controllers, so each
elimination step records its witness vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, bits


def find_corner(g: Graph, alive: int | None = None) -> tuple[int, int] | None:
    """Lowest-index corner of the subgraph induced on ``alive``, with witness.

    A corner is a vertex x whose closed neighborhood is contained in the
    closed neighborhood of some neighbor y.  Returns (x, y) with the lowest
    x and, for that x, the lowest y; ``None`` when no corner exists.
    """
    if alive is None:
        alive = g.vertex_mask()
    for x in bits(alive):
        nx = (g.adj_mask(x) | (1 << x)) & alive
        for y in bits(g.adj_mask(x) & alive):
            if nx & ~(g.adj_mask(y) | (1 << y)) == 0:
                return (x, y)
    return None


def dismantling_order(g: Graph) -> list[tuple[int, int]] | None:
    """Greedy corner elimination down to a single vertex.

    Returns the deletion sequence as (corner, witness) pairs, or ``None``
    when the graph is not dismantlable.  Removing any corner of a
    dismantlable graph leaves a dismantlable graph, so greedy choice is
    safe.  A one-vertex graph yields the empty order.
    """
    if g.n == 0:
        return []
    alive = g.vertex_mask()
    order: list[tuple[int, int]] = []
    while alive.bit_count() > 1:
        step = find_corner(g, alive)
        if step is None:
            return None
        order.append(step)
        alive &= ~(1 << step[0])
    return order


def is_dismantlable(g: Graph) -> bool:
    return dismantling_order(g) is not None


def _ball_table(g: Graph) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """Distance rows and cumulative ball masks of every vertex.

    rows[u][v] is d(u, v), or n when v is unreachable from u.  balls[u][r]
    is the mask of B(u, r) for r in 0..ecc(u), read from the masks the
    graph keeps (``Graph.ball_masks``); the last entry is u's component, so
    any finite radius of at least ecc(u) reads it.
    """
    return [g.bfs_levels(v) for v in range(g.n)], [g.ball_masks(v) for v in range(g.n)]


def _triple_test(rows: list[list[int]], balls: list[tuple[int, ...]]) -> bool:
    """Whether every vertex triple passes the Berge-Duchet test.

    The pair mask P(x,y) intersects B(u, max(d(u,x), d(u,y))) over every
    center u; an unreachable pair maximum selects the full mask.  Each P is
    filled on first use and kept, so a non-Helly graph stops at its first
    failing triple.  P(x,y) holds x and y, so 0 marks an unfilled entry.
    """
    n = len(rows)
    full = (1 << n) - 1
    meet = [[0] * n for _ in range(n)]

    def fill(x: int, y: int) -> int:
        acc = full
        for masks, dx, dy in zip(balls, rows[x], rows[y]):
            r = dx if dx > dy else dy
            if r < n:
                acc &= masks[r]
        meet[x][y] = acc
        return acc

    for a in range(n - 2):
        ma = meet[a]
        for b in range(a + 1, n - 1):
            mb = meet[b]
            ab = ma[b] or fill(a, b)
            for c in range(b + 1, n):
                if not ab & (ma[c] or fill(a, c)) & (mb[c] or fill(b, c)):
                    return False
    return True


def is_helly(g: Graph) -> bool:
    """Polynomial Helly test over vertex triples.

    For a triple (a, b, c) and a center u, every ball around u containing
    at least two of the triple has radius at least
    m(u) = min over pairs {x, y} of max(d(u,x), d(u,y)).
    The graph is Helly iff for every triple some vertex w lies within m(u)
    of every center u.  Nested balls turn that intersection into
    P(a,b) & P(b,c) & P(a,c) over the pair masks of ``_triple_test``.
    """
    return _triple_test(*_ball_table(g))


def is_helly_oracle(g: Graph) -> bool:
    """Exhaustive search for a pairwise-intersecting family with empty core.

    Independent of the triple test.  Without loss of generality a violating
    family keeps at most one ball per center (the smallest), skips radius 0
    (a radius-0 ball forces its center into every other ball), and skips
    radii reaching the center's eccentricity (such balls never constrain
    the intersection).  The search picks the lowest vertex still in the
    running intersection and branches over compatible balls that exclude
    it, so every branch makes progress.
    """
    if g.n > 8:
        raise ValueError(f"oracle limited to n <= 8, got {g.n}")
    n = g.n
    if n <= 2:
        return True
    rows = [g.bfs_levels(v) for v in range(n)]
    balls: list[tuple[int, int, int]] = []
    for v in range(n):
        ecc = max(d for d in rows[v] if d < n)
        for r in range(1, ecc):
            mask = 0
            for u in range(n):
                if rows[v][u] <= r:
                    mask |= 1 << u
            balls.append((v, r, mask))

    def search(chosen: list[tuple[int, int]], used: int, inter: int) -> bool:
        pivot = (inter & -inter).bit_length() - 1
        for v, r, mask in balls:
            if used >> v & 1 or mask >> pivot & 1:
                continue
            if any(rows[v][w] > r + s for w, s in chosen):
                continue
            nxt = inter & mask
            if nxt == 0:
                return True
            chosen.append((v, r))
            hit = search(chosen, used | (1 << v), nxt)
            chosen.pop()
            if hit:
                return True
        return False

    return not search([], 0, g.vertex_mask())


@dataclass(frozen=True)
class Hole:
    """Witness against the Helly property: centers and positive radii whose
    balls pairwise intersect but have no common vertex."""

    centers: tuple[int, ...]
    radii: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.centers) != len(self.radii):
            raise ValueError("centers and radii must align")
        if len(self.centers) < 3:
            raise ValueError("a hole needs at least three centers")
        if len(set(self.centers)) != len(self.centers):
            raise ValueError("centers must be distinct")
        if any(r < 1 for r in self.radii):
            raise ValueError("radii must be positive")


def is_valid_hole(g: Graph, hole: Hole) -> bool:
    n = g.n
    if any(not 0 <= v < n for v in hole.centers):
        return False
    rows = {v: g.bfs_levels(v) for v in set(hole.centers)}
    k = len(hole.centers)
    for i in range(k):
        for j in range(i + 1, k):
            vi, vj = hole.centers[i], hole.centers[j]
            if rows[vi][vj] > hole.radii[i] + hole.radii[j]:
                return False
    for u in range(n):
        if all(rows[v][u] <= r for v, r in zip(hole.centers, hole.radii)):
            return False
    return True


def find_hole(g: Graph) -> Hole | None:
    """Canonical minimal hole, or ``None`` for Helly graphs.

    The triple test decides first, so a Helly graph costs one polynomial
    pass.  Otherwise the answer is the least hole in minimality order:
    fewest centers, then smallest radius sum, then lexicographically least
    (centers, radii).  Radii range over 1..ecc(center)-1, which suffices:
    larger radii never constrain and a radius-0 ball cannot appear in a
    violating family.

    Only minimal radii are tried.  Lowering a radius of a hole shrinks the
    common intersection, so if the balls still meet pairwise and the radius
    stays positive, the result is a hole with a smaller sum.  So in every
    hole of least sum, each radius is the least whose ball meets the other
    balls; in particular the last is max(1, max_j d(c_last, c_j) - r_j).
    For each k, the search walks the center sets in lexicographic order,
    runs each earlier radius up from the least that meets the balls before
    it, sets the last radius to its least value, and keeps a vector only
    when its sum is below the best found so far, which also cuts every
    prefix that cannot get below it.  Every hole of least sum is among the
    vectors tried, which come in lexicographic order of (centers, radii),
    so the first of them kept is the canonical hole.
    """
    rows, balls = _ball_table(g)
    if _triple_test(rows, balls):
        return None
    max_r = [len(masks) - 2 for masks in balls]
    eligible = [v for v in range(g.n) if max_r[v] >= 1]
    best: Hole | None = None
    bound = 0  # the radius sum a vector must stay below to beat best

    def least(v: int, centers: tuple[int, ...], picks: list[int]) -> int:
        """The least radius at v whose ball meets the balls picked so far."""
        row = rows[v]
        return max([1] + [row[u] - q for u, q in zip(centers, picks)])

    def rec(centers: tuple[int, ...], picks: list[int], total: int, inter: int) -> None:
        # picks holds the radii of the centers before centers[i]; level
        # k - 2 sets the last radius to its least value.
        nonlocal best, bound
        i, k = len(picks), len(centers)
        c, last = centers[i], centers[-1]
        for r in range(least(c, centers, picks), max_r[c] + 1):
            if total + r + k - 1 - i >= bound:
                break
            picks.append(r)
            if i < k - 2:
                rec(centers, picks, total + r, inter & balls[c][r])
            else:
                s = least(last, centers, picks)
                if s <= max_r[last] and total + r + s < bound and not inter & balls[c][r] & balls[last][s]:
                    best, bound = Hole(centers, (*picks, s)), total + r + s
            picks.pop()

    for k in range(3, len(eligible) + 1):
        bound = k * g.n  # above any sum of k radii below n
        for centers in combinations(eligible, k):
            rec(centers, [], 0, g.vertex_mask())
        if best is not None:
            return best
    raise AssertionError("triple test and hole search disagree")
