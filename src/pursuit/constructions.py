"""Instance generators and witness constructions.

Alongside the standard generators (paths, cycles, grids, random graphs,
random planar triangulations) this module builds the two witness families
used by the guardability results:

* ``build_hts`` constructs H(t,s): a complete core T on t = 2m-1 vertices
  plus, for every m-subset X of the core, a clique K_X of s private
  vertices joined to X.  The result is chordal with diameter 2, so one cop
  suffices on H(t,s) itself.  Past ``EXPLICIT_LIMIT`` vertices, or past
  ``BUILD_LIMIT`` steps of its self-checks, it raises ``TooLarge``.
* ``build_guard_adversary`` surrounds H(t,s) with apex vertices, one per
  transversal of the private cliques, producing a host graph in which k
  cops cannot guard H(t,s).  The transversal family has s^C(t,m) members,
  so above ``EXPLICIT_LIMIT`` apexes only the escape certificate is
  produced: a constructive procedure naming, for any k-cop placement, a
  cop-free clique K_X and a cop-free transversal.
* ``build_hole_gadget`` attaches an apex to a non-Helly graph through
  internally disjoint paths whose lengths follow a hole's radii; the base
  graph stays isometric in the gadget and stops being 1-guardable.

``connected_graphs`` enumerates all connected graphs on n vertices up to
isomorphism (1, 1, 2, 6, 21, 112, 853, 11117 for n = 1..8), which the test
suites use as exhaustive corpora.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Iterator, Sequence

from .graphs import Graph, bits, distance_matrix, is_isometric_subgraph
from .helly import Hole, is_dismantlable, is_valid_hole


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def random_connected(n: int, p: float, seed: int) -> Graph:
    """Random spanning tree plus each remaining pair with probability p."""
    if n < 1:
        raise ValueError("random_connected needs n >= 1")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = order[i], order[j]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def random_planar_triangulation(n: int, seed: int) -> Graph:
    """Seeded maximal planar graph: stacked insertions, then random flips.

    Faces are tracked as triangles on the sphere (the initial triangle
    appears twice, once per side).  Each flip replaces the diagonal of a
    quadrilateral formed by two adjacent faces, skipped when the opposite
    diagonal already exists, so the graph stays simple and every face stays
    a triangle.  Output is 3-connected for n >= 4 and has m = 3n - 6.

    The flips keep a sorted edge list and, for each edge, the third vertex
    of every face on it, and update both in place, so one flip costs O(n)
    list moves and O(log n) comparisons.  The graph for each (n, seed) is
    fixed: the seeds name a corpus, and the pinned graph6 digests in the
    tests must not change.
    """
    if n < 3:
        raise ValueError("triangulation needs n >= 3")
    rng = random.Random(seed)
    faces: list[tuple[int, int, int]] = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces.extend([(a, b, v), (a, c, v), (b, c, v)])

    opposite: dict[tuple[int, int], list[int]] = {}
    for a, b, c in faces:
        for p, q, r in ((a, b, c), (a, c, b), (b, c, a)):
            opposite.setdefault((min(p, q), max(p, q)), []).append(r)
    edges = sorted(opposite)

    if n >= 4:
        for _ in range(4 * n):
            k = rng.randrange(len(edges))
            u, v = edges[k]
            x, y = opposite[u, v]
            diagonal = (min(x, y), max(x, y))
            if x == y or diagonal in opposite:
                continue
            # Faces (u, v, x) and (u, v, y) become (u, x, y) and (v, x, y).
            del edges[k]
            del opposite[u, v]
            insort(edges, diagonal)
            opposite[diagonal] = [u, v]
            for end, other in ((u, v), (v, u)):
                for w, z in ((x, y), (y, x)):
                    third = opposite[min(end, w), max(end, w)]
                    third.remove(other)
                    third.append(z)

    if len(edges) != 3 * n - 6:
        raise AssertionError("flip bookkeeping broke the face count")
    g = Graph(n, edges)
    if not g.is_connected():
        raise AssertionError("triangulation is disconnected")
    return g


# --- exhaustive corpus -----------------------------------------------------

_CONNECTED_CACHE: dict[int, list[Graph]] = {}


def _labels(adj: Sequence[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each vertex's label, read off the adjacency masks: its neighbours'
    degrees, sorted, and its sphere sizes |S(v, d)| for d = 0, 1, ... up to
    its eccentricity, each sphere the OR of the last one's neighbourhoods
    outside the ball.  For graphs of one order, the sphere sizes say what
    the vertex's sorted BFS row says."""
    deg = [m.bit_count() for m in adj]
    full = (1 << len(adj)) - 1
    out = []
    for v, mask in enumerate(adj):
        ball = mask | 1 << v
        sphere = mask
        sizes = [1]
        near = []
        while mask:
            low = mask & -mask
            near.append(deg[low.bit_length() - 1])
            mask ^= low
        near.sort()
        # The spheres are graphs._levels(adj, 1 << v, full) written out: this
        # loop runs for every vertex of every corpus candidate, and the
        # kernel's generator made corpus-census set-up about 6% slower.
        while sphere:
            sizes.append(sphere.bit_count())
            if ball == full:
                break
            nxt = 0
            while sphere:
                low = sphere & -sphere
                nxt |= adj[low.bit_length() - 1]
                sphere ^= low
            sphere = nxt & ~ball
            ball |= sphere
        out.append((tuple(near), tuple(sizes)))
    return out


def _isomorphisms(
    a: Sequence[int], la: list[tuple], b: Sequence[int], lb: list[tuple]
) -> Iterator[tuple[int, ...]]:
    """Every isomorphism from a to b, two graphs given as adjacency masks,
    that maps each vertex to one with the same label, as the tuple of images.

    The sorted labels must agree.  Backtracking places a's vertices in order
    of fewest candidates; a candidate w for vertex v fits when w's neighbours
    among the images so far are exactly the images of v's placed neighbours,
    one mask comparison."""
    n = len(a)
    where: dict[tuple, list[int]] = {}
    for w, label in enumerate(lb):
        where.setdefault(label, []).append(w)
    cand = [where.get(label, []) for label in la]
    order = sorted(range(n), key=lambda v: (len(cand[v]), v))
    placed = 0
    back = []  # back[i]: the neighbours of order[i] placed before it
    for v in order:
        back.append(tuple(bits(a[v] & placed)))
        placed |= 1 << v
    image = [0] * n

    def extend(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(image)
            return
        v = order[i]
        want = 0
        for u in back[i]:
            want |= 1 << image[u]
        for w in cand[v]:
            if b[w] & used == want and not used >> w & 1:
                image[v] = w
                yield from extend(i + 1, used | 1 << w)

    return extend(0, 0)


def _isomorphic(a: Sequence[int], la: list[tuple], b: Sequence[int], lb: list[tuple]) -> bool:
    return next(_isomorphisms(a, la, b, lb), None) is not None


def _automorphisms(adj: Sequence[int]) -> list[tuple[int, ...]]:
    """Aut of the graph with these adjacency masks, each as its image tuple."""
    labels = _labels(adj)
    return list(_isomorphisms(adj, labels, adj, labels))


def is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n:
        return False
    ma = [a.adj_mask(v) for v in range(a.n)]
    mb = [b.adj_mask(v) for v in range(b.n)]
    la, lb = _labels(ma), _labels(mb)
    return sorted(la) == sorted(lb) and _isomorphic(ma, la, mb, lb)


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n vertices, one per isomorphism class.

    Built by attaching vertex n-1 to every nonempty neighborhood subset of
    every connected (n-1)-vertex graph; every connected graph arises this
    way because some vertex is never a cut vertex.

    Orbit pruning: subsets are walked in increasing order, and one that is
    the image of a smaller subset under an automorphism of the parent is
    skipped, since the two children are isomorphic and the smaller came
    first (McKay, J. Algorithms 1998, without the canonical form, so the
    representatives stay the first of their class in this order).  Each
    remaining candidate stays a list of adjacency masks: its vertex labels
    (`_labels`) are computed once; sorted, they key its bucket, and they
    restrict its match against each representative in that bucket; it joins
    the list, built into a `Graph`, unless one matches.  Results are cached
    per n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n in _CONNECTED_CACHE:
        return _CONNECTED_CACHE[n]
    if n == 1:
        reps = [Graph(1, [])]
    else:
        last = 1 << (n - 1)  # the bit of the new vertex n-1
        reps = []
        buckets: dict[tuple, list[tuple[list[int], list[tuple]]]] = {}
        for parent in connected_graphs(n - 1):
            base = [parent.adj_mask(v) for v in range(n - 1)]
            auts = _automorphisms(base)
            skip: set[int] = set()
            for sub in range(1, last):
                if sub in skip:
                    continue
                if len(auts) > 1:
                    for perm in auts:
                        skip.add(sum(1 << perm[v] for v in bits(sub)))
                adj = [m | last if sub >> v & 1 else m for v, m in enumerate(base)]
                adj.append(sub)
                labels = _labels(adj)
                bucket = buckets.setdefault(tuple(sorted(labels)), [])
                if not any(_isomorphic(adj, labels, h, lh) for h, lh in bucket):
                    bucket.append((adj, labels))
                    reps.append(Graph(n, parent.edges() + [(v, n - 1) for v in bits(sub)]))
    _CONNECTED_CACHE[n] = reps
    return reps


# --- guardability witnesses ------------------------------------------------

EXPLICIT_LIMIT = 4096  # most vertices of H(t,s), most apexes of its adversary gadget
# Most self-check steps of H(t,s), (m + 1) * n^2 for n vertices: n^2 distance
# reads, and m * n^2 neighbour tests as dismantling scans the core (whose
# degrees sum to about m * n) once per removed vertex.  The largest accepted
# builds, H(3,303), H(5,78), H(7,20) and H(9,5), take 1.1-1.3 s each on a
# 2-core Xeon.
BUILD_LIMIT = 2_500_000


class TooLarge(RuntimeError):
    """An explicit construction would pass EXPLICIT_LIMIT or BUILD_LIMIT."""


@dataclass(frozen=True)
class HtsDescriptor:
    t: int
    s: int
    m: int
    subsets: tuple[tuple[int, ...], ...]
    privates: tuple[tuple[int, ...], ...]


def _has_perfect_elimination(g: Graph) -> bool:
    alive = g.vertex_mask()
    while alive:
        for v in bits(alive):
            nb = g.adj_mask(v) & alive
            if all(not nb & ~(g.adj_mask(u) | 1 << u) for u in bits(nb)):
                alive &= ~(1 << v)  # v is simplicial
                break
        else:
            return False
    return True


def build_hts(t: int, s: int) -> tuple[Graph, HtsDescriptor]:
    if t < 3 or t % 2 == 0:
        raise ValueError("t must be odd and at least 3")
    if s < 1:
        raise ValueError("s must be at least 1")
    m = (t + 1) // 2
    size = t + s * comb(t, m)
    if size > EXPLICIT_LIMIT:
        raise TooLarge(f"H({t},{s}) has {size} vertices, over the limit of {EXPLICIT_LIMIT}")
    steps = (m + 1) * size * size
    if steps > BUILD_LIMIT:
        raise TooLarge(
            f"H({t},{s}) needs {steps} self-check steps, (m + 1) n^2 for m = {m} "
            f"and n = {size}, over the limit of {BUILD_LIMIT}"
        )
    subsets = tuple(combinations(range(t), m))
    edges = [(i, j) for i in range(t) for j in range(i + 1, t)]
    privates = []
    nxt = t
    for x in subsets:
        mine = tuple(range(nxt, nxt + s))
        nxt += s
        privates.append(mine)
        for i, p in enumerate(mine):
            for q in mine[i + 1 :]:
                edges.append((p, q))
            for v in x:
                edges.append((v, p))
    g = Graph(nxt, edges)
    if g.n != size:
        raise AssertionError("H(t,s) has t + s*C(t,m) vertices")
    if distance_matrix(g).diameter() != 2:
        raise AssertionError("H(t,s) has diameter 2")
    if not _has_perfect_elimination(g):
        raise AssertionError("H(t,s) must be chordal")
    if not is_dismantlable(g):
        raise AssertionError("chordal graphs dismantle")
    desc = HtsDescriptor(
        t=t, s=s, m=m, subsets=subsets, privates=tuple(privates),
    )
    return g, desc


class EscapeCertificate:
    """Constructive escape argument for k cops confined to H(t,s).

    For any placement of at most k cops on H(t,s) with m > k and s > k:

    * some clique K_X holds no cop (``cop_free_subset``), so the placement
      never dominates the graph;
    * every clique keeps a cop-free private vertex, so a cop-free
      transversal exists (``escape_transversal``) and the apex above it has
      no cop in its closed neighborhood.
    """

    def __init__(self, descriptor: HtsDescriptor, k: int):
        self.descriptor = descriptor
        self.k = k
        self._size = descriptor.t + descriptor.s * len(descriptor.subsets)

    def _check(self, cops: tuple[int, ...]) -> set[int]:
        if len(cops) > self.k:
            raise ValueError(f"certificate covers at most {self.k} cops")
        placed = set(cops)
        if any(not 0 <= c < self._size for c in placed):
            raise ValueError("cops must stand on H(t,s)")
        return placed

    def cop_free_subset(self, cops: tuple[int, ...]) -> int:
        placed = self._check(cops)
        d = self.descriptor
        for i, x in enumerate(d.subsets):
            if placed.isdisjoint(x) and placed.isdisjoint(d.privates[i]):
                return i
        raise AssertionError("m > k guarantees a cop-free clique")

    def escape_transversal(self, cops: tuple[int, ...]) -> tuple[int, ...]:
        placed = self._check(cops)
        pick = []
        for mine in self.descriptor.privates:
            free = [p for p in mine if p not in placed]
            if not free:
                raise AssertionError("s > k guarantees a free private vertex")
            pick.append(free[0])
        return tuple(pick)


@dataclass(frozen=True)
class AdversaryGadget:
    explicit: bool
    graph: Graph | None
    apex_base: int
    transversals: tuple[tuple[int, ...], ...] | None
    certificate: EscapeCertificate


def build_guard_adversary(h: Graph, descriptor: HtsDescriptor, k: int) -> AdversaryGadget:
    if k < 1:
        raise ValueError("k must be positive")
    if descriptor.m <= k or descriptor.s <= k:
        raise ValueError("needs m > k and s > k")
    certificate = EscapeCertificate(descriptor, k)
    count = descriptor.s ** len(descriptor.subsets)
    if count > EXPLICIT_LIMIT:
        return AdversaryGadget(
            explicit=False, graph=None, apex_base=h.n, transversals=None,
            certificate=certificate,
        )
    transversals = tuple(product(*descriptor.privates))
    edges = list(h.edges())
    for idx, chosen in enumerate(transversals):
        apex = h.n + idx
        edges.extend((v, apex) for v in chosen)
    g = Graph(h.n + count, edges)
    return AdversaryGadget(
        explicit=True, graph=g, apex_base=h.n, transversals=transversals,
        certificate=certificate,
    )


def build_hole_gadget(h: Graph, hole: Hole) -> Graph:
    """Attach an apex through internally disjoint paths of the hole's radii.

    Each center v_i receives a fresh path of length d_i to the apex.  The
    pairwise feasibility of the hole keeps h isometric in the result: a
    detour through the apex between centers v_i and v_j costs d_i + d_j,
    at least their distance in h.
    """
    if not is_valid_hole(h, hole):
        raise ValueError("not a valid hole of this graph")
    edges = list(h.edges())
    apex = h.n
    nxt = h.n + 1
    for v, r in zip(hole.centers, hole.radii):
        prev = apex
        for _ in range(r - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, v))
    g = Graph(nxt, edges)
    if not is_isometric_subgraph(g, range(h.n)):
        raise AssertionError("gadget broke isometry")
    return g
