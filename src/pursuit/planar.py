"""Combinatorial planar embeddings, the two-path region calculus, and the
vertex classification and bypath selection the capture strategy leans on.

An embedding is a rotation system: every present vertex carries a cyclic
order of its present neighbors.  Faces are traced in one loop over one
dart map, the Euler count is validated at construction, and all topology
below (regions, fan quadrants, strips) comes from one split: a single
flood of the faces, from seed faces and never across a two-path cycle,
puts each off-cycle vertex on one side of that cycle; no coordinates
exist anywhere.  Embeddings can be masked to a connected sub-host while
keeping the original vertex labels, which is how the strategy engine
scopes its shrinking worlds.

``embed`` finds a connected graph's rotation system with the module's own
left-right planarity test, an int-indexed port of networkx's that returns
the same rotations, and ``PlanarEmbedding`` re-checks the result's Euler
count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, Path, bits, mask_of
from .shadows import PathShadows, find_bypath, is_bypath_free


class PlanarityFault(AssertionError):
    """A conclusion the theory guarantees failed an internal re-check."""


class PlanarEmbedding:
    """Rotation system over (a masked sub-host of) a graph."""

    def __init__(self, graph: Graph, rotation, mask: int | None = None):
        self.graph = graph
        self.mask = graph.vertex_mask() if mask is None else mask
        rot = {}
        for v in bits(self.mask):
            row = tuple(rotation[v])
            allowed = set(graph.neighbors(v))
            if len(set(row)) != len(row) or any(
                u not in allowed or not self.mask >> u & 1 for u in row
            ):
                raise ValueError(f"rotation at {v} is not its neighbor set")
            expected = sum(1 for u in graph.neighbors(v) if self.mask >> u & 1)
            if len(row) != expected:
                raise ValueError(f"rotation at {v} misses neighbors")
            rot[v] = row
        self.rotation = rot
        # the dart after (u, v) is (v, w), w following u in v's rotation;
        # each face is traced from its first unseen dart
        after = {
            (u, v): (v, row[(i + 1) % len(row)]) for v, row in rot.items() for i, u in enumerate(row)
        }
        faces: list[tuple[tuple[int, int], ...]] = []
        self._face_of: dict[tuple[int, int], int] = {}
        for dart in ((u, w) for u, row in rot.items() for w in row):
            face = []
            while dart not in self._face_of:
                self._face_of[dart] = len(faces)
                face.append(dart)
                dart = after[dart]
            if face:
                faces.append(tuple(face))
        self._faces = tuple(faces)
        self._check_euler()

    # -- faces -------------------------------------------------------------

    def faces(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return self._faces

    def face_of(self, u: int, v: int) -> int:
        return self._face_of[(u, v)]

    def face_count(self) -> int:
        faces = self.faces()
        return len(faces) if faces else 1  # a single vertex still bounds one face

    def _check_euler(self) -> None:
        n = bin(self.mask).count("1")
        m = sum(len(row) for row in self.rotation.values()) // 2
        if n - m + self.face_count() != 2:
            raise ValueError("rotation system is not a sphere embedding")

    def outer_face(self) -> int:
        """Deterministic designated face: longest boundary, lowest darts."""
        faces = self.faces()
        if not faces:
            return 0
        return min(range(len(faces)), key=lambda i: (-len(faces[i]), sorted(faces[i])))

    def vertex_list(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    # -- restriction -------------------------------------------------------

    def restrict(self, vertices) -> "PlanarEmbedding":
        """Embedding of the induced sub-host, original labels kept."""
        keep = mask_of(vertices) & self.mask
        rot = {
            v: tuple(u for u in self.rotation[v] if keep >> u & 1)
            for v in bits(keep)
        }
        return PlanarEmbedding(self.graph, rot, keep)


def embed(g: Graph) -> PlanarEmbedding | None:
    """Rotation system for a connected graph with at least one vertex, or
    None if it is not planar.  Any other graph raises ValueError: a sphere
    embedding (the Euler count the result must pass) needs one component."""
    if g.n == 0 or not g.is_connected():
        raise ValueError("embed needs a connected graph with at least one vertex")
    rotation = _lr_rotation(g)
    return None if rotation is None else PlanarEmbedding(g, rotation)


def _lr_rotation(g: Graph) -> list[tuple[int, ...]] | None:
    """Every vertex's clockwise rotation from the left-right planarity test,
    or None when g is not planar.

    A port of the non-recursive ``LRPlanarity`` of networkx 3.x
    (BSD-3-Clause), which follows U. Brandes, "The Left-Right Planarity
    Test" (2009): an orientation DFS computing lowpoints and nesting depths,
    a testing DFS over a stack of conflict pairs, sign resolution, and an
    embedding DFS.  The state is held in ints: edge (v, w) is ``v * n + w``,
    -1 stands for networkx's None (so ``ref[-1] = ...`` is its harmless
    ``ref[None] = ...``), and a conflict pair is the list
    ``[left.low, left.high, right.low, right.high]``, compared with ``is``
    as networkx compares its pair objects.  The embedding DFS keeps each
    rotation as a list in clockwise order and inserts every edge into it
    where networkx links its half-edge: a tree edge in front, a right back
    edge after ``right_ref``, a left one before ``left_ref``.  Each list
    starts at the neighbor networkx keeps as leftmost, so the rows are exactly
    ``nx.check_planarity(G)[1].get_data()`` for the graph on 0..n-1 built
    from ``g.edges()``.
    """
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    if n > 2 and sum(map(len, adj)) // 2 > 3 * n - 6:
        return None

    # -- orientation: DFS forest, lowpoints, nesting depths --------------
    height = [-1] * n
    parent = [-1] * n  # tree edge into each vertex, -1 at a root
    out: list[list[int]] = [[] for _ in range(n)]  # oriented edges, adjacency order
    lowpt: dict[int, int] = {}
    lowpt2: dict[int, int] = {}
    nesting: dict[int, int] = {}
    roots = []

    def settle(v: int, vw: int) -> None:
        # nesting depth of the finished edge vw, folded into v's parent edge
        low = lowpt[vw]
        nesting[vw] = 2 * low + (lowpt2[vw] < height[v])
        e = parent[v]
        if e >= 0:
            if low < lowpt[e]:
                lowpt2[e] = min(lowpt[e], lowpt2[vw])
                lowpt[e] = low
            elif low > lowpt[e]:
                lowpt2[e] = min(lowpt2[e], low)
            else:
                lowpt2[e] = min(lowpt2[e], lowpt2[vw])

    ind = [0] * n
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack[-1]
            nbrs, i = adj[v], ind[v]
            while i < len(nbrs):
                w = nbrs[i]
                if height[w] > height[v] or parent[v] == w * n + v:
                    i += 1
                    continue  # already oriented: w is a finished descendant or v's parent
                vw = v * n + w
                out[v].append(w)
                lowpt[vw] = lowpt2[vw] = height[v]
                if height[w] < 0:  # tree edge: descend, settle it on return
                    parent[w] = vw
                    height[w] = height[v] + 1
                    break
                lowpt[vw] = height[w]
                settle(v, vw)
                i += 1
            ind[v] = i
            if i < len(nbrs):
                stack.append(nbrs[i])
                continue
            stack.pop()
            e = parent[v]
            if e >= 0:
                settle(e // n, e)
                ind[e // n] += 1

    # -- testing: conflict pairs -----------------------------------------
    def by_depth(v: int) -> list[int]:
        return sorted(out[v], key=lambda w: nesting[v * n + w])

    ordered = [by_depth(v) for v in range(n)]
    ref = dict.fromkeys(lowpt, -1)
    side = dict.fromkeys(lowpt, 1)
    bottom: dict[int, list[int] | None] = {}
    lowpt_edge: dict[int, int] = {}
    S: list[list[int]] = []

    def conflicting(low: int, high: int, b: int) -> bool:
        return (low != -1 or high != -1) and lowpt[high] > lowpt[b]

    def add_constraints(ei: int, e: int) -> bool:
        P = [-1, -1, -1, -1]
        while True:  # merge the return edges of ei into P's right
            Q = S.pop()
            if Q[0] != -1 or Q[1] != -1:
                Q[:] = Q[2], Q[3], Q[0], Q[1]
                if Q[0] != -1 or Q[1] != -1:
                    return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] == -1 and P[3] == -1:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:  # align
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom[ei]:
                break
        # merge the conflicting return edges of earlier siblings into P's left
        while conflicting(S[-1][0], S[-1][1], ei) or conflicting(S[-1][2], S[-1][3], ei):
            Q = S.pop()
            if conflicting(Q[2], Q[3], ei):
                Q[:] = Q[2], Q[3], Q[0], Q[1]
                if conflicting(Q[2], Q[3], ei):
                    return False
            ref[P[2]] = Q[3]
            if Q[2] != -1:
                P[2] = Q[2]
            if P[0] == -1 and P[1] == -1:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P != [-1, -1, -1, -1]:
            S.append(P)
        return True

    def lowest(P: list[int]) -> int:
        if P[0] == -1 and P[1] == -1:
            return lowpt[P[2]]
        if P[2] == -1 and P[3] == -1:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e: int) -> None:
        u = e // n
        while S and lowest(S[-1]) == height[u]:  # drop pairs ending at u
            P = S.pop()
            if P[0] != -1:
                side[P[0]] = -1
        if S:  # trim the next pair in place
            P = S[-1]
            while P[1] != -1 and P[1] % n == u:
                P[1] = ref[P[1]]
            if P[1] == -1 and P[0] != -1:
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = -1
            while P[3] != -1 and P[3] % n == u:
                P[3] = ref[P[3]]
            if P[3] == -1 and P[2] != -1:
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = -1
        if lowpt[e] < height[u]:  # e takes the side of a highest return edge
            hl, hr = S[-1][1], S[-1][3]
            ref[e] = hl if hl != -1 and (hr == -1 or lowpt[hl] > lowpt[hr]) else hr

    def integrate(v: int, i: int, ei: int) -> bool:
        if lowpt[ei] >= height[v]:
            return True
        e = parent[v]
        if i == 0:
            lowpt_edge[e] = lowpt_edge[ei]
            return True
        return add_constraints(ei, e)

    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            kids, i = ordered[v], ind[v]
            while i < len(kids):
                ei = v * n + kids[i]
                bottom[ei] = S[-1] if S else None
                if parent[kids[i]] == ei:
                    break  # tree edge: descend, integrate it on return
                lowpt_edge[ei] = ei
                S.append([-1, -1, ei, ei])
                if not integrate(v, i, ei):
                    return None
                i += 1
            ind[v] = i
            if i < len(kids):
                stack.append(kids[i])
                continue
            stack.pop()
            e = parent[v]
            if e >= 0:
                remove_back_edges(e)
                u = e // n
                if not integrate(u, ind[u], e):
                    return None
                ind[u] += 1

    # -- signs, then the embedding -----------------------------------------
    def sign(e: int) -> int:
        chain = []
        while ref[e] != -1:
            chain.append(e)
            nxt = ref[e]
            ref[e] = -1
            e = nxt
        s = side[e]
        for f in reversed(chain):
            s = side[f] = side[f] * s
        return s

    for v in range(n):
        for w in out[v]:
            nesting[v * n + w] *= sign(v * n + w)

    # Each vertex's rotation is a list in clockwise order from networkx's
    # leftmost neighbor; the DFS inserts every incoming edge into it.
    ordered = [by_depth(v) for v in range(n)]
    rot = [row[:] for row in ordered]
    left_ref = [-1] * n
    right_ref = [-1] * n
    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            kids = ordered[v]
            while ind[v] < len(kids):
                w = kids[ind[v]]
                ind[v] += 1
                ei = v * n + w
                if parent[w] == ei:  # tree edge: v becomes w's leftmost neighbor
                    rot[w].insert(0, v)
                    left_ref[v] = right_ref[v] = w
                    stack += (v, w)
                    break
                row = rot[w]
                if side[ei] == 1:  # clockwise after right_ref[w]
                    row.insert(row.index(right_ref[w]) + 1, v)
                else:  # counterclockwise before left_ref[w], leftmost if it was
                    row.insert(row.index(left_ref[w]), v)
                    left_ref[w] = v
    return [tuple(row) for row in rot]


# -- regions --------------------------------------------------------------------


def _cycle_edges(p: Path, q: Path) -> set[tuple[int, int]]:
    """Both darts of every edge of the cycle p ∪ q."""
    if (
        {p.vertices[0], p.vertices[-1]} != {q.vertices[0], q.vertices[-1]}
        or p.vertex_set() & q.vertex_set()
        != {p.vertices[0], p.vertices[-1]}
        or p.length + q.length < 3
    ):
        raise ValueError("paths must bound a cycle: same ends, disjoint interiors")
    return {
        dart
        for path in (p, q)
        for a, b in zip(path.vertices, path.vertices[1:])
        for dart in ((a, b), (b, a))
    }


def _split(e: PlanarEmbedding, p: Path, q: Path, seeds) -> tuple[frozenset[int], frozenset[int]]:
    """Off-cycle vertices on the seed faces' side of the cycle p ∪ q, and
    those on the far side: one flood over the faces that never crosses a
    cycle edge."""
    blocked = _cycle_edges(p, q)
    faces = e.faces()
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for u, v in faces[todo.pop()]:
            if (u, v) in blocked:
                continue
            f = e.face_of(v, u)
            if f not in seen:
                seen.add(f)
                todo.append(f)
    near: set[int] = set()
    far: set[int] = set()
    for f, face in enumerate(faces):
        (near if f in seen else far).update(u for u, _ in face)
    boundary = p.vertex_set() | q.vertex_set()
    return frozenset(near - boundary), frozenset(far - boundary)


def region(e: PlanarEmbedding, p: Path, q: Path, pivot: int) -> frozenset[int]:
    """Vertices strictly inside the disk bounded by p and q on pivot's side."""
    if not e.mask >> pivot & 1:
        raise ValueError("pivot is outside the embedded host")
    if pivot in p.vertex_set() | q.vertex_set():
        raise ValueError("pivot lies on the boundary cycle")
    if not e.rotation[pivot]:
        raise ValueError("pivot has no incident darts in the host")
    interior, _ = _split(e, p, q, {e.face_of(pivot, w) for w in e.rotation[pivot]})
    return interior


# -- vertex classification -------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    case: str  # "dominating" | "path" | "poles"
    path: Path | None = None
    p1: Path | None = None
    p2: Path | None = None
    u: int | None = None
    x1: int | None = None
    x2: int | None = None
    region_vertices: frozenset[int] | None = None


def classify_vertex(e: PlanarEmbedding, v: int, z: int) -> Classification:
    """One of: v dominates its host; an isometric bypath-free path through
    v exists; or two pole paths bound a quadrant of the common-neighbor fan
    containing z, each bypath-free once the other middle vertex is removed.
    """
    g = e.graph
    mask = e.mask
    if not (mask >> v & 1 and mask >> z & 1):
        raise ValueError("v and z must lie in the embedded host")
    others = [w for w in bits(mask) if w != v]
    if all(g.has_edge(v, w) for w in others):
        return Classification("dominating")
    dist = g.bfs_levels(v, mask)
    if any(dist[w] == g.n for w in others):
        raise ValueError("host must be connected")
    u = min(w for w in bits(mask) if dist[w] == 2)
    fan = [
        x
        for x in e.rotation[v]
        if g.has_edge(x, u) and mask >> x & 1
    ]
    if len(fan) == 1:
        path = Path((v, fan[0], u))
        if not is_bypath_free(g, path, mask):
            raise PlanarityFault("unique-neighbor path has a bypath")
        return Classification("path", path=path)

    k = len(fan)
    chosen = None
    start = fan.index(min(fan))
    for t in range(k):
        x1 = fan[(start + t) % k]
        x2 = fan[(start + t + 1) % k]
        p1 = Path((v, x1, u))
        p2 = Path((v, x2, u))
        rest = set(fan) - {x1, x2}
        if z not in (v, u, x1, x2):
            interior = region(e, p1, p2, z)  # floods from z's faces, so holds z
        elif rest:  # z on the boundary: take the side away from the other fan vertices
            x = min(rest)
            _, interior = _split(e, p1, p2, {e.face_of(x, w) for w in e.rotation[x]})
        else:  # k = 2: the smaller side, ties to the side at dart v -> x1
            sides = _split(e, p1, p2, {e.face_of(v, x1)})
            interior = min(sides, key=lambda s: (len(s), sorted(s)))
        if interior & rest:
            continue
        chosen = (x1, x2, p1, p2, interior)
        break
    if chosen is None:
        raise PlanarityFault("no fan quadrant admits z")
    x1, x2, p1, p2, interior = chosen
    rvs = frozenset(interior) | p1.vertex_set() | p2.vertex_set()
    for pa, xb in ((p1, x2), (p2, x1)):
        if not is_bypath_free(g, pa, mask_of(rvs - {xb})):
            raise PlanarityFault("pole path has a bypath inside its region")
    return Classification(
        "poles", p1=p1, p2=p2, u=u, x1=x1, x2=x2, region_vertices=rvs
    )


# -- bypath selection -------------------------------------------------------------


@dataclass(frozen=True)
class BypathChoice:
    free: bool
    bypath: Path | None = None
    composite: Path | None = None
    strip: frozenset[int] | None = None


def _composite(q: Path, b: Path) -> Path:
    i = q.index_of(b.vertices[0])
    j = q.index_of(b.vertices[-1])
    return Path(q.vertices[:i] + b.vertices + q.vertices[j + 1 :])


def _strip_interior(e: PlanarEmbedding, p: Path, q: Path, b: Path) -> frozenset[int]:
    """Interior of the pocket between q's spanned part and the detour b,
    identified as the side away from p (p's first edge is never on the
    pocket cycle, so its face seeds p's side)."""
    i = q.index_of(b.vertices[0])
    j = q.index_of(b.vertices[-1])
    return _split(e, q.segment(i, j), b, {e.face_of(p.vertices[0], p.vertices[1])})[1]


def select_bypath(e: PlanarEmbedding, p: Path, q: Path) -> BypathChoice:
    """Certify q bypath-free in its side host, or pick the region-minimal
    detour b of q and hand back the composite path with the pocket between
    them, every guarantee the caller relies on re-verified here."""
    g = e.graph
    mask = e.mask
    _cycle_edges(p, q)  # validates the two-path boundary shape
    try:
        free = PathShadows(g, p, mask).is_bypath_free()
    except ValueError:
        raise ValueError("p is not isometric in the context") from None
    if not free:
        raise ValueError("p has a bypath in the context")
    hq = mask & ~mask_of(p.vertices[1:-1])
    try:
        b = find_bypath(g, q, hq)
    except ValueError:
        raise ValueError("q is not isometric once p's interior is removed") from None
    if b is None:
        return BypathChoice(free=True)

    for _ in range(g.n * g.n + 2):
        qb = _composite(q, b)
        strip = _strip_interior(e, p, q, b)
        strip_q = mask_of(strip) | q.mask()
        strip_qb = mask_of(strip) | qb.mask()
        viol = find_bypath(g, q, strip_q)
        if viol is not None:
            b = viol
            continue
        try:
            viol = find_bypath(g, qb, strip_qb)
        except ValueError:
            raise PlanarityFault("composite not isometric in pocket") from None
        if viol is not None:
            alt = _composite(qb, viol)
            b = _fresh_divergence(q, alt, qb.vertex_set())
            continue
        side = (mask & ~mask_of(strip) & ~q.mask()) | qb.mask()
        no_p_int = side & ~mask_of(p.vertices[1:-1])
        if not qb.is_isometric_in(g, no_p_int):
            raise PlanarityFault("composite lost isometry")
        try:
            free = PathShadows(g, p, side | p.mask()).is_bypath_free()
        except ValueError:
            raise PlanarityFault("p lost isometry") from None
        if not free:
            raise PlanarityFault("p gained a bypath")
        return BypathChoice(False, b, qb, strip)
    raise PlanarityFault("bypath selection failed to reach a fixed point")


def _fresh_divergence(q: Path, alt: Path, stale: frozenset[int]) -> Path:
    """The run where alt leaves q that introduces a vertex outside stale.

    Splitting alt at its q-vertices gives exact-length detours of q; the run
    holding a genuinely new vertex is the one whose pocket strictly shrank,
    so iterating on it terminates.
    """
    qset = q.vertex_set()
    i = 0
    while i < len(alt.vertices):
        if alt.vertices[i] in qset:
            i += 1
            continue
        start, j = i - 1, i
        while alt.vertices[j] not in qset:
            j += 1
        run = Path(alt.vertices[start : j + 1])
        i = j
        if not (run.vertex_set() - qset) - stale:
            continue
        lo = q.index_of(run.vertices[0])
        hi = q.index_of(run.vertices[-1])
        if hi - lo != run.length:
            raise PlanarityFault("divergence run is not an exact detour")
        return run
    raise PlanarityFault("no divergence run carries a new vertex")
