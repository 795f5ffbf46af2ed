"""Exact pursuit-game solver: layered backward induction over robber bitmasks.

Cops place first, the robber answers, and cops move first; on each cops'
turn at most ``active_cap`` cops may step (passing is always legal).
Capture is positional coincidence, including the robber stepping onto a cop.

Mask layout.  A cop position is a sorted multiset, numbered by its place i
in ``combinations_with_replacement`` order over the vertices the cops may
use.  Each multiset holds two Python ints with one bit per robber vertex:
C[i] marks the states (i, r, COPS) and R[i] the states (i, r, ROBBER) that
the attacker has won so far.  Ranks take the same shape, as bit planes:
bit r of planes[b][2 * i + side] (COPS = 0, ROBBER = 1) is bit b of the
rank of state (i, r, side), and the final C and R say which states are
ranked.  Each multiset's cop-move successors are computed once, as a row:
a list of multiset indices in increasing order, all drawn from one shared
pool of ints, so the kernel reads a row as it is and a row costs one
pointer per move.  One stream, ``_move_tables``, the only code that
applies the move cap, builds the tables one cop count at a time, each once
per call.  A cap of at least the most cops a call asks for restricts no
move, so ``_move_stream`` hands it to the stream as None, and no capped
row is built; ``cop_number`` pulls table c only after c cops pass the
budget.  A table is built by index arithmetic: a multiset is its
smallest cop plus the index of the other cops, and inserting a cop's new
vertex into that index is a table lookup, so no tuple is sorted or hashed
per move.  That arithmetic is the only place a number is computed;
elsewhere a multiset's number is its place in the enumeration, which
``StrategyTable`` keeps as a dict from multiset to number, and guard mode
finds its multisets by filtering the free game's.

Recurrence.  In the capture game, with N[v] the closed neighbourhood of v:

    C_0[i] = R_0[i] = the mask of the cops of i
    R_k[i] = R_{k-1}[i] | ~U{N[v] : v not in C_{k-1}[i]}
    C_k[j] = C_{k-1}[j] | U{R_{k-1}[i] : i in row j}

A robber state is lost once every step leads into C, and a cop state is won
once some move leads into R.  Stay-or-step moves are symmetric, so the
rows are also the predecessor rows, and a worklist recomputes only the
multisets whose inputs changed in the previous layer; a row whose cop
states are all won already is skipped unread.  A state's rank is the layer
in which it joins, which is its exact optimal distance to capture.  This
is the iterative scheme of Berarducci & Intrigila (1993) and Hahn &
MacGillivray (2006) with each robber position held as one bit.
``cop_number`` reads only the verdict and stops at the first layer in which
some C[j] is full; ``solve`` ORs each mask that grows in layer k into the
plane of every set bit of k, so a rank costs one OR per grown mask and set
bit, not one store per state.

Moves.  Row j lists the placements reachable from multiset j with at most
active_cap cops stepping.  A cop state (j, r) of rank k >= 1 moves to the
first i along row j whose robber state (i, r) has rank k-1: it joined layer
k through such an i, and no i ranks lower.  Rows are sorted, so this is the
least cop placement one rank closer to capture.  ``StrategyTable.cop_move``
reads it off the ranks on each lookup; nothing is stored.  The robber,
placing or moving, takes the first of its options (every vertex, or staying
and then each neighbour) whose cop-to-move state is unranked, which escapes
for good, else the first of the highest rank, which stalls capture longest;
a vertex holding a cop ranks 0, so it is taken only when every option holds
a cop.

Memory.  A solve keeps two masks per multiset, one plane entry per
multiset, side and bit of the deepest rank, and the move rows.  Measured
by tracemalloc over all 2 * n * multisets states: the 4x5 grid with three
cops, two moving, peaks at 22.8 bytes per state while the layers run and
its table keeps 20.8; the 5x5 grid likewise 18.8 and 18.0; a 60-vertex
triangulation with two cops 9.0 and 7.7.

Memo.  ``cop_number`` keeps the verdicts of the last graph it played on,
keyed by (c, cap), where a cap of at least c is the free game and reads
None; so ``cop_number(g, 3)`` followed by ``k_move_cop_number(g, 1, 3)``
plays the 1-cop game once.  The key is the graph object (``is``), not an
equal graph: equality would cost a hash of the adjacency per call, and a
caller that rebuilds an equal graph, as a benchmark round or another test
does, plays its games again rather than reading answers that a memo
outliving one graph would hand it.  The memo holds that one graph alive
and no other.  The budget check runs before the lookup, so a refusal
stays a refusal.  Only verdicts are kept, never tables, and none is
inferred from a verdict under another cap.

Guard mode answers whether c cops can permanently protect an isometric
subgraph h: a greatest fixed point over cops-on-h states (robber on h at the
cops' turn must be capturable immediately; otherwise some within-h reply
must stay safe), computed on the same kernel as the robber's attractor to
the unsafe states over the arena restricted to h (the robber attacks: one
step into the unsafe cop states suffices, and a cop state is lost when its
whole row is), then the cops' attractor for the free approach phase,
which is the capture recurrence seeded with the safe entry states.  The
approach phase pursues safe entry only: cops have no capture power off the
guarded subgraph, so a robber parked elsewhere is simply a threat source,
never a target.  Guarding may begin with the robber already on h only
when immediate capture is available.

State counts are estimated before enumeration; beyond the budget (the
``budget`` argument, 50 million states when it is None) the solver refuses
with ``BudgetExceeded`` rather than thrash.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations_with_replacement, count, islice
from math import comb
from operator import and_, or_

from .graphs import Graph, is_isometric_subgraph, mask_of

DEFAULT_STATE_BUDGET = 50_000_000
# The largest budget a caller may pass; a larger one is capped here.
MAX_STATES = 2**31 - 1

COPS, ROBBER = 0, 1


class BudgetExceeded(RuntimeError):
    """A solve estimated past its state budget."""

    def __init__(self, estimate: int, budget: int):
        super().__init__(estimate, budget)
        self.estimate, self.budget = estimate, budget

    def __str__(self) -> str:
        return f"estimated {self.estimate} states exceeds budget {self.budget}"


def state_budget() -> int:
    """The budget a solve gets when its caller passes none."""
    return DEFAULT_STATE_BUDGET


def estimate_states(n: int, cops: int) -> int:
    return comb(n + cops - 1, cops) * (n + 1) * 2


def _check_budget(estimate: int, budget: int | None) -> None:
    budget = min(DEFAULT_STATE_BUDGET if budget is None else budget, MAX_STATES)
    if estimate > budget:
        raise BudgetExceeded(estimate, budget)


@dataclass(frozen=True)
class GameSpec:
    graph: Graph
    cops: int
    active_cap: int | None = None

    def __post_init__(self) -> None:
        if self.graph.n == 0:
            raise ValueError("empty graph")
        if self.cops < 1:
            raise ValueError("need at least one cop")
        if self.active_cap is not None and not 1 <= self.active_cap <= self.cops:
            raise ValueError("active_cap must be in 1..cops")


def _move_tables(adj: list, cap: int | None = None) -> Iterator[list[list[int]]]:
    """Cop-move successors of every k-multiset over the m = len(adj)
    vertices, one table per k = 1, 2, ...; the only code that reads the cap.

    adj[v] lists the vertices a cop on v may step to.  Row i of table k
    lists, in increasing order, the indices of the multisets reachable from
    multiset i when at most q = min(k, cap) cops step (k when cap is None),
    drawn from one shared pool of ints.  A k-multiset is its smallest vertex
    a plus a (k-1)-multiset j of vertices >= a, with index off[a] + j, and
    ins[v][j] is the index of (k-1)-multiset j with v added.  Its cop a
    stays or steps while the others move as in row j of the (k-1)-table for
    q, or q - 1 if a stepped; so a finite cap also needs the tables for
    1 <= q < min(k, cap), which are built after the yield.
    """
    m = len(adj)
    pool: list[int] = []
    first: list[int] = []
    rest: list[int] = []
    ins: list[list[int]] = []
    rows: dict[int, list[list[int]]] = {0: [[0]]}  # by the number of cops allowed to step
    for k in count(1):
        size, below_size = comb(m + k - 1, k), comb(m + k - 2, k - 1)
        pool += range(len(pool), size)
        # the (k-1)-multisets over [a, m) are the last ones in order
        tails = [comb(m - a + k - 2, k - 1) for a in range(m)]
        off = [size - comb(m - a + k - 1, k) - below_size + t for a, t in enumerate(tails)]
        if k == 1:
            ins = [[v] for v in pool[:m]]
        else:
            ins = [
                [pool[off[v] + j if v <= b else off[b] + ins[v][jr]] for j, (b, jr) in enumerate(zip(first, rest))]
                for v in range(m)
            ]
        get = [row.__getitem__ for row in ins]
        step_get = [[get[u] for u in adj[a]] for a in range(m)]
        first = [a for a, t in enumerate(tails) for _ in range(t)]
        rest = [j for t in tails for j in range(below_size - t, below_size)]
        below, rows = rows, {}
        top = k if cap is None else min(k, cap)
        for q in (top,) if cap is None else (top, *range(1, top)):
            stay = below[min(q, k - 1)]
            if q == 1:  # the other cops stand still when a steps
                rows[q] = [sorted({*map(get[a], stay[j]), *[g(j) for g in step_get[a]]}) for a, j in zip(first, rest)]
            else:
                step = below[q - 1]
                rows[q] = [
                    sorted({*map(get[a], stay[j]), *chain.from_iterable([map(g, step[j]) for g in step_get[a]])})
                    for a, j in zip(first, rest)
                ]
            if q == top:
                yield rows[q]


def _move_stream(adj: list, cap: int | None, most: int) -> Iterator[list[list[int]]]:
    """``_move_tables(adj, cap)`` for a caller that pulls at most `most`
    tables.  A cap of at least `most` lets every cop step in each of them,
    so it is passed as None, and no capped row set is built."""
    return _move_tables(adj, None if cap is None or cap >= most else cap)


def _move_table(adj: list, c: int, cap: int | None = None) -> list[list[int]]:
    """Table c of ``_move_stream(adj, cap, c)``."""
    return next(islice(_move_stream(adj, cap, c), c - 1, None))


def _neighbors(g: Graph) -> list[tuple[int, ...]]:
    return [g.neighbors(v) for v in range(g.n)]


def _unions(g: Graph):
    """A callable mapping a vertex mask X to the union of N[v] over v in X.

    One table of 256 unions per 8 vertices, so a union costs n / 8 lookups.
    """
    tables = []
    for lo in range(0, g.n, 8):
        table = [0]
        for v in range(lo, min(lo + 8, g.n)):
            nv = g.adj_mask(v) | 1 << v
            table += [m | nv for m in table]
        tables.append(table)

    def union(mask: int) -> int:
        out = 0
        for table in tables:
            out |= table[mask & 255]
            mask >>= 8
        return out

    return union


def _cop_masks(n: int, c: int) -> list[int]:
    """The vertex mask of every c-multiset, in multiset order."""
    return [mask_of(cops) for cops in combinations_with_replacement(range(n), c)]


def _layers(
    moves: list[list[int]],
    union,
    full: int,
    cop_win: list[int],
    rob_win: list[int],
    cops_attack: bool,
    settled: int = 0,
    cop_masks: list[int] | None = None,
) -> Iterator[tuple[dict[int, int], dict[int, int]]]:
    """Grow the attacker's win masks in place, one layer per step.

    cop_win[i] and rob_win[i] are the robber vertices r whose state (i, r,
    COPS) and (i, r, ROBBER) the attacker has won; they hold the seeds on
    entry.  Layer k reads layer k-1 only: a cop state joins when one move
    (attacking) or every move (defending) along its row of moves leads into
    rob_win, and a robber state when one step (attacking) or every step
    (defending) leads into cop_win.  Cop states whose robber is in settled,
    and robber states standing on a cop of cop_masks (robber attacking),
    never join.  Only the multisets whose inputs changed are recomputed:
    a row's cop states when a multiset in the row gained robber states,
    since moves are symmetric, and a multiset's robber states when its cop
    states grew.  Yields the new bits of each layer as two dicts from
    multiset to mask, cop side first, after applying them.
    """
    op = or_ if cops_attack else and_
    keep = full & ~settled
    new_c = {i: m for i, m in enumerate(cop_win) if m}
    new_r = {i: m for i, m in enumerate(rob_win) if m}
    while new_c or new_r:
        rows = set()
        for i in new_r:
            rows.update(moves[i])
        grown_c = {}
        for j in rows:
            if not keep & ~cop_win[j]:
                continue  # settled: every state the row could add is won
            m = reduce(op, map(rob_win.__getitem__, moves[j])) & keep & ~cop_win[j]
            if m:
                grown_c[j] = m
        grown_r = {}
        for i in new_c:
            m = full & ~union(full & ~cop_win[i]) if cops_attack else union(cop_win[i]) & ~cop_masks[i]
            m &= ~rob_win[i]
            if m:
                grown_r[i] = m
        for j, m in grown_c.items():
            cop_win[j] |= m
        for i, m in grown_r.items():
            rob_win[i] |= m
        new_c, new_r = grown_c, grown_r
        yield new_c, new_r


def _some_row_full(cop_win: list[int], layers, full: int) -> bool:
    """Run layers until some multiset wins every robber vertex; report whether one does."""
    return full in cop_win or any(cop_win[j] == full for new_c, _ in layers for j in new_c)


class _RankMap(Mapping):
    """Read-only view of a table's ranks, keyed by (cops, robber, side); an
    unranked state is absent."""

    def __init__(self, table: StrategyTable):
        self._table = table
        self._len = sum(m.bit_count() for m in table._won)

    def __getitem__(self, key):
        k = self._table._rank_of(key)
        if k is None:
            raise KeyError(key)
        return k

    def __iter__(self):
        table = self._table
        won, multisets = table._won, table._multisets
        for i, cops in enumerate(multisets):
            won_c, won_r = won[2 * i], won[2 * i + 1]
            for robber in range(table.n):
                if won_c >> robber & 1:
                    yield cops, robber, COPS
                if won_r >> robber & 1:
                    yield cops, robber, ROBBER

    def __len__(self) -> int:
        return self._len


class StrategyTable:
    """Exact winning strategy: ranks, cop moves, and the robber's best replies.

    ``rank`` is a read-only mapping keyed by (sorted cops, robber, side),
    iterated in state order, ``2 * (i * n + r) + side``.  Ranks are held as
    bit planes: ``won[2 * i + side]`` marks the robber vertices r whose
    state is ranked, and bit r of ``planes[b][2 * i + side]`` is bit b of
    that state's rank.
    """

    def __init__(
        self,
        graph: Graph,
        cops: int,
        multisets: list[tuple[int, ...]],
        won: list[int],
        planes: list[list[int]],
        initial: tuple[int, ...] | None,
        moves: list[list[int]],
    ):
        self.graph = graph
        self.n = graph.n
        self.cops = cops
        self.initial = initial
        self._multisets = multisets
        self._index = {cops: i for i, cops in enumerate(multisets)}
        self._won = won
        self._planes = planes
        self._moves = moves
        self.rank: Mapping = _RankMap(self)

    def _rank_at(self, s: int, robber: int) -> int:
        """Rank of the state with this robber in slot s = 2 * i + side, read
        across the planes; an unranked state reads 0."""
        k = 0
        for b, plane in enumerate(self._planes):
            k |= (plane[s] >> robber & 1) << b
        return k

    def _rank_of(self, key) -> int | None:
        """Rank of a (sorted cops, robber, side) key; None when the state is
        unranked or the key names none, such as unsorted cops."""
        try:
            cops, robber, side = key
            i = self._index.get(cops)
            if i is None or not (0 <= robber < self.n and side in (COPS, ROBBER)):
                return None
        except (TypeError, ValueError):
            return None
        s = 2 * i + side
        return self._rank_at(s, robber) if self._won[s] >> robber & 1 else None

    def state_rank(self, cops: tuple[int, ...], robber: int, side: int) -> int | None:
        return self._rank_of((tuple(sorted(cops)), robber, side))

    def cop_move(self, cops: tuple[int, ...], robber: int) -> tuple[int, ...]:
        """Where the cops of a won state move: they stay at rank 0, and
        otherwise follow the rule under Moves in the module docstring."""
        cops = tuple(sorted(cops))
        k = self._rank_of((cops, robber, COPS))
        if k is None:
            raise ValueError("no winning move from this state")
        if k == 0:
            return cops
        won, row = self._won, self._moves[self._index[cops]]
        nxt = next(j for j in row if won[2 * j + 1] >> robber & 1 and self._rank_at(2 * j + 1, robber) == k - 1)
        return self._multisets[nxt]

    def robber_place(self, cops: tuple[int, ...]) -> int:
        """Where the optimal robber starts against these cops: the rule under
        Moves in the module docstring, over every vertex."""
        return self._best_option(cops, range(self.n))

    def robber_reply(self, cops: tuple[int, ...], robber: int) -> int:
        """Where the optimal robber moves: the same rule, over staying and
        each neighbour."""
        return self._best_option(cops, (robber,) + self.graph.neighbors(robber))

    def _best_option(self, cops: tuple[int, ...], options) -> int:
        i = self._index.get(tuple(sorted(cops)))
        won = 0 if i is None else self._won[2 * i]
        best, best_rank = None, -1
        for r in options:
            if not won >> r & 1:
                return r
            k = self._rank_at(2 * i, r)
            if k > best_rank:
                best, best_rank = r, k
        return best


def solve(spec: GameSpec, budget: int | None = None) -> tuple[bool, StrategyTable]:
    g, c = spec.graph, spec.cops
    n, full = g.n, (1 << g.n) - 1
    _check_budget(estimate_states(n, c), budget)
    moves = _move_table(_neighbors(g), c, spec.active_cap)
    cop_win = _cop_masks(n, c)
    rob_win = cop_win[:]
    layers = _layers(moves, _unions(g), full, cop_win, rob_win, True)
    multisets = list(combinations_with_replacement(range(n), c))
    planes: list[list[int]] = []
    done = [j for j, m in enumerate(cop_win) if m == full]
    for k, (grown_c, grown_r) in enumerate(layers, 1):
        if k.bit_length() > len(planes):
            planes.append([0] * (2 * len(multisets)))
        for plane in (p for b, p in enumerate(planes) if k >> b & 1):
            for i, m in grown_c.items():
                plane[2 * i] |= m
            for i, m in grown_r.items():
                plane[2 * i + 1] |= m
        if not done:
            done = [j for j in grown_c if cop_win[j] == full]
    # The first multiset to win every robber vertex wins soonest against the best one.
    initial = multisets[min(done)] if done else None
    won = [m for pair in zip(cop_win, rob_win) for m in pair]
    table = StrategyTable(g, c, multisets, won, planes, initial, moves)
    return initial is not None, table


# The last graph cop_number played on, held by a strong reference, and its
# verdicts keyed by (cops, cap).
_memo: tuple[Graph | None, dict[tuple[int, int | None], bool]] = (None, {})


def cop_number(
    g: Graph, max_cops: int, active_cap: int | None = None, budget: int | None = None
) -> int | None:
    """Least c <= max_cops winning the game, or None when all of them lose.

    Verdicts are kept for the last graph only (see Memo in the module
    docstring), so a call on that graph plays only the games it has not.
    """
    global _memo
    if g.n == 0:
        raise ValueError("empty graph")
    if max_cops < 1:
        raise ValueError("need at least one cop")
    if active_cap is not None and active_cap < 1:
        raise ValueError("active_cap must be in 1..cops")
    if _memo[0] is not g:
        _memo = (g, {})
    verdicts, tables = _memo[1], None
    for c in range(1, max_cops + 1):
        _check_budget(estimate_states(g.n, c), budget)
        key = (c, None if active_cap is None or active_cap >= c else active_cap)
        if tables is None and key in verdicts:
            won = verdicts[key]
        else:
            if tables is None:  # the kept verdicts cover 1..c-1 cops
                union, full = _unions(g), (1 << g.n) - 1
                tables = islice(_move_stream(_neighbors(g), active_cap, max_cops), c - 1, None)
            cop_win = _cop_masks(g.n, c)
            layers = _layers(next(tables), union, full, cop_win, cop_win[:], True)
            won = verdicts[key] = _some_row_full(cop_win, layers, full)
        if won:
            return c
    return None


def k_move_cop_number(
    g: Graph, active: int, max_cops: int, budget: int | None = None
) -> int | None:
    return cop_number(g, max_cops, active_cap=active, budget=budget)


def is_guardable(g: Graph, h: tuple[int, ...], cops: int, budget: int | None = None) -> bool:
    """Can `cops` cops permanently guard the isometric subgraph on h?"""
    if cops < 1:
        raise ValueError("need at least one cop")
    hv = tuple(sorted(set(h)))
    if not hv:
        raise ValueError("guard target must be nonempty")
    if not is_isometric_subgraph(g, hv):
        raise ValueError("guard target must induce an isometric subgraph")
    n = g.n
    _check_budget(estimate_states(n, cops) + comb(len(hv) + cops - 1, cops) * (n + 1) * 2, budget)
    local = {v: k for k, v in enumerate(hv)}
    guard_moves = _move_table([[local[u] for u in g.neighbors(v) if u in local] for v in hv], cops)
    union = _unions(g)
    full, on_h = (1 << n) - 1, mask_of(hv)
    # The free game's multisets inside h, in multiset order: since hv is
    # sorted, that is the order of the guard game's multisets over hv.
    cop_masks = _cop_masks(n, cops)
    inside = [i for i, m in enumerate(cop_masks) if not m & ~on_h]

    # Greatest fixed point, as the robber's attractor to the unsafe states:
    # the robber on h at the cops' turn and out of the cops' reach.  A cop
    # turn with the robber on h is settled by that seed, and a robber
    # standing on a cop is caught.
    guard_masks = [cop_masks[i] for i in inside]
    bad_c = [on_h & ~union(m) for m in guard_masks]
    bad_r = [0] * len(inside)
    for _ in _layers(guard_moves, union, full, bad_c, bad_r, False, on_h, guard_masks):
        pass

    # Approach phase: attract the free game into safe guarding entry states.
    # Cops have no capture power off h, so only these entries are seeds.
    win_c = [0] * len(cop_masks)
    for i, bad in zip(inside, bad_c):
        win_c[i] = full & ~bad
    free_moves = _move_table(_neighbors(g), cops)
    layers = _layers(free_moves, union, full, win_c, [0] * len(win_c), True)
    return _some_row_full(win_c, layers, full)
