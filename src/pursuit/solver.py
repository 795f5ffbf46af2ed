"""Exact pursuit-game solver: layered backward induction over robber bitmasks.

Cops place first, the robber answers, and cops move first; on each cops'
turn at most ``active_cap`` cops may step (passing is always legal).
Capture is positional coincidence, including the robber stepping onto a cop.

Mask layout.  A cop position is a sorted multiset, numbered by its place i
in ``combinations_with_replacement`` order over the vertices the cops may
use.  Each multiset holds two Python ints with one bit per robber vertex:
C[i] marks the states (i, r, COPS) and R[i] the states (i, r, ROBBER) that
the attacker has won so far.  Each multiset's cop-move successors are
computed once, as a row: a list of multiset indices in increasing order,
all drawn from one shared pool of ints, so the kernel reads a row as it is
and a row costs one pointer per move.  The table is built by index
arithmetic: a multiset is its smallest cop plus the index of the other
cops, and inserting a cop's new vertex into that index is a table lookup,
so no tuple is sorted or hashed per move.

Recurrence.  In the capture game, with N[v] the closed neighbourhood of v:

    C_0[i] = R_0[i] = the mask of the cops of i
    R_k[i] = R_{k-1}[i] | ~U{N[v] : v not in C_{k-1}[i]}
    C_k[j] = C_{k-1}[j] | U{R_{k-1}[i] : i in row j}

A robber state is lost once every step leads into C, and a cop state is won
once some move leads into R.  Stay-or-step moves are symmetric, so the
rows are also the predecessor rows, and a worklist recomputes only the
multisets whose inputs changed in the previous layer.  A state's rank is
the layer in which it joins, which is its exact optimal distance to
capture.  This is the iterative scheme of Berarducci & Intrigila (1993) and
Hahn & MacGillivray (2006) with each robber position held as one bit.
``cop_number`` reads only the verdict and stops at the first layer in which
some C[j] is full; ``solve`` writes each new bit's layer into the ``rank``
array, ``2 * (i * n + r) + side`` (COPS = 0, ROBBER = 1), -1 while unranked.

Moves.  A cop state (j, r) of rank k >= 1 moves to the first i along row j
whose robber state (i, r) has rank k-1: it joined layer k through such an
i, and no i ranks lower.  Rows are sorted, so this is the least cop
placement one rank closer to capture.  ``StrategyTable.move`` and
``cop_move`` read it off the ranks on each lookup; nothing is stored.

Memory.  A solve keeps the 4-byte rank of every state, two masks per
multiset and the move rows (about 9 bytes per state); its tracemalloc peak
is about 29 bytes per state on the 4x5 grid with three cops, two moving,
while the layers run.

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
never a target.  Under the strict entry semantics (default) guarding may
begin with the robber already on h only when immediate capture is
available; the lenient toggle instead tolerates the on-h robber for the
entry instant, demanding a within-h continuation that punishes every later
violation, the robber staying put included.

State counts are estimated before enumeration; beyond the budget (the
``budget`` argument, 50 million states when it is None) the solver refuses
with ``BudgetExceeded`` rather than thrash.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations_with_replacement
from math import comb
from operator import and_, or_

from .graphs import Graph, is_isometric_subgraph, mask_of

DEFAULT_STATE_BUDGET = 50_000_000
# States are array('i') indices.
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


def _multiset_index(cops: tuple[int, ...], m: int) -> int:
    """Place of a sorted multiset in combinations_with_replacement(range(m), len(cops))."""
    idx, lo = 0, 0
    for k, v in enumerate(cops):
        rest = len(cops) - k - 1
        # multisets agreeing before k whose k-th entry lies in [lo, v)
        idx += comb(m - lo + rest, rest + 1) - comb(m - v + rest, rest + 1)
        lo = v
    return idx


def _move_table(adj: list, c: int, cap: int) -> list[list[int]]:
    """Cop-move successors of every c-multiset over the m = len(adj) vertices.

    adj[v] lists the vertices a cop on v may step to.  Row i is a list of
    the indices, in increasing order, of the multisets reachable from
    multiset i when at most cap cops step; every index is drawn from one
    shared pool of ints, so a row holds pointers only.  Built one size k at
    a time: a k-multiset is its smallest vertex a plus a (k-1)-multiset j
    of vertices >= a, with index off[a] + j, and ins[v][j] is the index of
    (k-1)-multiset j with v added.  Its cop a stays or steps to a neighbour
    while the others move as in row j of the (k-1)-multisets, with one step
    fewer if a stepped.
    """
    m = len(adj)
    size = [comb(m + k - 1, k) for k in range(c + 1)]
    pool = list(range(max(size)))
    first: list[int] = []
    rest: list[int] = []
    ins: list[list[int]] = []
    rows: dict[int, list[list[int]]] = {0: [[0]]}  # by the number of cops allowed to step
    for k in range(1, c + 1):
        # the (k-1)-multisets over [a, m) are the last ones in order
        tails = [comb(m - a + k - 2, k - 1) for a in range(m)]
        off = [size[k] - comb(m - a + k - 1, k) - size[k - 1] + t for a, t in enumerate(tails)]
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
        rest = [j for t in tails for j in range(size[k - 1] - t, size[k - 1])]
        below, rows = rows, {}
        for q in range(min(k, cap) + 1) if k < c else (min(c, cap),):
            if q == 0:
                rows[q] = [[i] for i in pool[: size[k]]]
                continue
            stay, step = below[min(q, k - 1)], below[q - 1]
            if q == 1:  # the other cops stand still when a steps: row j of step is [j]
                rows[q] = [sorted({*map(get[a], stay[j]), *[g(j) for g in step_get[a]]}) for a, j in zip(first, rest)]
            else:
                rows[q] = [
                    sorted({*map(get[a], stay[j]), *chain.from_iterable([map(g, step[j]) for g in step_get[a]])})
                    for a, j in zip(first, rest)
                ]
    return rows[min(c, cap)]


def _closed(g: Graph) -> list[tuple[int, ...]]:
    return [(v,) + g.neighbors(v) for v in range(g.n)]


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


def _capture(spec: GameSpec, adj: list[tuple[int, ...]], union, budget: int | None):
    """The capture game's move table, seeded win masks and layers.

    adj and union are the graph's neighbour lists and ``_unions``, which a
    caller solving several games on one graph builds once.
    """
    g, c = spec.graph, spec.cops
    _check_budget(estimate_states(g.n, c), budget)
    moves = _move_table(adj, c, spec.active_cap or c)
    cop_win = _cop_masks(g.n, c)
    rob_win = cop_win[:]
    return moves, cop_win, rob_win, _layers(moves, union, (1 << g.n) - 1, cop_win, rob_win, True)


class _StateMap(Mapping):
    """Read-only view of a table's per-state values, keyed by (cops, robber, side)."""

    def __init__(self, table: StrategyTable, value, size: int | None = None):
        self._table = table
        self._value = value  # state -> value, or None where the key is absent
        self._len = size

    def __getitem__(self, key):
        s = self._table._state(key)
        value = None if s is None else self._value(s)
        if value is None:
            raise KeyError(key)
        return value

    def __iter__(self):
        table = self._table
        for s in range(len(table._rank)):
            if self._value(s) is not None:
                yield table._key(s)

    def __len__(self) -> int:
        if self._len is None:
            self._len = sum(1 for _ in self)
        return self._len


class StrategyTable:
    """Exact winning strategy: ranks, cop moves, and the robber's best replies.

    ``rank`` and ``move`` are read-only mappings keyed by (sorted cops,
    robber, side), iterated in state order, ``2 * (i * n + r) + side``.
    """

    def __init__(
        self,
        n: int,
        cops: int,
        multisets: list[tuple[int, ...]],
        rank: array,
        ranked: int,
        initial: tuple[int, ...] | None,
        closed: list[tuple[int, ...]],
        moves: list[list[int]],
    ):
        self.n = n
        self.cops = cops
        self.initial = initial
        self._multisets = multisets
        self._rank = rank
        self._closed = closed
        self._moves = moves
        self.rank: Mapping = _StateMap(self, lambda s: rank[s] if rank[s] >= 0 else None, ranked)
        self.move: Mapping = _StateMap(self, lambda s: None if (m := self._move(s)) is None else multisets[m])

    def _move(self, s: int) -> int | None:
        """The multiset a cop state s of rank k >= 1 moves to, else None.

        The first i in its row whose robber state (i, r) ranks k - 1: s joined
        layer k through such an i, and no i ranks lower.
        """
        rank = self._rank
        k = rank[s]
        if s & 1 or k < 1:
            return None
        i, r = divmod(s >> 1, self.n)
        n2, r2 = 2 * self.n, 2 * r + 1
        return next(j for j in self._moves[i] if rank[j * n2 + r2] == k - 1)

    def _state(self, key) -> int | None:
        """State number of a canonical (sorted cops, robber, side) key, else None."""
        n = self.n
        try:
            cops, robber, side = key
            ok = (
                len(cops) == self.cops
                and cops == tuple(sorted(cops))
                and all(0 <= v < n for v in cops)
                and 0 <= robber < n
                and side in (COPS, ROBBER)
            )
        except (TypeError, ValueError):
            return None
        return 2 * (_multiset_index(cops, n) * n + robber) + side if ok else None

    def _key(self, s: int) -> tuple[tuple[int, ...], int, int]:
        i, r = divmod(s >> 1, self.n)
        return self._multisets[i], r, s & 1

    def state_rank(self, cops: tuple[int, ...], robber: int, side: int) -> int | None:
        s = self._state((tuple(sorted(cops)), robber, side))
        if s is None or self._rank[s] < 0:
            return None
        return self._rank[s]

    def cop_move(self, cops: tuple[int, ...], robber: int) -> tuple[int, ...]:
        cops = tuple(sorted(cops))
        s = self._state((cops, robber, COPS))
        if s is None or self._rank[s] < 0:
            raise ValueError("no winning move from this state")
        return cops if self._rank[s] == 0 else self._multisets[self._move(s)]

    def robber_reply(self, cops: tuple[int, ...], robber: int) -> int:
        """Optimal adversary: escape the attractor if possible, else stall."""
        cops = tuple(sorted(cops))
        best, best_rank = robber, -1
        for r in self._closed[robber]:
            if r in cops:
                continue
            nxt = self.state_rank(cops, r, COPS)
            if nxt is None:
                return r
            if nxt > best_rank:
                best, best_rank = r, nxt
        return best


def solve(spec: GameSpec, budget: int | None = None) -> tuple[bool, StrategyTable]:
    g, c = spec.graph, spec.cops
    n = g.n
    moves, cop_win, rob_win, layers = _capture(spec, _neighbors(g), _unions(g), budget)
    multisets = list(combinations_with_replacement(range(n), c))
    full = (1 << n) - 1
    rank = array("i", [-1]) * (2 * n * len(multisets))
    done: list[int] = []
    for k, wins in enumerate(chain([(dict(enumerate(cop_win)), dict(enumerate(rob_win)))], layers)):
        for side, grown in enumerate(wins):
            for i, m in grown.items():
                base = 2 * i * n + side
                while m:
                    low = m & -m
                    rank[base + 2 * low.bit_length() - 2] = k
                    m ^= low
        if not done:
            done = [j for j in wins[COPS] if cop_win[j] == full]
    # The first multiset to win every robber vertex wins soonest against the best one.
    initial = multisets[min(done)] if done else None
    ranked = sum(m.bit_count() for m in chain(cop_win, rob_win))
    table = StrategyTable(n, c, multisets, rank, ranked, initial, _closed(g), moves)
    return initial is not None, table


def cop_number(
    g: Graph, max_cops: int, active_cap: int | None = None, budget: int | None = None
) -> int | None:
    """Least c <= max_cops winning the game, or None when all of them lose."""
    adj, union = _neighbors(g), _unions(g)
    for c in range(1, max_cops + 1):
        cap = None if active_cap is None else min(active_cap, c)
        _, cop_win, _, layers = _capture(GameSpec(g, c, active_cap=cap), adj, union, budget)
        if _some_row_full(cop_win, layers, (1 << g.n) - 1):
            return c
    return None


def k_move_cop_number(
    g: Graph, active: int, max_cops: int, budget: int | None = None
) -> int | None:
    return cop_number(g, max_cops, active_cap=active, budget=budget)


def is_guardable(
    g: Graph, h: tuple[int, ...], cops: int, strict: bool = True, budget: int | None = None
) -> bool:
    """Can `cops` cops permanently guard the isometric subgraph on h?"""
    hv = tuple(sorted(set(h)))
    if not hv:
        raise ValueError("guard target must be nonempty")
    if not is_isometric_subgraph(g, hv):
        raise ValueError("guard target must induce an isometric subgraph")
    n = g.n
    _check_budget(estimate_states(n, cops) + comb(len(hv) + cops - 1, cops) * (n + 1) * 2, budget)
    local = {v: k for k, v in enumerate(hv)}
    guard_sets = list(combinations_with_replacement(hv, cops))
    guard_moves = _move_table([[local[u] for u in g.neighbors(v) if u in local] for v in hv], cops, cops)
    union = _unions(g)
    full, on_h = (1 << n) - 1, mask_of(hv)

    # Greatest fixed point, as the robber's attractor to the unsafe states:
    # the robber on h at the cops' turn and out of the cops' reach.  A cop
    # turn with the robber on h is settled by that seed, and a robber
    # standing on a cop is caught.
    guard_masks = [mask_of(cset) for cset in guard_sets]
    bad_c = [on_h & ~union(m) for m in guard_masks]
    bad_r = [0] * len(guard_sets)
    for _ in _layers(guard_moves, union, full, bad_c, bad_r, False, on_h, guard_masks):
        pass

    # Approach phase: attract the free game into safe guarding entry states.
    # Cops have no capture power off h, so only these entries are seeds.
    win_c = [0] * comb(n + cops - 1, cops)
    for i, cset in enumerate(guard_sets):
        safe = full & ~bad_c[i]
        if not strict:
            # Tolerate the robber on h at the entry instant: some within-h
            # continuation must survive all later play.
            always_bad = reduce(and_, map(bad_r.__getitem__, guard_moves[i]))
            safe = safe & ~on_h | on_h & ~always_bad
        win_c[_multiset_index(cset, n)] = safe
    free_moves = _move_table(_neighbors(g), cops, cops)
    layers = _layers(free_moves, union, full, win_c, [0] * len(win_c), True)
    return _some_row_full(win_c, layers, full)
