"""Exact pursuit-game solver by backward induction over flat integer states.

Cops place first, the robber answers, and cops move first; on each cops'
turn at most ``active_cap`` cops may step (passing is always legal).
Capture is positional coincidence, including the robber stepping onto a cop.

State layout.  A cop position is a sorted multiset, numbered by its place
i in ``combinations_with_replacement`` order over the vertices the cops may
use.  State ``2 * (i * n + r) + side`` is multiset i, robber vertex r and
the side to move (COPS = 0, ROBBER = 1).  Ranks (-1 while unranked), robber
and cop countdowns and the cops' chosen successor multiset are
``array('i')`` rows indexed by state, and the FIFO queue is one more: 16
bytes per state.  With the move table a capture solve peaks at about 40
bytes per state (38 on the 4x5 grid with three cops, two moving).  Each
multiset's cop-move successors are computed once, as multiset indices in
increasing order, into one CSR table (an offsets array and a targets
array).  The table is built by index arithmetic: a multiset is its smallest
cop plus the index of the other cops, and inserting a cop's new vertex into
that index is a table lookup, so no tuple is sorted or hashed per move.

One attractor serves every game.  It runs backward from its seed states in
FIFO order.  An attacker state joins as soon as one of its moves leads in;
a defender state joins when its countdown, the number of its moves still
leading out, reaches zero; states ranked -2 are out of play and never
join.  Move relations are symmetric (stay-or-step along edges), so
predecessors are enumerated with the successor table, and the ranks of a
row of cop predecessors are read in one call through a strided view of the
rank array.  In the capture game the cops attack toward capture, so every
winning state receives its exact optimal rank: cop states take 1 + min
over successors at first discovery, robber states take 1 + max.

Guard mode answers whether c cops can permanently protect an isometric
subgraph h: a greatest fixed point over cops-on-h states (robber on h at the
cops' turn must be capturable immediately; otherwise some within-h reply
must stay safe), computed as the robber's attractor to the unsafe states
over the arena restricted to h, then the cops' attractor for the free
approach phase.  The approach phase pursues safe entry only: cops have no
capture power off the guarded subgraph, so a robber parked elsewhere is
simply a threat source, never a target.  Under the strict entry semantics
(default) guarding may begin with the robber already on h only when
immediate capture is available; the lenient toggle instead tolerates the
on-h robber for the entry instant, demanding a within-h continuation that
punishes every later violation, the robber staying put included.

State counts are estimated before enumeration; beyond the budget (the
``budget`` argument, else ``PURSUIT_STATE_CAP``, else 50 million) the
solver refuses with ``BudgetExceeded`` rather than thrash.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from itertools import accumulate, chain, combinations_with_replacement, compress
from math import comb
from operator import itemgetter

from .graphs import Graph, is_isometric_subgraph

DEFAULT_STATE_BUDGET = 50_000_000
# States are array('i') indices.
MAX_STATES = 2**31 - 1

COPS, ROBBER = 0, 1


class BudgetExceeded(RuntimeError):
    """A solve estimated past its state budget; source names the knob that
    set the budget, and a caller with a knob of its own may overwrite it."""

    def __init__(self, estimate: int, budget: int, source: str):
        super().__init__(estimate, budget, source)
        self.estimate, self.budget, self.source = estimate, budget, source

    def __str__(self) -> str:
        return (
            f"estimated {self.estimate} states exceeds budget {self.budget}; "
            f"raise {self.source} to proceed"
        )


def state_budget() -> int:
    raw = os.environ.get("PURSUIT_STATE_CAP", "")
    return int(raw) if raw else DEFAULT_STATE_BUDGET


def estimate_states(n: int, cops: int) -> int:
    return comb(n + cops - 1, cops) * (n + 1) * 2


def _check_budget(estimate: int, budget: int | None) -> None:
    source = "PURSUIT_STATE_CAP" if budget is None else "the budget argument"
    budget = min(state_budget() if budget is None else budget, MAX_STATES)
    if estimate > budget:
        raise BudgetExceeded(estimate, budget, source)


@dataclass(frozen=True)
class GameSpec:
    graph: Graph
    cops: int
    active_cap: int | None = None

    def __post_init__(self) -> None:
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


def _move_table(adj: list, c: int, cap: int) -> tuple[array, array]:
    """CSR cop-move successors of every c-multiset over the m = len(adj) vertices.

    adj[v] lists the vertices a cop on v may step to.  Row i holds, in
    increasing order, the indices of the multisets reachable from multiset i
    when at most cap cops step.  Built one size k at a time: a k-multiset is
    its smallest vertex a plus a (k-1)-multiset j of vertices >= a, with
    index off[a] + j, and ins[v][j] is the index of (k-1)-multiset j with v
    added.  Its cop a stays or steps to a neighbour while the others move
    as in row j of the (k-1)-multisets, with one step fewer if a stepped.
    """
    m = len(adj)
    size = [comb(m + k - 1, k) for k in range(c + 1)]
    first: list[int] = []
    rest: list[int] = []
    ins: list[list[int]] = []
    rows: dict[int, list[list[int]]] = {0: [[0]]}  # by the number of cops allowed to step
    for k in range(1, c + 1):
        # the (k-1)-multisets over [a, m) are the last ones in order
        tails = [comb(m - a + k - 2, k - 1) for a in range(m)]
        off = [size[k] - comb(m - a + k - 1, k) - size[k - 1] + t for a, t in enumerate(tails)]
        if k == 1:
            ins = [[v] for v in range(m)]
        else:
            ins = [
                [off[v] + j if v <= b else off[b] + ins[v][jr] for j, (b, jr) in enumerate(zip(first, rest))]
                for v in range(m)
            ]
        first = [a for a, t in enumerate(tails) for _ in range(t)]
        rest = [j for t in tails for j in range(size[k - 1] - t, size[k - 1])]
        below, rows = rows, {}
        for q in range(min(k, cap) + 1) if k < c else (min(c, cap),):
            if q == 0:
                rows[q] = [[i] for i in range(size[k])]
                continue
            stay, step = below[min(q, k - 1)], below[q - 1]
            rows[q] = [
                sorted(set(map(ins[a].__getitem__, stay[j])).union(
                    *(map(ins[u].__getitem__, step[j]) for u in adj[a])
                ))
                for a, j in zip(first, rest)
            ]
    top = rows[min(c, cap)]
    offsets = array("i", [0])
    offsets.extend(accumulate(map(len, top)))
    return offsets, array("i", chain.from_iterable(top))


def _closed(g: Graph) -> list[tuple[int, ...]]:
    return [(v,) + g.neighbors(v) for v in range(g.n)]


def _gatherer(row: list[int]):
    """A callable reading the items at the indices in row as a tuple."""
    if len(row) == 1:
        return lambda seq, j=row[0]: (seq[j],)
    return itemgetter(*row)


def _attractor(
    n: int,
    moves: tuple[array, array],
    closed: list[tuple[int, ...]],
    attacker: int,
    rank: array,
    count: array,
    queue: array,
    move: array | None = None,
) -> None:
    """Grow the attacker's attractor of the seeds in queue (ranked 0), in FIFO order.

    A popped state's predecessors are the cop turns one cop move before it
    (for a robber state) or the robber turns one robber move before it (for
    a cop state).  An unranked attacker predecessor joins at once; a
    defender predecessor joins when its countdown, its number of moves,
    reaches zero.  Joining states are ranked one above the popped state and
    queued, and move, when given, records the multiset a cop steps to.
    States ranked -2 are out of play and never join.
    """
    offsets, targets = moves
    n2 = 2 * n
    # cop_ranks[r][j] is the rank of (j, r, COPS), and gather[i] reads the
    # ranks of row i's multisets out of it in one call.  The rows share one
    # int object per multiset index.
    view = memoryview(rank)
    cop_ranks = [view[2 * r :: n2] for r in range(n)]
    shared = list(range(len(offsets) - 1))
    gather = [_gatherer(list(map(shared.__getitem__, targets[lo:hi]))) for lo, hi in zip(offsets, offsets[1:])]
    unranked = (-1).__eq__
    for s in queue:  # the queue grows while it is read
        nxt = rank[s] + 1
        i, r = divmod(s >> 1, n)
        if s & 1:
            ranks = gather[i](cop_ranks[r])
            if -1 not in ranks:
                continue
            r2 = 2 * r
            preds = [j * n2 + r2 for j in compress(targets[offsets[i]:offsets[i + 1]], map(unranked, ranks))]
        else:
            row = i * n2 + 1
            preds = [p for v in closed[r] if rank[p := row + 2 * v] == -1]
        if s & 1 != attacker:
            for p in preds:
                rank[p] = nxt
                queue.append(p)
                if move is not None:
                    move[p] = i
        else:
            for p in preds:
                left = count[p] - 1
                if left:
                    count[p] = left
                else:
                    rank[p] = nxt
                    queue.append(p)


def _countdowns(closed: list[tuple[int, ...]], blocks: int) -> array:
    """The robber's countdowns: every one of its moves must lead into the attractor."""
    return array("i", [x for moves in closed for x in (0, len(moves))]) * blocks


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
        for s in table._order:
            if self._value(s) is not None:
                yield table._key(s)

    def __len__(self) -> int:
        if self._len is None:
            self._len = sum(1 for _ in self)
        return self._len

    def items(self):
        return _StateItems(self)


class _StateItems(ItemsView):
    """Items in the state order, without a key lookup per item."""

    def __iter__(self):
        view = self._mapping
        for s in view._table._order:
            value = view._value(s)
            if value is not None:
                yield view._table._key(s), value


class StrategyTable:
    """Exact winning strategy: ranks, cop moves, and the robber's best replies.

    ``rank`` and ``move`` are read-only mappings keyed by (sorted cops,
    robber, side), iterated in the order the solver ranked the states.
    """

    def __init__(
        self,
        n: int,
        cops: int,
        active_cap: int | None,
        multisets: list[tuple[int, ...]],
        rank: array,
        move: array,
        order: array,
        initial: tuple[int, ...] | None,
        closed: list[tuple[int, ...]],
    ):
        self.n = n
        self.cops = cops
        self.active_cap = active_cap
        self.initial = initial
        self._multisets = multisets
        self._rank = rank
        self._move = move
        self._order = order
        self._closed = closed
        self.rank: Mapping = _StateMap(self, lambda s: rank[s] if rank[s] >= 0 else None, len(order))
        self.move: Mapping = _StateMap(self, lambda s: multisets[move[s]] if move[s] >= 0 else None)

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
        if s is not None and self._rank[s] == 0:
            return cops
        if s is None or self._move[s] < 0:
            raise ValueError("no winning move from this state")
        return self._multisets[self._move[s]]

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
    _check_budget(estimate_states(n, c), budget)
    multisets = list(combinations_with_replacement(range(n), c))
    closed = _closed(g)
    moves = _move_table([g.neighbors(v) for v in range(n)], c, spec.active_cap or c)

    size = 2 * n * len(multisets)
    rank = array("i", [-1]) * size
    move = array("i", [-1]) * size
    count = _countdowns(closed, len(multisets))
    queue = array("i")
    for i, cops in enumerate(multisets):
        for r in set(cops):
            s = 2 * (i * n + r)
            rank[s] = rank[s + 1] = 0
            queue.extend((s, s + 1))
    _attractor(n, moves, closed, COPS, rank, count, queue, move)

    best: tuple[int, int] | None = None
    for i in range(len(multisets)):
        row = rank[2 * i * n : 2 * (i + 1) * n : 2]
        if min(row) >= 0 and (best is None or max(row) < best[0]):
            best = (max(row), i)
    initial = multisets[best[1]] if best is not None else None
    table = StrategyTable(n, c, spec.active_cap, multisets, rank, move, queue, initial, closed)
    return initial is not None, table


def cop_number(
    g: Graph, max_cops: int, active_cap: int | None = None, budget: int | None = None
) -> int | None:
    """Least c <= max_cops winning the game, or None when all of them lose."""
    for c in range(1, max_cops + 1):
        cap = None if active_cap is None else min(active_cap, c)
        won, _ = solve(GameSpec(g, c, active_cap=cap), budget=budget)
        if won:
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
    closed = _closed(g)
    local = {v: k for k, v in enumerate(hv)}
    guard_sets = list(combinations_with_replacement(hv, cops))
    guard_moves = _move_table([[local[u] for u in g.neighbors(v) if u in local] for v in hv], cops, cops)
    offsets, targets = guard_moves

    # Greatest fixed point: the robber's attractor to unsafe guard states.
    # A cop turn with the robber on h is settled at once: a seed (rank 0)
    # when no cop can capture, else out of play (-2); so is a robber turn
    # with the robber on a cop, a capture.
    bad = array("i")
    count = array("i")
    queue = array("i")
    for i, cset in enumerate(guard_sets):
        block = [-1] * (2 * n)
        covered = set(cset)
        for v in cset:
            covered.update(g.neighbors(v))
        for r in hv:
            if r in covered:
                block[2 * r] = -2
            else:
                block[2 * r] = 0
                queue.append(2 * (i * n + r))
        for r in cset:
            block[2 * r + 1] = -2
        bad.extend(block)
        count.extend([offsets[i + 1] - offsets[i], 0] * n)
    _attractor(n, guard_moves, closed, ROBBER, bad, count, queue)

    # Approach phase: attract the free game into safe guarding entry states.
    free = comb(n + cops - 1, cops)
    win = array("i", [-1]) * (2 * n * free)
    count = _countdowns(closed, free)
    queue = array("i")
    for i, cset in enumerate(guard_sets):
        base = 2 * n * _multiset_index(cset, n)
        for r in range(n):
            if r not in local or strict:
                ok = bad[2 * (i * n + r)] < 0
            else:
                # Tolerate the robber on h at the entry instant: some
                # within-h continuation must survive all later play.
                ok = any(bad[2 * (j * n + r) + 1] < 0 for j in targets[offsets[i]:offsets[i + 1]])
            if ok:
                win[base + 2 * r] = 0
                queue.append(base + 2 * r)
    free_moves = _move_table([g.neighbors(v) for v in range(n)], cops, cops)
    _attractor(n, free_moves, closed, COPS, win, count, queue)
    return any(min(win[2 * i * n : 2 * (i + 1) * n : 2]) >= 0 for i in range(free))
