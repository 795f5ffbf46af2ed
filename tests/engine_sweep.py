"""Sweep the planar capture engine over many games and compare two sweeps.

Not a pytest module (its name does not match ``test_*.py``).  Run from the
repository root:

    PYTHONPATH=src python tests/engine_sweep.py --out sweep.json
    PYTHONPATH=src python tests/engine_sweep.py --optimal --out optimal.json
    PYTHONPATH=src python tests/engine_sweep.py --compare old.json new.json

The default sweep plays ``sparse_planar(n, s)`` (from ``test_strategy``) for
n in 6, 8, 10, 12, 14, 16, 20, 24, 30, 40, 60 and s < 1000, each against
``RandomAdversary(seed=0)`` and ``GreedyAdversary``: 22,000 games.  With
``--optimal`` it plays every connected planar graph with n <= 8 against
``OptimalAdversary`` on the exact 3-cop, 2-mover table: 6,749 games.  Each
game is validated, and its record holds the first 16 hex digits of the
trace's sha256, the outcome, the capture turn and the validator's finding
count.  ``--compare`` reports changed traces, aborts on each side, moved
capture turns and the mean capture turn per robber.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from test_strategy import sparse_planar

from pursuit.constructions import connected_graphs
from pursuit.controllers import GreedyAdversary, OptimalAdversary, RandomAdversary
from pursuit.planar import embed
from pursuit.referee import validate_trace
from pursuit.solver import GameSpec, solve
from pursuit.strategy import run_two_move_strategy

SIZES = (6, 8, 10, 12, 14, 16, 20, 24, 30, 40, 60)
SEEDS = 1000


def _games(optimal: bool):
    """(key, graph, adversary) for every game of the chosen sweep."""
    if optimal:
        for n in range(1, 9):
            for i, g in enumerate(connected_graphs(n)):
                if embed(g) is None:
                    continue
                solved, table = solve(GameSpec(g, 3, active_cap=2))
                if not solved:
                    raise SystemExit(f"n{n}i{i}: the cops lose the exact game")
                yield f"n{n}i{i}/optimal", g, OptimalAdversary(g, table)
        return
    for n in SIZES:
        for s in range(SEEDS):
            g = sparse_planar(n, s)
            yield f"sp{n}s{s}/random", g, RandomAdversary(g, seed=0)
            yield f"sp{n}s{s}/greedy", g, GreedyAdversary(g)


def sweep(optimal: bool) -> dict:
    out = {}
    for key, g, adversary in _games(optimal):
        tr = run_two_move_strategy(g, adversary=adversary)
        out[key] = {
            "hash": hashlib.sha256(tr.to_json().encode()).hexdigest()[:16],
            "outcome": tr.verdict["outcome"],
            "turn": tr.verdict.get("turn"),
            "findings": len(validate_trace(g, tr)),
        }
    return out


def _summary(games: dict) -> str:
    aborts = sorted(k for k, r in games.items() if r["outcome"] != "captured")
    findings = sum(r["findings"] for r in games.values())
    lines = [f"{len(games)} games, {len(aborts)} aborted, {findings} validator findings"]
    lines += [f"  aborted: {k}" for k in aborts]
    by_robber: dict[str, list[int]] = {}
    for k, r in games.items():
        if r["turn"] is not None:
            by_robber.setdefault(k.split("/")[1], []).append(r["turn"])
    for robber, turns in sorted(by_robber.items()):
        mean = sum(turns) / len(turns)
        lines.append(f"  {robber}: mean capture turn {mean:.2f} over {len(turns)}")
    return "\n".join(lines)


def compare(old: dict, new: dict) -> str:
    if old.keys() != new.keys():
        return "the two sweeps play different games"
    changed = [k for k in old if old[k]["hash"] != new[k]["hash"]]
    earlier, later = [], []
    for k in changed:
        a, b = old[k]["turn"], new[k]["turn"]
        if a is not None and b is not None and a != b:
            (earlier if b < a else later).append((k, b - a))
    lines = ["old: " + _summary(old), "new: " + _summary(new)]
    lines.append(f"changed traces: {len(changed)}")
    moved = len(earlier) + len(later)
    lines.append(f"capture turns moved: {moved} ({len(earlier)} earlier, {len(later)} later)")
    if earlier or later:
        deltas = [d for _, d in earlier + later]
        lines.append(f"  turn change from {min(deltas)} to {max(deltas)}")
    lines += [f"  later: {k} {d:+d}" for k, d in later]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--optimal", action="store_true", help="planar n <= 8 against the exact robber")
    ap.add_argument("--out", help="write the records here (default: stdout)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two record files")
    args = ap.parse_args(argv)
    if args.compare:
        old, new = (json.load(open(p)) for p in args.compare)
        print(compare(old, new))
        return 0
    start = time.perf_counter()
    games = sweep(args.optimal)
    text = json.dumps(games, sort_keys=True, indent=0)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    print(_summary(games), file=sys.stderr)
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
