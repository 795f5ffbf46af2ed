"""The referee: game traces and their offline check.

A `Trace` is a finished game as plain data: the graph6 string, one record
per turn, and a verdict.  `validate_trace` re-checks a trace against the
graph alone, using only the core graph primitives: move legality, the
two-mover cap, park stationarity and coverage, shadow membership of guarding
cops, leisurely rest frequency, milestone territory arithmetic, and verdict
consistency.  It reports a malformed trace as findings and never raises.

This module imports nothing of the package but `pursuit.graphs`, so the
check stays independent of the engine that writes the traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from pursuit.graphs import Graph, mask_of, to_graph6

__all__ = ["Trace", "validate_trace"]


@dataclass(frozen=True)
class Trace:
    """Finished game: graph6 field, per-turn records, and a verdict.

    Turn records are plain dicts {t, mover, cops, robber, moved, note} so a
    trace survives a JSON round trip unchanged.
    """

    graph: str
    turns: tuple
    verdict: dict

    @property
    def captured(self) -> bool:
        return self.verdict.get("outcome") == "captured"

    def to_json(self) -> str:
        payload = {
            "graph": self.graph,
            "turns": list(self.turns),
            "verdict": self.verdict,
        }
        return json.dumps(payload, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        payload = json.loads(text)
        if not (
            isinstance(payload, dict)
            and isinstance(payload.get("graph"), str)
            and isinstance(payload.get("turns"), list)
            and all(isinstance(rec, dict) for rec in payload["turns"])
            and isinstance(payload.get("verdict"), dict)
        ):
            raise ValueError(
                "a trace is an object with a string graph, a list of turn "
                "objects and a verdict object"
            )
        return cls(
            graph=payload["graph"],
            turns=tuple(payload["turns"]),
            verdict=payload["verdict"],
        )


def _shape_errors(g: Graph, turns: list) -> list[str]:
    out = []
    for idx, rec in enumerate(turns):
        if not isinstance(rec, dict):
            return out + [f"schema: record {idx} is not an object"]
        wanted = (
            "place-cops"
            if idx == 0
            else "place-robber"
            if idx == 1
            else "cops"
            if idx % 2 == 0
            else "robber"
        )
        if type(rec.get("t")) is not int or rec["t"] != idx:
            out.append(f"turn: record {idx} carries t={rec.get('t')!r}")
        if rec.get("mover") != wanted:
            out.append(
                f"turn: record {idx} mover is {rec.get('mover')!r}, expected {wanted!r}"
            )
        cops = rec.get("cops")
        if not (
            isinstance(cops, list)
            and len(cops) == 3
            and all(type(c) is int and 0 <= c < g.n for c in cops)
        ):
            return out + [f"schema: record {idx} cop positions are malformed"]
        moved = rec.get("moved")
        if not (
            isinstance(moved, list)
            and len(moved) == 3
            and all(isinstance(b, bool) for b in moved)
        ):
            return out + [f"schema: record {idx} moved flags are malformed"]
        robber = rec.get("robber")
        if robber is None:
            if idx > 0:
                return out + [f"schema: record {idx} has no robber position"]
        elif idx == 0:
            return out + ["schema: record 0 places a robber"]
        elif not (type(robber) is int and 0 <= robber < g.n):
            return out + [f"schema: record {idx} robber position is malformed"]
    return out


def _milestone_errors(g: Graph, note: dict, cops: list, robber: int, idx: int):
    """Check one milestone; return (problems, territory, guard list or None)."""
    out: list[str] = []
    if note.get("case") not in ("a", "b", "c"):
        out.append(f"milestone: unknown case {note.get('case')!r} at turn {idx}")
    guards = note.get("guards")
    if not isinstance(guards, list) or not guards or len(guards) > 2:
        return (
            out + [f"milestone: guard list malformed at turn {idx}"],
            None,
            None,
        )
    seen_cops = set()
    blocked = 0
    for gd in guards:
        if not isinstance(gd, dict):
            return out + [f"milestone: guard entry malformed at turn {idx}"], None, None
        c = gd.get("cop")
        kind = gd.get("kind")
        p = gd.get("path")
        host = gd.get("host")
        if not (type(c) is int and 0 <= c < 3 and c not in seen_cops):
            out.append(f"milestone: bad guard cop index at turn {idx}")
            return out, None, None
        seen_cops.add(c)
        if kind not in ("park", "shadow", "leisurely"):
            out.append(f"milestone: unknown guard kind {kind!r} at turn {idx}")
            return out, None, None
        if not (
            isinstance(p, list)
            and p
            and all(type(v) is int and 0 <= v < g.n for v in p)
            and len(set(p)) == len(p)
            and all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
        ):
            out.append(f"milestone: guard path of cop {c} is not a path at turn {idx}")
            return out, None, None
        blocked |= mask_of(p)
        if kind == "park":
            if host is not None:
                out.append(f"milestone: parked guard carries a host at turn {idx}")
            if any(v != cops[c] and not g.has_edge(cops[c], v) for v in p):
                out.append(
                    f"park: cop {c} does not cover its path at turn {idx}"
                )
        else:
            if not (
                isinstance(host, list)
                and all(type(v) is int and 0 <= v < g.n for v in host)
                and mask_of(host) & mask_of(p) == mask_of(p)
            ):
                out.append(f"milestone: guard host malformed at turn {idx}")
                return out, None, None
            if cops[c] not in p:
                out.append(f"shadow: cop {c} is off its path at turn {idx}")
    if blocked >> robber & 1:
        out.append(f"milestone: robber stands on a guarded path at turn {idx}")
        return out, None, guards
    terr = bin(g.component_of(robber, g.vertex_mask() & ~blocked)).count("1")
    if type(note.get("territory")) is not int or terr != note["territory"]:
        out.append(
            f"milestone: territory recorded as {note.get('territory')!r}, "
            f"recomputed {terr} at turn {idx}"
        )
    return out, terr, guards


def validate_trace(g: Graph, trace: Trace) -> list[str]:
    """Re-check a trace against g; the empty list means no violations.

    Only the core graph primitives are used, so the check is independent of
    the engine and its controllers.  Keys that the shape check reports
    missing are read with .get, so a malformed trace yields findings, not
    an exception.
    """
    out: list[str] = []
    turns = list(trace.turns)
    if not turns:
        return ["schema: trace has no turns"]
    if to_graph6(g) != trace.graph:
        out.append("schema: trace was recorded on a different graph")
    out.extend(_shape_errors(g, turns))
    if any(v.startswith("schema:") for v in out):
        return out
    if not all(turns[0]["moved"]):
        out.append("moved-flag: cop placement leaves a cop unflagged")
    final = len(turns) - 1
    captured = trace.captured
    guards: list[dict] = []
    masks: list[tuple[int, int | None]] = []  # (path, host) per guard
    park_at: dict[int, int] = {}
    runs: dict[tuple, int] = {}  # (cop, path) -> straight moves of a leisurely guard
    last_terr: int | None = None
    last_case: str | None = None
    rows: dict[tuple[int, int], list[int]] = {}  # (robber, host) -> BFS row
    for idx in range(1, len(turns)):
        rec, prev = turns[idx], turns[idx - 1]
        cops, pcops = rec["cops"], prev["cops"]
        robber, probber = rec["robber"], prev.get("robber")
        moved = rec["moved"]
        mover = rec.get("mover")
        if idx == 1:
            if cops != pcops:
                out.append("legality: cops changed while the robber was placed")
            if any(moved):
                out.append("moved-flag: robber placement flags cop movement")
        elif mover == "cops":
            for c in range(3):
                if cops[c] != pcops[c] and not g.has_edge(pcops[c], cops[c]):
                    out.append(
                        f"legality: cop {c} jumped {pcops[c]} to {cops[c]} on turn {idx}"
                    )
                if moved[c] != (cops[c] != pcops[c]):
                    out.append(
                        f"moved-flag: cop {c} flag disagrees with positions on turn {idx}"
                    )
            if sum(1 for c in range(3) if cops[c] != pcops[c]) > 2:
                out.append(f"active-cap: three cops moved on turn {idx}")
            if robber != probber:
                out.append(f"legality: robber moved on the cops' turn {idx}")
        else:
            if cops != pcops:
                out.append(f"legality: cops moved on the robber's turn {idx}")
            if any(moved):
                out.append(f"moved-flag: robber turn {idx} flags cop movement")
            if robber != probber and not g.has_edge(probber, robber):
                out.append(
                    f"legality: robber jumped {probber} to {robber} on turn {idx}"
                )
        if idx < final and robber in cops:
            out.append(f"legality: play continued with the robber caught at turn {idx}")
        note = rec.get("note")
        newguards = None
        if isinstance(note, dict) and "case" in note:
            if mover != "cops":
                out.append(f"milestone: note outside a cops' turn at {idx}")
            problems, terr, newguards = _milestone_errors(g, note, cops, robber, idx)
            out.extend(problems)
            if terr is not None:
                if last_terr is not None and terr > last_terr:
                    out.append(
                        f"milestone: territory grew {last_terr} to {terr} at turn {idx}"
                    )
                if (
                    last_case is not None
                    and note.get("case") != last_case
                    and last_terr is not None
                    and terr >= last_terr
                ):
                    out.append(
                        f"milestone: case change without territory decrease at turn {idx}"
                    )
                last_terr = terr
                last_case = note.get("case")
            if newguards is not None:
                guards = newguards
                # each guard's path and host as masks, once per milestone
                masks = [
                    (mask_of(gd["path"]), None if gd["kind"] == "park" else mask_of(gd["host"]))
                    for gd in guards
                ]
                park_at = {
                    gd["cop"]: cops[gd["cop"]]
                    for gd in guards
                    if gd["kind"] == "park"
                }
                runs = {
                    (gd["cop"], tuple(gd["path"])): runs.get((gd["cop"], tuple(gd["path"])), 0)
                    for gd in guards
                    if gd["kind"] == "leisurely"
                }
        if mover != "cops" or not guards or (captured and idx == final):
            continue
        # guard discipline between milestones
        for gd, (on_path, host) in zip(guards, masks):
            c = gd["cop"]
            p = gd["path"]
            if host is None:
                if cops[c] != park_at[c]:
                    out.append(f"park: cop {c} left its post on turn {idx}")
                continue
            if not on_path >> cops[c] & 1:
                if guards is not newguards:  # else the milestone reported it
                    out.append(f"shadow: cop {c} is off its path on turn {idx}")
                continue
            if not host >> robber & 1:
                out.append(f"shadow: robber outside the host of cop {c} on turn {idx}")
                continue
            dist = rows.get((robber, host))
            if dist is None:
                dist = rows[robber, host] = g.bfs_levels(robber, host)
            k = p.index(cops[c])
            # a path vertex out of the robber's reach reads n > len(p) - 1
            if any(abs(jj - k) > dist[v] for jj, v in enumerate(p)):
                out.append(
                    f"shadow: cop {c} is outside the wide shadow on turn {idx}"
                )
            if gd["kind"] == "leisurely":
                key = (c, tuple(p))
                runs[key] = runs[key] + 1 if moved[c] else 0
                if runs[key] > len(p) - 1:
                    out.append(
                        f"rest: cop {c} moved {runs[key]} straight turns on a "
                        f"path of length {len(p) - 1} at turn {idx}"
                    )
    verdict = trace.verdict
    outcome = verdict.get("outcome")
    last = turns[-1]
    if outcome == "captured":
        if type(verdict.get("turn")) is not int or verdict["turn"] != last.get("t"):
            out.append("verdict: capture turn disagrees with the last record")
        if last.get("robber") not in last["cops"]:
            out.append("verdict: captured without a cop on the robber")
    elif outcome == "aborted":
        if last.get("robber") is not None and last["robber"] in last["cops"]:
            out.append("verdict: aborted although the robber was caught")
        if not verdict.get("reason"):
            out.append("verdict: aborted without a reason")
    else:
        out.append(f"verdict: unknown outcome {outcome!r}")
    return out
