"""Command-line front door for the pursuit toolkit.

Corpus files hold one graph6 string per line; blank lines and lines starting
with '#' are skipped, and results keep the input order.  Output goes to
stdout (or --output) as one JSON object per graph, the machine format, or as
a TSV summary.  Every record echoes the seed and budgets that shaped it, so
a run can be reproduced from its output alone.  In json mode errors are JSON
objects on stderr; in tsv mode they are plain lines.

Exit codes: 0 success, 1 negative verdict (unguardable target, cop number
over the cap, trace violations, unplayable input), 2 usage error, 3 budget
refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from pursuit.constructions import build_guard_adversary, build_hole_gadget, build_hts
from pursuit.controllers import GreedyAdversary, OptimalAdversary, RandomAdversary
from pursuit.graphs import Graph, Path, from_graph6, to_graph6
from pursuit.helly import dismantling_order, find_hole
from pursuit.shadows import bypaths, is_bypath_free, wide_shadow
from pursuit.solver import (
    BudgetExceeded,
    GameSpec,
    cop_number,
    is_guardable,
    k_move_cop_number,
    solve,
    state_budget,
)
from pursuit.strategy import Trace, run_two_move_strategy, validate_trace

OK = 0
NEGATIVE = 1
USAGE = 2
BUDGET = 3


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RunConfig:
    """One invocation: command, inputs, seed, budgets, and output routing."""

    command: str
    inputs: tuple[str, ...]
    fmt: str
    output: str | None
    seed: int
    turn_cap: int | None
    state_cap: int | None


# -- input and output plumbing ---------------------------------------------------


def _read_lines(path: str) -> list[str]:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except OSError as e:
        raise CliError(USAGE, f"cannot read {path}: {e}") from e
    out = []
    for ln in text.splitlines():
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            out.append(ln)
    return out


def _read_corpus(path: str) -> list[Graph]:
    graphs = []
    for i, ln in enumerate(_read_lines(path)):
        try:
            graphs.append(from_graph6(ln))
        except ValueError as e:
            raise CliError(USAGE, f"{path} line {i + 1}: {e}") from e
    if not graphs:
        raise CliError(USAGE, f"{path} holds no graphs")
    return graphs


def _vertex_list(text: str) -> tuple[int, ...]:
    try:
        vs = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as e:
        raise CliError(USAGE, f"bad vertex list {text!r}") from e
    if not vs:
        raise CliError(USAGE, "vertex list is empty")
    return vs


def _check_range(g: Graph, vs, index: int) -> None:
    for v in vs:
        if not 0 <= v < g.n:
            raise CliError(USAGE, f"vertex {v} outside graph {index} (n={g.n})")


def _cell(v, sep: str = ";") -> str:
    if v is None:
        return "-"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, (list, tuple)):
        if not v:
            return "-"
        return sep.join(_cell(x, ":") for x in v)
    return str(v)


def _write(cfg: RunConfig, records: list[dict], columns: list[str]) -> None:
    lines: list[str] = []
    if cfg.fmt == "json":
        lines = [json.dumps(r, sort_keys=True) for r in records]
    else:
        lines.append("\t".join(columns))
        for r in records:
            lines.append("\t".join(_cell(r.get(c)) for c in columns))
    _write_raw(cfg, lines)


def _write_raw(cfg: RunConfig, lines: list[str]) -> None:
    text = "".join(ln + "\n" for ln in lines)
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise CliError(USAGE, f"cannot write {cfg.output}: {e}") from e


def _error(cfg: RunConfig, code: int, message: str) -> int:
    if cfg.fmt == "json":
        obj = {"error": {"code": code, "command": cfg.command, "message": message}}
        sys.stderr.write(json.dumps(obj, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error: {message}\n")
    return code


def _state_cap(cfg: RunConfig) -> int:
    """The solver's state budget: --state-cap, else the environment default."""
    return state_budget() if cfg.state_cap is None else cfg.state_cap


# -- corpus queries ---------------------------------------------------------------


def cmd_helly(cfg: RunConfig) -> int:
    records = []
    for i, g in enumerate(_read_corpus(cfg.inputs[0])):
        hole = find_hole(g)
        order = dismantling_order(g)
        records.append(
            {
                "index": i,
                "n": g.n,
                "helly": hole is None,
                "hole_centers": None if hole is None else list(hole.centers),
                "hole_radii": None if hole is None else list(hole.radii),
                "dismantling": None if order is None else [list(p) for p in order],
            }
        )
    _write(
        cfg,
        records,
        ["index", "n", "helly", "hole_centers", "hole_radii", "dismantling"],
    )
    return OK


def cmd_copnumber(cfg: RunConfig, max_cops: int, active: int | None = None) -> int:
    budget = _state_cap(cfg)
    records = []
    worst = OK
    for i, g in enumerate(_read_corpus(cfg.inputs[0])):
        if active is None:
            c = cop_number(g, max_cops, budget=budget)
        else:
            c = k_move_cop_number(g, active, max_cops, budget=budget)
        if c is None:
            worst = NEGATIVE
        rec = {
            "index": i,
            "n": g.n,
            "cop_number": c,
            "max_cops": max_cops,
            "state_cap": budget,
        }
        if active is not None:
            rec["active"] = active
        records.append(rec)
    cols = ["index", "n", "cop_number", "max_cops", "state_cap"]
    if active is not None:
        cols.insert(3, "active")
    _write(cfg, records, cols)
    return worst


def cmd_shadow(cfg: RunConfig, subgraph: str, vertex: int) -> int:
    target = _vertex_list(subgraph)
    records = []
    for i, g in enumerate(_read_corpus(cfg.inputs[0])):
        _check_range(g, target + (vertex,), i)
        records.append(
            {
                "index": i,
                "n": g.n,
                "subgraph": sorted(set(target)),
                "vertex": vertex,
                "shadow": sorted(wide_shadow(g, target, vertex)),
            }
        )
    _write(cfg, records, ["index", "n", "subgraph", "vertex", "shadow"])
    return OK


def cmd_bypaths(cfg: RunConfig, path_text: str) -> int:
    pv = _vertex_list(path_text)
    records = []
    for i, g in enumerate(_read_corpus(cfg.inputs[0])):
        _check_range(g, pv, i)
        try:
            p = Path(pv)
            found = bypaths(g, p)
            free = is_bypath_free(g, p)
        except ValueError as e:
            raise CliError(NEGATIVE, f"graph {i}: {e}") from e
        records.append(
            {
                "index": i,
                "n": g.n,
                "path": list(pv),
                "bypaths": [list(q.vertices) for q in found],
                "bypath_free": free,
            }
        )
    _write(cfg, records, ["index", "n", "path", "bypath_free", "bypaths"])
    return OK


def cmd_guardable(cfg: RunConfig, subgraph: str, cops: int) -> int:
    budget = _state_cap(cfg)
    target = _vertex_list(subgraph)
    records = []
    worst = OK
    for i, g in enumerate(_read_corpus(cfg.inputs[0])):
        _check_range(g, target, i)
        try:
            ok = is_guardable(g, target, cops, budget=budget)
        except ValueError as e:
            raise CliError(NEGATIVE, f"graph {i}: {e}") from e
        if not ok:
            worst = NEGATIVE
        records.append(
            {
                "index": i,
                "n": g.n,
                "subgraph": sorted(set(target)),
                "cops": cops,
                "guardable": ok,
                "state_cap": budget,
            }
        )
    _write(cfg, records, ["index", "n", "subgraph", "cops", "guardable", "state_cap"])
    return worst


# -- constructions ----------------------------------------------------------------


def cmd_construct_hts(cfg: RunConfig, t: int, s: int, adversary: int | None) -> int:
    try:
        g, desc = build_hts(t, s)
    except ValueError as e:
        raise CliError(USAGE, str(e)) from e
    rec = {"construct": "hts", "t": t, "s": s, "n": g.n, "graph6": to_graph6(g)}
    if adversary is not None:
        try:
            gadget = build_guard_adversary(g, desc, adversary)
        except ValueError as e:
            raise CliError(USAGE, str(e)) from e
        if not gadget.explicit:
            raise CliError(
                BUDGET,
                "explicit adversary gadget too large; fewer private vertices "
                "or a smaller core keep it materializable",
            )
        rec["adversary"] = adversary
        rec["apex_count"] = len(gadget.transversals)
        rec["n"] = gadget.graph.n
        rec["graph6"] = to_graph6(gadget.graph)
    if cfg.fmt == "tsv":
        # bare graph6 so the output pipes straight into another command
        _write_raw(cfg, [rec["graph6"]])
    else:
        _write(cfg, [rec], [])
    return OK


def cmd_construct_hole_gadget(cfg: RunConfig) -> int:
    records = []
    lines = []
    worst = OK
    for i, g in enumerate(_read_corpus(cfg.inputs[0])):
        hole = find_hole(g)
        if hole is None:
            worst = NEGATIVE
            records.append(
                {"index": i, "n": g.n, "graph6": None, "reason": "graph is Helly"}
            )
            lines.append("-")
            continue
        gg = build_hole_gadget(g, hole)
        records.append(
            {
                "index": i,
                "n": gg.n,
                "graph6": to_graph6(gg),
                "hole_centers": list(hole.centers),
                "hole_radii": list(hole.radii),
            }
        )
        lines.append(to_graph6(gg))
    if cfg.fmt == "tsv":
        _write_raw(cfg, lines)
    else:
        _write(cfg, records, [])
    return worst


# -- simulation, replay, validation ------------------------------------------------


def _make_adversary(name: str, g: Graph, seed: int, budget: int):
    if name == "random":
        return RandomAdversary(g, seed=seed)
    if name == "greedy":
        return GreedyAdversary(g, seed=seed)
    won, table = solve(GameSpec(g, cops=3, active_cap=2), budget=budget)
    if not won:
        raise CliError(NEGATIVE, "exact solve found no capture for three cops")
    return OptimalAdversary(g, table)


def cmd_simulate(cfg: RunConfig, adversary: str) -> int:
    budget = _state_cap(cfg)
    records = []
    worst = OK
    for i, g in enumerate(_read_corpus(cfg.inputs[0])):
        adv = _make_adversary(adversary, g, cfg.seed, budget)
        try:
            tr = run_two_move_strategy(g, adversary=adv, turn_cap=cfg.turn_cap)
        except ValueError as e:
            raise CliError(NEGATIVE, f"graph {i}: {e}") from e
        if not tr.captured:
            worst = NEGATIVE
        payload = json.loads(tr.to_json())
        payload["index"] = i
        payload["adversary"] = adversary
        payload["seed"] = cfg.seed
        payload["turn_cap"] = (
            10 * g.n * g.n if cfg.turn_cap is None else cfg.turn_cap
        )
        payload["n"] = g.n
        payload["outcome"] = tr.verdict.get("outcome")
        payload["turn"] = tr.verdict.get("turn")
        records.append(payload)
    _write(
        cfg,
        records,
        ["index", "n", "adversary", "seed", "turn_cap", "outcome", "turn"],
    )
    return worst


def _read_traces(path: str) -> list[tuple[Graph, Trace]]:
    out = []
    for i, ln in enumerate(_read_lines(path)):
        try:
            tr = Trace.from_json(ln)
            g = from_graph6(tr.graph)
        except ValueError as e:
            raise CliError(USAGE, f"{path} line {i + 1}: bad trace: {e}") from e
        out.append((g, tr))
    if not out:
        raise CliError(USAGE, f"{path} holds no traces")
    return out


def cmd_validate(cfg: RunConfig) -> int:
    records = []
    worst = OK
    for i, (g, tr) in enumerate(_read_traces(cfg.inputs[0])):
        viol = validate_trace(g, tr)
        if viol:
            worst = NEGATIVE
        records.append(
            {
                "index": i,
                "n": g.n,
                "outcome": tr.verdict.get("outcome"),
                "ok": not viol,
                "violations": viol,
            }
        )
    _write(cfg, records, ["index", "n", "outcome", "ok", "violations"])
    return worst


def _render_turn(rec: dict) -> str:
    """One replay line; ValueError when a field it shows is missing or mistyped."""
    cops, robber, note = rec.get("cops"), rec.get("robber"), rec.get("note")
    milestone = isinstance(note, dict) and "case" in note
    if not (
        isinstance(rec.get("t"), int)
        and isinstance(rec.get("mover"), str)
        and isinstance(cops, list)
        and (robber is None or isinstance(robber, int))
        and (not milestone or ("territory" in note and isinstance(note.get("guards"), list)))
    ):
        raise ValueError("fields t, mover, cops, robber or note are missing or malformed")
    shown = "-" if robber is None else str(robber)
    line = f"  t{rec['t']:>4} {rec['mover']:<12} cops {','.join(map(str, cops))} robber {shown}"
    if milestone:
        line += f"  case={note['case']} territory={note['territory']} guards={len(note['guards'])}"
    return line


def cmd_replay(cfg: RunConfig) -> int:
    if cfg.fmt == "json":
        return cmd_validate(cfg)
    lines = []
    worst = OK
    for i, (g, tr) in enumerate(_read_traces(cfg.inputs[0])):
        lines.append(f"trace {i}: n={g.n} graph {tr.graph}")
        for k, rec in enumerate(tr.turns):
            try:
                lines.append(_render_turn(rec))
            except ValueError as e:
                raise CliError(USAGE, f"{cfg.inputs[0]} trace {i} turn {k}: {e}") from e
        lines.append(f"  verdict: {json.dumps(tr.verdict, sort_keys=True)}")
        viol = validate_trace(g, tr)
        if viol:
            worst = NEGATIVE
            lines.extend(f"  violation: {v}" for v in viol)
        else:
            lines.append("  violations: none")
    _write_raw(cfg, lines)
    return worst


# -- interactive play --------------------------------------------------------------


class _HumanRobber:
    """Robber controller that asks the terminal for each move."""

    name = "human"

    def __init__(self, g: Graph):
        self.graph = g

    def _ask(self, prompt: str, options: list[int]) -> int:
        while True:
            raw = input(prompt).strip()
            try:
                v = int(raw)
            except ValueError:
                print(f"not a vertex: {raw!r}")
                continue
            if v in options:
                return v
            print(f"pick one of {', '.join(str(o) for o in options)}")

    def place(self, cops) -> int:
        print(f"graph has vertices 0..{self.graph.n - 1}")
        print(f"cops start at {', '.join(str(c) for c in cops)}")
        return self._ask("robber start: ", list(range(self.graph.n)))

    def move(self, cops, robber: int) -> int:
        opts = sorted((robber,) + self.graph.neighbors(robber))
        print(f"cops at {', '.join(str(c) for c in cops)}; you are at {robber}")
        return self._ask(f"move to one of {opts}: ", opts)


def cmd_play(cfg: RunConfig) -> int:
    g = _read_corpus(cfg.inputs[0])[0]
    try:
        tr = run_two_move_strategy(g, adversary=_HumanRobber(g), turn_cap=cfg.turn_cap)
    except ValueError as e:
        raise CliError(NEGATIVE, str(e)) from e
    except EOFError:
        print("input closed; game abandoned")
        return USAGE
    last = tr.turns[-1]
    cops = ", ".join(str(c) for c in last["cops"])
    if tr.captured:
        print(f"captured on turn {tr.verdict['turn']}: cops at {cops}")
        return OK
    print(f"no capture: {tr.verdict.get('reason', 'aborted')}")
    return NEGATIVE


# -- argument surface ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pursuit",
        description="graph pursuit-evasion: recognition, exact values, strategies",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default="json")
    common.add_argument("--output", metavar="PATH")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("helly", parents=[common], help="Helly verdicts with witnesses")
    p.add_argument("file")

    p = sub.add_parser("copnumber", parents=[common], help="exact cop number")
    p.add_argument("file")
    p.add_argument("--max", type=int, required=True, dest="max_cops")
    p.add_argument("--state-cap", type=int)

    p = sub.add_parser("kmove", parents=[common], help="cop number with a move cap")
    p.add_argument("file")
    p.add_argument("--active", type=int, required=True)
    p.add_argument("--max", type=int, required=True, dest="max_cops")
    p.add_argument("--state-cap", type=int)

    p = sub.add_parser("shadow", parents=[common], help="wide shadow of a vertex")
    p.add_argument("file")
    p.add_argument("--subgraph", required=True, metavar="V1,V2,...")
    p.add_argument("--vertex", type=int, required=True)

    p = sub.add_parser("bypaths", parents=[common], help="bypaths of an isometric path")
    p.add_argument("file")
    p.add_argument("--path", required=True, metavar="V1,V2,...")

    p = sub.add_parser("guardable", parents=[common], help="subgraph guardability")
    p.add_argument("file")
    p.add_argument("--subgraph", required=True, metavar="V1,V2,...")
    p.add_argument("--cops", type=int, required=True)
    p.add_argument("--state-cap", type=int)

    c = sub.add_parser("construct", help="build named graphs")
    csub = c.add_subparsers(dest="what", required=True)
    p = csub.add_parser("hts", parents=[common], help="diameter-2 dismantlable family")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--adversary", type=int)
    p = csub.add_parser(
        "hole-gadget", parents=[common], help="apex gadget over a Helly hole"
    )
    p.add_argument("file")

    p = sub.add_parser("simulate", parents=[common], help="run the capture strategy")
    p.add_argument("file")
    p.add_argument(
        "--adversary", choices=("random", "greedy", "optimal"), default="random"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--turn-cap", type=int)
    p.add_argument("--state-cap", type=int)

    # not parented on common: replay renders text unless json is asked for
    p = sub.add_parser("replay", help="render a trace turn by turn")
    p.add_argument("--format", choices=("json", "tsv"), default="tsv")
    p.add_argument("--output", metavar="PATH")
    p.add_argument("trace")

    p = sub.add_parser("validate", parents=[common], help="re-check a trace")
    p.add_argument("trace")

    p = sub.add_parser("play", parents=[common], help="type the robber's moves")
    p.add_argument("file")
    p.add_argument("--turn-cap", type=int)
    return top


def _config(args) -> RunConfig:
    inputs = tuple(
        getattr(args, name) for name in ("file", "trace") if getattr(args, name, None)
    )
    return RunConfig(
        command=args.command,
        inputs=inputs,
        fmt=getattr(args, "format", "json"),
        output=getattr(args, "output", None),
        seed=getattr(args, "seed", 0),
        turn_cap=getattr(args, "turn_cap", None),
        state_cap=getattr(args, "state_cap", None),
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _config(args)
    try:
        if args.command == "helly":
            return cmd_helly(cfg)
        if args.command == "copnumber":
            return cmd_copnumber(cfg, args.max_cops)
        if args.command == "kmove":
            return cmd_copnumber(cfg, args.max_cops, active=args.active)
        if args.command == "shadow":
            return cmd_shadow(cfg, args.subgraph, args.vertex)
        if args.command == "bypaths":
            return cmd_bypaths(cfg, args.path)
        if args.command == "guardable":
            return cmd_guardable(cfg, args.subgraph, args.cops)
        if args.command == "construct" and args.what == "hts":
            return cmd_construct_hts(cfg, args.t, args.s, args.adversary)
        if args.command == "construct":
            return cmd_construct_hole_gadget(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.adversary)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "replay":
            return cmd_replay(cfg)
        return cmd_play(cfg)
    except CliError as e:
        return _error(cfg, e.code, str(e))
    except BudgetExceeded as e:
        # the CLI always passes a budget; name the knob that set it
        e.source = "PURSUIT_STATE_CAP" if cfg.state_cap is None else "--state-cap"
        return _error(cfg, BUDGET, str(e))


if __name__ == "__main__":
    raise SystemExit(main())
