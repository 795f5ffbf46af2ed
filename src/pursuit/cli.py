"""Command-line front door for the pursuit toolkit.

Corpus files hold one graph6 string per line; blank lines and lines starting
with '#' are skipped, and results keep the input order.  Output goes to
stdout (or --output) as one JSON object per graph, the machine format, or as
a TSV summary.  Every record echoes the seed and budgets that shaped it, so
a run can be reproduced from its output alone.  In json mode errors are JSON
objects on stderr; in tsv mode they are plain lines.

Each subparser names its handler with ``set_defaults(run=...)``.  A corpus
or trace command gives ``_per_item`` its items and an ``answer(i, item)``
that returns one record and its verdict; the driver adds each record's
``index``, writes the records once, reports a library ``ValueError`` as
exit 1 on ``graph i``, and exits 1 when any verdict is negative.  The
count flags --active, --cops, --turn-cap, --state-cap and --max-bypaths
must be at least 1.  The solvers'
budget is --state-cap alone, 50 million states by default; `bypaths`
counts the bypaths first and refuses to list more than --max-bypaths,
10,000 by default.  A refusal exits 3 and says which budget to raise.

`validate` and `replay` read traces with `referee.Trace` and check them with
`referee.validate_trace`, which shares no code with the engine.  The
referee answers a malformed turn record with findings (exit 1); text
`replay` refuses one whose shown fields are missing or mistyped (exit 2).

`simulate` checks each graph against the engine's input contract
(`strategy.check_engine_input`) before it builds an adversary, so a
disconnected or non-planar graph exits 1 before any solve, whatever the
budget.  Its optimal adversary solves the three-cop, two-mover game under
--state-cap and reads its placement and every reply from that table.
--seed drives only the random adversary; the greedy one is deterministic
and ignores it.  Records echo it all the same.

Exit codes: 0 success, 1 negative verdict (unguardable target, cop number
over the cap, trace violations, unplayable input), 2 usage error, 3 budget
refusal.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from pursuit.constructions import TooLarge, build_guard_adversary, build_hole_gadget, build_hts
from pursuit.controllers import GreedyAdversary, OptimalAdversary, RandomAdversary
from pursuit.graphs import Graph, Path, from_graph6, to_graph6
from pursuit.helly import dismantling_order, find_hole
from pursuit.shadows import (
    DEFAULT_BYPATH_BUDGET,
    TooManyBypaths,
    bypaths,
    is_bypath_free,
    wide_shadow,
)
from pursuit.solver import (
    DEFAULT_STATE_BUDGET,
    BudgetExceeded,
    GameSpec,
    cop_number,
    is_guardable,
    solve,
)
from pursuit.referee import Trace, validate_trace
from pursuit.strategy import check_engine_input, run_two_move_strategy

OK = 0
NEGATIVE = 1
USAGE = 2
BUDGET = 3

COUNT_FLAGS = ("active", "cops", "turn_cap", "state_cap", "max_bypaths")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# -- input and output plumbing ---------------------------------------------------


def _read_lines(path: str) -> list[str]:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
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


def _write(args, records: list[dict], columns: list[str] | None) -> None:
    """json lines, or a tsv table of columns; a construction passes no
    columns and its tsv is each record's bare graph6, or "-" for none, so
    the output pipes straight into another command."""
    if args.format == "json":
        lines = [json.dumps(r, sort_keys=True) for r in records]
    elif columns is None:
        lines = [r["graph6"] or "-" for r in records]
    else:
        lines = ["\t".join(columns)]
        lines += ["\t".join(_cell(r.get(c)) for c in columns) for r in records]
    _write_raw(args, lines)


def _write_raw(args, lines: list[str]) -> None:
    text = "".join(ln + "\n" for ln in lines)
    if args.output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise CliError(USAGE, f"cannot write {args.output}: {e}") from e


def _error(args, code: int, message: str) -> int:
    if args.format == "json":
        obj = {"error": {"code": code, "command": args.command, "message": message}}
        sys.stderr.write(json.dumps(obj, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error: {message}\n")
    return code


def _per_item(args, items, answer, columns: list[str] | None) -> int:
    """Write answer(i, item)'s record, with its index i, for each item; exit
    1 on any negative verdict."""
    records = []
    worst = OK
    for i, item in enumerate(items):
        try:
            record, ok = answer(i, item)
        except ValueError as e:
            raise CliError(NEGATIVE, f"graph {i}: {e}") from e
        if not ok:
            worst = NEGATIVE
        record["index"] = i
        records.append(record)
    _write(args, records, columns)
    return worst


# -- corpus queries ---------------------------------------------------------------


def cmd_helly(args) -> int:
    def answer(i: int, g: Graph):
        hole = find_hole(g)
        order = dismantling_order(g)
        return {
            "n": g.n,
            "helly": hole is None,
            "hole_centers": None if hole is None else list(hole.centers),
            "hole_radii": None if hole is None else list(hole.radii),
            "dismantling": None if order is None else [list(p) for p in order],
        }, True

    columns = ["index", "n", "helly", "hole_centers", "hole_radii", "dismantling"]
    return _per_item(args, _read_corpus(args.file), answer, columns)


def cmd_copnumber(args) -> int:
    def answer(i: int, g: Graph):
        c = cop_number(g, args.max_cops, active_cap=args.active, budget=args.state_cap)
        rec = {
            "n": g.n,
            "cop_number": c,
            "max_cops": args.max_cops,
            "state_cap": args.state_cap,
        }
        if args.active is not None:
            rec["active"] = args.active
        return rec, c is not None

    columns = ["index", "n", "cop_number", "max_cops", "state_cap"]
    if args.active is not None:
        columns.insert(3, "active")
    return _per_item(args, _read_corpus(args.file), answer, columns)


def cmd_shadow(args) -> int:
    target = _vertex_list(args.subgraph)

    def answer(i: int, g: Graph):
        _check_range(g, target + (args.vertex,), i)
        return {
            "n": g.n,
            "subgraph": sorted(set(target)),
            "vertex": args.vertex,
            "shadow": sorted(wide_shadow(g, target, args.vertex)),
        }, True

    columns = ["index", "n", "subgraph", "vertex", "shadow"]
    return _per_item(args, _read_corpus(args.file), answer, columns)


def cmd_bypaths(args) -> int:
    pv = _vertex_list(args.path)

    def answer(i: int, g: Graph):
        _check_range(g, pv, i)
        p = Path(pv)
        return {
            "n": g.n,
            "path": list(pv),
            "bypaths": [list(q.vertices) for q in bypaths(g, p, budget=args.max_bypaths)],
            "bypath_free": is_bypath_free(g, p),
            "max_bypaths": args.max_bypaths,
        }, True

    columns = ["index", "n", "path", "bypath_free", "bypaths", "max_bypaths"]
    return _per_item(args, _read_corpus(args.file), answer, columns)


def cmd_guardable(args) -> int:
    target = _vertex_list(args.subgraph)

    def answer(i: int, g: Graph):
        _check_range(g, target, i)
        ok = is_guardable(g, target, args.cops, budget=args.state_cap)
        return {
            "n": g.n,
            "subgraph": sorted(set(target)),
            "cops": args.cops,
            "guardable": ok,
            "state_cap": args.state_cap,
        }, ok

    columns = ["index", "n", "subgraph", "cops", "guardable", "state_cap"]
    return _per_item(args, _read_corpus(args.file), answer, columns)


# -- constructions ----------------------------------------------------------------


def cmd_construct_hts(args) -> int:
    try:
        g, desc = build_hts(args.t, args.s)
        gadget = None if args.adversary is None else build_guard_adversary(g, desc, args.adversary)
    except TooLarge as e:
        raise CliError(
            BUDGET, f"{e}; fewer private vertices or a smaller core keep it materializable"
        ) from e
    except ValueError as e:
        raise CliError(USAGE, str(e)) from e
    rec = {"construct": "hts", "t": args.t, "s": args.s, "n": g.n, "graph6": to_graph6(g)}
    if gadget is not None:
        if not gadget.explicit:
            raise CliError(
                BUDGET,
                "explicit adversary gadget too large; fewer private vertices "
                "or a smaller core keep it materializable",
            )
        rec["adversary"] = args.adversary
        rec["apex_count"] = len(gadget.transversals)
        rec["n"] = gadget.graph.n
        rec["graph6"] = to_graph6(gadget.graph)
    _write(args, [rec], None)
    return OK


def cmd_construct_hole_gadget(args) -> int:
    def answer(i: int, g: Graph):
        hole = find_hole(g)
        if hole is None:
            return {"n": g.n, "graph6": None, "reason": "graph is Helly"}, False
        gg = build_hole_gadget(g, hole)
        return {
            "n": gg.n,
            "graph6": to_graph6(gg),
            "hole_centers": list(hole.centers),
            "hole_radii": list(hole.radii),
        }, True

    return _per_item(args, _read_corpus(args.file), answer, None)


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


def cmd_simulate(args) -> int:
    def answer(i: int, g: Graph):
        e, cap = check_engine_input(g, turn_cap=args.turn_cap)
        adv = _make_adversary(args.adversary, g, args.seed, args.state_cap)
        tr = run_two_move_strategy(g, e, adv, cap)
        return {
            "graph": tr.graph,
            "turns": list(tr.turns),
            "verdict": tr.verdict,
            "adversary": args.adversary,
            "seed": args.seed,
            "turn_cap": cap,
            "state_cap": args.state_cap,
            "n": g.n,
            "outcome": tr.verdict.get("outcome"),
            "turn": tr.verdict.get("turn"),
        }, tr.captured

    columns = ["index", "n", "adversary", "seed", "turn_cap", "state_cap", "outcome", "turn"]
    return _per_item(args, _read_corpus(args.file), answer, columns)


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


def cmd_validate(args) -> int:
    def answer(i: int, item: tuple[Graph, Trace]):
        g, tr = item
        viol = validate_trace(g, tr)
        return {
            "n": g.n,
            "outcome": tr.verdict.get("outcome"),
            "ok": not viol,
            "violations": viol,
        }, not viol

    columns = ["index", "n", "outcome", "ok", "violations"]
    return _per_item(args, _read_traces(args.trace), answer, columns)


def _render_turn(rec: dict) -> str:
    """One replay line; ValueError when a field it shows is missing or mistyped."""
    cops, robber, note = rec.get("cops"), rec.get("robber"), rec.get("note")
    milestone = isinstance(note, dict) and "case" in note
    if not (
        type(rec.get("t")) is int
        and isinstance(rec.get("mover"), str)
        and isinstance(cops, list)
        and all(type(c) is int for c in cops)
        and (robber is None or type(robber) is int)
        and (not milestone or (type(note.get("territory")) is int and isinstance(note.get("guards"), list)))
    ):
        raise ValueError("fields t, mover, cops, robber or note are missing or malformed")
    shown = "-" if robber is None else str(robber)
    line = f"  t{rec['t']:>4} {rec['mover']:<12} cops {','.join(map(str, cops))} robber {shown}"
    if milestone:
        line += f"  case={note['case']} territory={note['territory']} guards={len(note['guards'])}"
    return line


def cmd_replay(args) -> int:
    if args.format == "json":
        return cmd_validate(args)
    lines = []
    worst = OK
    for i, (g, tr) in enumerate(_read_traces(args.trace)):
        lines.append(f"trace {i}: n={g.n} graph {tr.graph}")
        for k, rec in enumerate(tr.turns):
            try:
                lines.append(_render_turn(rec))
            except ValueError as e:
                raise CliError(USAGE, f"{args.trace} trace {i} turn {k}: {e}") from e
        lines.append(f"  verdict: {json.dumps(tr.verdict, sort_keys=True)}")
        viol = validate_trace(g, tr)
        if viol:
            worst = NEGATIVE
            lines.extend(f"  violation: {v}" for v in viol)
        else:
            lines.append("  violations: none")
    _write_raw(args, lines)
    return worst


# -- interactive play --------------------------------------------------------------


class _HumanRobber:
    """Robber controller that asks the terminal for each move."""

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


def cmd_play(args) -> int:
    g = _read_corpus(args.file)[0]
    try:
        tr = run_two_move_strategy(g, adversary=_HumanRobber(g), turn_cap=args.turn_cap)
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


@functools.cache  # one parser per process: building the subparsers costs ~2 ms a call
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pursuit",
        description="graph pursuit-evasion: recognition, exact values, strategies",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default="json")
    common.add_argument("--output", metavar="PATH")
    sub = top.add_subparsers(dest="command", required=True)

    def command(subs, name, run, help, positional="file", parents=(common,), **defaults):
        p = subs.add_parser(name, parents=list(parents), help=help)
        p.set_defaults(run=run, **defaults)
        if positional:
            p.add_argument(positional)
        return p

    command(sub, "helly", cmd_helly, "Helly verdicts with witnesses")

    p = command(sub, "copnumber", cmd_copnumber, "exact cop number", active=None)
    p.add_argument("--max", type=int, required=True, dest="max_cops")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_BUDGET)

    p = command(sub, "kmove", cmd_copnumber, "cop number with a move cap")
    p.add_argument("--active", type=int, required=True)
    p.add_argument("--max", type=int, required=True, dest="max_cops")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_BUDGET)

    p = command(sub, "shadow", cmd_shadow, "wide shadow of a vertex")
    p.add_argument("--subgraph", required=True, metavar="V1,V2,...")
    p.add_argument("--vertex", type=int, required=True)

    p = command(sub, "bypaths", cmd_bypaths, "bypaths of an isometric path")
    p.add_argument("--path", required=True, metavar="V1,V2,...")
    p.add_argument("--max-bypaths", type=int, default=DEFAULT_BYPATH_BUDGET)

    p = command(sub, "guardable", cmd_guardable, "subgraph guardability")
    p.add_argument("--subgraph", required=True, metavar="V1,V2,...")
    p.add_argument("--cops", type=int, required=True)
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_BUDGET)

    c = sub.add_parser("construct", help="build named graphs")
    csub = c.add_subparsers(dest="what", required=True)
    p = command(csub, "hts", cmd_construct_hts, "diameter-2 dismantlable family", None)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--adversary", type=int)
    command(csub, "hole-gadget", cmd_construct_hole_gadget, "apex gadget over a Helly hole")

    p = command(sub, "simulate", cmd_simulate, "run the capture strategy")
    p.add_argument(
        "--adversary", choices=("random", "greedy", "optimal"), default="random"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--turn-cap", type=int)
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_BUDGET)

    # not parented on common: replay renders text unless json is asked for
    p = command(sub, "replay", cmd_replay, "render a trace turn by turn", "trace", ())
    p.add_argument("--format", choices=("json", "tsv"), default="tsv")
    p.add_argument("--output", metavar="PATH")

    command(sub, "validate", cmd_validate, "re-check a trace", "trace")

    p = command(sub, "play", cmd_play, "type the robber's moves")
    p.add_argument("--turn-cap", type=int)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for flag in COUNT_FLAGS:
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise CliError(USAGE, f"--{flag.replace('_', '-')} must be at least 1")
        return args.run(args)
    except CliError as e:
        return _error(args, e.code, str(e))
    except BudgetExceeded as e:
        return _error(args, BUDGET, f"{e}; raise --state-cap to proceed")
    except TooManyBypaths as e:
        return _error(args, BUDGET, f"{e}; raise --max-bypaths to proceed")


if __name__ == "__main__":
    raise SystemExit(main())
