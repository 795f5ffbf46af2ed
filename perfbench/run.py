"""Benchmark of the pursuit package: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload grid-chase --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the run exits 2 before printing a result.  One
workload runs per process, single-threaded.  Set-up (importing pursuit and
building the inputs) is timed five times, once here and once in each of
four fresh interpreters run one after the other, and ``setup_s`` is their
median.  The load then runs whole rounds of the workload's items for about
``--seconds`` (at least one round), timing each item and checking every
answer.  items_per_ref_s, item_p50_ref_s and item_tail_ref_s are read from
the median round, each item taking its median time over the run's rounds,
in reference seconds (see measure.py); their wall-clock counterparts are
printed and recorded beside them.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the load untraced for half the time and traced for
the other half, and reports per-layer self times and counters for one
set-up plus one round, with the tracing overhead.  Either way the last line
of stdout is one JSON object: correct, attempted, failed, metrics.  A
record of the run (metadata, all metrics, failures) is written under
``.perfbench/runs/``, and a traced run writes its spans beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
NAMES = ("triangulation-campaign", "grid-chase", "exact-solve", "corpus-census")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh interpreter and print it as JSON
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _use_source_tree() -> None:
    """Put src/ first on the path; refuse to run against any other pursuit."""
    if not os.path.isfile(os.path.join(SRC, "pursuit", "__init__.py")):
        sys.stderr.write(f"perfbench: no pursuit package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)


def _check_import(pursuit_module) -> None:
    where = os.path.dirname(os.path.abspath(pursuit_module.__file__))
    if where != os.path.join(SRC, "pursuit"):
        sys.stderr.write(f"perfbench: imported pursuit from {where}, not {SRC}\n")
        raise SystemExit(2)


def _load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="ascii") as fh:
        return json.load(fh)


# -- metadata -----------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    direct = _read(os.path.join(ROOT, ".git", ref)).strip()
    if direct:
        return direct
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "pursuit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def metadata(args, digests: dict) -> dict:
    import networkx

    from pursuit import solver

    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
         if ln.startswith("model name")),
        platform.processor() or None,
    )
    mem_kb = next(
        (int(ln.split()[1]) for ln in _read("/proc/meminfo").splitlines()
         if ln.startswith("MemTotal:")),
        None,
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "dev_seed": digests["dev_seed"],
        "heldout_seed": digests["heldout_seed"],
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "mem_total_mb": None if mem_kb is None else round(mem_kb / 1024),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "state_budget": solver.state_budget(),
        "PURSUIT_STATE_CAP": os.environ.get("PURSUIT_STATE_CAP"),
    }


# -- set-up ---------------------------------------------------------------------


def _workdir() -> str:
    path = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def _timed_setup(args, digests: dict, workdir: str):
    """Import pursuit and build the inputs; the clock covers both."""
    t0 = time.perf_counter()
    import pursuit
    import workloads

    prepared = workloads.prepare(args.workload, args.seed, workdir, digests)
    elapsed = time.perf_counter() - t0
    _check_import(pursuit)
    return prepared, elapsed


def _child_setup(args) -> float:
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up in a fresh interpreter exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _digest_problem(name: str, seed: int, prepared, digests: dict) -> str | None:
    want = digests["inputs"].get(name, {}).get(str(seed))
    if want is None or prepared.digest is None or prepared.digest == want:
        return None
    return f"inputs of {name} seed {seed} hash to {prepared.digest}, recorded {want}"


# -- the two kinds of run ---------------------------------------------------------


def run_untraced(args, digests: dict, workdir: str) -> tuple[dict, dict]:
    import measure

    prepared, first = _timed_setup(args, digests, workdir)
    samples = [first] + [_child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    problem = _digest_problem(args.workload, args.seed, prepared, digests)
    load = measure.run_load(prepared.items, args.seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = measure.end_to_end(load, samples, peak)
    wall = measure.item_medians(load.times, load.per_round)
    tail_s, tail_pct = measure.tail(wall)
    kernel_s = statistics.median(d for _, d in load.refs)
    record = {
        "setup_samples_s": samples,
        "inputs_sha256": prepared.digest,
        "input_problem": problem,
        "items": load.attempted,
        "rounds": load.rounds,
        "elapsed_s": load.elapsed,
        "games": len(load.turns),
        "failed_frac": measure.failed_frac(load),
        "item_tail_percentile": tail_pct,
        "failures": load.failures[:20],
        # (label, start, wall time) of every item, on the same clock as ref_kernels
        "item_s": list(zip(load.labels, load.starts, load.times)),
        "ref_kernels": load.refs,
        "ref_kernel_median_s": kernel_s,
        "wall": {
            "items_per_s": len(wall) / sum(wall),
            "item_p50_s": statistics.median(wall),
            "item_tail_s": tail_s,
        },
    }
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines = [
        ln + (f"  (p{tail_pct:.4g} of {load.per_round} items, each its median over {load.rounds} rounds)"
              if ln.startswith("item_tail_ref_s") else "")
        for ln in lines
    ]
    lines.append(f"failed_frac = {record['failed_frac']:.6g}  ({load.failed} of {load.attempted} items)")
    lines.append(
        f"wall clock, same median round: items_per_s = {record['wall']['items_per_s']:.6g} 1/s, "
        f"item_p50_s = {record['wall']['item_p50_s']:.6g} s, item_tail_s = {tail_s:.6g} s; "
        f"1 ref_s = {kernel_s * measure.REF_KERNELS_PER_REF_S:.6g} s in this run"
    )
    record["lines"] = lines
    return _result(load, problem, metrics), record


def run_traced(args, digests: dict, workdir: str) -> tuple[dict, dict]:
    import tracemalloc

    import measure
    import pursuit
    import spans
    import workloads
    from pursuit.solver import solve

    _check_import(pursuit)
    rec = spans.Recorder()
    with spans.instrument(rec):
        prepared = workloads.prepare(args.workload, args.seed, workdir, digests)
    problem = _digest_problem(args.workload, args.seed, prepared, digests)
    # One untraced round to warm up (the first round in a process also pays
    # for growing its heap), then an untraced load and the same load traced.
    measure.run_load(prepared.items, 0, reference=None)
    half = args.seconds / 2
    plain = measure.run_load(prepared.items, half)

    item_id = rec.name_id(spans.ITEM)

    def in_span(fn):
        idx = rec.open(item_id)
        try:
            return fn()
        finally:
            rec.close(idx)

    rec.counters.clear()
    with spans.instrument(rec):
        traced = measure.run_load(prepared.items, half, on_item=in_span)
    layers = spans.layer_metrics(rec, traced.rounds)
    # per-item time of whole rounds, in reference seconds, traced over untraced
    layers["trace.overhead_frac"] = (
        (sum(measure.ref_times(traced)) / traced.attempted)
        / (sum(measure.ref_times(plain)) / plain.attempted) - 1
    )
    spec = workloads.memory_probe(args.workload)
    layers["solver.bytes_per_state"] = 0.0
    if spec is not None:
        tracemalloc.start()
        try:
            _, table = solve(spec)
            layers["solver.bytes_per_state"] = tracemalloc.get_traced_memory()[1] / len(table.rank)
        finally:
            tracemalloc.stop()
        del table

    metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in _load_benchmark()["per_layer"]}
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    rec.write(os.path.join(OUT, "runs", f"{_stem(args)}.spans.json.gz"))
    both = measure.Load(times=plain.times + traced.times, failures=plain.failures + traced.failures)
    record = {
        "inputs_sha256": prepared.digest,
        "input_problem": problem,
        "phases": {
            phase: {"items": load.attempted, "rounds": load.rounds, "elapsed_s": load.elapsed}
            for phase, load in (("untraced", plain), ("traced", traced))
        },
        "spans": len(rec.name),
        "per_layer": layers,
        "failures": both.failures[:20],
        "lines": [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()],
    }
    return _result(both, problem, metrics), record


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _result(load, problem: str | None, metrics: dict) -> dict:
    return {
        "correct": load.failed == 0 and problem is None,
        "attempted": load.attempted,
        "failed": load.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        out = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not out:
            sys.stderr.write(proc.stderr)
            return 2
        print(f"[{name}]")
        for line in out[:-1]:
            print(f"  {line}")
        res = json.loads(out[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    _use_source_tree()
    if args.workload == "all":
        return run_all(args)
    digests = _load_digests()
    workdir = _workdir()
    try:
        if args.setup_only:
            _, elapsed = _timed_setup(args, digests, workdir)
            print(json.dumps({"setup_s": elapsed}))
            return 0
        if args.trace:
            result, record = run_traced(args, digests, workdir)
        else:
            result, record = run_untraced(args, digests, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"meta": metadata(args, digests), **record, "result": result}
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    with open(os.path.join(OUT, "runs", f"{_stem(args)}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in record["lines"]:
        print(line)
    for failure in record["failures"]:
        sys.stderr.write(f"failed: {failure}\n")
    if record["input_problem"]:
        sys.stderr.write(f"failed: {record['input_problem']}\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
