"""The timed load and the arithmetic of the end-to-end metrics.

Item times are reported in reference seconds (ref_s).  On the shared
2-vCPU virtual machine (Intel Xeon under KVM) the benchmark was tuned on,
the CPU switches, for seconds to minutes at a time, between a fast and a
slow state about 1.6x apart, and a whole run can fall in either, so wall
times of identical runs spread further than any useful regression bound.
The load therefore runs a fixed pure-Python reference kernel between items,
at most every quarter second, and divides each item's wall time by the time
of REF_KERNELS_PER_REF_S kernels measured around it.  Both slow down
together: over 40 rounds of grid-chase the round times spread 0.23
(quartile distance over median) in wall seconds and 0.07 in reference
seconds.  Memory-bound work follows the kernel less closely (the grid solve
slows about 0.8 as much).  What slows the kernel as much as the items, such
as a thread the program leaves running, does not show in reference seconds;
the wall times stay in the run record.
"""

from __future__ import annotations

import bisect
import statistics
import time
import traceback
from dataclasses import dataclass, field

TAIL_BEYOND = 10
TAIL_MIN_ITEMS = 100  # smallest n whose tail percentile reaches p90
REF_EVERY_S = 0.25  # reference kernel cadence during the load
REF_WINDOW_S = 1.0  # an item's speed is read from the kernels this close to it
REF_KERNELS_PER_REF_S = 100  # one ref_s is the time of this many kernels
REF_KERNEL_N = 20000


def reference_kernel(n: int = REF_KERNEL_N) -> int:
    """Fixed pure-Python work: dict probes and stores, tuples, list appends.

    It uses nothing from pursuit, so no change to the package changes it.
    It takes 4.5-8 ms on the machine described above.
    """
    table: dict[int, int] = {}
    out = []
    acc = 0
    for i in range(n):
        k = (i * 7919) & 1023
        v = table.get(k)
        if v is None:
            table[k] = i
        else:
            acc += v & 255
            table[k] = v + 1
        if i & 15 == 0:
            out.append((k, acc))
    return acc + len(out)


class CheckFailed(Exception):
    """An answer the benchmark checks came out wrong."""


def check(ok: bool, message: str) -> None:
    """Explicit answer check; unlike ``assert`` it survives ``python -O``."""
    if not ok:
        raise CheckFailed(message)


@dataclass
class Load:
    """Outcome of running whole rounds of a workload's items."""

    times: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    turns: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    per_round: int = 0
    rounds: int = 0
    elapsed: float = 0.0
    # (midpoint, duration) of each reference kernel run during the load
    refs: list[tuple[float, float]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_load(
    items, seconds: float, on_item=None, clock=time.perf_counter, reference=reference_kernel
) -> Load:
    """Run whole rounds of ``items`` while another round is expected to fit.

    Every run does at least one round, so each metric covers whole rounds
    and the same inputs whatever the machine's speed.  An item is a
    ``(label, fn)`` pair; ``fn()`` returns the cop turns of the games it
    played.  Any exception, a failed check included, fails the item.
    ``on_item`` wraps each call (the traced run opens a span there).
    ``reference`` runs between items at most every REF_EVERY_S, and once
    more at the end; pass None to run none.
    """
    load = Load(per_round=len(items))

    def run_reference() -> None:
        r0 = clock()
        reference()
        r1 = clock()
        load.refs.append(((r0 + r1) / 2, r1 - r0))

    start = clock()
    last_ref = None
    while True:
        for label, fn in items:
            if reference is not None and (last_ref is None or clock() - last_ref >= REF_EVERY_S):
                run_reference()
                last_ref = load.refs[-1][0]
            t0 = clock()
            try:
                turns = fn() if on_item is None else on_item(fn)
            except CheckFailed as e:
                load.failures.append(f"{label}: {e}")
            except Exception:  # a crash fails the item; its traceback is kept
                load.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            else:
                load.turns.extend(turns)
            load.times.append(clock() - t0)
            load.starts.append(t0)
            load.labels.append(label)
        load.rounds += 1
        load.elapsed = clock() - start
        if load.elapsed + load.elapsed / load.rounds > seconds:
            if reference is not None:
                run_reference()
            return load


def ref_times(load: Load) -> list[float]:
    """Each item's wall time in reference seconds.

    The divisor is the median duration of the reference kernels run within
    REF_WINDOW_S of the item (the nearest one if none is), times
    REF_KERNELS_PER_REF_S.
    """
    mids = [m for m, _ in load.refs]
    out = []
    for t0, dt in zip(load.starts, load.times):
        lo = bisect.bisect_left(mids, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(mids, t0 + dt + REF_WINDOW_S)
        if lo == hi:
            near = min(range(len(mids)), key=lambda i: abs(mids[i] - t0))
            lo, hi = near, near + 1
        kernel = statistics.median(d for _, d in load.refs[lo:hi])
        out.append(dt / (kernel * REF_KERNELS_PER_REF_S))
    return out


def item_medians(times: list[float], per_round: int) -> list[float]:
    """Each item's median time over the run's rounds, in round order.

    This is the median round: one slow round, or a kernel run that was
    itself disturbed, does not move it.
    """
    return [statistics.median(times[i::per_round]) for i in range(per_round)]


def tail(times: list[float]) -> tuple[float, float]:
    """Item time at the highest percentile with at least ten items beyond it.

    Returns (value, percentile).  With n sorted times the value at index
    n - 11 has exactly ten items above it, which puts it at percentile
    100 * (n - 10) / n.  Below 100 items that percentile drops under p90
    and, below 21, under the median, so there the maximum is reported as
    percentile 100.
    """
    s = sorted(times)
    n = len(s)
    if n < TAIL_MIN_ITEMS:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def failed_frac(load: Load) -> float:
    return load.failed / load.attempted if load.attempted else 0.0


def end_to_end(load: Load, setup_samples: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics of an untraced load, as {name: (value, unit)}.

    The three item timings are read from the median round in reference
    seconds: items_per_ref_s is its items over its total time,
    item_p50_ref_s and item_tail_ref_s are the median and the tail of its
    item times.  setup_s is the median of the set-up samples, in seconds.
    """
    medians = item_medians(ref_times(load), load.per_round)
    tail_s, _ = tail(medians)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "items_per_ref_s": (len(medians) / sum(medians), "1/ref_s"),
        "item_p50_ref_s": (statistics.median(medians), "ref_s"),
        "item_tail_ref_s": (tail_s, "ref_s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "capture_turns_mean": (
            statistics.fmean(load.turns) if load.turns else 0.0,
            "turns",
        ),
    }
