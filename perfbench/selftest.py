"""Tests of the benchmark's own arithmetic, and a tiny-size smoke run of each workload.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pursuit import controllers, helly  # noqa: E402
from pursuit.constructions import petersen  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def recorder(spec):
    """A Recorder holding (name, start, end, parent) spans given in order."""
    rec = spans.Recorder()
    for name, start, end, parent in spec:
        rec.name.append(rec.name_id(name))
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
    return rec


class TailTest(unittest.TestCase):
    def test_under_a_hundred_items_report_the_maximum(self):
        self.assertEqual(measure.tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        self.assertEqual(measure.tail([float(i) for i in range(99)]), (98.0, 100.0))

    def test_value_has_exactly_ten_items_beyond(self):
        for n in (100, 101, 137, 1020):
            times = [float(i) for i in reversed(range(n))]
            value, pct = measure.tail(times)
            self.assertEqual(sum(t > value for t in times), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)
        self.assertEqual(measure.tail([float(i) for i in range(100)]), (89.0, 90.0))


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        got = spans.self_times([0, 1, 2], [10, 6, 3], [-1, 0, 1])
        self.assertEqual(got, [5, 4, 1])

    def test_siblings(self):
        got = spans.self_times([0, 1, 4], [10, 3, 8], [-1, 0, 0])
        self.assertEqual(got, [4, 2, 4])

    def test_overlapping_and_protruding_children_count_once(self):
        self.assertEqual(spans.self_times([0, 1, 3], [10, 5, 7], [-1, 0, 0])[0], 4)
        self.assertEqual(spans.self_times([0, 8], [10, 12], [-1, 0])[0], 8)

    def test_layer_metrics_split_setup_from_rounds(self):
        rec = recorder([
            ("constructions.connected_graphs", 0, 4, -1),  # set-up: counted once
            ("item", 10, 20, -1),
            ("helly.find_hole", 11, 17, 1),
            ("graphs.Graph.bfs_levels", 12, 13, 2),
            ("item", 20, 30, -1),
            ("helly.find_hole", 21, 27, 4),
            ("graphs.Graph.bfs_levels", 22, 23, 5),
        ])
        got = spans.layer_metrics(rec, rounds=2)
        self.assertEqual(got["constructions.corpus_s"], 4)
        self.assertEqual(got["helly.find_hole_s"], 5)
        self.assertEqual(got["graphs.bfs_s"], 1)
        self.assertEqual(got["graphs.bfs_calls"], 1)
        self.assertEqual(got["bench.self_s"], 4)


class RecorderTest(unittest.TestCase):
    def test_open_close_links_parents(self):
        rec = spans.Recorder(clock=FakeClock([0.0, 1.0, 2.0, 3.0]))
        a = rec.open(rec.name_id("a"))
        b = rec.open(rec.name_id("b"))
        rec.close(b)
        rec.close(a)
        self.assertEqual(list(rec.parent), [-1, 0])
        self.assertEqual(list(rec.start), [0.0, 1.0])
        self.assertEqual(list(rec.end), [3.0, 2.0])

    def test_instrument_wraps_imported_copies_and_restores_them(self):
        original = helly.is_helly
        g = petersen()
        rec = spans.Recorder()
        with spans.instrument(rec):
            self.assertIsNot(helly.is_helly, original)
            self.assertIs(controllers.is_helly, helly.is_helly)
            self.assertIs(controllers.is_helly(g), False)
        self.assertIs(helly.is_helly, original)
        self.assertIs(controllers.is_helly, original)
        names = [rec.names[i] for i in rec.name]
        self.assertEqual(names[0], "helly.is_helly")
        self.assertEqual(names.count("graphs.Graph.bfs_levels"), 10)
        self.assertTrue(all(rec.parent[i] == 0 for i in range(1, len(names))))


class LoadTest(unittest.TestCase):
    def test_failed_items_are_counted_against_attempts(self):
        def ok():
            return [3]

        def wrong():
            measure.check(False, "wrong answer")

        def crash():
            raise ValueError("boom")

        load = measure.run_load([("ok", ok), ("wrong", wrong), ("crash", crash)], seconds=0)
        self.assertEqual((load.attempted, load.failed, load.rounds), (3, 2, 1))
        self.assertAlmostEqual(measure.failed_frac(load), 2 / 3)
        self.assertEqual(load.turns, [3])
        self.assertTrue(load.failures[0].startswith("wrong: wrong answer"))

    def test_check_raises_without_assert(self):
        with self.assertRaises(measure.CheckFailed):
            measure.check(False, "x")

    def test_item_timings_come_from_the_median_round(self):
        # two items over three rounds; round 2 was disturbed.  Every kernel
        # took 1/100 s, so one ref_s is one second.
        times = [1.0, 10.0, 1.5, 15.0, 1.1, 11.0]
        starts = [0.0, 1.0, 11.0, 12.5, 27.5, 28.6]
        refs = [(t, 0.01) for t in range(0, 41, 2)]
        load = measure.Load(times=times, starts=starts, per_round=2, rounds=3, refs=refs)
        self.assertEqual(measure.item_medians(times, 2), [1.1, 11.0])
        got = measure.end_to_end(load, [0.5, 0.25, 0.75], peak_rss_mb=1.0)
        self.assertAlmostEqual(got["items_per_ref_s"][0], 2 / 12.1)
        self.assertAlmostEqual(got["item_p50_ref_s"][0], 6.05)
        self.assertAlmostEqual(got["item_tail_ref_s"][0], 11.0)
        self.assertEqual(got["setup_s"][0], 0.5)

    def test_ref_times_divide_by_the_kernels_around_each_item(self):
        # kernels ran at 0.01 s until t=10, then at 0.02 s (a slow period)
        refs = [(t / 4, 0.01 if t < 40 else 0.02) for t in range(0, 81)]
        load = measure.Load(times=[0.5, 1.0, 0.5], starts=[2.0, 14.0, 30.0], refs=refs)
        got = measure.ref_times(load)
        self.assertAlmostEqual(got[0], 0.5)  # fast period: 1 ref_s = 1 s
        self.assertAlmostEqual(got[1], 0.5)  # slow period: 1 ref_s = 2 s
        self.assertAlmostEqual(got[2], 0.25)  # no kernel within 1 s: the nearest

    def test_reference_runs_between_items_and_at_the_end(self):
        load = measure.run_load([("a", lambda: []), ("b", lambda: [])], seconds=0,
                                reference=lambda: None)
        self.assertEqual(len(load.refs), 2)  # before the first item, after the round
        self.assertEqual(len(load.starts), 2)

    def test_whole_rounds_run_while_another_fits(self):
        # the clock ticks once at the start, at each item's start and end,
        # and at each round's end: a round takes 3 ticks
        clock = FakeClock([float(t) for t in range(100)])
        load = measure.run_load([("a", lambda: [])], seconds=10, clock=clock, reference=None)
        self.assertEqual((load.rounds, load.elapsed), (3, 9.0))


class SmokeTest(unittest.TestCase):
    """One round of each workload at tiny sizes, untraced and traced."""

    def test_every_workload_passes_its_checks(self):
        declared = {m["name"] for m in _benchmark()["per_layer"]}
        for name in workloads.NAMES:
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as tmp:
                prepared = workloads.prepare(name, 1, tmp, {}, tiny=True)
                load = measure.run_load(prepared.items, seconds=0)
                self.assertEqual(load.failures, [])
                rec = spans.Recorder()
                with spans.instrument(rec):
                    traced = measure.run_load(prepared.items, seconds=0)
                self.assertEqual(traced.failures, [])
                got = set(spans.layer_metrics(rec, traced.rounds))
                got |= {"trace.overhead_frac", "solver.bytes_per_state"}
                self.assertLessEqual(declared, got)

    def test_recorded_digests_match(self):
        digests = json.load(open(os.path.join(HERE, "digests.json"), encoding="ascii"))
        name = "exact-solve"
        for seed in (digests["dev_seed"], digests["heldout_seed"]):
            with tempfile.TemporaryDirectory() as tmp:
                got = workloads.prepare(name, seed, tmp, digests).digest
            self.assertEqual(got, digests["inputs"][name][str(seed)])


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    unittest.main()
