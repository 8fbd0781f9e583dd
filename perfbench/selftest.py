#!/usr/bin/env python3
"""Self-tests of the benchmark's own machinery (a few seconds).

    python3 perfbench/selftest.py

They cover the correctness gate, the worker per round, the tracer's
handling of absent layers and rebinding, self-time accounting and the
determinism of the inputs.
"""

from __future__ import annotations

import os
import sys
import time
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

g = run.import_package()


def _composition(rnd) -> Counter:
    return Counter(item.stratum for item in rnd)


class CorrectnessGate(unittest.TestCase):
    def test_wrong_expected_value_fails_the_run(self):
        good = workloads.Item("wedge", "len2", ((3, 3),), 4)
        bad = workloads.Item("wedge", "len2", ((3, 3),), 5)
        m = run.measure([[good, bad]], lambda item: workloads.run_item(g, item), 0.0)
        self.assertEqual((m.attempted, m.failed), (2, 1))
        self.assertIn("Mismatch", m.errors[0])
        self.assertNotEqual(run.exit_code(m), 0)

    def test_wrong_unpaired_size_fails(self):
        item = workloads.Item("unpaired", "n3.r1", (3, 1), (12, 3, 11))
        with self.assertRaises(workloads.Mismatch):
            workloads.run_item(g, item)

    def test_exception_counts_as_failure(self):
        def explode(item):
            raise ValueError("boom")

        item = workloads.Item("wedge", "len1", ((1,),), 0)
        m = run.measure([[item]], explode, 0.0)
        self.assertEqual(m.failed, 1)
        self.assertEqual(run.exit_code(m), 1)

    def test_correct_items_pass(self):
        rounds = workloads.make_rounds(g, "wedge", 7)
        small = [[item for item in rounds[0] if len(item.args[0]) <= 2]]
        m = run.measure(small, lambda item: workloads.run_item(g, item), 0.0)
        self.assertEqual(m.failed, 0)
        self.assertEqual(m.attempted, 14)  # one per multiset of length 1 and 2


class Workers(unittest.TestCase):
    def test_rounds_do_not_share_state(self):
        seen = []

        def remember(item):
            seen.append(item)
            if len(seen) > 2:
                raise AssertionError("state of an earlier round leaked into this one")

        item = workloads.Item("wedge", "len1", ((1,),), 0)
        m = run.measure([[item, item]] * 3, remember, 0.0)
        self.assertEqual((m.rounds, m.attempted, m.failed), (1, 2, 0))
        m = run.traced_pass([[item, item]], remember, count=3)[1]
        self.assertEqual((m.rounds, m.failed), (3, 0))
        self.assertEqual(seen, [])  # nothing ran in this process

    def test_dead_worker_is_an_error(self):
        item = workloads.Item("wedge", "len1", ((1,),), 0)
        with self.assertRaises(run.WorkerError):
            run.measure([[item]], lambda item: os._exit(7), 0.0)

    def test_failed_setup_probe_is_a_setup_error(self):
        with self.assertRaises(run.SetupError):
            run.setup_probe("no_such_workload", 1)

    def test_traced_rounds_are_counted_per_round(self):
        item = workloads.make_rounds(g, "visibility", 5)[0][0]
        run_item = lambda item: workloads.run_item(g, item)  # noqa: E731
        plain, traced = run.traced_pass([[item]], run_item, count=1)
        once = traced.done[0].layers
        self.assertEqual((plain.attempted, plain.failed), (1, 0))
        self.assertGreater(once.counters["factors.canonical_pair.distinct"], 0)
        _, traced = run.traced_pass([[item]], run_item, count=2)
        acc = tracer.Accounting()
        for r in traced.done:
            acc.add(r.layers)
        for key in ("factors.canonical_pair.distinct", "kernels.visible_words"):
            self.assertEqual(acc.counters[key], 2 * once.counters[key], key)
        self.assertEqual(acc.calls, Counter({k: 2 * v for k, v in once.calls.items()}))
        self.assertEqual(sum(acc.self_ns.values()) + acc.residual_ns, acc.wall_ns)


class TracerBinding(unittest.TestCase):
    def test_missing_functions_are_absent_layers(self):
        targets = (tracer.Target("no_such_module", "f"),
                   tracer.Target("topology", "no_such_function"),
                   tracer.Target("topology", "NoSuchClass.method"),
                   tracer.Target("topology", "Poset.no_such_method"),
                   tracer.Target("membership", "is_basis"))
        tr = tracer.Tracer(targets).install()
        try:
            self.assertEqual(tr.absent, [t.label for t in targets[:4]])
            self.assertTrue(g.is_basis(list(g.generators(3))))
        finally:
            tr.uninstall()
        self.assertEqual(tr.spans()[0][0], "membership.is_basis")

    def test_rebinds_every_import_site_and_restores(self):
        import grushko.membership
        import grushko.verify

        original = grushko.membership.is_basis
        tr = tracer.Tracer().install()
        try:
            for holder in (g, grushko.membership, grushko.verify):
                self.assertIsNot(holder.is_basis, original)
            g.verify_wedge((2, 2))
        finally:
            tr.uninstall()
        for holder in (g, grushko.membership, grushko.verify):
            self.assertIs(holder.is_basis, original)
        names = {name for name, *_ in tr.spans()}
        self.assertLessEqual({"topology.verify_wedge", "topology.Poset.order_complex",
                              "topology.matrix_rank.Q", "topology.matrix_snf"}, names)
        self.assertEqual(tr.counters["topology.ChainComplex.builds"], 4)
        self.assertEqual(tr.counters["topology.complexes"], 1)


class SelfTime(unittest.TestCase):
    SPANS = [
        # name, start, end, parent
        ("visibility.bp_fiber", 10, 100, -1),          # 0
        ("factors.canonical_pair", 20, 30, 0),         # 1
        ("visibility.is_visible", 40, 70, 0),          # 2
        ("factors.canonical_pair", 45, 50, 2),         # 3
        ("factors.canonical_pair", 51, 60, 2),         # 4
        ("membership.is_basis", 120, 150, -1),         # 5
        ("membership.fold", 125, 145, 5),              # 6
    ]

    def test_self_times_sum_to_wall(self):
        acc = tracer.account(self.SPANS, 200)
        self.assertEqual(acc.self_ns, Counter({"visibility": 90 - 10 - 30 + 30 - 14,
                                               "factors": 10 + 5 + 9,
                                               "membership": 30}))
        self.assertEqual(acc.residual_ns, 200 - 90 - 30)
        self.assertEqual(sum(acc.self_ns.values()) + acc.residual_ns, 200)
        self.assertEqual(acc.calls["factors.canonical_pair"], 3)
        self.assertEqual(acc.busy_ns["factors.canonical_pair"], 24)

    def test_recorded_spans_account_for_traced_wall(self):
        tr = tracer.Tracer().install()
        try:
            t0 = time.perf_counter_ns()
            g.verify_wedge((2, 3))
            g.visible_classes(g.caterpillar(4), 1)
            wall = time.perf_counter_ns() - t0
        finally:
            tr.uninstall()
        acc = tracer.account(tr.spans(), wall)
        self.assertEqual(sum(acc.self_ns.values()) + acc.residual_ns, wall)
        self.assertGreaterEqual(acc.residual_ns, 0)


class Determinism(unittest.TestCase):
    def test_same_seed_same_items(self):
        for w in workloads.WORKLOADS:
            a = workloads.make_rounds(g, w, 11)
            b = workloads.make_rounds(g, w, 11)
            self.assertEqual([[i.key() for i in r] for r in a],
                             [[i.key() for i in r] for r in b], w)

    def test_other_seed_other_sample_same_mix(self):
        for w in workloads.WORKLOADS:
            a = workloads.make_rounds(g, w, 11)
            b = workloads.make_rounds(g, w, 12)
            self.assertNotEqual([i.key() for i in a[0]], [i.key() for i in b[0]], w)
            mix = _composition(a[0])
            for rnd in a + b:
                self.assertEqual(_composition(rnd), mix, w)

    def test_mix_examples(self):
        vis = _composition(workloads.make_rounds(g, "visibility", 3)[0])
        self.assertEqual(vis["n5.p1"] + vis["n5.p2"], 16)
        wedge = workloads.make_rounds(g, "wedge", 3)[0]
        self.assertEqual(sum(len(i.args[0]) == 4 for i in wedge), len(workloads.WEDGE_LEN4))
        self.assertEqual(sum(len(i.args[0]) < 4 for i in wedge), 34)
        other = workloads.make_rounds(g, "wedge", 4)[0]
        self.assertNotEqual({i.args for i in wedge}, {i.args for i in other})


if __name__ == "__main__":
    unittest.main()
