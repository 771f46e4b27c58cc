"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import gc
import inspect
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from harness import (  # noqa: E402
    percentile,
    self_times,
    supported_percentile,
    tail,
    valid_name,
    valid_unit,
)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class SelfTimeTest(unittest.TestCase):

    def test_nested_children_are_subtracted_once(self):
        # root [0, 10] > child [1, 4] > grandchild [2, 3]; child [5, 6]
        starts, ends, parents = [0, 1, 2, 5], [10, 4, 3, 6], [-1, 0, 1, 0]
        self.assertEqual(self_times(starts, ends, parents), [6, 2, 1, 1])

    def test_overlapping_siblings_are_merged(self):
        # children [1, 5] and [3, 7] cover [1, 7] of the parent
        starts, ends, parents = [0, 1, 3], [10, 5, 7], [-1, 0, 0]
        self.assertEqual(self_times(starts, ends, parents)[0], 4)

    def test_children_crossing_the_call_boundary_are_clipped(self):
        # one child starts before its parent, one outlives it
        starts, ends, parents = [2, 0, 6], [8, 3, 12], [-1, 0, 0]
        self.assertEqual(self_times(starts, ends, parents), [3, 3, 6])

    def test_contained_sibling_does_not_move_coverage_back(self):
        starts, ends, parents = [0, 1, 2, 6], [10, 5, 3, 7], [-1, 0, 0, 0]
        self.assertEqual(self_times(starts, ends, parents)[0], 5)


class PercentileTest(unittest.TestCase):

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(supported_percentile(10_000, 99), 99.0)
        self.assertEqual(supported_percentile(1000, 99), 99.0)
        self.assertEqual(supported_percentile(999, 99), 95.0)
        self.assertEqual(supported_percentile(200, 99), 95.0)
        self.assertEqual(supported_percentile(199, 95), 90.0)
        self.assertEqual(supported_percentile(40, 95), 75.0)
        self.assertEqual(supported_percentile(20, 95), 50.0)
        self.assertIsNone(supported_percentile(19, 95))

    def test_never_above_the_percentile_asked_for(self):
        self.assertEqual(supported_percentile(100_000, 95), 95.0)

    def test_tail_reports_the_percentile_used(self):
        values = list(range(1, 1001))
        self.assertEqual(tail(values, 99), (990, 99.0))
        self.assertEqual(tail(values[:999], 99), (950, 95.0))
        self.assertEqual(tail([3, 1, 2], 99), (2, 50.0))

    def test_nearest_rank(self):
        self.assertEqual(percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(percentile([5, 1, 4, 2, 3], 100), 5)
        self.assertEqual(percentile([7], 99), 7)


class NameTest(unittest.TestCase):

    def test_name_rules(self):
        for good in ("wall_s", "simnet.events.self_s", "lookup-forked",
                     "9a", "a" * 64):
            self.assertTrue(valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "a" * 65, "x\n"):
            self.assertFalse(valid_name(bad), bad)

    def test_unit_rules(self):
        for good in ("ms", "s", "1/s", "count", "%", "ops/s", "sim_s"):
            self.assertTrue(valid_unit(good), good)
        for bad in ("", "m s", "a" * 17, "µs"):
            self.assertFalse(valid_unit(bad), bad)

    def test_benchmark_json_names_units_and_whys(self):
        from workloads import WORKLOADS

        spec = _spec()
        names = [w["name"] for w in spec["workloads"]]
        for kind in ("end_to_end", "per_layer"):
            names += [m["name"] for m in spec[kind]]
            for metric in spec[kind]:
                self.assertTrue(valid_unit(metric["unit"]), metric)
                self.assertIn(metric["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(valid_name(name) for name in names))
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})

    def test_reported_metrics_match_benchmark_json(self):
        from run import end_to_end
        from spans import Tracer, layer_metrics
        from workloads import Rep

        rep = Rep(wall=(0, 1), setup=(0, 1), run=[(0, 1)], ops=1,
                  messages=1, sim_latencies=[1.0], query_units=[(0, 1)],
                  rows=1, queries=1, found=1, expected=1, ingested=1,
                  ingest=(0, 1),
                  counters={"events": 1, "messages_sent": 1, "drops": 0})
        spec = _spec()
        self.assertEqual(sorted(end_to_end([rep], 1)),
                         sorted(m["name"] for m in spec["end_to_end"]))
        self.assertEqual(
            sorted(layer_metrics(Tracer(), rep))
            + ["trace.overhead_ratio"],
            sorted(m["name"] for m in spec["per_layer"]))


class HostSpeedTest(unittest.TestCase):

    def _speed(self, times, durations):
        from hostspeed import HostSpeed

        speed = HostSpeed()
        speed.times.extend(times)
        speed.durations.extend(durations)
        return speed

    def test_samples_near_the_interval_set_its_slowdown(self):
        from hostspeed import REFERENCE_S

        speed = self._speed([0.0, 1.0, 2.0],
                            [REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S])
        self.assertAlmostEqual(speed.slowdown(0.99, 1.01), 2.0)
        self.assertAlmostEqual(speed.scaled((0.99, 1.01)), 0.01)
        self.assertAlmostEqual(speed.slowdown(1.9, 2.5), 1.0)

    def test_far_from_every_sample_the_whole_block_counts(self):
        from hostspeed import REFERENCE_S

        speed = self._speed([0.0, 1.0], [REFERENCE_S, 2 * REFERENCE_S])
        self.assertAlmostEqual(speed.slowdown(0.4, 0.5), 1.5)

    def test_interrupted_samples_are_left_out(self):
        from hostspeed import REFERENCE_S

        speed = self._speed([0.0, 0.1, 0.2, 0.3],
                            [REFERENCE_S] * 3 + [10 * REFERENCE_S])
        self.assertAlmostEqual(speed.slowdown(0.0, 0.3), 1.0)

    def test_no_samples_means_no_scaling(self):
        self.assertEqual(self._speed([], []).scaled((1.0, 3.0)), 2.0)

    def test_block_samples_and_restores_the_timer(self):
        import signal
        from time import perf_counter

        from hostspeed import HostSpeed

        before = signal.getsignal(signal.SIGALRM)
        with HostSpeed() as speed:
            deadline = perf_counter() + 0.2
            while perf_counter() < deadline:
                pass
        self.assertGreater(len(speed.durations), 3)
        self.assertEqual(list(speed.times), sorted(speed.times))
        self.assertEqual(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


def _program_attributes() -> dict:
    """Every attribute of every loaded program module and class."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        snapshot[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == name:
                snapshot[f"{name}.{attr}"] = dict(vars(value))
    return snapshot


class TracerTest(unittest.TestCase):

    def _small_run(self):
        from repro import GridVineNetwork
        from repro.datagen.generator import BioDatasetGenerator

        dataset = BioDatasetGenerator(num_schemas=2, num_entities=10,
                                      entities_per_schema=5,
                                      seed=1).generate()
        net = GridVineNetwork.build(num_peers=12, seed=1)
        for schema in dataset.schemas:
            net.insert_schema(schema)
        net.insert_triples(dataset.triples)
        return net.search_for(
            f"SearchFor(x? : (x?, {dataset.schemas[0].name}#"
            f"{dataset.schemas[0].attributes[0]}, %a%))")

    def test_wrappers_are_fully_removed(self):
        from spans import Tracer

        self._small_run()  # import everything the run touches
        before = _program_attributes()
        callbacks = list(gc.callbacks)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertNotEqual(_program_attributes(), before)
            self._small_run()
        finally:
            tracer.uninstall()
        self.assertEqual(_program_attributes(), before)
        self.assertEqual(gc.callbacks, callbacks)
        self.assertIn("simnet.network.send", tracer.names)
        self.assertIn("storage.triplestore.add", tracer.names)
        self.assertIn("pgrid.peer.handle.route", tracer.names)

    def test_handlers_registered_after_uninstall_are_stock(self):
        from repro.pgrid.peer import PGridPeer
        from repro.util.keys import Key
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        traced = PGridPeer("a", Key("01"))
        tracer.uninstall()
        stock = PGridPeer("b", Key("01"))
        self.assertTrue(hasattr(traced._handlers["route"], "__wrapped__"))
        self.assertEqual(stock._handlers["route"], stock._handle_route)

    def test_spans_nest_under_their_callers(self):
        from spans import Tracer

        tracer = Tracer()
        outer = tracer.wrap("outer", lambda: inner())
        inner = tracer.wrap("inner", lambda: None)
        tracer.set_unit("wave0")
        outer()
        self.assertEqual(tracer.names, ["outer", "inner"])
        self.assertEqual(list(tracer.parents), [-1, 0])
        self.assertEqual(tracer.units, ["wave0", "wave0"])
        self.assertLessEqual(tracer.starts[0], tracer.starts[1])
        self.assertLessEqual(tracer.ends[1], tracer.ends[0])


class WorkloadLoopTest(unittest.TestCase):
    """The benchmark's workload loops run the program's own paths."""

    def test_stamped_waves_leave_outcomes_unchanged(self):
        from repro.pgrid.scaleout import (
            ScaleoutSpec,
            build_deployment,
            run_inprocess,
        )
        from workloads import Clock, StampedWaves

        spec = ScaleoutSpec(num_peers=64, num_keys=20, ops_per_wave=10,
                            num_waves=3, seed=4)
        stock = run_inprocess(spec, build_deployment(spec))
        deployment = build_deployment(spec)
        clock = Clock()
        deployment.waves = StampedWaves(deployment.waves, clock)
        stamped = run_inprocess(spec, deployment)
        self.assertEqual(stamped.outcomes, stock.outcomes)
        self.assertEqual(len(clock.stamps), spec.num_waves + 1)


if __name__ == "__main__":
    unittest.main()
