"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload lookup --seed 0 --seconds 15 --trace 0

The run repeats the workload — input generation through final report,
cyclic GC on — until ``--seconds`` have passed and at least ``k =
workload.seeds`` repetitions are done.  Repetition ``r`` draws its
inputs from seed ``seed * k + r % k``; counts and ratios pool the first
``k`` repetitions (so they are exact for a given ``--seed``), timings
take the median over all repetitions but the first, which warms the
process up (imports, first-touch allocations).  Each timed interval of
a stock repetition is scaled to the reference host speed of
``hostspeed.py``; the line before the result gives the host slowdown
and the main timings as measured.

``--trace 1`` alternates stock and traced repetitions instead and
reports the per-layer metrics of ``BENCHMARK.json`` (medians over the
traced repetitions but the first) plus the tracing overhead; the first
traced repetition's spans go to ``perfbench/out/``.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 1 when an output check failed, 2 when
the program's sources (``src/repro``) are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def warm(reps: list) -> list:
    """The repetitions whose timings count: all but the warm-up one."""
    return reps[1:] or reps


def length(interval) -> float:
    """An interval's length in seconds as measured."""
    return interval[1] - interval[0]


def end_to_end(reps: list, seeds: int) -> dict[str, float]:
    """End-to-end metric values over a run's stock repetitions."""
    from harness import tail

    counted = reps[:seeds]
    latencies = [x for rep in counted for x in rep.sim_latencies]
    timed = warm(reps)

    def walls_ms(seconds) -> list[float]:
        return [1e3 * seconds(rep, unit) / rep.ops_per_unit
                for rep in timed for unit in rep.query_units]

    walls = walls_ms(lambda rep, unit: rep.scaled(unit))
    ops = sum(rep.ops for rep in counted)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latency_tail, latency_q = tail(latencies, 99)
    wall_tail, wall_q = tail(walls, 95)
    values = {
        "wall_s": statistics.median(rep.scaled(rep.wall) for rep in timed),
        "setup_s": statistics.median(rep.scaled(rep.setup) for rep in timed),
        "ops_per_s": statistics.median(
            rep.ops / sum(map(rep.scaled, rep.run)) for rep in timed),
        "peak_rss_mb": peak_kb / 1024,
        "msgs_per_op": sum(rep.messages for rep in counted) / ops,
        "sim_latency_p50_s": statistics.median(latencies),
        "sim_latency_p99_s": latency_tail,
        "rows_per_query": (sum(rep.rows for rep in counted)
                           / sum(rep.queries for rep in counted)),
        "ingest_triples_per_s": statistics.median(
            rep.ingested / rep.scaled(rep.ingest) for rep in timed),
        "query_wall_p50_ms": statistics.median(walls),
        "query_wall_p95_ms": wall_tail,
        "recall": (sum(rep.found for rep in counted)
                   / sum(rep.expected for rep in counted)),
    }
    print(f"samples: {len(timed)} timed repetitions after"
          f" {len(reps) - len(timed)} warm-up; sim latency n={len(latencies)}"
          f" (tail at p{latency_q:g}); query wall n={len(walls)}"
          f" (tail at p{wall_q:g})")
    slowdown = statistics.median(length(rep.wall) / rep.scaled(rep.wall)
                                 for rep in timed)
    unscaled = statistics.median(walls_ms(lambda _rep, unit: length(unit)))
    print(f"host slowdown: median {slowdown:.3f}; as measured, wall_s"
          f" {statistics.median(length(rep.wall) for rep in timed):.4f},"
          f" query_wall_p50_ms {unscaled:.4f}")
    return values


def run(workload, seed: int, seconds: float, traced: bool):
    """Repetitions until time is up: stock ones, and with ``traced`` a
    traced one after each.  Returns (stock reps, traced reps, per-layer
    metrics of each traced rep)."""
    from hostspeed import HostSpeed
    from workloads import Clock

    reps, traced_reps, layers = [], [], []
    started = perf_counter()
    index = 0
    # A traced run needs no pooled counts, only time for its pairs.
    least = 1 if traced else workload.seeds
    while index < least or perf_counter() - started < seconds:
        input_seed = seed * workload.seeds + index % workload.seeds
        gc.collect()
        with HostSpeed() as speed:
            rep = workload.run(input_seed, Clock())
        rep.scaled = speed.scaled
        reps.append(rep)
        if traced:
            gc.collect()
            rep, metrics = traced_rep(workload, input_seed, not layers)
            traced_reps.append(rep)
            layers.append(metrics)
        index += 1
    return reps, traced_reps, layers


def traced_rep(workload, input_seed: int, write: bool):
    """One repetition under the tracer; the tracer is gone on return."""
    from spans import Tracer, layer_metrics
    from workloads import Clock

    tracer = Tracer()
    tracer.install()
    try:
        rep = workload.run(input_seed, Clock(tracer.set_unit))
    finally:
        tracer.uninstall()
    if write:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out",
                                  f"spans-{workload.name}.jsonl"))
    metrics = layer_metrics(tracer, rep)
    return rep, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = load_spec()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    reps, traced_reps, layers = run(workload, args.seed, args.seconds,
                                    bool(args.trace))

    failures = [f for rep in reps + traced_reps for f in rep.check()]
    for failure in failures[:20]:
        print(f"CHECK FAILED: {failure}")
    if args.trace:
        listed = spec["per_layer"]
        values = {name: statistics.median(m[name] for m in warm(layers))
                  for name in layers[0]}
        values["trace.overhead_ratio"] = (
            statistics.median(length(rep.wall) for rep in warm(traced_reps))
            / statistics.median(length(rep.wall) for rep in warm(reps)))
    else:
        listed = spec["end_to_end"]
        values = end_to_end(reps, workload.seeds)
    if sorted(values) != sorted(m["name"] for m in listed):
        raise SystemExit(f"metrics {sorted(values)} do not match "
                         "BENCHMARK.json")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(rep.ops for rep in reps + traced_reps),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
