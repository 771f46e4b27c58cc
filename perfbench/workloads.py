"""The benchmark's two workloads, each a function of one input seed.

A workload function builds its inputs from the seed, drives the
program through its public entry points and returns a :class:`Rep`:
the wall-clock phases, the operation counts and the raw samples one
repetition produced.  It never reads the benchmark's tracer; the only
benchmark object it sees is a :class:`Clock`, which stamps the
boundaries of the program's own closed-loop units (waves, queries).

Each definition carries the one-line reason it was chosen (``why``);
``BENCHMARK.json`` repeats it verbatim (a test keeps the two equal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

#: ``(start, end)`` in ``perf_counter`` seconds
Interval = tuple[float, float]


@dataclass
class Rep:
    """What one repetition of a workload measured.

    Timings are kept as intervals, so the run can scale each one by
    the host's speed while it elapsed (see ``hostspeed.py``).
    """

    #: input generation through the final report
    wall: Interval = (0.0, 0.0)
    #: input generation + deployment build
    setup: Interval = (0.0, 0.0)
    #: the intervals the operations ran in: the run phase after setup
    #: (selforg-ingest: one per query it answered)
    run: list[Interval] = field(default_factory=list)
    #: operations completed
    ops: int = 0
    #: simulated messages the operations sent
    messages: int = 0
    #: simulated seconds from issue to completion, one per operation
    sim_latencies: list[float] = field(default_factory=list)
    #: closed-loop units whose wall time per operation is one query
    #: wall sample: each engine query (selforg-ingest), else the wave
    #: phase of the repetition, which holds all of its operations
    #: (see _wave_phase)
    query_units: list[Interval] = field(default_factory=list)
    ops_per_unit: int = 1
    #: result rows returned / queries answered
    rows: int = 0
    queries: int = 0
    #: expected answers returned / expected answers
    found: int = 0
    expected: int = 0
    #: records written into peer stores, and when that ran
    ingested: int = 0
    ingest: Interval = (0.0, 0.0)
    #: an interval's length in seconds; the run swaps in the host-speed
    #: scaled one of hostspeed.py for stock repetitions
    scaled: Callable[[Interval], float] = lambda interval: (interval[1]
                                                            - interval[0])
    #: workload-reported counters for the per-layer report
    counters: dict = field(default_factory=dict)
    #: output checks; run once, *after* the repetition (and after any
    #: tracing is removed), returns failure descriptions
    check: Callable[[], list[str]] = lambda: []


class Clock:
    """Stamps the start of each closed-loop unit of work.

    ``on_unit`` (traced runs only) learns the unit's id, so every span
    recorded inside the unit carries it.
    """

    def __init__(self, on_unit: Callable[[object], None] | None = None):
        self.stamps: list[float] = []
        self._on_unit = on_unit

    def mark(self, unit: object) -> None:
        self.stamps.append(perf_counter())
        if self._on_unit is not None:
            self._on_unit(unit)


class StampedWaves(list):
    """A wave list that stamps the clock as the program pulls each wave.

    ``run_inprocess`` drains wave *i* before it asks for wave *i + 1*,
    so the stamps delimit the waves: the first one ends its
    construct-and-preload phase, the last one lands when it finds the
    list exhausted.
    """

    def __init__(self, waves, clock: Clock) -> None:
        super().__init__(waves)
        self._clock = clock

    def __iter__(self):
        for index, wave in enumerate(list.__iter__(self)):
            self._clock.mark(f"wave{index}")
            yield wave
        self._clock.mark("drained")


# ----------------------------------------------------------------------
# lookup
# ----------------------------------------------------------------------

LOOKUP = dict(num_peers=10_000, replication=4, refs_per_level=2,
              num_keys=1000, ops_per_wave=1000, num_waves=20)


def lookup(seed: int, clock: Clock) -> Rep:
    """10k-peer P-Grid retrieves on one event loop."""
    from repro.pgrid.scaleout import (
        ScaleoutSpec,
        build_deployment,
        run_inprocess,
    )

    started = perf_counter()
    spec = ScaleoutSpec(seed=seed, **LOOKUP)
    deployment = build_deployment(spec)
    built = perf_counter()
    deployment.waves = StampedWaves(deployment.waves, clock)
    report = run_inprocess(spec, deployment)
    ran = perf_counter()
    outcomes = list(report.outcomes.values())
    latencies = [summary[2] for summary in outcomes]
    values = [summary[4] for summary in outcomes]
    empty = [ref for ref, summary in report.outcomes.items()
             if not (summary[0] and summary[4] >= 1)]
    retrieved = len(outcomes) - len(empty)
    finished = perf_counter()

    ops = len(outcomes)
    stored = sum(len(deployment.groups[_leaf(deployment, key)])
                 for key in deployment.needles)

    def check() -> list[str]:
        issued = spec.num_waves * spec.ops_per_wave
        return ([f"retrieve {ref} returned no value" for ref in empty]
                + [f"retrieve never completed ({ops} of {issued})"]
                * (issued - ops))

    return Rep(
        wall=(started, finished), setup=(started, built),
        run=[(built, ran)], ops=ops, messages=report.messages_sent,
        sim_latencies=latencies,
        query_units=[_wave_phase(clock)], ops_per_unit=ops,
        rows=sum(values), queries=ops, found=retrieved, expected=ops,
        # run_inprocess constructs the peers and preloads the needles
        # in one call; the first wave stamp ends that phase
        ingested=stored, ingest=(built, clock.stamps[0]),
        counters={
            "events": report.events_processed,
            "messages_sent": report.messages_sent,
            "drops": report.messages_dropped,
            "hops": report.total_hops,
            "successes": report.successes,
            "attempts": report.total_attempts,
        },
        check=check,
    )


def _wave_phase(clock: Clock) -> Interval:
    """First wave pulled to waves exhausted.

    A wave's operations run concurrently, so no single one has a wall
    time of its own; and per-wave walls are bimodal (a wave either does
    or does not absorb a full GC pass), which makes their tail jump
    between the two modes from run to run.
    """
    return clock.stamps[0], clock.stamps[-1]


def _leaf(deployment, key) -> str:
    from repro.pgrid.scaleout import _responsible_leaf
    return _responsible_leaf(deployment.leaf_bits, key)


# ----------------------------------------------------------------------
# selforg-ingest
# ----------------------------------------------------------------------

SELFORG = dict(num_schemas=16, num_entities=300, entities_per_schema=30,
               num_peers=400, replication=2, triple_batch=250,
               max_rounds=12, panel_repeats=2)
#: organisms the concept-query panel asks for, in every schema's
#: vocabulary (posing it from all schemas, not one, keeps the final
#: recall from hinging on one schema's outgoing mappings)
NEEDLES = ("Aspergillus", "Saccharomyces", "Escherichia")


def selforg_ingest(seed: int, clock: Clock) -> Rep:
    """§3.2/§4 storyline: ingest through the overlay, then self-organize."""
    from repro.datagen.generator import BioDatasetGenerator
    from repro.datagen.workload import QueryWorkloadGenerator
    from repro.mediation.network import GridVineNetwork
    from repro.resilience.scenario import recall_hits
    from repro.selforg.controller import SelfOrganizationController
    from repro.selforg.creator import CreationPolicy
    from repro.simnet.latency import LogNormalWANLatency

    started = perf_counter()
    dataset = BioDatasetGenerator(num_schemas=SELFORG["num_schemas"],
                                  num_entities=SELFORG["num_entities"],
                                  entities_per_schema=SELFORG[
                                      "entities_per_schema"],
                                  seed=seed).generate()
    # the paper's wide-area latency model without straggler hosts, so
    # simulated latencies are continuous and no operation times out
    net = GridVineNetwork.build(
        num_peers=SELFORG["num_peers"], seed=seed,
        replication=SELFORG["replication"],
        latency=LogNormalWANLatency(straggler_prob=0.0))
    built = perf_counter()
    loop, metrics = net.loop, net.network.metrics
    messages_before = metrics.messages_sent

    # Created before any mapping exists, the engine mirrors every
    # mapping event and never crawls the overlay to backfill.
    engine = net.create_engine(max_hops=10)
    for schema in dataset.schemas:
        clock.mark("schema")
        net.insert_schema(schema)
    triples = dataset.triples
    batch = SELFORG["triple_batch"]
    for offset in range(0, len(triples), batch):
        clock.mark("triples")
        net.insert_triples(triples[offset:offset + batch])
    names = [schema.name for schema in dataset.schemas]
    for source, target in zip(names[::2], names[1::2]):
        clock.mark("mapping")
        net.insert_mapping(dataset.ground_truth_mapping(source, target))
    net.settle()
    ingested = perf_counter()
    update_messages = metrics.messages_sent - messages_before

    concepts = QueryWorkloadGenerator(dataset)
    panel = []
    for needle in NEEDLES:
        truth = {f"{schema.name}:{entity.accession}"
                 for schema in dataset.schemas
                 for entity in dataset.coverage[schema.name]
                 if needle in entity.value("organism")}
        panel.extend((concepts.concept_query(schema.name, "organism", needle),
                      truth) for schema in dataset.schemas)
    outcomes = []
    asked: list[Interval] = []

    def ask_panel() -> tuple[int, int]:
        """Repeat the panel through the engine; recall of the first pass."""
        found = expected = 0
        for repeat in range(SELFORG["panel_repeats"]):
            for query, truth in panel:
                clock.mark("query")
                start = perf_counter()
                outcome = engine.search_for(query)
                asked.append((start, perf_counter()))
                outcomes.append(outcome)
                if repeat == 0:
                    found += len(recall_hits(outcome) & truth)
                    expected += len(truth)
        return found, expected

    controller = SelfOrganizationController(
        net, domain=dataset.domain,
        # directed creation: the graph densifies over several rounds
        policy=CreationPolicy(mappings_per_round=3, bidirectional=False),
        engine=engine)
    initial = ask_panel()
    reports = []
    for _ in range(SELFORG["max_rounds"]):
        clock.mark("round")
        report = controller.step()
        reports.append(report)
        final = ask_panel()
        if report.ci_after >= 0 and not report.created \
                and not report.deprecated:
            break
    created = [m for r in reports for m in r.created]
    deprecated = {m for r in reports for m in r.deprecated}
    finished = perf_counter()

    def check() -> list[str]:
        failures = []
        if reports[-1].ci_after < 0:
            failures.append(f"ci {reports[-1].ci_after:+.3f} < 0 after "
                            f"{len(reports)} rounds")
        if final[0] * initial[1] <= initial[0] * final[1]:
            failures.append(f"recall did not grow: {initial} -> {final}")
        return failures

    # The operations are the panel's engine queries, the closed loop a
    # user waits on; writes are measured by the ingest rate.
    return Rep(
        wall=(started, finished), setup=(started, built),
        run=asked, ops=len(outcomes),
        messages=sum(outcome.messages for outcome in outcomes),
        sim_latencies=[outcome.latency for outcome in outcomes],
        query_units=asked,
        rows=sum(len(outcome.results) for outcome in outcomes),
        queries=len(outcomes), found=final[0], expected=final[1],
        ingested=len(triples), ingest=(built, ingested),
        counters={
            "events": loop.events_processed,
            "messages_sent": metrics.messages_sent - messages_before,
            "drops": metrics.messages_dropped,
            "update_messages": update_messages,
            "engine": engine.stats.snapshot(),
            "fetches_issued": sum(o.fetches_issued for o in outcomes),
            "fetches_skipped": sum(o.fetches_skipped for o in outcomes),
            "rounds": len(reports),
            "created": len(created),
            "deprecated": len(deprecated),
            "useful": sum(1 for m in created if m not in deprecated),
        },
        check=check,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[[int, Clock], Rep]
    #: distinct input seeds one run cycles through; counts pool them.
    #: Rows, recall and latency quantiles of the query workload vary
    #: from corpus to corpus, so its runs pool more seeds.
    seeds: int = 3


WORKLOADS = {w.name: w for w in (
    Workload(
        "lookup",
        "Overlay routing, the event loop and peer construction do the "
        "work; mediation, storage, exec and engine do none.",
        lookup),
    Workload(
        "selforg-ingest",
        "Writes beside reads, plan cache reused and invalidated by "
        "mapping churn, recall measured against generator ground truth.",
        selforg_ingest, seeds=15),
)}
