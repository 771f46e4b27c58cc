"""Span recording around the program's public entry points.

A :class:`Tracer` wraps functions and methods of the program from the
outside — it edits no program file — and restores every wrapped
attribute on :meth:`Tracer.uninstall`, so runs after it measure the
stock program.  Spans stay in memory until the run writes them out,
as columns (name, start, end, parent index, unit): flat arrays keep
hundreds of thousands of spans from becoming objects the cyclic GC
has to traverse, which would inflate the GC time the trace reports.

The entry points, one span name each (``<layer>.<function>``), are
listed in :meth:`Tracer.install`; :func:`layer_metrics` turns the spans
of one repetition plus the workload's own counters into the per-layer
report.
"""

from __future__ import annotations

import gc
import json
import sys
from array import array
from time import perf_counter

from harness import self_times

class Tracer:
    """Records spans; owns every patch it applies."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.units: list = []
        self._stack: list[int] = []
        #: id of the closed-loop unit in progress (wave, call)
        self.unit: object = None
        #: per span name: summed counts the wrapper extracted
        self.counts: dict[str, int] = {}
        self.peers: list = []
        self.gc_collections = 0
        self.gc_s = 0.0
        self._gc_started = 0.0
        self._patches: list[tuple[object, str, bool, object]] = []

    def set_unit(self, unit: object) -> None:
        self.unit = unit

    # -- wrapping ------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(args, result)``
        adds to :attr:`counts` under ``name``."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, units, stack, counts = (self.parents, self.units,
                                         self._stack, self.counts)

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            units.append(self.unit)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if count is not None:
                counts[name] = counts.get(name, 0) + count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        self._patch(cls, attr, self.wrap(name, getattr(cls, attr), count))

    def patch_function(self, fn, name: str, count=None) -> None:
        """Wrap ``fn`` under every ``repro`` module name bound to it."""
        traced = self.wrap(name, fn, count)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, traced)

    # -- install / uninstall -----------------------------------------

    def install(self) -> None:
        from repro.datagen.generator import BioDatasetGenerator
        from repro.engine.core import QueryEngine
        from repro.exec.stream import Operator
        from repro.mediation.network import GridVineNetwork
        from repro.mediation.peer import GridVinePeer
        from repro.pgrid import construction
        from repro.pgrid.peer import PGridPeer
        from repro.reformulation.planner import plan_reformulations
        from repro.selforg import controller
        from repro.simnet.events import EventLoop
        from repro.simnet.network import Node, SimNetwork
        from repro.stats.synopsis import StoreSynopsis
        from repro.storage.triplestore import TripleStore
        import repro.engine.executor  # noqa: F401  (binds its operators)
        import repro.exec.operators  # noqa: F401
        import repro.pgrid.scaleout  # noqa: F401

        for attr in ("run_until_idle", "run_until", "run_until_complete"):
            self.patch_method(EventLoop, attr, f"simnet.events.{attr}")
        self.patch_method(SimNetwork, "send", "simnet.network.send")

        self.patch_function(construction.assign_paths,
                            "pgrid.construction.assign_paths")
        for fn in (construction.sample_routing_tables,
                   construction.populate_routing_tables):
            self.patch_function(fn, "pgrid.construction.routing_tables")
        # GridVinePeer.__init__ runs PGridPeer.__init__ through super()
        self.patch_method(GridVinePeer, "__init__", "pgrid.peer.construct")
        self.patch_method(PGridPeer, "__init__", "pgrid.peer.construct",
                          lambda args, _r: self.peers.append(args[0]) or 0)
        register = Node.register_handler
        tracer = self

        def register_handler(node, kind, handler):
            register(node, kind,
                     tracer.wrap(f"pgrid.peer.handle.{kind}", handler))

        self._patch(Node, "register_handler", register_handler)

        self.patch_method(TripleStore, "match", "storage.triplestore.match",
                          lambda _a, rows: len(rows))
        self.patch_method(TripleStore, "add", "storage.triplestore.add")
        self.patch_method(StoreSynopsis, "add", "stats.synopsis.add")

        for cls in _subclasses(Operator):
            for attr in ("start", "on_batch", "on_finish"):
                if attr in vars(cls):
                    self.patch_method(cls, attr,
                                      f"exec.{cls.__name__}.{attr}")
        self.patch_method(Operator, "emit", "exec.Operator.emit",
                          lambda args, _r: args[1].count)

        self.patch_function(plan_reformulations,
                            "reformulation.planner.plan_reformulations",
                            lambda _a, plan: len(plan))
        self.patch_method(QueryEngine, "execute_batch", "engine.execute_batch")
        self.patch_method(GridVinePeer, "search_for", "mediation.search_for")
        self.patch_method(GridVineNetwork, "search_for",
                          "mediation.search_for")
        self.patch_method(GridVinePeer, "local_insert",
                          "mediation.local_insert")
        self.patch_method(controller.SelfOrganizationController, "step",
                          "selforg.step")
        self.patch_function(controller.propose_mappings,
                            "selforg.propose_mappings")
        self.patch_function(controller.assess_mapping_quality,
                            "selforg.assess_quality")
        self.patch_method(BioDatasetGenerator, "generate",
                          "datagen.generate")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_collections += 1
            self.gc_s += perf_counter() - self._gc_started

    def write(self, path: str) -> None:
        """Spans as JSON lines, in start order."""
        with open(path, "w") as out:
            for span in zip(self.names, self.starts, self.ends,
                            self.parents, self.units):
                out.write(json.dumps(span) + "\n")


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(s for s in _subclasses(sub) if s not in found)
    return found


# ----------------------------------------------------------------------
# Per-layer report
# ----------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, rep) -> dict:
    """Per-layer metric values of one traced repetition."""
    names, starts, ends, parents = (tracer.names, tracer.starts,
                                    tracer.ends, tracer.parents)
    own = self_times(starts, ends, parents)
    self_s: dict[str, float] = {}
    by_name: dict[str, list[int]] = {}
    for index, (name, seconds) in enumerate(zip(names, own)):
        self_s[name] = self_s.get(name, 0.0) + seconds
        by_name.setdefault(name, []).append(index)
    calls = {name: len(indices) for name, indices in by_name.items()}

    def total_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def total_calls(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    def outermost(group: tuple[str, ...]) -> list[int]:
        """Spans of ``group`` not nested inside another of ``group``."""
        return [i for name in group for i in by_name.get(name, ())
                if not _has_ancestor(names, parents, parents[i], group)]

    def inclusive(group: tuple[str, ...]) -> float:
        """Wall time inside the outermost spans of ``group``."""
        return sum(ends[i] - starts[i] for i in outermost(group))

    counters = rep.counters
    engine = counters.get("engine", {})
    cache = engine.get("cache", {})
    handled = total_calls("pgrid.peer.handle.")
    handler_self = total_self("pgrid.peer.handle.")
    constructed = len(outermost(("pgrid.peer.construct",)))
    construct_s = inclusive(("pgrid.peer.construct",))
    events_self = total_self("simnet.events.")
    sends = calls.get("simnet.network.send", 0)
    send_self = self_s.get("simnet.network.send", 0.0)
    exec_self = total_self("exec.")
    rows_emitted = tracer.counts.get("exec.Operator.emit", 0)
    matches = calls.get("storage.triplestore.match", 0)
    match_s = self_s.get("storage.triplestore.match", 0.0)
    adds = calls.get("storage.triplestore.add", 0)
    add_s = self_s.get("storage.triplestore.add", 0.0)
    plans = calls.get("reformulation.planner.plan_reformulations", 0)
    created = counters.get("created", 0)
    successes = counters.get("successes", 0)
    return {
        "simnet.events.events": counters["events"],
        "simnet.events.self_s": events_self,
        "simnet.events.us_per_event": 1e6 * _ratio(events_self,
                                                   counters["events"]),
        "simnet.network.messages": counters["messages_sent"],
        "simnet.network.send_self_s": send_self,
        "simnet.network.us_per_send": 1e6 * _ratio(send_self, sends),
        "simnet.network.drops": counters["drops"],
        "pgrid.construction.assign_paths_s": inclusive(
            ("pgrid.construction.assign_paths",)),
        "pgrid.construction.routing_tables_s": inclusive(
            ("pgrid.construction.routing_tables",)),
        "pgrid.peer.construct_s": construct_s,
        "pgrid.peer.us_per_peer": 1e6 * _ratio(construct_s, constructed),
        "pgrid.peer.handler_self_s": handler_self,
        "pgrid.peer.us_per_message": 1e6 * _ratio(handler_self, handled),
        "pgrid.peer.mean_hops": _ratio(counters.get("hops", 0), successes),
        "pgrid.peer.attempts_per_op": _ratio(counters.get("attempts", 0),
                                             rep.ops),
        "pgrid.peer.failover_retries": sum(
            peer.failover_stats["retries"] for peer in tracer.peers),
        "storage.triplestore.match_calls": matches,
        "storage.triplestore.match_s": match_s,
        "storage.triplestore.us_per_match": 1e6 * _ratio(match_s, matches),
        "storage.triplestore.rows_per_match": _ratio(
            tracer.counts.get("storage.triplestore.match", 0), matches),
        "storage.triplestore.add_calls": adds,
        "storage.triplestore.add_s": add_s,
        "storage.triplestore.us_per_add": 1e6 * _ratio(add_s, adds),
        "stats.synopsis.add_s": self_s.get("stats.synopsis.add", 0.0),
        "exec.self_s": exec_self,
        "exec.rows_emitted": rows_emitted,
        "exec.fetches_issued": counters.get("fetches_issued", 0),
        "exec.fetches_skipped": counters.get("fetches_skipped", 0),
        "exec.us_per_row": 1e6 * _ratio(exec_self, rows_emitted),
        "reformulation.planner.plan_calls": plans,
        "reformulation.planner.plan_s": inclusive(
            ("reformulation.planner.plan_reformulations",)),
        "reformulation.planner.reformulations_per_query": _ratio(
            tracer.counts.get("reformulation.planner.plan_reformulations", 0),
            plans),
        "engine.cache.hit_rate": cache.get("hit_rate", 0.0),
        "engine.cache.invalidations": cache.get("invalidations", 0),
        "engine.planner_invocations": engine.get("planner_invocations", 0),
        "engine.batch.dedup_rate": _ratio(engine.get("patterns_fetched", 0),
                                          engine.get("patterns_total", 0)),
        "engine.execute_batch_s": inclusive(("engine.execute_batch",)),
        "mediation.search_for_s": inclusive(("mediation.search_for",)),
        "mediation.local_insert_s": inclusive(("mediation.local_insert",)),
        "mediation.update_msgs_per_triple": _ratio(
            counters.get("update_messages", 0), rep.ingested),
        "selforg.rounds": counters.get("rounds", 0),
        "selforg.step_s": inclusive(("selforg.step",)),
        "selforg.propose_mappings_s": inclusive(("selforg.propose_mappings",)),
        "selforg.assess_quality_s": inclusive(("selforg.assess_quality",)),
        "selforg.mappings_created": created,
        "selforg.mappings_deprecated": counters.get("deprecated", 0),
        "selforg.useful_mapping_ratio": _ratio(counters.get("useful", 0),
                                               created),
        "datagen.generate_s": inclusive(("datagen.generate",)),
        "python.gc.collections": tracer.gc_collections,
        "python.gc.gc_s": tracer.gc_s,
    }


def _has_ancestor(names: list[str], parents, parent: int,
                  group: tuple[str, ...]) -> bool:
    while parent >= 0:
        if names[parent] in group:
            return True
        parent = parents[parent]
    return False
