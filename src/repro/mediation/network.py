"""The whole-system harness: build and drive a GridVine deployment.

:class:`GridVineNetwork` wires the three layers together (event loop,
latency model, P-Grid trie of :class:`GridVinePeer`s) and exposes a
*synchronous* façade over the asynchronous protocol: every call issues
the underlying operation(s) from some origin peer and runs the event
loop until the resulting future resolves.  Examples, tests and
benchmarks all talk to this class.

The harness view is deliberately omniscient (it can read any peer's
state directly) — that power is only used for ground-truth checks and
reporting, never inside protocol logic.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Sequence

from repro.connectivity.indicator import indicator_from_degrees
from repro.mapping.graph import MappingGraph
from repro.mapping.model import (
    MappingKind,
    PredicateCorrespondence,
    SchemaMapping,
)
from repro.mediation.peer import GridVinePeer
from repro.mediation.records import ConnectivityRecord
from repro.mediation.query import QueryOutcome
from repro.pgrid.construction import assign_paths, populate_routing_tables
from repro.rdf.parser import parse_search_for
from repro.rdf.patterns import ConjunctiveQuery
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.simnet.events import EventLoop, Future, SimulationError
from repro.simnet.latency import LatencyModel
from repro.simnet.network import SimNetwork
from repro.util.keys import Key


class GridVineNetwork:
    """A simulated GridVine deployment of N peers."""

    def __init__(self, network: SimNetwork,
                 peers: dict[str, GridVinePeer],
                 rng: random.Random,
                 failover: bool = True,
                 refs_per_level: int = 2) -> None:
        self.network = network
        self.peers = peers
        self.rng = rng
        #: whether peers created later (joins) use replica failover
        self.failover = failover
        #: the deployment's routing-table redundancy target (what
        #: maintenance repairs thin levels back up to)
        self.refs_per_level = refs_per_level
        #: monotonically increasing suffix for attribution tags
        self._op_tags = itertools.count()
        #: lazily-built unified metrics registry (see :attr:`registry`)
        self._registry = None
        #: deployment-wide mapping-event listeners ``fn(action,
        #: mapping)``; every peer's issuing-path hook relays here so a
        #: :class:`~repro.engine.core.QueryEngine` sees mutations from
        #: any origin (including the self-organization loop)
        self._mapping_listeners: list = []
        for peer in self.peers.values():
            peer.mapping_hooks.append(self._emit_mapping_event)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        num_peers: int,
        key_sample: Sequence[Key] | None = None,
        replication: int = 1,
        refs_per_level: int = 2,
        key_bits: int = 128,
        latency: LatencyModel | None = None,
        seed: int = 0,
        timeout: float = 15.0,
        max_retries: int = 2,
        query_timeout: float = 120.0,
        failover: bool = True,
    ) -> "GridVineNetwork":
        """Build a deployment; parameters mirror
        :meth:`repro.pgrid.overlay.PGridOverlay.build` plus
        ``failover`` (replica-aware retry steering, see
        :class:`~repro.pgrid.peer.PGridPeer`)."""
        rng = random.Random(seed)
        network = SimNetwork(
            loop=EventLoop(),
            latency=latency,
            rng=random.Random(rng.random()),
        )
        assignment = assign_paths(
            num_peers,
            key_sample=key_sample,
            replication=replication,
            key_bits=key_bits,
            rng=random.Random(rng.random()),
        )
        peers: dict[str, GridVinePeer] = {}
        for node_id, path in sorted(assignment.items()):
            peer = GridVinePeer(
                node_id, path,
                rng=random.Random(rng.random()),
                timeout=timeout,
                max_retries=max_retries,
                query_timeout=query_timeout,
                failover=failover,
            )
            network.attach(peer)
            peers[node_id] = peer
        populate_routing_tables(
            peers, refs_per_level=refs_per_level,
            rng=random.Random(rng.random()),
        )
        return cls(network, peers, rng, failover=failover,
                   refs_per_level=refs_per_level)

    # ------------------------------------------------------------------
    # Peer access
    # ------------------------------------------------------------------

    @property
    def loop(self) -> EventLoop:
        """The deployment's event loop."""
        return self.network.loop

    def peer_ids(self) -> list[str]:
        """All node ids, sorted."""
        return sorted(self.peers)

    def peer(self, node_id: str) -> GridVinePeer:
        """Look up a peer by id."""
        return self.peers[node_id]

    def random_peer(self) -> GridVinePeer:
        """A uniformly random *online* peer (from the harness RNG).

        Offline peers cannot originate operations — their messages
        would vanish and the whole query would spuriously fail — so
        under churn the draw skips them.  With every peer online the
        draw is identical to the historical uniform choice.
        """
        online = [node_id for node_id in self.peer_ids()
                  if self.network.is_online(node_id)]
        if not online:
            raise SimulationError("no online peer available as origin")
        return self.peers[self.rng.choice(online)]

    def _origin(self, origin: str | None) -> GridVinePeer:
        if origin is None:
            return self.random_peer()
        peer = self.peers[origin]
        if not self.network.is_online(origin):
            raise SimulationError(
                f"origin peer {origin!r} is offline; pick an online "
                "peer or protect the origin from churn"
            )
        return peer

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def join(self, node_id: str) -> GridVinePeer:
        """Add a new GridVine peer to the live deployment."""
        from repro.pgrid.membership import join_network

        def factory(new_id: str, path: Key) -> GridVinePeer:
            peer = GridVinePeer(new_id, path,
                                rng=random.Random(self.rng.random()),
                                failover=self.failover)
            peer.mapping_hooks.append(self._emit_mapping_event)
            return peer

        return join_network(self.network, self.peers, node_id, factory,
                            rng=random.Random(self.rng.random()))

    def leave(self, node_id: str) -> None:
        """Gracefully remove a peer (data handed to its replicas)."""
        from repro.pgrid.membership import graceful_leave
        graceful_leave(self.network, self.peers, node_id)

    def settle(self, max_events: int = 10_000_000) -> None:
        """Run the loop until quiescence (replication, republication
        and other background traffic finishes)."""
        self.loop.run_until_idle(max_events=max_events)

    # ------------------------------------------------------------------
    # Mapping events and the query engine
    # ------------------------------------------------------------------

    def _emit_mapping_event(self, action: str, mapping) -> None:
        for listener in self._mapping_listeners:
            listener(action, mapping)

    def add_mapping_listener(self, listener) -> None:
        """Subscribe ``fn(action, mapping)`` to every mapping mutation
        issued anywhere in the deployment (``action`` is one of
        ``"insert"``, ``"remove"``, ``"deprecate"``)."""
        self._mapping_listeners.append(listener)

    def create_engine(self, domain: str | None = None,
                      max_hops: int = 5,
                      cache_capacity: int = 256,
                      optimize: bool = False):
        """A new :class:`~repro.engine.core.QueryEngine` bound to this
        deployment (plan caching + batched execution).

        Pass ``domain`` to backfill the engine's mapping-graph mirror
        from the overlay when mappings were already inserted; engines
        created before any mapping stay in sync automatically.
        ``optimize=True`` enables cost-based reformulation pruning and
        scan ordering from propagated statistics.
        """
        from repro.engine.core import QueryEngine
        engine = QueryEngine(self, domain=domain, max_hops=max_hops,
                             cache_capacity=cache_capacity,
                             optimize=optimize)
        registry = self.registry
        name = "engine"
        if name in registry.view_names():
            index = 2
            while f"engine:{index}" in registry.view_names():
                index += 1
            name = f"engine:{index}"
        engine.stats.register_into(registry, name)
        return engine

    # ------------------------------------------------------------------
    # Synchronous mediation operations
    # ------------------------------------------------------------------

    def _run(self, future: Future):
        return self.loop.run_until_complete(future)

    def insert_schema(self, schema: Schema, origin: str | None = None) -> None:
        """Insert a schema definition from ``origin`` (random default)."""
        self._run(self._origin(origin).insert_schema(schema))

    def insert_schemas(self, schemas: Iterable[Schema],
                       origin: str | None = None) -> None:
        """Insert several schemas."""
        for schema in schemas:
            self.insert_schema(schema, origin)

    def insert_triples(self, triples: Sequence[Triple],
                       origin: str | None = None) -> None:
        """Insert data triples (each indexed under its three keys)."""
        self._run(self._origin(origin).insert_triples(list(triples)))

    def insert_mapping(self, mapping: SchemaMapping,
                       bidirectional: bool = False,
                       origin: str | None = None) -> None:
        """Insert a schema mapping."""
        self._run(self._origin(origin).insert_mapping(
            mapping, bidirectional=bidirectional
        ))

    def remove_mapping(self, mapping: SchemaMapping,
                       origin: str | None = None) -> None:
        """Remove a schema mapping entirely."""
        self._run(self._origin(origin).remove_mapping(mapping))

    def deprecate_mapping(self, mapping: SchemaMapping,
                          origin: str | None = None) -> None:
        """Flag a mapping as deprecated."""
        self._run(self._origin(origin).deprecate_mapping(mapping))

    def create_mapping(
        self,
        source: Schema,
        target: Schema,
        attribute_pairs: Iterable[tuple[str, str]],
        kind: MappingKind = MappingKind.EQUIVALENCE,
        provenance: str = "user",
        confidence: float = 1.0,
        origin: str | None = None,
    ) -> SchemaMapping:
        """Convenience: build a mapping from attribute-name pairs and
        insert it (directed, source -> target)."""
        creator = self._origin(origin)
        correspondences = [
            PredicateCorrespondence(source.predicate(a), target.predicate(b),
                                    kind=kind)
            for a, b in attribute_pairs
        ]
        mapping = SchemaMapping(
            creator.mint_guid(f"map:{source.name}->{target.name}"),
            source.name,
            target.name,
            correspondences,
            provenance=provenance,
            confidence=confidence,
        )
        self._run(creator.insert_mapping(mapping))
        return mapping

    # ------------------------------------------------------------------
    # Scenarios (resilience experiments)
    # ------------------------------------------------------------------

    def run_scenario(self, panel, spec=None, origin: str | None = None,
                     domain: str = "default"):
        """Run a scripted churn scenario against *this* deployment.

        ``panel`` is a list of ``(query, ground_truth_subjects)`` pairs
        (see :func:`repro.resilience.scenario.ground_truth_panel`);
        ``spec`` a :class:`~repro.resilience.scenario.ScenarioSpec`
        whose runtime knobs (churn, maintenance, workload pacing)
        apply — its deployment fields are ignored since the network
        already exists.  Returns the
        :class:`~repro.resilience.scenario.ScenarioReport`.

        To build deployment *and* corpus from the spec in one go, use
        :meth:`repro.resilience.scenario.ScenarioRunner.from_spec`.
        """
        from repro.resilience.scenario import ScenarioRunner
        return ScenarioRunner(self, panel, spec, origin=origin,
                              domain=domain).run()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def search_for(self, query: ConjunctiveQuery | str,
                   strategy: str = "iterative",
                   max_hops: int = 5,
                   origin: str | None = None,
                   limit: int | None = None) -> QueryOutcome:
        """Issue a ``SearchFor`` and block until its outcome.

        ``query`` may be a parsed query or the paper's surface syntax,
        e.g. ``"SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"``.

        ``strategy`` is one of:

        ``"local"``
            No reformulation — only data under the query's own schema.
        ``"iterative"``
            The origin fetches mapping records itself and issues every
            reformulation it can derive (§4).
        ``"recursive"``
            Reformulation is delegated hop-by-hop to the peers holding
            the mappings (§4).

        ``limit`` is pushed *into* the distributed execution: the
        streaming pipeline stops issuing pattern fetches and
        reformulation fan-out the moment ``limit`` distinct rows have
        arrived (cooperative cancellation), and the outcome's
        streaming statistics report the fetches skipped and the
        estimated messages saved.

        For repeated / high-volume workloads, prefer an engine from
        :meth:`create_engine`: it caches reformulation plans across
        calls and dedupes pattern lookups within a batch.
        """
        if isinstance(query, str):
            query = parse_search_for(query)
        origin_peer = self._origin(origin)
        # One trace per query, trace_id == op_tag: the trace's message
        # spans cover exactly the messages the metrics attribute to the
        # same tag.  Scope and root wrap only the synchronous kickoff;
        # every asynchronous continuation inherits the tag through the
        # messages themselves, so concurrent maintenance / churn /
        # replication traffic is never billed to this query.
        op_tag = f"searchfor:{next(self._op_tags)}"
        transport = self.network
        try:
            future, root = transport.start_operation(
                origin_peer.node_id, origin_peer.search_for,
                (query, strategy, max_hops, limit), tag=op_tag,
                attrs={"strategy": strategy})
            outcome = self._run(future)
            outcome.messages = transport.metrics.operation_messages(op_tag)
            if root is not None:
                transport.tracer.finish(root, transport.loop.now,
                                        messages=outcome.messages)
            return outcome
        finally:
            transport.metrics.end_operation(op_tag)

    def run_batch(self, peer, queries, plans, limit: int | None = None,
                  optimizer=None):
        """Run a pre-planned engine batch at *peer*, with attribution.

        The transport seam under
        :meth:`repro.engine.core.QueryEngine.execute_batch`: the
        engine owns planning (its mapping-graph mirror, plan cache and
        pruning), while this method owns everything transport-coupled
        — the ``batch:<n>`` operation tag, the trace root, and driving
        the loop to completion.  A sharded deployment swaps in
        :class:`repro.mediation.sharded.ShardedGridVine`'s
        ``run_batch``, which routes the same call through
        ``ShardedTransport.submit`` instead; the engine never notices.

        Returns ``(outcomes, fetch_stats, messages)``.
        """
        # The batch's pattern fetches (and everything they cause
        # downstream) carry this tag, so the count stays exact even
        # with maintenance or churn traffic running in the background;
        # trace_id == op_tag gives the same 1:1 span coverage as
        # ``search_for``.
        op_tag = f"batch:{next(self._op_tags)}"
        transport = self.network
        try:
            batch_future, root = transport.start_operation(
                peer.node_id, peer.execute_planned_batch,
                (queries, plans, limit, optimizer), tag=op_tag,
                attrs={"queries": len(queries)})
            outcomes, fetch_stats = self._run(batch_future)
            messages = transport.metrics.operation_messages(op_tag)
            if root is not None:
                transport.tracer.finish(root, transport.loop.now,
                                        messages=messages)
        finally:
            transport.metrics.end_operation(op_tag)
        return outcomes, fetch_stats, messages

    # ------------------------------------------------------------------
    # Connectivity (§3.1) and graph reconstruction
    # ------------------------------------------------------------------

    def connectivity_records(self, domain: str = "default",
                             origin: str | None = None) -> list[ConnectivityRecord]:
        """Fetch the domain's connectivity records through the overlay."""
        records = self._run(self._origin(origin).fetch_connectivity(domain))
        return sorted(records, key=lambda r: r.schema_name)

    def connectivity_indicator(self, domain: str = "default",
                               origin: str | None = None) -> float:
        """The indicator ``ci`` computed from published degree records."""
        records = self.connectivity_records(domain, origin)
        return indicator_from_degrees([r.degree_pair for r in records])

    def fetch_mappings(self, schema_name: str,
                       include_deprecated: bool = False,
                       origin: str | None = None) -> list[SchemaMapping]:
        """Active outgoing mappings of a schema, via the overlay."""
        return self._run(self._origin(origin).fetch_mappings(
            schema_name, include_deprecated=include_deprecated
        ))

    def mapping_graph(self, domain: str = "default",
                      include_deprecated: bool = False,
                      origin: str | None = None) -> MappingGraph:
        """Reconstruct the mapping graph by crawling schema key spaces.

        This is exactly the "repeatedly crawling a decentralized ...
        graph" the indicator exists to avoid; it is provided for ground
        truth in tests and experiments.
        """
        graph = MappingGraph()
        for record in self.connectivity_records(domain, origin):
            graph.add_schema(record.schema_name)
        for schema_name in list(graph.schemas()):
            for mapping in self.fetch_mappings(
                schema_name, include_deprecated=include_deprecated,
                origin=origin,
            ):
                graph.add(mapping)
        return graph

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def total_triples_stored(self) -> int:
        """Sum of local triple-database sizes (includes replication)."""
        return sum(peer.db.count() for peer in self.peers.values())

    def metrics_snapshot(self) -> dict:
        """Network counters, for bench reporting."""
        return self.network.metrics.snapshot()

    # ------------------------------------------------------------------
    # Observability (see repro.obs)
    # ------------------------------------------------------------------

    @property
    def registry(self):
        """The deployment's unified metrics registry (lazily built).

        The transport's :class:`~repro.simnet.metrics.NetworkMetrics`
        is registered as the ``network`` view on first access; engines
        created via :meth:`create_engine` add ``engine`` views.  Views
        snapshot the live stat bags on demand — nothing on the message
        path changes.
        """
        registry = self._registry
        if registry is None:
            from repro.obs.registry import MetricsRegistry
            registry = self._registry = MetricsRegistry()
            self.network.metrics.register_into(registry)
        return registry

    def install_tracer(self, seed: int = 0, capacity: int = 200_000):
        """Install a span recorder on the transport and return it.

        Every query issued afterwards produces one causal trace (root
        span per ``search_for`` / engine batch, hop span per attributed
        message).  The tracer also appears as the ``tracer`` registry
        view so snapshots report buffer occupancy.
        """
        from repro.obs.tracer import Tracer
        tracer = Tracer(seed=seed, capacity=capacity)
        self.network.install_tracer(tracer)
        self.registry.register_view("tracer", tracer.snapshot)
        return tracer

    def trace_records(self) -> list[dict]:
        """All recorded span/event dicts in deterministic order."""
        return self.network.trace_records()

    def export_trace(self, path: str) -> int:
        """Write recorded spans/events as sorted JSONL; returns count."""
        from repro.obs.tracer import export_records_jsonl
        return export_records_jsonl(self.trace_records(), path)
