"""Mediation through the transport driver surface: GridVine queries at scale.

:class:`ShardedGridVine` is the scale-out twin of
:class:`~repro.mediation.network.GridVineNetwork`: it exposes the same
query surface (``search_for``, the :meth:`run_batch` seam a
:class:`~repro.engine.core.QueryEngine` executes through) over any
transport with the run-driver surface — the windowed
:class:`~repro.simnet.shard.ShardedTransport` or the single-loop
:class:`~repro.simnet.network.SimNetwork` — so one scale-out run drives
mediation identically on either engine.

The division of labour:

* the peer-side entry points (``GridVinePeer.search_for``,
  ``GridVinePeer.execute_planned_batch``) run *where the peer lives* —
  the controller reaches them through the transport's ``submit``,
  never through a direct method call, so inline and forked shard
  workers and the single loop behave identically;
* per-query message attribution uses the transport's ``op:<ref>``
  scopes (``attribute=True``), the driver-side equivalent of the
  ``searchfor:<n>`` / ``batch:<n>`` operation tags — on shards, counts
  are summed across every shard the query's causal chain touched;
* engine planning stays controller-side: the engine's mapping-graph
  mirror is backfilled by replaying the deployment's known mappings
  through :meth:`add_mapping_listener`, not by crawling the overlay
  (peers live on the shards; in process mode, in other processes).

Because worker processes exchange submissions and summaries over
pipes, everything crossing the boundary (queries, plans, outcomes)
must be picklable — which the mediation data model already is (frozen
value objects throughout).
"""

from __future__ import annotations

from typing import Any

from repro.simnet.events import SimulationError


def outcome_passthrough(outcome: Any) -> Any:
    """Ship the full :class:`QueryOutcome` back to the controller."""
    return outcome


def batch_passthrough(result: Any) -> Any:
    """Ship an ``(outcomes, fetch_stats)`` batch result unchanged."""
    return result


class _PeerHandle:
    """Controller-side stand-in for a peer living on a shard.

    Carries exactly what the engine needs (an origin id for
    submissions and trace roots); it deliberately has no behaviour —
    calling through it would bypass the transport boundary.
    """

    __slots__ = ("node_id", "optimizer")

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        #: engines ask the origin peer for its cost-based optimizer;
        #: peer state is not reachable from the controller, so
        #: optimizing engines are rejected in :meth:`run_batch`
        self.optimizer = None


class ShardedGridVine:
    """Query facade over a mediation deployment on either transport.

    Parameters
    ----------
    transport:
        The :class:`~repro.simnet.shard.ShardedTransport` or
        :class:`~repro.simnet.network.SimNetwork` holding the
        deployment's :class:`~repro.mediation.peer.GridVinePeer` s.
    mappings:
        The deployment's known schema mappings (both directions of
        every bidirectional insert).  Replayed as ``"insert"`` events
        to every registered mapping listener, so engines created
        against this facade start with a complete mirror.
    """

    def __init__(self, transport: Any,
                 mappings: tuple | list = ()) -> None:
        self.transport = transport
        self._mappings = list(mappings)
        self._listeners: list = []

    # -- the GridVineNetwork surface engines and harnesses consume -----

    def add_mapping_listener(self, listener) -> None:
        """Subscribe ``fn(action, mapping)``; immediately replays the
        deployment's known mappings as ``"insert"`` events (the
        sharded substitute for ``sync_from_overlay``)."""
        self._listeners.append(listener)
        for mapping in self._mappings:
            listener("insert", mapping)

    def _origin(self, origin: str | None) -> _PeerHandle:
        # Unknown origins are rejected by the transport's submit.
        if origin is None:
            raise SimulationError(
                "facade queries need an explicit origin peer")
        return _PeerHandle(origin)

    def create_engine(self, max_hops: int = 5,
                      cache_capacity: int = 256):
        """A :class:`~repro.engine.core.QueryEngine` bound to this
        deployment (mirror backfilled from the deployment's mappings;
        batches execute through :meth:`run_batch`)."""
        from repro.engine.core import QueryEngine

        return QueryEngine(self, domain=None, max_hops=max_hops,
                           cache_capacity=cache_capacity)

    # -- transport-boundary execution ----------------------------------

    def search_for(self, query, strategy: str = "iterative",
                   max_hops: int = 5, origin: str | None = None,
                   limit: int | None = None):
        """Issue one ``SearchFor`` from ``origin`` and run the transport
        to quiescence; returns the :class:`QueryOutcome` with
        ``messages`` filled from the merged attribution counters."""
        peer = self._origin(origin)
        ref = self.transport.submit(
            peer.node_id, "search_for", query, strategy, max_hops, limit,
            summarize=outcome_passthrough, attribute=True)
        self.transport.run_until_quiescent()
        outcome = self.transport.completed[ref]
        outcome.messages = self._operation_messages(ref)
        return outcome

    def submit_batch(self, origin: str, queries, plans,
                     limit: int | None = None,
                     summarize=batch_passthrough) -> int:
        """Queue a pre-planned engine batch at ``origin``; returns its ref.

        The batch crosses the transport boundary as one attributed
        ``execute_planned_batch`` operation and runs concurrently with
        whatever else is submitted for the same virtual time; its
        ``(outcomes, fetch_stats)``, reduced by ``summarize``, lands in
        the transport's ``completed`` under the returned ref.
        """
        return self.transport.submit(
            origin, "execute_planned_batch", list(queries),
            [list(plan) for plan in plans], limit,
            summarize=summarize, attribute=True)

    def run_batch(self, peer, queries, plans, limit: int | None = None,
                  optimizer: Any = None):
        """Execute a pre-planned engine batch at ``peer``.

        The driver-surface implementation of the ``run_batch`` seam
        under :meth:`repro.engine.core.QueryEngine.execute_batch`:
        :meth:`submit_batch`, then run to quiescence; reports
        ``(outcomes, fetch_stats, messages)`` exactly like the
        in-process seam.
        """
        if optimizer is not None:
            raise SimulationError(
                "cost-based optimization needs peer-side state and is "
                "not available through the transport boundary")
        ref = self.submit_batch(peer.node_id, queries, plans, limit)
        self.transport.run_until_quiescent()
        outcomes, fetch_stats = self.transport.completed[ref]
        return outcomes, fetch_stats, self._operation_messages(ref)

    def _operation_messages(self, ref: int) -> int:
        merged = self.transport.metrics_snapshot()
        return merged["operations"].get(f"op:{ref}", 0)
