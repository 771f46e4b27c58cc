"""The transport boundary between peers (actors) and the network.

Peers are addressable actors: they send ``(dst, kind, payload)``
envelopes through a :class:`Transport` and receive deliveries via the
handler registry on :class:`~repro.simnet.network.Node` — they never
touch other peer objects or the event loop of another peer directly.
This boundary is what lets the same peer code run over two transports
with identical protocol semantics:

:class:`~repro.simnet.network.SimNetwork` (alias ``InProcessTransport``)
    The single event-loop transport — today's behavior, bit-identical
    to the pre-refactor simulator (pinned by
    ``tests/test_transport_golden.py``).

:class:`~repro.simnet.shard.ShardedTransport`
    Partitions the P-Grid trie key space across N shards, each with
    its own logical clock, synchronized through a conservative
    lookahead window (see ``simnet/shard.py``).

Fault injection is a transport-layer concern: the two hook points that
:class:`~repro.faultlab.injector.FaultInjector` uses — a send-time drop
verdict (``on_send``) and ownership of delivery scheduling
(``dispatch``) — are defined here, so the same fault plans apply to any
transport.  One :class:`~repro.faultlab.plan.FaultPlan` installs as a
single injector on the single-loop transport or as per-shard injectors
on the sharded one (:meth:`ShardedTransport.install_fault_plan`), and
rng-free clauses (partitions) account identically on both.

The mediation layer rides the same boundary: per-operation attribution
scopes (``operation`` / ``op:<ref>`` tags) stick to messages and follow
causal chains across shards, so a GridVine ``SearchFor`` or an engine
batch submitted through either transport reports the *exact* same
per-query message count — the invariant the sharded-mediation tests pin
bit-for-bit (``tests/test_sharded_mediation.py``).  Tracing uses the
same discipline: span recorders install per transport (per shard on the
sharded engine) and export merged, deterministically ordered records.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.simnet.events import SimulationError
from repro.simnet.metrics import NetworkMetrics, merge_stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.events import EventLoop
    from repro.simnet.network import Message, Node


class Transport:
    """Base class for message transports connecting :class:`Node` actors.

    Concrete transports implement :meth:`send` (latency sampling and
    delivery scheduling) and own an event :attr:`loop`; the base class
    provides the pieces every transport shares:

    - the node registry (:meth:`attach` / :meth:`detach` / :meth:`node`
      / :meth:`is_online` / :meth:`set_online`),
    - per-operation attribution scopes (:meth:`operation`), which ride
      on the messages themselves so attribution follows causal chains,
    - :attr:`metrics` accounting,
    - the fault-injection hook points
      (:meth:`install_fault_injector` / :meth:`uninstall_fault_injector`).
    """

    #: active fault injector, if any (see
    #: :class:`repro.faultlab.injector.FaultInjector`).  ``None`` keeps
    #: :meth:`send` on the exact historical code path — with no
    #: injector installed every simulation stays bit-identical.
    fault_injector: Any | None

    #: active span recorder, if any (see :class:`repro.obs.tracer.
    #: Tracer`).  Same contract as the fault injector: ``None`` keeps
    #: every send/deliver on the exact historical code path, so a
    #: tracing-disabled run is bit-identical to the pre-tracing
    #: simulator.
    tracer: Any | None

    def __init__(self) -> None:
        self.metrics = NetworkMetrics()
        self._nodes: dict[str, "Node"] = {}
        #: stack of active attribution scopes (see :meth:`operation`)
        self._op_stack: list[str] = []
        self.fault_injector = None
        self.tracer = None

    # -- clock ---------------------------------------------------------

    #: The event loop carrying this transport's deliveries.  A *plain
    #: attribute* set by concrete transports in ``__init__`` — it is
    #: read on every message hop and every timer, so a property frame
    #: here would be pure per-message overhead.
    loop: "EventLoop"

    @property
    def now(self) -> float:
        """Current virtual time of this transport's clock."""
        return self.loop.now

    # -- per-operation attribution -------------------------------------

    def current_operation(self) -> str | None:
        """The attribution tag of the innermost active scope, if any."""
        return self._op_stack[-1] if self._op_stack else None

    @contextmanager
    def operation(self, op_tag: str) -> Iterator[None]:
        """Attribute messages sent inside this scope to ``op_tag``.

        The tag sticks to the messages themselves, so the attribution
        follows the *causal chain*: handling a tagged delivery re-opens
        the scope, and any forwards, replies or replica pushes sent
        from the handler inherit the tag.  Concurrent background
        traffic (maintenance ticks, churn) runs outside any scope and
        stays unattributed — this is what makes per-query message
        counts exact under churn (see
        :meth:`~repro.simnet.metrics.NetworkMetrics.begin_operation`).
        """
        self._op_stack.append(op_tag)
        try:
            yield
        finally:
            self._op_stack.pop()

    # -- membership ----------------------------------------------------

    def attach(self, node: "Node") -> None:
        """Register a node under its ``node_id``."""
        if node.node_id in self._nodes:
            raise SimulationError(f"duplicate node id {node.node_id!r}")
        node.network = self
        self._nodes[node.node_id] = node

    def detach(self, node_id: str) -> None:
        """Remove a node permanently (e.g. simulated departure)."""
        node = self._nodes.pop(node_id, None)
        if node is not None:
            node.network = None

    def node(self, node_id: str) -> "Node":
        """Look up an attached node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SimulationError(f"unknown node {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node_ids(self) -> list[str]:
        """Ids of all attached nodes (online or not)."""
        return list(self._nodes)

    def is_online(self, node_id: str) -> bool:
        """Whether the node exists and is currently online.

        Transports may answer from *local knowledge*: a sharded
        transport answers exactly for peers it owns and from a
        barrier-refreshed liveness map for remote peers (stale by at
        most one synchronization window).
        """
        node = self._nodes.get(node_id)
        return node is not None and node.online

    def set_online(self, node_id: str, online: bool) -> None:
        """Toggle a node's availability (simulated crash / recovery)."""
        self.node(node_id).online = online

    # -- fault-injection hook points -----------------------------------

    def install_fault_injector(self, injector: Any) -> None:
        """Route subsequent sends through ``injector``.

        The injector contract has two hooks: ``on_send(message)``
        returns a drop-reason string to drop the message before latency
        sampling (or ``None`` to let it pass), and
        ``dispatch(message, delay, deliver)`` takes ownership of
        delivery scheduling (jitter, duplication, reordering).
        """
        if self.fault_injector is not None and self.fault_injector is not injector:
            raise SimulationError("a fault injector is already installed")
        self.fault_injector = injector

    def uninstall_fault_injector(self, injector: Any) -> None:
        """Detach ``injector`` (idempotent; unknown injectors ignored)."""
        if self.fault_injector is injector:
            self.fault_injector = None

    # -- tracing hook points -------------------------------------------

    def install_tracer(self, tracer: Any) -> Any:
        """Route subsequent sends/deliveries through ``tracer``.

        The tracer contract mirrors the injector's: the transport
        stamps outgoing envelopes with the active trace context,
        records a hop span per message that passes the drop checks
        (``message_sent``), records drop events (``message_dropped``)
        and re-activates a delivered envelope's context around its
        handler — exactly the causal discipline of ``op_tag`` scopes.
        Returns ``tracer`` for chaining.
        """
        if self.tracer is not None and self.tracer is not tracer:
            raise SimulationError("a tracer is already installed")
        self.tracer = tracer
        return tracer

    def uninstall_tracer(self, tracer: Any) -> None:
        """Detach ``tracer`` (idempotent; unknown tracers ignored)."""
        if self.tracer is tracer:
            self.tracer = None

    # -- operations ----------------------------------------------------

    def start_operation(self, peer_id: str, kickoff: Callable,
                        args: tuple = (), *, tag: str | None = None,
                        trace_id: str | None = None,
                        name: str | None = None, kind: str = "op",
                        attrs: dict | None = None,
                        on_done: Callable[[Any], None] | None = None,
                        ) -> tuple[Any, dict | None]:
        """Start one logical operation: ``kickoff(*args)`` at ``peer_id``.

        The one place an operation opens its scopes.  With ``tag`` the
        synchronous kickoff runs inside that attribution scope (and the
        tag is registered for counting), so every message the operation
        causes — forwards, replies, replica pushes, on any shard — is
        counted under it.  With a tracer installed the kickoff also runs
        under a fresh root span ``trace_id`` (default: ``tag``) named
        ``name`` (default: ``trace_id``) carrying ``attrs``; untraced
        runs never build one.

        ``on_done(future)`` fires when the returned future resolves,
        after the root span is closed with ``"ok"`` / ``"failed"`` from
        the result's ``success`` flag.  Callers that close the root
        themselves (to attach attributes known only later) pass no
        ``on_done``.  Returns ``(kickoff result, root span or None)``.

        Bulk runs start tens of thousands of operations, so the
        untraced path allocates nothing beyond the kickoff and the
        returned pair: the collector's cadence on a large deployment is
        part of its wall time.
        """
        tracer = self.tracer
        if tag is not None:
            self.metrics.begin_operation(tag)
            self._op_stack.append(tag)
        try:
            if tracer is None:
                root = None
                result = kickoff(*args)
            else:
                trace_id = trace_id or tag
                root = tracer.start_trace(trace_id, name or trace_id,
                                          peer=peer_id, start=self.loop.now,
                                          kind=kind, **(attrs or {}))
                tracer._stack.append(tracer.context_of(root))
                try:
                    result = kickoff(*args)
                finally:
                    tracer._stack.pop()
        finally:
            if tag is not None:
                self._op_stack.pop()
        if on_done is not None:
            if root is not None:
                on_done = _finishing(tracer, root, self.loop, on_done)
            result.add_done_callback(on_done)
        return result, root

    def install_fault_plan(self, plan: Any) -> Any:
        """Install one :class:`~repro.faultlab.injector.FaultInjector`
        driven by ``plan``; returns the
        :class:`~repro.faultlab.injector.InstalledPlan`."""
        from repro.faultlab.injector import FaultInjector, InstalledPlan

        return InstalledPlan([FaultInjector(self, plan).install()])

    # -- reporting -----------------------------------------------------

    def stats(self) -> dict:
        """This transport's stats report (metrics, footprint, spans).

        The unit :func:`~repro.simnet.metrics.merge_stats` sums: one
        per shard on the sharded engine, one for the single loop.
        """
        import resource

        report = {
            "peers": len(self._nodes),
            "metrics": self.metrics.snapshot(),
            # Per-op attribution counters (not part of the generic
            # metrics snapshot): every tag this transport's traffic
            # carried.
            "operations": dict(self.metrics.operations),
            "events_processed": self.loop.events_processed,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        injector = self.fault_injector
        if injector is not None:
            report["faults_injected"] = dict(injector.injected)
        tracer = self.tracer
        if tracer is not None:
            # Span records are plain dicts, so process-mode workers
            # ship them over the stats pipe unchanged.
            report["spans"] = tracer.records
            report["spans_dropped"] = tracer.dropped
        return report

    def metrics_snapshot(self) -> dict:
        """Network-wide counters, shaped like
        :meth:`ShardedTransport.metrics_snapshot`."""
        return merge_stats([self.stats()])

    def trace_records(self) -> list[dict]:
        """All recorded span/event dicts in deterministic order."""
        if self.tracer is None:
            return []
        from repro.obs.tracer import merge_records

        return merge_records([self.tracer.records])

    # -- sending -------------------------------------------------------

    def send(self, message: "Message") -> None:
        """Sample a latency and schedule delivery of ``message``."""
        raise NotImplementedError


def _finishing(tracer: Any, root: dict, loop: "EventLoop",
               on_done: Callable[[Any], None]) -> Callable[[Any], None]:
    """``on_done`` preceded by closing ``root`` with the result's
    ``ok`` / ``failed`` status."""
    def done(future: Any) -> None:
        status = ("ok" if getattr(future.result(), "success", True)
                  else "failed")
        tracer.finish(root, loop.now, status)
        on_done(future)
    return done
