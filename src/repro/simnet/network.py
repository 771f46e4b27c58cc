"""Simulated message-passing network connecting logical nodes.

:class:`SimNetwork` is the only channel through which peers may talk to
each other; sending a message samples a latency from the configured
model and schedules delivery on the event loop.  Offline destinations
silently drop messages (senders are expected to use timeouts or replica
retries, exactly as over a real WAN).

:class:`SimNetwork` is the in-process implementation of the
:class:`~repro.simnet.transport.Transport` boundary — the name
:data:`InProcessTransport` is the canonical alias in transport-facing
code.  Peers receive deliveries through the handler registry on
:class:`Node`: each message kind maps to one registered handler, which
is what makes peers addressable actors rather than objects calling into
each other.  It also offers the run-driver surface of
:class:`~repro.simnet.shard.ShardedTransport` (``submit`` /
``completed`` / ``set_online_at`` / ``run_until`` /
``run_until_quiescent`` / ``stop`` / ``metrics_snapshot``), so one
driver runs a deployment on either engine.
"""

from __future__ import annotations

import itertools
import random
from heapq import heappush
from typing import Any, Callable

from repro.simnet.events import EventHandle, EventLoop, SimulationError
from repro.simnet.latency import ConstantLatency, LatencyModel
from repro.simnet.transport import Transport


class Message:
    """One network message (the envelope of the actor boundary).

    ``kind`` tags the protocol step (``"route"``, ``"reply"``, ...);
    ``hops`` counts forwarding steps for the hop-count benchmarks; the
    free-form ``payload`` dict carries protocol state.  Payloads must
    stay plain data (picklable) — a sharded transport ships them across
    process boundaries.

    A slot-only class rather than a dataclass: one Message is built per
    send, and at deployment scale the per-instance dict is measurable
    overhead (slot instances also pickle fine across shard workers).
    """

    __slots__ = ("kind", "src", "dst", "payload", "hops", "sent_at",
                 "op_tag", "trace")

    def __init__(self, kind: str, src: str, dst: str,
                 payload: dict[str, Any] | None = None, hops: int = 0,
                 sent_at: float = 0.0, op_tag: str | None = None) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = {} if payload is None else payload
        self.hops = hops
        self.sent_at = sent_at
        #: attribution tag of the logical operation this message
        #: belongs to; filled from the network's active operation scope
        #: when left ``None`` and inherited by every message sent while
        #: handling the delivery (forwards, replies, replica fan-out)
        self.op_tag = op_tag
        #: trace context ``(trace_id, span_id)`` of the causal chain
        #: this message belongs to — a plain picklable tuple so sharded
        #: transports ship it across process boundaries unchanged.
        #: ``None`` whenever no tracer is installed or no trace is
        #: active; the transport stamps it at send time and restores it
        #: around the delivery handler (see ``repro.obs``).
        self.trace: Any = None

    def __repr__(self) -> str:
        return (f"Message(kind={self.kind!r}, src={self.src!r}, "
                f"dst={self.dst!r}, payload={self.payload!r}, "
                f"hops={self.hops}, sent_at={self.sent_at}, "
                f"op_tag={self.op_tag!r})")


class Node:
    """Base class for anything attached to a :class:`Transport`.

    A node is an *actor*: it reaches the rest of the system only
    through :meth:`send` envelopes, and receives deliveries through
    handlers registered per message kind with :meth:`register_handler`.
    Subclasses either register handlers (the normal protocol style) or
    override :meth:`on_message` wholesale.  The node gets a back-ref to
    the transport when attached, which keeps construction order
    flexible.
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.network: Transport | None = None
        self.online = True
        #: message kind -> bound handler (see :meth:`register_handler`)
        self._handlers: dict[str, Callable[[Message], None]] = {}
        #: True when this node uses the stock :meth:`on_message`
        #: dispatch, letting the transport jump straight to the handler
        #: registry on delivery (one less frame per message)
        self._fast_dispatch = type(self).on_message is Node.on_message

    @property
    def loop(self) -> EventLoop:
        """The event loop of the attached transport."""
        if self.network is None:
            raise SimulationError(f"node {self.node_id} is not attached")
        return self.network.loop

    def send(self, dst: str, kind: str, payload: dict | None = None,
             hops: int = 0) -> None:
        """Send a message through the attached transport."""
        if self.network is None:
            raise SimulationError(f"node {self.node_id} is not attached")
        self.network.send(Message(
            kind=kind,
            src=self.node_id,
            dst=dst,
            payload=payload or {},
            hops=hops,
        ))

    # -- delivery ------------------------------------------------------

    def register_handler(self, kind: str,
                         handler: Callable[[Message], None]) -> None:
        """Route deliveries of ``kind`` to ``handler`` (last wins)."""
        self._handlers[kind] = handler

    def handled_kinds(self) -> frozenset[str]:
        """The message kinds this node has handlers for."""
        return frozenset(self._handlers)

    def on_message(self, message: Message) -> None:
        """Dispatch a delivered message to its registered handler."""
        handler = self._handlers.get(message.kind)
        if handler is None:
            self.unhandled_message(message)
        else:
            handler(message)

    def unhandled_message(self, message: Message) -> None:
        """Called for deliveries with no registered handler."""
        raise ValueError(f"unknown message kind {message.kind!r}")


def summarize_op_result(result: Any) -> tuple:
    """Default completion summary: a plain, picklable tuple.

    Works for :class:`repro.pgrid.peer.OpResult`; sharded harnesses
    reduce completions to plain data at the barrier so process workers
    never ship peer objects.
    """
    return (result.success, result.hops, round(result.latency, 9),
            result.attempts,
            None if result.values is None else len(result.values))


class SimNetwork(Transport):
    """The simulated Internet layer (single shared event loop).

    Parameters
    ----------
    loop:
        Event loop carrying deliveries (a fresh one is created when
        omitted).
    latency:
        Per-message delay model; defaults to a 50 ms constant.
    rng:
        Randomness source for latency sampling (seeded for
        reproducibility).
    """

    def __init__(
        self,
        loop: EventLoop | None = None,
        latency: LatencyModel | None = None,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__()
        # ``loop`` doubles as the public accessor (see Transport.loop);
        # ``_loop`` is kept as an alias for existing internal callers.
        self.loop = self._loop = loop if loop is not None else EventLoop()
        self.latency = latency if latency is not None else ConstantLatency()
        self.rng = rng if rng is not None else random.Random(0)
        self._refs = itertools.count()
        #: op ref -> completion summary (see :meth:`submit`)
        self.completed: dict[int, Any] = {}

    # -- run driver ----------------------------------------------------

    def submit(self, node_id: str, method: str, *args: Any,
               summarize: Callable | None = None,
               attribute: bool = False) -> int:
        """Call ``peer.<method>(*args)`` now; returns the op ref.

        The single-loop twin of :meth:`ShardedTransport.submit`: the
        future's result, reduced by ``summarize`` (default
        :func:`summarize_op_result`), lands in :attr:`completed` under
        the returned ref, and ``attribute=True`` counts every message
        the operation causes under ``op:<ref>`` in
        :meth:`metrics_snapshot` ``operations``.  Refs, attribution
        tags and trace roots match the sharded engine's, so one
        deployment is comparable across engines.
        """
        ref = next(self._refs)
        peer = self.node(node_id)
        self.start_operation(
            node_id, getattr(peer, method), args,
            tag=f"op:{ref}" if attribute else None,
            trace_id=f"op:{ref}", name=f"op:{method}",
            # Bound through defaults, not closure cells: one callback
            # object per op keeps a 20k-op run's collector cadence.
            on_done=lambda future, ref=ref, completed=self.completed,
            summarize=summarize or summarize_op_result:
                completed.__setitem__(ref, summarize(future.result())))
        return ref

    def set_online_at(self, time: float, node_id: str, online: bool) -> None:
        """Schedule a churn toggle at virtual ``time``."""
        self.node(node_id)
        if time < self._loop.now:
            raise SimulationError(
                f"cannot toggle in the past ({time} < {self._loop.now})")
        self._loop.schedule_at(time, self.set_online, node_id, online)

    def run_until(self, t_end: float) -> None:
        """Fire every event up to virtual time ``t_end``."""
        self._loop.run_until(t_end)

    def run_until_quiescent(self) -> None:
        """Fire events until none is left."""
        self._loop.run_until_idle()

    def stop(self) -> list[dict]:
        """Final stats report (a one-element list, like the per-shard
        reports of :meth:`ShardedTransport.stop`)."""
        return [self.stats()]

    # -- transport -----------------------------------------------------

    def send(self, message: Message) -> None:
        """Sample a latency and schedule delivery of ``message``.

        Messages to unknown or offline destinations are dropped; the
        drop is recorded so protocols under test can be audited for
        relying on silent success.
        """
        loop = self._loop
        message.sent_at = loop._now
        if message.op_tag is None:
            op_stack = self._op_stack
            if op_stack:
                message.op_tag = op_stack[-1]
        tracer = self.tracer
        if tracer is not None and message.trace is None:
            # Stamp the active trace context, mirroring the op_tag
            # inheritance above.  With no tracer installed this whole
            # block is one attribute load and a None check — the
            # pay-for-what-you-use contract the golden tests pin.
            trace_stack = tracer._stack
            if trace_stack:
                message.trace = trace_stack[-1]
        dst_node = self._nodes.get(message.dst)
        if dst_node is None or not dst_node.online:
            self.metrics.record_drop(message.kind, reason="offline")
            if tracer is not None and message.trace is not None:
                tracer.message_dropped(message, loop._now, "offline")
            return
        injector = self.fault_injector
        if injector is not None:
            drop_reason = injector.on_send(message)
            if drop_reason is not None:
                self.metrics.record_drop(message.kind, reason=drop_reason)
                if tracer is not None and message.trace is not None:
                    tracer.message_dropped(message, loop._now,
                                           drop_reason)
                return
        latency = self.latency
        if type(latency) is ConstantLatency:
            # The default model needs no sampling call (and consumes no
            # randomness) — skip the frame on the per-message path.
            delay = latency.delay
        else:
            delay = latency.sample(message.src, message.dst, self.rng)
        # Inlined ``self.metrics.record_send(...)``: one method call per
        # message is measurable at deployment-build volume.
        kind = message.kind
        metrics = self.metrics
        metrics.messages_sent += 1
        metrics.total_latency += delay
        values = message.payload.get("values")
        if values is not None and isinstance(values, (list, set)):
            metrics.values_shipped += len(values)
        by_kind = metrics.messages_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        op_tag = message.op_tag
        if op_tag is not None and op_tag in metrics.operations:
            metrics.operations[op_tag] += 1
        if tracer is not None and message.trace is not None:
            # Same gate as the op_tag counter above: a hop span exists
            # exactly for the messages the metrics layer counts, which
            # is what makes per-trace message coverage an exact match
            # against ``operation_messages``.
            tracer.message_sent(message, loop._now, delay)
        if injector is not None:
            # The injector owns scheduling for faulted links: it may
            # add jitter, clone duplicates or hold the message back to
            # reorder it behind later traffic.  Unmatched messages are
            # scheduled exactly as below.
            injector.dispatch(message, delay, self._deliver)
        else:
            # Inlined ``loop.schedule(delay, self._deliver, message)``
            # — same heap entry and seq numbering, minus one frame on
            # the per-message path (delay is a sampled latency, never
            # negative, so the guard is also redundant here).
            time = loop._now + delay
            handle = EventHandle(time, next(loop._seq), loop,
                                 self._deliver, (message,))
            heappush(loop._queue, (time, handle.seq, handle))
            loop._live += 1

    def _deliver(self, message: Message) -> None:
        node = self._nodes.get(message.dst)
        if node is None or not node.online:
            # Destination went offline while the message was in flight.
            self.metrics.record_drop(message.kind, reason="in_flight")
            tracer = self.tracer
            if tracer is not None and message.trace is not None:
                tracer.message_dropped(message, self._loop._now,
                                       "in_flight")
            return
        if node._fast_dispatch:
            # Stock dispatch: jump straight to the registered handler
            # (``on_message`` would do exactly this lookup, one frame
            # deeper — and this is the hottest call site in the system).
            handler = node._handlers.get(message.kind)
            if handler is None:
                handler = node.unhandled_message
        else:
            handler = node.on_message
        if message.trace is not None:
            # Traced delivery: re-open the trace context (and the
            # op_tag scope) around the handler.  Untraced messages —
            # the only kind that exists with tracing off — skip to the
            # exact historical dispatch below.
            self._deliver_traced(message, handler)
            return
        op_tag = message.op_tag
        if op_tag is not None:
            # Re-open the scope so messages sent by the handler inherit
            # the delivered message's attribution (inlined
            # ``self.operation(...)``: one scope open/close per
            # delivery makes the contextmanager generator measurable).
            op_stack = self._op_stack
            op_stack.append(op_tag)
            try:
                handler(message)
            finally:
                op_stack.pop()
        else:
            handler(message)

    def _deliver_traced(self, message: Message, handler) -> None:
        """Deliver with the envelope's trace context re-activated.

        Messages the handler sends parent under this message's hop
        span — the asynchronous leg of causal propagation (the
        synchronous leg is the tracer's activation stack).
        """
        tracer = self.tracer
        trace_stack = tracer._stack if tracer is not None else None
        if trace_stack is not None:
            trace_stack.append(message.trace)
        op_tag = message.op_tag
        try:
            if op_tag is not None:
                op_stack = self._op_stack
                op_stack.append(op_tag)
                try:
                    handler(message)
                finally:
                    op_stack.pop()
            else:
                handler(message)
        finally:
            if trace_stack is not None:
                trace_stack.pop()


#: The canonical transport-facing name for :class:`SimNetwork`: the
#: single-event-loop transport, bit-identical to the pre-refactor
#: simulator (see ``tests/test_transport_golden.py``).
InProcessTransport = SimNetwork
