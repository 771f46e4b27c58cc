"""Sharded transport: conservative parallel simulation of the overlay.

The in-process transport drives every peer from one event loop, which
caps experiments at a few hundred peers.  This module partitions the
P-Grid trie key space across N *shards*, each owning a contiguous run
of trie leaves and simulating its peers on a private event loop (its
logical clock), and synchronizes the shards with a classic conservative
lookahead scheme:

Window rule
    Let ``W`` be the minimum cross-shard latency (the *lookahead*,
    :meth:`~repro.simnet.latency.LatencyModel.min_delay`).  All shards
    repeatedly run their local loops over the same window
    ``(T, T + W]``.  A message sent at ``t > T`` arrives no earlier
    than ``t + W > T + W``, so nothing sent inside a window can affect
    another shard *within* that window — shards are causally
    independent between barriers and may run in parallel.

Deterministic cross-shard ordering
    At each barrier, shards exchange their outboxes.  Every envelope
    carries ``(deliver_time, src_shard, src_seq)`` and the receiving
    shard enqueues arrivals sorted by exactly that triple; local events
    keep their ``(time, seq)`` heap order.  The merged order of the two
    logical clocks is therefore a pure function of the seed — worker
    scheduling (process interleaving, pipe timing) cannot perturb it,
    which is what lets faultlab's seed-replay and shrinking discipline
    survive at scale.

Liveness under churn
    The *owning* shard applies churn toggles as exact-time local
    events, so the authoritative delivery-time online check (drops with
    reason ``"in_flight"``) behaves exactly like the in-process
    transport.  Remote shards learn toggles from a liveness map
    refreshed at the start of the window containing the toggle —
    send-time online checks against remote peers may be stale by up to
    one window, mirroring how a real WAN's failure detectors lag the
    failures themselves.

Worker modes
    ``mode="inline"`` runs every shard in this process (deterministic,
    zero dependencies — the default, and what tests use).
    ``mode="process"`` forks one worker per shard and drives them over
    pipes; the per-window algorithm is byte-for-byte the same, so both
    modes produce identical observables, but windows execute
    concurrently on multi-core hosts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.simnet.events import EventLoop, SimulationError
from repro.simnet.latency import ConstantLatency, LatencyModel
from repro.simnet.metrics import merge_stats
from repro.simnet.network import Message, Node, summarize_op_result
from repro.simnet.transport import Transport

#: message kinds whose payload "values" list is counted as shipped
_VALUES = "values"


def partition_paths(assignment: dict[str, Any], num_shards: int
                    ) -> dict[str, int]:
    """Assign each node to a shard by contiguous trie key-space slices.

    Leaves (distinct paths) are sorted in trie (DFS / lexicographic)
    order and dealt to shards in contiguous runs of roughly equal peer
    count, so each shard owns an interval of the key space — replica
    groups never straddle shards, and prefix-local traffic (replication
    pushes, deep routing hops) stays intra-shard.

    ``assignment`` maps node id to a path (any object with ``.bits``).
    Returns node id -> shard index.
    """
    if num_shards <= 0:
        raise SimulationError("num_shards must be positive")
    members: dict[str, list[str]] = {}
    for node_id, path in assignment.items():
        members.setdefault(path.bits, []).append(node_id)
    leaves = sorted(members)
    total = len(assignment)
    owner: dict[str, int] = {}
    shard, filled = 0, 0
    for leaf in leaves:
        for node_id in members[leaf]:
            owner[node_id] = shard
        filled += len(members[leaf])
        # advance once this shard reached its proportional share
        while shard < num_shards - 1 and filled * num_shards >= total * (shard + 1):
            shard += 1
    return owner


class ShardTransport(Transport):
    """The transport one shard's peers are attached to.

    Local deliveries replicate :class:`SimNetwork` semantics (send-time
    offline drop, latency sample, delivery-time ``in_flight`` drop).
    Remote destinations are looked up in the shared ownership map; the
    envelope is sampled for latency at the *sender* and parked in the
    outbox for the next barrier exchange.

    The send path is deliberately leaner than the in-process
    transport's: per-shard metrics keep plain counters (merged at
    collection time) and constant-latency models skip sampling
    entirely.  Per-operation attribution follows the same causal
    discipline as :class:`SimNetwork` — an open ``operation()`` scope
    stamps outgoing envelopes and a delivered tagged envelope re-opens
    its scope around the handler — but counting is unconditional per
    stamped tag (no ``begin_operation`` registry), because the tag must
    keep counting on whichever shard the causal chain lands on.  Bulk
    workloads that never open a scope pay only a ``None`` check per
    message.
    """

    def __init__(
        self,
        shard_id: int,
        owner_of: dict[str, int],
        latency: LatencyModel,
        rng: random.Random,
        clamp_delay: float = 0.0,
    ) -> None:
        super().__init__()
        self.shard_id = shard_id
        # ``loop`` doubles as the public accessor (see Transport.loop);
        # ``_loop`` is kept as an alias for existing internal callers.
        self.loop = self._loop = EventLoop()
        self._owner_of = owner_of
        self.latency = latency
        self.rng = rng
        #: cross-shard delays are raised to at least this (the WAN
        #: propagation floor backing the lookahead window) when the
        #: latency model has no positive lower bound of its own
        self._clamp_delay = clamp_delay
        self._const_delay = (
            latency.delay if isinstance(latency, ConstantLatency) else None)
        #: barrier-refreshed knowledge of remote peers' liveness
        self._liveness: dict[str, bool] = {}
        self._outbox: list[tuple[float, int, Message]] = []
        self._out_seq = itertools.count()

    def is_online(self, node_id: str) -> bool:
        node = self._nodes.get(node_id)
        if node is not None:
            return node.online  # authoritative for owned peers
        if node_id in self._owner_of:
            return self._liveness.get(node_id, True)  # window-stale
        return False

    def set_online(self, node_id: str, online: bool) -> None:
        # Only the owning shard may toggle a peer; the controller
        # routes toggles accordingly.
        self.node(node_id).online = online

    def send(self, message: Message) -> None:
        loop = self._loop
        message.sent_at = loop.now
        op_tag = message.op_tag
        if op_tag is None:
            # Same stamping rule as SimNetwork.send: the innermost
            # active attribution scope rides the envelope, so causal
            # chains keep their tag across shard boundaries.
            op_stack = self._op_stack
            if op_stack:
                message.op_tag = op_tag = op_stack[-1]
        tracer = self.tracer
        if tracer is not None and message.trace is None:
            trace_stack = tracer._stack
            if trace_stack:
                message.trace = trace_stack[-1]
        injector = self.fault_injector
        if injector is not None:
            drop_reason = injector.on_send(message)
            if drop_reason is not None:
                self.metrics.record_drop(message.kind, reason=drop_reason)
                if tracer is not None and message.trace is not None:
                    tracer.message_dropped(message, loop.now, drop_reason)
                return
        dst_node = self._nodes.get(message.dst)
        metrics = self.metrics
        if dst_node is not None:
            # -- local delivery (same semantics as SimNetwork.send) ----
            if not dst_node.online:
                metrics.record_drop(message.kind, reason="offline")
                if tracer is not None and message.trace is not None:
                    tracer.message_dropped(message, loop.now, "offline")
                return
            delay = (self._const_delay if self._const_delay is not None
                     else self.latency.sample(message.src, message.dst,
                                              self.rng))
            metrics.messages_sent += 1
            metrics.total_latency += delay
            if op_tag is not None:
                operations = metrics.operations
                operations[op_tag] = operations.get(op_tag, 0) + 1
            if tracer is not None and message.trace is not None:
                tracer.message_sent(message, loop.now, delay)
            if injector is not None:
                injector.dispatch(message, delay, self._deliver)
            else:
                loop.schedule(delay, self._deliver, message)
            return
        # -- cross-shard envelope --------------------------------------
        if message.dst not in self._owner_of:
            metrics.record_drop(message.kind, reason="offline")
            if tracer is not None and message.trace is not None:
                tracer.message_dropped(message, loop.now, "offline")
            return
        if not self._liveness.get(message.dst, True):
            metrics.record_drop(message.kind, reason="offline")
            if tracer is not None and message.trace is not None:
                tracer.message_dropped(message, loop.now, "offline")
            return
        delay = (self._const_delay if self._const_delay is not None
                 else self.latency.sample(message.src, message.dst, self.rng))
        if delay < self._clamp_delay:
            delay = self._clamp_delay
        metrics.messages_sent += 1
        metrics.total_latency += delay
        if op_tag is not None:
            # Counted once, at the sender — the receiving shard only
            # schedules the delivery, exactly like the local branch.
            operations = metrics.operations
            operations[op_tag] = operations.get(op_tag, 0) + 1
        if tracer is not None and message.trace is not None:
            # Recorded at the sender with the sampled (clamped) delay,
            # so the hop span is complete before the envelope crosses
            # the shard boundary — the receiving shard never amends it.
            tracer.message_sent(message, loop.now, delay)
        self._outbox.append((loop.now + delay, next(self._out_seq), message))

    def _deliver(self, message: Message) -> None:
        node = self._nodes.get(message.dst)
        if node is None or not node.online:
            self.metrics.record_drop(message.kind, reason="in_flight")
            tracer = self.tracer
            if tracer is not None and message.trace is not None:
                tracer.message_dropped(message, self._loop.now,
                                       "in_flight")
            return
        op_tag = message.op_tag
        if message.trace is not None:
            tracer = self.tracer
            if tracer is not None:
                # Cross-shard stitching: the context tuple rode the
                # envelope, so re-activating it here parents the
                # handler's sends under the sender-recorded hop span
                # even when that span lives in another shard's buffer.
                trace_stack = tracer._stack
                trace_stack.append(message.trace)
                if op_tag is not None:
                    op_stack = self._op_stack
                    op_stack.append(op_tag)
                    try:
                        node.on_message(message)
                    finally:
                        op_stack.pop()
                        trace_stack.pop()
                    return
                try:
                    node.on_message(message)
                finally:
                    trace_stack.pop()
                return
        if op_tag is not None:
            # Re-open the attribution scope around the handler, so
            # forwards, replies and replica pushes inherit the tag —
            # the same causal rule as SimNetwork._deliver.
            op_stack = self._op_stack
            op_stack.append(op_tag)
            try:
                node.on_message(message)
            finally:
                op_stack.pop()
            return
        node.on_message(message)

    # Exact-time churn callbacks (pre-scheduled by the controller).

    def _toggle_local(self, node_id: str, online: bool) -> None:
        node = self._nodes.get(node_id)
        if node is not None:
            node.online = online

    def _toggle_liveness(self, node_id: str, online: bool) -> None:
        self._liveness[node_id] = online


class Shard:
    """One shard: a :class:`ShardTransport`, its peers, and window state."""

    def __init__(self, shard_id: int, transport: ShardTransport) -> None:
        self.shard_id = shard_id
        self.transport = transport
        self._completions: list[tuple[int, Any]] = []

    # Every window executes these steps in this exact order (the
    # process worker mirrors it verbatim — determinism depends on it).

    def begin_window(
        self,
        liveness: dict[str, bool],
        toggles: list[tuple[float, str, bool]],
        ops: list[tuple[int, str, str, tuple, Callable | None, bool]],
        arrivals: list[tuple[float, int, int, Message]],
    ) -> None:
        transport = self.transport
        loop = transport.loop
        if liveness:
            transport._liveness.update(liveness)
        for at, node_id, online in toggles:
            loop.schedule_at(at, self._apply_toggle, node_id, online)
        for ref, node_id, method, args, summarize, attribute in ops:
            self._issue(ref, node_id, method, args,
                        summarize or summarize_op_result, attribute)
        for deliver_time, _src_shard, _src_seq, message in arrivals:
            loop.schedule_at(deliver_time, transport._deliver, message)

    def run_window(self, horizon: float) -> None:
        self.transport.loop.run_until(horizon)

    def collect(self) -> tuple[list, list, int, float | None]:
        """(outbox, completions, live count, next live event time).

        The trailing pair is the shard's logical-clock status the
        controller needs for quiescence detection and window jumps —
        reported at every barrier so worker processes and inline
        shards feed the jump logic identically.
        """
        transport = self.transport
        outbox, transport._outbox = transport._outbox, []
        completions, self._completions = self._completions, []
        loop = transport.loop
        return outbox, completions, loop.live_events, \
            loop.next_live_event_time()

    # -- helpers -------------------------------------------------------

    def _apply_toggle(self, node_id: str, online: bool) -> None:
        node = self.transport._nodes.get(node_id)
        if node is not None:
            node.online = online

    def _issue(self, ref: int, node_id: str, method: str, args: tuple,
               summarize: Callable, attribute: bool = False) -> None:
        # The op ref comes from the controller's global submit order, so
        # the attribution tag and trace id — and the root span's
        # per-peer sequence — are invariant to how peers are sharded.
        # An attributed op's tag rides its messages across shard
        # boundaries, so the merged per-shard ``operations`` counters
        # give an exact per-op message count.
        peer = self.transport.node(node_id)
        self.transport.start_operation(
            node_id, getattr(peer, method), args,
            tag=f"op:{ref}" if attribute else None,
            trace_id=f"op:{ref}", name=f"op:{method}",
            on_done=lambda future: self._completions.append(
                (ref, summarize(future.result()))))

    def stats(self) -> dict:
        """Final per-shard report (metrics + footprint + spans)."""
        return {"shard": self.shard_id, **self.transport.stats()}


def _shard_worker(shard: Shard, conn: Any) -> None:
    """Process-mode worker loop: mirror of the inline window steps."""
    try:
        while True:
            command = conn.recv()
            op = command[0]
            if op == "window":
                _, horizon, liveness, toggles, ops, arrivals = command
                shard.begin_window(liveness, toggles, ops, arrivals)
                shard.run_window(horizon)
                conn.send(shard.collect())
            elif op == "stats":
                conn.send(shard.stats())
            elif op == "stop":
                conn.send(shard.stats())
                return
    except (EOFError, KeyboardInterrupt):  # parent went away
        return


@dataclass
class _WindowInput:
    """Per-shard inputs accumulated between barriers."""

    liveness: dict[str, bool] = field(default_factory=dict)
    toggles: list[tuple[float, str, bool]] = field(default_factory=list)
    ops: list[tuple[int, str, str, tuple, Callable | None, bool]] = field(
        default_factory=list)
    arrivals: list[tuple[float, int, int, Message]] = field(
        default_factory=list)

    def take(self) -> tuple[dict, list, list, list]:
        out = (self.liveness, self.toggles, self.ops,
               sorted(self.arrivals, key=lambda a: (a[0], a[1], a[2])))
        self.liveness, self.toggles, self.ops, self.arrivals = {}, [], [], []
        return out

    def empty(self) -> bool:
        return not (self.liveness or self.toggles or self.ops
                    or self.arrivals)


class ShardedTransport:
    """Controller of N shards stepping the conservative window protocol.

    Build the deployment (attach peers with :meth:`add_peer`), then
    drive virtual time with :meth:`run_until` /
    :meth:`run_until_quiescent`; submit operations against peers with
    :meth:`submit` and read their summaries from :attr:`completed`.
    For ``mode="process"``, call :meth:`start` after building and
    :meth:`stop` when done (inline mode needs neither).
    """

    def __init__(
        self,
        num_shards: int,
        latency: LatencyModel | None = None,
        seed: int = 0,
        window: float | None = None,
        mode: str = "inline",
    ) -> None:
        if num_shards <= 0:
            raise SimulationError("num_shards must be positive")
        if mode not in ("inline", "process"):
            raise SimulationError(f"unknown worker mode {mode!r}")
        self.latency = latency if latency is not None else ConstantLatency()
        lookahead = getattr(self.latency, "min_delay", lambda: 0.0)()
        if window is None:
            if lookahead <= 0.0:
                raise SimulationError(
                    "latency model has no positive min_delay(); pass an "
                    "explicit window (cross-shard delays are clamped to it)")
            window = lookahead
        clamp = window if window > lookahead else 0.0
        self.window = window
        self.mode = mode
        self.seed = seed
        self._owner_of: dict[str, int] = {}
        self.shards = [
            Shard(i, ShardTransport(
                i, self._owner_of, self.latency,
                random.Random(f"{seed}/shard-{i}"), clamp_delay=clamp))
            for i in range(num_shards)
        ]
        self._inputs = [_WindowInput() for _ in range(num_shards)]
        #: pending churn toggles, (time, seq, node_id, online), kept
        #: sorted with consumption cursors (cheaper than a heap for
        #: the bulk pre-registered schedules churn produces).  The
        #: event cursor dispatches exact-time toggles to owner shards
        #: up to each window's horizon; the liveness cursor trails it,
        #: publishing remote liveness only up to the window *start* —
        #: senders know the liveness state as of the last barrier,
        #: never the future.
        self._toggles: list[tuple[float, int, str, bool]] = []
        self._toggle_event_cursor = 0
        self._toggle_liveness_cursor = 0
        self._toggles_sorted = True
        self._toggle_seq = itertools.count()
        self._live = [0] * num_shards
        #: per-shard next live event time as of the last barrier
        self._next_live: list[float | None] = [None] * num_shards
        self._now = 0.0
        self._refs = itertools.count()
        #: op ref -> completion summary
        self.completed: dict[int, Any] = {}
        self._conns: list[Any] = []
        self._procs: list[Any] = []
        self._started = False
        self._final_stats: list[dict] | None = None

    # -- deployment ----------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def add_peer(self, peer: Node, shard_id: int) -> None:
        """Attach ``peer`` to a shard and record ownership."""
        if self._started:
            raise SimulationError("cannot add peers after start()")
        if peer.node_id in self._owner_of:
            raise SimulationError(f"duplicate node id {peer.node_id!r}")
        self._owner_of[peer.node_id] = shard_id
        self.shards[shard_id].transport.attach(peer)

    def owner_of(self, node_id: str) -> int:
        return self._owner_of[node_id]

    def install_tracer(self, seed: int | None = None,
                       capacity: int = 200_000) -> None:
        """Install one :class:`~repro.obs.tracer.Tracer` per shard.

        Every shard's tracer shares the same trace seed, so span ids
        depend only on ``(seed, peer, per-peer sequence)`` — identical
        across shard counts and worker modes.  Must run before
        :meth:`start` in process mode (tracers fork with the shards).
        """
        from repro.obs.tracer import Tracer

        if self._started and self.mode == "process":
            raise SimulationError(
                "install_tracer must run before start() in process mode")
        trace_seed = self.seed if seed is None else seed
        for shard in self.shards:
            shard.transport.install_tracer(
                Tracer(seed=trace_seed, capacity=capacity))

    def trace_records(self) -> list[dict]:
        """Merged, deterministically ordered span/event records.

        Inline mode reads the live per-shard tracers; process mode
        reads the buffers shipped back by :meth:`stop` (call it
        first).  The merge order is a pure function of the records, so
        inline and forked runs export byte-identical JSONL.
        """
        from repro.obs.tracer import merge_records

        if self._final_stats is not None:
            buffers = [entry.get("spans", [])
                       for entry in self._final_stats]
        elif self.mode == "process" and self._conns:
            raise SimulationError(
                "process-mode trace records are collected by stop()")
        else:
            buffers = [shard.transport.tracer.records
                       for shard in self.shards
                       if shard.transport.tracer is not None]
        return merge_records(buffers)

    def install_fault_plan(self, plan: Any) -> Any:
        """Install one :class:`~repro.faultlab.injector.FaultInjector`
        per shard, all driven by the same :class:`FaultPlan`.

        Per-clause RNG streams are seeded by ``(plan.seed, clause,
        ordinal)`` on every shard, and each shard consumes its streams
        in its own deterministic event order — so a faulted sharded run
        replays bit-identically from its seed, inline or forked.  Must
        run before :meth:`start` in process mode (injectors fork with
        the shards, and their epoch is the common barrier time 0).

        Semantics across the shard boundary: partitions and drop
        clauses are send-side and apply to *all* traffic (including
        cross-shard envelopes); delay/duplicate/reorder clauses own
        delivery scheduling and therefore apply to intra-shard
        deliveries only (cross-shard envelopes are latency-stamped at
        the sender and exchanged at the barrier).  Crash/restart
        clauses fire on the owning shard exactly; remote shards keep
        sending until the owner drops the deliveries as ``in_flight``
        — the same one-window staleness as barrier-start liveness.

        Returns an :class:`~repro.faultlab.injector.InstalledPlan`
        aggregating the per-shard injectors.
        """
        from repro.faultlab.injector import FaultInjector, InstalledPlan

        if self._started and self.mode == "process":
            raise SimulationError(
                "install_fault_plan must run before start() in "
                "process mode")
        return InstalledPlan([
            FaultInjector(shard.transport, plan).install()
            for shard in self.shards
        ])

    # -- process workers -----------------------------------------------

    def start(self) -> None:
        """Fork one worker per shard (``mode="process"`` only)."""
        if self.mode != "process" or self._started:
            self._started = True
            return
        # Snapshot each shard's clock status at the fork point; every
        # later barrier refreshes it from the workers' reports.
        for shard in self.shards:
            loop = shard.transport.loop
            self._live[shard.shard_id] = loop.live_events
            self._next_live[shard.shard_id] = loop.next_live_event_time()
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        for shard in self.shards:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_shard_worker,
                               args=(shard, child_conn), daemon=True)
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self._started = True

    def stop(self) -> list[dict]:
        """Collect final per-shard stats; join process workers."""
        if self._final_stats is not None:
            return self._final_stats
        if self.mode == "process" and self._conns:
            for conn in self._conns:
                conn.send(("stop",))
            self._final_stats = [conn.recv() for conn in self._conns]
            for conn in self._conns:
                conn.close()
            for proc in self._procs:
                proc.join(timeout=30)
            self._conns, self._procs = [], []
        else:
            self._final_stats = [shard.stats() for shard in self.shards]
        return self._final_stats

    # -- external inputs -----------------------------------------------

    def submit(self, node_id: str, method: str, *args: Any,
               summarize: Callable | None = None,
               attribute: bool = False) -> int:
        """Queue ``peer.<method>(*args)`` for the owner's next window.

        The call is issued at the window boundary (all logical clocks
        agree there); the future's result, reduced by ``summarize``
        (default :func:`summarize_op_result`), lands in
        :attr:`completed` under the returned ref.  In process mode the
        args and the summary must be picklable, and ``summarize`` must
        be a module-level function.

        ``attribute=True`` opens an ``op:<ref>`` attribution scope
        around the submission: every message the operation causes —
        on any shard — is counted under that tag in the merged
        :meth:`metrics_snapshot` ``operations`` dict.  Bulk workloads
        leave it off and pay nothing.
        """
        shard_id = self._owner_of.get(node_id)
        if shard_id is None:
            raise SimulationError(f"unknown node {node_id!r}")
        ref = next(self._refs)
        self._inputs[shard_id].ops.append(
            (ref, node_id, method, args, summarize, attribute))
        return ref

    def set_online_at(self, time: float, node_id: str, online: bool) -> None:
        """Schedule a churn toggle at virtual ``time`` (exact at the
        owner, liveness-map visible to other shards at the first
        barrier at or after it)."""
        if node_id not in self._owner_of:
            raise SimulationError(f"unknown node {node_id!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot toggle in the past ({time} < {self._now})")
        entry = (time, next(self._toggle_seq), node_id, online)
        if self._toggles_sorted and self._toggles and \
                entry < self._toggles[-1]:
            self._toggles_sorted = False
        self._toggles.append(entry)

    # -- the window protocol -------------------------------------------

    def _sort_toggle_tail(self) -> None:
        if not self._toggles_sorted:
            # Late submissions landed out of order; re-sort the tail
            # (guaranteed > everything already dispatched, since
            # past-time toggles are rejected at submission).
            cursor = self._toggle_event_cursor
            self._toggles[cursor:] = sorted(self._toggles[cursor:])
            self._toggles_sorted = True

    def _dispatch_toggles(self, horizon: float) -> None:
        toggles = self._toggles
        total = len(toggles)
        if self._toggle_liveness_cursor >= total:
            return
        self._sort_toggle_tail()
        inputs, owner_of = self._inputs, self._owner_of
        # Remote liveness: publish the state as of the window *start*.
        cursor = self._toggle_liveness_cursor
        while cursor < total and toggles[cursor][0] <= self._now:
            _at, _seq, node_id, online = toggles[cursor]
            cursor += 1
            owner = owner_of[node_id]
            for shard_id, inp in enumerate(inputs):
                if shard_id != owner:
                    inp.liveness[node_id] = online
        self._toggle_liveness_cursor = cursor
        # Exact-time toggle events at the owning shard, up to horizon.
        cursor = self._toggle_event_cursor
        while cursor < total and toggles[cursor][0] <= horizon:
            at, _seq, node_id, online = toggles[cursor]
            cursor += 1
            inputs[owner_of[node_id]].toggles.append((at, node_id, online))
        self._toggle_event_cursor = cursor
        if self._toggle_liveness_cursor >= total and cursor >= total:
            self._toggles.clear()
            self._toggle_event_cursor = 0
            self._toggle_liveness_cursor = 0

    def _step(self, horizon: float) -> None:
        self._dispatch_toggles(horizon)
        if self.mode == "process" and self._started and self._conns:
            for shard_id, conn in enumerate(self._conns):
                liveness, toggles, ops, arrivals = self._inputs[shard_id].take()
                conn.send(("window", horizon, liveness, toggles, ops,
                           arrivals))
            results = [conn.recv() for conn in self._conns]
        else:
            results = []
            for shard in self.shards:
                liveness, toggles, ops, arrivals = \
                    self._inputs[shard.shard_id].take()
                shard.begin_window(liveness, toggles, ops, arrivals)
                shard.run_window(horizon)
                results.append(shard.collect())
        self._now = horizon
        owner_of = self._owner_of
        for src_shard, (outbox, completions, live, next_live) in \
                enumerate(results):
            self._live[src_shard] = live
            self._next_live[src_shard] = next_live
            for ref, summary in completions:
                self.completed[ref] = summary
            for deliver_time, src_seq, message in outbox:
                self._inputs[owner_of[message.dst]].arrivals.append(
                    (deliver_time, src_shard, src_seq, message))

    def _next_horizon(self) -> float:
        """End of the next window, skipping ahead over dead time.

        The default step is ``now + window``.  Two jumps shorten long
        quiet stretches:

        *Event jump* — when every shard's earliest queued event and
        every pending arrival lies beyond the base window, the window
        may end exactly at the earliest such time: events fire no
        earlier than it, so anything they send still arrives strictly
        after it.

        *Quiet jump* — when no shard holds a *live* event and no
        arrivals are pending, nothing in the system can send a message
        at all: only churn toggles remain, and toggles just flip
        ``online`` flags.  The horizon becomes unbounded
        (``inf``) and the caller clamps it to its own target time —
        one window replaces ``O(idle / window)`` barrier spins, with
        every toggle inside it still fired at its exact virtual time
        by the owning shard's loop.

        Pending op submissions pin the horizon to the base window:
        they issue at the window's start and may send immediately.
        """
        base = self._now + self.window
        earliest = float("inf")
        quiet = True
        if self._started and self.mode == "process":
            # Use the workers' barrier reports — byte-identical inputs
            # to what the inline path reads from its local loops.
            status = zip(self._live, self._next_live)
        else:
            status = (
                (loop.live_events, loop.next_live_event_time())
                for loop in
                (shard.transport.loop for shard in self.shards))
        for live, next_time in status:
            if live:
                quiet = False
                if next_time is not None and next_time < earliest:
                    earliest = next_time
        for inp in self._inputs:
            if inp.ops:
                return base
            if inp.arrivals:
                quiet = False
                for deliver_time, _s, _q, _m in inp.arrivals:
                    if deliver_time < earliest:
                        earliest = deliver_time
            if inp.liveness or inp.toggles:
                quiet = False
        if quiet:
            # Pending churn toggles do not constrain the horizon: the
            # owner fires them at their exact times inside whatever
            # window contains them, and nothing that could *send* is
            # pending, so remote liveness staleness is unobservable.
            return float("inf")
        if earliest <= base or earliest == float("inf"):
            return base
        return earliest

    def run_until(self, t_end: float) -> None:
        """Step windows until virtual time reaches ``t_end``."""
        self.start()
        while self._now < t_end:
            self._step(min(t_end, self._next_horizon()))

    def busy(self) -> bool:
        """Whether any live event, arrival, op or toggle is pending."""
        return (any(self._live)
                or any(not inp.empty() for inp in self._inputs)
                or self._toggle_event_cursor < len(self._toggles))

    def run_until_quiescent(self, max_time: float = float("inf"),
                            max_windows: int = 10_000_000) -> None:
        """Step windows until no shard holds live work.

        Pending ops drain fully — worst case their timeout/retry chains
        fire and resolve the futures — so this terminates for any
        protocol that cannot schedule unboundedly far ahead.
        """
        self.start()
        if self.mode != "process":
            # live counters are only refreshed by a step; seed them
            self._live = [shard.transport.loop.live_events
                          for shard in self.shards]
        windows = 0
        while self.busy():
            if self._now >= max_time:
                return
            if windows >= max_windows:
                raise SimulationError(
                    f"run_until_quiescent exceeded {max_windows} windows")
            horizon = min(max_time, self._next_horizon())
            if horizon == float("inf"):
                # Quiet jump with no external bound: only toggles are
                # left, so one window covering them all drains the run.
                # busy() implies the toggle tail is non-empty here (the
                # other busy sources all bound _next_horizon), but an
                # empty tail must not crash an empty-workload run — fall
                # back to one plain window.
                tail = self._toggles[self._toggle_event_cursor:]
                horizon = (max(t for t, _s, _n, _o in tail) if tail
                           else self._now + self.window)
            self._step(horizon)
            windows += 1

    # -- reporting -----------------------------------------------------

    def shard_stats(self) -> list[dict]:
        """Live per-shard stats reports, safe to call mid-run.

        Inline mode reads the shard objects directly.  Process mode
        fetches fresh reports over the workers' ``stats`` pipes — the
        parent-side shard objects stopped advancing at the fork, so
        reading them would silently report the pre-fork zeros.  After
        :meth:`stop`, the final collected reports are returned.
        """
        if self._final_stats is not None:
            return self._final_stats
        if self.mode == "process" and self._started:
            if not self._conns:
                raise SimulationError(
                    "process workers are gone without final stats; "
                    "call stop() to collect them")
            for conn in self._conns:
                conn.send(("stats",))
            return [conn.recv() for conn in self._conns]
        return [shard.stats() for shard in self.shards]

    def metrics_snapshot(self) -> dict:
        """Merged per-shard metrics (live mid-run, final after stop())."""
        return merge_stats(self.shard_stats())
