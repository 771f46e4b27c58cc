"""Counters and traces collected by the simulated network."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class NetworkMetrics:
    """Aggregate statistics over all messages sent through a network.

    ``messages_by_kind`` groups counts by the message's ``kind`` tag so
    benchmarks can separate routing traffic from maintenance traffic.
    """

    messages_sent: int = 0
    messages_dropped: int = 0
    total_latency: float = 0.0
    #: result values carried by reply messages — a proxy for data
    #: volume on the wire (bound vs parallel joins trade messages for
    #: shipped tuples; see bench E12)
    values_shipped: int = 0
    messages_by_kind: dict[str, int] = field(default_factory=dict)
    #: drop counts by *cause*: ``"offline"`` (destination was already
    #: offline at send time — the silent drops churn produces),
    #: ``"in_flight"`` (destination crashed while the message was on
    #: the wire), or a fault-injection reason such as ``"fault"`` /
    #: ``"partition"`` (see :mod:`repro.faultlab`)
    drops_by_reason: dict[str, int] = field(default_factory=dict)
    #: injected-fault counts keyed ``"<action>:<kind>"`` (actions:
    #: ``drop``, ``partition``, ``duplicate``, ``delay``, ``reorder``,
    #: ``crash``, ``restart`` — the latter two use kind ``"node"``)
    faults_by_kind: dict[str, int] = field(default_factory=dict)
    #: message counts for *tracked* operations only (see
    #: :meth:`begin_operation`) — exact per-operation attribution even
    #: with concurrent background traffic on the same network
    operations: dict[str, int] = field(default_factory=dict)

    def begin_operation(self, op_tag: str) -> None:
        """Start counting messages attributed to ``op_tag``.

        Only operations registered here are counted (the set of live
        tags stays bounded: callers pop the counter with
        :meth:`end_operation` when the operation resolves).
        """
        self.operations[op_tag] = 0

    def end_operation(self, op_tag: str) -> int:
        """Stop tracking ``op_tag`` and return its message count."""
        return self.operations.pop(op_tag, 0)

    def operation_messages(self, op_tag: str) -> int:
        """Current message count of a tracked operation (0 if unknown)."""
        return self.operations.get(op_tag, 0)

    def record_send(self, kind: str, latency: float,
                    values_count: int = 0,
                    op_tag: str | None = None) -> None:
        """Account for one delivered message."""
        self.messages_sent += 1
        self.total_latency += latency
        self.values_shipped += values_count
        self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + 1
        if op_tag is not None and op_tag in self.operations:
            self.operations[op_tag] += 1

    def record_drop(self, kind: str, reason: str = "offline") -> None:
        """Account for one message dropped before delivery.

        ``reason`` separates the causes: churn's silent
        offline-destination drops (``"offline"`` at send time,
        ``"in_flight"`` for crashes mid-delivery) from injected faults
        (``"fault"``, ``"partition"``) — without the breakdown the
        offline drops were indistinguishable from everything else.
        """
        self.messages_dropped += 1
        key = f"dropped:{kind}"
        self.messages_by_kind[key] = self.messages_by_kind.get(key, 0) + 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1

    def record_fault(self, action: str, kind: str) -> None:
        """Account for one injected fault on a ``kind`` message."""
        key = f"{action}:{kind}"
        self.faults_by_kind[key] = self.faults_by_kind.get(key, 0) + 1

    @property
    def faults_injected(self) -> int:
        """Total injected-fault count across all actions and kinds."""
        return sum(self.faults_by_kind.values())

    @property
    def mean_latency(self) -> float:
        """Mean per-message delivery latency in seconds (0.0 if none)."""
        if self.messages_sent == 0:
            return 0.0
        return self.total_latency / self.messages_sent

    def register_into(self, registry, name: str = "network") -> None:
        """Expose these counters as a lazily-evaluated view in a
        :class:`~repro.obs.registry.MetricsRegistry`.

        The counters themselves stay plain dataclass fields (the send
        path increments them inline); the registry snapshots them on
        demand, so registration costs nothing per message.
        """
        registry.register_view(name, self.snapshot)

    def snapshot(self) -> dict:
        """A plain-dict copy, convenient for bench reporting."""
        return {
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
            "mean_latency": self.mean_latency,
            "values_shipped": self.values_shipped,
            "messages_by_kind": dict(self.messages_by_kind),
            "drops_by_reason": dict(self.drops_by_reason),
            "faults_by_kind": dict(self.faults_by_kind),
        }

    def reset(self) -> None:
        """Zero all counters (e.g. after a warm-up phase).

        Tracked operation counters restart at zero but stay tracked —
        an operation spanning the reset keeps attributing its later
        messages.
        """
        self.messages_sent = 0
        self.messages_dropped = 0
        self.total_latency = 0.0
        self.values_shipped = 0
        self.messages_by_kind.clear()
        self.drops_by_reason.clear()
        self.faults_by_kind.clear()
        for op_tag in self.operations:
            self.operations[op_tag] = 0


def merge_stats(reports: list[dict]) -> dict:
    """Sum per-transport stats reports into one network-wide snapshot.

    ``reports`` are :meth:`~repro.simnet.transport.Transport.stats`
    dicts — one per shard on the sharded engine, one on the single
    loop — so both engines report the same keys.  Counters add, keyed
    counters add per key (a cross-shard operation's tag appears on
    every shard its causal chain touched; its total is the sum), and
    the per-shard memory footprints are listed in shard order.
    """
    merged = {"messages_sent": 0, "messages_dropped": 0,
              "events_processed": 0}
    keyed: dict[str, Counter] = {"drops_by_reason": Counter(),
                                 "faults_by_kind": Counter(),
                                 "operations": Counter()}
    for report in reports:
        metrics = report["metrics"]
        merged["messages_sent"] += metrics["messages_sent"]
        merged["messages_dropped"] += metrics["messages_dropped"]
        merged["events_processed"] += report["events_processed"]
        keyed["drops_by_reason"].update(metrics["drops_by_reason"])
        keyed["faults_by_kind"].update(metrics["faults_by_kind"])
        keyed["operations"].update(report["operations"])
    for name, counts in keyed.items():
        merged[name] = dict(counts)
    merged["per_shard_peak_rss_kb"] = [report["peak_rss_kb"]
                                       for report in reports]
    return merged
