"""Per-layer spans and metrics for the traced run.

:data:`SPANS` names the public functions of each ``repro`` layer the traced
run wraps; :func:`metrics` turns the span aggregates and the workload's
facts into the per-layer metrics listed in ``BENCHMARK.json``.  "Per
decision" means per committed block in the measured window.

:data:`PREDICTED_ZERO` records, per layer, the workloads on which that
layer is predicted to do no work; the self-tests check those cells read 0.
"""

from __future__ import annotations

import importlib
import math
import statistics
from typing import Any, Optional

from spans import Tracer
from stats import nearest_rank

#: (module, class or None, attribute, span name).  The span name's prefix
#: before the first dot is the layer.
SPANS: tuple[tuple[str, Optional[str], str, str], ...] = (
    ("repro.wire.codec", None, "encode_message", "wire.encode"),
    ("repro.wire.codec", None, "decode_message", "wire.decode"),
    ("repro.wire.framing", None, "encode_frame", "net.frame"),
    ("repro.net.tcp", "TcpTransport", "send", "net.transport_send"),
    ("repro.net.tcp", "_PeerChannel", "send", "net.channel_send"),
    ("repro.runtime.live", "LiveNetwork", "send", "net.live_send"),
    ("repro.runtime.replica_process", "ProcessNetwork", "send", "net.process_send"),
    ("repro.sim.process", "Process", "deliver", "core.deliver"),
    ("repro.core.replica", "Replica", "on_timer", "core.timer"),
    ("repro.core.fallback", "FallbackEngine", "handle", "fallback.handle"),
    ("repro.core.fallback", "FallbackEngine", "on_local_timeout", "fallback.timeout"),
    ("repro.crypto.hashing", None, "hash_fields", "crypto.hash"),
    ("repro.crypto.hashing", None, "hash_fields_uncached", "crypto.hash_uncached"),
    ("repro.crypto.threshold", "ThresholdScheme", "sign_share", "crypto.sign_share"),
    ("repro.crypto.threshold", "ThresholdScheme", "verify_share", "crypto.verify_share"),
    ("repro.crypto.threshold", "ThresholdScheme", "combine", "crypto.combine"),
    ("repro.crypto.threshold", "ThresholdScheme", "verify", "crypto.verify_combined"),
    ("repro.crypto.coin", "CommonCoin", "share", "crypto.coin_share"),
    ("repro.crypto.coin", "CommonCoin", "verify_share", "crypto.coin_verify_share"),
    ("repro.crypto.coin", "CommonCoin", "reveal", "crypto.coin_reveal"),
    ("repro.storage.journal", "FileSafetyJournal", "write", "storage.journal_write"),
    ("repro.storage.journal", "FileSafetyJournal", "checkpoint", "storage.journal_checkpoint"),
    ("repro.storage.journal", "SafetySnapshot", "clone", "storage.snapshot_clone"),
    ("repro.storage.durable", "DurableReplica", "_persist", "storage.persist"),
    ("repro.mempool.mempool", "Mempool", "submit", "mempool.submit"),
    ("repro.mempool.mempool", "Mempool", "next_batch", "mempool.next_batch"),
    ("repro.mempool.mempool", "Mempool", "mark_committed", "mempool.mark_committed"),
    ("repro.traffic.admission", "AdmissionController", "offer", "traffic.offer"),
    ("repro.ledger.ledger", "Ledger", "commit_through", "ledger.commit"),
    ("repro.sim.scheduler", "Scheduler", "run", "sim.run"),
    ("repro.sim.scheduler", "Scheduler", "step", "sim.step"),
    ("repro.sim.events", "EventQueue", "push", "sim.queue_push"),
    ("repro.sim.events", "EventQueue", "pop", "sim.queue_pop"),
    ("repro.net.network", "Network", "send", "sim.net_send"),
    ("repro.net.network", "Network", "multicast", "sim.net_multicast"),
    ("repro.net.network", "Network", "_deliver", "sim.net_deliver"),
    ("repro.lint.engine", None, "collect_modules", "lint.parse"),
    ("repro.lint.flow.callgraph", None, "build_call_graph", "lint.callgraph"),
    ("repro.lint.flow.effects", None, "build_effects", "lint.effects"),
    ("repro.lint.flow.persistence", None, "build_persistence", "lint.persistence"),
    ("repro.lint.flow.taint", "TaintEngine", "summary", "lint.taint"),
    ("repro.lint.engine", None, "lint_modules", "lint.rules"),
)

#: Modules whose by-name imports must be loaded before patching.
IMPORTERS = (
    "repro.runtime.live",
    "repro.runtime.replica_process",
    "repro.runtime.cluster",
    "repro.experiments.scenarios",
    "repro.traffic.saturation",
    "repro.storage.durable",
    "repro.lint",
    "repro.lint.flow",
)

#: Pseudo-span counting runs of distinct message objects through encode.
DISTINCT_ENCODES = "wire.encode_distinct"

#: Metric -> unit, in BENCHMARK.json order.
UNITS: dict[str, str] = {
    "wire.encode_calls_per_decision": "calls/decision",
    "wire.encodes_per_message": "encodes/message",
    "wire.encode_self_ms_per_decision": "ms/decision",
    "wire.decode_self_ms_per_decision": "ms/decision",
    "wire.bytes_per_decision": "bytes/decision",
    "net.frames_per_decision": "frames/decision",
    "net.send_self_ms_per_decision": "ms/decision",
    "net.backpressure_drops": "count",
    "net.reconnects": "count",
    "core.deliver_calls_per_decision": "calls/decision",
    "core.deliver_self_ms_per_decision": "ms/decision",
    "core.timer_self_ms_per_decision": "ms/decision",
    "core.useful_block_ratio": "ratio",
    "core.requests_per_block": "requests/block",
    "fallback.views": "count",
    "fallback.views_without_commit": "count",
    "fallback.self_ms_per_view": "ms/view",
    "fallback.messages_per_view": "messages/view",
    "crypto.hash_calls_per_decision": "calls/decision",
    "crypto.hash_self_ms_per_decision": "ms/decision",
    "crypto.hash_memo_entries": "count",
    "crypto.verify_share_calls_per_decision": "calls/decision",
    "crypto.combine_calls_per_decision": "calls/decision",
    "crypto.threshold_self_ms_per_decision": "ms/decision",
    "crypto.certcache_hit_ratio": "ratio",
    "crypto.sharepool_hit_ratio": "ratio",
    "storage.journal_writes_per_decision": "writes/decision",
    "storage.journal_self_ms_per_decision": "ms/decision",
    "storage.persist_self_ms_per_decision": "ms/decision",
    "storage.record_bytes_last": "bytes",
    "mempool.queue_wait_ms_p50": "ms",
    "mempool.batch_fill": "ratio",
    "traffic.generator_late_ms_p99": "ms",
    "traffic.shed": "count",
    "runtime.gc_pause_ms_total": "ms",
    "runtime.gc_pause_ms_max": "ms",
    "runtime.blocks_retained": "count",
    "ledger.commit_self_ms_per_decision": "ms/decision",
    "sim.events_per_decision": "events/decision",
    "sim.scheduler_self_ms_per_decision": "ms/decision",
    "sim.network_self_ms_per_decision": "ms/decision",
    "lint.parse_ms": "ms",
    "lint.callgraph_ms": "ms",
    "lint.effects_ms": "ms",
    "lint.persistence_ms": "ms",
    "lint.taint_ms": "ms",
    "lint.rules_ms": "ms",
    "lint.findings": "count",
    "trace.overhead_ratio": "ratio",
}

#: Layer -> workloads on which its metrics are predicted to read zero.
PREDICTED_ZERO: dict[str, frozenset[str]] = {
    "wire": frozenset({"sim-fallback", "lint-tree"}),
    "net": frozenset({"sim-fallback", "lint-tree"}),
    "core": frozenset({"lint-tree"}),
    "fallback": frozenset({"live-open", "live-durable", "lint-tree"}),
    "crypto": frozenset({"lint-tree"}),
    "storage": frozenset({"live-open", "sim-fallback", "lint-tree"}),
    "mempool": frozenset({"lint-tree"}),
    "ledger": frozenset({"lint-tree"}),
    "sim": frozenset({"live-open", "live-durable", "lint-tree"}),
    "lint": frozenset({"live-open", "live-durable", "sim-fallback"}),
}


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`SPANS` and start watching the GC."""
    for module_name in IMPORTERS:
        importlib.import_module(module_name)
    for module_name, class_name, attr, span in SPANS:
        module = importlib.import_module(module_name)
        if class_name is None:
            tracer.patch_function(module, attr, span)
        else:
            tracer.patch_method(getattr(module, class_name), attr, span)
    codec = importlib.import_module("repro.wire.codec")
    traced_encode = codec.encode_message
    distinct = tracer.stats.setdefault(DISTINCT_ENCODES, [0, 0.0, 0.0])
    last: list[object] = [None]

    def encode_message(sender: int, message: object) -> bytes:
        if message is not last[0]:
            last[0] = message
            distinct[0] += 1
        return traced_encode(sender, message)

    tracer.rebind(traced_encode, encode_message)
    tracer.start_gc_watch()


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def _hit_ratio(counters: dict[str, int]) -> float:
    return _per(counters["hits"], counters["hits"] + counters["misses"])


def metrics(
    facts: dict[str, Any], overhead_ratio: float
) -> dict[str, float]:
    """Per-layer metric values from a traced run's facts."""
    spans = facts.get("spans", {})

    def calls(*names: str) -> float:
        return sum(spans.get(name, (0, 0.0, 0.0))[0] for name in names)

    def self_ms(*names: str) -> float:
        return 1000.0 * sum(spans.get(name, (0, 0.0, 0.0))[2] for name in names)

    decisions = facts.get("decisions", 0)
    passes = facts.get("lint_passes", 1)
    views = facts.get("fallback_views", 0)
    blocks = facts.get("blocks", 0)
    empty = {"hits": 0, "misses": 0}
    gc_pauses = [1000.0 * pause for pause in facts.get("gc_pauses", [])]
    lateness = facts.get("lateness_ms", [])
    queue_waits = facts.get("queue_waits_ms", [])
    values = {
        "wire.encode_calls_per_decision": _per(calls("wire.encode"), decisions),
        "wire.encodes_per_message": _per(calls("wire.encode"), calls(DISTINCT_ENCODES)),
        "wire.encode_self_ms_per_decision": _per(self_ms("wire.encode"), decisions),
        "wire.decode_self_ms_per_decision": _per(self_ms("wire.decode"), decisions),
        "wire.bytes_per_decision": _per(facts.get("encoded_bytes", 0), decisions),
        "net.frames_per_decision": _per(facts.get("frames_sent", 0), decisions),
        "net.send_self_ms_per_decision": _per(
            self_ms("net.frame", "net.transport_send", "net.channel_send",
                    "net.live_send", "net.process_send"),
            decisions,
        ),
        "net.backpressure_drops": facts.get("backpressure_drops", 0),
        "net.reconnects": facts.get("reconnects", 0),
        "core.deliver_calls_per_decision": _per(calls("core.deliver"), decisions),
        "core.deliver_self_ms_per_decision": _per(self_ms("core.deliver"), decisions),
        "core.timer_self_ms_per_decision": _per(self_ms("core.timer"), decisions),
        "core.useful_block_ratio": _per(facts.get("useful_blocks", 0), blocks),
        "core.requests_per_block": _per(facts.get("requests", 0), blocks),
        "fallback.views": views,
        "fallback.views_without_commit": facts.get("fallback_views_without_commit", 0),
        "fallback.self_ms_per_view": _per(
            self_ms("fallback.handle", "fallback.timeout"), views
        ),
        "fallback.messages_per_view": _per(facts.get("fallback_messages", 0), views),
        "crypto.hash_calls_per_decision": _per(calls("crypto.hash"), decisions),
        "crypto.hash_self_ms_per_decision": _per(
            self_ms("crypto.hash", "crypto.hash_uncached"), decisions
        ),
        "crypto.hash_memo_entries": facts.get("hash_memo_entries", 0),
        "crypto.verify_share_calls_per_decision": _per(
            calls("crypto.verify_share", "crypto.coin_verify_share"), decisions
        ),
        "crypto.combine_calls_per_decision": _per(
            calls("crypto.combine", "crypto.coin_reveal"), decisions
        ),
        "crypto.threshold_self_ms_per_decision": _per(
            self_ms("crypto.sign_share", "crypto.verify_share", "crypto.combine",
                    "crypto.verify_combined", "crypto.coin_share",
                    "crypto.coin_verify_share", "crypto.coin_reveal"),
            decisions,
        ),
        "crypto.certcache_hit_ratio": _hit_ratio(facts.get("cert_cache", empty)),
        "crypto.sharepool_hit_ratio": _hit_ratio(facts.get("share_pool", empty)),
        "storage.journal_writes_per_decision": _per(
            calls("storage.journal_write"), decisions
        ),
        "storage.journal_self_ms_per_decision": _per(
            self_ms("storage.journal_write", "storage.journal_checkpoint",
                    "storage.snapshot_clone"),
            decisions,
        ),
        "storage.persist_self_ms_per_decision": _per(
            self_ms("storage.persist"), decisions
        ),
        "storage.record_bytes_last": facts.get("record_bytes_last", 0),
        "mempool.queue_wait_ms_p50": (
            statistics.median(queue_waits) if queue_waits else 0.0
        ),
        "mempool.batch_fill": facts.get("batch_fill", 0.0),
        "traffic.generator_late_ms_p99": (
            nearest_rank(sorted(lateness), 99.0) if lateness else 0.0
        ),
        "traffic.shed": facts.get("shed", 0),
        "runtime.gc_pause_ms_total": sum(gc_pauses),
        "runtime.gc_pause_ms_max": max(gc_pauses, default=0.0),
        "runtime.blocks_retained": facts.get("blocks_retained", 0),
        "ledger.commit_self_ms_per_decision": _per(self_ms("ledger.commit"), decisions),
        "sim.events_per_decision": _per(facts.get("sim_events", 0), decisions),
        "sim.scheduler_self_ms_per_decision": _per(
            self_ms("sim.run", "sim.step", "sim.queue_push", "sim.queue_pop"),
            decisions,
        ),
        "sim.network_self_ms_per_decision": _per(
            self_ms("sim.net_send", "sim.net_multicast", "sim.net_deliver"),
            decisions,
        ),
        "lint.parse_ms": self_ms("lint.parse") / passes,
        "lint.callgraph_ms": self_ms("lint.callgraph") / passes,
        "lint.effects_ms": self_ms("lint.effects") / passes,
        "lint.persistence_ms": self_ms("lint.persistence") / passes,
        "lint.taint_ms": self_ms("lint.taint") / passes,
        "lint.rules_ms": self_ms("lint.rules") / passes,
        "lint.findings": facts.get("findings", 0),
        "trace.overhead_ratio": overhead_ratio,
    }
    assert list(values) == list(UNITS)
    return {name: (value if math.isfinite(value) else 0.0) for name, value in values.items()}
