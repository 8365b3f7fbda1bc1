"""Standard experiment digests for replay verification.

Deterministic re-execution needs a *comparable summary of state* to prove
that two replays landed in the same place.  These helpers build stable,
hashable digests from the objects an experiment is made of; time-travel
users combine them into their run's ``state_digest``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Tuple


def tcp_digest(connection) -> Tuple:
    """Sequence state and counters of one TCP connection."""
    stats = connection.stats
    return ("tcp", connection.state, connection.snd_una, connection.snd_max,
            connection.rcv_nxt, connection.bytes_delivered,
            stats.segments_sent, stats.segments_received, stats.retransmits)


def kernel_digest(kernel) -> Tuple:
    """Virtual-time state of one guest kernel."""
    return ("kernel", kernel.name, kernel.now(),
            kernel.vclock.total_hidden_ns, kernel.vclock.freezes,
            len(kernel.threads))


def branch_digest(branch) -> Tuple:
    """Logical content map of a branching store (index hash, not data)."""
    log_hash = _hash_index(branch.log_index)
    agg_hash = _hash_index(branch.aggregated_index)
    return ("branch", branch.name, branch.current_delta_blocks,
            branch.aggregated_delta_blocks, log_hash, agg_hash)


def delay_node_digest(node) -> Tuple:
    """Occupancy of one delay node's pipes."""
    return ("delaynode", node.name, node.packets_in_flight,
            node._pipe_ab.delivered, node._pipe_ba.delivered)


def experiment_digest(experiment) -> str:
    """One hex digest covering every node and delay node of an experiment.

    Stable across identical replays; any divergence in guest time, TCP
    state, storage content maps, or in-flight packet counts changes it.
    """
    parts: list = [("experiment", experiment.spec.name, experiment.state)]
    for name in sorted(experiment.nodes):
        node = experiment.nodes[name]
        parts.append(kernel_digest(node.kernel))
        parts.append(branch_digest(node.branch))
        for key in sorted(node.kernel.tcp.connections):
            parts.append(tcp_digest(node.kernel.tcp.connections[key]))
    for name in sorted(experiment.delay_nodes):
        parts.append(delay_node_digest(experiment.delay_nodes[name]))
    blob = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _hash_index(index: dict) -> str:
    blob = ",".join(f"{k}:{v}" for k, v in sorted(index.items()))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def hash_parts(parts) -> str:
    """SHA-256 over the canonical JSON form of a digest-part list.

    The scenario digests are built by collecting tuples into a list and
    hashing it through here, so the serialization is part of the
    golden-digest contract.
    """
    blob = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def checkpoint_result_parts(results) -> list:
    """Digest parts for a sequence of local-checkpoint results."""
    return [("ckpt", r.downtime_ns, r.freeze_window_ns, r.thaw_window_ns,
             r.clock_frozen_at_ns, r.clock_thawed_at_ns,
             r.memory_copied_bytes, r.dirty_copied_bytes, r.replayed_packets)
            for r in results]


def coordinated_result_parts(results) -> list:
    """Digest parts for a sequence of coordinated-checkpoint results."""
    return [("coord", r.suspend_skew_ns, r.resume_skew_ns,
             r.core_packets_captured, r.endpoint_packets_replayed,
             r.wall_duration_ns) for r in results]


def trace_digest(records) -> str:
    """SHA-256 over the canonical JSON form of a trace record sequence.

    Span records contribute their end time as well, so a run-to-run
    comparison also proves every duration was reproduced exactly.  (This
    digest is only ever compared between runs of the same code — it is
    not a stored golden.)

        >>> from repro.obs.trace import TraceRecord
        >>> a = trace_digest([TraceRecord(1, "fault.bus.drop", {})])
        >>> b = trace_digest([TraceRecord(2, "fault.bus.drop", {})])
        >>> (a == trace_digest([TraceRecord(1, "fault.bus.drop", {})]), a == b)
        (True, False)
    """
    parts = [(r.time, r.category, sorted(r.fields.items()),
              getattr(r, "end_time", None))
             for r in records]
    return hash_parts(parts)
