"""Distributed transparent checkpointing — the paper's core contribution."""

from repro.checkpoint.bus import (Barrier, BusMessage, NotificationBus,
                                  ReliabilityConfig)
from repro.checkpoint.pipeline import (AgentFailure, BranchProvider,
                                       Checkpointable, CheckpointFailure,
                                       CheckpointPipeline, ClockHandoff,
                                       ClockProvider, DelayNodeProvider,
                                       DomainProvider, NaiveDomainProvider,
                                       SnapshotCapture, Stage, StageFailed,
                                       StageTiming, capture_run_snapshot)
from repro.checkpoint.coordinator import (CoordinatedResult, Coordinator,
                                          DelayNodeAgent, NodeAgent)
from repro.checkpoint.supervisor import (CheckpointSupervisor,
                                         DegradationPolicy, FailFast,
                                         ProceedWithoutDelayNodes,
                                         RetryDecision, RetryThenAbort)
from repro.checkpoint.baselines import (NaiveCheckpointer, RemusCheckpointer,
                                        UncoordinatedRunner)
from repro.checkpoint.durable import (CRASH_POINTS, DurableSnapshotStore,
                                      FsckReport, SAVE_CRASH_POINTS)

__all__ = [
    "AgentFailure", "Barrier", "BranchProvider", "BusMessage",
    "CRASH_POINTS", "Checkpointable", "CheckpointFailure",
    "CheckpointPipeline", "CheckpointSupervisor", "ClockHandoff",
    "ClockProvider", "CoordinatedResult", "Coordinator",
    "DegradationPolicy", "DelayNodeAgent", "DelayNodeProvider",
    "DomainProvider", "DurableSnapshotStore", "FailFast", "FsckReport",
    "NaiveCheckpointer", "NaiveDomainProvider", "NodeAgent",
    "NotificationBus", "ProceedWithoutDelayNodes", "ReliabilityConfig",
    "RemusCheckpointer", "RetryDecision", "RetryThenAbort",
    "SAVE_CRASH_POINTS", "SnapshotCapture", "Stage", "StageFailed",
    "StageTiming", "UncoordinatedRunner", "capture_run_snapshot",
]
