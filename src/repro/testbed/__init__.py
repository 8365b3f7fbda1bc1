"""The Emulab testbed model: experiments, mapping, control plane."""

from repro.testbed.catalog import SnapshotCatalog, StoredSnapshot
from repro.testbed.controlnet import CONTROL_NET_BULK_RATE, ControlNetwork
from repro.testbed.emulab import (AllocatedNode, Emulab, Experiment,
                                  TestbedConfig)
from repro.testbed.idleswap import ActivitySample, IdlePolicy, IdleSwapper
from repro.testbed.eventsys import (EventAgent, EventScheduler, FiredEvent,
                                    SchedulerPlacement)
from repro.testbed.experiment import (EventSpec, ExperimentSpec, LinkSpec,
                                      NodeSpec)
from repro.testbed.mapping import Placement, needs_delay_node, solve, \
    virtual_topology
from repro.testbed.nfs import (IdentityTransducer, NFSAttributes, NFSClient,
                               NFSServer, TimestampTransducer)
from repro.testbed.nsfile import NSFileParser, parse_ns_file
from repro.testbed.services import DNSRecord, DNSServer, rpc
from repro.testbed.dsl import (ScenarioSpec, load_scenario, parse_scenario,
                               substitute_placeholders)
from repro.testbed.compile import (CompiledScenario, ScenarioResult,
                                   compile_scenario)

__all__ = [
    "CompiledScenario", "ScenarioResult", "ScenarioSpec",
    "compile_scenario", "load_scenario", "parse_scenario",
    "substitute_placeholders",
    "CONTROL_NET_BULK_RATE", "ControlNetwork", "AllocatedNode", "Emulab",
    "Experiment", "TestbedConfig", "EventAgent", "EventScheduler",
    "FiredEvent", "SchedulerPlacement", "ActivitySample", "IdlePolicy",
    "IdleSwapper", "SnapshotCatalog", "StoredSnapshot", "EventSpec", "ExperimentSpec",
    "LinkSpec", "NodeSpec", "Placement", "needs_delay_node", "solve",
    "virtual_topology", "IdentityTransducer", "NFSAttributes", "NFSClient",
    "NFSServer", "TimestampTransducer", "DNSRecord", "DNSServer", "rpc",
    "NSFileParser", "parse_ns_file",
]
