"""Serverless platform substrate: a discrete-event simulator of an
OpenWhisk-like controller and a cluster of GPU-sharing invoker nodes.

The paper evaluates ESG through emulation driven by measured function
profiles; this subpackage is that emulation framework.  It models:

* invoker nodes with vCPU and vGPU (MIG slice) accounting,
* container lifecycle (cold start, warm start, 10-minute keep-alive),
* EWMA-based pre-warming,
* data transfer between pipeline stages (local file system vs. remote
  storage, depending on placement),
* the controller with app-function-wise (AFW) job queues, round-robin
  scanning, a recheck list and pluggable scheduling policies,
* metrics collection (SLO hit rate, cost, latency, scheduling overhead,
  pre-planned configuration miss rate).
"""

from repro.cluster.autoscale import (
    AUTOSCALE_SPECS,
    AutoscaleAction,
    AutoscalePolicy,
    AutoscaleSpec,
    AutoscaleState,
    Autoscaler,
    PIDController,
    ThresholdController,
    autoscale_spec_names,
    get_autoscale_spec,
    register_autoscale_spec,
    resolve_autoscale,
)
from repro.cluster.churn import (
    CHURN_SPECS,
    ChurnAction,
    ChurnSchedule,
    ChurnSpec,
    churn_spec_names,
    get_churn_spec,
    register_churn_spec,
    resolve_churn,
)
from repro.cluster.cluster import ClusterConfig, ClusterState
from repro.cluster.container import Container, ContainerState
from repro.cluster.controller import Controller, ControllerConfig
from repro.cluster.datatransfer import DataTransferModel
from repro.cluster.events import (
    Event,
    InvokerJoinEvent,
    InvokerLeaveEvent,
    InvokerResizeEvent,
    PrewarmCompleteEvent,
    RequestArrivalEvent,
    SchedulerTickEvent,
    TaskCompletionEvent,
)
from repro.cluster.invoker import Invoker
from repro.cluster.metrics import MetricsCollector, MetricsConfig, RunSummary
from repro.cluster.policy_api import (
    AFWQueue,
    SchedulingContext,
    SchedulingDecision,
    SchedulingPolicy,
)
from repro.cluster.prewarm import PrewarmManager
from repro.cluster.simulator import Simulation, SimulationConfig
from repro.cluster.tasks import Task
from repro.cluster.topology import (
    TOPOLOGIES,
    ClusterTopology,
    TopologyRegistry,
    get_topology,
    parse_topology,
    register_topology,
    topology_names,
)

__all__ = [
    "ClusterConfig",
    "ClusterState",
    "ClusterTopology",
    "TopologyRegistry",
    "TOPOLOGIES",
    "register_topology",
    "get_topology",
    "topology_names",
    "parse_topology",
    "AutoscaleAction",
    "AutoscalePolicy",
    "AutoscaleSpec",
    "AutoscaleState",
    "Autoscaler",
    "AUTOSCALE_SPECS",
    "register_autoscale_spec",
    "get_autoscale_spec",
    "autoscale_spec_names",
    "resolve_autoscale",
    "PIDController",
    "ThresholdController",
    "ChurnAction",
    "ChurnSchedule",
    "ChurnSpec",
    "CHURN_SPECS",
    "register_churn_spec",
    "get_churn_spec",
    "churn_spec_names",
    "resolve_churn",
    "Container",
    "ContainerState",
    "Controller",
    "ControllerConfig",
    "DataTransferModel",
    "Event",
    "RequestArrivalEvent",
    "SchedulerTickEvent",
    "TaskCompletionEvent",
    "PrewarmCompleteEvent",
    "InvokerJoinEvent",
    "InvokerLeaveEvent",
    "InvokerResizeEvent",
    "Invoker",
    "MetricsCollector",
    "MetricsConfig",
    "RunSummary",
    "AFWQueue",
    "SchedulingContext",
    "SchedulingDecision",
    "SchedulingPolicy",
    "PrewarmManager",
    "Simulation",
    "SimulationConfig",
    "Task",
]
