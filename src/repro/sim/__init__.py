"""Deterministic discrete-event simulation kernel.

This package is the substrate substitution for the paper's physical testbed
(controller blades, Fibre Channel fabrics, WAN circuits): a small,
SimPy-style event kernel with generator processes, queueing resources,
fluid fair-share links, metric collectors, seeded RNG streams, and the
region-work engine that runs rebuilds and backups.
"""

from .engine import SimulationError, Simulator
from .events import AllOf, AnyOf, ConditionError, Event, Timeout
from .faults import (
    FAULT_EXCEPTIONS,
    LinkDownError,
    SimulatedFault,
    TransientIOError,
    is_fault,
)
from .link import FairShareLink, FcfsLink
from .process import Interrupt, Process
from .regions import RegionEngine, RegionJob
from .replications import (
    ReplicationSummary,
    replicate,
    run_replications,
    summarize,
)
from .resources import PriorityResource, Request, Resource, Store
from .rng import RngStreams, stable_hash
from .stats import Counter, MetricSet, Tally, TimeWeighted

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionError",
    "Counter",
    "Event",
    "FAULT_EXCEPTIONS",
    "FairShareLink",
    "FcfsLink",
    "LinkDownError",
    "SimulatedFault",
    "TransientIOError",
    "Interrupt",
    "MetricSet",
    "PriorityResource",
    "Process",
    "RegionEngine",
    "RegionJob",
    "ReplicationSummary",
    "Request",
    "Resource",
    "RngStreams",
    "SimulationError",
    "Simulator",
    "Store",
    "Tally",
    "TimeWeighted",
    "Timeout",
    "is_fault",
    "replicate",
    "run_replications",
    "stable_hash",
    "summarize",
]
