"""Deterministic fault injection and recovery (§6, experiment E12).

* :mod:`~repro.faults.plan` — :class:`FaultPlan`: a seeded, serializable
  schedule of typed faults (blade crash, disk failure, link flap, site
  loss, slow node, transient I/O).
* :mod:`~repro.faults.injector` — :class:`FaultInjector`: binds plan
  targets to model objects and schedules each fault as a kernel event.
* :mod:`~repro.faults.retry` — :class:`RetryPolicy`: the shared
  exponential-backoff/jitter/deadline recovery loop.
* :mod:`~repro.faults.state` — :class:`RecoveryTracker`: the explicit
  healthy → degraded → failed → recovering state machine with
  MTTR/availability accounting.

The marker exception taxonomy itself (``SimulatedFault``,
``FAULT_EXCEPTIONS``) lives lower, in :mod:`repro.sim.faults`, so every
layer can subclass it without importing this package.
"""

from .injector import FaultInjector
from .plan import FaultKind, FaultPlan, FaultSpec, parse_partition_target
from .retry import NO_RETRY, RetryExhausted, RetryPolicy, retry_call
from .state import RecoveryTracker

__all__ = [
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "NO_RETRY",
    "RecoveryTracker",
    "RetryExhausted",
    "RetryPolicy",
    "parse_partition_target",
    "retry_call",
]
