"""The assembled NetStorage system: public entry point of the library."""

from .admin import AdminAction, AutoPolicyEngine, idle_demotion_rule
from .config import SystemConfig
from .report import format_latency_breakdown, format_table, print_experiment
from .system import NetStorageSystem

__all__ = [
    "AdminAction",
    "AutoPolicyEngine",
    "NetStorageSystem",
    "SystemConfig",
    "format_latency_breakdown",
    "format_table",
    "idle_demotion_rule",
    "print_experiment",
]
