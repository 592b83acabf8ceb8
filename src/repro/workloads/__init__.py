"""Workload generators: streams, hot-spot skew, growth and site traces."""

from .aggregate import FluidStream
from .hotspot import HotspotWorkload, ZipfKeyGenerator
from .streams import (
    SequentialStream,
    aggregate_throughput,
    run_client_fleet,
)
from .traces import SiteAccess, multi_site_trace, tenant_growth_traces

__all__ = [
    "FluidStream",
    "HotspotWorkload",
    "SequentialStream",
    "SiteAccess",
    "ZipfKeyGenerator",
    "aggregate_throughput",
    "multi_site_trace",
    "run_client_fleet",
    "tenant_growth_traces",
]
