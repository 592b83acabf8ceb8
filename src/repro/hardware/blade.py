"""Controller blade model.

The blade is the paper's unit of scaling: a small computer with several
gigabytes of cache memory, two Fibre Channel connections to the disk-side
fabric, Ethernet for host/management traffic, and a share of a PCI-X bus
when ganged behind a high-speed port (Figure 1).  Blades run *no user code*
(§5.2) — the only work modeled is the controller firmware's per-I/O cost.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, Generator

from ..obs.telemetry import ComponentHealth, HealthState
from ..obs.timeseries import bind
from ..sim.faults import SimulatedFault
from ..sim.resources import Resource
from ..sim.stats import TimeWeighted
from ..sim.units import gib, us
from .ports import Port, ethernet_port, fc_port

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator

#: Blade lifecycle → management-plane health.
_STATE_HEALTH = {"up": HealthState.UP, "draining": HealthState.DEGRADED,
                 "failed": HealthState.FAILED}


class BladeState(Enum):
    """Lifecycle state of a controller blade."""
    UP = "up"
    FAILED = "failed"
    DRAINING = "draining"  # rolling upgrade: finishing work, taking no new


class BladeFailedError(SimulatedFault):
    """Raised when work is dispatched to a blade that is not UP."""


class ControllerBlade:
    """One controller blade: CPU, cache memory, FC and Ethernet ports.

    ``cpu_per_io`` is the firmware overhead per request; ``cpu_per_byte``
    models per-byte costs (checksums, software crypto when enabled).  The
    crypto engine flag gates the hardware-assisted encryption path of §5.1.
    """

    def __init__(self, sim: "Simulator", blade_id: int,
                 cache_bytes: int = gib(4),
                 fc_port_count: int = 2, fc_rate_gb: float = 2.0,
                 eth_rate_gb: float = 1.0,
                 cpu_cores: int = 2, cpu_per_io: float = us(50),
                 cpu_per_byte: float = 0.0,
                 has_crypto_engine: bool = False,
                 name: str = "") -> None:
        if cache_bytes <= 0:
            raise ValueError(f"cache_bytes must be > 0, got {cache_bytes}")
        if fc_port_count < 1:
            raise ValueError(f"need at least one FC port, got {fc_port_count}")
        self.sim = sim
        self.blade_id = blade_id
        self.name = name or f"blade{blade_id}"
        self.cache_bytes = int(cache_bytes)
        self.state = BladeState.UP
        self.cpu = Resource(sim, capacity=cpu_cores)
        self.cpu_per_io = cpu_per_io
        self.cpu_per_byte = cpu_per_byte
        self.has_crypto_engine = has_crypto_engine
        self.fc_ports: list[Port] = [
            fc_port(sim, fc_rate_gb, name=f"{self.name}.fc{i}")
            for i in range(fc_port_count)
        ]
        self.eth_port: Port = ethernet_port(sim, eth_rate_gb,
                                            name=f"{self.name}.eth")
        self.cpu_utilization = TimeWeighted(sim)
        self.ios_processed = 0
        #: Slow-node fault: firmware CPU costs scale by this factor (1.0 =
        #: nominal); the fault injector inflates and later restores it.
        self.slow_factor = 1.0
        self._fc_rr = 0
        self._observers: list[Callable[["ControllerBlade"], None]] = []
        self._up = bind(sim, "blade.up", level=True, blade=self.name)
        self._slow = bind(sim, "blade.slow_factor", level=True,
                          blade=self.name)

    # -- health ---------------------------------------------------------------

    @property
    def is_up(self) -> bool:
        return self.state is BladeState.UP

    def fail(self) -> None:
        """Hard failure: blade drops out; its cache contents are lost."""
        self._enter(BladeState.FAILED, "error", "blade_failed",
                    ios_processed=self.ios_processed)

    def repair(self) -> None:
        """Blade replaced/rebooted; rejoins with a cold cache."""
        self._enter(BladeState.UP, "info", "blade_repaired")

    def drain(self) -> None:
        """Begin rolling-upgrade drain: no new work accepted."""
        if self.state is BladeState.UP:
            self._enter(BladeState.DRAINING, "warning", "blade_draining")

    def _enter(self, state: BladeState, level: str, kind: str, **attrs):
        """Move to ``state``: log it, record ``blade.up``, notify."""
        self.state = state
        obs = self.sim.obs
        if obs is not None:
            getattr(obs.log, level)(self.name, kind, **attrs)
        if self._up is not None:
            self._up.record(1.0 if state is BladeState.UP else 0.0)
        self._notify()

    def set_slow(self, factor: float) -> None:
        """Inflate per-I/O firmware latency (slow-node fault injection)."""
        if factor < 1.0:
            raise ValueError(f"slow factor must be >= 1.0, got {factor}")
        self.slow_factor = factor
        obs = self.sim.obs
        if obs is not None and factor > 1.0:
            obs.log.warning(self.name, "blade_slow", factor=factor)
        if self._slow is not None:
            self._slow.record(factor)

    def clear_slow(self) -> None:
        """Restore nominal firmware latency after a slow-node fault."""
        self.slow_factor = 1.0
        obs = self.sim.obs
        if obs is not None:
            obs.log.info(self.name, "blade_slow_cleared")
        if self._slow is not None:
            self._slow.record(1.0)

    def health(self) -> ComponentHealth:
        """Management-plane snapshot of this blade."""
        state = _STATE_HEALTH[self.state.value]
        if state is HealthState.UP and self.slow_factor > 1.0:
            state = HealthState.DEGRADED
        detail = self.state.value
        if self.slow_factor > 1.0:
            detail += f" (slow x{self.slow_factor:g})"
        return ComponentHealth(self.name, state, metrics={
            "cpu_utilization": self.cpu_utilization.mean(),
            "ios_processed": float(self.ios_processed),
            "cache_bytes": float(self.cache_bytes),
            "slow_factor": self.slow_factor,
        }, detail=detail)

    def observe(self, fn: Callable[["ControllerBlade"], None]) -> None:
        """Register a membership observer (cluster manager hooks in here)."""
        self._observers.append(fn)

    def observe_first(self, fn: Callable[["ControllerBlade"], None]) -> None:
        """Register ``fn`` ahead of every observer so far.

        For hooks that drop state derived from this blade's state, so
        that no other observer of the same transition reads it stale.
        """
        self._observers.insert(0, fn)

    def _notify(self) -> None:
        for fn in list(self._observers):
            fn(self)

    # -- work ------------------------------------------------------------------

    def io_cpu_cost(self, nbytes: int) -> float:
        """CPU seconds the firmware spends on one request of ``nbytes``."""
        return (self.cpu_per_io + self.cpu_per_byte * nbytes) \
            * self.slow_factor

    def execute(self, cpu_seconds: float) -> Generator:
        """Occupy one CPU core for ``cpu_seconds`` (a process fragment).

        Raises :class:`BladeFailedError` if the blade is not UP at dispatch.
        """
        if self.state is not BladeState.UP:
            raise BladeFailedError(f"{self.name} is {self.state.value}")
        req = self.cpu.request()
        yield req
        self.cpu_utilization.record(self.cpu.in_use / self.cpu.capacity)
        try:
            yield self.sim.timeout(cpu_seconds)
            self.ios_processed += 1
        finally:
            self.cpu.release(req)
            self.cpu_utilization.record(self.cpu.in_use / self.cpu.capacity)

    def next_fc_port(self) -> Port:
        """Round-robin over the blade's disk-side FC ports."""
        port = self.fc_ports[self._fc_rr % len(self.fc_ports)]
        self._fc_rr += 1
        return port

    @property
    def fc_bandwidth(self) -> float:
        """Aggregate disk-side bandwidth of this blade's FC ports."""
        return sum(p.bandwidth for p in self.fc_ports)
