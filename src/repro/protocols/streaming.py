"""Figure 1: multiple blades cooperating to drive one high-speed link.

"In order to support a 10 Gbs stream, a large read would be striped, in a
round robin fashion, over four controller blades.  These controllers would
take turns driving a 10 Gbs Ethernet port via a common PCI-X bus."

The model is honest about the bottlenecks the paper names: each blade
contributes two Fibre Channel ports of disk-side feed; every chunk then
crosses the shared PCI-X bus (§2.3) and the Ethernet port itself.  One
blade therefore tops out at its 2×2 Gb/s of FC; four blades are limited
by the PCI-X bus / 10 GbE port — "in the neighborhood of 10 Gbs" (§8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..hardware.blade import ControllerBlade
from ..hardware.ports import Port, ethernet_port, pci_x_bus
from ..sim.events import Event
from ..sim.resources import Resource
from ..sim.units import mib, to_gbps

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


@dataclass
class StreamResult:
    """Outcome of one aggregated stream."""

    total_bytes: int
    elapsed: float
    chunks: int
    blades_used: int

    @property
    def throughput(self) -> float:
        return self.total_bytes / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def gbps(self) -> float:
        return to_gbps(self.throughput)


class StripedStreamAggregator:
    """Round-robin chunk striping over blades into one high-speed port."""

    def __init__(self, sim: "Simulator", blades: list[ControllerBlade],
                 output_port: Port | None = None,
                 shared_bus: Port | None = None,
                 chunk_size: int = mib(4), window: int = 16,
                 disk_read_latency: float = 0.002) -> None:
        if not blades:
            raise ValueError("need at least one blade")
        if chunk_size <= 0 or window < 1:
            raise ValueError("chunk_size must be > 0 and window >= 1")
        self.sim = sim
        self.blades = blades
        self.output_port = output_port or ethernet_port(sim, 10.0,
                                                        name="highspeed")
        self.shared_bus = shared_bus or pci_x_bus(sim)
        self.chunk_size = chunk_size
        self.window = window
        self.disk_read_latency = disk_read_latency

    def stream(self, total_bytes: int) -> Event:
        """Run one large striped read; event value is a StreamResult."""
        if total_bytes <= 0:
            raise ValueError(f"total_bytes must be > 0, got {total_bytes}")
        return self.sim.process(self._stream(total_bytes), name="hss.stream")

    def _stream(self, total_bytes: int):
        start = self.sim.now
        chunks = -(-total_bytes // self.chunk_size)
        live = [b for b in self.blades if b.is_up]
        if not live:
            raise RuntimeError("no live blades for streaming")
        slots = Resource(self.sim, capacity=self.window)
        completions: list[Event] = []
        remaining = total_bytes
        for i in range(chunks):
            nbytes = min(self.chunk_size, remaining)
            remaining -= nbytes
            req = slots.request()
            yield req
            blade = live[i % len(live)]
            completions.append(self.sim.process(
                self._chunk(blade, nbytes, slots, req), name=f"hss.chunk{i}"))
        yield self.sim.all_of(completions)
        elapsed = self.sim.now - start
        return StreamResult(total_bytes, elapsed, chunks, len(live))

    def _chunk(self, blade: ControllerBlade, nbytes: int, slots: Resource,
               req):
        from ..hardware.ports import NetworkPath
        try:
            # Disk farm positions and feeds the blade over one FC port; the
            # blade DMAs through the shared PCI-X bus onto the high-speed
            # port.  The hops overlap (cut-through), so the most contended
            # hop — FC at low blade counts, the PCI-X bus at four — paces
            # the chunk.
            yield self.sim.timeout(self.disk_read_latency)
            path = NetworkPath([blade.next_fc_port(), self.shared_bus,
                                self.output_port])
            yield path.transfer(nbytes)
            return nbytes
        finally:
            slots.release(req)


def figure1_configuration(sim: "Simulator", blade_count: int = 4,
                          fc_rate_gb: float = 2.0,
                          port_rate_gb: float = 10.0,
                          **kwargs) -> StripedStreamAggregator:
    """The paper's exact Figure 1 setup: N blades × 2 FC, one 10 Gb port."""
    blades = [ControllerBlade(sim, i, fc_port_count=2, fc_rate_gb=fc_rate_gb)
              for i in range(blade_count)]
    port = ethernet_port(sim, port_rate_gb, name="highspeed")
    return StripedStreamAggregator(sim, blades, output_port=port, **kwargs)
