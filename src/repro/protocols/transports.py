"""Host-attach transport profiles (§8, [2] VI, [8] DAFS, [18][22] Infiniband).

"This design is also required to allow connectivity between the controller
blades and the hosts over non-traditional networks such as IP or
Infiniband encapsulated as SCSI, NAS, VI, or proprietary level 7
protocols."  Each transport differs in per-operation latency and, more
importantly for the era, in how much *host CPU* each transferred byte
burns: TCP/IP stacks copied every byte, while VI/Infiniband/DAFS moved
data by RDMA with near-zero host involvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..obs.timeseries import bind
from ..obs.tracer import NULL_SPAN
from ..sim.events import Event
from ..sim.units import us

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


@dataclass(frozen=True)
class TransportProfile:
    """Cost character of one host-attach transport."""

    name: str
    per_op_latency: float      # request/response handling, one way
    host_cpu_per_byte: float   # seconds of host CPU per payload byte
    controller_cpu_per_byte: float
    max_payload: int = 1 << 20

    def op_time(self, nbytes: int) -> float:
        """Protocol processing time for one operation (excl. the wire)."""
        return (self.per_op_latency
                + nbytes * (self.host_cpu_per_byte
                            + self.controller_cpu_per_byte))


#: Native Fibre Channel: hardware offload on both ends.
FC_TRANSPORT = TransportProfile(
    "fc", per_op_latency=us(25),
    host_cpu_per_byte=0.2e-9, controller_cpu_per_byte=0.2e-9)

#: TCP/IP (NFS/iSCSI era): every byte crosses the host CPU twice.
TCP_IP_TRANSPORT = TransportProfile(
    "tcp-ip", per_op_latency=us(120),
    host_cpu_per_byte=2.5e-9, controller_cpu_per_byte=2.0e-9)

#: VI / Infiniband: kernel-bypass RDMA, tiny per-byte cost.
INFINIBAND_VI_TRANSPORT = TransportProfile(
    "infiniband-vi", per_op_latency=us(15),
    host_cpu_per_byte=0.1e-9, controller_cpu_per_byte=0.15e-9)

#: DAFS: file semantics directly over VI — NAS convenience at RDMA cost.
DAFS_TRANSPORT = TransportProfile(
    "dafs", per_op_latency=us(30),
    host_cpu_per_byte=0.12e-9, controller_cpu_per_byte=0.2e-9)

ALL_TRANSPORTS = (FC_TRANSPORT, TCP_IP_TRANSPORT,
                  INFINIBAND_VI_TRANSPORT, DAFS_TRANSPORT)


class TransportEndpoint:
    """Applies a transport's processing costs around a wire transfer."""

    def __init__(self, sim: "Simulator", profile: TransportProfile,
                 wire_bandwidth: float, integrity=None,
                 digests: bool = True) -> None:
        if wire_bandwidth <= 0:
            raise ValueError("wire_bandwidth must be > 0")
        self.sim = sim
        self.profile = profile
        self.wire_bandwidth = wire_bandwidth
        self.ops = 0
        self.host_cpu_seconds = 0.0
        #: In-flight verification: with an IntegrityManager attached,
        #: ``digests`` decides whether a damaged payload is caught (one
        #: retransmit makes it whole) or delivered silently corrupt.
        self.integrity = integrity
        self.digests = digests
        self._corrupt_pending = 0
        self.retransmits = 0
        self._bytes = bind(sim, "xport.bytes", protocol=profile.name)
        self._ops = bind(sim, "xport.ops", protocol=profile.name)

    def corrupt_next(self, count: int = 1) -> None:
        """Arm in-flight damage on the next ``count`` operations (the
        WIRE_CORRUPT fault hook)."""
        if self.integrity is None:
            raise RuntimeError("attach an IntegrityManager before arming "
                               "wire faults")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._corrupt_pending += count

    def transfer(self, nbytes: int) -> Event:
        """One operation moving ``nbytes``: protocol work + wire time."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        def run():
            obs = self.sim.obs
            span = (obs.tracer.span(f"xport.{self.profile.name}",
                                    nbytes=nbytes)
                    if obs is not None else NULL_SPAN)
            with span:
                damaged = False
                if self.integrity is not None \
                        and self._corrupt_pending > 0:
                    self._corrupt_pending -= 1
                    damaged = True
                remaining = nbytes
                while True:
                    take = min(remaining, self.profile.max_payload)
                    yield self.sim.timeout(self.profile.op_time(take))
                    yield self.sim.timeout(take / self.wire_bandwidth)
                    self.ops += 1
                    self.host_cpu_seconds += \
                        take * self.profile.host_cpu_per_byte
                    remaining -= take
                    if remaining <= 0:
                        break
                if damaged:
                    if self.digests:
                        # Digest miss on a payload op: one retransmit.
                        self.integrity.wire_event("wire_corrupt",
                                                  detected=True,
                                                  repaired=True)
                        self.retransmits += 1
                        take = min(nbytes, self.profile.max_payload)
                        yield self.sim.timeout(self.profile.op_time(take))
                        yield self.sim.timeout(take / self.wire_bandwidth)
                        self.ops += 1
                        self.host_cpu_seconds += \
                            take * self.profile.host_cpu_per_byte
                    else:
                        # Digests off: the damage rides through unseen.
                        self.integrity.wire_event("wire_corrupt",
                                                  detected=False)
            if self._bytes is not None:
                self._bytes.record(float(nbytes))
                self._ops.incr()
            return nbytes

        return self.sim.process(run(), name=f"xport.{self.profile.name}")

    def effective_rate(self, nbytes: int) -> float:
        """Analytic bytes/s for a continuous stream of ``nbytes`` ops."""
        per_op = self.profile.op_time(nbytes) + nbytes / self.wire_bandwidth
        return nbytes / per_op
