"""iSCSI export: the same SCSI target reached over IP (§1, [23]).

Relative to native FC, the IP path adds round-trip network latency and a
per-byte TCP/IP processing cost on the controller CPU — the reason iSCSI
in this era was the cheap-fabric option, not the fast one.  The paper's
requirement is breadth: "export a complete range of storage protocols,
including SAN, NAS, and iSCSI, all managed from a common pool."
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.events import Event
from ..sim.units import us
from .scsi import ScsiTarget

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator


class IscsiPortal:
    """An IP front-end wrapping a ScsiTarget."""

    def __init__(self, sim: "Simulator", target: ScsiTarget,
                 network_rtt: float = us(300),
                 tcp_cost_per_byte: float = 1.0 / 400e6,
                 name: str = "iscsi", integrity=None,
                 header_digest: bool = True,
                 data_digest: bool = True) -> None:
        self.sim = sim
        self.target = target
        self.network_rtt = network_rtt
        self.tcp_cost_per_byte = tcp_cost_per_byte
        self.name = name
        self.sessions: dict[str, str] = {}  # session id -> initiator iqn
        #: RFC 3720 HeaderDigest/DataDigest: with an IntegrityManager
        #: attached, a damaged PDU is caught by either digest (one
        #: retransmit makes the response whole) or delivered silently
        #: corrupt when both are negotiated off.
        self.integrity = integrity
        self.header_digest = header_digest
        self.data_digest = data_digest
        self._corrupt_pending = 0
        self.retransmits = 0

    def corrupt_next(self, count: int = 1) -> None:
        """Arm PDU damage on the next ``count`` commands (the
        WIRE_CORRUPT fault hook)."""
        if self.integrity is None:
            raise RuntimeError("attach an IntegrityManager before arming "
                               "wire faults")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._corrupt_pending += count

    def login(self, iqn: str) -> str:
        """Establish a session; the session id names the initiator."""
        session = f"sess-{len(self.sessions)}-{iqn}"
        self.sessions[session] = iqn
        return session

    def submit(self, session: str, lun: str, op: str, offset: int,
               nbytes: int) -> Event:
        """A SCSI command encapsulated in iSCSI PDUs."""
        iqn = self.sessions.get(session)
        if iqn is None:
            denied = Event(self.sim)
            denied.fail(PermissionError(f"unknown iSCSI session {session!r}"))
            return denied
        return self.sim.process(self._serve(iqn, lun, op, offset, nbytes),
                                name=f"{self.name}.cmd")

    def _serve(self, iqn: str, lun: str, op: str, offset: int, nbytes: int):
        # Request travels to the portal, data travels back: one RTT plus
        # TCP segmentation/checksum work proportional to the payload.
        yield self.sim.timeout(self.network_rtt / 2)
        yield self.sim.timeout(self.tcp_cost_per_byte * nbytes)
        result = yield self.target.submit(iqn, lun, op, offset, nbytes)
        if self.integrity is not None and self._corrupt_pending > 0:
            self._corrupt_pending -= 1
            if self.header_digest or self.data_digest:
                # Digest miss on the response PDUs: retransmit them.
                self.integrity.wire_event("wire_corrupt", detected=True,
                                          repaired=True)
                self.retransmits += 1
                yield self.sim.timeout(self.network_rtt / 2)
                yield self.sim.timeout(self.tcp_cost_per_byte * nbytes)
            else:
                self.integrity.wire_event("wire_corrupt", detected=False)
        yield self.sim.timeout(self.network_rtt / 2)
        return result
