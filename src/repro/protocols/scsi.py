"""Block protocol export: SCSI over Fibre Channel, with LUN masking (§5).

The target is the controller-side endpoint: every command is gated by the
masking table before it reaches the virtualization layer, and REPORT LUNS
enumerates only what the initiator owns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..security.lun_masking import LunMaskingTable, MaskingViolation
from ..sim.events import Event
from ..sim.faults import FAULT_EXCEPTIONS
from ..sim.units import us

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator

#: backend(lun, op, offset, nbytes) -> completion Event
Backend = Callable[[str, str, int, int], Event]


class ScsiTarget:
    """A masked block target in front of the virtualization layer."""

    def __init__(self, sim: "Simulator", masking: LunMaskingTable,
                 backend: Backend, per_op_overhead: float = us(20),
                 name: str = "scsi") -> None:
        self.sim = sim
        self.masking = masking
        self.backend = backend
        self.per_op_overhead = per_op_overhead
        self.name = name
        self.commands_served = 0
        self.commands_rejected = 0
        self.commands_failed = 0

    def report_luns(self, initiator: str) -> list[str]:
        """SCSI REPORT LUNS: the masked view (§5: concealment, not errors)."""
        return sorted(self.masking.visible_luns(initiator))

    def submit(self, initiator: str, lun: str, op: str, offset: int,
               nbytes: int) -> Event:
        """One READ/WRITE command; fails with MaskingViolation if hidden."""
        if op not in ("read", "write"):
            raise ValueError(f"op must be read/write, got {op!r}")
        return self.sim.process(self._serve(initiator, lun, op, offset,
                                            nbytes), name=f"{self.name}.cmd")

    def _serve(self, initiator: str, lun: str, op: str, offset: int,
               nbytes: int):
        yield self.sim.timeout(self.per_op_overhead)
        if not self.masking.check(initiator, lun, op, self.sim.now):
            self.commands_rejected += 1
            raise MaskingViolation(f"{initiator} -> {lun} {op} denied")
        try:
            result = yield self.backend(lun, op, offset, nbytes)
        except FAULT_EXCEPTIONS:
            # Simulated storage failures surface as a failed command (a
            # CHECK CONDITION, in SCSI terms).
            self.commands_failed += 1
            raise
        self.commands_served += 1
        return result
