"""LUN masking: per-initiator visibility of storage units (§5).

"LUN masking technology allows each client, or server, to privately own
portions of the storage system's capacity while concealing it from other
attached servers."  The table maps initiator WWNs to the LUNs they may
see, default-deny; unmasked LUNs are invisible (not merely read-only), so
a scan from a foreign host enumerates nothing it doesn't own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .audit import AuditLog


class MaskingViolation(Exception):
    """An initiator touched a LUN outside its mask."""


@dataclass
class LunEntry:
    """One exported LUN: owner plus read-only exposure set."""
    lun: str
    owner: str = ""
    read_only_initiators: set[str] = field(default_factory=set)


class LunMaskingTable:
    """The fabric-wide initiator→LUN visibility map."""

    def __init__(self, audit: AuditLog | None = None) -> None:
        self._luns: dict[str, LunEntry] = {}
        self._masks: dict[str, set[str]] = {}  # initiator wwn -> visible luns
        self.audit = audit or AuditLog()

    def register_lun(self, lun: str, owner: str = "") -> None:
        """Declare an exported LUN (hidden from everyone by default)."""
        if lun in self._luns:
            raise ValueError(f"LUN {lun!r} already registered")
        self._luns[lun] = LunEntry(lun, owner)

    def expose(self, initiator: str, lun: str, read_only: bool = False) -> None:
        """Make ``lun`` visible to ``initiator``."""
        if lun not in self._luns:
            raise ValueError(f"unknown LUN {lun!r}")
        self._masks.setdefault(initiator, set()).add(lun)
        if read_only:
            self._luns[lun].read_only_initiators.add(initiator)

    def revoke(self, initiator: str, lun: str) -> None:
        """Remove an initiator's visibility of a LUN."""
        self._masks.get(initiator, set()).discard(lun)
        if lun in self._luns:
            self._luns[lun].read_only_initiators.discard(initiator)

    # -- the data-path checks ------------------------------------------------------

    def visible_luns(self, initiator: str) -> set[str]:
        """What a SCSI REPORT LUNS from this initiator enumerates."""
        return set(self._masks.get(initiator, set()))

    def check(self, initiator: str, lun: str, op: str,
              now: float = 0.0) -> bool:
        """Gate a data-path operation; denials are audited."""
        visible = lun in self._masks.get(initiator, set())
        if not visible:
            self.audit.record(now, initiator, f"lun.{op}", "denied",
                              detail=lun)
            return False
        if op == "write" and initiator in self._luns[lun].read_only_initiators:
            self.audit.record(now, initiator, "lun.write", "denied",
                              detail=f"{lun} (read-only)")
            return False
        self.audit.record(now, initiator, f"lun.{op}", "allowed", detail=lun)
        return True

    def require(self, initiator: str, lun: str, op: str,
                now: float = 0.0) -> None:
        """Gate an operation or raise MaskingViolation."""
        if not self.check(initiator, lun, op, now):
            raise MaskingViolation(
                f"{initiator} may not {op} {lun}")
