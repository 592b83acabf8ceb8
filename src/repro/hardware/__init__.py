"""Hardware substrate models: disks, blades, ports, and switches.

These stand in for the physical testbed the paper assumes (FC disk farms,
controller blades, switched fabrics) — see DESIGN.md's substitution table.
"""

from .blade import BladeFailedError, BladeState, ControllerBlade
from .disk import Disk, DiskFailedError, make_disk_farm
from .ports import NetworkPath, Port, ethernet_port, fc_port, pci_x_bus
from .switch import Fabric, ethernet_switch, fc_switch

__all__ = [
    "BladeFailedError",
    "BladeState",
    "ControllerBlade",
    "Disk",
    "DiskFailedError",
    "Fabric",
    "NetworkPath",
    "Port",
    "ethernet_port",
    "ethernet_switch",
    "fc_port",
    "fc_switch",
    "make_disk_farm",
    "pci_x_bus",
]
