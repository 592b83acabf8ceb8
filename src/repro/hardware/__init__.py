"""Hardware substrate models: disks, blades, ports, and network paths.

These stand in for the physical testbed the paper assumes (FC disk farms,
controller blades, FC and Ethernet ports, the PCI-X bus) — see DESIGN.md's
substitution table.
"""

from .blade import BladeFailedError, BladeState, ControllerBlade
from .disk import Disk, DiskFailedError, make_disk_farm
from .ports import NetworkPath, Port, ethernet_port, fc_port, pci_x_bus

__all__ = [
    "BladeFailedError",
    "BladeState",
    "ControllerBlade",
    "Disk",
    "DiskFailedError",
    "NetworkPath",
    "Port",
    "ethernet_port",
    "fc_port",
    "make_disk_farm",
    "pci_x_bus",
]
