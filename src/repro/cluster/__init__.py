"""Controller cluster: membership, load balancing, upgrades, and the
management services (rebuilds, backups) whose workers live on blades
(§2, §6)."""

from .backup import backup_job
from .balancer import LoadBalancer, NoBladesAvailableError
from .cluster import ControllerCluster
from .membership import ClusterMembership
from .rebuild import ClusterRebuildCoordinator
from .upgrade import RollingUpgrade, UpgradeAbortedError

__all__ = [
    "ClusterMembership",
    "ClusterRebuildCoordinator",
    "ControllerCluster",
    "LoadBalancer",
    "NoBladesAvailableError",
    "RollingUpgrade",
    "UpgradeAbortedError",
    "backup_job",
]
