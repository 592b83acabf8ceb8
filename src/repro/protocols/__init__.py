"""Protocol export and network integration (§2.3, §8, Figure 1)."""

from .ftp import FtpExport
from .http import DirectHttpExport, ServerMediatedExport
from .rtsp import RtspSession, SessionStats, run_sessions
from .transports import (
    ALL_TRANSPORTS,
    DAFS_TRANSPORT,
    FC_TRANSPORT,
    INFINIBAND_VI_TRANSPORT,
    TCP_IP_TRANSPORT,
    TransportEndpoint,
    TransportProfile,
)
from .streaming import StreamResult, StripedStreamAggregator, figure1_configuration

__all__ = [
    "ALL_TRANSPORTS",
    "DAFS_TRANSPORT",
    "DirectHttpExport",
    "FC_TRANSPORT",
    "INFINIBAND_VI_TRANSPORT",
    "TCP_IP_TRANSPORT",
    "TransportEndpoint",
    "TransportProfile",
    "FtpExport",
    "RtspSession",
    "ServerMediatedExport",
    "SessionStats",
    "run_sessions",
    "StreamResult",
    "StripedStreamAggregator",
    "figure1_configuration",
]
