"""MUSIC: critical sections with entry-consistency-under-failures semantics."""

from .client import CriticalSection, MusicClient
from .config import MusicConfig
from .deployment import MusicDeployment, build_music, build_replicas
from .failure_detector import FailureDetector
from .hierarchical import HierarchicalClient, LocalSection, SiteLockProxy
from .multikey import MultiKeyCriticalSection, ReadOnlyMultiKeySection, enter_multi
from .replica import SYNCH_ROW, VALUE_ROW, MusicReplica
from .service import ReplicaStub, install_service, service_client
from .timestamps import MAX_SCALAR, VectorTimestamp, check_overflow, v2s

__all__ = [
    "CriticalSection",
    "FailureDetector",
    "HierarchicalClient",
    "LocalSection",
    "MAX_SCALAR",
    "MultiKeyCriticalSection",
    "ReadOnlyMultiKeySection",
    "MusicClient",
    "MusicConfig",
    "MusicDeployment",
    "MusicReplica",
    "ReplicaStub",
    "SYNCH_ROW",
    "SiteLockProxy",
    "VALUE_ROW",
    "VectorTimestamp",
    "build_music",
    "build_replicas",
    "check_overflow",
    "enter_multi",
    "install_service",
    "service_client",
    "v2s",
]
