"""MUSIC: critical sections with entry-consistency-under-failures semantics."""

from .client import CriticalSection, MusicClient
from .config import MusicConfig
from .deployment import MusicDeployment, build_music, build_replicas
from .failure_detector import FailureDetector
from .multikey import MultiKeyCriticalSection, ReadOnlyMultiKeySection, enter_multi
from .replica import VALUE_ROW, MusicReplica
from .service import service_client
from .timestamps import MAX_SCALAR, VectorTimestamp, check_overflow, v2s

__all__ = [
    "CriticalSection",
    "FailureDetector",
    "MAX_SCALAR",
    "MultiKeyCriticalSection",
    "ReadOnlyMultiKeySection",
    "MusicClient",
    "MusicConfig",
    "MusicDeployment",
    "MusicReplica",
    "VALUE_ROW",
    "VectorTimestamp",
    "build_music",
    "build_replicas",
    "check_overflow",
    "enter_multi",
    "service_client",
    "v2s",
]
