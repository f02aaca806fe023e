"""Formal verification: the Section V model and a bounded checker."""

from .checker import ModelChecker
from .invariants import INVARIANTS, Violation, ViolationRecord
from .model import (
    K,
    ClientState,
    ModelConfig,
    Phase,
    Write,
    enabled_events,
    initial_state,
)

__all__ = [
    "ClientState",
    "INVARIANTS",
    "K",
    "ModelChecker",
    "ModelConfig",
    "Phase",
    "Violation",
    "ViolationRecord",
    "Write",
    "enabled_events",
    "initial_state",
]
