"""Discrete-event simulation substrate (kernel, primitives, clocks, RNG)."""

from .clock import NodeClock
from .core import (
    AnyOf,
    Clock,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
)
from .primitives import Condition, Mailbox, Resource
from .rng import RandomStreams

__all__ = [
    "AnyOf",
    "Clock",
    "Condition",
    "Event",
    "Interrupt",
    "Mailbox",
    "NodeClock",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Simulator",
]
