"""Per-node clocks.

The paper relies on local clocks *only* to sequentialize multiple actions
of a single client (Section III-B), so MUSIC must stay correct when node
clocks disagree.  ``NodeClock`` models a local clock as simulated time
plus a fixed offset and a linear drift rate, letting tests inject skew
and verify that vector-timestamp ordering never depends on cross-node
clock agreement.
"""

from __future__ import annotations

from .core import Clock

__all__ = ["NodeClock"]


class NodeClock:
    """A drifting local clock: ``local = (now - epoch) * (1 + drift) + offset``.

    ``drift`` is a dimensionless rate (e.g. ``1e-5`` = 10 ppm fast) and
    ``offset`` is in milliseconds.  A monotonic ``tick`` guarantees that
    two successive reads never return the same value, which models the
    strictly increasing timestamps a single client generates.
    """

    def __init__(
        self,
        sim: "Clock",
        offset: float = 0.0,
        drift: float = 0.0,
        tick: float = 1e-6,
    ) -> None:
        self.sim = sim
        self.offset = offset
        self.drift = drift
        self.tick = tick
        self._last_read = float("-inf")

    def now(self) -> float:
        """Current local time in milliseconds, strictly monotonic."""
        raw = self.sim.now * (1.0 + self.drift) + self.offset
        if raw <= self._last_read:
            raw = self._last_read + self.tick
        self._last_read = raw
        return raw

    def at(self, when: float) -> float:
        """The local time at simulated time ``when``, never later than
        what a read at ``when`` returned (and reading nothing now)."""
        return when * (1.0 + self.drift) + self.offset
