"""Normalized server load metric (paper section 3.1).

The paper requires a load metric that is (1) *linearly comparable* and
(2) *locally defined*, valued in [0, 1], and evaluates the protocol
with the simplest such metric: the fraction of server busy time over a
window period w (e.g. half a second).  :class:`BusyWindowLoadMeter`
implements exactly that, plus the *hysteresis adjustment* the creation
protocol applies after a transfer (step 4): both parties immediately
book the targeted post-transfer load so they do not thrash before the
measured windows catch up; the adjustment decays as real measurements
arrive.
"""

from __future__ import annotations

from typing import Optional


class BusyWindowLoadMeter:
    """Busy-fraction-over-window load metric with hysteresis adjustment.

    Usage: call :meth:`service_started` / :meth:`service_finished`
    around each serviced request, :meth:`roll` at each window boundary,
    and read :meth:`load` anywhere in between.

    ``load()`` combines the last completed window's busy fraction, the
    current window's partial busy fraction (so sudden spikes are seen
    before the window closes), and the decaying hysteresis adjustment;
    the result is clamped to [0, 1].
    """

    __slots__ = (
        "window",
        "_busy_since",
        "_busy_acc",
        "_window_start",
        "_last_load",
        "_adjust",
        "adjust_decay",
        "n_windows",
    )

    def __init__(self, window: float = 0.5, adjust_decay: float = 0.5) -> None:
        if window <= 0:
            raise ValueError("window must be > 0")
        if not 0.0 <= adjust_decay <= 1.0:
            raise ValueError("adjust_decay must be in [0, 1]")
        self.window = window
        self._busy_since: Optional[float] = None
        self._busy_acc = 0.0
        self._window_start = 0.0
        self._last_load = 0.0
        self._adjust = 0.0
        self.adjust_decay = adjust_decay
        self.n_windows = 0

    # ------------------------------------------------------------------
    # busy-time accounting
    # ------------------------------------------------------------------

    def service_started(self, now: float) -> None:
        if self._busy_since is not None:
            raise RuntimeError("service already in progress")
        self._busy_since = now

    def service_finished(self, now: float) -> None:
        if self._busy_since is None:
            raise RuntimeError("no service in progress")
        self._busy_acc += now - self._busy_since
        self._busy_since = None

    @property
    def busy(self) -> bool:
        return self._busy_since is not None

    # ------------------------------------------------------------------
    # windowing
    # ------------------------------------------------------------------

    def roll(self, now: float) -> float:
        """Close the current window at ``now``; return its busy fraction.

        An in-progress service is split across the boundary.
        """
        busy = self._busy_acc
        if self._busy_since is not None:
            busy += now - self._busy_since
            self._busy_since = now
        span = now - self._window_start
        self._last_load = min(1.0, busy / span) if span > 0 else 0.0
        self._busy_acc = 0.0
        self._window_start = now
        self._adjust *= self.adjust_decay
        if abs(self._adjust) < 1e-6:
            self._adjust = 0.0
        self.n_windows += 1
        return self._last_load

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def measured(self) -> float:
        """The last completed window's busy fraction (no adjustment)."""
        return self._last_load

    def load(self, now: Optional[float] = None) -> float:
        """The current normalized load in [0, 1].

        With ``now`` given, blends in the current partial window so
        spikes are visible before the next roll.
        """
        val = self._last_load
        if now is not None and now > self._window_start:
            busy = self._busy_acc
            if self._busy_since is not None:
                busy += now - self._busy_since
            span = now - self._window_start
            frac = min(1.0, span / self.window)
            partial = min(1.0, busy / span)
            # weight the partial window by how much of it has elapsed
            val = (1.0 - frac) * val + frac * partial
        val += self._adjust
        if val <= 0.0:
            return 0.0
        return val if val < 1.0 else 1.0

    # ------------------------------------------------------------------
    # hysteresis (creation protocol step 4)
    # ------------------------------------------------------------------

    def apply_adjustment(self, delta: float) -> None:
        """Book an immediate load change of ``delta`` (may be negative).

        After replicating, the source books ``-(ls - lt)/2`` and the
        target ``+(ls - lt)/2`` so both behave as if the ideal load
        redistribution already happened, preventing replica thrashing.
        """
        self._adjust += delta
