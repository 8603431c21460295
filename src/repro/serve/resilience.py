"""Per-system circuit breakers (and the serving retry policy).

A system whose workers keep crashing or hanging would otherwise eat the
pool: every request spawns a doomed subprocess, holds a worker for the
full watchdog, and starves well-behaved systems.  The breaker quarantines
such a system the same way the campaign supervisor quarantines
deterministic failures — but *temporarily*, with a half-open probe on
cool-down, because a serving daemon outlives transient infrastructure
weather.

State machine (per system):

- **closed**    — requests flow; ``failure_threshold`` *consecutive*
  infrastructure failures (``crash``/``timeout``/``malformed``
  classifications) trip it open.  Any success, verdict, or budget
  outcome resets the streak — a failing *check* is a result, not an
  infrastructure failure.
- **open**      — requests are rejected up front (503 + ``Retry-After``)
  until ``cooldown_s`` has elapsed on the monotonic clock.
- **half-open** — one probe request is admitted; success closes the
  breaker, failure re-opens it for another cool-down.

Retries reuse the campaign :class:`~repro.runner.attempts.RetryPolicy`
(capped exponential backoff, seeded jitter) — re-exported here so the
serving layer has one import surface for its resilience knobs.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.runner.attempts import RetryPolicy

__all__ = [
    "BREAKER_FAILURE_CLASSES",
    "CircuitBreaker",
    "BreakerBoard",
    "RetryPolicy",
]

#: Attempt classifications that count as infrastructure failures for
#: the breaker.  ``verdict``/``error``/``budget`` are *results* — the
#: machinery worked, the check concluded — and must not quarantine the
#: system.
BREAKER_FAILURE_CLASSES = frozenset({"crash", "timeout", "malformed"})

CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


class CircuitBreaker:
    """One system's breaker; thread-safe; monotonic-clock cool-downs.

    ``clock`` is injectable for tests (defaults to
    :func:`time.monotonic` — wall-clock steps must not extend or cut
    short a quarantine).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._streak = 0
        self._opened_at: Optional[float] = None
        self.trips = 0
        self.rejections = 0

    # -- admission -----------------------------------------------------

    def allow(self) -> bool:
        """May a request for this system proceed right now?

        In the open state this flips to half-open once the cool-down
        has elapsed and admits exactly one probe; concurrent callers
        during half-open are rejected until the probe settles.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at >= self.cooldown_s:
                    self._state = HALF_OPEN
                    return True
                self.rejections += 1
                return False
            # HALF_OPEN: the probe slot is taken until it settles.
            self.rejections += 1
            return False

    def retry_after_s(self) -> float:
        """Seconds until the next admission attempt could succeed."""
        with self._lock:
            if self._state != OPEN or self._opened_at is None:
                return 0.0
            return max(0.0, self.cooldown_s - (self._clock() - self._opened_at))

    # -- outcomes ------------------------------------------------------

    def record(self, classification: str) -> None:
        """Fold one terminal attempt classification into the breaker."""
        if classification in BREAKER_FAILURE_CLASSES:
            self.record_failure()
        else:
            self.record_success()

    def record_success(self) -> None:
        with self._lock:
            self._state = CLOSED
            self._streak = 0
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                # The probe failed: straight back to open for another
                # full cool-down.
                self._state = OPEN
                self._opened_at = self._clock()
                self.trips += 1
                return
            self._streak += 1
            if self._streak >= self.failure_threshold and self._state == CLOSED:
                self._state = OPEN
                self._opened_at = self._clock()
                self.trips += 1

    # -- inspection ----------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            if (
                self._state == OPEN
                and self._clock() - self._opened_at >= self.cooldown_s
            ):
                return HALF_OPEN  # would admit a probe on next allow()
            return self._state

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "state": self._state,
                "streak": self._streak,
                "trips": self.trips,
                "rejections": self.rejections,
                "cooldown_s": self.cooldown_s,
                "failure_threshold": self.failure_threshold,
            }


class BreakerBoard:
    """The per-system breaker registry (created lazily, one config)."""

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, system: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(system)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.failure_threshold,
                    cooldown_s=self.cooldown_s,
                    clock=self._clock,
                )
                self._breakers[system] = breaker
            return breaker

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            systems = list(self._breakers.items())
        return {system: breaker.snapshot() for system, breaker in systems}
