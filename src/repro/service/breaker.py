"""Per-seam circuit breakers for the specialization service.

A :class:`CircuitBreaker` guards an optional, failure-prone dependency
(the persistent store tier, the compiled-backend lowering) so a
*persistently* failing path is bypassed for a cooldown instead of
paying its failure cost — lock-timeout retries, compile attempts that
always throw — on every request.  Classic three-state machine:

* **closed** — traffic flows; ``failure_threshold`` *consecutive*
  failures trip it open (a success resets the streak).
* **open** — calls are short-circuited (``allow()`` is ``False``)
  until ``cooldown_seconds`` have passed.
* **half-open** — after the cooldown, up to ``half_open_max`` probe
  calls are let through: a success closes the breaker, a failure
  re-opens it (and restarts the cooldown), and a probe whose call
  never ran is handed back with :meth:`CircuitBreaker.release`.

The breaker never raises and never blocks; it only answers
``allow()`` and records outcomes.  Callers keep their own fallback
behavior (skip the store tier, ship the residual without an artifact)
— exactly the degraded modes they already implement for individual
failures.  Time is injected (``clock``) so the state walk is unit
testable without sleeping.
"""

from __future__ import annotations

from time import monotonic
from typing import Callable

#: The three states, as they appear in health snapshots.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreaker:
    """One guarded seam; see module docstring."""

    def __init__(self, name: str, failure_threshold: int = 5,
                 cooldown_seconds: float = 30.0,
                 half_open_max: int = 1,
                 clock: Callable[[], float] = monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got "
                             f"{failure_threshold}")
        if cooldown_seconds < 0:
            raise ValueError(f"cooldown_seconds must be >= 0, got "
                             f"{cooldown_seconds}")
        if half_open_max < 1:
            raise ValueError(f"half_open_max must be >= 1, got "
                             f"{half_open_max}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.half_open_max = half_open_max
        self._clock = clock
        self._state = CLOSED
        self._streak = 0          # consecutive failures while closed
        self._opened_at = 0.0
        self._probes = 0          # probes granted while half-open
        # Lifetime accounting (the ``breaker`` health section).
        self.failures = 0
        self.successes = 0
        self.opens = 0
        self.short_circuits = 0

    # -- the gate ------------------------------------------------------
    def allow(self) -> bool:
        """May the caller use the guarded path right now?  Counts a
        short-circuit when the answer is no."""
        if self._state == OPEN:
            if self._clock() - self._opened_at >= self.cooldown_seconds:
                self._state = HALF_OPEN
                self._probes = 0
            else:
                self.short_circuits += 1
                return False
        if self._state == HALF_OPEN:
            if self._probes >= self.half_open_max:
                self.short_circuits += 1
                return False
            self._probes += 1
        return True

    # -- outcomes ------------------------------------------------------
    def release(self) -> None:
        """Hand back a grant that never reached the guarded path (the
        caller's work ended first): a half-open probe slot frees up
        for the next caller instead of staying spent.  Records no
        outcome; a no-op in the other states."""
        if self._state == HALF_OPEN and self._probes > 0:
            self._probes -= 1

    def record_success(self) -> None:
        self.successes += 1
        self._streak = 0
        if self._state == HALF_OPEN:
            self._state = CLOSED

    def record_failure(self) -> None:
        self.failures += 1
        if self._state == HALF_OPEN:
            self._trip()
            return
        self._streak += 1
        if self._state == CLOSED \
                and self._streak >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._streak = 0
        self.opens += 1

    # -- introspection -------------------------------------------------
    @property
    def state(self) -> str:
        """The current state, cooldown expiry applied lazily (an open
        breaker whose cooldown has passed reads ``half_open``)."""
        if self._state == OPEN and self._clock() - self._opened_at \
                >= self.cooldown_seconds:
            return HALF_OPEN
        return self._state

    def snapshot(self) -> dict:
        """JSON-ready health entry."""
        return {
            "state": self.state,
            "failures": self.failures,
            "successes": self.successes,
            "opens": self.opens,
            "short_circuits": self.short_circuits,
        }
