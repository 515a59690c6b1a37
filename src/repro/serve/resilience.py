"""Serving-side resilience primitives: circuit breaking, hedging, shedding.

The online path's answer to PR 9's batch-sweep fault tolerance. Retry
with backoff (``repro.util.retry``) survives *transient* provider
weather; this module is for the failures retry makes worse:

* :class:`CircuitBreaker` — per-provider closed → open → half-open state
  machine over a sliding window of attempt outcomes. A browned-out
  provider trips its breaker after ``window``-bounded evidence, stops
  receiving traffic for ``cooldown_s``, then earns its way back through
  half-open probes. The clock is injectable so every transition is
  testable in virtual time.
* :class:`LatencyTracker` — a bounded reservoir of recent completion
  latencies; its p95 derives the hedge delay, so hedges fire exactly
  when a request has outlived the healthy tail.
* :class:`HedgePolicy` / :class:`BreakerPolicy` — frozen knob bundles,
  mirroring :class:`~repro.util.retry.RetryPolicy`.
* The shedding taxonomy — :class:`LoadShedError` (429-shaped, carries
  the ``Retry-After`` hint) and :class:`AllProvidersUnavailable` (every
  breaker in the failover chain is open).
* :class:`RateLimiter` — the async token bucket each upstream attempt
  acquires, so backed-off retries re-queue behind fresh work.

Everything here is event-loop-confined by design: the serving engine
mutates breakers and trackers only between awaits on its single loop, so
none of it takes locks. ``/v1/stats`` reads state, on the same loop,
through :meth:`CircuitBreaker.snapshot`.
"""

from __future__ import annotations

import asyncio
import math
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.util.retry import Sleep

#: Breaker states, in escalation order.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class LoadShedError(Exception):
    """The service refused admission: queue over budget or deadline
    unmeetable. Maps to HTTP 429 with a ``Retry-After`` hint."""

    def __init__(self, message: str, *, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class AllProvidersUnavailable(Exception):
    """Every provider in the failover chain has an open breaker.

    ``retry_after`` is the earliest half-open probe opportunity across
    the chain — the honest hint for a client's backoff."""

    def __init__(self, message: str, *, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


@dataclass(frozen=True)
class BreakerPolicy:
    """Knobs for one provider's circuit breaker.

    The window holds the last ``window`` attempt outcomes; the breaker
    opens when at least ``min_calls`` of them exist and the failure
    fraction reaches ``threshold``. After ``cooldown_s`` it admits
    ``half_open_probes`` trial calls: one success closes it (and clears
    the window — old failures are stale evidence), one failure re-opens
    it for another cooldown.
    """

    window: int = 16
    threshold: float = 0.5
    min_calls: int = 4
    cooldown_s: float = 5.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.window > sys.maxsize:  # the largest deque maxlen
            raise ValueError(
                f"window must be <= {sys.maxsize}, got {self.window}"
            )
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be in (0, 1], got {self.threshold}"
            )
        if self.min_calls < 1:
            raise ValueError(f"min_calls must be >= 1, got {self.min_calls}")
        if not math.isfinite(self.cooldown_s):
            raise ValueError(f"cooldown_s must be finite, got {self.cooldown_s}")
        if self.cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be > 0, got {self.cooldown_s}")
        if self.half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {self.half_open_probes}"
            )


@dataclass(frozen=True)
class HedgePolicy:
    """When to issue a backup request against the next healthy provider.

    ``delay_s=None`` derives the delay from observed latency: the
    tracker's ``quantile`` (p95 by default), floored at ``min_delay_s``.
    Until ``min_samples`` completions have been observed the floor alone
    applies — better an early hedge than none while the tail is unknown.
    """

    delay_s: float | None = None
    quantile: float = 0.95
    min_delay_s: float = 0.05
    min_samples: int = 8

    def __post_init__(self) -> None:
        if self.delay_s is not None and not math.isfinite(self.delay_s):
            raise ValueError(f"delay_s must be finite, got {self.delay_s}")
        if self.delay_s is not None and self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {self.quantile}")
        if not math.isfinite(self.min_delay_s):
            raise ValueError(
                f"min_delay_s must be finite, got {self.min_delay_s}"
            )
        if self.min_delay_s < 0:
            raise ValueError(
                f"min_delay_s must be >= 0, got {self.min_delay_s}"
            )


class LatencyTracker:
    """A bounded reservoir of recent call latencies (seconds)."""

    def __init__(self, maxlen: int = 256):
        self._samples: deque[float] = deque(maxlen=maxlen)

    def __len__(self) -> int:
        return len(self._samples)

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)

    def quantile(self, q: float) -> float | None:
        """The ``q``-quantile of the reservoir (nearest-rank), or ``None``
        when empty."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[rank]

    def hedge_delay(self, policy: HedgePolicy) -> float:
        """The delay after which a request deserves a hedge."""
        if policy.delay_s is not None:
            return policy.delay_s
        if len(self._samples) < policy.min_samples:
            return policy.min_delay_s
        observed = self.quantile(policy.quantile)
        assert observed is not None  # min_samples > 0 implies non-empty
        return max(policy.min_delay_s, observed)


class CircuitBreaker:
    """Closed → open → half-open breaker over a sliding outcome window.

    Callers pair every :meth:`allow` that returned ``True`` with exactly
    one :meth:`record_success` or :meth:`record_failure` — in half-open
    state ``allow`` hands out scarce probe slots and the records decide
    the next state. Failures are recorded per *attempt* (a retried
    upstream call that fails three times is three window entries), so a
    brownout trips the breaker within one request's retry budget rather
    than after ``window`` whole requests.
    """

    def __init__(
        self,
        policy: BreakerPolicy | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._outcomes: deque[bool] = deque(maxlen=self.policy.window)
        self._state = CLOSED
        self._opened_at = 0.0
        self._probes_out = 0
        self.opened = 0  # lifetime open transitions, for stats

    # -- state ---------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state; lazily moves open → half-open once the cooldown
        has elapsed (no timers — the clock is consulted on use)."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.policy.cooldown_s
        ):
            self._state = HALF_OPEN
            self._probes_out = 0
        return self._state

    def error_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(1 for ok in self._outcomes if not ok) / len(self._outcomes)

    def retry_after(self) -> float:
        """Seconds until this breaker will next admit a call (0 if it
        already would)."""
        if self.state == OPEN:
            return max(
                0.0,
                self.policy.cooldown_s - (self._clock() - self._opened_at),
            )
        return 0.0

    # -- admission + outcomes ------------------------------------------------
    def allow(self) -> bool:
        """May a call go to this provider right now? Half-open grants at
        most ``half_open_probes`` concurrent trials."""
        state = self.state
        if state == CLOSED:
            return True
        if state == HALF_OPEN:
            if self._probes_out < self.policy.half_open_probes:
                self._probes_out += 1
                return True
        return False

    def record_success(self) -> None:
        if self.state == HALF_OPEN:
            # The probe came back healthy: close and start fresh — the
            # window's failures predate the recovery and would otherwise
            # re-open the breaker on the next blip.
            self._state = CLOSED
            self._outcomes.clear()
            self._probes_out = 0
            return
        self._outcomes.append(True)

    def record_failure(self) -> None:
        if self.state == HALF_OPEN:
            self._reopen()
            return
        self._outcomes.append(False)
        if (
            self._state == CLOSED
            and len(self._outcomes) >= self.policy.min_calls
            and self.error_rate() >= self.policy.threshold
        ):
            self._reopen()

    def _reopen(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._probes_out = 0
        self.opened += 1

    # -- observability -------------------------------------------------------
    def snapshot(self) -> dict:
        """Read-only view for ``/v1/stats`` and the cache manifest."""
        return {
            "state": self.state,
            "error_rate": round(self.error_rate(), 4),
            "window": len(self._outcomes),
            "opened": self.opened,
            "retry_after_s": round(self.retry_after(), 3),
        }


class RateLimiter:
    """Async token bucket: sustained ``rate`` acquisitions/s, bursts of
    ``burst``.

    Single-event-loop discipline: state is mutated only between awaits, so
    no lock is needed. Waiters self-schedule — each sleeps exactly until
    its own token matures — and ``_reserved`` tokens make concurrent
    waiters queue FIFO-fairly instead of stampeding the bucket when it
    refills. ``rate=None`` (or ``<= 0``, or infinite) disables limiting;
    a NaN rate is rejected. ``clock``/``sleep`` are injectable for
    virtual-time tests.
    """

    def __init__(
        self,
        rate: float | None,
        burst: int = 1,
        *,
        clock: Callable[[], float] = time.monotonic,
        sleep: Sleep = asyncio.sleep,
    ) -> None:
        if rate is not None and math.isnan(rate):
            raise ValueError(f"rate must be a number, got {rate}")
        if rate is not None and not 0 < rate < math.inf:
            rate = None
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._sleep = sleep
        self._tokens = float(burst)
        self._reserved = 0.0  # tokens promised to already-queued waiters
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        assert self.rate is not None
        self._tokens = min(
            float(self.burst), self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    async def acquire(self) -> None:
        """Take one token, sleeping until the bucket can cover it."""
        if self.rate is None:
            return
        self._refill()
        # Claim a place in line: our token is the (_reserved + 1)-th to
        # mature. Reserving before sleeping keeps arrivals FIFO.
        deficit = self._reserved + 1.0 - self._tokens
        if deficit <= 0:
            self._tokens -= 1.0
            return
        self._reserved += 1.0
        try:
            await self._sleep(deficit / self.rate)
        finally:
            self._reserved -= 1.0
        self._refill()
        self._tokens -= 1.0  # may briefly dip below 0 under cancellation
