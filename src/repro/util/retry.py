"""Bounded retry with jittered exponential backoff — sync and async.

The one retry layer: the :class:`RetryPolicy` schedule, the
:class:`TransientError` marker taxonomy, and the sync and async retry
drivers. The sync batch engine (:mod:`repro.eval.engine`) and the async
serving engine (:mod:`repro.serve.engine`) back off under the *same*
policy object and call these drivers directly; ``repro.serve`` also
exports :class:`RetryPolicy` for its callers.

What counts as retryable is the caller's business: both drivers take a
``retryable`` exception tuple (defaulting to :class:`TransientError`, the
marker base that provider errors and injected faults subclass). Anything
else is a bug or a permanent rejection and propagates on the first
attempt. A retryable error may carry a ``retry_after`` attribute (a
429-shaped server hint, seconds); the backoff never waits less than it.

Determinism note: backoff delays and attempt timeouts are *jittered*
(decorrelating clients that fail together), which makes wall-clock timing
random — but never results. The jitter RNG is injectable (the sync
engine seeds it per work unit from the cache key, so a retried sweep is
reproducible), and ``sleep`` is injectable so tests run in virtual time.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, TypeVar

#: Async sleep hook type — tests inject a virtual clock.
Sleep = Callable[[float], Awaitable[None]]

T = TypeVar("T")


class TransientError(Exception):
    """Marker base for failures worth retrying with backoff.

    Subclasses may set ``retry_after`` (seconds) — a server hint that
    floors the computed backoff delay, never shortens it.
    """

    retry_after: float | None = None


class AttemptTimeout(TransientError):
    """An attempt exceeded its (jittered) deadline."""


class DeadlineExceeded(Exception):
    """The caller's end-to-end deadline expired before a success.

    Deliberately *not* a :class:`TransientError`: once the requester's
    budget is gone there is nothing to retry for. The serving layer maps
    this to a 429-shaped rejection (shed, not failed)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry schedule for one upstream completion.

    Attempt ``k`` (0-based) that fails retryably sleeps
    ``base_delay_s * multiplier**k``, capped at ``max_delay_s``, then
    scaled by a uniform jitter factor in ``[1 - jitter, 1 + jitter]``.
    A retryable error whose ``retry_after`` exceeds the computed delay
    waits the server's hint instead (never less than asked).
    ``timeout_s`` bounds each attempt, itself jittered by
    ``timeout_jitter`` so a thundering herd of identical requests doesn't
    time out in lockstep; ``None`` disables attempt deadlines.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    timeout_s: float | None = None
    timeout_jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if not 0.0 <= self.timeout_jitter < 1.0:
            raise ValueError(
                f"timeout_jitter must be in [0, 1), got {self.timeout_jitter}"
            )
        if self.timeout_s is not None and not self.timeout_s > 0.0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Jittered delay after failed attempt ``attempt`` (0-based)."""
        delay = min(self.base_delay_s * self.multiplier**attempt, self.max_delay_s)
        if self.jitter:
            delay *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return delay

    def attempt_timeout(self, rng: random.Random) -> float | None:
        """This attempt's jittered deadline (``None`` = no deadline)."""
        if self.timeout_s is None:
            return None
        if not self.timeout_jitter:
            return self.timeout_s
        return self.timeout_s * rng.uniform(
            1.0 - self.timeout_jitter, 1.0 + self.timeout_jitter
        )


def _hint_delay(policy: RetryPolicy, attempt: int, exc: BaseException,
                rng: random.Random) -> float:
    """Backoff after ``attempt``, floored by the error's ``retry_after``."""
    delay = policy.backoff_delay(attempt, rng)
    hint = getattr(exc, "retry_after", None)
    if hint is not None:
        delay = max(delay, hint)
    return delay


async def call_with_retry(
    fn: Callable[[], Awaitable],
    *,
    policy: RetryPolicy,
    retryable: tuple[type[BaseException], ...] = (TransientError,),
    rng: random.Random | None = None,
    sleep: Sleep = asyncio.sleep,
    on_retry: Callable[[int, BaseException], None] | None = None,
    timeout_error: Callable[[int, float], BaseException] | None = None,
    deadline: float | None = None,
    clock: Callable[[], float] = time.monotonic,
):
    """Await ``fn()`` with bounded retries under ``policy``.

    Retries only ``retryable`` errors; an attempt that overruns its
    jittered deadline is surfaced as ``timeout_error(attempt, timeout)``
    (default :class:`AttemptTimeout` — callers whose timeout class lives
    elsewhere, like serve's ``ProviderTimeout``, inject a factory).
    Non-retryable exceptions and the final retryable failure propagate
    unchanged. ``on_retry(attempt, error)`` fires before each backoff
    sleep — engines count retries through it.

    ``deadline`` is an absolute instant on ``clock``'s timeline (the
    serving layer derives it from the request's ``X-Deadline-Ms``
    budget). Attempts are clipped to the remaining budget, an attempt
    that would start with none raises :class:`DeadlineExceeded`, and a
    backoff that cannot finish inside the budget fails immediately
    instead of sleeping through it.
    """
    rng = rng if rng is not None else random.Random()
    last: BaseException | None = None
    for attempt in range(policy.max_attempts):
        try:
            timeout = policy.attempt_timeout(rng)
            if deadline is not None:
                remaining = deadline - clock()
                if remaining <= 0:
                    raise DeadlineExceeded(
                        f"deadline expired before attempt {attempt + 1}"
                    ) from last
                timeout = remaining if timeout is None else min(timeout, remaining)
            if timeout is None:
                return await fn()
            try:
                return await asyncio.wait_for(fn(), timeout)
            except asyncio.TimeoutError:
                if timeout_error is not None:
                    raise timeout_error(attempt, timeout) from None
                raise AttemptTimeout(
                    f"attempt {attempt + 1} exceeded {timeout:.3f}s"
                ) from None
        except retryable as exc:
            last = exc
            if attempt + 1 >= policy.max_attempts:
                raise
            delay = _hint_delay(policy, attempt, exc, rng)
            if deadline is not None and clock() + delay >= deadline:
                raise DeadlineExceeded(
                    f"deadline leaves no room for a {delay:.3f}s backoff "
                    f"after attempt {attempt + 1}"
                ) from exc
            if on_retry is not None:
                on_retry(attempt, exc)
            await sleep(delay)
    raise last if last is not None else RuntimeError("unreachable")


def retry_call(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy,
    retryable: tuple[type[BaseException], ...] = (TransientError,),
    rng: random.Random | None = None,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> T:
    """Synchronous twin of :func:`call_with_retry` for the batch engine.

    Same schedule, same ``retry_after`` flooring, same ``on_retry`` hook.
    ``policy.timeout_s`` is not enforced here — a sync call can't be
    cancelled from outside without an event loop, so attempt deadlines
    are an async-path feature only.
    """
    rng = rng if rng is not None else random.Random()
    last: BaseException | None = None
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except retryable as exc:
            last = exc
            if attempt + 1 >= policy.max_attempts:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            sleep(_hint_delay(policy, attempt, exc, rng))
    raise last if last is not None else RuntimeError("unreachable")
