"""Bounded retry with jittered exponential backoff — one loop, two entries.

The one retry layer: the :class:`RetryPolicy` schedule, the
:class:`TransientError` marker taxonomy, and the one loop over attempts,
:func:`call_with_retry`. The async serving engine
(:mod:`repro.serve.engine`) awaits it; the sync batch engine
(:mod:`repro.eval.engine`) drives it through :func:`retry_call`, a
blocking adapter. ``repro.serve`` also exports :class:`RetryPolicy`.

What counts as retryable is the caller's business: both entries take a
``retryable`` exception tuple (defaulting to :class:`TransientError`, the
marker base that provider errors and injected faults subclass). Anything
else is a bug or a permanent rejection and propagates on the first
attempt. A retryable error may carry a ``retry_after`` attribute (a
429-shaped server hint, seconds); the backoff never waits less than it.

Determinism note: backoff delays and attempt timeouts are *jittered*
(decorrelating clients that fail together), but each factor is a pure
function of ``(token, attempt)``; both engines pass the unit's cache key
as the token, so a retried unit backs off identically however it is
scheduled, and results never depend on it. ``sleep`` is injectable so
tests run in virtual time.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, TypeVar

from repro.util.hashing import stable_hash_u64

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


def _jittered(value: float, spread: float, *key: object) -> float:
    """``value`` times a factor in ``[1 - spread, 1 + spread]`` hashed
    from ``key``."""
    if not spread:
        return value
    draw = stable_hash_u64("retry-jitter", *key) / 2.0**64
    return value * (1.0 - spread + 2.0 * spread * draw)


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

    def backoff_delay(self, attempt: int, token: str) -> float:
        """Jittered delay after failed attempt ``attempt`` (0-based)."""
        delay = min(self.base_delay_s * self.multiplier**attempt, self.max_delay_s)
        return _jittered(delay, self.jitter, "backoff", token, attempt)

    def attempt_timeout(self, attempt: int, token: str) -> float | None:
        """Attempt ``attempt``'s jittered deadline (``None`` = no deadline)."""
        if self.timeout_s is None:
            return None
        return _jittered(
            self.timeout_s, self.timeout_jitter, "timeout", token, attempt
        )


async def call_with_retry(
    fn: Callable[[int], Awaitable[T]],
    *,
    policy: RetryPolicy,
    retryable: tuple[type[BaseException], ...] = (TransientError,),
    token: str = "",
    sleep: Sleep = asyncio.sleep,
    on_retry: Callable[[int, BaseException], None] | None = None,
    timeout_error: Callable[[int, float], BaseException] | None = None,
    deadline: float | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> T:
    """Await ``fn(attempt)`` (0-based attempt index) with bounded retries
    under ``policy``; ``token`` keys the jitter.

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
    last: BaseException | None = None
    for attempt in range(policy.max_attempts):
        try:
            timeout = policy.attempt_timeout(attempt, token)
            if deadline is not None:
                remaining = deadline - clock()
                if remaining <= 0:
                    raise DeadlineExceeded(
                        f"deadline expired before attempt {attempt + 1}"
                    ) from last
                timeout = remaining if timeout is None else min(timeout, remaining)
            if timeout is None:
                return await fn(attempt)
            try:
                return await asyncio.wait_for(fn(attempt), timeout)
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
            delay = policy.backoff_delay(attempt, token)
            hint = getattr(exc, "retry_after", None)
            if hint is not None:
                delay = max(delay, hint)
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
    fn: Callable[[int], T],
    *,
    policy: RetryPolicy,
    retryable: tuple[type[BaseException], ...] = (TransientError,),
    token: str = "",
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> T:
    """Blocking entry to :func:`call_with_retry` for the batch engine.

    ``fn`` and ``sleep`` are wrapped in coroutines that never suspend, so
    one ``send`` runs the whole loop to completion in the calling thread
    with no event loop — safe inside thread-pool workers. A policy with
    ``timeout_s`` is rejected: a blocking call cannot be cancelled from
    outside, so attempt deadlines are an async-path feature only.
    """
    if policy.timeout_s is not None:
        raise ValueError("retry_call cannot enforce timeout_s: use "
                         "call_with_retry on an event loop")

    async def attempt(index: int) -> T:
        return fn(index)

    async def pause(delay: float) -> None:
        sleep(delay)

    loop = call_with_retry(
        attempt, policy=policy, retryable=retryable, token=token,
        sleep=pause, on_retry=on_retry,
    )
    try:
        loop.send(None)
    except StopIteration as done:
        return done.value
    raise RuntimeError("retry_call: an attempt suspended on an event loop")
