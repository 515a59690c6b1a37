"""The asyncio engine over the shared engine core.

:class:`AsyncEvalEngine` serves completions concurrently from an event
loop on the same unit pipeline as :class:`repro.eval.engine.EvalEngine`:
it derives the same :func:`repro.eval.engine.cache_key`, reaches the
store only through the core's lookup and commit steps (run in worker
threads via :func:`asyncio.to_thread`, so disk segment reads never stall
the loop), and :meth:`AsyncEvalEngine.run` returns through the core's
assembly step inside the core's batched-write block. A served completion
therefore warms the batch CLI's cache and vice versa, and for the same
grid :meth:`AsyncEvalEngine.run` returns a byte-identical
:class:`~repro.eval.runner.RunResult` and writes byte-identical cache
segments (pinned by the equivalence oracle).

A miss runs the batch engine's retry loop
(:func:`~repro.util.retry.call_with_retry`: jitter hashed from the cache
key and the attempt, an attempt overrun surfacing as
:class:`~repro.serve.providers.ProviderTimeout`) and calls the fault
plan's one hook with the candidate's provider label. Around that shared
miss path the async engine adds:

* **Request coalescing.** Identical in-flight prompts (same cache key)
  share one upstream completion: the first arrival owns the request, the
  rest await its future. With deterministic providers the duplicates'
  responses are exact, and with real APIs coalescing is what keeps a
  burst of identical queries from billing N times.
* **Rate limiting.** An optional
  :class:`~repro.serve.resilience.RateLimiter` token bucket is acquired
  inside each attempt so backed-off retries re-queue behind fresh work.
* **Resilience.** ``complete`` accepts a *failover chain* — an ordered
  tuple of providers sharing one :class:`~repro.llm.config.ModelConfig`.
  Each chain member sits behind its own
  :class:`~repro.serve.resilience.CircuitBreaker` (per-attempt outcomes
  over a sliding window; open breakers are skipped, half-open ones
  probed); a request whose candidate's retries exhaust fails over to
  the next healthy member, and a request that outlives the observed
  latency tail (:class:`~repro.serve.resilience.LatencyTracker` p95)
  *hedges* — launches a backup call on the next healthy member and
  takes the first success, cancelling the loser. Hedges run inside the
  owner's coalesced future, so a hedge never duplicates an in-flight
  key. Requests may carry an absolute ``deadline`` that clips attempt
  timeouts and aborts pointless backoffs
  (:class:`~repro.util.retry.DeadlineExceeded`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import runtime
from repro.eval.engine import (
    CachedResponse,
    CacheStats,
    ResponseStore,
    _assemble,
    _EngineCore,
    cache_key,
)
from repro.llm.base import LlmResponse
from repro.serve.providers import (
    ProviderClient,
    ProviderTimeout,
    provider_label,
)
from repro.serve.resilience import (
    AllProvidersUnavailable,
    BreakerPolicy,
    CircuitBreaker,
    HedgePolicy,
    LatencyTracker,
    RateLimiter,
)
from repro.util.retry import (
    DeadlineExceeded,
    RetryPolicy,
    Sleep,
    TransientError,
    call_with_retry,
)

#: ``complete`` accepts one provider or an ordered failover chain.
ProviderChain = ProviderClient | Sequence[ProviderClient]


def _provider_timeout(attempt: int, timeout: float) -> ProviderTimeout:
    """An attempt overrun, in the provider error taxonomy (retryable)."""
    return ProviderTimeout(f"attempt {attempt + 1} exceeded {timeout:.3f}s")


@dataclass
class ServeStats(CacheStats):
    """Engine accounting plus the serving-only counters.

    ``coalesced`` waiters piggybacked on another request's completion (they
    are *not* hits or misses — the owning request books those); the
    ``retries`` counter (upstream re-attempts after retryable failures) is
    inherited from :class:`CacheStats` now that the sync engine retries
    too. ``failed_over`` counts calls launched against a non-primary
    chain member after the primary was open or exhausted; ``hedged``
    counts backup calls launched against a still-running primary;
    ``shed`` counts requests rejected at admission (queue over budget or
    deadline unmeetable) — bumped by the HTTP service, surfaced here so
    one object tells the whole serving story.
    """

    coalesced: int = 0
    failed_over: int = 0
    hedged: int = 0
    shed: int = 0

    def summary(self) -> str:
        out = (
            f"{super().summary()}, {self.coalesced} coalesced, "
            f"{self.retries} retries"
        )
        if self.failed_over or self.hedged or self.shed:
            out += (
                f", {self.failed_over} failed over, {self.hedged} hedged, "
                f"{self.shed} shed"
            )
        return out


class AsyncEvalEngine(_EngineCore):
    """Concurrent cached evaluation against one or more providers.

    One engine spans a service lifetime: its ``stats`` describe all
    traffic served, its ``_inflight`` table coalesces concurrent
    duplicates across every entry point (single :meth:`complete` calls
    and :meth:`run` batches alike), and its ``_breakers`` registry holds
    one circuit breaker per provider label ever used.

    All state mutation happens on one event loop (the inflight table,
    breakers, and latency tracker are touched with no ``await`` between
    observation and update, so no lock is needed); blocking work — model
    inference, disk segment I/O — is pushed to worker threads.
    """

    def __init__(
        self,
        *,
        store: ResponseStore | None = None,
        retry: RetryPolicy | None = None,
        limiter: RateLimiter | None = None,
        max_concurrency: int = 64,
        sleep: Sleep = asyncio.sleep,
        clock: Callable[[], float] = time.monotonic,
        breaker: BreakerPolicy | None = None,
        hedge: HedgePolicy | None = HedgePolicy(),
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        self.store = store
        self.retry = retry or RetryPolicy()
        self.limiter = limiter
        self.max_concurrency = max_concurrency
        self.stats = ServeStats()
        self.breaker_policy = breaker or BreakerPolicy()
        self.hedge_policy = hedge  # None = hedging disabled
        self.latency = LatencyTracker()
        self._sleep = sleep
        self._clock = clock
        self._inflight: dict[str, asyncio.Future[LlmResponse]] = {}
        self._breakers: dict[str, CircuitBreaker] = {}

    @property
    def clock(self) -> Callable[[], float]:
        """The engine's monotonic clock — deadlines must be minted on it."""
        return self._clock

    # -- resilience plumbing -------------------------------------------------
    def breaker(self, label: str) -> CircuitBreaker:
        """The (lazily created) breaker guarding one provider label."""
        found = self._breakers.get(label)
        if found is None:
            found = CircuitBreaker(self.breaker_policy, clock=self._clock)
            self._breakers[label] = found
        return found

    def breaker_snapshots(self) -> dict[str, dict]:
        """Read-only breaker states for ``/v1/stats`` and the manifest."""
        return {
            label: self._breakers[label].snapshot()
            for label in sorted(self._breakers)
        }

    async def cancel_inflight(self) -> int:
        """Cancel every pending coalesced future; returns how many.

        The drain/close path: coalesced waiters ``shield`` their owner,
        so without this a shutdown during an in-flight burst would park
        forever behind completions nobody will consume. Cancelling the
        shared future wakes every waiter with ``CancelledError``; owners
        guard their ``set_result``/``set_exception`` with ``done()`` so
        a late completion is dropped, not crashed.
        """
        cancelled = 0
        for key, future in list(self._inflight.items()):
            if not future.done():
                future.cancel()
                cancelled += 1
            self._inflight.pop(key, None)
        return cancelled

    # -- single completion ---------------------------------------------------
    @staticmethod
    def _as_chain(provider: ProviderChain) -> tuple[ProviderClient, ...]:
        if isinstance(provider, (tuple, list)):
            if not provider:
                raise ValueError("empty provider chain")
            return tuple(provider)
        return (provider,)

    async def complete(
        self,
        provider: ProviderChain,
        prompt: str,
        *,
        temperature: float | None = None,
        top_p: float | None = None,
        deadline: float | None = None,
        info: dict | None = None,
    ) -> LlmResponse:
        """One completion: cache hit, coalesced join, or owned upstream call.

        ``provider`` may be a single client or an ordered failover chain
        (every member serving the same model config). ``deadline`` is an
        absolute instant on the engine clock; ``info``, when given, is
        filled with ``served_by`` (provider label, or ``"cache"`` /
        ``"coalesced"``) and ``hedged`` for the response's provenance tag.
        """
        chain = self._as_chain(provider)
        if info is not None:
            info.setdefault("hedged", False)
        key = cache_key(chain[0].config, prompt, temperature, top_p)
        if self.store is None:
            response = await self._upstream(
                chain, prompt, temperature=temperature, top_p=top_p,
                key=key, deadline=deadline, info=info,
            )
            self._commit(key, CachedResponse.from_response(response))
            return response

        existing = self._inflight.get(key)
        if existing is not None:
            self.stats._bump("coalesced")
            if info is not None:
                info["served_by"] = "coalesced"
            return await asyncio.shield(existing)
        # No await between the miss above and this insert: on one event
        # loop that makes check-then-set atomic, so every concurrent
        # duplicate lands in the branch above.
        future: asyncio.Future[LlmResponse] = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[key] = future
        try:
            cached = await asyncio.to_thread(self._lookup, key)
            if cached is not None:
                if info is not None:
                    info["served_by"] = "cache"
                response = cached.to_response(chain[0].name)
            else:
                response = await self._upstream(
                    chain, prompt, temperature=temperature, top_p=top_p,
                    key=key, deadline=deadline, info=info,
                )
                await asyncio.to_thread(
                    self._commit, key, CachedResponse.from_response(response)
                )
            if not future.done():
                future.set_result(response)
            return response
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                future.exception()  # consumed: waiterless failure ≠ leak
            raise
        finally:
            self._inflight.pop(key, None)

    # -- the resilient upstream path -----------------------------------------
    async def _call_one(
        self,
        client: ProviderClient,
        label: str,
        prompt: str,
        temperature: float | None,
        top_p: float | None,
        token: str,
        deadline: float | None,
        plan,
    ) -> LlmResponse:
        """One provider's full retry loop, breaker- and fault-aware."""
        breaker = self.breaker(label)

        async def attempt(index: int) -> LlmResponse:
            if plan is not None:
                tail = plan.slow_tail_delay(label, token)
                if tail is not None:
                    await self._sleep(tail)
                plan.completion_fault(token, index, label)
            if self.limiter is not None:
                # Acquired per attempt: a retry after backoff waits its
                # turn again rather than holding a stale reservation.
                await self.limiter.acquire()
            return await client.complete(
                prompt, temperature=temperature, top_p=top_p
            )

        def on_retry(_attempt: int, _exc: BaseException) -> None:
            self.stats._bump("retries")
            breaker.record_failure()

        start = self._clock()
        try:
            response = await call_with_retry(
                attempt,
                policy=self.retry,
                token=token,
                sleep=self._sleep,
                on_retry=on_retry,
                timeout_error=_provider_timeout,
                deadline=deadline,
                clock=self._clock,
            )
        except DeadlineExceeded:
            raise  # the caller's budget, not the provider's health
        except TransientError:
            breaker.record_failure()  # the final, exhausting attempt
            raise
        breaker.record_success()
        self.latency.record(self._clock() - start)
        return response

    def _next_candidate(
        self, chain: Sequence[ProviderClient], used: set[str]
    ) -> tuple[ProviderClient, str] | None:
        """The first unused chain member whose breaker admits a call.

        ``allow()`` is only consulted for members actually considered, so
        half-open probe slots are consumed exactly when a call launches.
        """
        for client in chain:
            label = provider_label(client)
            if label in used:
                continue
            if self.breaker(label).allow():
                used.add(label)
                return client, label
        return None

    async def _upstream(
        self,
        chain: tuple[ProviderClient, ...],
        prompt: str,
        *,
        temperature: float | None,
        top_p: float | None,
        key: str,
        deadline: float | None = None,
        info: dict | None = None,
    ) -> LlmResponse:
        """Failover-chain upstream: breaker-gated candidates, hedging."""
        plan = runtime.current().fault_plan
        primary_label = provider_label(chain[0])
        used: set[str] = set()

        first = self._next_candidate(chain, used)
        if first is None:
            hint = max(
                0.05,
                min(
                    self.breaker(provider_label(c)).retry_after()
                    for c in chain
                ),
            )
            raise AllProvidersUnavailable(
                f"all {len(chain)} provider breakers are open for "
                f"{chain[0].name!r}",
                retry_after=hint,
            )
        client, label = first
        if label != primary_label:
            self.stats._bump("failed_over")

        def launch(c: ProviderClient, lbl: str) -> asyncio.Task:
            return asyncio.get_running_loop().create_task(
                self._call_one(
                    c, lbl, prompt, temperature, top_p, key, deadline, plan
                )
            )

        # Fast path: a lone provider has nothing to hedge to or fail over
        # to — skip the task machinery (and its overhead) entirely.
        if len(chain) == 1:
            response = await self._call_one(
                client, label, prompt, temperature, top_p, key, deadline,
                plan,
            )
            if info is not None:
                info["served_by"] = label
            return response

        tasks: dict[asyncio.Task, str] = {launch(client, label): label}
        hedge_spent = False
        timer: asyncio.Task | None = None
        last_error: BaseException | None = None
        try:
            while True:
                if (
                    timer is None
                    and not hedge_spent
                    and self.hedge_policy is not None
                    and len(tasks) == 1
                ):
                    delay = self.latency.hedge_delay(self.hedge_policy)
                    timer = asyncio.get_running_loop().create_task(
                        self._sleep(delay)
                    )
                wait_for = set(tasks) | ({timer} if timer is not None else set())
                done, _ = await asyncio.wait(
                    wait_for, return_when=asyncio.FIRST_COMPLETED
                )
                finished = [t for t in done if t in tasks]
                if not finished:
                    # The hedge timer matured with the call still running:
                    # launch a backup on the next healthy provider and race
                    # them — first success wins, the loser is cancelled.
                    timer = None
                    hedge_spent = True
                    candidate = self._next_candidate(chain, used)
                    if candidate is not None:
                        h_client, h_label = candidate
                        self.stats._bump("hedged")
                        if info is not None:
                            info["hedged"] = True
                        tasks[launch(h_client, h_label)] = h_label
                    continue
                for task in finished:
                    task_label = tasks.pop(task)
                    error = task.exception()
                    if error is None:
                        if info is not None:
                            info["served_by"] = task_label
                        return task.result()
                    if isinstance(error, DeadlineExceeded):
                        raise error  # no budget left to fail over with
                    last_error = error
                if not tasks:
                    candidate = self._next_candidate(chain, used)
                    if candidate is None:
                        assert last_error is not None
                        raise last_error
                    n_client, n_label = candidate
                    self.stats._bump("failed_over")
                    tasks[launch(n_client, n_label)] = n_label
        finally:
            if timer is not None and not timer.done():
                timer.cancel()
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    # -- batched evaluation --------------------------------------------------
    async def run(
        self,
        provider: ProviderChain,
        items: Sequence[tuple[str, str, object]],
        *,
        temperature: float | None = None,
        top_p: float | None = None,
    ):
        """Evaluate ``items`` of (item_id, prompt, truth) concurrently.

        The async counterpart of :meth:`EvalEngine.run`: identical
        records in identical order, usage metered in item order — the
        returned :class:`~repro.eval.runner.RunResult` and the store
        contents are byte-identical to the sync engine's for the same
        grid, whatever ``max_concurrency`` (and, because every chain
        member serves the same model config, whichever member answers).
        """
        chain = self._as_chain(provider)
        items = list(items)
        if not items:
            raise ValueError("no items to run")

        gate = asyncio.Semaphore(self.max_concurrency)

        async def bounded(prompt: str) -> LlmResponse:
            async with gate:
                return await self.complete(
                    chain, prompt, temperature=temperature, top_p=top_p
                )

        with self._batched():
            responses = await asyncio.gather(
                *(bounded(prompt) for _, prompt, _ in items)
            )
        return _assemble(chain[0], items, responses)
