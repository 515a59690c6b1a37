"""Serving-side resilience: breakers, failover, hedging, shedding, drain.

Everything timing-dependent runs on injected clocks and sleeps (virtual
time), so breaker cooldowns and hedge delays are asserted exactly, never
awaited. The handful of real-time tests (hedge race, drain, shutdown)
are bounded well under a second.
"""

from __future__ import annotations

import asyncio
import http.client
import importlib.util
import json
import math
import os
import signal
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro import runtime
from repro.eval.engine import DiskResponseStore, EvalEngine, cache_key
from repro.eval.rq23 import classification_items
from repro.llm.registry import get_model
from repro.serve import (
    AllProvidersUnavailable,
    AsyncEvalEngine,
    BreakerPolicy,
    CircuitBreaker,
    HedgePolicy,
    LatencyTracker,
    LoadShedError,
    PredictionServer,
    PredictionService,
    RateLimiter,
    RetryPolicy,
    provider_label,
    resolve_provider,
)
from repro.serve.resilience import CLOSED, HALF_OPEN, OPEN
from repro.util.faults import FaultPlan, InjectedFault
from repro.util.retry import DeadlineExceeded, TransientError
from repro.util.retry import call_with_retry as util_call_with_retry

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class StubProvider:
    """A labelled zoo-backed provider double for failover-chain tests.

    Real chain members share ``name`` (the model) and differ by
    ``family`` — the stub mirrors that so ``provider_label`` tells
    instances apart while cache keys stay shared.
    """

    def __init__(self, family: str, model_name: str = "gpt-4o-mini"):
        self.family = family
        self.model = get_model(model_name)
        self.config = self.model.config
        self.calls = 0

    @property
    def name(self) -> str:
        return self.model.name

    async def complete(self, prompt, *, temperature=None, top_p=None):
        self.calls += 1
        return self.model.complete(prompt, temperature=temperature, top_p=top_p)


class GatedStub(StubProvider):
    """Holds every completion until the gate opens."""

    def __init__(self, family: str, model_name: str = "gpt-4o-mini"):
        super().__init__(family, model_name)
        self.gate = asyncio.Event()

    async def complete(self, prompt, *, temperature=None, top_p=None):
        self.calls += 1
        await self.gate.wait()
        return self.model.complete(prompt, temperature=temperature, top_p=top_p)


def _recording_sleep(log):
    async def sleep(delay):
        log.append(delay)

    return sleep


@pytest.fixture()
def fault_plan():
    """Install a fault plan for the duration of one test."""
    installed = []

    def install(spec: str) -> FaultPlan:
        plan = FaultPlan.parse(spec)
        runtime.install(fault_plan=plan)
        installed.append(plan)
        return plan

    yield install
    if installed:
        runtime.reset()


# -- circuit breaker (virtual clock) -----------------------------------------

def test_breaker_opens_at_threshold_and_blocks():
    now = {"t": 0.0}
    policy = BreakerPolicy(window=8, threshold=0.5, min_calls=4, cooldown_s=5.0)
    breaker = CircuitBreaker(policy, clock=lambda: now["t"])
    assert breaker.state == CLOSED and breaker.allow()
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED  # 3 < min_calls: not enough evidence
    breaker.record_failure()
    assert breaker.state == OPEN and breaker.opened == 1
    assert not breaker.allow()
    assert breaker.retry_after() == pytest.approx(5.0)
    now["t"] = 3.0
    assert not breaker.allow()
    assert breaker.retry_after() == pytest.approx(2.0)


def test_breaker_mixed_window_respects_threshold():
    breaker = CircuitBreaker(
        BreakerPolicy(window=8, threshold=0.5, min_calls=4), clock=lambda: 0.0
    )
    for _ in range(3):
        breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED          # 2/5 failures: under threshold
    assert breaker.error_rate() == pytest.approx(0.4)
    breaker.record_failure()                # 3/6 = exactly the threshold
    assert breaker.state == OPEN and breaker.opened == 1


def test_breaker_half_open_probe_success_closes():
    now = {"t": 0.0}
    breaker = CircuitBreaker(
        BreakerPolicy(window=4, threshold=0.5, min_calls=2, cooldown_s=5.0,
                      half_open_probes=1),
        clock=lambda: now["t"],
    )
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == OPEN
    now["t"] = 5.0
    assert breaker.state == HALF_OPEN
    assert breaker.allow()          # the one probe slot
    assert not breaker.allow()      # no second concurrent probe
    breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.error_rate() == 0.0  # window cleared on recovery
    assert breaker.allow()


def test_breaker_half_open_probe_failure_reopens():
    now = {"t": 0.0}
    breaker = CircuitBreaker(
        BreakerPolicy(window=4, threshold=0.5, min_calls=2, cooldown_s=5.0),
        clock=lambda: now["t"],
    )
    breaker.record_failure()
    breaker.record_failure()
    now["t"] = 6.0
    assert breaker.allow()          # half-open probe
    breaker.record_failure()
    assert breaker.state == OPEN and breaker.opened == 2
    assert breaker.retry_after() == pytest.approx(5.0)  # fresh cooldown
    snap = breaker.snapshot()
    assert snap["state"] == OPEN and snap["opened"] == 2


def test_breaker_policy_validation():
    with pytest.raises(ValueError):
        BreakerPolicy(window=0)
    with pytest.raises(ValueError):
        BreakerPolicy(threshold=0.0)
    with pytest.raises(ValueError):
        BreakerPolicy(threshold=1.5)
    with pytest.raises(ValueError):
        BreakerPolicy(cooldown_s=0)
    with pytest.raises(ValueError):
        BreakerPolicy(half_open_probes=0)


def test_breaker_policy_rejects_a_window_no_breaker_can_hold():
    CircuitBreaker(BreakerPolicy(window=sys.maxsize))
    with pytest.raises(ValueError, match=f"window must be <= {sys.maxsize}"):
        BreakerPolicy(window=sys.maxsize + 1)


# -- latency tracker + hedge policy ------------------------------------------

def test_hedge_delay_floors_until_samples_then_tracks_p95():
    tracker = LatencyTracker()
    policy = HedgePolicy(min_delay_s=0.05, min_samples=8, quantile=0.95)
    assert tracker.hedge_delay(policy) == 0.05
    for ms in range(1, 101):        # 0.01s .. 1.00s
        tracker.record(ms / 100.0)
    assert tracker.quantile(0.95) == pytest.approx(0.96)
    assert tracker.hedge_delay(policy) == pytest.approx(0.96)
    fixed = HedgePolicy(delay_s=0.2)
    assert tracker.hedge_delay(fixed) == 0.2


def test_hedge_policy_validation():
    with pytest.raises(ValueError):
        HedgePolicy(delay_s=-1.0)
    with pytest.raises(ValueError):
        HedgePolicy(quantile=1.0)
    with pytest.raises(ValueError):
        HedgePolicy(min_delay_s=-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_policies_reject_non_finite_values(value):
    with pytest.raises(ValueError, match="must be finite"):
        HedgePolicy(delay_s=value)
    with pytest.raises(ValueError, match="must be finite"):
        HedgePolicy(min_delay_s=value)
    with pytest.raises(ValueError, match="must be finite"):
        BreakerPolicy(cooldown_s=value)


def test_rate_limiter_rejects_nan_and_keeps_its_off_switch():
    with pytest.raises(ValueError, match="rate must be a number"):
        RateLimiter(math.nan)
    for off in (0, -1.0, math.inf):
        assert RateLimiter(off).rate is None


# -- fault plan: serving kinds and the one completion hook -------------------

def test_provider_fault_spec_roundtrip():
    plan = FaultPlan.parse(
        "seed=9;provider_brownout:attempts=6,after=2,provider=pri:m;"
        "slow_tail:rate=0.5,ms=250"
    )
    again = FaultPlan.parse(plan.describe())
    assert again.specs == plan.specs and again.seed == plan.seed
    assert plan.specs[0].provider == "pri:m"
    assert plan.specs[1].ms == 250.0


def test_slow_tail_requires_ms():
    with pytest.raises(ValueError):
        FaultPlan.parse("slow_tail:rate=0.5")


def test_provider_brownout_window_is_a_counter():
    plan = FaultPlan.parse(
        "seed=1;provider_brownout:attempts=3,after=2,provider=pri:m"
    )
    outcomes = []
    for _ in range(8):
        try:
            plan.completion_fault("tok", 0, "pri:m")
            outcomes.append("ok")
        except InjectedFault:
            outcomes.append("fail")
    # Attempts 3..5 (the (after, after+attempts] window) fail, the rest
    # pass — sustained unavailability that then lifts.
    assert outcomes == ["ok", "ok", "fail", "fail", "fail", "ok", "ok", "ok"]


def test_provider_fault_targets_only_its_label():
    plan = FaultPlan.parse(
        "seed=1;provider_brownout:attempts=99,provider=pri:m"
    )
    for _ in range(5):
        plan.completion_fault("tok", 0, "bak:m")   # other label: untouched
    with pytest.raises(InjectedFault):
        plan.completion_fault("tok", 0, "pri:m")
    # ...and provider-targeted specs never fire on the batch path.
    plan2 = FaultPlan.parse("seed=1;provider_error:rate=1,provider=pri:m")
    plan2.completion_fault("tok", 0)  # no raise


@pytest.fixture()
def kills(monkeypatch):
    """Signals the fault plan sends itself, with ``os.kill`` patched out."""
    sent = []
    monkeypatch.setattr(os, "kill", lambda _pid, sig: sent.append(sig))
    return sent


def test_batch_hook_counts_worker_death_before_any_fault(kills):
    plan = FaultPlan.parse("seed=1;provider_error:rate=1;worker_death:after=1")
    with pytest.raises(InjectedFault):
        plan.completion_fault("tok", 0)
    assert kills == [signal.SIGKILL]


def test_serve_hook_never_kills(kills):
    plan = FaultPlan.parse(
        "seed=1;worker_death:after=1;provider_error:rate=1,attempts=3"
    )
    for attempt in range(3):
        with pytest.raises(InjectedFault):
            plan.completion_fault("tok", attempt, "pri:m")
    assert kills == []


def test_bare_brownout_never_fires_on_the_batch_path(kills):
    plan = FaultPlan.parse("seed=1;provider_brownout:attempts=99")
    for attempt in range(5):
        plan.completion_fault("tok", attempt)  # no raise
    with pytest.raises(InjectedFault):
        plan.completion_fault("tok", 0, "pri:m")
    assert kills == []


def test_async_engines_back_off_by_key_and_attempt():
    """Two engines retrying one faulty key, interleaved on one loop, sleep
    the same delays: the policy's schedule for that cache key."""
    runtime.install(
        fault_plan=FaultPlan.parse("seed=3;provider_error:rate=1,attempts=2")
    )
    policy = RetryPolicy(max_attempts=3, base_delay_s=0.05)
    provider = StubProvider("pri")
    sleeps: tuple[list, list] = ([], [])

    def recording(log):
        async def sleep(delay):
            log.append(delay)
            await asyncio.sleep(0)  # let the other engine run in between

        return sleep

    engines = [
        AsyncEvalEngine(retry=policy, sleep=recording(log), hedge=None)
        for log in sleeps
    ]

    async def both():
        await asyncio.gather(*(e.complete(provider, "p") for e in engines))

    asyncio.run(both())
    key = cache_key(provider.config, "p", None, None)
    expected = [policy.backoff_delay(attempt, key) for attempt in range(2)]
    assert sleeps[0] == sleeps[1] == expected
    assert expected != [0.05, 0.1]  # jittered, not the bare schedule


def test_slow_tail_delay_is_deterministic():
    plan = FaultPlan.parse("seed=7;slow_tail:rate=0.5,ms=300")
    picks = {tok: plan.slow_tail_delay("pri:m", tok)
             for tok in (f"tok-{i}" for i in range(64))}
    again = {tok: plan.slow_tail_delay("pri:m", tok) for tok in picks}
    assert picks == again
    delayed = [v for v in picks.values() if v is not None]
    assert delayed and len(delayed) < len(picks)   # some, not all
    assert all(v == pytest.approx(0.3) for v in delayed)


# -- deadline propagation ----------------------------------------------------

def test_deadline_expired_before_attempt():
    async def fn(_attempt):
        raise AssertionError("attempt must not start with no budget")

    async def go():
        with pytest.raises(DeadlineExceeded):
            await util_call_with_retry(
                fn, policy=RetryPolicy(max_attempts=3),
                deadline=5.0, clock=lambda: 10.0,
            )

    asyncio.run(go())


def test_deadline_blocks_pointless_backoff():
    calls = {"n": 0}
    slept = []

    async def fn(_attempt):
        calls["n"] += 1
        raise TransientError("boom")

    async def go():
        with pytest.raises(DeadlineExceeded) as err:
            await util_call_with_retry(
                fn,
                policy=RetryPolicy(max_attempts=5, base_delay_s=2.0,
                                   jitter=0.0),
                deadline=1.0,
                clock=lambda: 0.0,
                sleep=_recording_sleep(slept),
            )
        assert isinstance(err.value.__cause__, TransientError)

    asyncio.run(go())
    assert calls["n"] == 1 and slept == []  # 2s backoff ≥ 1s budget: abort


def test_deadline_clips_attempt_timeout_real_time():
    async def fn(_attempt):
        await asyncio.sleep(60)

    async def go():
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            await util_call_with_retry(
                fn,
                policy=RetryPolicy(max_attempts=3, base_delay_s=10.0,
                                   jitter=0.0),
                deadline=time.monotonic() + 0.15,
            )
        return time.monotonic() - start

    assert asyncio.run(go()) < 5.0


# -- failover chains ---------------------------------------------------------

def test_resolve_provider_builds_chain_with_distinct_labels():
    chain = resolve_provider("o3-mini-high", fallbacks=("wire",))
    assert isinstance(chain, tuple) and len(chain) == 2
    assert [provider_label(c) for c in chain] == [
        "emulated:o3-mini-high", "openai:o3-mini-high",
    ]
    assert chain[0].config is chain[1].config or (
        chain[0].config == chain[1].config
    )
    with pytest.raises(ValueError):
        resolve_provider("o3-mini-high", fallbacks=("emulated",))


def test_service_parses_family_chain():
    engine = AsyncEvalEngine(store=None)
    service = PredictionService(engine, provider_family="emulated, wire")
    chain = service.provider("o3-mini-high")
    assert isinstance(chain, tuple)
    assert [provider_label(c) for c in chain] == [
        "emulated:o3-mini-high", "openai:o3-mini-high",
    ]


def test_failover_on_retry_exhaustion(fault_plan):
    fault_plan("seed=1;provider_brownout:attempts=99,provider=pri:gpt-4o-mini")
    slept = []
    pri, bak = StubProvider("pri"), StubProvider("bak")
    engine = AsyncEvalEngine(
        store=None,
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.01, jitter=0.0),
        sleep=_recording_sleep(slept),
    )
    info: dict = {}
    response = asyncio.run(engine.complete((pri, bak), "classify k", info=info))
    assert response is not None
    assert info["served_by"] == "bak:gpt-4o-mini"
    assert engine.stats.failed_over == 1
    assert engine.stats.retries == 1           # one backoff on the primary
    assert pri.calls == 0                      # faults fired pre-complete
    assert bak.calls == 1
    assert engine.breaker("pri:gpt-4o-mini").error_rate() == 1.0


def test_open_primary_breaker_skips_straight_to_fallback():
    pri, bak = StubProvider("pri"), StubProvider("bak")
    engine = AsyncEvalEngine(store=None, clock=lambda: 0.0)
    for _ in range(4):
        engine.breaker("pri:gpt-4o-mini").record_failure()
    assert engine.breaker("pri:gpt-4o-mini").state == OPEN
    info: dict = {}
    asyncio.run(engine.complete((pri, bak), "classify k", info=info))
    assert info["served_by"] == "bak:gpt-4o-mini"
    assert pri.calls == 0 and bak.calls == 1
    assert engine.stats.failed_over == 1


def test_all_breakers_open_raises_with_retry_after():
    pri, bak = StubProvider("pri"), StubProvider("bak")
    engine = AsyncEvalEngine(store=None, clock=lambda: 0.0)
    for label in ("pri:gpt-4o-mini", "bak:gpt-4o-mini"):
        for _ in range(4):
            engine.breaker(label).record_failure()
    with pytest.raises(AllProvidersUnavailable) as err:
        asyncio.run(engine.complete((pri, bak), "classify k"))
    assert err.value.retry_after == pytest.approx(5.0)
    assert engine.stats.failed_over == 0


def test_deadline_exceeded_does_not_fail_over():
    pri, bak = StubProvider("pri"), StubProvider("bak")
    engine = AsyncEvalEngine(store=None)
    with pytest.raises(DeadlineExceeded):
        asyncio.run(engine.complete((pri, bak), "classify k", deadline=0.0))
    assert pri.calls == 0 and bak.calls == 0
    # No provider got blamed for the caller's empty budget.
    assert engine.breaker("pri:gpt-4o-mini").error_rate() == 0.0


# -- hedged requests ---------------------------------------------------------

def test_hedge_winner_is_deterministic_under_slow_tail(fault_plan):
    fault_plan("seed=3;slow_tail:rate=1,ms=30000,provider=pri:gpt-4o-mini")
    for _ in range(2):                          # replay: same winner
        pri, bak = StubProvider("pri"), StubProvider("bak")
        engine = AsyncEvalEngine(
            store=None, hedge=HedgePolicy(delay_s=0.01)
        )
        info: dict = {}
        response = asyncio.run(
            engine.complete((pri, bak), "classify k", info=info)
        )
        assert response is not None
        assert info["served_by"] == "bak:gpt-4o-mini"
        assert info["hedged"] is True
        assert engine.stats.hedged == 1
        assert engine.stats.failed_over == 0


def test_no_hedge_disables_backup_requests(fault_plan):
    fault_plan("seed=3;slow_tail:rate=1,ms=0.1,provider=pri:gpt-4o-mini")
    pri, bak = StubProvider("pri"), StubProvider("bak")
    engine = AsyncEvalEngine(store=None, hedge=None)
    info: dict = {}
    asyncio.run(engine.complete((pri, bak), "classify k", info=info))
    assert info["served_by"] == "pri:gpt-4o-mini"
    assert engine.stats.hedged == 0 and bak.calls == 0


def test_hedges_share_the_coalesced_flight():
    """A hedge runs inside the owner's future — concurrent duplicates
    join it, they never launch their own hedged pair."""
    pri, bak = GatedStub("pri"), StubProvider("bak")

    async def go():
        engine = AsyncEvalEngine(
            store=None, hedge=HedgePolicy(delay_s=0.01)
        )
        first = asyncio.create_task(engine.complete((pri, bak), "classify k"))
        await asyncio.sleep(0.1)
        return engine, await first

    engine, response = asyncio.run(go())
    assert response is not None
    assert engine.stats.hedged == 1
    assert bak.calls == 1
    assert pri.calls == 1        # launched, then cancelled by the winner


# -- the chaos burst (acceptance) --------------------------------------------

def test_chaos_burst_fails_over_and_recovers_with_exact_counters(fault_plan):
    """100-request burst against a browned-out primary: every request
    answers, the primary's breaker opens after exactly the brownout's
    evidence window and re-closes after cooldown, and every counter is
    exact — deterministic fault selection, virtual clock, no hedging."""
    fault_plan(
        "seed=1;provider_brownout:attempts=4,provider=pri:gpt-4o-mini"
    )
    now = {"t": 0.0}
    slept = []
    pri, bak = StubProvider("pri"), StubProvider("bak")
    engine = AsyncEvalEngine(
        store=None,
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.01, jitter=0.0),
        sleep=_recording_sleep(slept),
        clock=lambda: now["t"],
        breaker=BreakerPolicy(window=8, threshold=0.5, min_calls=4,
                              cooldown_s=5.0),
        hedge=None,
    )
    chain = (pri, bak)
    served_by = []

    async def one(i: int) -> None:
        info: dict = {}
        response = await engine.complete(chain, f"classify kernel {i}",
                                         info=info)
        assert response is not None
        served_by.append(info["served_by"])

    async def burst():
        # Sequential on purpose: the brownout window is a counter, so
        # ordering fixes exactly which attempts it eats.
        for i in range(50):
            await one(i)
        now["t"] = 6.0          # past the 5s cooldown: half-open probes
        for i in range(50, 100):
            await one(i)

    asyncio.run(burst())

    assert len(served_by) == 100                     # 100% answered
    # Requests 1-2 exhaust the primary's 2-attempt retry budget against
    # the 4-attempt brownout window (4 breaker failures → open), then
    # 3-50 skip the open breaker; after the cooldown the half-open probe
    # succeeds and the primary serves the rest.
    assert served_by[:50] == ["bak:gpt-4o-mini"] * 50
    assert served_by[50:] == ["pri:gpt-4o-mini"] * 50
    assert engine.stats.failed_over == 50
    assert engine.stats.retries == 2                 # one backoff per req 1-2
    assert engine.stats.hedged == 0
    assert engine.stats.shed == 0
    assert engine.stats.uncached == 100
    assert slept == [0.01, 0.01]
    pri_snap = engine.breaker("pri:gpt-4o-mini").snapshot()
    assert pri_snap["state"] == CLOSED and pri_snap["opened"] == 1
    bak_snap = engine.breaker("bak:gpt-4o-mini").snapshot()
    assert bak_snap["state"] == CLOSED and bak_snap["opened"] == 0
    assert pri.calls == 50 and bak.calls == 50
    snaps = engine.breaker_snapshots()
    assert set(snaps) == {"pri:gpt-4o-mini", "bak:gpt-4o-mini"}


# -- warm-store byte identity ------------------------------------------------

def _dir_bytes(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_warm_store_bytes_identical_under_resilient_chain(
    tmp_path, balanced_samples
):
    """The resilience layer must not perturb the cache contract: serving
    a warm store through a failover chain with hedging enabled makes 0
    completions and leaves every cache byte untouched."""
    samples = balanced_samples[:6]
    items = classification_items(samples, variant="zero-shot")
    store = DiskResponseStore(tmp_path / "cache")
    model = get_model("o3-mini-high")
    batch = EvalEngine(store=store).run(model, items)
    before = _dir_bytes(tmp_path / "cache")

    chain = resolve_provider("o3-mini-high", fallbacks=("wire",))
    engine = AsyncEvalEngine(
        store=DiskResponseStore(tmp_path / "cache"),
        hedge=HedgePolicy(delay_s=0.0),      # hedge eagerly: still inert
    )
    result = asyncio.run(engine.run(chain, items))

    assert result.digest() == batch.digest()
    assert engine.stats.completions == 0
    assert engine.stats.hits == len(items)
    assert engine.stats.hedged == 0          # hits never reach upstream
    assert _dir_bytes(tmp_path / "cache") == before


# -- engine shutdown ---------------------------------------------------------

def test_cancel_inflight_wakes_owner_and_waiters():
    pri = GatedStub("pri")

    async def go():
        engine = AsyncEvalEngine(store=None)
        # store=None has no inflight table; use a memory store for keys.
        from repro.eval.engine import MemoryResponseStore

        engine = AsyncEvalEngine(store=MemoryResponseStore())
        owner = asyncio.create_task(engine.complete(pri, "classify k"))
        await asyncio.sleep(0)              # let it claim the key
        waiter = asyncio.create_task(engine.complete(pri, "classify k"))
        await asyncio.sleep(0)
        cancelled = await engine.cancel_inflight()
        assert cancelled == 1
        with pytest.raises(asyncio.CancelledError):
            await waiter
        owner.cancel()
        with pytest.raises(asyncio.CancelledError):
            await owner

    asyncio.run(go())


# -- the HTTP layer ----------------------------------------------------------

def _get_json(url: str, headers: dict | None = None):
    req = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


@pytest.fixture()
def resilient_serving(tmp_path, balanced_samples):
    """A running server (failover chain, tiny queue) over a warm cache."""
    samples = balanced_samples[:3]
    store = DiskResponseStore(tmp_path / "serve-cache")
    model = get_model("o3-mini-high")
    EvalEngine(store=store).run(
        model, classification_items(samples, variant="zero-shot")
    )
    engine = AsyncEvalEngine(store=store)
    service = PredictionService(
        engine, provider_family="emulated,wire", queue_budget=2
    )
    server = PredictionServer(service, port=0).start()
    try:
        yield server, engine, service, samples
    finally:
        server.close()


def test_http_stats_surface_resilience_fields(resilient_serving):
    server, _, _, samples = resilient_serving
    status, body = _get_json(
        f"{server.url}/v1/classify?uid={samples[0].uid}&model=o3-mini-high"
    )
    assert status == 200
    assert body["served_by"] == "cache" and body["hedged"] is False
    status, stats = _get_json(f"{server.url}/v1/stats")
    assert status == 200
    for key in ("failed_over", "hedged", "shed", "queue_depth",
                "queue_budget", "breakers", "draining"):
        assert key in stats
    assert stats["queue_budget"] == 2 and stats["draining"] is False


@pytest.mark.parametrize("non_finite", ["nan", "inf", "-inf"])
def test_http_deadline_header(resilient_serving, non_finite):
    server, engine, _, samples = resilient_serving

    def failed(query: str, deadline: str) -> urllib.error.HTTPError:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get_json(f"{server.url}/v1/classify?{query}",
                      headers={"X-Deadline-Ms": deadline})
        err.value.close()
        return err.value

    # Malformed deadlines: 400 before any work. A non-finite one must not
    # reach the engine: `nan <= 0` is false, and a nan budget times out
    # every attempt, opening the provider breaker for every caller.
    cold = f"uid={samples[0].uid}&variant=few-shot-2"
    for deadline in ("soon", "-5", non_finite):
        assert failed(cold, deadline).code == 400
    assert engine.stats.total == 0
    # A cold query whose budget is gone before the first attempt: shed
    # with 429 + Retry-After, and nothing reached a provider.
    shed = failed(cold, "0.000001")
    assert shed.code == 429
    assert float(shed.headers["Retry-After"]) > 0
    assert engine.stats.shed == 1
    assert engine.stats.completions == 0
    # Warm and cold queries after all that still answer 200, and the
    # provider breakers are closed.
    status, body = _get_json(f"{server.url}/v1/classify?uid={samples[0].uid}")
    assert status == 200 and body["cached"] is True
    status, body = _get_json(
        f"{server.url}/v1/classify?uid={samples[1].uid}&variant=few-shot-2",
        headers={"X-Deadline-Ms": "60000"},
    )
    assert status == 200 and body["cached"] is False
    breakers = _get_json(f"{server.url}/v1/stats")[1]["breakers"]
    assert breakers
    assert {b["state"] for b in breakers.values()} == {CLOSED}


def test_http_queue_budget_sheds_with_retry_after(tmp_path, balanced_samples):
    samples = balanced_samples[:2]
    store = DiskResponseStore(tmp_path / "cold-cache")   # empty: all cold
    gated = GatedStub("pri", "o3-mini-high")
    engine = AsyncEvalEngine(store=store)
    service = PredictionService(engine, queue_budget=1)
    service._providers["o3-mini-high"] = gated           # inject the double
    server = PredictionServer(service, port=0).start()
    try:
        results: dict = {}

        def first():
            try:
                results["first"] = _get_json(
                    f"{server.url}/v1/classify?uid={samples[0].uid}"
                )
            except Exception as exc:  # pragma: no cover - surfaced below
                results["first"] = exc

        t = threading.Thread(target=first, daemon=True)
        t.start()
        deadline = time.monotonic() + 5.0
        while gated.calls < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gated.calls >= 1, "first request never reached the provider"

        with pytest.raises(urllib.error.HTTPError) as err:
            _get_json(f"{server.url}/v1/classify?uid={samples[1].uid}")
        assert err.value.code == 429
        assert float(err.value.headers["Retry-After"]) > 0
        body = json.loads(err.value.read().decode("utf-8"))
        assert "budget" in body["error"]
        assert engine.stats.shed == 1

        server.loop.call_soon_threadsafe(gated.gate.set)
        t.join(timeout=10.0)
        status, body = results["first"]
        assert status == 200 and body["cached"] is False
    finally:
        server.close()


def test_http_timeout_cancels_the_abandoned_classify(
    tmp_path, balanced_samples
):
    """A 504 cancels its classify: the admission slot and in-flight key
    come back, so a wedged provider cannot make the server shed every
    later request with 429."""
    samples = balanced_samples[:2]
    store = DiskResponseStore(tmp_path / "cold-cache")   # empty: all cold
    gated = GatedStub("pri", "o3-mini-high")
    engine = AsyncEvalEngine(store=store)
    service = PredictionService(engine, queue_budget=1)
    service._providers["o3-mini-high"] = gated           # inject the double
    service.warm()  # the 0.2 s budget is for the provider, not the index
    server = PredictionServer(service, port=0, request_timeout_s=0.2).start()

    def queue_depth_drains() -> bool:
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if _get_json(f"{server.url}/v1/stats")[1]["queue_depth"] == 0:
                return True
            time.sleep(0.01)
        return False

    def failed_status(uid: str) -> int:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get_json(f"{server.url}/v1/classify?uid={uid}")
        err.value.close()
        return err.value.code

    try:
        assert failed_status(samples[0].uid) == 504 and gated.calls == 1
        assert queue_depth_drains()

        # A different uid is admitted (it reaches the still-wedged
        # provider and times out too), not shed.
        assert failed_status(samples[1].uid) == 504
        assert gated.calls == 2 and engine.stats.shed == 0
        assert queue_depth_drains()

        # The first key is no longer in flight: asking again reaches
        # the provider instead of joining the abandoned call.
        assert failed_status(samples[0].uid) == 504
        assert gated.calls == 3 and engine.stats.coalesced == 0
        assert queue_depth_drains()
    finally:
        server.close()


def test_http_malformed_bodies_return_400(resilient_serving):
    server, _, _, _ = resilient_serving
    host, port = "127.0.0.1", server.port

    def raw_post(body: bytes | None, content_length: str | None):
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.putrequest("POST", "/v1/classify")
            if content_length is not None:
                conn.putheader("Content-Length", content_length)
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            if body:
                conn.send(body)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read().decode("utf-8"))
        finally:
            conn.close()

    # Invalid JSON body.
    bad = b"not json at all"
    status, body = raw_post(bad, str(len(bad)))
    assert status == 400 and "JSON" in body["error"]
    # Valid JSON, wrong shape.
    arr = b"[1, 2, 3]"
    status, body = raw_post(arr, str(len(arr)))
    assert status == 400 and "object" in body["error"]
    # Content-Length that isn't an integer: 400, not a 500 traceback.
    status, body = raw_post(None, "banana")
    assert status == 400 and "Content-Length" in body["error"]
    # Negative Content-Length.
    status, body = raw_post(None, "-7")
    assert status == 400 and "Content-Length" in body["error"]
    # No Content-Length at all: treated as an empty body → missing uid.
    status, body = raw_post(None, None)
    assert status == 400 and "uid" in body["error"]


def test_http_drain_flips_health_and_sheds_work(resilient_serving):
    server, _, _, samples = resilient_serving
    server.draining.set()
    with pytest.raises(urllib.error.HTTPError) as err:
        _get_json(f"{server.url}/healthz")
    with err.value:
        assert err.value.code == 503
        assert json.loads(err.value.read().decode())["status"] == "draining"
    with pytest.raises(urllib.error.HTTPError) as err:
        _get_json(f"{server.url}/v1/classify?uid={samples[0].uid}")
    with err.value:
        assert err.value.code == 503
        assert err.value.headers["Retry-After"] is not None
    status, stats = _get_json(f"{server.url}/v1/stats")
    assert status == 200 and stats["draining"] is True
    assert server.drain(timeout=2.0) is True     # nothing in flight: clean


def test_http_close_with_inflight_does_not_hang(tmp_path, balanced_samples):
    """The shutdown satellite: close() cancels pending coalesced futures
    on the loop, so a request parked behind a never-finishing provider
    cannot wedge shutdown."""
    samples = balanced_samples[:1]
    store = DiskResponseStore(tmp_path / "cold-cache")
    gated = GatedStub("pri", "o3-mini-high")
    engine = AsyncEvalEngine(store=store)
    service = PredictionService(engine)
    service._providers["o3-mini-high"] = gated
    server = PredictionServer(service, port=0).start()
    outcome: dict = {}

    def stuck():
        try:
            outcome["result"] = _get_json(
                f"{server.url}/v1/classify?uid={samples[0].uid}"
            )
        except Exception as exc:
            outcome["result"] = exc

    t = threading.Thread(target=stuck, daemon=True)
    t.start()
    deadline = time.monotonic() + 5.0
    while gated.calls < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert gated.calls >= 1

    start = time.monotonic()
    server.close()
    assert time.monotonic() - start < 10.0
    t.join(timeout=10.0)
    assert not t.is_alive()
    # The stranded request surfaced an error, not a hang.
    error = outcome.get("result")
    assert isinstance(error, Exception)
    if isinstance(error, urllib.error.HTTPError):
        with error:
            assert error.code == 503


# -- the example client honors Retry-After -----------------------------------

def _load_example_client():
    spec = importlib.util.spec_from_file_location(
        "serve_predictions_example", EXAMPLES / "serve_predictions.py"
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


def test_example_client_waits_out_retry_after():
    client = _load_example_client()
    calls = {"n": 0}

    class ShedOnce(BaseHTTPRequestHandler):
        def log_message(self, *args):  # noqa: A002
            pass

        def do_GET(self):  # noqa: N802
            calls["n"] += 1
            if calls["n"] == 1:
                body = b'{"error": "shed"}'
                self.send_response(429)
                self.send_header("Retry-After", "0.125")
            else:
                body = b'{"ok": true}'
                self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    stub = ThreadingHTTPServer(("127.0.0.1", 0), ShedOnce)
    thread = threading.Thread(target=stub.serve_forever, daemon=True)
    thread.start()
    try:
        slept: list[float] = []
        url = f"http://127.0.0.1:{stub.server_address[1]}/v1/stats"
        out = client.get(url, _sleep=slept.append)
        assert out == {"ok": True}
        assert slept == [0.125]              # waited exactly the hint
        assert calls["n"] == 2
    finally:
        stub.shutdown()
        stub.server_close()


def test_serve_stats_summary_mentions_resilience_counters():
    engine = AsyncEvalEngine(store=None)
    engine.stats._bump("failed_over")
    engine.stats._bump("hedged")
    engine.stats._bump("shed")
    text = engine.stats.summary()
    assert "1 failed over" in text and "1 hedged" in text and "1 shed" in text
