"""The async serving layer: adapters, retry/backoff, coalescing, HTTP.

No event-loop plugin is assumed: async scenarios run under
``asyncio.run`` inside plain test functions, with injected RNGs, sleeps,
and clocks so every timing-dependent behaviour is deterministic and the
suite never actually waits out a backoff schedule.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import random
import re
import socket
import struct
import threading
import urllib.error
import urllib.request
from http import HTTPStatus

import pytest

from repro.eval.engine import (
    DiskResponseStore,
    EvalEngine,
    MemoryResponseStore,
    cache_key,
)
from repro.eval.rq23 import classification_items, regime_variant, run_rq3
from repro.llm.base import LlmResponse
from repro.llm.pricing import Usage
from repro.llm.registry import get_model
from repro.serve import (
    AsyncEvalEngine,
    PredictionServer,
    PredictionService,
    ProviderNotConfigured,
    ProviderTimeout,
    RateLimiter,
    RateLimitError,
    RetryPolicy,
    TransientProviderError,
    emulated_transport,
    provider_family,
    resolve_provider,
)
from repro.serve.http import SERVER_TOKEN
from repro.serve.providers import (
    WIRE_FAMILIES,
    AnthropicProvider,
    EmulatedProvider,
    GeminiProvider,
    OpenAiProvider,
)
from repro.util.retry import call_with_retry


class FaultyProvider:
    """Injected-fault adapter: raises a scripted error per call, then
    delegates to the real emulated model."""

    def __init__(self, model_name: str = "gpt-4o-mini", faults=()):
        self.model = get_model(model_name)
        self.config = self.model.config
        self.faults = list(faults)
        self.calls = 0
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.model.name

    async def complete(self, prompt, *, temperature=None, top_p=None):
        with self._lock:
            index = self.calls
            self.calls += 1
        if index < len(self.faults):
            fault = self.faults[index]
            if fault is not None:
                raise fault
        return self.model.complete(prompt, temperature=temperature, top_p=top_p)


class GatedProvider:
    """Holds every completion until released — lets a test pile up N
    concurrent identical requests before the first one can finish."""

    def __init__(self, model_name: str = "gpt-4o-mini"):
        self.model = get_model(model_name)
        self.config = self.model.config
        self.calls = 0
        self.gate = asyncio.Event()

    @property
    def name(self) -> str:
        return self.model.name

    async def complete(self, prompt, *, temperature=None, top_p=None):
        self.calls += 1
        await self.gate.wait()
        return self.model.complete(prompt, temperature=temperature, top_p=top_p)


def _recording_sleep(log):
    async def sleep(delay):
        log.append(delay)

    return sleep


# -- provider adapters -------------------------------------------------------

WIRE_CASES = [
    ("gpt-4o-2024-11-20", OpenAiProvider),
    ("o3-mini-high", OpenAiProvider),
    ("gemini-2.0-flash-001", GeminiProvider),
]


def test_provider_family_routing():
    assert provider_family("gemini-2.0-flash-001") == "gemini"
    assert provider_family("claude-sonnet-4") == "anthropic"
    assert provider_family("gpt-4o-mini") == "openai"
    assert provider_family("o3-mini-high") == "openai"


@pytest.mark.parametrize("cls", list(WIRE_FAMILIES.values()))
def test_wire_codec_roundtrip(cls):
    model = get_model("gpt-4o-mini")
    provider = cls(model.config)
    payload = provider.encode_request("classify this kernel", 0.1, 0.2)
    prompt, temperature, top_p = cls.decode_request(payload)
    assert (prompt, temperature, top_p) == ("classify this kernel", 0.1, 0.2)
    # None sampling params stay absent on the wire and decode back to None.
    bare = cls.decode_request(provider.encode_request("p", None, None))
    assert bare == ("p", None, None)

    response = LlmResponse(
        text="Compute",
        usage=Usage(input_tokens=123, output_tokens=1, reasoning_tokens=77),
        model_name=model.name,
    )
    decoded = provider.decode_response(cls.encode_response(response))
    assert decoded == response


@pytest.mark.parametrize("model_name,cls", WIRE_CASES)
def test_wire_adapter_matches_emulated(model_name, cls):
    """The full encode → emulated transport → decode path returns exactly
    what the emulated model would: the wire shape is lossless."""
    model = get_model(model_name)
    wire = resolve_provider(model_name, family="wire")
    assert isinstance(wire, cls)
    prompt = "Is the following kernel compute bound or bandwidth bound?"
    direct = model.complete(prompt)
    via_wire = asyncio.run(wire.complete(prompt))
    assert via_wire == direct


def test_unconfigured_wire_provider_raises():
    provider = resolve_provider("o1", family="anthropic")
    assert isinstance(provider, AnthropicProvider)
    with pytest.raises(ProviderNotConfigured):
        asyncio.run(provider.complete("hello"))


def test_resolve_provider_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown provider family"):
        resolve_provider("o1", family="azure")


def test_malformed_wire_response_is_transient():
    async def bad_transport(payload):
        return {"unexpected": "shape"}

    provider = OpenAiProvider(get_model("o1").config, bad_transport)
    with pytest.raises(TransientProviderError, match="malformed"):
        asyncio.run(provider.complete("hello"))


# -- retry / backoff / rate limiting ----------------------------------------

def test_retry_recovers_from_transient_faults():
    provider = FaultyProvider(faults=[
        TransientProviderError("boom"),
        RateLimitError("slow down"),
    ])
    sleeps: list[float] = []
    policy = RetryPolicy(max_attempts=4, base_delay_s=0.1, jitter=0.5)
    rng = random.Random(7)

    response = asyncio.run(call_with_retry(
        lambda: provider.complete("hello"),
        policy=policy, rng=rng, sleep=_recording_sleep(sleeps),
    ))
    assert response.text in ("Compute", "Bandwidth")
    assert provider.calls == 3          # 2 failures + 1 success
    assert len(sleeps) == 2             # one backoff per failure
    # Jittered exponential schedule: attempt k sleeps in
    # [0.5, 1.5] * base * 2**k, and never more than max_delay * 1.5.
    assert 0.05 <= sleeps[0] <= 0.15
    assert 0.10 <= sleeps[1] <= 0.30


def test_retry_attempts_are_bounded():
    provider = FaultyProvider(faults=[TransientProviderError("boom")] * 10)
    sleeps: list[float] = []
    policy = RetryPolicy(max_attempts=3)
    with pytest.raises(TransientProviderError):
        asyncio.run(call_with_retry(
            lambda: provider.complete("hello"),
            policy=policy, rng=random.Random(0),
            sleep=_recording_sleep(sleeps),
        ))
    assert provider.calls == 3
    assert len(sleeps) == 2             # no sleep after the final failure


def test_retry_honours_rate_limit_retry_after():
    provider = FaultyProvider(
        faults=[RateLimitError("429", retry_after=9.0)]
    )
    sleeps: list[float] = []
    asyncio.run(call_with_retry(
        lambda: provider.complete("hello"),
        policy=RetryPolicy(base_delay_s=0.01),
        rng=random.Random(0), sleep=_recording_sleep(sleeps),
    ))
    assert sleeps == [9.0]              # server hint floors the backoff


def test_retry_does_not_retry_programming_errors():
    provider = FaultyProvider(faults=[ValueError("bug")])
    with pytest.raises(ValueError, match="bug"):
        asyncio.run(call_with_retry(
            lambda: provider.complete("hello"),
            policy=RetryPolicy(), rng=random.Random(0),
        ))
    assert provider.calls == 1


def test_attempt_timeout_surfaces_as_provider_timeout():
    provider = GatedProvider()          # never released: every attempt hangs
    policy = RetryPolicy(max_attempts=2, timeout_s=0.01, timeout_jitter=0.0,
                         base_delay_s=0.0, jitter=0.0)
    sleeps: list[float] = []
    engine = AsyncEvalEngine(
        store=MemoryResponseStore(), retry=policy, rng=random.Random(0),
        sleep=_recording_sleep(sleeps),
    )
    with pytest.raises(ProviderTimeout):
        asyncio.run(engine.complete(provider, "hello"))
    assert provider.calls == 2          # timed out, retried once, gave up
    assert len(sleeps) == 1
    assert engine.stats.retries == 1


def test_jittered_timeouts_vary_per_attempt():
    policy = RetryPolicy(timeout_s=1.0, timeout_jitter=0.25)
    rng = random.Random(3)
    draws = {policy.attempt_timeout(rng) for _ in range(16)}
    assert len(draws) > 1
    assert all(0.75 <= t <= 1.25 for t in draws)


def test_rate_limiter_spaces_acquisitions():
    clock = [0.0]
    waits: list[float] = []

    async def sleep(delay):
        waits.append(delay)
        clock[0] += delay

    limiter = RateLimiter(rate=2.0, burst=2, clock=lambda: clock[0], sleep=sleep)

    async def scenario():
        for _ in range(5):
            await limiter.acquire()

    asyncio.run(scenario())
    # Burst of 2 free, then one matured token per 0.5 s.
    assert waits == pytest.approx([0.5, 0.5, 0.5])


def test_rate_limiter_disabled():
    limiter = RateLimiter(rate=None)

    async def scenario():
        for _ in range(100):
            await limiter.acquire()

    asyncio.run(scenario())             # returns immediately; nothing to assert


# -- the async engine: coalescing + caching ---------------------------------

def test_identical_concurrent_requests_coalesce():
    """N identical in-flight requests → exactly 1 upstream completion."""
    provider = GatedProvider()
    engine = AsyncEvalEngine(store=MemoryResponseStore())
    prompt = "Is this kernel compute bound or bandwidth bound?"
    n = 16

    async def scenario():
        tasks = [
            asyncio.create_task(engine.complete(provider, prompt))
            for _ in range(n)
        ]
        # Let every task reach the inflight table before releasing the gate.
        while provider.calls == 0:
            await asyncio.sleep(0)
        provider.gate.set()
        return await asyncio.gather(*tasks)

    responses = asyncio.run(scenario())
    assert provider.calls == 1
    assert len(set(responses)) == 1     # everyone got the same completion
    assert engine.stats.misses == 1
    assert engine.stats.coalesced == n - 1
    assert engine.stats.completions == 1


def test_distinct_prompts_do_not_coalesce():
    provider = GatedProvider()
    provider.gate.set()
    engine = AsyncEvalEngine(store=MemoryResponseStore())

    async def scenario():
        await asyncio.gather(
            engine.complete(provider, "prompt one"),
            engine.complete(provider, "prompt two"),
        )

    asyncio.run(scenario())
    assert provider.calls == 2
    assert engine.stats.coalesced == 0


def test_coalesced_waiters_share_the_owners_failure():
    provider = FaultyProvider(faults=[ValueError("bug")] * 1)
    engine = AsyncEvalEngine(store=MemoryResponseStore())

    async def scenario():
        results = await asyncio.gather(
            *(engine.complete(provider, "same prompt") for _ in range(4)),
            return_exceptions=True,
        )
        return results

    results = asyncio.run(scenario())
    assert all(isinstance(r, ValueError) for r in results)
    assert provider.calls == 1          # the failure was shared, not repeated


def test_failed_request_leaves_no_inflight_residue():
    provider = FaultyProvider(
        faults=[TransientProviderError("boom")] * 4 + [None]
    )
    engine = AsyncEvalEngine(
        store=MemoryResponseStore(),
        retry=RetryPolicy(max_attempts=1),
    )

    async def scenario():
        with pytest.raises(TransientProviderError):
            await engine.complete(provider, "p")
        assert engine._inflight == {}
        # Later identical request retries upstream from scratch...
        with pytest.raises(TransientProviderError):
            await engine.complete(provider, "p")

    asyncio.run(scenario())


def test_warm_store_serves_without_completions():
    provider = EmulatedProvider(get_model("gpt-4o-mini"))
    store = MemoryResponseStore()
    engine = AsyncEvalEngine(store=store)
    prompt = "Is this compute bound or bandwidth bound?"

    first = asyncio.run(engine.complete(provider, prompt))
    again = asyncio.run(engine.complete(provider, prompt))
    assert again == first
    assert engine.stats.misses == 1
    assert engine.stats.hits == 1
    assert engine.stats.completions == 1


def test_engine_retry_counter_and_recovery():
    provider = FaultyProvider(faults=[
        TransientProviderError("a"), ProviderTimeout("b"),
    ])
    engine = AsyncEvalEngine(
        store=MemoryResponseStore(),
        retry=RetryPolicy(base_delay_s=0.0, jitter=0.0),
        rng=random.Random(0),
    )
    response = asyncio.run(engine.complete(provider, "p"))
    assert response.text in ("Compute", "Bandwidth")
    assert engine.stats.retries == 2
    assert engine.stats.misses == 1


def test_run_rejects_empty_items():
    engine = AsyncEvalEngine()
    provider = EmulatedProvider(get_model("o1"))
    with pytest.raises(ValueError, match="no items"):
        asyncio.run(engine.run(provider, []))


# -- parity with the sync engine --------------------------------------------

@pytest.mark.parametrize("rq3", [False, True])
def test_async_run_matches_sync_engine_bit_for_bit(
    tmp_path, balanced_samples, rq3
):
    """The acceptance pin: same grid → identical RunResult digest and
    byte-identical cache directories, at any concurrency."""
    samples = balanced_samples[:12]
    variant = regime_variant("rq3" if rq3 else "rq2")
    items = classification_items(samples, variant=variant)
    model = get_model("o3-mini-high")

    sync_store = DiskResponseStore(tmp_path / "sync-cache")
    sync_engine = EvalEngine(jobs=4, store=sync_store)
    sync_result = sync_engine.run(model, items)

    async_store = DiskResponseStore(tmp_path / "async-cache")
    async_engine = AsyncEvalEngine(store=async_store, max_concurrency=8)
    async_result = asyncio.run(
        async_engine.run(EmulatedProvider(model), items)
    )

    assert async_result == sync_result
    assert async_result.digest() == sync_result.digest()

    def snapshot(root):
        return {
            p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    sync_files = snapshot(sync_store.root)
    assert sync_files and snapshot(async_store.root) == sync_files

    # And the async-written cache replays through the sync engine.
    replay = EvalEngine(store=async_store)
    assert replay.run(model, items).digest() == sync_result.digest()
    assert replay.stats.hits == len(items)


def test_wire_provider_run_matches_sync_engine(balanced_samples):
    """Parity holds through the wire codecs too, not just the direct shim."""
    samples = balanced_samples[:6]
    items = classification_items(samples, variant="zero-shot")
    model = get_model("gemini-2.0-flash-001")

    sync_result = EvalEngine(store=MemoryResponseStore()).run(model, items)
    wire = resolve_provider(model.name, family="wire")
    async_result = asyncio.run(
        AsyncEvalEngine(store=MemoryResponseStore()).run(wire, items)
    )
    assert async_result.digest() == sync_result.digest()


# -- the HTTP front end ------------------------------------------------------

def _get_json(url: str):
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _post_json(url: str, payload: dict):
    body = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


@pytest.fixture()
def serving(tmp_path, balanced_samples):
    """A running server over a cache pre-warmed for the first 4 samples."""
    samples = balanced_samples[:4]
    store = DiskResponseStore(tmp_path / "serve-cache")
    model = get_model("o3-mini-high")
    batch = EvalEngine(store=store).run(
        model, classification_items(samples, variant="zero-shot")
    )
    engine = AsyncEvalEngine(store=store)
    service = PredictionService(engine)
    server = PredictionServer(service, port=0).start()
    try:
        yield server, engine, samples, batch
    finally:
        server.close()


def test_http_health_models_and_errors(serving):
    server, _, _, _ = serving
    status, body = _get_json(f"{server.url}/healthz")
    assert (status, body) == (200, {"status": "ok"})
    status, body = _get_json(f"{server.url}/v1/models")
    assert status == 200 and "o3-mini-high" in body["models"]

    for path, code in [
        ("/v1/nope", 404),
        ("/v1/classify", 400),   # missing uid
        ("/v1/classify?uid=no/such-kernel", 404),
        ("/v1/classify?uid=x&model=made-up-model", 404),
    ]:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get_json(f"{server.url}{path}")
        with err.value:
            assert err.value.code == code


def test_http_warm_queries_make_zero_completions(serving):
    """The tentpole acceptance path: warm-store HTTP queries answer with
    0 new completions and agree with the batch CLI's labels."""
    server, engine, samples, batch = serving
    by_uid = {r.item_id: r for r in batch.records}
    for sample in samples:
        status, body = _get_json(
            f"{server.url}/v1/classify?uid={sample.uid}&model=o3-mini-high"
        )
        assert status == 200
        assert body["cached"] is True
        record = by_uid[sample.uid]
        assert body["prediction"] == record.prediction.word
        assert body["truth"] == sample.label.word
        assert body["correct"] == (record.prediction == sample.label)
    assert engine.stats.completions == 0
    assert engine.stats.hits == len(samples)

    status, stats = _get_json(f"{server.url}/v1/stats")
    assert status == 200
    assert stats["completions"] == 0 and stats["hits"] == len(samples)


def test_http_post_and_cold_query(serving):
    server, engine, samples, _ = serving
    # A regime the warm-up never ran (few-shot) must complete upstream.
    query = {"uid": samples[0].uid, "model": "o3-mini-high",
             "variant": "few-shot-2"}
    status, body = _post_json(f"{server.url}/v1/classify", query)
    assert status == 200
    assert body["cached"] is False
    assert body["variant"] == "few-shot-2"
    assert engine.stats.completions == 1
    # ... and is cached for the next identical query.
    status, again = _post_json(f"{server.url}/v1/classify", query)
    assert again["cached"] is True
    assert again["prediction"] == body["prediction"]
    assert engine.stats.completions == 1


@pytest.mark.parametrize("send", ["get", "post"])
@pytest.mark.parametrize("value", ["true", "false"])
def test_http_few_shot_answers_400_naming_variant(
    serving, monkeypatch, send, value
):
    """``few_shot`` is gone from /v1/classify: any request carrying it is
    refused before admission, pointing at ``variant``."""
    server, engine, samples, _ = serving
    service = server.service
    admitted = []
    classify = service.classify
    monkeypatch.setattr(
        service, "classify",
        lambda *a, **kw: admitted.append(kw) or classify(*a, **kw),
    )
    total = engine.stats.total
    url = f"{server.url}/v1/classify"
    with pytest.raises(urllib.error.HTTPError) as err:
        if send == "get":
            _get_json(f"{url}?uid={samples[0].uid}&few_shot={value}")
        else:
            _post_json(url, {"uid": samples[0].uid,
                             "few_shot": value == "true"})
    with err.value:
        assert err.value.code == 400
        error = json.loads(err.value.read())["error"]
    assert "variant=zero-shot" in error and "variant=few-shot-2" in error
    assert admitted == []
    assert engine.stats.total == total
    assert service.stats()["queue_depth"] == 0


def test_http_variant_matches_batch_rq3(serving):
    """``variant=few-shot-2`` answers what the batch RQ3 run answers, and
    the response names its form only through ``variant``."""
    server, _, samples, _ = serving
    batch = run_rq3(get_model("o3-mini-high"), samples,
                    engine=EvalEngine(store=MemoryResponseStore()))
    for record in batch.run.records:
        status, body = _get_json(
            f"{server.url}/v1/classify?uid={record.item_id}"
            "&variant=few-shot-2"
        )
        assert status == 200
        assert body["prediction"] == record.prediction.word
        assert body["variant"] == "few-shot-2"
        assert "few_shot" not in body


class HeldKeyStore(MemoryResponseStore):
    """Memory store whose ``get`` on one key blocks until released."""

    def __init__(self):
        super().__init__()
        self.held_key: str | None = None
        self.reached = threading.Event()
        self.release = threading.Event()

    def get(self, key):
        if key == self.held_key:
            self.reached.set()
            self.release.wait(timeout=30)
        return super().get(key)


def test_cached_flag_is_this_requests_provenance(balanced_samples):
    """A hit stays ``cached: true`` even when another request's miss
    finishes while the hit is reading the store."""
    hit, miss = balanced_samples[:2]
    model = get_model("gpt-4o-mini")
    store = HeldKeyStore()
    (item,) = classification_items([hit], variant="zero-shot")
    EvalEngine(store=store).run(model, [item])
    store.held_key = cache_key(model.config, item[1])
    engine = AsyncEvalEngine(store=store)
    service = PredictionService(engine)

    async def scenario():
        held = asyncio.create_task(service.classify(hit.uid, model=model.name))
        assert await asyncio.to_thread(store.reached.wait, 30)
        missed = await service.classify(miss.uid, model=model.name)
        store.release.set()
        return await held, missed

    held, missed = asyncio.run(scenario())
    assert (held["cached"], held["served_by"]) == (True, "cache")
    assert missed["cached"] is False
    assert engine.stats.completions == 1


def _counting_builds(service, fail_first=False, gate=None):
    """Wrap ``service._build_index``: count the builds, optionally fail
    the first one, and optionally hold each build until ``gate`` opens."""
    real = service._build_index
    calls = []

    def build(gpu):
        calls.append(gpu)
        if gate is not None:
            assert gate.wait(timeout=30)
        if fail_first and len(calls) == 1:
            raise OSError("profile store unreadable")
        return real(gpu)

    service._build_index = build
    return calls


def test_concurrent_first_queries_share_one_index_build(balanced_samples):
    uid = balanced_samples[0].uid
    service = PredictionService(AsyncEvalEngine(store=MemoryResponseStore()))
    calls = _counting_builds(service)

    async def scenario():
        return await asyncio.gather(*(
            service.classify(uid, gpu="v100") for _ in range(3)
        ))

    answers = asyncio.run(scenario())
    assert len(calls) == 1
    assert len({a["prediction"] for a in answers}) == 1


def test_index_build_survives_a_cancelled_waiter_and_forgets_a_failure(
    balanced_samples,
):
    uid = balanced_samples[0].uid
    service = PredictionService(AsyncEvalEngine(store=MemoryResponseStore()))
    gate = threading.Event()
    calls = _counting_builds(service, fail_first=True, gate=gate)

    async def scenario():
        # A failed build answers its waiter and is not memoized.
        first = asyncio.ensure_future(service.classify(uid, gpu="v100"))
        await asyncio.sleep(0)
        gate.set()
        with pytest.raises(OSError):
            await first
        # A waiter cancelled mid-build (a 504) leaves the build running
        # for the next query, which joins it instead of starting another.
        gate.clear()
        cancelled = asyncio.ensure_future(service.classify(uid, gpu="v100"))
        await asyncio.sleep(0)
        cancelled.cancel()
        joined = asyncio.ensure_future(service.classify(uid, gpu="v100"))
        await asyncio.sleep(0)
        gate.set()
        with pytest.raises(asyncio.CancelledError):
            await cancelled
        return await joined

    answer = asyncio.run(scenario())
    assert len(calls) == 2
    assert answer["uid"] == uid


def test_http_samples_listing(serving):
    server, _, _, _ = serving
    status, body = _get_json(f"{server.url}/v1/samples")
    assert status == 200
    listing = body["samples"]
    assert len(listing) >= 300          # the paper's balanced set
    assert all(entry["label"] in ("Compute", "Bandwidth") for entry in listing)


# -- the socket: TCP_NODELAY, one write per response, keep-alive -------------

@pytest.fixture()
def connections(monkeypatch):
    """One record per connection the server writes to: the accepted
    socket's ``TCP_NODELAY`` value and every ``StreamWriter.write`` on
    it, in the order the server made them."""
    accepted: list[dict] = []
    write = asyncio.StreamWriter.write

    def recording_write(self, data):
        record = vars(self).get("recorded")
        if record is None:
            try:
                nodelay = self.get_extra_info("socket").getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            except OSError:
                nodelay = None  # the client already hung up
            record = self.recorded = {"nodelay": nodelay, "writes": []}
            accepted.append(record)
        record["writes"].append(bytes(data))
        return write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", recording_write)
    return accepted


_DATE_LINE = re.compile(
    rb"Date: \w{3}, \d{2} \w{3} \d{4} \d{2}:\d{2}:\d{2} GMT"
)


def _split_response(write: bytes) -> tuple[list[bytes], bytes]:
    """Head lines (Server and Date checked and dropped) and body."""
    head, sep, body = write.partition(b"\r\n\r\n")
    assert sep, "response head not terminated"
    status, server, date, *rest = head.split(b"\r\n")
    assert server == f"Server: {SERVER_TOKEN}".encode()
    assert _DATE_LINE.fullmatch(date), date
    return [status, *rest], body


def test_accepted_socket_is_tcp_nodelay(serving, connections):
    server, _, _, _ = serving
    assert _get_json(f"{server.url}/healthz")[0] == 200
    assert len(connections) == 1
    assert connections[0]["nodelay"] != 0


def test_each_response_is_one_write_with_exact_head(serving, connections):
    server, _, samples, _ = serving
    status, answer = _get_json(f"{server.url}/v1/classify?uid={samples[0].uid}")
    assert status == 200
    (ok,) = connections[0]["writes"]
    lines, body = _split_response(ok)
    assert lines == [
        b"HTTP/1.1 200 OK",
        b"Content-Type: application/json",
        b"Content-Length: %d" % len(body),
    ]
    assert body == json.dumps(answer, sort_keys=True).encode("utf-8")

    # A shed request: cold key, deadline gone before the first attempt.
    req = urllib.request.Request(
        f"{server.url}/v1/classify?uid={samples[0].uid}&variant=few-shot-2",
        headers={"X-Deadline-Ms": "0.000001"},
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=60)
    with err.value:
        assert err.value.code == 429
        shed_body = err.value.read()
    (shed,) = connections[1]["writes"]
    lines, body = _split_response(shed)
    assert lines == [
        b"HTTP/1.1 429 Too Many Requests",
        b"Content-Type: application/json",
        b"Content-Length: %d" % len(body),
        b"Retry-After: 1.000",
    ]
    assert body == shed_body
    assert json.loads(body)["error"].startswith("deadline exceeded")


def test_keep_alive_connection_serves_warm_queries(serving, connections):
    """20 warm queries on one persistent connection: every answer is the
    batch answer, and client and server stay on one socket."""
    server, engine, samples, batch = serving
    by_uid = {r.item_id: r.prediction.word for r in batch.records}
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        sock = None
        for i in range(20):
            uid = samples[i % len(samples)].uid
            conn.request("GET", f"/v1/classify?uid={uid}")
            resp = conn.getresponse()
            body = json.loads(resp.read().decode("utf-8"))
            assert resp.status == 200
            assert (body["cached"], body["prediction"]) == (True, by_uid[uid])
            sock = sock or conn.sock
            assert conn.sock is sock and not resp.will_close
    finally:
        conn.close()
    assert len(connections) == 1
    assert len(connections[0]["writes"]) == 20
    assert engine.stats.completions == 0


def _read_responses(data: bytes) -> list[tuple[bytes, list[bytes], dict]]:
    """Split raw response bytes into (status line, other head lines,
    JSON body) triples, using each response's Content-Length."""
    out = []
    while data:
        head, sep, data = data.partition(b"\r\n\r\n")
        assert sep, "response head not terminated"
        status, *lines = head.split(b"\r\n")
        (length,) = [
            int(line.split(b":")[1]) for line in lines
            if line.lower().startswith(b"content-length:")
        ]
        out.append((status, lines, json.loads(data[:length])))
        data = data[length:]
    return out


def _raw(server, request: bytes, timeout: float = 30.0) -> bytes:
    """Send raw bytes on one socket; return all the server sends until
    it closes the connection."""
    with socket.create_connection(
        ("127.0.0.1", server.port), timeout=timeout
    ) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(1 << 16):
            chunks.append(chunk)
    return b"".join(chunks)


def test_pipelined_requests_are_answered_in_order(serving):
    """Three requests in one send — a POST with a body, then two GETs —
    answered in order on one socket; the last asks to close."""
    server, _, samples, batch = serving
    body = json.dumps({"uid": samples[0].uid}).encode()
    answers = _read_responses(_raw(server, b"".join([
        b"POST /v1/classify HTTP/1.1\r\nHost: x\r\n",
        b"Content-Length: %d\r\n\r\n" % len(body), body,
        b"GET /v1/models HTTP/1.1\r\nHost: x\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    ])))
    assert [status for status, _, _ in answers] == [b"HTTP/1.1 200 OK"] * 3
    classify, models, health = [payload for _, _, payload in answers]
    by_uid = {r.item_id: r.prediction.word for r in batch.records}
    assert classify["uid"] == samples[0].uid and classify["cached"] is True
    assert classify["prediction"] == by_uid[samples[0].uid]
    assert "o3-mini-high" in models["models"]
    assert health == {"status": "ok"}


@pytest.mark.parametrize("version, extra, closes", [
    ("HTTP/1.1", "", False),
    ("HTTP/1.1", "Connection: close\r\n", True),
    ("HTTP/1.0", "", True),
])
def test_connection_close_and_http10_close_after_the_response(
    serving, version, extra, closes
):
    server, _, _, _ = serving
    request = f"GET /healthz {version}\r\nHost: x\r\n{extra}\r\n".encode()
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.settimeout(30.0)
        sock.sendall(request)
        reply = sock.makefile("rb")
        assert reply.readline() == b"HTTP/1.1 200 OK\r\n"
        length = 0
        while (line := reply.readline()) != b"\r\n":
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":")[1])
        assert json.loads(reply.read(length)) == {"status": "ok"}
        if closes:
            assert reply.read() == b""      # EOF: the server closed
        else:
            sock.settimeout(0.2)            # keep-alive: nothing more
            with pytest.raises(TimeoutError):
                sock.recv(1)
        reply.close()


@pytest.mark.parametrize("request_bytes, status", [
    (b"GARBAGE\r\n\r\n", 400),
    (b"GET /healthz FTP/1.1\r\n\r\n", 400),
    (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
    (b"PUT /healthz HTTP/1.1\r\n\r\n", 501),
    (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (1 << 16) + b"\r\n\r\n",
     431),
    (b"GET /" + b"a" * (1 << 16) + b" HTTP/1.1\r\n\r\n", 414),
], ids=["request-line", "not-http", "version", "method",
        "head-too-large", "request-line-too-long"])
def test_unservable_requests_answer_json_and_close(
    serving, request_bytes, status
):
    """Requests the server cannot parse or serve get a JSON error, then
    the connection closes (the next bytes could not be framed)."""
    server, _, _, _ = serving
    (answer,) = _read_responses(_raw(server, request_bytes))
    status_line, lines, body = answer
    phrase = HTTPStatus(status).phrase
    assert status_line == f"HTTP/1.1 {status} {phrase}".encode()
    assert b"Connection: close" in lines
    assert isinstance(body["error"], str) and body["error"]
    assert _get_json(f"{server.url}/healthz")[0] == 200


@pytest.mark.parametrize("hangup", ["close", "reset"])
def test_client_hangup_is_at_most_one_write_and_no_traceback(
    serving, connections, capsys, caplog, hangup
):
    """A client that sends a request and hangs up — closing, or
    aborting with a RST — gets at most the one response write, and the
    server logs nothing and keeps serving."""
    server, _, samples, _ = serving
    sock = socket.create_connection(("127.0.0.1", server.port))
    if hangup == "reset":
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    sock.sendall(
        f"GET /v1/classify?uid={samples[0].uid} HTTP/1.1\r\n"
        f"Host: x\r\n\r\n".encode()
    )
    sock.close()
    assert _get_json(f"{server.url}/healthz")[0] == 200
    server.close()   # waits every connection coroutine out
    assert all(len(c["writes"]) <= 1 for c in connections)
    assert "Traceback" not in capsys.readouterr().err
    assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
