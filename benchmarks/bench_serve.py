"""G-serve — the async serving path: coalescing and warm-store latency.

Two load-bearing claims of ``repro.serve``:

* **Coalescing collapses duplicate bursts.** N identical in-flight
  requests against a slow upstream must cost ~1 upstream completion of
  wall clock, not N — the serving engine's inflight table shares one
  future across the burst. Asserted ≥5× faster than serving the same
  burst sequentially, with exactly 1 upstream call.
* **Warm stores serve without models.** Against a response store warmed
  by the batch engine, the async engine replays a classification grid
  with zero new completions and a digest identical to the sync engine's
  — the bench times that replay and the HTTP round-trip on top of it,
  over one keep-alive connection.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import time

from repro.eval.engine import (
    DiskResponseStore,
    EvalEngine,
    MemoryResponseStore,
)
from repro.eval.rq23 import classification_items
from repro.llm import get_model
from repro.serve import (
    AsyncEvalEngine,
    EmulatedProvider,
    PredictionServer,
    PredictionService,
)
from repro.util.tables import format_table

MODEL = "o3-mini-high"
SLICE = 60          # samples in the warm-replay grid
BURST = 32          # identical concurrent requests in the coalescing test
UPSTREAM_DELAY = 0.02  # artificial per-completion latency (s)
HTTP_REPS = 40


class _SlowProvider:
    """Emulated provider with a fixed artificial upstream latency."""

    def __init__(self, model_name: str, delay_s: float):
        self.model = get_model(model_name)
        self.config = self.model.config
        self.delay_s = delay_s
        self.calls = 0

    @property
    def name(self) -> str:
        return self.model.name

    async def complete(self, prompt, *, temperature=None, top_p=None):
        self.calls += 1
        await asyncio.sleep(self.delay_s)
        return self.model.complete(
            prompt, temperature=temperature, top_p=top_p
        )


def test_coalescing_collapses_identical_bursts():
    prompt = "Is the kernel compute bound or bandwidth bound?"

    async def burst_coalesced():
        provider = _SlowProvider(MODEL, UPSTREAM_DELAY)
        engine = AsyncEvalEngine(store=MemoryResponseStore())
        start = time.perf_counter()
        await asyncio.gather(
            *(engine.complete(provider, prompt) for _ in range(BURST))
        )
        return time.perf_counter() - start, provider.calls, engine.stats

    async def burst_sequential():
        provider = _SlowProvider(MODEL, UPSTREAM_DELAY)
        engine = AsyncEvalEngine(store=None)
        start = time.perf_counter()
        for _ in range(BURST):
            await engine.complete(provider, prompt)
        return time.perf_counter() - start, provider.calls

    t_coalesced, calls_coalesced, stats = asyncio.run(burst_coalesced())
    t_sequential, calls_sequential = asyncio.run(burst_sequential())

    print()
    print(format_table(
        ["serving pattern", "upstream calls", "wall clock (ms)"],
        [
            ["sequential, uncached", calls_sequential,
             f"{t_sequential * 1e3:,.1f}"],
            ["coalesced burst", calls_coalesced,
             f"{t_coalesced * 1e3:,.1f}"],
        ],
        title=f"{BURST} identical requests, {UPSTREAM_DELAY * 1e3:.0f} ms "
              "upstream latency",
    ))

    assert calls_coalesced == 1
    assert stats.coalesced == BURST - 1
    assert calls_sequential == BURST
    speedup = t_sequential / t_coalesced
    assert speedup >= 5.0, f"coalescing speedup {speedup:.1f}x < 5x floor"


def test_warm_store_replay_and_http_latency(tmp_path, balanced):
    samples = balanced[:SLICE]
    items = classification_items(samples, variant="zero-shot")
    model = get_model(MODEL)

    store = DiskResponseStore(tmp_path / "serve-cache")
    t0 = time.perf_counter()
    cold = EvalEngine(jobs=2, store=store).run(model, items)
    t_cold = time.perf_counter() - t0

    # Warm async replay: zero completions, digest-identical result.
    engine = AsyncEvalEngine(store=store)
    t0 = time.perf_counter()
    replay = asyncio.run(engine.run(EmulatedProvider(model), items))
    t_replay = time.perf_counter() - t0
    assert replay.digest() == cold.digest()
    assert engine.stats.completions == 0
    assert engine.stats.hits == len(items)

    # HTTP round-trips against the same warm store, on one keep-alive
    # connection as real clients (and perfbench's load generator) use.
    http_engine = AsyncEvalEngine(store=store)
    server = PredictionServer(
        PredictionService(http_engine), port=0
    ).start()
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        uids = [s.uid for s in samples]
        sock = None
        t0 = time.perf_counter()
        for i in range(HTTP_REPS):
            uid = uids[i % len(uids)]
            conn.request("GET", f"/v1/classify?uid={uid}&model={MODEL}")
            resp = conn.getresponse()
            body = json.loads(resp.read().decode("utf-8"))
            assert body["cached"] is True
            sock = sock or conn.sock
            assert conn.sock is sock, "the keep-alive socket was reopened"
        t_http = (time.perf_counter() - t0) / HTTP_REPS
    finally:
        conn.close()
        server.close()
    assert http_engine.stats.completions == 0

    print()
    print(format_table(
        ["path", "total (ms)", "per item (us)"],
        [
            ["cold batch sweep (sync)", f"{t_cold * 1e3:,.1f}",
             f"{t_cold / len(items) * 1e6:,.0f}"],
            ["warm async replay", f"{t_replay * 1e3:,.1f}",
             f"{t_replay / len(items) * 1e6:,.0f}"],
            ["warm HTTP round-trip", f"{t_http * HTTP_REPS * 1e3:,.1f}",
             f"{t_http * 1e6:,.0f}"],
        ],
        title=f"{len(items)}-item grid, {MODEL}; HTTP over {HTTP_REPS} queries",
    ))

    # A warm HTTP query must stay interactive: well under one cold
    # completion's cost, and absolute-bounded for a UI-grade experience.
    assert t_http < 0.25, f"warm HTTP round-trip {t_http * 1e3:.0f} ms too slow"
