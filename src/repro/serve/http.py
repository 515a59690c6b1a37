"""Stdlib HTTP front end answering roofline-classification queries.

Two layers:

* :class:`PredictionService` — the async application: uid → sample lookup
  (the paper's balanced dataset, or any scenario GPU's re-profiled twin),
  prompt construction through the *same* :func:`build_classify_prompt`
  path as the batch CLI (so cache keys match entry for entry), and
  completion through an :class:`~repro.serve.engine.AsyncEvalEngine`.
  Against a warm :class:`~repro.eval.engine.DiskResponseStore` every
  query is a cache hit — zero new completions, no model inference on the
  request path. The service also owns *admission control*: at most
  ``queue_budget`` classifications in flight, the rest shed with a
  429-shaped :class:`~repro.serve.resilience.LoadShedError`, and a
  request-supplied deadline (``X-Deadline-Ms``) propagates down to the
  engine's retry loop.
  On the loop, the GPU lookup, the memoized uid → sample index and the
  prompt build run inline: they are in-memory work, cheaper than a
  thread hop. A warm hit leaves the loop only for store I/O (the
  engine's lookup); a GPU's first index build (a dataset build) and a
  miss's provider call and commit also run in worker threads.
* :class:`PredictionServer` — a :class:`ThreadingHTTPServer` whose
  handler threads bridge into one background asyncio event loop
  (``run_coroutine_threadsafe``), keeping the engine's single-loop
  coalescing semantics while the stdlib server deals with sockets.
  Sockets are ``TCP_NODELAY`` and every response — status line,
  headers and body — leaves in one write, so a keep-alive response
  never waits on Nagle for the client's delayed ACK. A handler that
  times out cancels its classify, so the abandoned work frees its
  admission slot; a client that disconnects mid-response is dropped
  without a second write. The server knows how to *drain*:
  :meth:`PredictionServer.drain` flips it to draining (``/healthz``
  answers 503, work endpoints shed), waits for in-flight requests to
  finish, then closes.

Endpoints (all JSON):

* ``GET /healthz`` — liveness; 503 ``{"status": "draining"}`` once a
  drain begins.
* ``GET /v1/models`` — servable model names.
* ``GET /v1/samples`` — balanced-dataset uids with ground-truth labels.
* ``GET /v1/stats`` — engine counters (hits/misses/coalesced/retries,
  failover/hedge/shed totals, queue depth, per-provider breaker states).
* ``GET|POST /v1/classify`` — one prediction. Query params (GET) or a
  JSON body (POST): ``uid`` (required), ``model``, ``variant`` (any
  registered prompt variant, default ``zero-shot``), ``gpu``. ``variant``
  is the only prompt-form parameter: a request carrying the removed
  ``few_shot`` answers 400 naming the variants to use instead.
  Optional ``X-Deadline-Ms`` header: the caller's end-to-end budget.

Failure statuses: 429 + ``Retry-After`` when shed (queue over budget or
deadline expired), 503 + ``Retry-After`` when every provider breaker is
open or upstream retries exhausted, 504 when the handler-side wait times
out.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import TimeoutError as _FutureTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence
from urllib.parse import parse_qs, urlsplit

from repro.dataset import Sample, paper_dataset
from repro.eval.matrix import scenario_samples
from repro.eval.rq23 import REGIME_VARIANTS
from repro.llm.pricing import query_cost_usd
from repro.llm.registry import MODEL_NAMES
from repro.prompts import ZERO_SHOT, build_classify_prompt, get_variant
from repro.roofline.hardware import GpuSpec, get_gpu
from repro.serve.engine import AsyncEvalEngine, ProviderChain
from repro.serve.providers import resolve_provider
from repro.serve.resilience import AllProvidersUnavailable, LoadShedError
from repro.util.retry import DeadlineExceeded, TransientError

#: The paper's headline model — the default for unqualified queries.
DEFAULT_MODEL = "o3-mini-high"


class ServiceError(Exception):
    """A client-visible failure with an HTTP status."""

    def __init__(
        self, status: int, message: str, *, retry_after: float | None = None
    ):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class PredictionService:
    """The serving application: samples + providers + async engine.

    Sample indices and provider chains are built lazily and memoized:
    the first query against a GPU pays its (profile-store-backed) dataset
    build, later ones are dictionary lookups. Memo access is locked —
    handler threads funnel work onto one event loop, but the blocking
    builds run in ``to_thread`` workers.

    ``provider_family`` may be a comma-separated failover chain
    (``"emulated,wire"``): the first family is primary, the rest are
    fallbacks tried when the primary's breaker is open or its retries
    exhaust. Every chain member serves the same model config, so cache
    keys are identical whichever member answers.
    """

    def __init__(
        self,
        engine: AsyncEvalEngine,
        *,
        provider_family: str = "emulated",
        jobs: int = 1,
        queue_budget: int = 64,
    ) -> None:
        families = [f.strip() for f in provider_family.split(",") if f.strip()]
        if not families:
            raise ValueError(f"no provider family in {provider_family!r}")
        if queue_budget < 1:
            raise ValueError(f"queue_budget must be >= 1, got {queue_budget}")
        self.engine = engine
        self.provider_family = families[0]
        self.fallback_families = tuple(families[1:])
        self.jobs = jobs
        self.queue_budget = queue_budget
        self._admitted = 0  # event-loop-confined in-flight gauge
        self._lock = threading.Lock()
        self._providers: dict[str, ProviderChain] = {}
        # gpu key (None = the paper's default target) → uid → sample
        self._samples: dict[str | None, dict[str, Sample]] = {}

    # -- lazy indices --------------------------------------------------------
    def provider(self, model_name: str) -> ProviderChain:
        with self._lock:
            chain = self._providers.get(model_name)
        if chain is not None:
            return chain
        try:
            chain = resolve_provider(
                model_name,
                family=self.provider_family,
                fallbacks=self.fallback_families,
            )
        except KeyError:
            raise ServiceError(
                404, f"unknown model {model_name!r}; see /v1/models"
            ) from None
        with self._lock:
            return self._providers.setdefault(model_name, chain)

    def _memoized_index(self, gpu: GpuSpec | None) -> dict[str, Sample] | None:
        """The GPU's sample index if it is already built, else ``None``."""
        with self._lock:
            return self._samples.get(gpu.name if gpu is not None else None)

    def _sample_index(self, gpu: GpuSpec | None) -> dict[str, Sample]:
        index = self._memoized_index(gpu)
        if index is not None:
            return index
        if gpu is None:
            samples: Sequence[Sample] = paper_dataset(jobs=self.jobs).balanced
        else:
            samples = scenario_samples(gpu, jobs=self.jobs)
        index = {s.uid: s for s in samples}
        with self._lock:
            return self._samples.setdefault(
                gpu.name if gpu is not None else None, index
            )

    def warm(self) -> int:
        """Build the default sample index up front; returns its size."""
        return len(self._sample_index(None))

    # -- queries -------------------------------------------------------------
    def sample_listing(self) -> list[dict]:
        index = self._sample_index(None)
        return [
            {"uid": uid, "label": sample.label.word}
            for uid, sample in sorted(index.items())
        ]

    def stats(self) -> dict:
        s = self.engine.stats
        return {
            "hits": s.hits,
            "misses": s.misses,
            "uncached": s.uncached,
            "coalesced": s.coalesced,
            "retries": s.retries,
            "failed_over": s.failed_over,
            "hedged": s.hedged,
            "shed": s.shed,
            "completions": s.completions,
            "total": s.total,
            "queue_depth": self._admitted,
            "queue_budget": self.queue_budget,
            "breakers": self.engine.breaker_snapshots(),
        }

    async def classify(
        self,
        uid: str,
        *,
        model: str = DEFAULT_MODEL,
        variant: str = ZERO_SHOT.name,
        gpu: str | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        """One roofline classification, served from the warm stores.

        ``deadline_ms`` is the caller's end-to-end budget from this
        instant; an admission over ``queue_budget`` sheds immediately
        rather than queueing work the deadline would strand.
        """
        try:
            resolved = get_variant(variant)
        except KeyError as exc:
            raise ServiceError(404, str(exc)) from None
        chain = self.provider(model)
        primary = chain[0] if isinstance(chain, tuple) else chain
        deadline = None
        if deadline_ms is not None:
            deadline = self.engine.clock() + deadline_ms / 1000.0

        # Admission control. Runs on the event loop with no await since
        # the check, so the gauge can't be raced past its budget.
        if self._admitted >= self.queue_budget:
            self.engine.stats._bump("shed")
            raise LoadShedError(
                f"queue over budget ({self._admitted} in flight, "
                f"budget {self.queue_budget})",
                retry_after=1.0,
            )
        self._admitted += 1
        try:
            # GPU lookup, memoized index and prompt build are in-memory
            # work, cheaper than a thread hop; only a GPU's first index
            # build (a dataset build) leaves the loop.
            spec: GpuSpec | None = None
            if gpu:
                try:
                    spec = get_gpu(gpu)
                except KeyError as exc:
                    raise ServiceError(404, str(exc)) from None
            index = self._memoized_index(spec)
            if index is None:
                index = await asyncio.to_thread(self._sample_index, spec)
            sample = index.get(uid)
            if sample is None:
                raise ServiceError(
                    404, f"unknown sample uid {uid!r}; see /v1/samples"
                )
            # The batch CLI's exact prompt path (classification_items), so
            # the cache key below equals the sweep's and warm stores
            # answer it.
            prompt = build_classify_prompt(
                sample, variant=resolved, gpu=spec
            ).text
            info: dict = {}
            response = await self.engine.complete(
                chain, prompt, deadline=deadline, info=info
            )
            try:
                prediction = response.boundedness().word
            except ValueError:
                prediction = None
            return {
                "uid": uid,
                "model": primary.name,
                "gpu": spec.name if spec is not None else None,
                "variant": resolved.name,
                "prediction": prediction,
                "truth": sample.label.word,
                "correct": prediction == sample.label.word,
                # This request's own provenance: engine-wide counters move
                # under concurrent requests' misses.
                "cached": info.get("served_by") == "cache",
                "served_by": info.get("served_by"),
                "hedged": bool(info.get("hedged")),
                "usage": {
                    "input_tokens": response.usage.input_tokens,
                    "output_tokens": response.usage.output_tokens,
                    "reasoning_tokens": response.usage.reasoning_tokens,
                },
                "cost_usd": query_cost_usd(response.usage, primary.config),
            }
        finally:
            self._admitted -= 1


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the service's event loop."""

    server: "PredictionServer"  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"
    # Every response is one write, so there is nothing for Nagle to
    # coalesce; with it on, a keep-alive response waits out the client's
    # delayed ACK.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        payload: dict | list,
        *,
        retry_after: float | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{max(0.0, retry_after):.3f}")
        # end_headers() would send the head as a segment of its own. Join
        # head, blank line and body instead, so the response is one write.
        head = getattr(self, "_headers_buffer", [])  # HTTP/0.9: no head
        self._headers_buffer = []
        if head:
            head.append(b"\r\n")
        try:
            self.wfile.write(b"".join([*head, body]))
        except ConnectionError:
            # The client went away; there is nobody to send an error to.
            self.close_connection = True

    def _run(self, coro) -> object:
        future = asyncio.run_coroutine_threadsafe(coro, self.server.loop)
        try:
            return future.result(timeout=self.server.request_timeout_s)
        except _FutureTimeout:
            # Cancel the abandoned classify so it releases its admission
            # slot and in-flight key instead of running on unseen.
            future.cancel()
            raise

    def _deadline_ms(self) -> float | None:
        raw = self.headers.get("X-Deadline-Ms")
        if raw is None:
            return None
        try:
            value = float(raw.strip())
        except ValueError:
            raise ServiceError(
                400, f"X-Deadline-Ms must be a number, got {raw!r}"
            ) from None
        if value <= 0:
            raise ServiceError(400, f"X-Deadline-Ms must be > 0, got {raw!r}")
        return value

    def _classify_params(self) -> dict:
        split = urlsplit(self.path)
        if self.command == "POST":
            raw_length = self.headers.get("Content-Length")
            if raw_length is None:
                length = 0  # body-less POST: same as an empty object
            else:
                try:
                    length = int(raw_length.strip())
                except ValueError:
                    raise ServiceError(
                        400,
                        f"Content-Length must be an integer, "
                        f"got {raw_length!r}",
                    ) from None
                if length < 0:
                    raise ServiceError(
                        400, f"Content-Length must be >= 0, got {raw_length!r}"
                    )
            raw = self.rfile.read(length) if length else b"{}"
            try:
                params = json.loads(raw.decode("utf-8") or "{}")
            except ValueError:
                raise ServiceError(400, "request body is not valid JSON")
            if not isinstance(params, dict):
                raise ServiceError(400, "request body must be a JSON object")
        else:
            params = {
                k: v[-1] for k, v in parse_qs(split.query).items()
            }
        if "few_shot" in params:
            instead = (f"variant={v}" for v in REGIME_VARIANTS.values())
            raise ServiceError(
                400, f"few_shot was removed; pass {' or '.join(instead)}"
            )
        uid = params.get("uid")
        if not uid:
            raise ServiceError(400, "missing required parameter 'uid'")
        return {
            "uid": str(uid),
            "model": str(params.get("model") or DEFAULT_MODEL),
            "variant": str(params.get("variant") or ZERO_SHOT.name),
            "gpu": str(params["gpu"]) if params.get("gpu") else None,
            "deadline_ms": self._deadline_ms(),
        }

    # -- routes --------------------------------------------------------------
    def _route(self) -> None:
        service = self.server.service
        path = urlsplit(self.path).path.rstrip("/") or "/"
        try:
            draining = self.server.draining.is_set()
            if path == "/healthz":
                if draining:
                    self._send_json(503, {"status": "draining"})
                else:
                    self._send_json(200, {"status": "ok"})
            elif path == "/v1/models" and self.command == "GET":
                self._send_json(200, {"models": list(MODEL_NAMES)})
            elif path == "/v1/samples" and self.command == "GET":
                self._send_json(200, {"samples": service.sample_listing()})
            elif path == "/v1/stats" and self.command == "GET":
                payload = service.stats()
                payload["draining"] = draining
                self._send_json(200, payload)
            elif path == "/v1/classify":
                if draining:
                    raise ServiceError(
                        503, "server is draining", retry_after=1.0
                    )
                self.server._track_active(+1)
                try:
                    params = self._classify_params()
                    result = self._run(service.classify(**params))
                    self._send_json(200, result)  # type: ignore[arg-type]
                finally:
                    self.server._track_active(-1)
            else:
                raise ServiceError(404, f"no such endpoint: {path}")
        except ServiceError as exc:
            self._send_json(
                exc.status, {"error": str(exc)}, retry_after=exc.retry_after
            )
        except LoadShedError as exc:
            self._send_json(
                429, {"error": str(exc)}, retry_after=exc.retry_after
            )
        except DeadlineExceeded as exc:
            # The request's own budget ran out: shed-shaped, not a fault.
            service.engine.stats._bump("shed")
            self._send_json(
                429, {"error": f"deadline exceeded: {exc}"}, retry_after=1.0
            )
        except AllProvidersUnavailable as exc:
            self._send_json(
                503, {"error": str(exc)}, retry_after=exc.retry_after
            )
        except TransientError as exc:
            self._send_json(
                503,
                {"error": f"upstream unavailable: "
                          f"{type(exc).__name__}: {exc}"},
                retry_after=1.0,
            )
        except _FutureTimeout:
            self._send_json(504, {"error": "request timed out"})
        except asyncio.CancelledError:
            # close()/drain() cancelled the in-flight work under us.
            self._send_json(
                503, {"error": "server shutting down"}, retry_after=1.0
            )
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_GET(self) -> None:  # noqa: N802
        self._route()

    def do_POST(self) -> None:  # noqa: N802
        self._route()


class PredictionServer(ThreadingHTTPServer):
    """The serving process: stdlib HTTP threads + one asyncio loop.

    ``port=0`` binds an ephemeral port (tests); :attr:`port` reports the
    real one. :meth:`start` spins up the loop and server threads and
    returns (tests drive requests, then :meth:`close`);
    :meth:`serve_forever` is inherited for blocking use. :meth:`drain`
    is the graceful path: flip to draining, let in-flight work finish
    (bounded), then close.
    """

    daemon_threads = True

    def __init__(
        self,
        service: PredictionService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: float = 300.0,
        verbose: bool = False,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.service = service
        self.request_timeout_s = request_timeout_s
        self.verbose = verbose
        self.draining = threading.Event()
        self.loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self.loop.run_forever, name="repro-serve-loop", daemon=True
        )
        self._serve_thread: threading.Thread | None = None
        self._active = 0
        self._active_lock = threading.Lock()
        self._closed = False

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}"

    def _track_active(self, delta: int) -> None:
        with self._active_lock:
            self._active += delta

    def active_requests(self) -> int:
        with self._active_lock:
            return self._active

    def start(self) -> "PredictionServer":
        """Run the loop and accept requests in background threads."""
        if not self._loop_thread.is_alive():
            self._loop_thread.start()
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True
        )
        self._serve_thread.start()
        return self

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        if not self._loop_thread.is_alive():
            self._loop_thread.start()
        super().serve_forever(poll_interval)

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop taking work, let in-flight requests finish, then close.

        Returns ``True`` when every in-flight request completed inside
        ``timeout`` (a clean drain); ``False`` when the timeout cut
        stragglers off — :meth:`close` then cancels their coalesced
        futures so nothing blocks shutdown either way.
        """
        self.draining.set()
        deadline = time.monotonic() + timeout
        clean = True
        while self.active_requests() > 0:
            if time.monotonic() >= deadline:
                clean = False
                break
            time.sleep(0.02)
        self.close()
        return clean

    def close(self) -> None:
        """Stop accepting, cancel pending work, stop the loop, release
        the socket. Idempotent — the drain path and the CLI's ``finally``
        may both call it."""
        if self._closed:
            return
        self._closed = True
        self.draining.set()
        self.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        if self._loop_thread.is_alive():
            # Cancel pending work *on the loop* first: the coalesced
            # futures (waiters shield the owner, so an abandoned
            # in-flight call would pin its handler threads forever) and
            # then every still-running task — a classify coroutine
            # parked inside a wedged provider never finishes on its own.
            async def _cancel_pending():
                await self.service.engine.cancel_inflight()
                current = asyncio.current_task()
                for task in asyncio.all_tasks():
                    if task is not current:
                        task.cancel()

            try:
                asyncio.run_coroutine_threadsafe(
                    _cancel_pending(), self.loop
                ).result(timeout=2.0)
            except Exception:  # pragma: no cover - best-effort shutdown
                pass
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._loop_thread.join(timeout=5.0)
        self.loop.close()
        self.server_close()
