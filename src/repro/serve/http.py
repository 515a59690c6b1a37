"""One-event-loop HTTP front end answering roofline-classification queries.

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
  engine's retry loop. A warm hit leaves the event loop only for store
  I/O; a GPU's first index build (a dataset build) and a miss's provider
  call and commit also run in worker threads.
* :class:`PredictionServer` — an :func:`asyncio.start_server` front end
  on the same loop, which runs in one background thread. Each connection
  is one coroutine: read a head (64 KiB at most) and a ``Content-Length``
  body, route, answer with one write to a ``TCP_NODELAY`` socket, and
  loop while the connection is keep-alive. A request never changes
  thread except for the ``to_thread`` work above. A request that
  outlives ``request_timeout_s`` answers 504 and cancels its classify,
  so the abandoned work frees its admission slot; a client that hangs
  up is dropped without a second write. The server knows how to *drain*:
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
open or upstream retries exhausted, 504 when ``request_timeout_s`` runs
out. A request that cannot be served on its connection answers 400, 414,
431, 501 or 505 with ``Connection: close``. Every error body is JSON.
"""

from __future__ import annotations

import asyncio
import http.client
import io
import json
import math
import socket
import sys
import threading
import time
from email.utils import formatdate
from functools import partial
from http import HTTPStatus
from typing import Sequence
from urllib.parse import parse_qs, urlsplit

from repro import __version__
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

#: The ``Server`` header of every response.
SERVER_TOKEN = f"repro-serve/{__version__}"


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
    the first queries against a GPU share one (profile-store-backed)
    dataset build in a worker thread, later ones are dictionary lookups.
    The memos are read and written only on the event loop (and by
    :meth:`warm`, before serving starts), so they need no lock.

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
        self._providers: dict[str, ProviderChain] = {}
        # gpu key (None = the paper's default target) → uid → sample
        self._samples: dict[str | None, dict[str, Sample]] = {}
        # gpu key → the one in-flight build of its index
        self._building: dict[str | None, asyncio.Task] = {}

    # -- lazy indices --------------------------------------------------------
    def provider(self, model_name: str) -> ProviderChain:
        if model_name not in self._providers:
            try:
                self._providers[model_name] = resolve_provider(
                    model_name,
                    family=self.provider_family,
                    fallbacks=self.fallback_families,
                )
            except KeyError:
                raise ServiceError(
                    404, f"unknown model {model_name!r}; see /v1/models"
                ) from None
        return self._providers[model_name]

    def _build_index(self, gpu: GpuSpec | None) -> dict[str, Sample]:
        """One GPU's uid → sample index: a (blocking) dataset build."""
        if gpu is None:
            samples: Sequence[Sample] = paper_dataset(jobs=self.jobs).balanced
        else:
            samples = scenario_samples(gpu, jobs=self.jobs)
        return {s.uid: s for s in samples}

    async def _sample_index(self, gpu: GpuSpec | None) -> dict[str, Sample]:
        """The GPU's index; concurrent first queries share one build.

        The build is shielded, so a waiter cancelled by its 504 leaves it
        running for the others. A finished build installs its index; a
        failed one is forgotten, so the next query builds again.
        """
        key = gpu.name if gpu is not None else None
        index = self._samples.get(key)
        if index is not None:
            return index
        build = self._building.get(key)
        if build is None:
            build = asyncio.create_task(
                asyncio.to_thread(self._build_index, gpu)
            )
            self._building[key] = build
            build.add_done_callback(partial(self._install_index, key))
        return await asyncio.shield(build)

    def _install_index(self, key: str | None, build: asyncio.Task) -> None:
        del self._building[key]
        if not build.cancelled() and build.exception() is None:
            self._samples.setdefault(key, build.result())

    def warm(self) -> int:
        """Build the default sample index before serving; returns its size."""
        return len(self._samples.setdefault(None, self._build_index(None)))

    # -- queries -------------------------------------------------------------
    async def sample_listing(self) -> list[dict]:
        index = await self._sample_index(None)
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
            sample = (await self._sample_index(spec)).get(uid)
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


def _response(
    status: int, payload: dict | list, retry_after: float | None = None,
    *, close: bool = False,
) -> bytes:
    """One whole response — status line, headers, blank line, body."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
        f"Server: {SERVER_TOKEN}",
        f"Date: {formatdate(usegmt=True)}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    if retry_after is not None:
        head.append(f"Retry-After: {max(0.0, retry_after):.3f}")
    if close:
        head.append("Connection: close")
    return "\r\n".join([*head, "", ""]).encode("latin-1") + body


def _deadline_ms(headers) -> float | None:
    raw = headers.get("X-Deadline-Ms")
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    # nan fails this test but would pass `value <= 0`, and a nan budget
    # times out every attempt, opening the provider breakers.
    if not 0 < value < math.inf:
        raise ServiceError(
            400, f"X-Deadline-Ms must be a finite number > 0, got {raw!r}"
        )
    return value


def _classify_params(method: str, query: str, headers, body: bytes) -> dict:
    if method == "POST":
        try:
            params = json.loads(body.decode("utf-8") or "{}")
        except ValueError:
            raise ServiceError(400, "request body is not valid JSON")
        if not isinstance(params, dict):
            raise ServiceError(400, "request body must be a JSON object")
    else:
        params = {k: v[-1] for k, v in parse_qs(query).items()}
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
        "deadline_ms": _deadline_ms(headers),
    }


def _parse_head(line: str, fields: bytes) -> tuple:
    """``(method, target, headers, body length, keep-alive)`` of one
    request head; ``ServiceError`` when it cannot be served."""
    words = line.split()
    if len(words) != 3 or not words[2].startswith("HTTP/"):
        raise ServiceError(400, f"bad request line {line!r}")
    method, target, version = words
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise ServiceError(505, f"unsupported HTTP version {version!r}")
    if method not in ("GET", "POST"):
        raise ServiceError(501, f"unsupported method {method!r}")
    try:
        headers = http.client.parse_headers(io.BytesIO(fields))
    except http.client.HTTPException as exc:
        raise ServiceError(431, f"bad request headers: {exc}") from None
    raw = headers.get("Content-Length", "0")  # none: an empty body
    try:
        length = int(raw)
    except ValueError:
        length = -1
    if length < 0:
        raise ServiceError(
            400, f"Content-Length must be an integer >= 0, got {raw!r}"
        )
    keep_alive = version == "HTTP/1.1" and (
        "close" not in headers.get("Connection", "").lower()
    )
    return method, target, headers, length, keep_alive


class PredictionServer:
    """The serving process: one asyncio loop in a background thread.

    The socket is bound at construction (``port=0`` binds an ephemeral
    port; :attr:`port` reports the real one). :meth:`start` runs the
    loop and returns (tests drive requests, then :meth:`close`).
    :meth:`drain` is the graceful path: flip to draining, let in-flight
    work finish (bounded), then close.
    """

    def __init__(
        self,
        service: PredictionService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: float = 300.0,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.request_timeout_s = request_timeout_s
        self.verbose = verbose
        self.draining = threading.Event()
        self.loop = asyncio.new_event_loop()
        self._sock = socket.create_server((host, port))
        self._address = self._sock.getsockname()[:2]
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-loop", daemon=True
        )
        self._stop = asyncio.Event()
        # /v1/classify requests being answered. Written only on the loop;
        # drain() polls it from its own thread.
        self._active = 0

    @property
    def port(self) -> int:
        return self._address[1]

    @property
    def url(self) -> str:
        return f"http://{self._address[0]}:{self.port}"

    def start(self) -> "PredictionServer":
        """Run the loop, and with it the server, in a background thread."""
        self._thread.start()
        return self

    def _run_loop(self) -> None:
        self.loop.run_until_complete(self._serve())

    async def _serve(self) -> None:
        # The StreamReader's default 64 KiB limit bounds a request head.
        server = await asyncio.start_server(self._connection, sock=self._sock)
        await self._stop.wait()
        server.close()
        # Cancel pending work: the coalesced futures first (waiters
        # shield the owner, so an abandoned in-flight call would pin its
        # requests forever), then every still-running task — connection
        # coroutines, and classify work parked inside a wedged provider,
        # which never finishes on its own.
        await self.service.engine.cancel_inflight()
        tasks = asyncio.all_tasks() - {asyncio.current_task()}
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await asyncio.sleep(0)  # let the closed transports release sockets

    # -- one connection ------------------------------------------------------
    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Each response is one write: with Nagle on, a keep-alive response
        # would wait out the client's delayed ACK.
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        try:
            while await self._exchange(reader, writer):
                pass
        except (ConnectionError, EOFError, asyncio.CancelledError):
            # The client went away, or close() cancelled this coroutine.
            # End normally either way: on Python 3.11 and 3.12, asyncio
            # logs a connection task that ends cancelled as an error.
            pass
        finally:
            writer.close()

    async def _exchange(self, reader, writer) -> bool:
        """Answer one request; whether the connection stays open."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError as exc:
            line_fits = b"\r\n" in await reader.read(exc.consumed)
            return self._refuse(writer, "-", ServiceError(
                431 if line_fits else 414, "request head over 64 KiB"
            ))
        request_line, _, fields = head.lstrip(b"\r\n").partition(b"\r\n")
        line = request_line.decode("iso-8859-1")
        try:
            method, target, headers, length, keep_alive = _parse_head(
                line, fields
            )
        except ServiceError as exc:
            return self._refuse(writer, line, exc)
        body = await reader.readexactly(length) if length else b""
        try:
            status, payload, retry_after = await self._route(
                method, target, headers, body
            )
        except asyncio.CancelledError:
            # close() cancelled the in-flight work under us.
            return self._refuse(writer, line, ServiceError(
                503, "server shutting down", retry_after=1.0
            ))
        self._log(writer, line, status)
        writer.write(_response(status, payload, retry_after))
        await writer.drain()
        return keep_alive

    def _refuse(self, writer, line: str, exc: ServiceError) -> bool:
        """Answer ``exc`` and mark the connection for closing."""
        self._log(writer, line, exc.status)
        writer.write(_response(
            exc.status, {"error": str(exc)}, exc.retry_after, close=True
        ))
        return False

    def _log(self, writer, line: str, status: int) -> None:
        if self.verbose:
            host = (writer.get_extra_info("peername") or ("-",))[0]
            stamp = time.strftime("%d/%b/%Y %H:%M:%S")
            print(f'{host} - - [{stamp}] "{line}" {status} -', file=sys.stderr)

    # -- routes --------------------------------------------------------------
    async def _route(
        self, method: str, target: str, headers, body: bytes
    ) -> tuple[int, dict | list, float | None]:
        """``(status, payload, retry_after)`` for one parsed request."""
        service = self.service
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        draining = self.draining.is_set()
        try:
            if path == "/healthz" and draining:
                return 503, {"status": "draining"}, None
            if path == "/healthz":
                return 200, {"status": "ok"}, None
            if path == "/v1/models" and method == "GET":
                return 200, {"models": list(MODEL_NAMES)}, None
            if path == "/v1/samples" and method == "GET":
                return 200, {"samples": await service.sample_listing()}, None
            if path == "/v1/stats" and method == "GET":
                return 200, service.stats() | {"draining": draining}, None
            if path == "/v1/classify":
                if draining:
                    raise ServiceError(
                        503, "server is draining", retry_after=1.0
                    )
                self._active += 1
                try:
                    params = _classify_params(
                        method, split.query, headers, body
                    )
                    result = await asyncio.wait_for(
                        service.classify(**params), self.request_timeout_s
                    )
                    return 200, result, None
                finally:
                    self._active -= 1
            raise ServiceError(404, f"no such endpoint: {path}")
        except ServiceError as exc:
            return exc.status, {"error": str(exc)}, exc.retry_after
        except LoadShedError as exc:
            return 429, {"error": str(exc)}, exc.retry_after
        except DeadlineExceeded as exc:
            # The request's own budget ran out: shed-shaped, not a fault.
            service.engine.stats._bump("shed")
            return 429, {"error": f"deadline exceeded: {exc}"}, 1.0
        except AllProvidersUnavailable as exc:
            return 503, {"error": str(exc)}, exc.retry_after
        except TransientError as exc:
            return 503, {
                "error": f"upstream unavailable: {type(exc).__name__}: {exc}"
            }, 1.0
        except asyncio.TimeoutError:
            return 504, {"error": "request timed out"}, None
        except Exception as exc:  # pragma: no cover - defensive
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, None

    # -- lifecycle -----------------------------------------------------------
    def drain(self, timeout: float = 10.0) -> bool:
        """Stop taking work, let in-flight requests finish, then close.

        Returns ``True`` when every in-flight request completed inside
        ``timeout`` (a clean drain); ``False`` when the timeout cut
        stragglers off — :meth:`close` then cancels their coalesced
        futures so nothing blocks shutdown either way.
        """
        self.draining.set()
        deadline = time.monotonic() + timeout
        while self._active > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        clean = self._active == 0
        self.close()
        return clean

    def close(self) -> None:
        """Stop accepting, cancel pending work, stop the loop, release
        the socket. Idempotent — the drain path and the CLI's ``finally``
        may both call it."""
        self.draining.set()
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout=10.0)
        self.loop.close()
        self._sock.close()
