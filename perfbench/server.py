"""The prediction server in its own process: the program under test.

Builds the ``repro-paper serve`` stack at the CLI's defaults over the
stores under ``--root`` and listens on an ephemeral localhost port. It
prints ``{"url": ..., "jobs": ...}`` once listening, then answers one command per
stdin line with one JSON line on stdout:

* ``usage`` — this process's CPU seconds and syscall write bytes so far;
* ``quit`` — close the server (and, with ``--trace``, write the spans)
  and exit.

``--trace PATH`` wraps the service, the response store and the prompt,
set-up and model layers with the spans of :mod:`tracing`.

    PYTHONPATH=src python3 perfbench/server.py --root stores
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from sweep import install_layer_wrappers, open_stores, read_wchar  # noqa: E402
from tracing import (  # noqa: E402
    TracedStore,
    Tracer,
    patch_function,
    write_chrome_trace,
)


class TracedService:
    """``PredictionService`` proxy whose ``classify`` is one span."""

    def __init__(self, service, tracer: Tracer):
        self._service = service
        self.classify = tracer.wrap_async(service.classify, "serve.classify")

    def __getattr__(self, name):
        return getattr(self._service, name)


def build_server(root: Path, tracer: Tracer | None):
    """The object graph ``repro-paper serve --port 0`` builds, with the
    parser's own defaults."""
    from repro.cli import build_parser
    from repro.serve import (
        AsyncEvalEngine,
        BreakerPolicy,
        HedgePolicy,
        PredictionServer,
        PredictionService,
        RateLimiter,
        RetryPolicy,
    )

    args = build_parser().parse_args(["serve", "--port", "0"])
    store = open_stores(root)
    if tracer is not None:
        store = TracedStore(store, tracer)
    engine = AsyncEvalEngine(
        store=store,
        retry=RetryPolicy(
            max_attempts=args.retries, timeout_s=args.attempt_timeout
        ),
        limiter=RateLimiter(args.rate_limit, burst=args.burst),
        max_concurrency=args.max_concurrency,
        breaker=BreakerPolicy(
            window=args.breaker_window,
            threshold=args.breaker_threshold,
            cooldown_s=args.breaker_cooldown,
        ),
        hedge=None if args.no_hedge else HedgePolicy(delay_s=args.hedge_delay),
    )
    service = PredictionService(
        engine,
        provider_family=args.provider_family,
        jobs=args.jobs,
        queue_budget=args.queue_budget,
    )
    if tracer is not None:
        service = TracedService(service, tracer)
    return PredictionServer(service, host=args.host, port=args.port)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, required=True,
                    help="store root: responses/, profiles/, artifacts/")
    ap.add_argument("--trace", type=Path, default=None,
                    help="record layer spans and write them here")
    args = ap.parse_args(argv)

    t_import = time.monotonic()
    import repro.serve.http
    import repro.serve.providers
    import_s = time.monotonic() - t_import

    tracer = Tracer(run_id=args.trace.stem) if args.trace else None
    if tracer is not None:
        install_layer_wrappers(tracer)
        patch_function(
            "repro.serve.http", "build_classify_prompt",
            tracer.wrap(
                repro.serve.http.build_classify_prompt, "prompts.build"
            ),
        )
        provider = repro.serve.providers.EmulatedProvider
        provider.complete = tracer.wrap_async(provider.complete, "llm.complete")

    server = build_server(args.root, tracer).start()
    print(json.dumps({"url": server.url, "jobs": server.service.jobs}),
          flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "usage":
            t = os.times()
            print(json.dumps({
                "cpu_s": t.user + t.system, "wchar": read_wchar(),
            }), flush=True)
        elif command == "quit":
            break
    server.close()
    out: dict = {"import_s": import_s}
    if tracer is not None:
        write_chrome_trace(args.trace, tracer.chrome_events())
        out |= {"layers": tracer.self_times(), "counts": tracer.counts,
               "store_get_s": tracer.durations("store.get"),
               "classify_s": tracer.durations("serve.classify")}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
