"""Query the roofline-prediction service over HTTP.

A client for the ``repro-paper serve`` endpoint. Two modes:

* ``python examples/serve_predictions.py --url http://127.0.0.1:8077``
  talks to an already-running server (start one with
  ``repro-paper serve --warm``).
* ``python examples/serve_predictions.py`` (no flags) self-hosts: it
  warms a response cache with a small batch sweep, starts an in-process
  server on an ephemeral port, and runs the same client against it —
  a one-command demo that also shows the zero-completion warm path and
  request coalescing in the ``/v1/stats`` counters.

Run:  python examples/serve_predictions.py [--url URL]
"""

import argparse
import json
import sys
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor

MODEL = "o3-mini-high"
QUERIES = 6          # distinct kernels to classify
BURST = 12           # concurrent identical requests (coalescing demo)
SHED_RETRIES = 4     # extra tries when the server sheds with 429


def get(url, *, _sleep=time.sleep, **params):
    """GET a JSON endpoint, honoring 429 + ``Retry-After`` shedding.

    A loaded server answers 429 with a ``Retry-After`` hint (seconds);
    the polite client waits exactly that long and retries, up to
    ``SHED_RETRIES`` times. ``_sleep`` is injectable so tests run the
    backoff in virtual time.
    """
    if params:
        url = f"{url}?{urllib.parse.urlencode(params)}"
    for attempt in range(SHED_RETRIES + 1):
        try:
            with urllib.request.urlopen(url, timeout=120) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code != 429 or attempt >= SHED_RETRIES:
                raise
            try:
                hint = float(exc.headers.get("Retry-After") or 1.0)
            except ValueError:
                hint = 1.0
            exc.close()
            _sleep(max(0.0, hint))


def run_client(base_url: str) -> None:
    health = get(f"{base_url}/healthz")
    print(f"server {base_url}: {health['status']}")

    models = get(f"{base_url}/v1/models")["models"]
    print(f"servable models: {', '.join(models)}\n")

    uids = [s["uid"] for s in get(f"{base_url}/v1/samples")["samples"]]
    picks = uids[:: max(1, len(uids) // QUERIES)][:QUERIES]

    print(f"{'kernel':34s} {'prediction':10s} {'truth':10s} ok cached")
    for uid in picks:
        r = get(f"{base_url}/v1/classify", uid=uid, model=MODEL)
        print(f"{uid:34s} {str(r['prediction']):10s} {r['truth']:10s} "
              f"{'y' if r['correct'] else 'n'}  {r['cached']}")

    # A burst of identical queries: the server coalesces all in-flight
    # duplicates onto one completion (and serves the rest from cache).
    with ThreadPoolExecutor(max_workers=BURST) as pool:
        futures = [
            pool.submit(get, f"{base_url}/v1/classify",
                        uid=picks[0], model=MODEL, variant="few-shot-2")
            for _ in range(BURST)
        ]
        answers = {f.result()["prediction"] for f in futures}
    assert len(answers) == 1, "burst answers disagree"

    stats = get(f"{base_url}/v1/stats")
    print(f"\nburst of {BURST} identical few-shot queries -> "
          f"one answer {answers.pop()!r}")
    print("server stats: "
          f"{stats['hits']} hits, {stats['completions']} completions, "
          f"{stats['coalesced']} coalesced")


def self_hosted_demo() -> None:
    from repro.eval.engine import DiskResponseStore, EvalEngine
    from repro.eval.rq23 import classification_items
    from repro.dataset import paper_dataset
    from repro.llm import get_model
    from repro.runtime import env_root
    from repro.serve import (
        AsyncEvalEngine,
        PredictionServer,
        PredictionService,
    )
    from repro.store.families import RESPONSES

    store = DiskResponseStore(env_root(RESPONSES.root_env, RESPONSES.dirname))
    samples = list(paper_dataset().balanced)
    # Warm the store exactly how the batch CLI would (same prompts, same
    # cache keys) so the served queries below are all hits.
    EvalEngine(jobs=4, store=store).run(
        get_model(MODEL), classification_items(samples, variant="zero-shot")
    )
    print(f"warmed cache: {len(store)} responses @ {store.root}\n")

    service = PredictionService(AsyncEvalEngine(store=store))
    server = PredictionServer(service, port=0).start()
    try:
        run_client(server.url)
    finally:
        server.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", default=None,
                        help="base URL of a running repro-paper serve "
                             "instance (default: self-host a demo server)")
    args = parser.parse_args()
    if args.url:
        run_client(args.url.rstrip("/"))
    else:
        self_hosted_demo()
    return 0


if __name__ == "__main__":
    sys.exit(main())
