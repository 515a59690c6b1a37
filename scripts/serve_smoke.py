"""CI smoke test for ``repro-paper serve``.

End-to-end, across real processes:

1. warm a response cache with the batch CLI (``rq2 --limit N``) and
   record the batch path's per-kernel labels;
2. start ``repro-paper serve`` as a subprocess against that cache;
3. issue HTTP classification queries for the warmed kernels and assert
   every answer is served from cache with labels matching the batch
   CLI's (``repro-paper classify`` is cross-checked for the first
   kernels);
4. repeat the queries over one persistent HTTP/1.1 connection, with
   the same checks, and assert the connection is never reopened;
5. assert the server's counters report **zero** new completions;
6. share the cache between writers: while the server computes and
   stores ``no-hint`` misses, a batch ``rq3 --limit N`` writes into the
   same directory from another process;
7. assert neither writer lost the other's entries: a batch ``rq3``
   replay prints ``, 0 new completions`` and a restarted server answers
   every ``no-hint`` query from cache with the same prediction;
8. assert ``repro-paper doctor --dry-run`` finds the cache healthy.

Exits non-zero with a diagnostic on any violation.

Run:  PYTHONPATH=src python scripts/serve_smoke.py [--limit N]
"""

from __future__ import annotations

import argparse
import http.client
import json
import re
import subprocess
import sys
import tempfile
import time
import urllib.parse
import urllib.request
from pathlib import Path

MODEL = "o3-mini-high"
CLI = [sys.executable, "-m", "repro.cli"]


def run_cli(*args: str) -> str:
    proc = subprocess.run(
        [*CLI, *args], capture_output=True, text=True, timeout=600
    )
    if proc.returncode not in (0, 1):  # classify exits 1 on a wrong label
        raise SystemExit(
            f"command {' '.join(args)} failed rc={proc.returncode}:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return proc.stdout


def get_json(url: str, **params) -> dict:
    if params:
        url = f"{url}?{urllib.parse.urlencode(params)}"
    with urllib.request.urlopen(url, timeout=120) as resp:
        return json.loads(resp.read().decode("utf-8"))


def batch_labels(cache_dir: str, limit: int) -> dict[str, str]:
    """Warm the cache via the batch CLI, then replay the same grid
    in-process (same code path, zero completions) to collect its labels."""
    out = run_cli(
        "rq2", "--model", MODEL, "--limit", str(limit),
        "--cache-dir", cache_dir, "--jobs", "2",
    )
    if "RQ2 (zero-shot)" not in out:
        raise SystemExit(f"unexpected rq2 output:\n{out}")

    from repro.dataset import paper_dataset
    from repro.eval.engine import DiskResponseStore, EvalEngine
    from repro.eval.rq23 import classification_items
    from repro.llm import get_model

    samples = list(paper_dataset().balanced)[:limit]
    engine = EvalEngine(store=DiskResponseStore(cache_dir))
    result = engine.run(
        get_model(MODEL), classification_items(samples, variant="zero-shot")
    )
    if engine.stats.completions != 0:
        raise SystemExit(
            f"replay of the warmed cache recomputed "
            f"{engine.stats.completions} completions"
        )
    return {
        r.item_id: r.prediction.word if r.prediction else None
        for r in result.records
    }


def check_warm(uid: str, body: dict, label: str) -> None:
    """A warmed kernel's answer: served from cache, the batch label."""
    if not body["cached"]:
        raise SystemExit(f"{uid}: served cold, expected a warm hit")
    if body["prediction"] != label:
        raise SystemExit(
            f"{uid}: HTTP prediction {body['prediction']!r} != "
            f"batch CLI label {label!r}"
        )


def keep_alive_queries(url: str, labels: dict[str, str]) -> None:
    """Query every warmed kernel over one persistent connection."""
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=120)
    try:
        sock = None
        for uid, label in labels.items():
            query = urllib.parse.urlencode({"uid": uid, "model": MODEL})
            conn.request("GET", f"/v1/classify?{query}")
            resp = conn.getresponse()
            body = json.loads(resp.read().decode("utf-8"))
            if resp.status != 200:
                raise SystemExit(f"{uid}: keep-alive query got {resp.status}")
            check_warm(uid, body, label)
            sock = sock or conn.sock
            if conn.sock is not sock or resp.will_close:
                raise SystemExit(f"{uid}: keep-alive connection was closed")
    finally:
        conn.close()


def stop_server(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()


def shared_writers(url: str, cache_dir: str, limit: int) -> dict[str, str]:
    """Run a batch ``rq3 --limit N`` into ``cache_dir`` while the server
    stores ``no-hint`` misses there too; returns the served predictions.
    The server keeps taking misses until the batch exits (at least
    ``limit`` of them), so the two processes write at the same time."""
    from repro.dataset import paper_dataset

    uids = [s.uid for s in paper_dataset().balanced]
    batch = subprocess.Popen(
        [*CLI, "rq3", "--model", MODEL, "--limit", str(limit),
         "--cache-dir", cache_dir, "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    served: dict[str, str] = {}
    for uid in uids:
        if len(served) >= limit and batch.poll() is not None:
            break
        body = get_json(
            f"{url}/v1/classify", uid=uid, model=MODEL, variant="no-hint"
        )
        if body["cached"]:
            raise SystemExit(f"{uid}: no-hint served warm on a cold key")
        served[uid] = body["prediction"]
    out, _ = batch.communicate(timeout=600)
    if batch.returncode != 0 or "RQ3" not in out:
        raise SystemExit(f"batch rq3 failed rc={batch.returncode}:\n{out}")
    return served


def start_server(cache_dir: str) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [*CLI, "serve", "--port", "0", "--cache-dir", cache_dir, "--warm"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 300
    url = None
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"serve exited rc={proc.wait()} before binding"
            )
        sys.stdout.write(f"  [serve] {line}")
        m = re.search(r"serving on (http://\S+)", line)
        if m:
            url = m.group(1)
            break
    if url is None:
        proc.kill()
        raise SystemExit("serve never reported its URL")
    # Wait for liveness.
    for _ in range(100):
        try:
            if get_json(f"{url}/healthz")["status"] == "ok":
                return proc, url
        except OSError:
            time.sleep(0.1)
    proc.kill()
    raise SystemExit("serve bound but /healthz never came up")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=8,
                        help="kernels to warm and query (default 8)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory, kept afterwards (default: a temp "
                             "dir, removed on exit)")
    args = parser.parse_args()

    if args.cache_dir:
        return smoke(args, args.cache_dir)
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as cache_dir:
        return smoke(args, cache_dir)


def smoke(args: argparse.Namespace, cache_dir: str) -> int:
    print(f"1) warming cache @ {cache_dir} via batch CLI ({args.limit} kernels)")
    labels = batch_labels(cache_dir, args.limit)
    print(f"   batch labels: {labels}")

    print("2) starting repro-paper serve against the warm cache")
    proc, url = start_server(cache_dir)
    try:
        print(f"3) querying {len(labels)} kernels over HTTP @ {url}")
        for uid, label in labels.items():
            body = get_json(f"{url}/v1/classify", uid=uid, model=MODEL)
            check_warm(uid, body, label)
            print(f"   {uid}: {body['prediction']} (cached)")

        # Cross-check the single-kernel CLI on the first two kernels: its
        # "prediction:" line must agree with the served answer.
        for uid in list(labels)[:2]:
            out = run_cli("classify", uid, "--model", MODEL)
            m = re.search(r"prediction:\s+(\w+)", out)
            if not m or m.group(1) != labels[uid]:
                raise SystemExit(
                    f"classify CLI disagrees for {uid}: "
                    f"{m.group(1) if m else out!r} != {labels[uid]!r}"
                )
        print("   classify CLI cross-check agrees")

        print(f"4) querying {len(labels)} kernels over one keep-alive "
              f"connection")
        keep_alive_queries(url, labels)
        print("   every answer cached and equal to the batch label")

        print("5) checking server counters")
        stats = get_json(f"{url}/v1/stats")
        if stats["completions"] != 0:
            raise SystemExit(
                f"server issued {stats['completions']} new completions; "
                "expected 0 on a warm cache"
            )
        if stats["hits"] != 2 * len(labels):
            raise SystemExit(
                f"expected {2 * len(labels)} cache hits, saw {stats['hits']}"
            )
        print(f"   stats: {stats}")

        print("6) server no-hint misses and a batch rq3 share the cache dir")
        served = shared_writers(url, cache_dir, args.limit)
        print(f"   server stored {len(served)} no-hint answers meanwhile")
    finally:
        stop_server(proc)

    print("7) neither writer lost the other's entries")
    out = run_cli(
        "rq3", "--model", MODEL, "--limit", str(args.limit),
        "--cache-dir", cache_dir, "--jobs", "2",
    )
    if ", 0 new completions" not in out:
        raise SystemExit(f"rq3 replay recomputed entries:\n{out}")
    print("   rq3 replay: 0 new completions")
    proc, url = start_server(cache_dir)
    try:
        for uid, label in served.items():
            body = get_json(
                f"{url}/v1/classify", uid=uid, model=MODEL, variant="no-hint"
            )
            if not body["cached"] or body["prediction"] != label:
                raise SystemExit(
                    f"{uid}: restarted server answered "
                    f"{body['prediction']!r} (cached={body['cached']}), "
                    f"expected cached {label!r}"
                )
        print(f"   restarted server: {len(served)} no-hint answers cached")
    finally:
        stop_server(proc)

    print("8) doctor --dry-run over the shared cache")
    doctor = subprocess.run(
        [*CLI, "doctor", "--dry-run", "--cache-dir", cache_dir],
        capture_output=True, text=True, timeout=600,
    )
    if doctor.returncode != 0:
        raise SystemExit(f"doctor found damage:\n{doctor.stdout}")
    print("   healthy")

    print("serve smoke: OK (warm HTTP path, per-request and keep-alive, "
          "0 new completions, "
          "labels match the batch CLI, shared cache keeps both writers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
