"""CI chaos test for ``repro-paper serve`` resilience.

End-to-end, across real processes:

1. start ``repro-paper serve`` with a failover chain
   (``--provider-family emulated,wire``) and an injected
   ``provider_brownout`` plan that permanently browns out the primary
   (``emulated:o3-mini-high``);
2. issue **cold** HTTP classification queries (empty response cache, so
   every one must reach a provider) and assert each answers 200 —
   failover to the wire adapter keeps the service up while the primary's
   circuit breaker opens;
3. assert ``/v1/stats`` tells that story: a failed-over count covering
   every cold query, the primary's breaker open, the fallback's closed;
4. SIGTERM the server and assert the graceful-drain contract: it prints
   the drain lines, leaves a ``serve-stats.json`` snapshot in the cache
   dir (surfaced by ``repro-paper cache``), and exits 0 with no stuck
   threads.

Exits non-zero with a diagnostic on any violation.

Run:  PYTHONPATH=src python scripts/serve_chaos.py [--limit N]
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.parse
import urllib.request
from pathlib import Path

MODEL = "o3-mini-high"
PRIMARY_LABEL = f"emulated:{MODEL}"
FALLBACK_LABEL = f"openai:{MODEL}"
CLI = [sys.executable, "-m", "repro.cli"]
BROWNOUT = f"seed=1;provider_brownout:attempts=9999,provider={PRIMARY_LABEL}"


def run_cli(*args: str) -> str:
    proc = subprocess.run(
        [*CLI, *args], capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
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


def start_server(cache_dir: str) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [
            *CLI, "serve", "--port", "0", "--cache-dir", cache_dir, "--warm",
            "--provider-family", "emulated,wire",
            "--inject-faults", BROWNOUT,
            "--retries", "2", "--no-hedge", "--drain-timeout", "5",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 300
    url = None
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(f"serve exited rc={proc.wait()} before binding")
        sys.stdout.write(f"  [serve] {line}")
        m = re.search(r"serving on (http://\S+)", line)
        if m:
            url = m.group(1)
            break
    if url is None:
        proc.kill()
        raise SystemExit("serve never reported its URL")
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
    parser.add_argument("--limit", type=int, default=6,
                        help="cold kernels to query (default 6)")
    parser.add_argument("--cache-dir", default=None,
                        help="response cache dir, kept afterwards (default: "
                             "a fresh temp dir, so every query is cold, "
                             "removed on exit)")
    args = parser.parse_args()
    if args.cache_dir:
        return smoke(args, args.cache_dir)
    with tempfile.TemporaryDirectory(prefix="serve-chaos-") as cache_dir:
        return smoke(args, cache_dir)


def smoke(args: argparse.Namespace, cache_dir: str) -> int:

    print(f"1) starting serve with a browned-out primary "
          f"(chain emulated,wire; cache @ {cache_dir})")
    proc, url = start_server(cache_dir)
    try:
        uids = [s["uid"] for s in get_json(f"{url}/v1/samples")["samples"]]
        picks = uids[:: max(1, len(uids) // args.limit)][:args.limit]

        print(f"2) issuing {len(picks)} cold queries "
              "(each must fail over to the wire adapter)")
        for uid in picks:
            body = get_json(f"{url}/v1/classify", uid=uid, model=MODEL)
            if body["cached"]:
                raise SystemExit(f"{uid}: served warm, expected cold")
            if body["served_by"] != FALLBACK_LABEL:
                raise SystemExit(
                    f"{uid}: served by {body['served_by']!r}, expected "
                    f"failover to {FALLBACK_LABEL!r}"
                )
            print(f"   {uid}: {body['prediction']} via {body['served_by']}")

        print("3) checking /v1/stats for the failover story")
        stats = get_json(f"{url}/v1/stats")
        if stats["failed_over"] < len(picks):
            raise SystemExit(
                f"failed_over={stats['failed_over']} < {len(picks)} "
                "cold queries — failover did not carry the burst"
            )
        breakers = stats["breakers"]
        primary = breakers.get(PRIMARY_LABEL)
        fallback = breakers.get(FALLBACK_LABEL)
        if primary is None or primary["state"] == "closed":
            raise SystemExit(
                f"primary breaker never opened under the brownout: {primary}"
            )
        if fallback is None or fallback["state"] != "closed":
            raise SystemExit(f"fallback breaker unhealthy: {fallback}")
        if stats["misses"] != len(picks):
            raise SystemExit(
                f"expected {len(picks)} misses, saw {stats['misses']}"
            )
        print(f"   failed_over={stats['failed_over']} "
              f"primary={primary['state']} (opened {primary['opened']}x) "
              f"fallback={fallback['state']}")

        print("4) SIGTERM → graceful drain")
        proc.send_signal(signal.SIGTERM)
        try:
            tail, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise SystemExit("serve did not exit within 30s of SIGTERM — "
                             "stuck threads?")
        for line in tail.splitlines():
            print(f"  [serve] {line}")
        if proc.returncode != 0:
            raise SystemExit(
                f"serve exited rc={proc.returncode} after SIGTERM, expected 0"
            )
        if "draining..." not in tail or "drained clean" not in tail:
            raise SystemExit(f"drain lines missing from output:\n{tail}")
    finally:
        if proc.poll() is None:
            proc.kill()

    print("5) checking the stats snapshot survives for `repro-paper cache`")
    snapshot = Path(cache_dir) / "serve-stats.json"
    if not snapshot.is_file():
        raise SystemExit(f"no stats snapshot at {snapshot}")
    data = json.loads(snapshot.read_text())
    if data["failed_over"] < len(picks):
        raise SystemExit(f"snapshot lost the failover counters: {data}")
    out = run_cli("cache", "--cache-dir", cache_dir)
    if "serve:" not in out or "failed over" not in out:
        raise SystemExit(f"`cache` does not surface the snapshot:\n{out}")
    print("   snapshot surfaced by `repro-paper cache`")

    print("serve chaos: OK (failover kept every query answering, breaker "
          "opened, SIGTERM drained clean, exit 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
