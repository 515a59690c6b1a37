"""Open-loop load generator for ``/v1/classify``.

Requests follow a seeded Poisson schedule: ``count`` arrival times drawn
uniformly over the phase and sorted, which is a Poisson process of the
given rate conditioned on its count, so every phase spans the same time.
A fixed number of persistent HTTP/1.1 keep-alive connections, each owned
by one thread, send them: a thread takes the next request, waits until it
is due and sends it. When every connection is busy, a due request waits
for the first one free, so a stall shows as queueing on later requests.
Latency runs from each request's due time.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlencode

MODEL = "o3-mini-high"
VARIANTS = ("zero-shot", "few-shot-2")
MISS_VARIANT = "no-hint"  # absent from the warm snapshot
MISS_SHARE = 0.1


@dataclass(frozen=True)
class Request:
    due: float  # seconds after the phase starts
    uid: str
    gpu: str
    variant: str

    @property
    def key(self) -> str:
        return f"{self.uid}|{self.gpu}|{self.variant}"

    @property
    def path(self) -> str:
        query = urlencode({"uid": self.uid, "model": MODEL, "gpu": self.gpu,
                           "variant": self.variant})
        return f"/v1/classify?{query}"


@dataclass
class Outcome:
    request: Request
    connection: int
    status: int  # 0 when the connection failed
    prediction: str | None
    due: float  # absolute time.monotonic()
    picked: float  # when a free connection took the request
    sent: float
    done: float

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_s(self) -> float:
        return self.done - self.due if self.ok else math.inf


def make_schedule(
    seed: int, rate: float, count: int, uids, gpus
) -> list[Request]:
    rng = random.Random(seed)
    span = count / rate
    dues = sorted(rng.uniform(0.0, span) for _ in range(count))
    out = []
    for due in dues:
        variant = (
            MISS_VARIANT if rng.random() < MISS_SHARE else rng.choice(VARIANTS)
        )
        out.append(Request(due, rng.choice(uids), rng.choice(gpus), variant))
    return out


def get_json(conn: http.client.HTTPConnection, path: str):
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def run_open_loop(
    host: str, port: int, requests: list[Request], connections: int
) -> list[Outcome]:
    """Send ``requests`` on their schedule; outcomes in schedule order."""
    outcomes: list[Outcome | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    start = time.monotonic() + 0.05

    def worker(connection: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                req = requests[i]
                due = start + req.due
                picked = time.monotonic()
                if picked < due:
                    time.sleep(due - picked)
                sent = time.monotonic()
                try:
                    status, body = get_json(conn, req.path)
                    prediction = body.get("prediction")
                except (OSError, http.client.HTTPException, ValueError):
                    status, prediction = 0, None
                    conn.close()  # reconnects on the next request
                outcomes[i] = Outcome(req, connection, status, prediction,
                                      due, picked, sent, time.monotonic())
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(c,))
               for c in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes  # type: ignore[return-value]


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(outcomes: list[Outcome]) -> dict:
    """Latency quantiles from due time, and how late the generator ran."""
    latencies = [o.latency_s * 1e3 for o in outcomes]
    ok = [o for o in outcomes if o.ok]
    tail = latencies[-max(1, len(latencies) // 5):]
    return {
        "sent": len(outcomes),
        "ok": len(ok),
        "failed": len(outcomes) - len(ok),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "tail_p50_ms": percentile(tail, 50),
        # Waiting for a free connection, and oversleeping once one was.
        "queue_ms": statistics.median(
            max(0.0, o.picked - o.due) * 1e3 for o in outcomes),
        "lag_ms": statistics.median(
            (o.sent - max(o.picked, o.due)) * 1e3 for o in outcomes),
        "rtt_ms": statistics.median((o.done - o.sent) * 1e3 for o in ok)
        if ok else 0.0,
        "span_s": max(o.done for o in outcomes) - min(o.due for o in outcomes),
    }
