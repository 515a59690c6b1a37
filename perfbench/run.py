"""The repository benchmark: hardware-matrix sweeps and warm serving.

    python3 perfbench/run.py --workload matrix-cold --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``matrix-cold`` — o3-mini-high × the 6 ``GPU_DATABASE`` GPUs ×
  {rq2, rq3} × the 340 balanced kernels (4080 units) in a fresh process
  at the CLI defaults, over an empty store root.
* ``serve-warm`` — the prediction server over a fresh copy of the warm
  snapshot, driven by an open-loop Poisson schedule on 2 keep-alive
  connections at 20 requests/s, then up a rate ladder for ``max_rps``.

Every sweep and server runs in its own process on its own copy of the
stores, so no process memo or store growth carries from one into the
next. The warm snapshot is the stores one cold sweep fills; it is built
once per source tree under ``$CARGO_TARGET_DIR`` (default
``.bench_build``) together with the reference answers, and one warm
replay over a copy of it must then make zero completions.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
workload once untraced and once with the layer wrappers of
:mod:`tracing`, and reports the per-layer metrics, a self-time table, a
Chrome trace file and the tracing overhead. Every output is checked:
every sweep must reproduce the pinned sweep digest, and every answer the
server gives must equal the batch answer for the same (kernel, GPU,
prompt variant). A mismatch exits 1 without a result. The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from loadgen import (  # noqa: E402
    Request,
    get_json,
    make_schedule,
    percentile,
    run_open_loop,
    summarize,
)
from tracing import write_chrome_trace  # noqa: E402

CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

#: ``MatrixResult.digest()`` of the grid; every matrix run must match it.
MATRIX_DIGEST = "9f1912c99e55ad9342cd7c872ba8cc0a82c4cf385549ee9654c72cc9f5c4ebee"
#: SHA-256 of the reference answers (matrix records plus the batch
#: ``no-hint`` run) that serve responses are checked against.
ANSWERS_DIGEST = (
    "64c32b24928d759f5c6327b1340e581c74d05d6f29ca6a78ba50cbfb3f6f57ec"
)
UNITS = 4080

NAMED_RPS = 20
LADDER_RPS = (40, 80, 160, 320)
CONNECTIONS = 2
#: The fewest requests for which p99 has ten samples beyond it.
NAMED_REQUESTS = 1000
TRACE_REQUESTS = 400
LADDER_STEP_S = 5.0
LIMIT_P99_MS = 100.0
#: Set-ups measured per run; extra processes stop once set up.
MIN_SETUPS = 3
#: Sweeps per matrix run, however short ``--seconds`` is.
MIN_SWEEPS = 2


class CheckFailed(Exception):
    """An output of the program differs from its reference."""


def build_dir() -> Path:
    return CHECKOUT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def reap(proc: subprocess.Popen) -> tuple[int, object]:
    """Wait for ``proc``; its exit code and resource usage."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# -- warm snapshot -----------------------------------------------------------
def source_key() -> str:
    """Hash of the program and of the sweep that builds the snapshot."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [HERE / "sweep.py"]:
        h.update(str(path.relative_to(CHECKOUT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def sweep_process(root: Path, *options: str) -> tuple[dict, float, object]:
    """Run ``sweep.py`` over ``root``: its report, wall time from spawn to
    exit, and resource usage."""
    cmd = [sys.executable, str(HERE / "sweep.py"), "--root", str(root),
           *options, "--spawn", repr(time.monotonic())]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=CHECKOUT)
    with proc.stdout:
        out = proc.stdout.read()
    code, usage = reap(proc)
    wall = time.monotonic() - t0
    if code != 0:
        raise RuntimeError(f"sweep process exited {code}")
    return json.loads(out.splitlines()[-1]), wall, usage


def run_setup(root: Path) -> float:
    """Set-up time of one sweep process that stops once set up."""
    return sweep_process(root, "--setup-only")[0]["setup_s"]


def run_sweep(root: Path, *options: str) -> dict:
    """One checked sweep over ``root``; its report plus wall, CPU and peak
    memory as seen from here."""
    report, wall, usage = sweep_process(root, *options)
    if report["digest"] != MATRIX_DIGEST:
        raise CheckFailed(f"matrix digest {report['digest']} != pinned "
                          f"{MATRIX_DIGEST}")
    if report["units"] != UNITS:
        raise CheckFailed(f"{report['units']} units, expected {UNITS}")
    report.update(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0)
    return report


def check_completions(report: dict, expected: int) -> None:
    if report["completions"] != expected:
        raise CheckFailed(f"{report['completions']} new completions, "
                          f"expected {expected}")


def ensure_snapshot() -> Path:
    """The warm store snapshot and reference answers for this source
    tree, built by one cold sweep the first time they are needed. A warm
    replay over a copy of the snapshot must make no completions."""
    final = build_dir() / f"snapshot-{source_key()}"
    if (final / "answers.json").is_file():
        return final
    final.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix="staging-", dir=final.parent))
    try:
        report = run_sweep(staging / "stores",
                           "--expect", str(staging / "answers.json"))
        check_completions(report, UNITS)
        answers = (staging / "answers.json").read_bytes()
        if hashlib.sha256(answers).hexdigest() != ANSWERS_DIGEST:
            raise CheckFailed("reference answers differ from the pinned "
                              "digest")
        replay = staging / "replay"
        shutil.copytree(staging / "stores", replay)
        check_completions(run_sweep(replay), 0)
        shutil.rmtree(replay)
        for old in final.parent.glob("snapshot-*"):
            shutil.rmtree(old)  # built from another source tree
        staging.rename(final)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return final


def fresh_root(tmp: Path, snapshot: Path | None) -> Path:
    """A new store root: empty, or a copy of the snapshot's stores."""
    root = Path(tempfile.mkdtemp(prefix="stores-", dir=tmp))
    if snapshot is not None:
        shutil.rmtree(root)
        shutil.copytree(snapshot / "stores", root)
    return root


# -- statistics --------------------------------------------------------------
def supported_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99.9/p99/p95/p90 with ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if len(values) * (1 - q / 100.0) >= 10:
            return f"p{q:g}", percentile(values, q)
    return None


def metric(value: float, unit: str, samples: list[float]) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


# -- matrix workload ---------------------------------------------------------
def matrix_metrics(sweeps: list[dict], setups: list[float]) -> dict:
    units_ms = [u * 1e3 for s in sweeps for u in s["unit_s"]]

    def med(key, unit):
        values = [s[key] for s in sweeps]
        return metric(statistics.median(values), unit, values)

    return {
        "wall_s": med("wall_s", "s"),
        "cpu_s": med("cpu_s", "s"),
        "setup_s": metric(statistics.median(setups), "s", setups),
        "peak_rss_mb": med("peak_rss_mb", "MB"),
        "p50_ms": metric(percentile(units_ms, 50), "ms", units_ms),
        "p99_ms": metric(percentile(units_ms, 99), "ms", units_ms),
    }


def cold_sweep(tmp: Path, *options: str) -> tuple[dict, Path]:
    """One checked sweep over a fresh empty store root under ``tmp``; its
    report and the root."""
    root = fresh_root(tmp, None)
    report = run_sweep(root, *options)
    check_completions(report, UNITS)
    return report, root


def run_matrix_workload(seconds: float, tmp: Path, trace: bool) -> dict:
    if trace:
        return trace_matrix(tmp)
    sweeps: list[dict] = []
    deadline = time.monotonic() + seconds
    while len(sweeps) < MIN_SWEEPS or time.monotonic() < deadline:
        report, root = cold_sweep(tmp)
        shutil.rmtree(root)
        sweeps.append(report)
    setups = [s["setup_s"] for s in sweeps]
    while len(setups) < MIN_SETUPS:
        root = fresh_root(tmp, None)
        setups.append(run_setup(root))
        shutil.rmtree(root)
    return {
        "attempted": sum(s["units"] for s in sweeps),
        "failed": sum(s["failed"] for s in sweeps),
        "metrics": matrix_metrics(sweeps, setups),
        "notes": {},
        "context": {"sweeps": len(sweeps), "jobs": sweeps[0]["jobs"],
                    "backend": sweeps[0]["backend"]},
    }


def trace_matrix(tmp: Path) -> dict:
    plain, _ = cold_sweep(tmp)
    trace_file = trace_path("matrix-cold")
    traced, root = cold_sweep(tmp, "--trace", str(trace_file))
    layers, counts = traced["layers"], traced["counts"]
    per_layer = layer_metrics(layers, counts)
    per_layer.update({
        "repro.import_s": traced["import_s"],
        "store.write_bytes": traced["write_bytes"],
        "store.disk_bytes": tree_bytes(root),
        "trace.overhead_wall_s": traced["wall_s"] - plain["wall_s"],
        "trace.overhead_p50_ms": (percentile(traced["unit_s"], 50)
                                  - percentile(plain["unit_s"], 50)) * 1e3,
    })
    return {
        "attempted": plain["units"] + traced["units"],
        "failed": plain["failed"] + traced["failed"],
        "per_layer": per_layer,
        "layers": layers,
        "trace_file": trace_file,
        "context": {"jobs": traced["jobs"], "backend": traced["backend"]},
    }


# -- per-layer metrics -------------------------------------------------------
#: per-layer metric → (span name, "self" seconds or "n" count)
SPAN_METRICS = {
    "kernels.corpus_s": ("kernels.corpus", "self"),
    "tokenizer.train_s": ("tokenizer.train", "self"),
    "dataset.build_s": ("dataset.build", "self"),
    "eval.scenario_s": ("eval.scenario", "self"),
    "eval.scenario_n": ("eval.scenario", "n"),
    "prompts.build_s": ("prompts.build", "self"),
    "eval.run_s": ("eval.run", "self"),
    "llm.complete_s": ("llm.complete", "self"),
    "llm.complete_n": ("llm.complete", "n"),
    "store.get_s": ("store.get", "self"),
    "store.get_n": ("store.get", "n"),
    "store.put_s": ("store.put", "self"),
    "store.put_n": ("store.put", "n"),
    "store.flush_s": ("store.flush", "self"),
    "store.flush_n": ("store.flush", "n"),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of ``BENCHMARK.json`` with its unit."""
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def layer_metrics(layers: dict, counts: dict) -> dict:
    """Per-layer metric values from spans and counters; a layer the
    workload does not exercise reads 0."""
    out = dict.fromkeys(per_layer_units(), 0)
    for name, (span, field) in SPAN_METRICS.items():
        out[name] = layers.get(span, {}).get(field, 0)
    gets = counts.get("store.get", 0)
    out["prompts.build_n"] = counts.get("prompts.build", 0)
    out["eval.units_n"] = counts.get("eval.run", 0)
    out["store.hit_share"] = counts.get("store.hit", 0) / gets if gets else 0.0
    return out


def trace_path(workload: str) -> Path:
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    return traces / f"{workload}-{os.getpid()}.json"


# -- serve workload ----------------------------------------------------------
class Server:
    """A server process over ``root``; set-up is timed from spawn until
    ``/healthz`` answers 200 and one classify per GPU has been answered."""

    def __init__(self, root: Path, answers: dict, gpus: list[str],
                 uids: list[str], trace: Path | None = None):
        cmd = [sys.executable, str(HERE / "server.py"), "--root", str(root)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=CHECKOUT,
        )
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server process exited during start-up")
            info = json.loads(line)
            self.jobs = info["jobs"]
            host, port = info["url"].rsplit("/", 1)[1].rsplit(":", 1)
            self.host, self.port = host, int(port)
            conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
            try:
                if get_json(conn, "/healthz")[0] != 200:
                    raise RuntimeError("server is not healthy")
                for gpu in gpus:
                    req = Request(0.0, uids[0], gpu, "zero-shot")
                    status, body = get_json(conn, req.path)
                    check_answer(answers, req, status, body.get("prediction"))
            finally:
                conn.close()
            self.setup_s = time.monotonic() - t0
        except BaseException:
            self.close(kill=True)
            raise

    def command(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stats(self) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            return get_json(conn, "/v1/stats")[1]
        finally:
            conn.close()

    def close(self, kill: bool = False) -> tuple[dict, float]:
        """Stop the server; its final report and peak RSS in MB."""
        report: dict = {}
        if kill:
            self.proc.kill()
        else:
            try:
                report = self.command("quit")
            except (OSError, ValueError):
                self.proc.kill()
        self.proc.stdin.close()
        self.proc.stdout.close()
        _, usage = reap(self.proc)
        return report, usage.ru_maxrss / 1024.0


def check_answer(answers: dict, req: Request, status: int,
                 prediction: str | None) -> None:
    if status != 200:
        raise CheckFailed(f"{req.path} answered {status}")
    if prediction != answers[req.key]:
        raise CheckFailed(f"{req.key}: served {prediction!r}, batch "
                          f"answer {answers[req.key]!r}")


def check_outcomes(answers: dict, outcomes) -> None:
    for o in outcomes:
        if o.ok:
            check_answer(answers, o.request, o.status, o.prediction)


def serve_universe(snapshot: Path) -> tuple[dict, list[str], list[str]]:
    answers = json.loads((snapshot / "answers.json").read_text())
    uids = sorted({k.split("|")[0] for k in answers})
    gpus = sorted({k.split("|")[1] for k in answers})
    return answers, uids, gpus


def serve_session(snapshot: Path, tmp: Path, seed: int, requests: int, *,
                  ladder: bool, trace: Path | None = None) -> dict:
    """One server over a fresh snapshot copy: the named-rate phase and,
    with ``ladder``, the rate ladder above it."""
    answers, uids, gpus = serve_universe(snapshot)
    root = fresh_root(tmp, snapshot)
    server = Server(root, answers, gpus, uids, trace)
    try:
        before = server.command("usage")
        named = run_open_loop(
            server.host, server.port,
            make_schedule(seed, NAMED_RPS, requests, uids, gpus), CONNECTIONS,
        )
        after = server.command("usage")
        check_outcomes(answers, named)
        stats = server.stats()
        summary = summarize(named)
        max_rps, steps = 0, []
        if ladder and passes(summary):
            max_rps = NAMED_RPS
            for rate in LADDER_RPS:
                step = run_open_loop(
                    server.host, server.port,
                    make_schedule(seed + rate, rate,
                                  int(rate * LADDER_STEP_S), uids, gpus),
                    CONNECTIONS,
                )
                check_outcomes(answers, step)
                steps.append((rate, summarize(step)))
                if not passes(steps[-1][1]):
                    break
                max_rps = rate
    finally:
        report, rss = server.close()
    return {
        "setup_s": server.setup_s,
        "jobs": server.jobs,
        "summary": summary,
        "outcomes": named,
        "ladder": steps,
        "max_rps": max_rps,
        "cpu_s": after["cpu_s"] - before["cpu_s"],
        "wchar": (after["wchar"] - before["wchar"]
                  if None not in (after["wchar"], before["wchar"]) else None),
        "stats": stats,
        "report": report,
        "peak_rss_mb": rss,
        "disk_bytes": tree_bytes(root),
        "attempted": len(gpus) + len(named) + sum(
            s["sent"] for _, s in steps),
    }


def client_events(outcomes, run_id: str) -> list[dict]:
    """The client side of each request as Chrome trace events, one track
    per connection: the wait from due time to send, then the round trip."""
    pid = os.getpid()
    events = []
    for o in outcomes:
        for name, start, end in (("loadgen.wait", o.due, o.sent),
                                 ("loadgen.request", o.sent, o.done)):
            events.append({
                "name": name, "ph": "X", "ts": start * 1e6,
                "dur": (end - start) * 1e6, "pid": pid, "tid": o.connection,
                "args": {"run": run_id, "key": o.request.key,
                         "status": o.status},
            })
    return events


def passes(summary: dict) -> bool:
    """Within the latency limit with no failures and no growing backlog:
    the last fifth of the phase is as fast as the limit."""
    return (summary["failed"] == 0
            and summary["p99_ms"] <= LIMIT_P99_MS
            and summary["tail_p50_ms"] <= LIMIT_P99_MS)


def extra_setups(snapshot: Path, tmp: Path, count: int) -> list[float]:
    """Set-up times of ``count`` more servers, each stopped once ready."""
    answers, uids, gpus = serve_universe(snapshot)
    out = []
    for _ in range(count):
        server = Server(fresh_root(tmp, snapshot), answers, gpus, uids)
        server.close()
        out.append(server.setup_s)
    return out


def run_serve_workload(seed: int, tmp: Path, trace: bool) -> dict:
    snapshot = ensure_snapshot()
    if trace:
        return trace_serve(snapshot, seed, tmp)
    session = serve_session(snapshot, tmp, seed, NAMED_REQUESTS, ladder=True)
    summary = session["summary"]
    setups = [session["setup_s"]] + extra_setups(snapshot, tmp,
                                                 MIN_SETUPS - 1)
    latencies = [o.latency_s * 1e3 for o in session["outcomes"]]
    for rate, step in session["ladder"]:
        print(f"ladder {rate:>4} rps: sent {step['sent']} ok {step['ok']} "
              f"failed {step['failed']} p99 {step['p99_ms']:.1f} ms "
              f"lag {step['lag_ms']:.3f} ms queue {step['queue_ms']:.1f} ms")
    return {
        "attempted": session["attempted"],
        "failed": summary["failed"],
        "metrics": {
            "wall_s": metric(summary["span_s"], "s", [summary["span_s"]]),
            "cpu_s": metric(session["cpu_s"], "s", [session["cpu_s"]]),
            "setup_s": metric(statistics.median(setups), "s", setups),
            "peak_rss_mb": metric(session["peak_rss_mb"], "MB",
                                  [session["peak_rss_mb"]]),
            "p50_ms": metric(summary["p50_ms"], "ms", latencies),
            "p99_ms": metric(summary["p99_ms"], "ms", latencies),
        },
        "notes": {"max_rps": (session["max_rps"], "1/s")},
        "context": {"connections": CONNECTIONS, "rate_rps": NAMED_RPS,
                    "jobs": session["jobs"], "requests": len(latencies),
                    "lag_ms": summary["lag_ms"],
                    "queue_ms": summary["queue_ms"]},
    }


def trace_serve(snapshot: Path, seed: int, tmp: Path) -> dict:
    plain = serve_session(snapshot, tmp, seed, TRACE_REQUESTS, ladder=False)
    trace_file = trace_path("serve-warm")
    traced = serve_session(snapshot, tmp, seed, TRACE_REQUESTS, ladder=False,
                           trace=trace_file)
    report, summary = traced["report"], traced["summary"]
    layers, counts = report["layers"], report["counts"]
    events = json.loads(trace_file.read_text())["traceEvents"]
    write_chrome_trace(trace_file, events + client_events(
        traced["outcomes"], trace_file.stem))
    classify_ms = statistics.median(report["classify_s"]) * 1e3
    get_ms = (statistics.median(report["store_get_s"]) * 1e3
              if report["store_get_s"] else 0.0)
    stats = traced["stats"]
    per_layer = layer_metrics(layers, counts)
    per_layer.update({
        "repro.import_s": report["import_s"],
        "store.write_bytes": traced["wchar"],
        "store.disk_bytes": traced["disk_bytes"],
        "serve.rtt_ms": summary["rtt_ms"],
        "serve.classify_ms": classify_ms,
        "serve.http_ms": summary["rtt_ms"] - classify_ms,
        "serve.store_get_ms": get_ms,
        "serve.hits": stats["hits"],
        "serve.misses": stats["misses"],
        "serve.coalesced": stats["coalesced"],
        "serve.shed": stats["shed"],
        "loadgen.lag_ms": summary["lag_ms"],
        "loadgen.queue_ms": summary["queue_ms"],
        "loadgen.sent": summary["sent"],
        "loadgen.ok": summary["ok"],
        "loadgen.failed": summary["failed"],
        "trace.overhead_wall_s": (
            summary["span_s"] - plain["summary"]["span_s"]),
        "trace.overhead_p50_ms": (
            summary["p50_ms"] - plain["summary"]["p50_ms"]),
    })
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["summary"]["failed"] + summary["failed"],
        "per_layer": per_layer,
        "layers": layers,
        "trace_file": trace_file,
        "context": {"connections": CONNECTIONS, "rate_rps": NAMED_RPS,
                    "jobs": traced["jobs"], "requests": summary["sent"]},
    }


# -- reporting ---------------------------------------------------------------
def print_end_to_end(metrics: dict) -> None:
    print(f"{'metric':<12} {'median':>12} {'tail':>18} {'n':>6}  unit")
    for name, m in metrics.items():
        tail = supported_percentile(m["samples"])
        tail_text = f"{tail[0]} {tail[1]:.4g}" if tail else "-"
        print(f"{name:<12} {m['value']:>12.6g} {tail_text:>18} "
              f"{len(m['samples']):>6}  {m['unit']}")


def print_layers(layers: dict) -> None:
    print(f"{'span':<18} {'self s':>10} {'total s':>10} {'count':>8}")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self"]):
        print(f"{name:<18} {row['self']:>10.4f} {row['total']:>10.4f} "
              f"{row['n']:>8}")


WORKLOADS = ("matrix-cold", "serve-warm")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    runs = build_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    try:
        with tempfile.TemporaryDirectory(dir=runs) as tmp:
            if args.workload == "serve-warm":
                result = run_serve_workload(args.seed, Path(tmp), trace)
            else:
                result = run_matrix_workload(args.seconds, Path(tmp), trace)
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1

    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "nproc": os.cpu_count(), **result["context"]}
    print("context: " + json.dumps(context, sort_keys=True))
    if trace:
        print_layers(result["layers"])
        print(f"trace file: {result['trace_file']}")
        units = per_layer_units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in result["per_layer"].items()
                   if value is not None}
    else:
        print_end_to_end(result["metrics"])
        notes = {**result["notes"], "failed_share": (
            result["failed"] / result["attempted"], "ratio")}
        for name, (value, unit) in notes.items():
            print(f"{name:<12} {value:>12.6g} {'':>18} {'':>6}  {unit}")
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in result["metrics"].items()}
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
