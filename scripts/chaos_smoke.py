"""CI chaos test: SIGKILL a sweep mid-run, re-run it, match the control.

End-to-end, across real processes:

1. run a control sweep into its own cache and record the report;
2. run the same grid under a deterministic fault plan that injects
   recoverable provider errors AND SIGKILLs the process after a fixed
   number of completion attempts (``worker_death``) — the run dies
   mid-sweep, repeatedly. The grid is large enough that the response
   store's 64-put spill lands before each kill;
3. re-run the same command until the sweep completes, asserting every
   crash was the injected SIGKILL, the cached entry count never shrinks
   across one, and every entry cached before the final run is served as
   a hit (zero re-issued completions for spilled units);
4. assert the final report is byte-identical to the control's;
5. separately, corrupt a store via segment-fault injection and assert
   ``repro-paper doctor --dry-run`` detects it (exit 1), ``doctor``
   repairs it (exit 0), and a second dry run comes back healthy.

Exits non-zero with a diagnostic on any violation.

Run:  PYTHONPATH=src python scripts/chaos_smoke.py [--limit N]
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

MODEL = "o3-mini-high"
CLI = [sys.executable, "-m", "repro.cli"]
CHAOS_PLAN = "seed=1;provider_error:rate=0.3,attempts=1;worker_death:after=100"
MAX_RESUMES = 25


def fail(message: str) -> None:
    raise SystemExit(f"chaos smoke FAILED: {message}")


def run_cli(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*CLI, *args], capture_output=True, text=True, timeout=900, env=env
    )


def report_of(stdout: str) -> str:
    """The report body — everything except the run-local cache line."""
    return "\n".join(
        line for line in stdout.splitlines() if not line.startswith("cache:")
    )


def cached_entries(cache_dir: Path) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.eval.engine import DiskResponseStore

    return len(DiskResponseStore(cache_dir)) if cache_dir.is_dir() else 0


def sweep_args(cache_dir: Path, limit: int) -> list[str]:
    return [
        "sweep", "--gpus", "v100", "--rq", "rq2", "--model", MODEL,
        "--limit", str(limit), "--cache-dir", str(cache_dir),
    ]


def chaos_rerun_cycle(work: Path, env: dict, limit: int) -> None:
    control = run_cli(sweep_args(work / "control-cache", limit), env)
    if control.returncode != 0:
        fail(f"control sweep rc={control.returncode}:\n{control.stderr}")
    if "Hardware matrix" not in control.stdout:
        fail("control sweep printed no matrix report")

    chaos_cache = work / "chaos-cache"
    crashes = 0
    final = None
    for attempt in range(MAX_RESUMES):
        cached_before = cached_entries(chaos_cache)
        proc = run_cli(
            [*sweep_args(chaos_cache, limit), "--inject-faults", CHAOS_PLAN],
            env,
        )
        if proc.returncode == -signal.SIGKILL:
            crashes += 1
            after = cached_entries(chaos_cache)
            if after < cached_before:
                fail(f"cache shrank across a crash: {cached_before} -> {after}")
            print(f"  crash {crashes}: SIGKILL mid-sweep, "
                  f"{after} unit(s) cached", flush=True)
            continue
        if proc.returncode != 0:
            fail(f"chaos sweep rc={proc.returncode} (wanted 0 or SIGKILL):\n"
                 f"{proc.stdout}\n{proc.stderr}")
        stats = re.search(r"cache: (\d+) hits, (\d+) misses", proc.stdout)
        if not stats:
            fail(f"no cache summary in:\n{proc.stdout}")
        hits = int(stats.group(1))
        if hits < cached_before:
            fail(f"cached units were re-issued: {cached_before} "
                 f"cached but only {hits} hits")
        final = proc
        break
    else:
        fail(f"sweep never completed within {MAX_RESUMES} re-runs")

    if crashes == 0:
        fail("the fault plan never killed the sweep — nothing was tested")
    if report_of(final.stdout) != report_of(control.stdout):
        fail("re-run report differs from control:\n"
             f"--- control ---\n{control.stdout}\n"
             f"--- re-run ---\n{final.stdout}")
    print(f"chaos sweep survived {crashes} SIGKILLs; "
          "re-run report is byte-identical to control", flush=True)


def doctor_cycle(work: Path, env: dict) -> None:
    doc_cache = work / "doctor-cache"
    seeded = run_cli(
        ["rq2", "--model", MODEL, "--limit", "6",
         "--cache-dir", str(doc_cache),
         "--inject-faults", "seed=3;torn_write:rate=1;stale_tmp:rate=1"],
        env,
    )
    if seeded.returncode != 0:
        fail(f"fault-seeded run rc={seeded.returncode}:\n{seeded.stderr}")

    flags = ["--cache-dir", str(doc_cache),
             "--profile-cache", str(work / "doctor-profiles"),
             "--artifact-cache", str(work / "doctor-artifacts")]
    dry = run_cli(["doctor", "--dry-run", *flags], env)
    if dry.returncode != 1:
        fail(f"doctor --dry-run rc={dry.returncode} (wanted 1):\n{dry.stdout}")
    for kind in ("torn_write", "stale_tmp"):
        if kind not in dry.stdout:
            fail(f"doctor --dry-run missed {kind}:\n{dry.stdout}")

    repair = run_cli(["doctor", *flags], env)
    if repair.returncode != 0 or "repaired" not in repair.stdout:
        fail(f"doctor repair rc={repair.returncode}:\n{repair.stdout}")

    clean = run_cli(["doctor", "--dry-run", *flags], env)
    if clean.returncode != 0:
        fail(f"store still sick after repair:\n{clean.stdout}")
    print("doctor detected, repaired, and re-verified the injected damage",
          flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=200,
                        help="kernels per device in the chaos grid")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory, kept afterwards (default: "
                             "a fresh temp dir, removed on exit)")
    opts = parser.parse_args()

    if opts.workdir:
        return smoke(opts, Path(opts.workdir))
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as work:
        return smoke(opts, Path(work))


def smoke(opts: argparse.Namespace, work: Path) -> int:
    work.mkdir(parents=True, exist_ok=True)
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
    }
    env.pop("REPRO_FAULT_PLAN", None)
    env.pop("REPRO_CACHE_DIR", None)

    chaos_rerun_cycle(work, env, opts.limit)
    doctor_cycle(work, env)
    print("chaos smoke PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
