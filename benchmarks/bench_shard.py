"""E-shard — distributed sweep: cold 1-shard vs 4-shard subprocess wall time.

This is the honest distributed-cost measurement: every shard is a separate
``repro-paper sweep --shard i/4`` *process* (its own interpreter, its own
dataset build, its own isolated cache directory), exactly as the CI matrix
and a multi-machine sweep would run it. The four shards run concurrently,
``merge-caches`` unions their caches, and the merged store must replay the
full 2-GPU smoke grid with zero new completions, byte-identical to the
1-shard run's cache.

Per-process startup (interpreter + corpus + dataset) is the fixed overhead
distribution has to amortise, so the speedup only shows once the grid's
completion work dominates — the table prints both wall times rather than
asserting a ratio.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.eval.engine import DiskResponseStore
from repro.store.families import PROFILES
from repro.util.tables import format_table

GRID = [
    "--gpus", "v100,h100",
    "--model", "o3-mini-high",
    "--rq", "rq2",
    "--limit", "40",
]
NUM_SHARDS = 4


def _env(profile_cache: Path) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # Pin the kernel-profile store per strategy: it keeps the CLI's
    # default `.repro-profile-cache` out of the working tree, and giving
    # the 1-shard and 4-shard runs *separate* cold stores keeps the timed
    # comparison about sharding, not profile-store warmth (the four shard
    # processes still share one store, as real shard fleets would).
    env[PROFILES.root_env] = str(profile_cache)
    return env


def _sweep_cmd(extra: list[str]) -> list[str]:
    return [sys.executable, "-m", "repro.cli", "sweep", *GRID, *extra]


def _entry_files(root: Path) -> dict:
    # One sweep and a merge of shards spill at different flush boundaries;
    # compacted to one canonical run each, their bytes must agree.
    DiskResponseStore(root).compact()
    return {p.name: p.read_bytes() for p in root.glob("responses-*.bin")}


def test_shard_subprocess_walltime(tmp_path):
    env_single = _env(tmp_path / "profile-store-single")
    env_sharded = _env(tmp_path / "profile-store-sharded")
    env = env_single

    # Cold 1-shard: one process sweeps the whole grid.
    t0 = time.perf_counter()
    subprocess.run(
        _sweep_cmd(["--cache-dir", str(tmp_path / "single")]),
        check=True, env=env_single, stdout=subprocess.DEVNULL,
    )
    t_single = time.perf_counter() - t0

    # Cold 4-shard: four concurrent processes, one planned shard each.
    t0 = time.perf_counter()
    workers = [
        subprocess.Popen(
            _sweep_cmd([
                "--shard", f"{i}/{NUM_SHARDS}",
                "--cache-dir", str(tmp_path / f"shard-{i}"),
            ]),
            env=env_sharded, stdout=subprocess.DEVNULL,
        )
        for i in range(NUM_SHARDS)
    ]
    assert all(w.wait() == 0 for w in workers)
    t_sharded = time.perf_counter() - t0

    # Merge and verify: union == single-run cache, replay is hit-only.
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "merge-caches",
         *(str(tmp_path / f"shard-{i}") for i in range(NUM_SHARDS)),
         "--into", str(tmp_path / "merged")],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    assert _entry_files(tmp_path / "merged") == _entry_files(
        tmp_path / "single"
    )
    replay = subprocess.run(
        _sweep_cmd(["--cache-dir", str(tmp_path / "merged")]),
        check=True, env=env, capture_output=True, text=True,
    )
    assert ", 0 new completions" in replay.stdout

    rows = [
        ["1 shard (single process)", 1, f"{t_single:.2f}", "1.00x"],
        [f"{NUM_SHARDS} shards (concurrent processes)", NUM_SHARDS,
         f"{t_sharded:.2f}", f"{t_single / t_sharded:.2f}x"],
    ]
    print()
    print(format_table(
        ["plan", "procs", "wall s", "speedup"],
        rows,
        title=("Sharded sweep, subprocess-driven — 2 GPUs × 40 kernels "
               f"({os.cpu_count()} cores)"),
    ))
