"""Distributed sweep via the shard planner and cache merging.

Splits a (model × RQ × GPU × kernel) grid into three deterministic shards,
executes each against its own isolated disk cache (in one process here —
on real infrastructure each shard is its own machine running
``repro-paper sweep --shard i/3``), merges the shard caches, and replays
the full hardware matrix from the merged store with **zero** new
completions. Equivalent CLI::

    repro-paper sweep --gpus v100,h100 --shard 0/3 --cache-dir shard-0
    repro-paper sweep --gpus v100,h100 --shard 1/3 --cache-dir shard-1
    repro-paper sweep --gpus v100,h100 --shard 2/3 --cache-dir shard-2
    repro-paper merge-caches shard-0 shard-1 shard-2 --into merged
    repro-paper sweep --gpus v100,h100 --cache-dir merged

Run:  python examples/sharded_sweep.py
"""

import tempfile
from pathlib import Path

from repro.eval.engine import DiskResponseStore, EvalEngine
from repro.eval.matrix import grid_uids, run_matrix
from repro.eval.shard import grid_units, merge_caches, plan_shards, run_shard
from repro.llm import get_model
from repro.roofline.hardware import get_gpu

MODELS = ("o3-mini-high", "gpt-4o-mini")
GPUS = ("V100", "H100")
SLICE = 20  # kernels per device; the full sweep uses all 340
NUM_SHARDS = 3

models = [get_model(n) for n in MODELS]
gpus = [get_gpu(n) for n in GPUS]

# The plan is pure arithmetic over the grid: every worker computes the same
# one locally and picks its slice — no coordinator, no messages.
units = grid_units(
    [m.name for m in models], [g.name for g in gpus], ("rq2",),
    grid_uids(SLICE),
)
plan = plan_shards(units, NUM_SHARDS)
print(f"grid: {plan.total_units} units -> "
      f"{[len(s) for s in plan.shards]} per shard")

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)

    # "Machines": one engine + isolated cache per shard.
    for i in range(NUM_SHARDS):
        engine = EvalEngine(jobs=2, store=DiskResponseStore(root / f"shard-{i}"))
        report = run_shard(
            models, gpus, shard_index=i, num_shards=NUM_SHARDS,
            rqs=("rq2",), limit=SLICE, engine=engine,
        )
        print(f"shard {i}: {report.units} units, "
              f"{engine.stats.completions} completions")

    # Merge: content-addressed keys union cleanly; conflicts are impossible
    # for shards of one grid and would raise rather than corrupt.
    merged = merge_caches(
        [root / f"shard-{i}" for i in range(NUM_SHARDS)], root / "merged"
    )
    print()
    print(merged.render())

    # Replay the full matrix from the merged cache: all hits, and the
    # result is byte-identical to a single-machine sweep.
    warm = EvalEngine(jobs=2, store=DiskResponseStore(root / "merged"))
    result = run_matrix(models, gpus, rqs=("rq2",), limit=SLICE, engine=warm)
    print()
    print(result.render_accuracy_table())
    print(f"\nreplay: {warm.stats.summary()}")
    assert warm.stats.completions == 0
    print(f"sweep digest: {result.digest()[:16]}…  "
          "(same value on any worker count or shard plan)")
