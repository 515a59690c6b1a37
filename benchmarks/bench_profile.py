"""E-profile — two-phase profiler: walk-per-device vs trace reuse vs store.

The seed profiler walked every kernel IR once per (kernel × device): a
6-GPU matrix pass re-walked all 749 programs six times, in every process.
The two-phase split walks once and finalizes per device, and the
persistent profile store removes even that single walk from warm-store
processes — the shard/CI/repeated-CLI case the store exists for. This
bench times four strategies over the full corpus and all six database
GPUs (plus a single-device column), asserts they produce bit-identical
profiles, asserts the warm store re-walks **zero** kernels, and asserts
the warm-store pass beats the seed strategy by ≥3×.
"""

from __future__ import annotations

import time

from repro.gpusim import device_for, profile_corpus, profile_first_kernel
from repro.gpusim import profiler
from repro.gpusim.profiler import _Walker
from repro.gpusim.store import ProfileStore
from repro.kernels.corpus import default_corpus
from repro.roofline.hardware import GPU_DATABASE, short_gpu_name
from repro.util.tables import format_table

WALKS = [0]
_ORIG_RUN = _Walker.run


def _counting_run(self):
    WALKS[0] += 1
    return _ORIG_RUN(self)


def _fresh():
    profiler.PROFILE_BATCHES.clear()
    profiler.TRACES.clear()
    WALKS[0] = 0


def _seed_pass(corpus, devices):
    """The seed strategy: a full walk + finalize per (program, device)."""
    out = []
    for device in devices:
        out.append(
            {p.uid: profile_first_kernel(p, device) for p in corpus.programs}
        )
    return out


def _batched_pass(corpus, devices, store):
    return [
        profile_corpus(corpus, device, store=store) for device in devices
    ]


def test_profile_pass_walltime(tmp_path):
    corpus = default_corpus()
    devices = [device_for(g) for g in GPU_DATABASE.values()]
    store_root = tmp_path / "profile-store"

    _Walker.run = _counting_run
    try:
        rows = []
        results = {}

        def timed(label, fn, *, devs):
            _fresh()
            t0 = time.perf_counter()
            out = fn()
            wall = time.perf_counter() - t0
            results[label] = (out, wall, WALKS[0])
            return out, wall

        n = len(corpus.programs)
        timed("seed 1-dev", lambda: _seed_pass(corpus, devices[:1]), devs=1)
        _, t_seed = timed("seed 6-dev", lambda: _seed_pass(corpus, devices), devs=6)
        timed("two-phase 1-dev",
              lambda: _batched_pass(corpus, devices[:1], None), devs=1)
        timed("two-phase 6-dev",
              lambda: _batched_pass(corpus, devices, None), devs=6)
        timed("cold store 6-dev",
              lambda: _batched_pass(corpus, devices, ProfileStore(store_root)),
              devs=6)
        _, t_warm = timed(
            "warm store 6-dev",
            lambda: _batched_pass(corpus, devices, ProfileStore(store_root)),
            devs=6,
        )

        for label, (_, wall, walks) in results.items():
            rows.append([label, f"{wall:.3f}", walks, f"{t_seed / wall:.2f}x"])
        print()
        print(format_table(
            ["strategy", "wall s", "IR walks", "vs seed 6-dev"],
            rows,
            title=(f"Corpus profile pass — {n} programs × "
                   f"{len(devices)} GPUs ({', '.join(short_gpu_name(g) for g in GPU_DATABASE)})"),
        ))

        # Bit-identical profiles whatever the strategy.
        seed6 = results["seed 6-dev"][0]
        for label in ("two-phase 6-dev", "cold store 6-dev", "warm store 6-dev"):
            assert results[label][0] == seed6, label

        # The seed strategy walks per (program, device); two-phase walks
        # once per program; the warm store never walks at all.
        assert results["seed 6-dev"][2] == len(devices) * n
        assert results["two-phase 6-dev"][2] == n
        assert results["warm store 6-dev"][2] == 0

        # Trace reuse alone must beat walk-per-device on a multi-GPU pass,
        # and a warm store must make a cold process ≥3× faster than seed.
        assert results["two-phase 6-dev"][1] < t_seed
        assert t_seed / t_warm >= 3.0
    finally:
        _Walker.run = _ORIG_RUN
        _fresh()
