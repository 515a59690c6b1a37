"""One hardware-matrix sweep in its own process: the program under test.

Runs o3-mini-high over every GPU in ``GPU_DATABASE`` × {rq2, rq3} × the
paper's 340 balanced kernels (4080 units) at the CLI defaults (``jobs=1``,
thread backend), with the response, profile and artifact stores under
``--root``. Prints one JSON line: the sweep digest, completion counts,
set-up time and per-unit latencies.

``--trace PATH`` swaps the layer wrappers of :mod:`tracing` in and writes
the spans to PATH as Chrome trace-event JSON. ``--expect PATH`` also
writes the reference answers that the serve workload is checked against;
``--setup-only`` stops once ``paper_dataset()`` has returned.

    PYTHONPATH=src python3 perfbench/sweep.py --root stores \\
        --spawn "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import (  # noqa: E402
    TracedModel,
    TracedStore,
    Tracer,
    patch_function,
    write_chrome_trace,
)

MODEL = "o3-mini-high"
REGIMES = ("rq2", "rq3")
REFERENCE_VARIANT = "no-hint"  # the serve workload's store-missing variant


def read_wchar() -> int | None:
    """Bytes this process passed to write-type syscalls, or None without
    ``/proc``."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


#: Store writes are spread over blocks of this many consecutive writes,
#: the response store's batch-flush interval.
WRITE_BLOCK = 64


class UnitClock:
    """Response-store proxy that times each unit of a sweep.

    With ``jobs=1`` the engine resolves one unit at a time, so the gap
    between two lookups inside one ``deferred()`` block is the service
    time of one unit: key derivation, lookup, completion and write. The
    time spent in ``put`` is spread evenly over each block of
    :data:`WRITE_BLOCK` writes, so a batch flush counts against the units
    it writes rather than the one unit that triggers it.
    """

    def __init__(self, store):
        self._store = store
        self._last: float | None = None
        self._gaps: list[float] = []
        self._writes: dict[int, float] = {}
        self.unit_s: list[float] = []

    def __getattr__(self, name):
        return getattr(self._store, name)

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key):
        now = time.monotonic()
        if self._last is not None:
            self._gaps.append(now - self._last)
        self._last = now
        return self._store.get(key)

    def put(self, key, value) -> None:
        start = time.monotonic()
        self._store.put(key, value)
        self._writes[len(self._gaps)] = time.monotonic() - start

    @contextmanager
    def deferred(self):
        with self._store.deferred():
            yield
            if self._last is not None:
                self._gaps.append(time.monotonic() - self._last)
            self._end_cell()

    def _end_cell(self) -> None:
        gaps = self._gaps
        writes = [self._writes.get(i, 0.0) for i in range(len(gaps))]
        for lo in range(0, len(gaps), WRITE_BLOCK):
            block = slice(lo, lo + WRITE_BLOCK)
            share = sum(writes[block]) / len(gaps[block])
            self.unit_s.extend(
                g - w + share for g, w in zip(gaps[block], writes[block])
            )
        self._last, self._gaps, self._writes = None, [], {}


def open_stores(root: Path):
    """Install the profile and artifact stores under ``root`` process-wide,
    as the CLI does, and return the response store."""
    from repro.eval.engine import DiskResponseStore
    from repro.gpusim.store import ProfileStore, set_active_profile_store
    from repro.store.text import ArtifactCache, set_active_artifact_cache

    set_active_profile_store(ProfileStore(root / "profiles"))
    set_active_artifact_cache(ArtifactCache(root / "artifacts"))
    return DiskResponseStore(root / "responses")


def install_layer_wrappers(tracer: Tracer) -> None:
    """Time the set-up and sweep layers through their public functions."""
    import repro.dataset
    import repro.eval.matrix
    import repro.eval.rq23
    import repro.eval.runner
    import repro.kernels.corpus
    import repro.tokenizer.pretrained  # noqa: F401

    for module, attr, name, count in (
        ("repro.kernels.corpus", "default_corpus", "kernels.corpus", None),
        ("repro.tokenizer.pretrained", "corpus_tokenizer", "tokenizer.train",
         None),
        ("repro.dataset", "paper_dataset", "dataset.build", None),
        ("repro.eval.matrix", "scenario_samples", "eval.scenario", None),
        ("repro.eval.rq23", "classification_items", "prompts.build",
         lambda args, items: len(items)),
        ("repro.eval.runner", "run_queries", "eval.run",
         lambda args, run: len(args[1])),
    ):
        original = getattr(sys.modules[module], attr)
        patch_function(module, attr, tracer.wrap(original, name, count))


def reference_predictions(result) -> dict[str, str | None]:
    """``uid|gpu|variant`` → predicted word for every matrix record."""
    from repro.eval.matrix import regime_variant

    out = {}
    for cell in result.cells:
        variant = regime_variant(cell.rq).name
        for record in cell.run.records:
            word = record.prediction.word if record.prediction else None
            out[f"{record.item_id}|{cell.gpu_name}|{variant}"] = word
    return out


def no_hint_predictions(gpus) -> dict[str, str | None]:
    """The batch answers for the store-missing variant: one
    ``classification_items`` + ``EvalEngine`` run per GPU, store off."""
    from repro.eval.engine import EvalEngine
    from repro.eval.matrix import scenario_samples
    from repro.eval.rq23 import classification_items
    from repro.llm import get_model

    engine = EvalEngine(jobs=1, store=None)
    model = get_model(MODEL)
    out = {}
    for gpu in gpus:
        items = classification_items(
            scenario_samples(gpu), variant=REFERENCE_VARIANT, gpu=gpu
        )
        for record in engine.run(model, items).records:
            word = record.prediction.word if record.prediction else None
            out[f"{record.item_id}|{gpu.name}|{REFERENCE_VARIANT}"] = word
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, required=True,
                    help="store root: responses/, profiles/, artifacts/")
    ap.add_argument("--spawn", type=float, required=True,
                    help="time.monotonic() at which the caller spawned us")
    ap.add_argument("--trace", type=Path, default=None,
                    help="record layer spans and write them here")
    ap.add_argument("--expect", type=Path, default=None,
                    help="write the reference answers for serve checks here")
    ap.add_argument("--setup-only", action="store_true",
                    help="exit once the dataset is built")
    args = ap.parse_args(argv)

    wchar0 = read_wchar()
    t_import = time.monotonic()
    import repro.dataset
    from repro.eval.engine import EvalEngine
    from repro.eval.matrix import run_matrix
    from repro.llm import get_model
    from repro.roofline.hardware import GPU_DATABASE
    import_s = time.monotonic() - t_import

    tracer = Tracer(run_id=args.trace.stem) if args.trace else None
    if tracer is not None:
        install_layer_wrappers(tracer)
    clock = UnitClock(open_stores(args.root))
    store = TracedStore(clock, tracer) if tracer else clock
    engine = EvalEngine(jobs=1, store=store, backend="thread")

    repro.dataset.paper_dataset(jobs=engine.jobs)
    setup_s = time.monotonic() - args.spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    model = get_model(MODEL)
    gpus = list(GPU_DATABASE.values())
    result = run_matrix(
        [TracedModel(model, tracer) if tracer else model],
        gpus,
        rqs=REGIMES,
        engine=engine,
    )
    wchar1 = read_wchar()

    out = {
        "digest": result.digest(),
        "units": sum(len(c.run.records) for c in result.cells),
        "failed": sum(len(c.run.failures) for c in result.cells),
        "completions": engine.stats.completions,
        "setup_s": setup_s,
        "import_s": import_s,
        "jobs": engine.jobs,
        "backend": engine.backend,
        "write_bytes": (
            wchar1 - wchar0 if None not in (wchar0, wchar1) else None
        ),
        "unit_s": clock.unit_s,
    }
    if tracer is not None:
        out["layers"] = tracer.self_times()
        out["counts"] = tracer.counts
        write_chrome_trace(args.trace, tracer.chrome_events())
    if args.expect is not None:
        answers = reference_predictions(result)
        answers.update(no_hint_predictions(gpus))
        args.expect.write_text(json.dumps(answers, sort_keys=True))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
