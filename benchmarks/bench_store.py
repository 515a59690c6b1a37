"""F-store — segment codec: lazy packed-binary reads and batched writes.

The packed binary codec (``repro.store.base``) front-loads a tiny struct
header and an entry index; attaching a segment mmaps it and parses only
the index, and each requested entry decodes exactly its own blob. This
bench builds one store-realistic segment (4 096 entries, ~1.5 KB each)
and times the access patterns the stores actually issue:

* **attach + 1 entry** — a fresh process (a new store, no cached views)
  probing a warm on-disk store, the dominant shard/CI pattern. Asserted ≥5× cheaper than decoding the
  whole segment: a single-entry probe must not pay for the other 4 095.
* **warm view, per entry** — repeated probes through the in-process view
  cache.
* **whole segment** — full decode, the merge/manifest pattern.

A second bench times one deferred batch of puts (one run) against one
run per put (plus the compactions that bound the run count), and checks
both stores compact to byte-identical runs.
"""

from __future__ import annotations

import time

from repro.store.base import VIEWS, ArtifactStore, _segment_view
from repro.util.tables import format_table

N_ENTRIES = 4096
ATTACH_REPS = 30
WARM_REPS = 2000
SEGMENT_KEY = "f" * 64


class _BenchStore(ArtifactStore):
    version = "bench-v1"
    segment_prefixes = ("bench-",)


def _entries() -> dict:
    pad = "x" * 1400  # bulk entries like profile counters / responses
    return {
        f"{i:064x}": {"text": f"Compute {i}", "n": i, "pad": pad}
        for i in range(N_ENTRIES)
    }


def _drop_views() -> None:
    VIEWS.clear()


def _build(tmp_path, entries) -> _BenchStore:
    store = _BenchStore(tmp_path / "binary")
    with store.deferred():
        store._merge_entries(
            "bench-", SEGMENT_KEY, {"version": _BenchStore.version}, entries
        )
    return store


def _get_one(store: _BenchStore, entry_key: str) -> dict:
    return store._get_entries("bench-", SEGMENT_KEY, [entry_key])


def _time_attach_probe(store: _BenchStore, keys) -> float:
    start = time.perf_counter()
    for i in range(ATTACH_REPS):
        # Every rep is a fresh process attaching to the store.
        _drop_views()
        got = _get_one(_BenchStore(store.root), keys[i % len(keys)])
        assert len(got) == 1
    return (time.perf_counter() - start) / ATTACH_REPS


def _time_warm_probe(store: _BenchStore, keys) -> float:
    _drop_views()
    _get_one(store, keys[0])  # pay the attach outside the timed region
    start = time.perf_counter()
    for i in range(WARM_REPS):
        got = _get_one(store, keys[i % len(keys)])
        assert len(got) == 1
    return (time.perf_counter() - start) / WARM_REPS


def _time_whole_segment(store: _BenchStore) -> float:
    start = time.perf_counter()
    (run,) = store._segment_files()
    for _ in range(ATTACH_REPS):
        _drop_views()
        view = _segment_view(run)
        assert len(view.entries()) == N_ENTRIES
    return (time.perf_counter() - start) / ATTACH_REPS


def test_segment_read_paths(tmp_path):
    entries = _entries()
    store = _build(tmp_path, entries)
    keys = list(entries)[:: N_ENTRIES // 64]

    probe = keys[7]
    assert _get_one(store, probe) == {probe: entries[probe]}

    t_attach = _time_attach_probe(store, keys)
    t_warm = _time_warm_probe(store, keys)
    t_whole = _time_whole_segment(store)

    def us(t: float) -> str:
        return f"{t * 1e6:,.0f}"

    print()
    print(format_table(
        ["read pattern", "binary segment (us)"],
        [
            ["attach + 1 entry (fresh process)", us(t_attach)],
            ["warm view, per entry", us(t_warm)],
            ["whole segment decode", us(t_whole)],
        ],
        title=f"Segment codec: {N_ENTRIES} entries, one run",
    ))

    # The load-bearing claim: a cold attach serving one entry must not pay
    # the whole-segment decode. 5x is the floor; the margin grows with
    # segment size.
    assert t_whole / t_attach >= 5.0, (
        f"single-entry attach only {t_whole / t_attach:.1f}x cheaper than "
        "a whole-segment decode (< 5x floor)"
    )


def _run_bytes(store: _BenchStore) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in store._segment_files()}


def test_batched_puts_vs_per_put_flush(tmp_path):
    """One deferred batch (one run) vs one run per put."""
    n = 384
    items = {
        f"{i:064x}": {"text": f"Compute {i}", "n": i} for i in range(n)
    }
    payload = {"version": _BenchStore.version}

    eager = _BenchStore(tmp_path / "eager")
    start = time.perf_counter()
    for key, value in items.items():
        eager._merge_entries("bench-", SEGMENT_KEY, payload, {key: value})
    t_eager = time.perf_counter() - start

    batched = _BenchStore(tmp_path / "batched")
    start = time.perf_counter()
    with batched.deferred():
        for key, value in items.items():
            batched._merge_entries("bench-", SEGMENT_KEY, payload, {key: value})
    t_batched = time.perf_counter() - start

    # Identical runs once compacted — batching changes cost, not content.
    eager.compact()
    batched.compact()
    assert len(_run_bytes(eager)) == 1
    assert _run_bytes(eager) == _run_bytes(batched)

    print()
    print(format_table(
        ["write pattern", "total (ms)", "per put (us)"],
        [
            ["per-put flush", f"{t_eager * 1e3:,.1f}",
             f"{t_eager / n * 1e6:,.0f}"],
            ["one deferred batch", f"{t_batched * 1e3:,.1f}",
             f"{t_batched / n * 1e6:,.0f}"],
        ],
        title=f"{n} puts into one logical segment",
    ))
    assert t_batched < t_eager
