"""Store-engine hardening: torn writes, concurrency, lifecycle sweeps.

The binary segment codec (``repro.store.base``) backs all three store
families; this module pins the failure-mode contracts the codec promises:

* a segment truncated at **any** byte boundary reads as an empty segment —
  never an exception, never a partial entry;
* concurrent writers on one store — threads, or processes sharing its
  root — lose no entries and leave every run valid; compaction keeps
  the run count within the fan-in and never drops an entry;
* stale ``*.tmp.<pid>.<tid>`` droppings are swept and version-skewed
  segments garbage-collected;
* the byte-count env parsers of all three stores agree on junk handling;
* results stay digest-identical with the store off, cold, and warm; a
  directory holding only old-format ``.json`` files recomputes to the
  same digest and leaves those files untouched.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.eval.engine import (
    CACHE_SCHEMA_VERSION,
    RESPONSES_SEGMENT_KEY,
    CachedResponse,
    DiskResponseStore,
    EvalEngine,
)
from repro.eval.matrix import run_matrix
from repro.llm import get_model
from repro.roofline.hardware import get_gpu
from repro.store.base import (
    _KEY_BLOB_PREFIX,
    _SEGMENT_HEADER,
    SEGMENT_MAGIC,
    encode_segment,
    parse_max_bytes,
)


SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _response(i: int) -> CachedResponse:
    return CachedResponse(
        text=f"Compute {i}",
        input_tokens=i,
        output_tokens=1,
        reasoning_tokens=0,
        model="test-model",
    )


class TestTornWrites:
    def test_every_truncation_boundary_reads_as_empty(
        self, tmp_path, run_holding
    ):
        """Atomic-replace should prevent torn segments, but a dying disk
        or filesystem bug must still degrade to a cache miss."""
        store = DiskResponseStore(tmp_path)
        keys = [f"ab{i:062x}" for i in range(3)]
        with store.deferred():  # one run holds all three
            for i, key in enumerate(keys):
                store.put(key, _response(i))
        seg = run_holding(store, keys[0])
        payload = seg.read_bytes()
        assert payload.startswith(SEGMENT_MAGIC)
        for cut in range(len(payload)):
            seg.write_bytes(payload[:cut])
            for key in keys:
                assert store.get(key) is None, f"cut={cut} served a hit"
        # A fresh put writes a new run that serves the key again.
        seg.write_bytes(payload[: len(payload) // 2])
        store.put(keys[0], _response(0))
        assert store.get(keys[0]) == _response(0)

    def test_trailing_garbage_reads_as_empty(self, tmp_path, run_holding):
        store = DiskResponseStore(tmp_path)
        key = "cd" + "0" * 62
        store.put(key, _response(1))
        seg = run_holding(store, key)
        seg.write_bytes(seg.read_bytes() + b"\x00garbage")
        assert store.get(key) is None  # total-size check rejects the file

    def test_entry_span_past_eof_reads_as_empty(self, tmp_path):
        """A forged index pointing past the body must not crash the mmap
        reader."""
        store = DiskResponseStore(tmp_path)
        seg = tmp_path / "responses-forged.bin"
        payload = {"version": store.version, "key": RESPONSES_SEGMENT_KEY}
        data = bytearray(encode_segment(payload, {"ee" + "0" * 62: {"x": 1}}))
        seg.write_bytes(bytes(data[:-4]) + b"\xff\xff\xff\x7f")
        assert store.get("ee" + "0" * 62) is None

    def test_span_offset_past_ssize_t_is_a_miss(self, tmp_path, run_holding):
        """A forged u64 span offset too large for a C ssize_t must read as
        a per-entry miss, not overflow out of the reader."""
        store = DiskResponseStore(tmp_path)
        key = "ef" + "0" * 62
        store.put(key, _response(1))
        seg = run_holding(store, key)
        data = bytearray(seg.read_bytes())
        _, _, meta_len, _ = _SEGMENT_HEADER.unpack_from(data, 0)
        span_at = (
            _SEGMENT_HEADER.size + meta_len + _KEY_BLOB_PREFIX.size + len(key)
        )
        struct.pack_into("<Q", data, span_at, 2**64 - 1)
        seg.write_bytes(bytes(data))
        assert store.get(key) is None
        assert len(store) == 0


class TestConcurrentWriters:
    def test_parallel_puts_lose_nothing(self, tmp_path):
        """Writers racing on the same and different shards: every entry
        survives, every segment stays readable."""
        store = DiskResponseStore(tmp_path)
        n_threads, per_thread = 8, 24
        barrier = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def writer(t: int) -> None:
            try:
                barrier.wait()
                for i in range(per_thread):
                    # Even i: all threads share shard "aa" (merge races);
                    # odd i: per-thread shard (replace races).
                    prefix = "aa" if i % 2 == 0 else f"{t:02x}"
                    key = f"{prefix}{t:02x}{i:02x}{'0' * 58}"
                    store.put(key, _response(t * 1000 + i))
                    assert store.get(key) == _response(t * 1000 + i)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        live = {k for k, _ in store.iter_entries()}
        assert len(live) == n_threads * per_thread
        assert len(store) == n_threads * per_thread

    def test_deferred_writers_flush_cleanly(self, tmp_path):
        store = DiskResponseStore(tmp_path)
        errors: list[BaseException] = []

        def writer(t: int) -> None:
            try:
                with store.deferred():
                    for i in range(16):
                        key = f"bb{t:02x}{i:02x}{'0' * 58}"
                        store.put(key, _response(t * 100 + i))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert len(store) == 4 * 16


#: One writer process: puts ``n`` distinct digest keys (spread like real
#: cache keys) into one response store inside ``deferred()``, so it
#: flushes a run every 64 puts.
_RESPONSE_WRITER = """
import hashlib, sys
from repro.eval.engine import CachedResponse, DiskResponseStore
root, worker, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = DiskResponseStore(root)
with store.deferred():
    for i in range(n):
        key = hashlib.sha256(f"{worker}-{i}".encode()).hexdigest()
        store.put(key, CachedResponse(f"Compute {worker}-{i}", i, 1, 0, "w"))
"""

#: The same for one profile segment, flushing every 64 puts too.
_PROFILE_WRITER = """
import json, sys
from repro.gpusim import default_device
from repro.gpusim.profiler import KernelProfile
from repro.gpusim.store import ProfileStore
root, worker, n, blob = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
profile = KernelProfile.from_dict(json.loads(open(blob).read()))
device = default_device()
store = ProfileStore(root)
store.DEFERRED_FLUSH_ENTRIES = 64
with store.deferred():
    for i in range(n):
        store.put_profiles(device, {f"w{worker}-{i:05d}": profile})
"""


def _race_writers(script: str, *args: str, writers: int = 2) -> None:
    """Run ``writers`` copies of ``script`` at once; each must succeed."""
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, args[0], str(w), *args[1:]],
            env={"PYTHONPATH": SRC_DIR},
            stderr=subprocess.PIPE,
            text=True,
        )
        for w in range(writers)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err


def _run_files(root, prefix: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in Path(root).glob(f"{prefix}*.bin")}


class TestCrossProcessWriters:
    """Two processes writing one store root keep every entry: flushes
    write new runs and compaction deletes only the runs it merged."""

    N = 2000

    def test_response_store_keeps_both_writers_entries(self, tmp_path):
        root = tmp_path / "shared"
        _race_writers(_RESPONSE_WRITER, str(root), str(self.N))
        reference = DiskResponseStore(tmp_path / "reference")
        with reference.deferred():
            for worker in range(2):
                for i in range(self.N):
                    reference.put(
                        hashlib.sha256(f"{worker}-{i}".encode()).hexdigest(),
                        CachedResponse(f"Compute {worker}-{i}", i, 1, 0, "w"),
                    )
        fresh = DiskResponseStore(root)
        assert len(fresh) == 2 * self.N
        assert list(fresh.iter_entries()) == list(reference.iter_entries())
        fresh.compact()
        reference.compact()
        assert _run_files(root, "responses-") == _run_files(
            reference.root, "responses-"
        )

    def test_profile_segment_keeps_both_writers_entries(self, tmp_path):
        from repro.gpusim import default_device, profile_corpus
        from repro.gpusim.store import ProfileStore
        from repro.kernels.corpus import build_corpus

        device = default_device()
        profile = next(iter(
            profile_corpus(build_corpus(3, 2), device, store=None).values()
        ))
        blob = tmp_path / "profile.json"
        blob.write_text(json.dumps(profile.to_dict()))
        root = tmp_path / "shared"
        _race_writers(_PROFILE_WRITER, str(root), str(self.N), str(blob))
        keys = [f"w{w}-{i:05d}" for w in range(2) for i in range(self.N)]
        fresh = ProfileStore(root)
        assert fresh.get_profiles(device, keys) == dict.fromkeys(keys, profile)
        reference = ProfileStore(tmp_path / "reference")
        reference.put_profiles(device, dict.fromkeys(keys, profile))
        fresh.compact()
        assert _run_files(root, "profiles-") == _run_files(
            reference.root, "profiles-"
        )


class TestRunsAndCompaction:
    def test_per_put_runs_stay_within_the_fan_in(self, tmp_path):
        """The serve write pattern — one run per put — never leaves more
        than the fan-in's worth of runs, and compaction loses nothing."""
        store = DiskResponseStore(tmp_path)
        expected = {}
        for i in range(1000):
            key = f"{i:064x}"
            store.put(key, _response(i))
            expected[key] = json.dumps(
                _response(i).to_dict(), sort_keys=True
            ).encode("utf-8")
        assert len(store._segment_files()) <= store.COMPACT_FAN_IN
        assert dict(store.iter_entries()) == expected
        assert dict(DiskResponseStore(tmp_path).iter_entries()) == expected

    def test_compact_leaves_one_canonical_run(self, tmp_path):
        store = DiskResponseStore(tmp_path)
        entries = {}
        for batch in range(5):
            with store.deferred():
                for i in range(batch * 7, batch * 7 + 9):  # overlapping
                    key = f"{i:064x}"
                    store.put(key, _response(i))
                    entries[key] = _response(i).to_dict()
        assert len(store._segment_files()) == 5
        store.compact()
        (run,) = store._segment_files()
        payload = {"version": CACHE_SCHEMA_VERSION, "key": RESPONSES_SEGMENT_KEY}
        assert run.read_bytes() == encode_segment(payload, entries)
        assert DiskResponseStore(tmp_path).get(f"{0:064x}") == _response(0)

    def test_compaction_racing_writers_loses_nothing(self, tmp_path):
        """Writers (more than cores) put and read back while a compactor
        merges their runs; a lost or unreadable entry breaks the test."""
        store = DiskResponseStore(tmp_path)
        n_writers, per_writer = 4, 100
        done = threading.Event()
        errors: list[BaseException] = []

        def writer(w: int) -> None:
            try:
                for i in range(per_writer):
                    n = w * per_writer + i
                    store.put(f"{n:064x}", _response(n))
                    assert store.get(f"{n:064x}") == _response(n)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def compactor() -> None:
            try:
                while not done.is_set():
                    store.compact()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        writers = [
            threading.Thread(target=writer, args=(w,)) for w in range(n_writers)
        ]
        merger = threading.Thread(target=compactor)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            merger.start()
            for th in writers:
                th.start()
            for th in writers:
                th.join(timeout=120)
            done.set()
            merger.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in (*writers, merger))
        assert not errors
        total = n_writers * per_writer
        fresh = DiskResponseStore(tmp_path)
        assert len(fresh) == total
        assert all(fresh.get(f"{n:064x}") == _response(n) for n in range(total))


class TestConcurrentReaderCorruption:
    """Truncated/forged segments installed *while readers probe them*.

    Corruption always arrives the way real writers produce it — a whole
    new file via ``os.replace`` (new inode) — never in-place truncation,
    which could SIGBUS a reader holding the old mmap. Under that
    discipline a concurrent reader must see each key as either its entry
    or a miss; never an exception, never garbage.
    """

    def _install(self, seg, data: bytes) -> None:
        # ".install" dodges both the segment suffix scan and the
        # "*.tmp.*" sweep glob, so no store helper touches it mid-test.
        staging = seg.with_name(seg.name + ".install")
        staging.write_bytes(data)
        os.replace(staging, seg)

    def test_probing_readers_never_raise(self, tmp_path, run_holding):
        from repro.util.faults import _forge_index

        store = DiskResponseStore(tmp_path / "cache")
        keys = [f"{i:02x}" + "0" * 62 for i in range(4)]
        for i, key in enumerate(keys):
            store.put(key, _response(i))
        seg = run_holding(store, keys[0])
        healthy = seg.read_bytes()

        stop = threading.Event()
        errors: list[BaseException] = []

        def prober() -> None:
            probe = DiskResponseStore(tmp_path / "cache")
            expected = {
                key: _response(i) for i, key in enumerate(keys)
            }
            try:
                while not stop.is_set():
                    for key in keys:
                        got = probe.get(key)
                        assert got is None or got == expected[key]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=prober) for _ in range(4)]
        for th in threads:
            th.start()
        try:
            # Sweep truncation boundaries, then a forged index span, then
            # restore — all under live readers.
            for cut in range(0, len(healthy), 7):
                self._install(seg, healthy[:cut])
            self._install(seg, _forge_index(healthy))
            self._install(seg, healthy)
        finally:
            stop.set()
            for th in threads:
                th.join()
        assert not errors
        assert DiskResponseStore(tmp_path / "cache").get(keys[0]) == _response(0)

    def test_forged_segment_is_per_entry_miss_only(
        self, tmp_path, run_holding
    ):
        from repro.util.faults import _forge_index

        store = DiskResponseStore(tmp_path / "cache")
        key = "ab" + "0" * 62
        store.put(key, _response(1))
        seg = run_holding(store, key)
        self._install(seg, _forge_index(seg.read_bytes()))
        fresh = DiskResponseStore(tmp_path / "cache")
        assert fresh.get(key) is None  # miss, not an exception
        # The next put writes a new run that serves the key again.
        fresh.put(key, _response(2))
        assert DiskResponseStore(tmp_path / "cache").get(key) == _response(2)


class TestDeferredExceptionSafety:
    """The deterministic exception contract of ``ArtifactStore.deferred()``:
    clean outermost exit flushes; exceptional exit (any BaseException,
    KeyboardInterrupt included) discards the pending buffer — except
    batches already spilled to disk by the flush interval, which stay."""

    def test_clean_exit_flushes(self, tmp_path, run_holding):
        store = DiskResponseStore(tmp_path)
        with store.deferred():
            store.put("aa" + "0" * 62, _response(0))
            assert store._segment_files() == []
        assert run_holding(store, "aa" + "0" * 62).exists()
        assert store.get("aa" + "0" * 62) == _response(0)

    @pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
    def test_exceptional_exit_discards_pending(self, tmp_path, exc_type):
        store = DiskResponseStore(tmp_path)
        key = "aa" + "0" * 62
        with pytest.raises(exc_type):
            with store.deferred():
                store.put(key, _response(0))
                raise exc_type("abort mid-sweep")
        # Nothing flushed while unwinding, and nothing left buffered: the
        # entry is simply gone (a cache miss, recomputed next run).
        assert not store._pending
        assert store._pending_entries == 0
        assert store.get(key) is None
        assert store._segment_files() == []
        # The store stays fully usable afterwards.
        store.put(key, _response(1))
        assert store.get(key) == _response(1)

    def test_interval_spilled_batches_survive_abort(self, tmp_path):
        """An aborted sweep loses at most one flush interval of warmth."""
        store = DiskResponseStore(tmp_path)
        interval = store.DEFERRED_FLUSH_ENTRIES
        with pytest.raises(KeyboardInterrupt):
            with store.deferred():
                for i in range(interval + 5):
                    store.put(f"aa{i:062x}", _response(i))
                raise KeyboardInterrupt
        # The first `interval` puts spilled to disk mid-block and persist;
        # only the unflushed tail is discarded.
        assert len(store) == interval
        assert store.get(f"aa{0:062x}") == _response(0)
        assert store.get(f"aa{interval:062x}") is None

    def test_exception_caught_inside_outer_block_keeps_buffer(self, tmp_path):
        """Discard is an *unwinding* decision: a nested block's exception
        handled inside the outer block must not drop the outer batch."""
        store = DiskResponseStore(tmp_path)
        outer_key = "aa" + "0" * 62
        inner_key = "bb" + "0" * 62
        with store.deferred():
            store.put(outer_key, _response(0))
            with pytest.raises(RuntimeError):
                with store.deferred():
                    store.put(inner_key, _response(1))
                    raise RuntimeError("inner failure, handled by caller")
            # Inner exceptional exit at depth > 0 defers to the outer block.
            assert store.get(outer_key) == _response(0)
        assert store.get(outer_key) == _response(0)
        assert store.get(inner_key) == _response(1)

    def test_nested_clean_exits_flush_once_at_outermost(self, tmp_path):
        store = DiskResponseStore(tmp_path)
        key = "cc" + "0" * 62
        with store.deferred():
            with store.deferred():
                store.put(key, _response(2))
            assert store._segment_files() == []
        assert store.get(key) == _response(2)


class TestLifecycleSweeps:
    def test_stale_tmp_files_swept_on_init_and_evict(self, tmp_path):
        store = DiskResponseStore(tmp_path)
        store.put("ab" + "0" * 62, _response(0))
        dead = tmp_path / "responses-ab.bin.tmp.999999999.123"
        dead.write_bytes(b"orphan")
        # Re-opening the directory sweeps droppings from dead writers.
        DiskResponseStore(tmp_path)
        assert not dead.exists()
        dead.write_bytes(b"orphan")
        store.evict()
        assert not dead.exists()

    def test_live_tmp_files_kept_and_counted(self, tmp_path):
        store = DiskResponseStore(tmp_path)
        mine = tmp_path / f"responses-ab.bin.tmp.{os.getpid()}.7"
        mine.write_bytes(b"x" * 128)
        DiskResponseStore(tmp_path)  # init sweep must spare a live writer
        assert mine.exists()
        assert store.size_bytes() >= 128  # tmp bytes count against the bound

    def test_version_skewed_segments_gced_on_evict(self, tmp_path):
        store = DiskResponseStore(tmp_path)
        store.put("ab" + "0" * 62, _response(0))
        skewed = tmp_path / "responses-skewed.bin"
        skewed.write_bytes(
            encode_segment({"version": "paleolithic", "key": "zz"}, {})
        )
        assert store.stale_segment_count() == 1
        assert store.manifest().stale_segments == 1
        store.evict()
        assert not skewed.exists()
        assert store.stale_segment_count() == 0
        assert store.get("ab" + "0" * 62) == _response(0)  # live data spared


class TestSizeEnvParsers:
    """One contract, three bounds: the response cache, the profile store,
    and the artifact cache each read their byte bound from their own env
    var, through the CLI and (for the runtime's stores) the library."""

    CASES = [
        ("REPRO_CACHE_MAX_BYTES", "cli"),
        ("REPRO_PROFILE_CACHE_MAX_BYTES", "cli"),
        ("REPRO_PROFILE_CACHE_MAX_BYTES", "library"),
        ("REPRO_ARTIFACT_CACHE_MAX_BYTES", "cli"),
        ("REPRO_ARTIFACT_CACHE_MAX_BYTES", "library"),
    ]

    @staticmethod
    def _bound(env: str, path: str):
        """The bound the store ``env`` governs ends up with, built the way
        ``path`` builds it."""
        from repro import cli, runtime
        from repro.store.families import FAMILIES

        (family,) = (f for f in FAMILIES if f.bound_env == env)
        if path == "cli":
            args = cli.build_parser().parse_args(["rq2"])
            return cli._open_store(args, family).max_bytes
        return getattr(runtime.current(), family.runtime_field).max_bytes

    @pytest.fixture(
        params=CASES,
        ids=[env if path == "cli" else f"{env}-{path}" for env, path in CASES],
    )
    def parser(self, request, monkeypatch):
        env, path = request.param
        return (lambda: self._bound(env, path)), env, monkeypatch

    def test_valid_integer(self, parser):
        fn, env, monkeypatch = parser
        monkeypatch.setenv(env, "123456")
        assert fn() == 123456

    def test_unset_and_blank_mean_unbounded(self, parser):
        fn, env, monkeypatch = parser
        monkeypatch.delenv(env, raising=False)
        assert fn() is None
        monkeypatch.setenv(env, "   ")
        assert fn() is None

    def test_zero_means_zero(self, parser):
        fn, env, monkeypatch = parser
        monkeypatch.setenv(env, "0")
        assert fn() == 0

    @pytest.mark.parametrize("raw", ["junk", "1.5e9", "10MB", "-1"])
    def test_junk_warns_and_falls_back(self, parser, raw):
        fn, env, monkeypatch = parser
        monkeypatch.setenv(env, raw)
        with pytest.warns(RuntimeWarning, match=env):
            assert fn() is None

    def test_parse_max_bytes_names_its_source(self):
        with pytest.warns(RuntimeWarning, match="SOME_ENV"):
            assert parse_max_bytes("nope", source="SOME_ENV") is None


#: Small but two-axis grid: enough to exercise both RQs' cache traffic.
_MODELS = ("o3-mini-high",)
_GPUS = ("V100",)
_LIMIT = 6


class TestDigestInvariance:
    def _run(self, engine) -> tuple[str, object]:
        models = [get_model(n) for n in _MODELS]
        gpus = [get_gpu(n) for n in _GPUS]
        result = run_matrix(
            models, gpus, rqs=("rq2",), limit=_LIMIT, engine=engine
        )
        return result.digest(), result

    def test_off_cold_warm_and_legacy_all_identical(self, tmp_path, dataset):
        off_engine = EvalEngine()
        off_digest, off = self._run(off_engine)

        store = DiskResponseStore(tmp_path / "binary")
        cold_digest, _ = self._run(EvalEngine(jobs=2, store=store))
        warm_engine = EvalEngine(jobs=2, store=DiskResponseStore(tmp_path / "binary"))
        warm_digest, warm = self._run(warm_engine)
        assert cold_digest == off_digest
        assert warm_digest == off_digest
        assert warm.render() == off.render()
        assert warm_engine.stats.completions == 0

        # The same entries in the old formats — one ``xx/<key>.json`` file
        # per entry plus one whole-JSON ``responses-xx.json`` segment — are
        # foreign files: the run recomputes every unit to the same digest
        # and never modifies them, clear() included.
        legacy_root = tmp_path / "legacy"
        entries = dict(store.iter_entries())
        for key, blob in entries.items():
            path = legacy_root / key[:2] / f"{key}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(blob)
        shard = min(entries)[:2]
        (legacy_root / f"responses-{shard}.json").write_text(json.dumps({
            "version": CACHE_SCHEMA_VERSION,
            "key": shard,
            "entries": {
                k: json.loads(b) for k, b in entries.items()
                if k.startswith(shard)
            },
        }, sort_keys=True))
        old_files = {
            p: p.read_bytes() for p in legacy_root.rglob("*.json")
        }
        legacy_store = DiskResponseStore(legacy_root)
        legacy_engine = EvalEngine(jobs=2, store=legacy_store)
        legacy_digest, _ = self._run(legacy_engine)
        assert legacy_digest == off_digest
        assert legacy_engine.stats.completions == off_engine.stats.completions
        assert legacy_engine.stats.hits == 0
        legacy_store.clear()
        assert len(legacy_store) == 0
        assert {
            p: p.read_bytes() for p in legacy_root.rglob("*.json")
        } == old_files

    def test_legacy_blobs_round_trip_byte_exactly(self, tmp_path):
        """The glue the legacy replay relies on: a canonical blob decoded
        and re-encoded through CachedResponse is the identical bytes."""
        store = DiskResponseStore(tmp_path)
        key = "ab" + "0" * 62
        store.put(key, _response(3))
        blob = store.get_blob(key)
        rebuilt = json.dumps(
            CachedResponse.from_dict(json.loads(blob)).to_dict(),
            sort_keys=True,
        ).encode("utf-8")
        assert rebuilt == blob
