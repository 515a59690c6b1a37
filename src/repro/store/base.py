"""The :class:`ArtifactStore` base: segments, eviction, atomic writes.

Extracted from the profile store (PR 4) so that every content-addressed
disk cache in the repo shares one implementation of the risky parts —
atomic read-merge-write segment I/O, corruption-tolerant reads, and
size-bounded oldest-first eviction. Subclasses declare their ``version``
string (recorded in and checked against every segment) and their
``segment_prefixes`` (the filename prefixes of every segment kind the
store *family* owns — stores sharing one root directory list the union,
so a shared size bound spans all of them).

Segments are **packed binary** files (PR 6)::

    magic | total size | meta len | index len     (20-byte struct header)
    meta JSON   {"version": ..., "key": ..., ...} (payload sans entries)
    index       "\n"-joined key blob + packed (offset, length) span array
    body        u32-length-prefixed JSON blobs, one per entry, key-sorted

Reads are mmap-backed and **lazy**: opening a segment parses only the
header and index; each requested entry decodes exactly its own blob, so a
warm single-entry probe of a 5 000-entry segment never touches the other
4 999. The recorded total size makes torn writes detectable — a segment
truncated at *any* byte reads as empty, never raises. Encoding is
canonical (sorted keys, deterministic JSON), so two stores holding the
same entries hold byte-identical segment files.

The packed ``.bin`` segment is the only format a store reads, counts,
evicts, clears or diagnoses. Anything else in the directory — including
whole-JSON ``.json`` segments and per-entry ``xx/<key>.json`` response
files written by older versions — is a foreign file the store never
touches. Every key is content-addressed, so an ignored old file costs one
recomputation, never a wrong answer.

Writes are buffered: each ``put`` lands in an in-process pending map that
:meth:`ArtifactStore.flush` merges into disk segments — one
read-merge-write per segment per flush, not per entry batch. Outside a
:meth:`ArtifactStore.deferred` block every put flushes immediately (the
pre-PR-6 durability contract); hot sweep paths open a ``deferred()``
block to batch many put calls into one merge. A ``deferred`` block that
exits with an exception (including ``KeyboardInterrupt``) deterministically
**discards** its unflushed buffer rather than flushing mid-unwind — see
:meth:`ArtifactStore.deferred` for the exact contract.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import threading
import time
import warnings
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from repro.util.faults import active_fault_plan

T = TypeVar("T")

# ---------------------------------------------------------------------------
# Identity-memoized content keys
# ---------------------------------------------------------------------------

# Content digests cover deep object trees (kernel IR, program specs), so
# they are memoized per object identity — the corpus programs, the
# per-spec DeviceModels, and the trained tokenizer are long-lived shared
# instances. Weakref callbacks evict entries when the object dies, which
# also defuses id() reuse.
_KEY_LOCK = threading.Lock()


def memoized_object_key(
    obj: object, memo: dict, compute: Callable[[object], str]
) -> str:
    """``compute(obj)``, cached per object identity in ``memo``."""
    ident = id(obj)
    with _KEY_LOCK:
        hit = memo.get(ident)
        if hit is not None and hit[0]() is obj:
            return hit[1]
    key = compute(obj)

    # The lock rides in as a default arg: at interpreter shutdown module
    # globals are torn down to None before late weakref callbacks fire.
    def _evict(_ref, *, ident=ident, memo=memo, lock=_KEY_LOCK) -> None:
        with lock:
            memo.pop(ident, None)

    with _KEY_LOCK:
        memo[ident] = (weakref.ref(obj, _evict), key)
    return key


# ---------------------------------------------------------------------------
# Size-bound parsing (shared by every store's env override)
# ---------------------------------------------------------------------------

def parse_max_bytes(raw: object, *, source: str = "") -> int | None:
    """Parse a store size bound.

    ``None``/blank → unbounded; ``"0"`` → keep nothing (evict everything);
    anything unparseable or negative is **warned about** and treated as
    unbounded — silently honouring ``1GB`` as "never evict" is exactly the
    bug this guards against.
    """
    if raw is None:
        return None
    text = str(raw).strip()
    if not text:
        return None
    origin = f" from {source}" if source else ""
    try:
        value = int(text)
    except ValueError:
        warnings.warn(
            f"ignoring unparseable size bound {text!r}{origin}: expected an "
            "integer byte count (e.g. 1073741824, not '1GB'); the store "
            "stays unbounded",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    if value < 0:
        warnings.warn(
            f"ignoring negative size bound {value}{origin}: use 0 to keep "
            "nothing or omit the bound for an unbounded store",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return value


# ---------------------------------------------------------------------------
# The packed binary segment codec
# ---------------------------------------------------------------------------

SEGMENT_MAGIC = b"RSG1"

#: magic, total file size, meta length, index length (little-endian).
_SEGMENT_HEADER = struct.Struct("<4sQII")
_BLOB_PREFIX = struct.Struct("<I")
#: index layout: u32 key-blob length, the "\n"-joined key blob, then one
#: packed (u64 offset, u32 length) span per key in the same order. Packed
#: rather than JSON so attaching a segment decodes the whole index with
#: three C-level calls (split / iter_unpack / dict-of-zip) — the
#: attach-and-probe-one-entry path must never pay a per-key Python loop.
_KEY_BLOB_PREFIX = struct.Struct("<I")
_SPAN = struct.Struct("<QI")

_MISS = object()


def _encode_blob(value: object) -> bytes:
    """One entry's canonical JSON blob (sorted keys, UTF-8)."""
    if isinstance(value, bytes):
        return value
    return json.dumps(value, sort_keys=True).encode("utf-8")


def encode_segment(payload: Mapping, entries: Mapping[str, object]) -> bytes:
    """Pack ``payload`` + ``entries`` into one binary segment.

    Deterministic: entries are laid out in sorted key order and every JSON
    piece is canonically encoded, so equal logical content yields equal
    bytes (the shard-merge suite compares whole segment files on this).
    Entry keys must not contain newlines (they delimit the key blob) —
    every store keys entries by hex digests or identifiers, so this is a
    codec constraint, not a practical one.
    """
    keys = sorted(entries)
    spans: list[bytes] = []
    parts: list[bytes] = []
    offset = 0
    for key in keys:
        if "\n" in key:
            raise ValueError(f"segment entry key contains newline: {key!r}")
        blob = _encode_blob(entries[key])
        spans.append(_SPAN.pack(offset, len(blob)))
        parts.append(_BLOB_PREFIX.pack(len(blob)))
        parts.append(blob)
        offset += _BLOB_PREFIX.size + len(blob)
    meta = json.dumps(dict(payload), sort_keys=True).encode("utf-8")
    key_blob = "\n".join(keys).encode("utf-8")
    index_len = _KEY_BLOB_PREFIX.size + len(key_blob) + len(b"".join(spans))
    total = _SEGMENT_HEADER.size + len(meta) + index_len + offset
    return b"".join(
        [
            _SEGMENT_HEADER.pack(SEGMENT_MAGIC, total, len(meta), index_len),
            meta,
            _KEY_BLOB_PREFIX.pack(len(key_blob)),
            key_blob,
            *spans,
            *parts,
        ]
    )


class SegmentView:
    """Parsed header + lazily decodable entries of one readable segment.

    Keeps an mmap of the file and decodes single entries on demand.
    """

    __slots__ = ("payload", "_index", "_buf", "_body_start")

    def __init__(self, payload: dict, index: dict, buf, body_start: int):
        self.payload = payload
        self._index = index
        self._buf = buf
        self._body_start = body_start

    def keys(self):
        return self._index.keys()

    def blob(self, key: str) -> bytes | None:
        """The entry's canonical JSON bytes, or ``None`` when absent."""
        span = self._index.get(key)
        if span is None:
            return None
        # Spans come straight from the untrusted index; cross-check each
        # against the body per probe, so attaching never pays a
        # whole-index scan. An offset past ssize_t overflows, not errors.
        offset, length = span
        start = self._body_start + offset
        try:
            (prefixed,) = _BLOB_PREFIX.unpack_from(self._buf, start)
        except (struct.error, OverflowError):
            return None
        if prefixed != length:
            return None  # index/body disagree: corrupt entry == miss
        blob = bytes(self._buf[start + _BLOB_PREFIX.size : start + _BLOB_PREFIX.size + length])
        if len(blob) != length:
            return None
        return blob

    def get(self, key: str, default=None):
        """Decode exactly one entry."""
        blob = self.blob(key)
        if blob is None:
            return default
        try:
            return json.loads(blob)
        except ValueError:
            return default

    def entries(self) -> dict:
        """Full decode — the manifest/merge path, not the warm-read path."""
        out = {}
        for key in self._index:
            value = self.get(key, _MISS)
            if value is not _MISS:
                out[key] = value
        return out


def _load_binary_view(path: Path) -> SegmentView | None:
    """Parse one binary segment's header and index; ``None`` when the file
    is missing, torn (size mismatch with the recorded total), or trash."""
    try:
        with open(path, "rb") as f:
            st = os.fstat(f.fileno())
            size = st.st_size
            if size < _SEGMENT_HEADER.size:
                return None
            try:
                buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError):
                buf = f.read()
    except OSError:
        return None
    try:
        magic, total, meta_len, index_len = _SEGMENT_HEADER.unpack_from(buf, 0)
        if magic != SEGMENT_MAGIC or total != size:
            return None
        meta_start = _SEGMENT_HEADER.size
        index_start = meta_start + meta_len
        body_start = index_start + index_len
        if body_start > size:
            return None
        payload = json.loads(bytes(buf[meta_start:index_start]))
        if not isinstance(payload, dict):
            return None
        (key_blob_len,) = _KEY_BLOB_PREFIX.unpack_from(buf, index_start)
        keys_start = index_start + _KEY_BLOB_PREFIX.size
        spans_start = keys_start + key_blob_len
        if spans_start > body_start:
            return None
        if key_blob_len:
            keys = bytes(buf[keys_start:spans_start]).decode("utf-8").split("\n")
        else:
            keys = []
        span_bytes = bytes(buf[spans_start:body_start])
        if len(span_bytes) != len(keys) * _SPAN.size:
            return None
        # All C-level: attach cost is index I/O, never a per-key loop.
        index = dict(zip(keys, _SPAN.iter_unpack(span_bytes)))
        if len(index) != len(keys):
            return None  # duplicate keys: not a segment we wrote
    except (struct.error, ValueError, TypeError, UnicodeDecodeError):
        return None
    # Span *contents* are validated lazily in :meth:`SegmentView.blob` — a
    # span pointing outside the body is a per-entry miss.
    return SegmentView(payload, index, buf, body_start)


# Parsed views are cached process-wide by (path, stat signature): a warm
# replay probes the same segment thousands of times, and re-parsing the
# index per probe would defeat the lazy format. A rewrite changes the
# signature and reloads; mmaps of replaced files stay valid until dropped.
_VIEW_CACHE_LOCK = threading.Lock()
_VIEW_CACHE: "OrderedDict[str, tuple[tuple, SegmentView | None]]" = OrderedDict()
_VIEW_CACHE_CAP = 512


def _segment_view(path: Path) -> SegmentView | None:
    """The cached view of ``path``, or ``None`` for anything missing or
    unreadable."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    sig = (st.st_mtime_ns, st.st_size, st.st_ino)
    cache_key = str(path)
    with _VIEW_CACHE_LOCK:
        hit = _VIEW_CACHE.get(cache_key)
        if hit is not None and hit[0] == sig:
            _VIEW_CACHE.move_to_end(cache_key)
            return hit[1]
    view = _load_binary_view(path)
    with _VIEW_CACHE_LOCK:
        _VIEW_CACHE[cache_key] = (sig, view)
        _VIEW_CACHE.move_to_end(cache_key)
        while len(_VIEW_CACHE) > _VIEW_CACHE_CAP:
            _VIEW_CACHE.popitem(last=False)
    return view


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours (EPERM): treat as alive
    return True


# ---------------------------------------------------------------------------
# The store base
# ---------------------------------------------------------------------------

class ArtifactStore:
    """Disk-backed packed-binary segments with size-bounded eviction.

    One segment per reuse unit (a device's profiles, a corpus's sources, a
    tokenizer's counts). Writes are atomic and read-merge-write, so
    concurrent writers can at worst lose some of each other's *warmth* —
    entries are content-addressed and deterministic, so no interleaving
    can install a wrong value.

    ``max_bytes`` semantics: ``None`` (default) is unbounded; ``0`` keeps
    nothing — every eviction pass deletes every segment (useful to force a
    cache-off sweep without unplumbing the store); a positive bound evicts
    whole segments oldest-written-first until the store fits. Negative
    bounds are rejected. Eviction also garbage-collects version-skewed and
    unreadable segments (stranded by version bumps) and sweeps stale
    ``*.tmp.*`` files leaked by crashed writers; live tmp files count
    toward the bound so it stays honest.
    """

    #: Recorded in every segment payload and checked on read; bump in the
    #: subclass whenever the artifact's semantics change.
    version: str = ""

    #: Filename prefixes of every segment kind this store's family owns.
    #: Size accounting, eviction, and ``clear`` operate over the union, so
    #: stores sharing one root share one bound.
    segment_prefixes: tuple[str, ...] = ()

    #: Inside a ``deferred()`` block, flush anyway once this many entries
    #: are buffered (bounds memory on huge sweeps).
    DEFERRED_FLUSH_ENTRIES = 4096

    #: A ``*.tmp.*`` file older than this is stale even if a process with
    #: its recorded pid is still alive (pids recycle).
    STALE_TMP_AGE_S = 3600.0

    #: Attaching to a directory sweeps dead writers' tmp files. The store
    #: doctor flips this off (:func:`repro.store.doctor.quiet_attach`) so a
    #: read-only diagnosis can observe the leak instead of cleaning it.
    ATTACH_SWEEP = True

    def __init__(self, root: str | Path, *, max_bytes: int | None = None):
        self.root = Path(root)
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(
                f"max_bytes must be >= 0 or None, got {max_bytes} "
                "(0 keeps nothing; None is unbounded)"
            )
        self.max_bytes = max_bytes
        self._store_lock = threading.RLock()
        self._pending: dict[Path, list] = {}
        self._pending_entries = 0
        self._defer_depth = 0
        # Crashed writers leak tmp files that no size check used to see;
        # sweep the stale ones whenever a store attaches to a directory.
        if self.ATTACH_SWEEP and self.root.is_dir():
            self._sweep_stale_tmp_files()

    # -- segment naming ------------------------------------------------------
    def _segment_path(self, prefix: str, key: str) -> Path:
        return self.root / f"{prefix}{key[:32]}.bin"

    def _segment_files(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        try:
            return sorted(
                p
                for p in self.root.iterdir()
                if p.name.endswith(".bin")
                and p.name.startswith(self.segment_prefixes)
            )
        except OSError:
            return []  # root vanished mid-scan (concurrent wipe)

    def _iter_tmp_files(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        try:
            return [p for p in self.root.glob("*.tmp.*") if p.is_file()]
        except OSError:
            return []

    # -- reads ---------------------------------------------------------------
    def _live_view(
        self, path: Path, expect_key: str | None = None
    ) -> SegmentView | None:
        """``path``'s view when it can serve reads: readable, written at
        this store's version and, given ``expect_key``, recorded under that
        key (guarding against prefix-truncated filename collisions)."""
        view = _segment_view(path)
        if view is None or view.payload.get("version") != self.version:
            return None
        if expect_key is not None and view.payload.get("key") != expect_key:
            return None
        return view

    def _view_for(
        self, prefix: str, key: str, *, expect_key: str | None
    ) -> SegmentView | None:
        """The live view of one logical segment, or ``None``."""
        return self._live_view(self._segment_path(prefix, key), expect_key)

    def _live_views(self) -> Iterator[tuple[Path, SegmentView]]:
        """Flush, then yield ``(path, view)`` for every live segment — the
        one whole-store walk that manifests, counts and merges read."""
        self.flush()
        for path in self._segment_files():
            view = self._live_view(path)
            if view is not None:
                yield path, view

    def _buffered(
        self, prefix: str, key: str, entry_keys: Sequence[str]
    ) -> dict:
        """The requested entries still in the pending buffer — the
        read-your-writes overlay on top of the on-disk segment."""
        with self._store_lock:
            pend = self._pending.get(self._segment_path(prefix, key))
            if pend is None:
                return {}
            entries = pend[3]
            return {k: entries[k] for k in entry_keys if k in entries}

    def _get_entries(
        self,
        prefix: str,
        key: str,
        entry_keys: Sequence[str],
        *,
        expect_key: str | None,
    ) -> dict:
        """entry key → raw (JSON-shaped) value for every requested key
        present, decoding **only** the requested entries. Buffered puts
        overlay the on-disk segment, so a deferred batch reads its own
        writes."""
        out: dict = {}
        view = self._view_for(prefix, key, expect_key=expect_key)
        if view is not None:
            for k in entry_keys:
                value = view.get(k, _MISS)
                if value is not _MISS:
                    out[k] = value
        out.update(self._buffered(prefix, key, entry_keys))
        return out

    def iter_segments(self) -> Iterator[tuple[Path, dict]]:
        """Yield ``(path, payload)`` for every live segment, the payload
        carrying its decoded ``entries`` — the raw material for subclass
        manifests."""
        for path, view in self._live_views():
            data = dict(view.payload)
            data["entries"] = view.entries()
            yield path, data

    def stale_segment_count(self) -> int:
        """Segment files that can no longer serve reads — version-skewed
        (stranded by a version bump) or unreadable. The next :meth:`evict`
        call garbage-collects them; manifests surface this count."""
        return sum(
            1 for p in self._segment_files() if self._live_view(p) is None
        )

    # -- writes --------------------------------------------------------------
    def _merge_entries(
        self,
        prefix: str,
        key: str,
        payload: dict,
        entries: Mapping,
        *,
        expect_key: str | None,
    ) -> None:
        """Buffer ``entries`` for the segment at ``(prefix, key)``; outside
        a :meth:`deferred` block this flushes (one read-merge-write)
        immediately."""
        if not entries:
            return
        path = self._segment_path(prefix, key)
        with self._store_lock:
            pend = self._pending.get(path)
            if pend is None:
                self._pending[path] = [prefix, key, dict(payload), dict(entries), expect_key]
            else:
                pend[2] = dict(payload)
                pend[3].update(entries)
            self._pending_entries += len(entries)
            flush_now = (
                self._defer_depth == 0
                or self._pending_entries >= self.DEFERRED_FLUSH_ENTRIES
            )
        if flush_now:
            self.flush()

    def flush(self) -> None:
        """Merge every buffered batch into its disk segment — one
        read-merge-write per segment regardless of how many put calls
        accumulated. A no-op with nothing pending.

        The whole merge loop holds the store lock: two threads flushing
        the same segment would otherwise interleave their read-merge-write
        cycles and the last replace would drop the other's entries.
        Blocking a ``put`` until an in-flight flush lands is also what
        makes read-your-writes hold when another thread's flush happens to
        carry this thread's pending batch."""
        with self._store_lock:
            if not self._pending:
                return
            pending = self._pending
            self._pending = {}
            self._pending_entries = 0
            for path, (prefix, key, payload, entries, expect_key) in pending.items():
                merged = {}
                view = self._view_for(prefix, key, expect_key=expect_key)
                if view is not None:
                    merged = view.entries()
                merged.update(entries)
                self._write_segment(path, payload, merged)
        self._maybe_evict()

    @contextmanager
    def deferred(self):
        """Batch puts: inside the block they buffer in memory (reads still
        see them); the block exit flushes once per touched segment.

        Exception semantics are deterministic: a **clean** exit of the
        outermost block flushes everything buffered; an **exceptional**
        exit (any ``BaseException``, including ``KeyboardInterrupt``)
        discards the store's entire pending buffer instead — no disk I/O
        happens while unwinding, so a flush failure can never shadow the
        real error and a second Ctrl-C can never tear a half-written
        flush. Batches already spilled mid-block by the
        ``DEFERRED_FLUSH_ENTRIES`` interval stay on disk, so an aborted
        sweep loses at most one interval of warmth — and entries are
        content-addressed, so a lost batch costs recomputation, never
        correctness. The buffer is store-global: the discard also drops
        batches buffered by other threads' concurrently open ``deferred``
        blocks (they would have shared the same flush).

        Nested blocks defer to the outermost one: an exception *caught
        inside* the outer block leaves the buffer intact, and the outer
        clean exit still flushes it.
        """
        with self._store_lock:
            self._defer_depth += 1
        try:
            yield self
        except BaseException:
            with self._store_lock:
                self._defer_depth -= 1
                if self._defer_depth == 0:
                    self._pending.clear()
                    self._pending_entries = 0
            raise
        else:
            with self._store_lock:
                self._defer_depth -= 1
                flush_now = self._defer_depth == 0
            if flush_now:
                self.flush()

    def _write_segment(self, path: Path, payload: dict, entries: dict) -> None:
        """Atomically install the binary segment. Unwritable stores degrade
        to uncached, never crash the computing pass."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            data = encode_segment(payload, entries)
            plan = active_fault_plan()
            if plan is not None:
                # Chaos hook: the active plan may tear/forge/skew these
                # bytes or veto the write with ENOSPC. Still installed via
                # tmp+replace, so injected corruption models damage that
                # predates this process — exactly what the doctor fscks.
                data = plan.mangle_segment(path, payload, entries, data)
            tmp = path.with_suffix(
                f".tmp.{os.getpid()}.{threading.get_ident()}"
            )
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError:
            return

    # -- lifecycle -----------------------------------------------------------
    def size_bytes(self) -> int:
        """Bytes the store occupies on disk: segments and ``*.tmp.*``
        leftovers — everything the eviction bound must cover."""
        self.flush()
        total = 0
        for p in (*self._segment_files(), *self._iter_tmp_files()):
            try:
                total += p.stat().st_size
            except OSError:
                continue
        return total

    def _sweep_stale_tmp_files(self) -> int:
        """Delete tmp files leaked by crashed writers: their recorded pid
        is dead, or they outlived :data:`STALE_TMP_AGE_S`. A live writer's
        in-flight tmp file survives."""
        removed = 0
        now = time.time()
        for p in self._iter_tmp_files():
            pid: int | None = None
            _, _, tail = p.name.partition(".tmp.")
            head = tail.split(".", 1)[0]
            if head.isdigit():
                pid = int(head)
            stale = True
            if pid is not None and _pid_alive(pid):
                try:
                    stale = now - p.stat().st_mtime > self.STALE_TMP_AGE_S
                except OSError:
                    continue  # vanished mid-sweep: nothing left to do
            if stale:
                try:
                    p.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def _maybe_evict(self) -> None:
        if self.max_bytes is not None:
            self.evict()

    def evict(self, max_bytes: int | None = None) -> int:
        """Garbage-collect stale segments and tmp leftovers, then delete
        oldest-written segments until the store fits ``max_bytes``
        (defaults to the configured bound; ``0`` keeps nothing; ``None``
        skips the bound pass). Returns segment files removed."""
        self.flush()
        self._sweep_stale_tmp_files()
        removed = 0
        stats: list[tuple[float, int, Path]] = []
        total = 0
        for p in self._segment_files():
            try:
                st = p.stat()
            except OSError:
                continue
            if self._live_view(p) is None:
                # Version-skewed or unreadable: unreachable disk garbage
                # regardless of any size bound.
                try:
                    p.unlink()
                    removed += 1
                except OSError:
                    pass
                continue
            stats.append((st.st_mtime, st.st_size, p))
            total += st.st_size
        for p in self._iter_tmp_files():
            try:
                total += p.stat().st_size  # live writers count, too
            except OSError:
                continue
        bound = self.max_bytes if max_bytes is None else max_bytes
        if bound is None or total <= bound:
            return removed
        for _, size, path in sorted(stats):
            if total <= bound:
                break
            try:
                path.unlink()
            except OSError:
                continue  # lost a race with a concurrent evictor
            total -= size
            removed += 1
        return removed

    def clear(self) -> None:
        # Remove only files the store owns, never the root wholesale: the
        # directory may contain unrelated files.
        with self._store_lock:
            self._pending.clear()
            self._pending_entries = 0
        for path in self._segment_files():
            try:
                path.unlink()
            except OSError:
                pass
        for stale in self._iter_tmp_files():
            try:
                stale.unlink()
            except OSError:
                pass
