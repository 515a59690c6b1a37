"""The :class:`ArtifactStore` base: immutable runs, compaction, eviction.

Extracted from the profile store (PR 4) so that every content-addressed
disk cache in the repo shares one implementation of the risky parts —
log-structured segment I/O, corruption-tolerant reads, and
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
canonical (sorted keys, deterministic JSON), so two compacted stores
holding the same entries hold byte-identical files.

The packed ``.bin`` segment is the only format a store reads, counts,
evicts, clears or diagnoses. Anything else in the directory — including
whole-JSON ``.json`` segments and per-entry ``xx/<key>.json`` response
files written by older versions — is a foreign file the store never
touches. Every key is content-addressed, so an ignored old file costs one
recomputation, never a wrong answer.

A store holds **logical segments**, one per reuse unit ``(prefix, key)``
(a device's profiles, a tokenizer's counts, every response). On disk a
logical segment is a set of immutable **runs**: packed segment files named
``<prefix><content digest>.bin`` whose meta records the logical ``key``.
Writes are buffered: each ``put`` lands in an in-process pending map that
:meth:`ArtifactStore.flush` writes out as one new run per touched logical
segment. A flush never reads what is already on disk, so writers in other
threads or processes cannot erase each other's entries, and two writers
flushing the same entries install the same file. Outside a
:meth:`ArtifactStore.deferred` block every put flushes immediately; hot
sweep paths open a ``deferred()`` block to batch many put calls into one
run. A ``deferred`` block that exits with an exception (including
``KeyboardInterrupt``) deterministically **discards** its unflushed buffer
rather than flushing mid-unwind — see :meth:`ArtifactStore.deferred` for
the exact contract.

Reads resolve each entry through an in-memory entry-key → run index per
logical segment. The store's own flushes update it directly; a directory
listing refreshes it whenever the root directory changes (another process
wrote or compacted runs). When a logical segment holds more than
:attr:`ArtifactStore.COMPACT_FAN_IN` runs, the newest runs are merged into
one; :meth:`ArtifactStore.compact` merges every segment into exactly one
run whose bytes equal :func:`encode_segment` over the union — the bytes a
single writer would have produced.

Every store reports itself through one :meth:`ArtifactStore.manifest`: a
:class:`StoreManifest` counted from one snapshot of the live runs and laid
out from the rows the store declares (:attr:`ArtifactStore.version_row`,
:attr:`~ArtifactStore.count_rows`, :attr:`~ArtifactStore.breakdown`,
:attr:`~ArtifactStore.age_row`). Its ``bytes`` is :meth:`size_bytes`, the
figure the eviction bound sees, so damaged runs and tmp files count.

A ``*.tmp.*`` file is stale when the writer pid in its name is dead, or
once it is older than :attr:`ArtifactStore.STALE_TMP_AGE_S`, so a file
whose writer is alive or unknown is never deleted sooner.
:meth:`ArtifactStore.stale_tmp_files` applies that rule for the attach
and eviction sweeps and for the store doctor alike.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TypeVar

from repro import runtime
from repro.store.families import plural
from repro.util.memo import Memo

T = TypeVar("T")

# ---------------------------------------------------------------------------
# Size-bound parsing (shared by every store's env override)
# ---------------------------------------------------------------------------

def _checked_bound(max_bytes: int | None) -> int | None:
    """``max_bytes`` if it is a valid explicit store bound; a negative
    bound raises instead of evicting everything."""
    if max_bytes is not None and max_bytes < 0:
        raise ValueError(
            f"max_bytes must be >= 0 or None, got {max_bytes} "
            "(0 keeps nothing; None is unbounded)"
        )
    return max_bytes


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
    ``sig`` is the file's ``(st_mtime_ns, st_size, st_ino)`` when it was
    parsed, so a reader can tell whether the file has changed since.
    """

    __slots__ = ("payload", "_index", "_buf", "_body_start", "path", "sig")

    def __init__(
        self, payload: dict, index: dict, buf, body_start: int,
        path: str, sig: tuple[int, int, int],
    ):
        self.payload = payload
        self._index = index
        self._buf = buf
        self._body_start = body_start
        self.path = path
        self.sig = sig

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
    is missing, torn (size mismatch with the recorded total), or trash.

    Header and index are read, not mapped: touching a mapping maps whole
    page-cache folios (up to 2 MiB), so a view that never serves an entry
    — a run just written, a source run only ever re-put — must cost no
    resident memory. Entry blobs are read through the mmap."""
    try:
        with open(path, "rb") as f:
            st = os.fstat(f.fileno())
            size = st.st_size
            head = f.read(_SEGMENT_HEADER.size)
            if len(head) < _SEGMENT_HEADER.size:
                return None
            magic, total, meta_len, index_len = _SEGMENT_HEADER.unpack(head)
            if magic != SEGMENT_MAGIC or total != size:
                return None
            body_start = _SEGMENT_HEADER.size + meta_len + index_len
            if body_start > size:
                return None
            head = f.read(meta_len + index_len)
            try:
                buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError):
                f.seek(0)
                buf = f.read()
    except OSError:
        return None
    try:
        payload = json.loads(head[:meta_len])
        if not isinstance(payload, dict):
            return None
        (key_blob_len,) = _KEY_BLOB_PREFIX.unpack_from(head, meta_len)
        keys_start = meta_len + _KEY_BLOB_PREFIX.size
        spans_start = keys_start + key_blob_len
        if spans_start > len(head):
            return None
        if key_blob_len:
            keys = head[keys_start:spans_start].decode("utf-8").split("\n")
        else:
            keys = []
        span_bytes = head[spans_start:]
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
    return SegmentView(
        payload, index, buf, body_start,
        str(path), (st.st_mtime_ns, size, st.st_ino),
    )


# Parsed views are cached process-wide by path, each with its stat
# signature: a warm replay probes the same run thousands of times, and
# re-parsing the index per probe would defeat the lazy format. A rewrite
# changes the signature and reloads; mmaps of replaced or unlinked files
# stay valid until dropped, so a store pops the views of runs it deletes.
VIEWS = Memo(512)


def _segment_view(path: Path) -> SegmentView | None:
    """The cached view of ``path``, or ``None`` for anything missing or
    unreadable."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    sig = (st.st_mtime_ns, st.st_size, st.st_ino)
    hit = VIEWS.get(str(path))
    if hit is not None and hit[0] == sig:
        return hit[1]
    view = _load_binary_view(path)
    VIEWS.put(str(path), (sig, view))
    return view


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return False  # no such process; no pid is that large
    except OSError:
        return True  # exists but not ours (EPERM): treat as alive
    return True


def _unlink(path: Path | str) -> bool:
    try:
        os.unlink(path)
    except OSError:
        return False  # vanished already: a concurrent compactor or evictor
    return True


# ---------------------------------------------------------------------------
# Logical segments
# ---------------------------------------------------------------------------

#: A root directory modified this recently may change again within the
#: same filesystem timestamp tick, so a listing taken now is not trusted to
#: stay current: reads keep listing until the root has been quiet this long.
_RACY_ROOT_NS = 20_000_000

_UNSYNCED = object()


def _run_age(view: SegmentView) -> tuple[int, str]:
    return view.sig[0], view.path


def _newest_tier(runs: Sequence[SegmentView], fan_in: int) -> int:
    """How many of the newest ``runs`` (oldest first) an automatic
    compaction merges: enough to get back to ``fan_in`` runs, then every
    older run no bigger than the merged total. Size-tiered merging copies
    each entry O(log n) times rather than once per ``fan_in`` flushes."""
    take = max(2, len(runs) - fan_in + 1)
    size = sum(view.sig[1] for view in runs[-take:])
    while take < len(runs) and runs[-take - 1].sig[1] <= size:
        take += 1
        size += runs[-take].sig[1]
    return take


class _Segment:
    """One logical segment: its live runs and the run holding each entry."""

    __slots__ = ("runs", "where")

    def __init__(self, runs: dict[str, SegmentView] | None = None):
        self.runs: dict[str, SegmentView] = runs or {}
        self.where: dict[str, SegmentView] = {}
        self.reindex()

    def ordered(self) -> list[SegmentView]:
        """The runs, oldest-written first."""
        return sorted(self.runs.values(), key=_run_age)

    def reindex(self) -> None:
        # The newest run wins a key held twice (a corrupt entry re-put).
        where: dict[str, SegmentView] = {}
        for view in self.ordered():
            where.update(dict.fromkeys(view.keys(), view))
        self.where = where

    def add(self, view: SegmentView) -> None:
        """Index a freshly written (so newest) run."""
        replaced = self.runs.get(view.path)
        self.runs[view.path] = view
        if replaced is None:
            self.where.update(dict.fromkeys(view.keys(), view))
        else:
            self.reindex()


# ---------------------------------------------------------------------------
# The manifest
# ---------------------------------------------------------------------------

#: Sidecar file at a store's root naming the source store of each entry
#: a merge installed (:func:`repro.eval.shard.merge_caches`). Not a
#: segment, so no store walk sees it; a manifest reads it for its
#: ``merged from`` rows.
MERGE_PROVENANCE_FILENAME = "merge-provenance.json"


@dataclass(frozen=True)
class CountRow:
    """A manifest row counting the live entries under one segment
    ``prefix``; with ``per`` set, it also counts the logical segments
    holding them, as ``(N <per>s)``."""

    label: str
    prefix: str
    per: str = ""


@dataclass(frozen=True)
class Breakdown:
    """The indented manifest rows: the live entries under ``prefix``,
    grouped by ``field`` of their run's payload (``of="payload"``) or of
    the entry itself (``of="entry"``); ``unnamed`` stands for a missing
    or empty name."""

    prefix: str
    field: str
    of: str
    unnamed: str


@dataclass(frozen=True)
class StoreManifest:
    """What one store holds, as ``repro-paper cache`` prints it."""

    #: The version row's label (``profiler``), or "" for no version row.
    version_row: str
    version: str
    #: Per count row: the row, its live entries and its logical segments.
    counts: tuple[tuple[CountRow, int, int], ...]
    #: Every byte the store occupies: :meth:`ArtifactStore.size_bytes`.
    total_bytes: int
    #: Segment files that cannot serve reads; eviction reclaims them.
    stale_segments: int
    #: (group name, live entries) per breakdown group, sorted.
    breakdown: tuple[tuple[str, int], ...] = ()
    #: (source store, live merged entries), sorted; empty unless a merge
    #: assembled the store.
    per_source: tuple[tuple[str, int], ...] = ()
    #: Ages of the newest and oldest entry, for a store with an age row;
    #: ``None`` otherwise or when it is empty.
    newest_age_s: float | None = None
    oldest_age_s: float | None = None

    def count(self, label: str) -> int:
        """Live entries on the count row ``label``."""
        return next(n for row, n, _ in self.counts if row.label == label)

    def segments(self, label: str) -> int:
        """Logical segments holding the count row ``label``'s entries."""
        return next(n for row, _, n in self.counts if row.label == label)

    def render(self) -> str:
        rows = [(self.version_row, self.version)] if self.version_row else []
        for row, entries, segments in self.counts:
            per = f" ({plural(segments, row.per)})" if row.per else ""
            rows.append((row.label, f"{entries}{per}"))
        rows.append(("bytes", str(self.total_bytes)))
        if self.oldest_age_s is not None:
            rows.append(("age", f"{self.newest_age_s:.0f}s (newest) … "
                                f"{self.oldest_age_s:.0f}s (oldest)"))
        if self.stale_segments:
            rows.append(("stale", f"{plural(self.stale_segments, 'segment')}"
                                  " (reclaimed on next eviction)"))
        # Values line up one space past the longest ``label:``, and at
        # least 11 characters in.
        width = max(10, *(len(label) + 1 for label, _ in rows))
        lines = [f"{label + ':':<{width}} {value}" for label, value in rows]
        lines += [f"  {name}: {n}" for name, n in self.breakdown]
        lines += [f"  merged from {name}: {n}" for name, n in self.per_source]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The store base
# ---------------------------------------------------------------------------

class ArtifactStore:
    """Disk-backed logical segments of immutable runs, with compaction and
    size-bounded eviction.

    One logical segment per reuse unit (a device's profiles, a corpus's
    sources, a tokenizer's counts). Every flush installs one new run per
    touched segment and never rewrites what is already on disk, so
    concurrent writers — threads of one store or processes sharing a root —
    keep every entry they write. Entries are content-addressed and
    deterministic, so no interleaving can install a wrong value.

    ``max_bytes`` semantics: ``None`` (default) is unbounded; ``0`` keeps
    nothing — every eviction pass deletes every run (useful to force a
    cache-off sweep without unplumbing the store); a positive bound evicts
    whole runs oldest-written-first until the store fits. Negative bounds
    are rejected. Eviction also garbage-collects version-skewed and
    unreadable files (stranded by version bumps) and sweeps stale
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

    #: What :meth:`manifest` shows besides ``bytes`` and ``stale``: the
    #: label of its version row ("" for none), one count row per segment
    #: prefix, the per-group rows, and whether an ``age`` row gives the
    #: newest and oldest entry's age.
    version_row: str = ""
    count_rows: tuple[CountRow, ...] = ()
    breakdown: Breakdown | None = None
    age_row: bool = False

    #: Inside a ``deferred()`` block, flush anyway once this many entries
    #: are buffered (bounds memory on huge sweeps).
    DEFERRED_FLUSH_ENTRIES = 4096

    #: A logical segment left holding more runs than this by a flush (or
    #: found so by :meth:`evict`) merges its newest runs into one.
    COMPACT_FAN_IN = 16

    #: A ``*.tmp.*`` file older than this is stale even if a process with
    #: its recorded pid is still alive (pids recycle).
    STALE_TMP_AGE_S = 3600.0

    #: Attaching to a directory sweeps dead writers' tmp files. The store
    #: doctor flips this off (:func:`repro.store.doctor.quiet_attach`) so a
    #: read-only diagnosis can observe the leak instead of cleaning it.
    ATTACH_SWEEP = True

    def __init__(self, root: str | Path, *, max_bytes: int | None = None):
        self.root = Path(root)
        self.max_bytes = _checked_bound(max_bytes)
        self._store_lock = threading.RLock()
        self._compact_lock = threading.RLock()
        # (prefix, key) → [payload, entries]: the buffer, and the batches
        # whose flush has not yet put its run in the index.
        self._pending: dict[tuple[str, str], list] = {}
        self._pending_entries = 0
        self._inflight: list[dict] = []
        self._defer_depth = 0
        self._segments: dict[tuple[str, str], _Segment] = {}
        self._root_sig: object = _UNSYNCED
        # Crashed writers leak tmp files that no size check used to see;
        # sweep the stale ones whenever a store attaches to a directory.
        if self.ATTACH_SWEEP and self.root.is_dir():
            self._sweep_stale_tmp_files()

    @property
    def _provenance_path(self) -> Path:
        return self.root / MERGE_PROVENANCE_FILENAME

    # -- files ---------------------------------------------------------------
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

    def _live_view(self, path: Path) -> SegmentView | None:
        """``path``'s view when it can serve reads: readable, written at
        this store's version and recording the logical key it belongs to."""
        view = _segment_view(path)
        if view is None or view.payload.get("version") != self.version:
            return None
        if not isinstance(view.payload.get("key"), str):
            return None
        return view

    def _segment_id(self, view: SegmentView) -> tuple[str, str]:
        """The logical segment ``(prefix, key)`` a live run belongs to."""
        name = os.path.basename(view.path)
        prefix = next(p for p in self.segment_prefixes if name.startswith(p))
        return prefix, view.payload["key"]

    # -- the run index -------------------------------------------------------
    def _sync(self, *, full: bool = False) -> None:
        """Bring the run index up to date with the directory (caller holds
        the store lock).

        One ``stat`` of the root when nothing changed: its
        ``(st_mtime_ns, st_ino)`` moves whenever any process installs or
        deletes a run. A changed root is listed again, keeping the view of
        every run whose name and inode are unchanged; ``full`` re-checks
        every run's file as well, for whole-store walks."""
        try:
            st = os.stat(self.root)
        except OSError:
            sig = None
        else:
            sig = (st.st_mtime_ns, st.st_ino)
        if not full and sig == self._root_sig:
            return
        known = {
            path: (seg_id, view)
            for seg_id, seg in self._segments.items()
            for path, view in seg.runs.items()
        }
        grouped: dict[tuple[str, str], dict[str, SegmentView]] = {}
        try:
            with os.scandir(self.root) as entries:
                for entry in entries:
                    name = entry.name
                    if not (
                        name.endswith(".bin")
                        and name.startswith(self.segment_prefixes)
                    ):
                        continue
                    hit = known.pop(entry.path, None)
                    if hit is not None and not full and (
                        hit[1].sig[2] == entry.inode()
                    ):
                        seg_id, view = hit
                    else:
                        view = self._live_view(Path(entry.path))
                        if view is None:
                            continue
                        seg_id = self._segment_id(view)
                    grouped.setdefault(seg_id, {})[entry.path] = view
        except OSError:
            pass  # no root yet, or it vanished: an empty store
        segments = {}
        for seg_id, runs in grouped.items():
            old = self._segments.get(seg_id)
            unchanged = old is not None and old.runs == runs
            segments[seg_id] = old if unchanged else _Segment(runs)
        self._segments = segments
        for path in known:  # runs deleted since the last listing
            VIEWS.pop(path)
        quiet = sig is None or time.time_ns() - sig[0] > _RACY_ROOT_NS
        self._root_sig = sig if quiet else _UNSYNCED

    def _fresh(
        self, view: SegmentView, seg_id: tuple[str, str]
    ) -> SegmentView | None:
        """``view`` when its file is unchanged or gone — a compacted or
        evicted run stays readable through its mapping — else the view of
        the file now at its path. Runs are never rewritten in place, so a
        changed file is damage and must not be read through a stale
        mapping."""
        try:
            st = os.stat(view.path)
        except OSError:
            return view
        if (st.st_mtime_ns, st.st_size, st.st_ino) == view.sig:
            return view
        fresh = self._live_view(Path(view.path))
        if fresh is None or self._segment_id(fresh) != seg_id:
            return None
        return fresh

    def _live_views(self) -> dict[tuple[str, str], _Segment]:
        """Flush, then a snapshot of every live logical segment, each run
        re-checked on disk — the one whole-store walk that manifests,
        counts and merges read."""
        self.flush()
        with self._store_lock:
            self._sync(full=True)
            return {
                seg_id: _Segment(dict(seg.runs))
                for seg_id, seg in self._segments.items()
            }

    # -- reads ---------------------------------------------------------------
    def _buffered(
        self, seg_id: tuple[str, str], entry_keys: Sequence[str]
    ) -> dict:
        """The requested entries not yet in a run: pending, or in a batch
        whose flush is still writing (caller holds the store lock)."""
        out: dict = {}
        for batch in (*self._inflight, self._pending):
            pend = batch.get(seg_id)
            if pend is not None:
                entries = pend[1]
                out.update((k, entries[k]) for k in entry_keys if k in entries)
        return out

    def _get_entries(
        self,
        prefix: str,
        key: str,
        entry_keys: Sequence[str],
        *,
        raw: bool = False,
    ) -> dict:
        """entry key → value for every requested key present, decoding
        **only** the requested entries (``raw``: their canonical JSON
        bytes instead). Buffered puts overlay the runs, so a deferred
        batch reads its own writes."""
        seg_id = (prefix, key)
        held: dict[SegmentView, list[str]] = {}
        with self._store_lock:
            buffered = self._buffered(seg_id, entry_keys)
            self._sync()
            seg = self._segments.get(seg_id)
            if seg is not None:
                where = seg.where
                for k in entry_keys:
                    view = where.get(k)
                    if view is not None and k not in buffered:
                        held.setdefault(view, []).append(k)
        out: dict = {}
        for view, keys in held.items():
            view = self._fresh(view, seg_id)
            if view is None:
                continue
            for k in keys:
                value = view.blob(k) if raw else view.get(k, _MISS)
                if value is not None and value is not _MISS:
                    out[k] = value
        if raw:
            buffered = {k: _encode_blob(v) for k, v in buffered.items()}
        out.update(buffered)
        return out

    def iter_segments(self) -> Iterator[tuple[str, dict]]:
        """Yield ``(prefix, data)`` per live logical segment: its newest
        run's payload plus ``entries``, every entry decoded."""
        for (prefix, _), seg in self._live_views().items():
            data = dict(seg.ordered()[-1].payload)
            entries = {}
            for k, view in seg.where.items():
                value = view.get(k, _MISS)
                if value is not _MISS:
                    entries[k] = value
            data["entries"] = entries
            yield prefix, data

    def stale_segment_count(self) -> int:
        """Segment files that can no longer serve reads — version-skewed
        (stranded by a version bump) or unreadable. The next :meth:`evict`
        call garbage-collects them; manifests surface this count."""
        return sum(
            1 for p in self._segment_files() if self._live_view(p) is None
        )

    def provenance(self) -> dict[str, str]:
        """key → source-store label for entries a merge installed.

        Tolerant of a missing, torn, or foreign sidecar file (all read as
        "no provenance") — a store no merge wrote into never has one.
        """
        try:
            data = json.loads(self._provenance_path.read_text(encoding="utf-8"))
            sources = data["sources"]
            return {str(k): str(v) for k, v in sources.items()}
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return {}

    def manifest(self) -> StoreManifest:
        """What the store holds, counted from one :meth:`_live_views`
        snapshot: the decodable entries (and segments) per count row, the
        breakdown, the age range when the store shows one (an entry is as
        old as its run), and the ``merged from`` rows when a merge left
        provenance. A missing or empty directory reads as an empty
        manifest, never an error."""
        provenance = self.provenance()
        split = self.breakdown
        counts = {row.prefix: [0, 0] for row in self.count_rows}
        groups: dict[str, int] = {}
        sources: dict[str, int] = {}
        stamps: list[int] = []
        for (prefix, _), seg in self._live_views().items():
            payload = seg.ordered()[-1].payload
            tally = counts.setdefault(prefix, [0, 0])
            tally[1] += 1
            for key, view in seg.where.items():
                value = view.get(key, _MISS)
                if value is _MISS:
                    continue
                tally[0] += 1
                stamps.append(view.sig[0])
                if key in provenance:
                    label = provenance[key]
                    sources[label] = sources.get(label, 0) + 1
                if split is not None and prefix == split.prefix:
                    held = value if split.of == "entry" else payload
                    name = isinstance(held, dict) and held.get(split.field)
                    name = str(name or split.unnamed)
                    groups[name] = groups.get(name, 0) + 1
        ages = {}
        if self.age_row and stamps:
            now = time.time()
            ages = {
                "newest_age_s": max(0.0, now - max(stamps) / 1e9),
                "oldest_age_s": max(0.0, now - min(stamps) / 1e9),
            }
        return StoreManifest(
            version_row=self.version_row,
            version=self.version,
            counts=tuple((row, *counts[row.prefix]) for row in self.count_rows),
            total_bytes=self.size_bytes(),
            stale_segments=self.stale_segment_count(),
            breakdown=tuple(sorted(groups.items())),
            per_source=tuple(sorted(sources.items())),
            **ages,
        )

    # -- writes --------------------------------------------------------------
    def _merge_entries(
        self, prefix: str, key: str, payload: Mapping, entries: Mapping
    ) -> None:
        """Buffer ``entries`` for the logical segment ``(prefix, key)``,
        whose runs record ``payload`` plus the ``key``; outside a
        :meth:`deferred` block this flushes (one new run) immediately."""
        if not entries:
            return
        seg_id = (prefix, key)
        with self._store_lock:
            pend = self._pending.get(seg_id)
            if pend is None:
                self._pending[seg_id] = [dict(payload, key=key), dict(entries)]
            else:
                pend[0] = dict(payload, key=key)
                pend[1].update(entries)
            self._pending_entries += len(entries)
            flush_now = (
                self._defer_depth == 0
                or self._pending_entries >= self.DEFERRED_FLUSH_ENTRIES
            )
        if flush_now:
            self.flush()

    def flush(self) -> None:
        """Write every buffered batch out as one new run per logical
        segment, however many put calls accumulated. A no-op with nothing
        pending.

        Nothing on disk is read, and the writes run outside the store lock:
        the batch stays readable as in-flight until its run is in the
        index, so read-your-writes holds while another thread flushes."""
        with self._store_lock:
            if not self._pending:
                return
            batch = self._pending
            self._pending = {}
            self._pending_entries = 0
            self._inflight.append(batch)
        try:
            for seg_id, (payload, entries) in batch.items():
                view = self._write_run(seg_id[0], payload, entries)
                if view is not None:
                    with self._store_lock:
                        self._segments.setdefault(seg_id, _Segment()).add(view)
        finally:
            with self._store_lock:
                self._inflight = [b for b in self._inflight if b is not batch]
        self._compact_overfull(batch)
        self._maybe_evict()

    @contextmanager
    def deferred(self):
        """Batch puts: inside the block they buffer in memory (reads still
        see them); the block exit flushes one run per touched segment.

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

    def _write_run(
        self,
        prefix: str,
        payload: Mapping,
        entries: Mapping,
        *,
        mtime_ns: int | None = None,
    ) -> SegmentView | None:
        """Install one immutable run named by its content digest; its view,
        or ``None`` when the write failed or landed unreadable."""
        data = encode_segment(payload, entries)
        digest = hashlib.blake2b(data, digest_size=16).hexdigest()
        path = self.root / f"{prefix}{digest}.bin"
        if not self._write_segment(path, payload, entries, data, mtime_ns):
            return None
        return self._live_view(path)

    def _write_segment(
        self,
        path: Path,
        payload: Mapping,
        entries: Mapping,
        data: bytes,
        mtime_ns: int | None = None,
    ) -> bool:
        """Atomically install ``data`` at ``path`` (tmp + replace), with
        its mtime set to ``mtime_ns`` when given. Unwritable stores degrade
        to uncached, never crash the computing pass."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            plan = runtime.current().fault_plan
            if plan is not None:
                # Chaos hook: the runtime's plan may tear/forge/skew these
                # bytes or veto the write with ENOSPC. Still installed via
                # tmp+replace, so injected corruption models damage that
                # predates this process — exactly what the doctor fscks.
                data = plan.mangle_segment(path, payload, entries, data)
            tmp = path.with_suffix(
                f".tmp.{os.getpid()}.{threading.get_ident()}"
            )
            tmp.write_bytes(data)
            if mtime_ns is not None:
                os.utime(tmp, ns=(mtime_ns, mtime_ns))
            os.replace(tmp, path)
        except OSError:
            return False
        return True

    # -- compaction ----------------------------------------------------------
    def compact(self) -> None:
        """Merge each logical segment's runs into exactly one run, whose
        bytes equal :func:`encode_segment` over the segment's payload and
        union of entries — the file one writer of them all would write."""
        with self._compact_lock:
            for seg in self._live_views().values():
                runs = seg.ordered()
                if len(runs) > 1:
                    self._merge_runs(runs)

    def _compact_overfull(self, seg_ids=None) -> None:
        """Merge the newest runs (see :func:`_newest_tier`) of every
        segment in ``seg_ids`` — all of them by default — that holds more
        than :attr:`COMPACT_FAN_IN` runs."""
        with self._compact_lock:
            with self._store_lock:
                if seg_ids is None:
                    self._sync(full=True)
                    seg_ids = list(self._segments)
                overfull = [
                    seg.ordered()
                    for seg in map(self._segments.get, seg_ids)
                    if seg is not None and len(seg.runs) > self.COMPACT_FAN_IN
                ]
            for runs in overfull:
                self._merge_runs(runs[-_newest_tier(runs, self.COMPACT_FAN_IN):])

    def _merge_runs(self, runs: Sequence[SegmentView]) -> None:
        """Merge ``runs`` (oldest first, one segment's, caller holds the
        compaction lock) into one run, then delete them.

        Copies raw blob bytes, never decoding JSON; the newest run wins a
        key held twice. The merged run takes the newest input's mtime, so
        entry ages and oldest-first eviction stay honest. Only the runs
        read are deleted — a run another writer installs meanwhile
        survives — and none unless the merged run reads back whole."""
        union: dict[str, bytes] = {}
        for view in runs:
            for k in view.keys():
                blob = view.blob(k)
                if blob is not None:
                    union[k] = blob
        seg_id = self._segment_id(runs[-1])
        merged = self._write_run(
            seg_id[0],
            runs[-1].payload,
            union,
            mtime_ns=max(view.sig[0] for view in runs),
        )
        if merged is None or len(merged.keys()) != len(union):
            return
        inputs = [view.path for view in runs if view.path != merged.path]
        with self._store_lock:
            seg = self._segments.setdefault(seg_id, _Segment())
            for path in inputs:
                seg.runs.pop(path, None)
            seg.runs[merged.path] = merged
            seg.reindex()
        for path in inputs:
            _unlink(path)
            VIEWS.pop(path)

    # -- lifecycle -----------------------------------------------------------
    def size_bytes(self) -> int:
        """Bytes the store occupies on disk: runs and ``*.tmp.*``
        leftovers — everything the eviction bound must cover."""
        self.flush()
        total = 0
        for p in (*self._segment_files(), *self._iter_tmp_files()):
            try:
                total += p.stat().st_size
            except OSError:
                continue
        return total

    def stale_tmp_files(self) -> Iterator[tuple[Path, str]]:
        """Yield ``(path, reason)`` per stale ``*.tmp.*`` file: the writer
        pid its name records is dead, or it is older than
        :data:`STALE_TMP_AGE_S`. A file whose writer is alive or unknown
        (no pid in its name) is stale only by age, so an in-flight write
        is never deleted on sight."""
        now = time.time()
        for p in self._iter_tmp_files():
            _, _, tail = p.name.partition(".tmp.")
            head = tail.split(".", 1)[0]
            if head.isdigit() and not _pid_alive(int(head)):
                yield p, f"writer pid {int(head)} is dead"
                continue
            try:
                age = now - p.stat().st_mtime
            except OSError:
                continue  # vanished mid-scan: nothing left to judge
            if age > self.STALE_TMP_AGE_S:
                yield p, f"tmp file is {age:.0f}s old"

    def _sweep_stale_tmp_files(self) -> int:
        """Delete every stale tmp file (:meth:`stale_tmp_files`)."""
        return sum(_unlink(p) for p, _ in self.stale_tmp_files())

    def _maybe_evict(self) -> None:
        if self.max_bytes is not None:
            self.evict()

    def _unlink_runs(self, paths: Sequence[Path]) -> int:
        """Delete run files outside compaction; the next read lists the
        directory again. Returns how many this call removed."""
        if not paths:
            return 0
        removed = sum(_unlink(p) for p in paths)
        for path in paths:
            VIEWS.pop(str(path))
        with self._store_lock:
            self._root_sig = _UNSYNCED
        return removed

    def evict(self, max_bytes: int | None = None) -> int:
        """Garbage-collect stale files and tmp leftovers, merge overfull
        segments, then delete oldest-written runs until the store fits
        ``max_bytes`` (defaults to the configured bound; ``0`` keeps
        nothing; ``None`` skips the bound pass; negative raises
        ``ValueError``). Returns files removed."""
        _checked_bound(max_bytes)
        self.flush()
        self._sweep_stale_tmp_files()
        # Version-skewed or unreadable: unreachable disk garbage
        # regardless of any size bound.
        removed = self._unlink_runs(
            [p for p in self._segment_files() if self._live_view(p) is None]
        )
        self._compact_overfull()
        runs: list[tuple[float, int, Path]] = []
        total = 0
        for p in (*self._segment_files(), *self._iter_tmp_files()):
            try:
                st = p.stat()
            except OSError:
                continue
            total += st.st_size  # live writers' tmp files count, too
            if p.suffix == ".bin":
                runs.append((st.st_mtime, st.st_size, p))
        bound = self.max_bytes if max_bytes is None else max_bytes
        if bound is None or total <= bound:
            return removed
        doomed = []
        for _, size, path in sorted(runs):
            if total <= bound:
                break
            doomed.append(path)
            total -= size
        return removed + self._unlink_runs(doomed)

    def clear(self) -> None:
        # Remove only files the store owns, never the root wholesale: the
        # directory may contain unrelated files.
        with self._store_lock:
            self._pending.clear()
            self._pending_entries = 0
            self._segments = {}
        self._unlink_runs(self._segment_files())
        for stale in self._iter_tmp_files():
            _unlink(stale)
