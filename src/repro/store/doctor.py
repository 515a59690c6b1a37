"""Store fsck: diagnose and quarantine damaged segments.

``repro-paper doctor`` runs this over all three store families (response,
profile, text-artifact). Diagnosis is read-only and passes every ``.bin``
segment and ``*.tmp.*`` file through one classifier each, covering every
way a store file can stop serving reads:

* ``torn_write`` — file shorter/longer than the total its header records
  (a crashed or interrupted writer);
* ``corrupt`` — bad magic, unparseable header/meta/index (bit rot,
  foreign file under a store prefix);
* ``version_skew`` — readable segment recorded under another store
  version (stranded by a version bump), or recording no logical segment
  key (written before stores kept runs);
* ``forged_index`` — header parses but an index span points outside the
  body, or the span/blob prefixes disagree (per-entry misses at read
  time);
* ``bad_entry`` — a span resolves but its blob is not valid JSON;
* ``stale_tmp`` — a ``*.tmp.*`` file leaked by a dead writer, or older
  than any write takes (``ArtifactStore.stale_tmp_files``).

Files that are not segments — including ``.json`` segments and per-entry
response files from older versions — are foreign to every store, so the
doctor neither scans nor touches them.

Every class is a *degradation* the stores already survive (reads miss and
recompute); the doctor exists so an operator can see the damage and
reclaim it deliberately. Repair quarantines bad segment files into a
``quarantine/`` subdirectory (out of every store's segment scan, so the
store re-attaches clean, but recoverable by hand), deletes the trash
that has nothing to recover (stale tmp files), and then compacts each
logical segment's surviving runs into one.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.store.base import (
    _SEGMENT_HEADER,
    SEGMENT_MAGIC,
    ArtifactStore,
    _segment_view,
)

QUARANTINE_DIRNAME = "quarantine"

#: Issue kinds whose files carry nothing recoverable: repair deletes them
#: instead of quarantining.
_DELETE_KINDS = frozenset({"stale_tmp"})


@contextmanager
def quiet_attach() -> Iterator[None]:
    """Suspend the attach-time stale-tmp sweep while constructing stores.

    A normal attach deletes dead writers' tmp files as a convenience; the
    doctor must attach *without* that side effect so a ``--dry-run`` can
    report the leak and leave the store byte-identical.
    """
    prior = ArtifactStore.ATTACH_SWEEP
    ArtifactStore.ATTACH_SWEEP = False
    try:
        yield
    finally:
        ArtifactStore.ATTACH_SWEEP = prior


@dataclass(frozen=True)
class StoreIssue:
    """One damaged file (or entry) found by :func:`diagnose_store`."""

    store: str  # which store family flagged it
    path: Path
    kind: str
    detail: str

    @property
    def action(self) -> str:
        """What repair does about it: ``delete`` or ``quarantine``."""
        return "delete" if self.kind in _DELETE_KINDS else "quarantine"

    def render(self) -> str:
        return f"[{self.store}] {self.path.name}: {self.kind} — {self.detail}"


@dataclass(frozen=True)
class DoctorReport:
    """One doctor pass over one store."""

    store: str
    scanned: int
    issues: tuple[StoreIssue, ...]
    repaired: int  # files quarantined or deleted (0 on dry runs)

    @property
    def healthy(self) -> bool:
        return not self.issues

    def render(self) -> str:
        head = (
            f"{self.store}: scanned {self.scanned} file(s), "
            f"{len(self.issues)} issue(s)"
        )
        if self.repaired:
            head += f", {self.repaired} repaired"
        if not self.issues:
            return head + " — healthy"
        lines = "\n".join(f"  {issue.render()}" for issue in self.issues)
        return f"{head}\n{lines}"


def _classify_binary(path: Path, version: str) -> tuple[str, str] | None:
    """(kind, detail) for a damaged binary segment, ``None`` when clean."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        return "corrupt", f"unreadable: {exc.strerror or exc}"
    if len(data) < _SEGMENT_HEADER.size:
        return "torn_write", f"{len(data)} bytes, header needs {_SEGMENT_HEADER.size}"
    magic, total, meta_len, index_len = _SEGMENT_HEADER.unpack_from(data, 0)
    if magic != SEGMENT_MAGIC:
        return "corrupt", f"bad magic {magic!r}"
    if total != len(data):
        return "torn_write", f"header records {total} bytes, file has {len(data)}"
    view = _segment_view(path)
    if view is None:
        return "corrupt", "header parses but meta/index do not"
    recorded = view.payload.get("version")
    if recorded != version:
        return "version_skew", f"segment version {recorded!r}, store wants {version!r}"
    if not isinstance(view.payload.get("key"), str):
        return "version_skew", "segment records no logical key (not a run)"
    for key in view.keys():
        blob = view.blob(key)
        if blob is None:
            return "forged_index", f"entry {key[:16]}… span resolves to no blob"
        try:
            json.loads(blob)
        except ValueError:
            return "bad_entry", f"entry {key[:16]}… blob is not JSON"
    return None


def diagnose_store(store: ArtifactStore, label: str) -> DoctorReport:
    """Read-only fsck of one store; never modifies anything on disk."""
    store.flush()
    issues: list[StoreIssue] = []
    scanned = 0
    for path in store._segment_files():
        scanned += 1
        found = _classify_binary(path, store.version)
        if found is not None:
            issues.append(StoreIssue(label, path, found[0], found[1]))
    for path, detail in store.stale_tmp_files():
        scanned += 1
        issues.append(StoreIssue(label, path, "stale_tmp", detail))
    return DoctorReport(
        store=label, scanned=scanned, issues=tuple(issues), repaired=0
    )


def repair_store(store: ArtifactStore, report: DoctorReport) -> DoctorReport:
    """Apply ``report``'s repairs: quarantine damaged segments, delete
    trash, compact what survives. Returns the report with ``repaired``
    filled in; the store then re-attaches clean (``diagnose_store`` finds
    nothing, every surviving read works)."""
    quarantine = store.root / QUARANTINE_DIRNAME
    repaired = 0
    for issue in report.issues:
        try:
            if issue.action == "delete":
                issue.path.unlink()
            else:
                quarantine.mkdir(parents=True, exist_ok=True)
                dest = quarantine / issue.path.name
                n = 0
                while dest.exists():
                    n += 1
                    dest = quarantine / f"{issue.path.name}.{n}"
                os.replace(issue.path, dest)
        except OSError:
            continue  # vanished or unmovable: the next pass re-reports it
        repaired += 1
    store.compact()
    return DoctorReport(
        store=report.store,
        scanned=report.scanned,
        issues=report.issues,
        repaired=repaired,
    )


def doctor_store(
    store: ArtifactStore, label: str, *, repair: bool = False
) -> DoctorReport:
    """Diagnose ``store``; optionally repair what was found."""
    report = diagnose_store(store, label)
    if repair and report.issues:
        report = repair_store(store, report)
    return report
