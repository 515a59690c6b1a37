"""Store doctor: every injector corruption class detected, repair heals.

``diagnose_store`` must classify each damage class the fault injector can
produce — torn writes, forged index spans, version skew, stale tmp files
— plus organically-occurring ones (bad magic, garbled entry blobs), all
without modifying a byte. ``repair_store``
quarantines or deletes exactly what was reported, after which the store
re-attaches clean and every surviving read works.
"""

import os
import time

import pytest

from repro import runtime
from repro.eval.engine import CachedResponse, DiskResponseStore
from repro.store.doctor import (
    QUARANTINE_DIRNAME,
    diagnose_store,
    doctor_store,
    quiet_attach,
)
from repro.util.faults import FaultPlan


def _response(i: int) -> CachedResponse:
    return CachedResponse(
        text=f"Compute {i}",
        input_tokens=i,
        output_tokens=1,
        reasoning_tokens=0,
        model="test-model",
    )


def _keys(n: int) -> list[str]:
    return [f"{i:02x}" + "0" * 62 for i in range(n)]


def _populated(tmp_path, n=3) -> DiskResponseStore:
    store = DiskResponseStore(tmp_path / "cache")
    for i, key in enumerate(_keys(n)):
        store.put(key, _response(i))
    return store


def _snapshot(root):
    return {
        p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()
    }


class TestDiagnosis:
    def test_healthy_store_reports_nothing(self, tmp_path):
        report = diagnose_store(_populated(tmp_path), "responses")
        assert report.healthy
        assert report.scanned == 3
        assert "healthy" in report.render()

    @pytest.mark.parametrize("kind", [
        "torn_write", "forged_index", "version_skew", "stale_tmp",
    ])
    def test_each_injector_class_detected_without_modification(
        self, tmp_path, kind
    ):
        runtime.install(fault_plan=FaultPlan.parse(f"seed=9;{kind}:rate=1"))
        store = _populated(tmp_path)
        runtime.install(fault_plan=None)
        before = _snapshot(store.root)

        with quiet_attach():
            probe = DiskResponseStore(store.root)
        report = diagnose_store(probe, "responses")

        assert {i.kind for i in report.issues} == {kind}
        # Dry diagnosis is read-only: byte-identical directory afterwards.
        assert _snapshot(store.root) == before

    def test_enospc_degrades_to_no_segment(self, tmp_path):
        runtime.install(fault_plan=FaultPlan.parse("enospc:rate=1"))
        store = _populated(tmp_path)
        runtime.install(fault_plan=None)
        # The injected ENOSPC vetoed every write; nothing durable, and a
        # store with no files is trivially healthy.
        assert diagnose_store(store, "responses").healthy
        assert store.get(_keys(1)[0]) is None

    def test_bad_magic_reads_as_corrupt(self, tmp_path):
        store = _populated(tmp_path)
        seg = store._segment_files()[0]
        seg.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        report = diagnose_store(store, "responses")
        assert [i.kind for i in report.issues] == ["corrupt"]

    def test_garbled_entry_blob_reads_as_bad_entry(self, tmp_path):
        store = _populated(tmp_path, n=1)
        seg = store._segment_files()[0]
        data = seg.read_bytes()
        # Same length, so the header's total still matches: only the
        # tail of the entry blob is garbage — not-JSON, not torn.
        seg.write_bytes(data[:-4] + b"\xff\xff\xff\xff")
        kinds = {i.kind for i in diagnose_store(store, "responses").issues}
        assert kinds == {"bad_entry"}



class TestRepair:
    def test_repair_quarantines_and_store_reattaches_clean(self, tmp_path):
        runtime.install(
            fault_plan=FaultPlan.parse("seed=9;torn_write:rate=1")
        )
        store = _populated(tmp_path)
        runtime.install(fault_plan=None)
        report = doctor_store(store, "responses", repair=True)
        assert report.repaired == len(report.issues) > 0
        quarantine = store.root / QUARANTINE_DIRNAME
        assert sorted(p.name for p in quarantine.iterdir()) == sorted(
            i.path.name for i in report.issues
        )
        # Clean on re-attach: nothing left to report, reads never raise.
        fresh = DiskResponseStore(store.root)
        assert diagnose_store(fresh, "responses").healthy
        for key in _keys(3):
            assert fresh.get(key) is None  # quarantined, so a miss

    def test_repair_deletes_trash_kinds(self, tmp_path):
        store = _populated(tmp_path, n=1)
        tmp = store.root / "responses-00.tmp.3999999.0"
        tmp.write_bytes(b"half a segment")
        with quiet_attach():
            probe = DiskResponseStore(store.root)
        report = doctor_store(probe, "responses", repair=True)
        assert {i.kind for i in report.issues} == {"stale_tmp"}
        assert not tmp.exists()
        assert not (store.root / QUARANTINE_DIRNAME).exists()
        # The healthy segment survived untouched.
        assert DiskResponseStore(store.root).get(_keys(1)[0]) == _response(0)

    def test_quarantine_name_collisions_get_numeric_suffixes(self, tmp_path):
        store = _populated(tmp_path, n=1)
        seg = store._segment_files()[0]
        healthy = seg.read_bytes()
        for expected in (seg.name, f"{seg.name}.1"):
            seg.write_bytes(healthy[: len(healthy) - 5])
            report = doctor_store(store, "responses", repair=True)
            assert report.repaired == 1
            assert (store.root / QUARANTINE_DIRNAME / expected).exists()

    def test_repaired_store_surviving_reads_work(self, tmp_path):
        store = _populated(tmp_path, n=4)
        segments = store._segment_files()
        torn = segments[0]
        torn.write_bytes(torn.read_bytes()[:-7])
        doctor_store(store, "responses", repair=True)
        fresh = DiskResponseStore(store.root)
        hits = [key for key in _keys(4) if fresh.get(key) is not None]
        # Every key outside the quarantined segment still round-trips.
        assert len(hits) == 3


class TestQuietAttach:
    def test_quiet_attach_preserves_stale_tmp(self, tmp_path):
        store = _populated(tmp_path, n=1)
        leak = store.root / "responses-aa.tmp.3999999.0"
        leak.write_bytes(b"leaked by a dead writer")
        with quiet_attach():
            DiskResponseStore(store.root)
        assert leak.exists()  # a normal attach would have swept it
        DiskResponseStore(store.root)
        assert not leak.exists()

    def test_quiet_attach_restores_the_switch_on_error(self, tmp_path):
        from repro.store.base import ArtifactStore

        with pytest.raises(RuntimeError):
            with quiet_attach():
                assert ArtifactStore.ATTACH_SWEEP is False
                raise RuntimeError("boom")
        assert ArtifactStore.ATTACH_SWEEP is True


class TestOneStaleTmpRule:
    """The doctor and the attach sweep judge a ``*.tmp.*`` file by one
    rule: a dead recorded writer pid makes it stale, and otherwise only
    age does. A file that names no pid is never deleted on sight."""

    TWO_HOURS_AGO = -2 * 3600  # past ArtifactStore.STALE_TMP_AGE_S

    @pytest.mark.parametrize("name,age_s,stale", [
        ("responses-x.tmp.partial", 0, False),
        ("responses-x.tmp.partial", TWO_HOURS_AGO, True),
        ("responses-x.tmp.{pid}.1", 0, False),
        ("responses-x.tmp.{pid}.1", TWO_HOURS_AGO, True),  # pids recycle
        ("responses-x.tmp.99999999999999999999.0", 0, True),  # no such pid
    ])
    def test_doctor_and_attach_agree(self, tmp_path, name, age_s, stale):
        store = _populated(tmp_path, n=1)
        leak = store.root / name.format(pid=os.getpid())
        leak.write_bytes(b"half a segment")
        stamp = time.time() + age_s
        os.utime(leak, (stamp, stamp))
        with quiet_attach():
            report = diagnose_store(DiskResponseStore(store.root), "responses")
        flagged = [i.path.name for i in report.issues if i.kind == "stale_tmp"]
        assert flagged == ([leak.name] if stale else [])
        assert leak.exists()  # diagnosis never deletes
        DiskResponseStore(store.root)  # a plain attach sweeps
        assert leak.exists() is not stale
