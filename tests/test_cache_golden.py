"""Golden output of ``repro-paper cache`` and ``repro-paper doctor``.

Fills a response store, a profile store and an artifact cache under one
temporary root and compares each command's whole stdout with fixed
text, the root replaced by ``<ROOT>`` and the response store's entry
ages by ``<AGE>`` (they follow the wall clock). The stores' contents are
fixed, so every count, byte total and run-file name is too.
"""

from __future__ import annotations

import json
import re

from repro.cli import main
from repro.eval.engine import CachedResponse, DiskResponseStore
from repro.gpusim.store import PROFILER_VERSION, ProfileStore
from repro.store.families import FAMILIES
from repro.store.text import ArtifactCache

DIRS = {"responses": "c", "profiles": "p", "artifacts": "a"}


def _fill(root) -> None:
    """Two tagged responses and a serve snapshot, two devices' profiles
    plus traces, and one entry of every artifact kind."""
    responses = DiskResponseStore(root / DIRS["responses"])
    for i, model in enumerate(("o3-mini-high", "gpt-4o-mini")):
        responses.put(f"{i:02x}" + "0" * 62, CachedResponse(
            text="Compute", input_tokens=10 + i, output_tokens=1,
            reasoning_tokens=0, model=model,
        ))
    (responses.root / "serve-stats.json").write_text(json.dumps({
        "hits": 3, "misses": 1, "shed": 0, "failed_over": 0, "hedged": 0,
        "breakers": {"emulated": {"state": "closed", "opened": 0}},
    }))
    profiles = ProfileStore(root / DIRS["profiles"])
    for device, n in (("V100", 2), ("H100", 1)):
        profiles._merge_entries(
            "profiles-", device.lower(),
            {"version": PROFILER_VERSION, "device": device},
            {f"{device}-{i}": {"cycles": i} for i in range(n)},
        )
    profiles._merge_entries(
        "traces-", "t", {"version": PROFILER_VERSION}, {"k0": {"sites": []}}
    )
    artifacts = ArtifactCache(root / DIRS["artifacts"])
    artifacts.put_merges("tok", [("a", "b"), ("ab", "c")])
    artifacts.put_sources({"s0": "int main() {}", "s1": "void k() {}"})
    artifacts.put_token_counts("tok", {"s0": 5, "s1": 4})
    artifacts.put_samples("set", [{"uid": "cuda/x-v1"}])


def _fill_one(root) -> None:
    """One entry in one segment of every store."""
    responses = DiskResponseStore(root / DIRS["responses"])
    responses.put("00" + "0" * 62, CachedResponse(
        text="Compute", input_tokens=10, output_tokens=1,
        reasoning_tokens=0, model="o3-mini-high",
    ))
    ProfileStore(root / DIRS["profiles"])._merge_entries(
        "profiles-", "v100",
        {"version": PROFILER_VERSION, "device": "V100"},
        {"V100-0": {"cycles": 0}},
    )
    ArtifactCache(root / DIRS["artifacts"]).put_sources({"s0": "int main(){}"})


def _flags(root) -> list[str]:
    return [
        "--cache-dir", str(root / DIRS["responses"]),
        "--profile-cache", str(root / DIRS["profiles"]),
        "--artifact-cache", str(root / DIRS["artifacts"]),
    ]


def _store_files(root) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _run(capsys, root, argv) -> tuple[int, str]:
    code = main(argv)
    out = capsys.readouterr().out.replace(str(root), "<ROOT>")
    return code, re.sub(r"(?m)^age: .*$", "age:       <AGE>", out)


MISSING = """\
cache dir: <ROOT>/c (missing; treated as empty)
entries:   0
bytes:     0

profile store: <ROOT>/p (missing; treated as empty)
profiler:  gpusim-profiler-v1
profiles:  0
traces:    0
bytes:     0

artifact cache: <ROOT>/a (missing; treated as empty)
artifacts:  text-artifacts-v1
tokenizers: 0
sources:    0
counts:     0 (0 tokenizers)
samples:    0
bytes:      0
"""

POPULATED = """\
cache dir: <ROOT>/c
entries:   2
bytes:     513
age:       <AGE>
  gpt-4o-mini: 1
  o3-mini-high: 1
serve:     3 hits, 1 misses, 0 shed, 0 failed over, 0 hedged; \
breakers: emulated=closed (opened 0x)

profile store: <ROOT>/p
profiler:  gpusim-profiler-v1
profiles:  3
traces:    1
bytes:     386
  H100: 1
  V100: 2

artifact cache: <ROOT>/a
artifacts:  text-artifacts-v1
tokenizers: 1
sources:    2
counts:     2 (1 tokenizer)
samples:    1
bytes:      652
"""

BOUNDED = """\
evicted 2 segments @ <ROOT>/c
cache dir: <ROOT>/c
entries:   0
bytes:     0
serve:     3 hits, 1 misses, 0 shed, 0 failed over, 0 hedged; \
breakers: emulated=closed (opened 0x)

evicted 3 profile segments @ <ROOT>/p
profile store: <ROOT>/p
profiler:  gpusim-profiler-v1
profiles:  0
traces:    0
bytes:     0

evicted 4 artifact segments @ <ROOT>/a
artifact cache: <ROOT>/a
artifacts:  text-artifacts-v1
tokenizers: 0
sources:    0
counts:     0 (0 tokenizers)
samples:    0
bytes:      0
"""

WIPED = """\
wiped 2 entries @ <ROOT>/c
wiped 3 profile entries @ <ROOT>/p
wiped 6 artifact entries @ <ROOT>/a
"""

BOUNDED_ONE = """\
evicted 1 segment @ <ROOT>/c
cache dir: <ROOT>/c
entries:   0
bytes:     0

evicted 1 profile segment @ <ROOT>/p
profile store: <ROOT>/p
profiler:  gpusim-profiler-v1
profiles:  0
traces:    0
bytes:     0

evicted 1 artifact segment @ <ROOT>/a
artifact cache: <ROOT>/a
artifacts:  text-artifacts-v1
tokenizers: 0
sources:    0
counts:     0 (0 tokenizers)
samples:    0
bytes:      0
"""

WIPED_ONE = """\
wiped 1 entry @ <ROOT>/c
wiped 1 profile entry @ <ROOT>/p
wiped 1 artifact entry @ <ROOT>/a
"""

WIPED_MISSING = """\
cache dir: <ROOT>/c (missing; treated as empty)
profile store: <ROOT>/p (missing; treated as empty)
artifact cache: <ROOT>/a (missing; treated as empty)
"""

TORN_CACHE_HEAD = """\
cache dir: <ROOT>/c
entries:   1
bytes:     510
age:       <AGE>
stale:     1 segment (reclaimed on next eviction)
  gpt-4o-mini: 1
serve:     3 hits, 1 misses, 0 shed, 0 failed over, 0 hedged; \
breakers: emulated=closed (opened 0x)
doctor:    1 torn_write — run 'repro-paper doctor' to repair

profile store: <ROOT>/p
"""

DOCTOR_TORN = """\
responses: scanned 2 file(s), 1 issue(s){repaired}
  [responses] {run}: torn_write — header records {total} bytes, file has \
{short}

profiles: scanned 3 file(s), 0 issue(s) — healthy

artifacts: scanned 4 file(s), 0 issue(s) — healthy
"""

DOCTOR_HEALTHY = """\
responses: scanned 1 file(s), 0 issue(s) — healthy

profiles: scanned 3 file(s), 0 issue(s) — healthy

artifacts: scanned 4 file(s), 0 issue(s) — healthy
"""

DOCTOR_MISSING = """\
responses: <ROOT>/c (missing; nothing to check)

profiles: <ROOT>/p (missing; nothing to check)

artifacts: <ROOT>/a (missing; nothing to check)
"""


class TestCacheGolden:
    def test_missing_roots(self, capsys, tmp_path):
        assert _run(capsys, tmp_path, ["cache", *_flags(tmp_path)]) == (
            0, MISSING
        )
        assert not any(tmp_path.iterdir())

    def test_populated_roots_are_reported_and_left_unchanged(
        self, capsys, tmp_path
    ):
        _fill(tmp_path)
        before = _store_files(tmp_path)
        assert _run(capsys, tmp_path, ["cache", *_flags(tmp_path)]) == (
            0, POPULATED
        )
        assert _store_files(tmp_path) == before

    def test_env_vars_select_the_same_stores(
        self, capsys, tmp_path, monkeypatch
    ):
        _fill(tmp_path)
        for env, name in (("REPRO_CACHE_DIR", "c"),
                          ("REPRO_PROFILE_CACHE", "p"),
                          ("REPRO_ARTIFACT_CACHE", "a")):
            monkeypatch.setenv(env, str(tmp_path / name))
        assert _run(capsys, tmp_path, ["cache"]) == (0, POPULATED)

    def test_bounds_evict_every_store(self, capsys, tmp_path):
        _fill(tmp_path)
        argv = ["cache", *_flags(tmp_path), "--max-bytes", "1",
                "--profile-max-bytes", "1", "--artifact-max-bytes", "1"]
        assert _run(capsys, tmp_path, argv) == (0, BOUNDED)

    def test_wipe(self, capsys, tmp_path):
        _fill(tmp_path)
        argv = ["cache", *_flags(tmp_path), "--wipe"]
        assert _run(capsys, tmp_path, argv) == (0, WIPED)
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == [
            "serve-stats.json"
        ]

    def test_one_segment_and_one_entry_are_singular(self, capsys, tmp_path):
        _fill_one(tmp_path)
        argv = ["cache", *_flags(tmp_path), "--max-bytes", "1",
                "--profile-max-bytes", "1", "--artifact-max-bytes", "1"]
        assert _run(capsys, tmp_path, argv) == (0, BOUNDED_ONE)
        _fill_one(tmp_path)
        argv = ["cache", *_flags(tmp_path), "--wipe"]
        assert _run(capsys, tmp_path, argv) == (0, WIPED_ONE)

    def test_wipe_missing_roots(self, capsys, tmp_path):
        argv = ["cache", *_flags(tmp_path), "--wipe"]
        assert _run(capsys, tmp_path, argv) == (0, WIPED_MISSING)

    def test_torn_run_earns_a_doctor_hint(self, capsys, tmp_path):
        _fill(tmp_path)
        _tear_one_response_run_of_two(tmp_path)
        code, out = _run(capsys, tmp_path, ["cache", *_flags(tmp_path)])
        assert code == 0
        assert out.startswith(TORN_CACHE_HEAD)
        assert out.endswith(POPULATED.split("\n\n", 1)[1])


def _tear_one_response_run_of_two(root) -> tuple[str, int]:
    """Tear the run holding the first response; its name and full size."""
    runs = sorted((root / DIRS["responses"]).glob("responses-*.bin"))
    holder = next(
        run for run in runs if ("00" + "0" * 62).encode() in run.read_bytes()
    )
    data = holder.read_bytes()
    holder.write_bytes(data[:-3])
    return holder.name, len(data)


class TestManifestBytes:
    def test_every_store_reports_the_bytes_eviction_sees(self, tmp_path):
        """A torn run and a dead writer's tmp file hold disk space the
        size bound counts, so every manifest's ``bytes`` counts them too."""
        _fill(tmp_path)
        seen = {}
        for family in FAMILIES:
            root = tmp_path / DIRS[family.label]
            run = sorted(root.glob("*.bin"))[-1]
            run.write_bytes(run.read_bytes()[:-3])
            store = family.open(root)
            leak = root / f"{run.stem}.tmp.99999999999999999999.0"
            leak.write_bytes(b"half a segment")
            seen[family.label] = (
                store.manifest().total_bytes, store.size_bytes()
            )
            assert leak.exists()
        assert {label: pair for label, pair in seen.items()
                if pair[0] != pair[1]} == {}


class TestDoctorGolden:
    def test_dry_run_over_one_torn_run(self, capsys, tmp_path):
        _fill(tmp_path)
        run, total = _tear_one_response_run_of_two(tmp_path)
        before = _store_files(tmp_path)
        argv = ["doctor", "--dry-run", *_flags(tmp_path)]
        assert _run(capsys, tmp_path, argv) == (1, DOCTOR_TORN.format(
            repaired="", run=run, total=total, short=total - 3,
        ))
        assert _store_files(tmp_path) == before

    def test_repair_quarantines_the_torn_run(self, capsys, tmp_path):
        _fill(tmp_path)
        run, total = _tear_one_response_run_of_two(tmp_path)
        argv = ["doctor", *_flags(tmp_path)]
        assert _run(capsys, tmp_path, argv) == (0, DOCTOR_TORN.format(
            repaired=", 1 repaired", run=run, total=total, short=total - 3,
        ))
        assert (tmp_path / "c" / "quarantine" / run).is_file()
        assert _run(capsys, tmp_path, argv) == (0, DOCTOR_HEALTHY)

    def test_missing_roots(self, capsys, tmp_path):
        argv = ["doctor", "--dry-run", *_flags(tmp_path)]
        assert _run(capsys, tmp_path, argv) == (0, DOCTOR_MISSING)
