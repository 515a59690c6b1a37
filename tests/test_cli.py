"""Tests for the command-line interface."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["rq2"])
        assert args.model == "all"
        assert args.limit == 0


#: Each subcommand that took ``--backend``, with its required arguments.
BACKEND_COMMANDS = {
    "rq1": ["rq1"],
    "rq2": ["rq2"],
    "rq3": ["rq3"],
    "rq4": ["rq4"],
    "decompose": ["decompose"],
    "table1": ["table1"],
    "matrix": ["matrix"],
    "stats": ["stats"],
    "export": ["export", "matrix", "--out", "{tmp}/m.json"],
    "sweep": ["sweep"],
    "merge-caches": ["merge-caches", "{tmp}/a", "--into", "{tmp}/b"],
}

#: Each subcommand taking ``--model`` that the grid tests above do not
#: cover, with its required arguments.
MODEL_COMMANDS = {
    "rq1": ["rq1"],
    "rq2": ["rq2"],
    "rq3": ["rq3"],
    "classify": ["classify", "cuda/saxpy-v1"],
    "decompose": ["decompose"],
    "table1": ["table1"],
    "sweep": ["sweep", "--shard", "1/2", "--cache-dir", "{tmp}/c"],
}


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "o3-mini-high" in out
        assert "$15 / $60" in out

    def test_dataset(self, capsys, dataset):
        assert main(["dataset"]) == 0
        out = capsys.readouterr().out
        assert "balanced: 340" in out

    def test_dataset_save(self, capsys, tmp_path, dataset):
        out_file = tmp_path / "ds.jsonl"
        assert main(["dataset", "--out", str(out_file), "--compact"]) == 0
        assert out_file.exists()
        assert out_file.stat().st_size > 10_000

    def test_classify_known_uid(self, capsys, dataset):
        uid = dataset.balanced[0].uid
        rc = main(["classify", uid, "--model", "o3-mini-high"])
        out = capsys.readouterr().out
        assert rc in (0, 1)  # 0 correct, 1 incorrect — both valid runs
        assert f"program:    {uid}" in out
        assert "prediction:" in out

    def test_classify_few_shot_is_the_rq3_prompt(self, capsys, dataset):
        from repro.eval.engine import EvalEngine
        from repro.eval.rq23 import run_rq3
        from repro.llm import get_model

        sample = dataset.balanced[0]
        rc = main(["classify", sample.uid, "--few-shot"])
        out = capsys.readouterr().out
        assert "model:      o3-mini-high (few-shot-2)" in out
        (record,) = run_rq3(
            get_model("o3-mini-high"), [sample], engine=EvalEngine(store=None)
        ).run.records
        assert f"prediction: {record.prediction.word}" in out
        assert rc == (0 if record.correct else 1)

    def test_classify_unknown_uid(self, capsys, dataset):
        assert main(["classify", "cuda/zzz-v99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_rq1_single_model(self, capsys):
        assert main(["rq1", "--model", "gpt-4o-mini", "--rooflines", "20"]) == 0
        out = capsys.readouterr().out
        assert "gpt-4o-mini" in out

    def test_rq2_with_limit(self, capsys, dataset):
        assert main(["rq2", "--model", "o3-mini", "--limit", "15"]) == 0
        out = capsys.readouterr().out
        assert "15 samples" in out

    def test_rq3_with_limit(self, capsys, dataset):
        assert main(["rq3", "--model", "gpt-4o-mini", "--limit", "10"]) == 0
        assert "two-shot" in capsys.readouterr().out

    def test_rq4(self, capsys, dataset):
        assert main(["rq4", "--scope", "all"]) == 0
        out = capsys.readouterr().out
        assert "collapsed:          True" in out

    def test_decompose_with_limit(self, capsys, dataset):
        assert main(["decompose", "--model", "o3-mini", "--limit", "10"]) == 0
        assert "Decomposed" in capsys.readouterr().out

    def test_figures(self, capsys, dataset):
        assert main(["figures", "--which", "2"]) == 0
        assert "train/CUDA/BB" in capsys.readouterr().out

    def test_matrix_two_gpus(self, capsys, dataset):
        assert main([
            "matrix", "--model", "o3-mini", "--gpus", "v100,h100",
            "--limit", "12", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Hardware matrix" in out
        assert "V100" in out and "H100" in out

    def test_matrix_process_backend(self, capsys, dataset):
        """``--backend`` is rejected: ``--jobs`` alone picks the loop or a
        thread pool, and both print the same table."""
        argv = [
            "matrix", "--model", "gpt-4o-mini", "--gpus", "rtx 3080",
            "--limit", "8", "--no-cache",
        ]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--jobs", "2", "--backend", "process"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        tables = []
        for jobs in ("1", "2"):
            assert main([*argv, "--jobs", jobs]) == 0
            tables.append(capsys.readouterr().out)
        assert "RTX 3080" in tables[0]
        assert tables[0] == tables[1]

    def test_matrix_unknown_gpu(self, capsys, dataset):
        assert main(["matrix", "--gpus", "tpu-v5", "--limit", "4"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["matrix", "stats", "export"])
    def test_grid_unknown_model_exits_2(self, capsys, tmp_path, command):
        argv = [command, "--model", "gpt-9", "--gpus", "v100", "--limit", "4"]
        if command == "export":
            argv[1:1] = ["matrix", "--out", str(tmp_path / "m.json")]
        assert main(argv) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_backend_flag_on_rq_commands(self, capsys, tmp_path):
        """Every command that took ``--backend`` now rejects it as an
        unrecognized argument, whatever its value."""
        for command, argv in sorted(BACKEND_COMMANDS.items()):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([
                    *(a.format(tmp=tmp_path) for a in argv),
                    "--backend", "thread",
                ])
            assert excinfo.value.code == 2, command
            err = capsys.readouterr().err
            assert "unrecognized arguments: --backend thread" in err, command

    @pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
    def test_unknown_model_exits_2(self, capsys, tmp_path, command):
        argv = [a.format(tmp=tmp_path) for a in MODEL_COMMANDS[command]]
        assert main([*argv, "--model", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "error: unknown model 'nosuch'" in err
        assert "Traceback" not in err


#: Each subcommand taking ``--limit``, with its required arguments.
LIMITED_COMMANDS = {
    "rq2": ["rq2"],
    "rq3": ["rq3"],
    "decompose": ["decompose"],
    "table1": ["table1"],
    "matrix": ["matrix", "--gpus", "v100"],
    "stats": ["stats", "--gpus", "v100"],
    "export": ["export", "run", "--out", "{tmp}/run.json"],
    "sweep": ["sweep", "--gpus", "v100"],
    "merge-caches": ["merge-caches", "{tmp}/a", "--into", "{tmp}/b",
                     "--report", "--gpus", "v100"],
}


class TestLimitFlag:
    @pytest.mark.parametrize("command", sorted(LIMITED_COMMANDS))
    def test_negative_limit_is_a_usage_error(self, capsys, tmp_path, command):
        argv = [a.format(tmp=tmp_path) for a in LIMITED_COMMANDS[command]]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--model", "o3-mini-high", "--limit", "-5"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --limit: must be >= 0, got -5" in err
        assert "Traceback" not in err

    def test_limit_must_be_an_integer(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["rq2", "--limit", "ten"])
        assert excinfo.value.code == 2
        assert "expected an integer" in capsys.readouterr().err


#: Every store size-bound flag, keyed "command flag", with the command
#: pointed at the response store ``{tmp}/c``.
_CACHE = ["cache", "--cache-dir", "{tmp}/c"]
_RQ2 = ["rq2", "--limit", "1", "--cache-dir", "{tmp}/c"]
_MERGE = ["merge-caches", "{tmp}/shard", "--into", "{tmp}/c"]
MAX_BYTES_FLAGS = {
    "cache --max-bytes": _CACHE,
    "cache --profile-max-bytes": _CACHE,
    "cache --artifact-max-bytes": _CACHE,
    "rq2 --cache-max-bytes": _RQ2,
    "rq2 --profile-cache-max-bytes": _RQ2,
    "rq2 --artifact-cache-max-bytes": _RQ2,
    "merge-caches --cache-max-bytes": _MERGE,
}


def _store_files(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestMaxBytesFlags:
    @pytest.fixture
    def stores(self, tmp_path):
        """A populated response, profile and artifact store under
        ``tmp_path/{c,p,a}``."""
        from repro.eval.engine import CachedResponse, DiskResponseStore
        from repro.gpusim import default_device, profile_corpus
        from repro.gpusim.store import ProfileStore
        from repro.kernels.corpus import build_corpus
        from repro.store.text import ArtifactCache

        DiskResponseStore(tmp_path / "c").put("ab" + "0" * 62, CachedResponse(
            text="Compute", input_tokens=1, output_tokens=1,
            reasoning_tokens=0, model="m",
        ))
        profile_corpus(
            build_corpus(3, 2), default_device(),
            store=ProfileStore(tmp_path / "p"),
        )
        ArtifactCache(tmp_path / "a").put_sources({"k1": "x" * 64})
        return tmp_path

    @pytest.mark.parametrize("case", sorted(MAX_BYTES_FLAGS))
    def test_negative_bound_is_a_usage_error(self, capsys, stores, case):
        argv = MAX_BYTES_FLAGS[case]
        flag = case.split()[-1]
        dirs = {name: stores / name for name in "cpa"}
        before = {name: _store_files(root) for name, root in dirs.items()}
        assert all(before.values())
        with pytest.raises(SystemExit) as excinfo:
            main([
                *(a.format(tmp=stores) for a in argv),
                "--profile-cache", str(dirs["p"]),
                "--artifact-cache", str(dirs["a"]),
                flag, "-1",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >= 0, got -1" in err
        assert "Traceback" not in err
        # No store lost an entry.
        assert {n: _store_files(r) for n, r in dirs.items()} == before


#: Numeric flags that must admit at least one (or a valid port), keyed
#: "command flag value", with the rest of each command line.
NUMERIC_FLAGS = {
    "serve --retries 0": ["serve"],
    "serve --burst 0": ["serve", "--rate-limit", "5"],
    "serve --max-concurrency 0": ["serve"],
    "serve --queue-budget 0": ["serve"],
    "serve --port 70000": ["serve"],
    "serve --port -1": ["serve"],
    "stats --resamples 0": ["stats"],
    "matrix --resamples 0": ["matrix"],
}


class TestNumericFlags:
    @pytest.mark.parametrize("case", sorted(NUMERIC_FLAGS))
    def test_out_of_range_is_a_usage_error(self, capsys, case):
        _, flag, value = case.split()
        with pytest.raises(SystemExit) as excinfo:
            main([*NUMERIC_FLAGS[case], f"{flag}={value}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be " in err
        assert "Traceback" not in err

    def test_in_range_values_parse(self):
        args = build_parser().parse_args([
            "serve", "--retries", "1", "--burst", "1", "--port", "0",
            "--max-concurrency", "1", "--queue-budget", "1",
        ])
        assert (args.retries, args.burst, args.port) == (1, 1, 0)
        assert (args.max_concurrency, args.queue_budget) == (1, 1)
        assert build_parser().parse_args(
            ["serve", "--port", "65535"]
        ).port == 65535

    def test_confidence_outside_unit_interval(self, capsys, dataset):
        assert main([
            "stats", "--model", "o3-mini", "--gpus", "v100", "--limit", "4",
            "--no-cache", "--confidence", "1.5",
        ]) == 2
        err = capsys.readouterr().err
        assert "error: confidence must lie in (0, 1), got 1.5" in err
        assert "Traceback" not in err


class TestShardedSweepCli:
    def test_sweep_defaults_to_whole_grid(self):
        args = build_parser().parse_args(["sweep"])
        assert args.shard == "0/1"
        assert args.gpus == "all"

    def test_sweep_unsharded_prints_matrix_report(self, capsys, dataset):
        assert main([
            "sweep", "--model", "o3-mini", "--gpus", "v100", "--limit", "6",
            "--no-cache",
        ]) == 0
        assert "Hardware matrix" in capsys.readouterr().out

    def test_sweep_bad_shard_spec(self, capsys):
        assert main(["sweep", "--shard", "3/3", "--limit", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_sharded_requires_cache(self, capsys):
        assert main([
            "sweep", "--shard", "0/2", "--limit", "4", "--no-cache",
        ]) == 2
        assert "cache" in capsys.readouterr().err

    def test_shard_merge_replay_round_trip(self, capsys, tmp_path, dataset):
        grid = ["--model", "o3-mini-high", "--gpus", "v100", "--rq", "rq2",
                "--limit", "6"]
        for i in range(2):
            assert main([
                "sweep", *grid, "--shard", f"{i}/2",
                "--cache-dir", str(tmp_path / f"shard-{i}"),
            ]) == 0
            assert f"Shard {i}/2" in capsys.readouterr().out
        assert main([
            "merge-caches", str(tmp_path / "shard-0"),
            str(tmp_path / "shard-1"), "--into", str(tmp_path / "merged"),
            "--report", *grid,
        ]) == 0
        out = capsys.readouterr().out
        assert "merged into" in out
        assert "merged from" in out
        assert "Hardware matrix" in out
        assert "6 hits, 0 misses, 0 new completions" in out

    def test_merge_report_respects_size_bound(self, capsys, tmp_path, dataset):
        from repro.eval.engine import DiskResponseStore

        grid = ["--model", "o3-mini-high", "--gpus", "v100", "--rq", "rq2",
                "--limit", "4"]
        for i in range(2):
            assert main([
                "sweep", *grid, "--shard", f"{i}/2",
                "--cache-dir", str(tmp_path / f"shard-{i}"),
            ]) == 0
        capsys.readouterr()
        store = DiskResponseStore(tmp_path / "shard-0")
        bound = (store.size_bytes() // 2) * 2  # room for ~2 of 4 entries
        assert main([
            "merge-caches", str(tmp_path / "shard-0"),
            str(tmp_path / "shard-1"), "--into", str(tmp_path / "merged"),
            "--cache-max-bytes", str(bound), "--report", *grid,
        ]) == 0
        assert "Hardware matrix" in capsys.readouterr().out
        # The replay recomputes what eviction dropped, but the command must
        # leave the store within the requested bound.
        merged = DiskResponseStore(tmp_path / "merged")
        assert merged.size_bytes() <= bound

    def test_merge_conflict_exits_nonzero(self, capsys, tmp_path):
        from repro.eval.engine import CachedResponse, DiskResponseStore

        key = "ab" + "0" * 62
        for name, text in (("a", "Compute"), ("b", "Bandwidth")):
            store = DiskResponseStore(tmp_path / name)
            store.put(key, CachedResponse(
                text=text, input_tokens=1, output_tokens=1,
                reasoning_tokens=0, model="m",
            ))
        assert main([
            "merge-caches", str(tmp_path / "a"), str(tmp_path / "b"),
            "--into", str(tmp_path / "merged"),
        ]) == 1
        assert "merge conflict" in capsys.readouterr().err

    def test_cache_tolerates_missing_dir(self, capsys, tmp_path):
        assert main([
            "cache", "--cache-dir", str(tmp_path / "never-created"),
        ]) == 0
        out = capsys.readouterr().out
        assert "missing; treated as empty" in out
        assert "entries:   0" in out

    def test_cache_wipe_tolerates_missing_dir(self, capsys, tmp_path):
        assert main([
            "cache", "--cache-dir", str(tmp_path / "nope"), "--wipe",
        ]) == 0
        assert "missing; treated as empty" in capsys.readouterr().out


class TestFaultFlags:
    def test_unknown_backend_exits_2_listing_choices(self, capsys):
        # There is no backend to choose any more: any ``--backend`` value
        # exits 2 as an unrecognized argument, not as a bad choice.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["rq2", "--backend", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --backend bogus" in err
        assert "invalid choice" not in err

    def test_unknown_failure_mode_exits_2_listing_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["rq2", "--failure-mode", "explode"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "fail_fast" in err and "collect" in err

    def test_bad_fault_spec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["rq2", "--model", "gpt-4o-mini", "--limit", "1",
                  "--inject-faults", "seed=x"])
        assert excinfo.value.code == 2
        assert "--inject-faults" in capsys.readouterr().err

    def test_unknown_fault_kind_lists_valid_kinds(self, capsys):
        with pytest.raises(SystemExit):
            main(["rq2", "--model", "gpt-4o-mini", "--limit", "1",
                  "--inject-faults", "frobnicate:rate=1"])
        assert "provider_error" in capsys.readouterr().err

    def test_resume_flag_is_rejected(self, capsys):
        # Resuming is re-running the same command; the old flag fails
        # loudly instead of being silently accepted.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--model", "gpt-4o-mini", "--gpus", "v100",
                  "--limit", "1", "--resume"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --resume" in capsys.readouterr().err

    def test_collect_mode_reports_failed_units(self, capsys, dataset):
        assert main([
            "rq2", "--model", "gpt-4o-mini", "--limit", "16",
            "--failure-mode", "collect",
            "--inject-faults", "seed=11;provider_error:rate=0.3,attempts=99",
        ]) == 0
        out = capsys.readouterr().out
        assert " failed" in out  # the cache summary books the failures

    def test_rerun_replays_the_cached_units(self, capsys, tmp_path, dataset):
        argv = ["rq2", "--model", "gpt-4o-mini", "--limit", "3",
                "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "3 misses" in first
        assert main(argv) == 0
        again = capsys.readouterr().out
        assert "3 hits, 0 misses" in again
        assert again.split("cache:")[0] == first.split("cache:")[0]
        # The response store is the only state a re-run needs.
        assert [p.name for p in (tmp_path / "c").iterdir()
                if not p.name.startswith("responses-")] == []


#: A sweep journal as older versions left it beside the response cache.
LEGACY_JOURNAL = "sweep-journal.jsonl"
LEGACY_JOURNAL_TEXT = (
    '{"journal": "repro-journal-v1", "sweep": "sweep"}\n'
    '{"key": "ab' + "0" * 62 + '", "unit": "m:item"}\n'
)


class TestDoctorCommand:
    def test_missing_stores_are_healthy(self, capsys, tmp_path):
        assert main([
            "doctor",
            "--cache-dir", str(tmp_path / "a"),
            "--profile-cache", str(tmp_path / "b"),
            "--artifact-cache", str(tmp_path / "c"),
        ]) == 0
        assert "nothing to check" in capsys.readouterr().out

    def test_dry_run_detects_then_repair_heals(
        self, capsys, tmp_path, run_holding
    ):
        from repro.eval.engine import CachedResponse, DiskResponseStore

        store = DiskResponseStore(tmp_path / "c")
        store.put("ab" + "0" * 62, CachedResponse(
            text="Compute", input_tokens=1, output_tokens=1,
            reasoning_tokens=0, model="m",
        ))
        seg = run_holding(store, "ab" + "0" * 62)
        seg.write_bytes(seg.read_bytes()[:-3])
        flags = ["--cache-dir", str(tmp_path / "c"),
                 "--profile-cache", str(tmp_path / "p"),
                 "--artifact-cache", str(tmp_path / "a")]

        assert main(["doctor", "--dry-run", *flags]) == 1
        out = capsys.readouterr().out
        assert "torn_write" in out
        assert seg.exists()  # dry run never modifies

        assert main(["doctor", *flags]) == 0
        assert "repaired" in capsys.readouterr().out
        assert not seg.exists()
        assert (tmp_path / "c" / "quarantine" / seg.name).exists()

        assert main(["doctor", "--dry-run", *flags]) == 0
        assert "healthy" in capsys.readouterr().out

    def test_cache_command_surfaces_doctor_hint(
        self, capsys, tmp_path, run_holding
    ):
        from repro.eval.engine import CachedResponse, DiskResponseStore

        store = DiskResponseStore(tmp_path / "c")
        store.put("ab" + "0" * 62, CachedResponse(
            text="Compute", input_tokens=1, output_tokens=1,
            reasoning_tokens=0, model="m",
        ))
        (tmp_path / "c" / LEGACY_JOURNAL).write_text(LEGACY_JOURNAL_TEXT)
        seg = run_holding(store, "ab" + "0" * 62)
        seg.write_bytes(seg.read_bytes()[:-3])

        assert main(["cache", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "journal" not in out  # a leftover sweep journal is ignored
        assert "1 torn_write" in out
        assert "repro-paper doctor" in out

    def test_leftover_sweep_journal_is_ignored(self, capsys, tmp_path):
        from repro.eval.engine import CachedResponse, DiskResponseStore

        store = DiskResponseStore(tmp_path / "c")
        response = CachedResponse(
            text="Compute", input_tokens=1, output_tokens=1,
            reasoning_tokens=0, model="m",
        )
        store.put("ab" + "0" * 62, response)
        journal = tmp_path / "c" / LEGACY_JOURNAL
        journal.write_text(LEGACY_JOURNAL_TEXT)
        flags = ["--cache-dir", str(tmp_path / "c"),
                 "--profile-cache", str(tmp_path / "p"),
                 "--artifact-cache", str(tmp_path / "a")]

        assert main(["doctor", "--dry-run", *flags]) == 0
        assert "healthy" in capsys.readouterr().out
        assert main(["doctor", *flags]) == 0
        assert journal.read_text() == LEGACY_JOURNAL_TEXT
        assert DiskResponseStore(tmp_path / "c").get("ab" + "0" * 62) == response


def test_closed_stdout_exits_141_without_traceback():
    """`repro-paper variants | true`: the reader is gone before the first
    write. The CLI exits 141 (128 + SIGPIPE) with no traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "variants"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141, err.decode()
    assert b"Traceback" not in err and b"Exception" not in err
