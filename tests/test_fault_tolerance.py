"""Fault-tolerant sweeps: retry, fault injection, crash and re-run.

Pins the robustness contracts:

* the shared sync retry driver recovers from transient failures under the
  policy's attempt bound, floors backoff by ``retry_after`` hints, and
  propagates non-transient errors on the first attempt;
* a seeded :class:`~repro.util.faults.FaultPlan` selects the same units
  however the sweep is scheduled, so collect-mode runs under the same
  plan produce byte-identical digests;
* ``failure_mode="collect"`` records exhausted units as
  :class:`~repro.eval.runner.FailedUnit` entries (excluded from records
  and usage), and ``max_failures`` aborts exactly at the threshold;
* the runs a sweep spilled before it aborted survive in the store, and a
  re-run serves exactly those units as hits;
* a sweep SIGKILLed mid-run, re-run with the same command, prints a
  byte-identical report.
"""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import runtime
from repro.eval.engine import (
    FAILURE_MODES,
    DiskResponseStore,
    EvalEngine,
    MaxFailuresExceeded,
    resolve_failure_mode,
)
from repro.llm import get_model
from repro.prompts import build_classify_prompt
from repro.util.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.util.retry import RetryPolicy, TransientError, retry_call

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def classify_items(samples, n):
    return [
        (s.uid, build_classify_prompt(s).text, s.label) for s in samples[:n]
    ]


class TestSyncRetry:
    def _policy(self, attempts=4):
        return RetryPolicy(max_attempts=attempts, base_delay_s=0.0, jitter=0.0)

    def test_recovers_within_attempt_bound(self):
        calls = []

        def flaky(_attempt):
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("blip")
            return "ok"

        sleeps = []
        assert retry_call(
            flaky, policy=self._policy(), sleep=sleeps.append
        ) == "ok"
        assert len(calls) == 3
        assert len(sleeps) == 2

    def test_exhaustion_raises_the_last_error(self):
        def always(_attempt):
            raise TransientError("down")

        with pytest.raises(TransientError, match="down"):
            retry_call(always, policy=self._policy(2), sleep=lambda _s: None)

    def test_non_transient_propagates_immediately(self):
        calls = []

        def bug(_attempt):
            calls.append(1)
            raise KeyError("not weather")

        with pytest.raises(KeyError):
            retry_call(bug, policy=self._policy(), sleep=lambda _s: None)
        assert len(calls) == 1

    def test_retry_after_hint_floors_the_delay(self):
        class Limited(TransientError):
            retry_after = 9.0

        calls = []

        def flaky(_attempt):
            calls.append(1)
            if len(calls) == 1:
                raise Limited("429")
            return "ok"

        sleeps = []
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.001, max_delay_s=0.001, jitter=0.0
        )
        assert retry_call(flaky, policy=policy, sleep=sleeps.append) == "ok"
        assert sleeps == [9.0]

    def test_on_retry_sees_each_failed_attempt(self):
        seen = []
        attempts = []

        def flaky(attempt):
            attempts.append(attempt)
            if len(seen) < 2:
                raise TransientError("blip")
            return "ok"

        retry_call(
            flaky,
            policy=self._policy(),
            sleep=lambda _s: None,
            on_retry=lambda attempt, exc: seen.append(attempt),
        )
        assert seen == [0, 1]
        assert attempts == [0, 1, 2]  # fn sees its 0-based attempt index

    def test_jitter_is_a_pure_function_of_token_and_attempt(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.05, max_delay_s=10.0, jitter=0.5
        )
        a = [policy.backoff_delay(i, "unit-a") for i in range(4)]
        assert a == [policy.backoff_delay(i, "unit-a") for i in range(4)]
        assert a != [policy.backoff_delay(i, "unit-b") for i in range(4)]
        for attempt, delay in enumerate(a):
            base = 0.05 * 2.0**attempt
            assert 0.5 * base <= delay <= 1.5 * base
        factors = {
            policy.backoff_delay(0, f"unit-{i}") / 0.05 for i in range(256)
        }
        assert len(factors) == 256
        assert min(factors) < 0.6 and max(factors) > 1.4  # spans the band

    def test_retry_call_sleeps_the_token_schedule(self):
        def always(_attempt):
            raise TransientError("down")

        policy = RetryPolicy(max_attempts=4, base_delay_s=0.05)
        sleeps = []
        with pytest.raises(TransientError):
            retry_call(always, policy=policy, token="k", sleep=sleeps.append)
        assert sleeps == [policy.backoff_delay(i, "k") for i in range(3)]

    def test_retry_call_rejects_attempt_timeouts(self):
        with pytest.raises(ValueError, match="timeout_s"):
            retry_call(
                lambda _attempt: "ok",
                policy=RetryPolicy(timeout_s=1.0),
            )

    def test_engine_rejects_attempt_timeouts_at_construction(self):
        # Before the first miss, not at it: a warm run would never notice.
        with pytest.raises(ValueError, match="timeout_s"):
            EvalEngine(store=None, retry=RetryPolicy(timeout_s=1.0))


class TestFaultPlanParsing:
    def test_round_trip(self):
        spec = "seed=7;provider_error:rate=0.25,attempts=2;torn_write:rate=0.5"
        plan = FaultPlan.parse(spec)
        assert plan.seed == 7
        assert plan.specs[0] == FaultSpec(
            "provider_error", rate=0.25, attempts=2
        )
        assert FaultPlan.parse(plan.describe()).specs == plan.specs

    @pytest.mark.parametrize("bad", [
        "seed=x",
        "frobnicate:rate=1",
        "provider_error:rate=2.0",
        "provider_error:bogus=1",
        "worker_death",  # needs after=N
        "provider_error:attempts=0",
    ])
    def test_bad_specs_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_unknown_kind_error_lists_valid_kinds(self):
        with pytest.raises(ValueError, match="provider_error"):
            FaultPlan.parse("frobnicate:rate=1")

    def test_selection_is_order_independent(self):
        plan = FaultPlan.parse("seed=3;provider_error:rate=0.4")
        tokens = [f"unit-{i}" for i in range(64)]
        spec = plan.specs[0]
        forward = [plan._selected(spec, t) for t in tokens]
        backward = [plan._selected(spec, t) for t in reversed(tokens)]
        assert forward == list(reversed(backward))
        assert 0 < sum(forward) < len(tokens)

    def test_env_plan_memoized_per_spec(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=5;torn_write:rate=1")
        runtime.reset()
        assert runtime.current().fault_plan is runtime.current().fault_plan
        runtime.install(fault_plan=None)  # explicit off beats the env
        assert runtime.current().fault_plan is None
        runtime.reset()
        assert runtime.current().fault_plan is not None


class TestCollectMode:
    def test_unknown_failure_mode_lists_choices(self):
        with pytest.raises(ValueError, match="fail_fast"):
            resolve_failure_mode("explode")
        with pytest.raises(ValueError):
            EvalEngine(failure_mode="explode")

    def test_fail_fast_propagates_exhausted_units(self, balanced_samples):
        runtime.install(
            fault_plan=FaultPlan.parse("provider_error:rate=1,attempts=99")
        )
        engine = EvalEngine(retry=RetryPolicy(max_attempts=2, base_delay_s=0))
        with pytest.raises(InjectedFault):
            engine.run(
                get_model("gpt-4o-mini"), classify_items(balanced_samples, 3)
            )

    @pytest.mark.parametrize("jobs", [
        pytest.param(1, id="sequential-1"), pytest.param(4, id="thread-4"),
    ])
    def test_collect_records_failures_deterministically(
        self, balanced_samples, jobs
    ):
        runtime.install(fault_plan=FaultPlan.parse(
            "seed=11;provider_error:rate=0.3,attempts=99"
        ))
        items = classify_items(balanced_samples, 16)
        model = get_model("gpt-4o-mini")

        def run_once():
            engine = EvalEngine(
                jobs=jobs,
                failure_mode="collect",
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            )
            return engine.run(model, items), engine.stats

        first, stats = run_once()
        second, _ = run_once()
        assert first.failures
        assert len(first.records) + len(first.failures) == len(items)
        assert first.digest() == second.digest()
        assert stats.failed == len(first.failures)
        # One counted retry per exhausted unit, at every worker count.
        assert stats.retries == len(first.failures)
        recorded = {r.item_id for r in first.records}
        assert all(f.item_id not in recorded for f in first.failures)
        assert "failed" in stats.summary()

    @pytest.mark.parametrize("failure_mode", FAILURE_MODES)
    def test_exhausted_unit_books_its_retries(
        self, balanced_samples, failure_mode
    ):
        """Both failure modes book an exhausted unit's re-attempts as they
        happen: a fail-fast unit counts its retries before it raises."""
        runtime.install(
            fault_plan=FaultPlan.parse("provider_error:rate=1.0,attempts=99")
        )
        engine = EvalEngine(
            retry=RetryPolicy(max_attempts=3, base_delay_s=0),
            failure_mode=failure_mode,
        )
        # One unit: a fail-fast run stops at it, a collect run records it.
        items = classify_items(balanced_samples, 1)
        if failure_mode == "fail_fast":
            with pytest.raises(InjectedFault):
                engine.run(get_model("gpt-4o-mini"), items)
        else:
            (failure,) = engine.run(get_model("gpt-4o-mini"), items).failures
            assert failure.attempts == 3
        assert engine.stats.retries == 2

    def test_collect_failures_survive_to_json_and_render(
        self, balanced_samples
    ):
        runtime.install(
            fault_plan=FaultPlan.parse(
                "seed=2;provider_error:rate=0.4,attempts=99"
            )
        )
        engine = EvalEngine(
            failure_mode="collect",
            retry=RetryPolicy(max_attempts=1),
        )
        result = engine.run(
            get_model("gpt-4o-mini"), classify_items(balanced_samples, 10)
        )
        assert result.failures
        payload = result.to_json()
        assert len(payload["failures"]) == len(result.failures)
        assert "Failed units" in result.render()

    def test_clean_run_digest_unchanged_by_collect_mode(
        self, balanced_samples
    ):
        items = classify_items(balanced_samples, 8)
        model = get_model("gpt-4o-mini")
        plain = EvalEngine().run(model, items)
        collected = EvalEngine(failure_mode="collect").run(model, items)
        assert collected == plain
        assert collected.digest() == plain.digest()
        assert "failures" not in plain.to_json()

    def test_max_failures_aborts_exactly_at_threshold(self, balanced_samples):
        runtime.install(
            fault_plan=FaultPlan.parse("provider_error:rate=1,attempts=99")
        )
        engine = EvalEngine(
            failure_mode="collect",
            max_failures=3,
            retry=RetryPolicy(max_attempts=1),
        )
        with pytest.raises(MaxFailuresExceeded) as excinfo:
            engine.run(
                get_model("gpt-4o-mini"), classify_items(balanced_samples, 10)
            )
        assert excinfo.value.threshold == 3
        assert engine.stats.failed == 3

    def test_max_failures_must_be_positive(self):
        with pytest.raises(ValueError):
            EvalEngine(max_failures=0)

    def test_injected_faults_recovered_by_retry_leave_results_clean(
        self, balanced_samples
    ):
        items = classify_items(balanced_samples, 8)
        model = get_model("gpt-4o-mini")
        baseline = EvalEngine().run(model, items)
        runtime.install(
            fault_plan=FaultPlan.parse(
                "seed=4;provider_error:rate=0.5,attempts=1"
            )
        )
        engine = EvalEngine(
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0)
        )
        recovered = engine.run(model, items)
        assert recovered == baseline
        assert engine.stats.retries > 0
        assert engine.stats.failed == 0


class TestRerunAfterCrash:
    def test_interrupted_sweep_keeps_spilled_runs(
        self, tmp_path, balanced_samples, monkeypatch
    ):
        monkeypatch.setattr(DiskResponseStore, "DEFERRED_FLUSH_ENTRIES", 2)
        items = classify_items(balanced_samples, 10)
        model = get_model("gpt-4o-mini")
        reference = EvalEngine(store=None).run(model, items)
        root = tmp_path / "cache"
        engine = EvalEngine(
            store=DiskResponseStore(root),
            failure_mode="collect",
            max_failures=1,
            retry=RetryPolicy(max_attempts=1),
        )

        completed_before_fault = 5
        calls = {"n": 0}
        original = type(model).complete

        def flaky(self, prompt, *, temperature=None, top_p=None):
            calls["n"] += 1
            if calls["n"] > completed_before_fault:
                raise TransientError("injected mid-sweep outage")
            return original(
                self, prompt, temperature=temperature, top_p=top_p
            )

        with monkeypatch.context() as patch:
            patch.setattr(type(model), "complete", flaky)
            with pytest.raises(MaxFailuresExceeded):
                engine.run(model, items)
        # Two spills of 2 puts reached disk before the abort; the fifth
        # completion was still buffered and is discarded with the run.
        assert len(DiskResponseStore(root)) == 4

        rerun = EvalEngine(store=DiskResponseStore(root))
        assert rerun.run(model, items) == reference
        assert (rerun.stats.hits, rerun.stats.misses) == (4, len(items) - 4)


class TestKillAndRerun:
    @pytest.mark.slow
    def test_sigkill_mid_sweep_reruns_byte_identical(self, tmp_path):
        env = {
            **os.environ,
            "PYTHONPATH": SRC_DIR,
            "REPRO_PROFILE_CACHE": str(tmp_path / "profile-cache"),
            "REPRO_ARTIFACT_CACHE": str(tmp_path / "artifact-cache"),
            "REPRO_CACHE_DIR": str(tmp_path / "control-cache"),
        }
        env.pop("REPRO_FAULT_PLAN", None)
        # Enough units that the store's 64-put spill lands before the
        # injected SIGKILL on the 100th completion attempt.
        units = 200
        argv = [
            sys.executable, "-m", "repro.cli", "rq2",
            "--model", "gpt-4o-mini", "--limit", str(units),
        ]
        control = subprocess.run(
            argv, capture_output=True, text=True, env=env, check=True
        )

        crash_root = tmp_path / "crash-cache"
        crash_env = {**env, "REPRO_CACHE_DIR": str(crash_root)}
        crashed = subprocess.run(
            [*argv, "--inject-faults", "seed=1;worker_death:after=100"],
            capture_output=True, text=True, env=crash_env,
        )
        assert crashed.returncode == -signal.SIGKILL
        cached = len(DiskResponseStore(crash_root))

        rerun = subprocess.run(
            argv, capture_output=True, text=True, env=crash_env, check=True,
        )

        def report(text):
            return "\n".join(
                line for line in text.splitlines()
                if not line.startswith("cache:")
            )

        assert report(rerun.stdout) == report(control.stdout)
        stats = re.search(r"cache: (\d+) hits, (\d+) misses", rerun.stdout)
        hits, misses = int(stats.group(1)), int(stats.group(2))
        # Every unit spilled before the kill is a pure store hit; only
        # the rest recomputes.
        assert hits == cached
        assert 0 < hits < units
        assert misses == units - hits
