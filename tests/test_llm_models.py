"""Tests for the LLM emulator core: registry, completion behaviour,
determinism, sampling semantics, pricing."""

import pytest

from repro.llm import (
    ALL_CONFIGS,
    MODEL_NAMES,
    SamplingNotSupported,
    SamplingParams,
    Usage,
    UsageMeter,
    all_models,
    get_config,
    get_model,
    non_reasoning_models,
    query_cost_usd,
    reasoning_models,
)
from repro.llm.sampling import sample_response
from repro.prompts import (
    build_classify_prompt,
    build_rq1_prompt,
    generate_question,
    generate_rq1_questions,
)
from repro.types import Boundedness
from repro.util.rng import RngStream


class TestRegistry:
    def test_nine_models(self):
        assert len(MODEL_NAMES) == 9
        assert len(all_models()) == 9

    def test_paper_row_order(self):
        assert MODEL_NAMES[0] == "o3-mini-high"
        assert MODEL_NAMES[-1] == "gpt-4o-mini-2024-07-18"

    def test_reasoning_partition(self):
        r = {m.name for m in reasoning_models()}
        nr = {m.name for m in non_reasoning_models()}
        assert r == {"o3-mini-high", "o1", "o3-mini", "o1-mini-2024-09-12"}
        assert len(r) + len(nr) == 9

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_model("gpt-5")

    def test_pricing_matches_table1(self):
        assert get_config("o1").input_cost_per_m == 15.0
        assert get_config("o1").output_cost_per_m == 60.0
        assert get_config("gpt-4.5-preview").input_cost_per_m == 75.0
        assert get_config("gemini-2.0-flash-001").input_cost_per_m == 0.1
        assert get_config("gpt-4o-mini").output_cost_per_m == 0.6


class TestCompletion:
    def test_vocabulary(self, balanced_samples):
        model = get_model("o3-mini-high")
        for s in balanced_samples[:10]:
            resp = model.complete(build_classify_prompt(s).text)
            assert resp.text in ("Compute", "Bandwidth")

    def test_deterministic_repeat(self, balanced_samples):
        model = get_model("gemini-2.0-flash-001")
        prompt = build_classify_prompt(balanced_samples[0]).text
        assert model.complete(prompt).text == model.complete(prompt).text

    def test_rq1_answers(self):
        model = get_model("o3-mini-high")
        q = generate_question(RngStream("t"), force_label=Boundedness.COMPUTE)
        resp = model.complete(build_rq1_prompt(q, shots=2))
        assert resp.boundedness() is Boundedness.COMPUTE  # reasoning: no slips

    def test_reasoning_model_rejects_sampling_params(self):
        model = get_model("o1")
        with pytest.raises(SamplingNotSupported):
            model.complete("whatever", temperature=0.7)

    def test_non_reasoning_accepts_sampling_params(self, balanced_samples):
        model = get_model("gpt-4o-mini")
        prompt = build_classify_prompt(balanced_samples[0]).text
        resp = model.complete(prompt, temperature=0.5, top_p=0.9)
        assert resp.text in ("Compute", "Bandwidth")

    def test_off_task_prompt_gets_fallback(self):
        resp = get_model("gpt-4o-mini").complete("tell me a joke")
        assert resp.text == "Bandwidth"

    def test_usage_reported(self, balanced_samples):
        model = get_model("o1")
        prompt = build_classify_prompt(balanced_samples[0]).text
        resp = model.complete(prompt)
        assert resp.usage.input_tokens > 100
        assert resp.usage.output_tokens == 1
        assert resp.usage.reasoning_tokens > 0  # o1 bills hidden tokens

    def test_ground_truth_never_leaks(self, balanced_samples):
        """The emulator must work from the prompt alone: masking the label
        field of the sample cannot change the response."""
        import dataclasses

        model = get_model("o3-mini-high")
        s = balanced_samples[0]
        masked = dataclasses.replace(s, label=s.label.other)
        p1 = build_classify_prompt(s).text
        p2 = build_classify_prompt(masked).text
        assert p1 == p2  # the label is not part of the prompt
        assert model.complete(p1).text == model.complete(p2).text


class TestSamplingLayer:
    def test_greedy_at_zero_temperature(self):
        rng = RngStream("s")
        p = SamplingParams(temperature=0.0, top_p=1.0)
        assert sample_response(0.4, p, rng) is Boundedness.COMPUTE
        assert sample_response(-0.4, p, rng) is Boundedness.BANDWIDTH

    def test_paper_settings_effectively_greedy(self):
        p = SamplingParams()  # 0.1 / 0.2
        rng = RngStream("s2")
        for i in range(200):
            assert sample_response(0.3, p, rng) is Boundedness.COMPUTE

    def test_high_temperature_can_flip_borderline(self):
        p = SamplingParams(temperature=3.0, top_p=1.0)
        rng = RngStream("s3")
        outcomes = {sample_response(0.01, p, rng.child(i)) for i in range(300)}
        assert outcomes == {Boundedness.COMPUTE, Boundedness.BANDWIDTH}

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingParams(temperature=-1.0)
        with pytest.raises(ValueError):
            SamplingParams(top_p=0.0)


#: Answers (first letter of each word) that draw from the per-prompt
#: stream, recorded when that stream was still keyed eagerly: gpt-4o-mini
#: at temperature 1.0 / top_p 1.0 on the first 48 balanced samples'
#: zero-shot prompts, and its RQ1 answers (arithmetic_slip 0.10) to the
#: first 24 rooflines' questions.
_GOLDEN_HOT_CLASSIFY = "CCCCBCCCCBCCCBCCBCCCBBBBCBCCCCCCCBCCCCBBCCCBCCCB"
_GOLDEN_RQ1 = "BCBBBBBCBCBCBCBCBCCCBCCBBCBCBCBCBBBCBCBCCCBCBCBC"


class TestDeferredPromptStream:
    """The per-prompt stream is keyed (its prompt hashed) only when a
    completion draws from it, with the same key as ever."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        from repro.llm import base

        calls: list[tuple] = []
        real = base.stable_hash_hex

        def counting(*parts):
            calls.append(parts)
            return real(*parts)

        monkeypatch.setattr(base, "stable_hash_hex", counting)
        return calls

    def test_paper_settings_hash_no_prompt(self, balanced_samples, hashed):
        prompts = [build_classify_prompt(s).text for s in balanced_samples[:20]]
        for name in ("o3-mini-high", "gpt-4o-mini"):
            model = get_model(name)
            for prompt in prompts:
                model.complete(prompt)
        assert hashed == []
        # A completion that draws hashes its prompt, once.
        hot = get_model("gpt-4o-mini")
        for prompt in prompts:
            hot.complete(prompt, temperature=1.0, top_p=1.0)
        assert hashed == [(prompt,) for prompt in prompts]

    def test_draws_match_golden_words(self, balanced_samples):
        model = get_model("gpt-4o-mini")
        prompts = [build_classify_prompt(s).text for s in balanced_samples[:48]]

        def words(prompts, **kwargs):
            return "".join(model.complete(p, **kwargs).text[0] for p in prompts)

        hot = words(prompts, temperature=1.0, top_p=1.0)
        assert hot == _GOLDEN_HOT_CLASSIFY
        # The draw decides some borderline answers.
        assert hot != words(prompts, temperature=0.0, top_p=1.0)

        questions = generate_rq1_questions(24)
        rq1 = words([build_rq1_prompt(q, shots=2) for q in questions])
        assert rq1 == _GOLDEN_RQ1
        # Some of those answers are slips.
        assert rq1 != "".join(q.truth.value[0] for q in questions)


class TestPricing:
    def test_query_cost(self):
        cfg = get_config("o1")
        usage = Usage(input_tokens=1_000_000, output_tokens=0, reasoning_tokens=1_000_000)
        assert query_cost_usd(usage, cfg) == pytest.approx(15.0 + 60.0)

    def test_meter_accumulates(self):
        cfg = get_config("gpt-4o-mini")
        meter = UsageMeter(cfg)
        for _ in range(10):
            meter.record(Usage(input_tokens=1000, output_tokens=1))
        s = meter.summary()
        assert s["requests"] == 10
        assert s["input_tokens"] == 10_000
        assert s["cost_usd"] > 0

    def test_meter_is_thread_safe(self):
        """Regression: ``record`` used unsynchronized ``+=`` on shared
        counters, dropping increments when completions were metered from
        concurrent workers. Hammer it from threads and demand exact totals."""
        import threading

        cfg = get_config("gpt-4o-mini")
        meter = UsageMeter(cfg)
        n_threads, per_thread = 8, 500
        barrier = threading.Barrier(n_threads)

        def worker() -> None:
            barrier.wait()
            for _ in range(per_thread):
                meter.record(
                    Usage(input_tokens=3, output_tokens=1, reasoning_tokens=2)
                )

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        s = meter.summary()
        assert s["requests"] == total
        assert s["input_tokens"] == total * 3
        assert s["output_tokens"] == total * 1
        assert s["reasoning_tokens"] == total * 2
        one = query_cost_usd(
            Usage(input_tokens=3, output_tokens=1, reasoning_tokens=2), cfg
        )
        assert s["cost_usd"] == pytest.approx(total * one)

    def test_cheap_models_cheaper(self, balanced_samples):
        prompt = build_classify_prompt(balanced_samples[0]).text
        costs = {}
        for name in ("gpt-4o-mini", "o1"):
            model = get_model(name)
            resp = model.complete(prompt)
            costs[name] = query_cost_usd(resp.usage, model.config)
        assert costs["gpt-4o-mini"] < costs["o1"]


class TestConfigValidation:
    def test_all_configs_valid(self):
        for cfg in ALL_CONFIGS:
            assert 0 <= cfg.base_fail <= 1
            assert cfg.input_cost_per_m > 0

    def test_fail_probability_capped(self):
        cfg = get_config("gemini-2.0-flash-001")
        assert cfg.fail_probability(10**9) <= 0.95

    def test_invalid_config_rejected(self):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(ALL_CONFIGS[0], base_fail=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(ALL_CONFIGS[0], attention_tokens=0.0)
