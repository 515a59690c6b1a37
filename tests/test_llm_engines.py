"""Unit tests for the emulator's decision engines: lexical heuristic, deep
reasoner, arithmetic solver, attention model."""

import dataclasses

import pytest

from repro.llm.arithmetic import solve_roofline
from repro.llm.config import ALL_CONFIGS
from repro.llm.heuristic import LexicalFeatures, lexical_logit
from repro.llm.promptio import ClassifyQuery, RooflineQuery
from repro.llm.reasoner import deep_logit
from repro.llm import get_config
from repro.types import Boundedness, Language
from repro.util.rng import RngStream

SAXPY_SRC = """
__global__ void saxpy(const float *__restrict__ x, float *__restrict__ y, float a, int n)
{
  const int gx = blockIdx.x * blockDim.x + threadIdx.x;
  if (gx >= n) return;
  y[gx] = a * x[gx] + y[gx];
}
"""

NBODY_SRC = """
__global__ void forces(const float *__restrict__ px, float *__restrict__ out, float eps, int n)
{
  const int gx = blockIdx.x * blockDim.x + threadIdx.x;
  if (gx >= n) return;
  float xi = px[gx];
  float acc = 0.0f;
  for (int j = 0; j < n; j++) {
    float dx = px[j] - xi;
    float r2 = dx * dx + eps;
    acc = acc + rsqrtf(r2) * dx;
  }
  out[gx] = acc;
}
"""


def _query(source, kernel_name, argv="./p --n 65536"):
    return ClassifyQuery(
        language=Language.CUDA,
        kernel_name=kernel_name,
        gpu_name="NVIDIA GeForce RTX 3080",
        sp_peak=29770.0,
        dp_peak=465.1,
        int_peak=14885.0,
        bandwidth=760.3,
        block=(256, 1, 1),
        grid=(256, 1, 1),
        argv=argv,
        source=source,
        has_real_examples=False,
    )


class TestLexicalFeatures:
    def test_extraction(self):
        feats = LexicalFeatures.extract(NBODY_SRC)
        assert feats.math_fn_count == 1  # rsqrtf
        assert feats.loop_count == 1
        assert feats.double_mentions == 0
        assert not feats.atomic_present
        assert feats.distinct_arrays >= 2

    def test_atomic_detection(self):
        feats = LexicalFeatures.extract("atomicAdd(&out[0], v);")
        assert feats.atomic_present

    def test_score_bounded(self):
        for src in (SAXPY_SRC, NBODY_SRC, "", "double " * 50):
            s = LexicalFeatures.extract(src).score()
            assert -1.5 <= s <= 1.5

    def test_zero_skill_is_idiosyncratic(self):
        cfg = dataclasses.replace(ALL_CONFIGS[0], heuristic_skill=0.0)
        q = _query(SAXPY_SRC, "saxpy")
        v1 = lexical_logit(q, cfg, RngStream("a"))
        v2 = lexical_logit(q, cfg, RngStream("b"))
        assert v1 != v2  # pure per-stream opinion

    def test_full_skill_is_deterministic_feature_score(self):
        cfg = dataclasses.replace(ALL_CONFIGS[0], heuristic_skill=1.0,
                                  fewshot_skill_bonus=0.0)
        q = _query(SAXPY_SRC, "saxpy")
        v1 = lexical_logit(q, cfg, RngStream("a"))
        v2 = lexical_logit(q, cfg, RngStream("b"))
        assert v1 == v2


class TestDeepReasoner:
    def test_streaming_kernel_negative_logit(self):
        cfg = dataclasses.replace(get_config("o3-mini-high"), deep_noise=0.0)
        result = deep_logit(_query(SAXPY_SRC, "saxpy"), cfg, RngStream("t"))
        assert result.succeeded
        assert result.logit < 0  # bandwidth-bound
        assert result.raw_margin < 0

    def test_pairwise_kernel_positive_logit(self):
        cfg = dataclasses.replace(get_config("o3-mini-high"), deep_noise=0.0)
        result = deep_logit(_query(NBODY_SRC, "forces"), cfg, RngStream("t"))
        assert result.succeeded
        assert result.logit > 0  # compute-bound

    def test_missing_kernel_fails_gracefully(self):
        cfg = get_config("o3-mini-high")
        result = deep_logit(_query(SAXPY_SRC, "wrong_name"), cfg, RngStream("t"))
        assert not result.succeeded
        assert result.logit == 0.0

    def test_noise_perturbs_logit(self):
        q = _query(NBODY_SRC, "forces")
        quiet = dataclasses.replace(get_config("o1"), deep_noise=0.0)
        noisy = dataclasses.replace(get_config("o1"), deep_noise=3.0)
        a = deep_logit(q, quiet, RngStream("x"))
        b = deep_logit(q, noisy, RngStream("x"))
        assert a.raw_margin == b.raw_margin  # same analysis
        assert a.logit != b.logit  # different decision value

    def test_logit_bounded(self):
        cfg = get_config("o1")
        for src, name in ((SAXPY_SRC, "saxpy"), (NBODY_SRC, "forces")):
            r = deep_logit(_query(src, name), cfg, RngStream("b"))
            assert -1.0 <= r.logit <= 1.0


class TestArithmeticSolver:
    def _q(self, ai, bw=100.0, peak=200.0, cot=False, examples=2):
        return RooflineQuery(
            bandwidth_gbs=bw, peak_gflops=peak, ai=ai,
            has_chain_of_thought_examples=cot, num_examples=examples,
        )

    def test_reasoning_never_slips(self):
        cfg = get_config("o1")
        rng = RngStream("s")
        for i in range(100):
            ai = 0.1 + i * 0.05
            truth = Boundedness.BANDWIDTH if ai < 2.0 else Boundedness.COMPUTE
            assert solve_roofline(self._q(ai), cfg, rng.child(i)) is truth

    def test_slippy_model_errs_sometimes(self):
        cfg = dataclasses.replace(get_config("gpt-4o-mini"), arithmetic_slip=0.3)
        rng = RngStream("s2")
        wrong = sum(
            solve_roofline(self._q(0.5), cfg, rng.child(i)) is Boundedness.COMPUTE
            for i in range(300)
        )
        assert 40 <= wrong <= 150  # ~30% slip rate

    def test_cot_reduces_slips(self):
        cfg = get_config("gpt-4o-mini")  # slip 0.10, cot 0.0
        rng = RngStream("s3")
        plain_wrong = sum(
            solve_roofline(self._q(0.5), cfg, rng.child("p", i)).value != "BB"
            for i in range(200)
        )
        cot_wrong = sum(
            solve_roofline(self._q(0.5, cot=True), cfg, rng.child("c", i)).value != "BB"
            for i in range(200)
        )
        assert cot_wrong < plain_wrong
        assert cot_wrong == 0

    def test_more_examples_reduce_slips(self):
        cfg = dataclasses.replace(get_config("gpt-4o-mini"), arithmetic_slip=0.4)
        rng = RngStream("s4")
        few = sum(
            solve_roofline(self._q(0.5, examples=2), cfg, rng.child("f", i)).value != "BB"
            for i in range(400)
        )
        many = sum(
            solve_roofline(self._q(0.5, examples=8), cfg, rng.child("f", i)).value != "BB"
            for i in range(400)
        )
        assert many <= few


class TestAttentionModel:
    def test_fail_probability_monotone_in_tokens(self):
        cfg = get_config("o1")
        assert cfg.fail_probability(1000) < cfg.fail_probability(50_000)

    def test_fail_probability_capped(self):
        for cfg in ALL_CONFIGS:
            assert cfg.fail_probability(1e12) <= 0.95

    def test_longer_prompt_only_derails_superset(self, balanced_samples):
        """The shared-draw design: if a model's deep path survives a long
        prompt, it must also survive the short one for the same code."""
        from repro.llm import get_model
        from repro.prompts import build_classify_prompt

        model = get_model("o1-mini-2024-09-12")
        flips_to_better = 0
        for s in balanced_samples[:60]:
            p2 = model.complete(build_classify_prompt(s).text)
            p3 = model.complete(
                build_classify_prompt(s, variant="few-shot-2").text
            )
            # no strict per-sample assertion possible at the response level,
            # but the pair must be deterministic
            assert p2.text in ("Compute", "Bandwidth")
            assert p3.text in ("Compute", "Bandwidth")


class TestAnalysisMemo:
    """The device-independent reading of a kernel (lexical score, static
    estimate) and its code-keyed draws are memoized by code digest across
    GPU × regime cells. The memos must be invisible in the answers, must
    read each kernel and seed each code stream once, and must keep the
    draws from evicting the readings."""

    MODELS = ("o3-mini-high", "gpt-4o-mini")
    GPUS = ("V100", "H100")

    def _grid(self):
        from repro.eval.engine import EvalEngine
        from repro.eval.matrix import run_matrix
        from repro.llm import get_model
        from repro.roofline.hardware import get_gpu

        return run_matrix(
            [get_model(n) for n in self.MODELS],
            [get_gpu(n) for n in self.GPUS],
            rqs=("rq2", "rq3"),
            limit=12,
            engine=EvalEngine(jobs=1, store=None),
        )

    @pytest.fixture
    def reference(self, dataset):
        """The grid with the memo cleared before every completion."""
        from repro.llm import base, reasoner

        real = base.LlmModel.complete

        def cold_complete(self, prompt, **kwargs):
            reasoner.clear_analysis_memo()
            return real(self, prompt, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(base.LlmModel, "complete", cold_complete)
            result = self._grid()
        reasoner.clear_analysis_memo()
        return result

    def test_invisible(self, reference):
        warming = self._grid()  # the memo fills as the sweep goes
        warm = self._grid()     # every reading served from the memo
        for result in (warming, warm):
            assert result == reference
            assert result.digest() == reference.digest()
            for cell, ref in zip(result.cells, reference.cells):
                assert cell.run.records == ref.run.records

    def test_each_kernel_read_once(self, dataset, monkeypatch):
        from collections import Counter

        from repro.llm import base, reasoner
        from repro.llm.promptio import parse_classify_query
        from repro.util.hashing import stable_hash_hex

        reasoner.clear_analysis_memo()
        prompts: list[str] = []
        extracted: Counter = Counter()
        found: Counter = Counter()
        deep_reads: list[tuple] = []

        real_complete = base.LlmModel.complete
        real_extract = LexicalFeatures.extract.__func__
        real_find = reasoner.find_kernel
        real_deep = base.deep_logit

        def complete(self, prompt, **kwargs):
            prompts.append(prompt)
            return real_complete(self, prompt, **kwargs)

        def extract(cls, source):
            extracted[source] += 1
            return real_extract(cls, source)

        def find_kernel(source, kernel_name, language):
            found[stable_hash_hex(source, kernel_name), language] += 1
            return real_find(source, kernel_name, language)

        def deep(query, model, rng):
            deep_reads.append((
                stable_hash_hex(query.source, query.kernel_name),
                query.language,
                tuple(sorted(query.argv_values().items())),
            ))
            return real_deep(query, model, rng)

        monkeypatch.setattr(base.LlmModel, "complete", complete)
        monkeypatch.setattr(LexicalFeatures, "extract", classmethod(extract))
        monkeypatch.setattr(reasoner, "find_kernel", find_kernel)
        monkeypatch.setattr(base, "deep_logit", deep)
        self._grid()
        reasoner.clear_analysis_memo()

        queries = [parse_classify_query(p) for p in prompts]
        assert len(queries) == 2 * 2 * 2 * 12  # models × GPUs × regimes × kernels
        sources = {q.source for q in queries}
        assert len(sources) < len(queries)
        assert extracted == Counter(dict.fromkeys(sources, 1))

        # Both models read deeply (at different depths); each (code
        # digest, language, argv) is analysed once however many cells and
        # models ask for it.
        deep_keys = set(deep_reads)
        assert len(deep_keys) < len(deep_reads)
        assert found == Counter({(d, lang): 1 for d, lang, _ in deep_keys})
        assert len(found) == len(deep_keys)

    def test_overflow_drops_oldest_half(self, reference, monkeypatch):
        from repro.llm import reasoner

        monkeypatch.setattr(reasoner, "_ANALYSIS_MEMO_CAP", 8)
        reasoner.clear_analysis_memo()
        capped = self._grid()
        assert len(reasoner._ANALYSIS_MEMO) <= 8
        assert capped == reference
        assert capped.digest() == reference.digest()

        reasoner.clear_analysis_memo()
        for i in range(9):
            reasoner.memoized(("k", i), lambda i=i: i)
        assert list(reasoner._ANALYSIS_MEMO) == [("k", i) for i in range(4, 9)]
        reasoner.clear_analysis_memo()

    def _grid_queries(self, monkeypatch):
        """Run the grid on cleared memos; return (model name, parsed query)
        for each of its completions."""
        from repro.llm import base, reasoner
        from repro.llm.promptio import parse_classify_query

        prompts: list[tuple[str, str]] = []
        real_complete = base.LlmModel.complete

        def complete(self, prompt, **kwargs):
            prompts.append((self.name, prompt))
            return real_complete(self, prompt, **kwargs)

        monkeypatch.setattr(base.LlmModel, "complete", complete)
        reasoner.clear_analysis_memo()
        self._grid()
        return [(name, parse_classify_query(p)) for name, p in prompts]

    def test_code_streams_seeded_once(self, dataset, monkeypatch):
        """Each code-keyed stream is seeded once per (model, kernel) across
        the 2 GPU × 2 regime grid, however many cells draw from it."""
        from collections import Counter

        import numpy as np

        from repro.util.rng import derive_seed

        seeds: Counter = Counter()
        real_pcg = np.random.PCG64

        def pcg64(seed=None):
            seeds[seed] += 1
            return real_pcg(seed)

        monkeypatch.setattr(np.random, "PCG64", pcg64)
        queries = self._grid_queries(monkeypatch)
        assert len(queries) == 2 * 2 * 2 * 12

        code = {(name, q.code_digest) for name, q in queries}
        assert len(code) == 2 * 12
        deep = 0
        for name, digest in code:
            key = ("llm", name, "analysis", digest)
            assert seeds[derive_seed(*key, "lex")] == 1
            assert seeds[derive_seed(*key, "attention")] == 1
            assert seeds[derive_seed(*key, "deep")] <= 1
            deep += seeds[derive_seed(*key, "deep")]
        assert deep > 0

    def test_clear_empties_draw_memo(self, dataset, monkeypatch):
        """Clearing drops the draws too, so a cleared run is truly cold."""
        from repro.llm import reasoner

        self._grid_queries(monkeypatch)
        assert reasoner._DRAW_MEMO and reasoner._ANALYSIS_MEMO
        reasoner.clear_analysis_memo()
        assert reasoner._DRAW_MEMO == {} and reasoner._ANALYSIS_MEMO == {}

    def test_draw_overflow_keeps_analyses(self, reference, monkeypatch):
        """The draws live in their own bounded map: overflowing it drops
        only draws, never a kernel analysis, and changes no answer."""
        from repro.llm import reasoner

        reasoner.clear_analysis_memo()
        self._grid()
        analyses = dict(reasoner._ANALYSIS_MEMO)
        assert len(reasoner._DRAW_MEMO) == 2 * 12

        monkeypatch.setattr(reasoner, "_DRAW_MEMO_CAP", 4)
        for i in range(50):
            reasoner.MemoStream("overflow", i).child("u").uniform()
        assert len(reasoner._DRAW_MEMO) <= 4
        assert reasoner._ANALYSIS_MEMO == analyses

        reasoner.clear_analysis_memo()
        capped = self._grid()
        assert len(reasoner._DRAW_MEMO) <= 4
        assert reasoner._ANALYSIS_MEMO.keys() == analyses.keys()
        assert capped == reference
        assert capped.digest() == reference.digest()
        reasoner.clear_analysis_memo()

    def test_memo_stream_draws_once(self):
        """A memoized value stands in only for a stream's first draw."""
        from repro.llm import reasoner

        reasoner.clear_analysis_memo()
        root = reasoner.MemoStream("memo-test", 7)
        fresh = root.child("u")
        value = fresh.uniform(-0.8, 0.8)
        assert value == RngStream("memo-test", 7, "u").uniform(-0.8, 0.8)
        with pytest.raises(RuntimeError):
            fresh.uniform(-0.8, 0.8)

        served = root.child("u")  # this one is served from the memo
        assert served.uniform(-0.8, 0.8) == value
        with pytest.raises(RuntimeError):
            served.normal()
        assert reasoner._DRAW_MEMO == {
            ("memo-test", 7): {(("u",), "uniform", (-0.8, 0.8)): value}
        }
        # Draws the memo cannot stand in for are refused outright.
        with pytest.raises(TypeError):
            root.child("b").bernoulli(0.5)
        reasoner.clear_analysis_memo()

    def test_draw_memo_under_thread_contention(self, monkeypatch):
        """Thread-pool workers share the draw map: with more threads than
        cores, forced switches and a tiny cap, every draw still equals a
        fresh stream's and the map stays bounded."""
        import sys
        import threading

        from repro.llm import reasoner

        keys = [("stress", i) for i in range(40)]
        expected = {k: RngStream(*k, "u").uniform(-0.8, 0.8) for k in keys}
        monkeypatch.setattr(reasoner, "_DRAW_MEMO_CAP", 8)
        reasoner.clear_analysis_memo()
        errors: list = []

        def worker(offset):
            try:
                for n in range(300):
                    k = keys[(offset + 7 * n) % len(keys)]
                    got = reasoner.MemoStream(*k).child("u").uniform(-0.8, 0.8)
                    if got != expected[k]:
                        errors.append((k, got))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(reasoner._DRAW_MEMO) <= 8
        reasoner.clear_analysis_memo()
