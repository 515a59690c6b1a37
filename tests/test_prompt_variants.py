"""Tests for the prompt-variant registry (repro.prompts.variants).

The golden-digest suite pins byte-compatibility: the two seed variants
(zero-shot / few-shot-2) must keep producing the exact prompt bytes and
response-cache keys that every pre-registry sweep wrote, so warm stores
replay with zero new completions across the API change. The hashes below
were captured before the registry existed; they are exact assertions.
"""

import hashlib

import pytest

from repro.eval import matrix, rq23
from repro.eval.engine import EvalEngine, cache_key
from repro.eval.matrix import run_matrix
from repro.eval.rq23 import (
    REGIME_VARIANTS,
    classification_items,
    regime_variant,
    run_rq2,
    run_rq3,
)
from repro.llm import get_model
from repro.llm.registry import get_config
from repro.prompts import (
    FEW_SHOT_2,
    MAX_FEW_SHOT,
    NO_HINT,
    PROBLEM_HINT,
    ZERO_SHOT,
    PromptVariant,
    all_variants,
    build_classify_prompt,
    few_shot_variant,
    get_variant,
    real_example_sequence,
    register_variant,
)
from repro.prompts.variants import PROBLEM_HINT_BLOCK
from repro.roofline.hardware import get_gpu

GOLDEN_UID = "cuda/absdiff-v1"
GOLDEN_CONFIG = "o3-mini-high"

#: sha256 of the full prompt text for the golden kernel, per variant and
#: device — captured before the PromptVariant refactor.
GOLDEN_PROMPT_SHA = {
    ("zero-shot", None):
        "d2a175bd44847c7638d39f0e85990deb0e895cb1e90a1abf0421069b50c228c5",
    ("few-shot-2", None):
        "634e517202e543848c8c0e6f1212f5d1838669f53ee8a3ed93374a607711de1b",
    ("zero-shot", "H100"):
        "a97a4441f8d121393bbd3d4931e919917d385d406075dc0c85ea962bda73bf1d",
    ("few-shot-2", "H100"):
        "169f1e28991394bf40a6cb5e82052643534c715a9a3e7bfd8c1d622a6b5b37d1",
}

#: Response-cache keys for the default-device prompts above under the
#: o3-mini-high config — what the seed sweeps' stores are keyed by.
GOLDEN_CACHE_KEY = {
    "zero-shot":
        "25f3f9270f4349b693a8c3754fb97a1b0af662d7584af524397019936c45ff5b",
    "few-shot-2":
        "c506fc5440cadef914df35466fb7ad0dbe32a6c0970b6ae746b2db798eb34fe3",
}

#: run_matrix([o3-mini-high], [V100, H100], rqs=("rq2", "rq3"), limit=12)
#: digest, captured pre-refactor; pins the whole grid's value identity.
GOLDEN_MATRIX_DIGEST = (
    "1059a2d925cceba3dd6e96ca9e6580ef7e07e22cd03fd59e1f6824591f9a2ef7"
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden_sample(dataset):
    return next(s for s in dataset.balanced if s.uid == GOLDEN_UID)


class TestGoldenByteCompatibility:
    @pytest.mark.parametrize(
        "variant, gpu", sorted(GOLDEN_PROMPT_SHA, key=str)
    )
    def test_prompt_bytes_pinned(self, golden_sample, variant, gpu):
        spec = get_gpu(gpu) if gpu else None
        prompt = build_classify_prompt(
            golden_sample, variant=variant, gpu=spec
        )
        assert _sha(prompt.text) == GOLDEN_PROMPT_SHA[(variant, gpu)]

    @pytest.mark.parametrize("variant", sorted(GOLDEN_CACHE_KEY))
    def test_cache_keys_pinned(self, golden_sample, variant):
        prompt = build_classify_prompt(golden_sample, variant=variant)
        key = cache_key(get_config(GOLDEN_CONFIG), prompt.text)
        assert key == GOLDEN_CACHE_KEY[variant]

    def test_matrix_digest_pinned(self, dataset):
        result = run_matrix(
            [get_model(GOLDEN_CONFIG)],
            [get_gpu("V100"), get_gpu("H100")],
            rqs=("rq2", "rq3"),
            limit=12,
            jobs=2,
        )
        assert result.digest() == GOLDEN_MATRIX_DIGEST


class TestRegistry:
    def test_seed_variants_registered(self):
        names = [v.name for v in all_variants()]
        assert names[:4] == [
            "zero-shot", "few-shot-2", "no-hint", "problem-hint"
        ]

    def test_get_variant_by_name_and_instance(self):
        assert get_variant("zero-shot") is ZERO_SHOT
        assert get_variant(ZERO_SHOT) is ZERO_SHOT
        assert get_variant("few-shot-2") is FEW_SHOT_2

    def test_dynamic_few_shot_k(self):
        v = get_variant("few-shot-3")
        assert (v.examples, v.shots) == ("real", 3)
        assert get_variant(f"few-shot-{MAX_FEW_SHOT}").shots == MAX_FEW_SHOT

    def test_unknown_variant_raises(self):
        with pytest.raises(KeyError):
            get_variant("bogus")
        with pytest.raises(KeyError):
            get_variant(f"few-shot-{MAX_FEW_SHOT + 1}")

    def test_reregister_same_definition_is_idempotent(self):
        register_variant(ZERO_SHOT)
        assert get_variant("zero-shot") is ZERO_SHOT

    def test_reregister_conflicting_definition_raises(self):
        clash = PromptVariant("zero-shot", "none")
        with pytest.raises(ValueError):
            register_variant(clash)

    def test_invalid_definitions_rejected(self):
        with pytest.raises(ValueError):
            PromptVariant("bad", "real", shots=0)     # real needs shots
        with pytest.raises(ValueError):
            PromptVariant("bad", "pseudo", shots=2)   # shots need real
        with pytest.raises(ValueError):
            PromptVariant("bad", "martian")           # unknown example mode
        with pytest.raises(ValueError):
            few_shot_variant(MAX_FEW_SHOT + 1)


class TestAblationVariants:
    def test_no_hint_drops_examples(self, golden_sample):
        bare = build_classify_prompt(golden_sample, variant=NO_HINT)
        zero = build_classify_prompt(golden_sample, variant=ZERO_SHOT)
        assert "Examples:" not in bare.text
        assert "Examples:" in zero.text
        assert len(bare.text) < len(zero.text)

    def test_problem_hint_adds_hint_block(self, golden_sample):
        hinted = build_classify_prompt(golden_sample, variant=PROBLEM_HINT)
        zero = build_classify_prompt(golden_sample, variant=ZERO_SHOT)
        assert PROBLEM_HINT_BLOCK.strip() in hinted.text
        assert PROBLEM_HINT_BLOCK.strip() not in zero.text
        assert "Examples:" in hinted.text  # hint rides on the pseudo shots

    def test_all_variants_produce_distinct_prompts(self, golden_sample):
        texts = {
            v.name: build_classify_prompt(golden_sample, variant=v).text
            for v in all_variants()
        }
        assert len(set(texts.values())) == len(texts)

    @pytest.mark.parametrize("shots", [1, 2, 4])
    def test_few_shot_k_example_counts(self, golden_sample, shots):
        prompt = build_classify_prompt(
            golden_sample, variant=f"few-shot-{shots}"
        )
        assert prompt.text.count("\nExample ") == shots
        seq = real_example_sequence(golden_sample.language, shots)
        assert len(seq) == shots

    def test_example_sequence_extends_pairwise(self, golden_sample):
        lang = golden_sample.language
        two = real_example_sequence(lang, 2)
        four = real_example_sequence(lang, 4)
        assert four[:2] == two
        assert len({e.name for e in four}) == 4
        with pytest.raises(ValueError):
            real_example_sequence(lang, 0)


class TestRegimeAxis:
    def test_rq_aliases(self):
        assert REGIME_VARIANTS == {"rq2": "zero-shot", "rq3": "few-shot-2"}
        assert regime_variant("rq2") is ZERO_SHOT
        assert regime_variant("rq3") is FEW_SHOT_2
        # The matrix module resolves regimes through this same table.
        assert matrix.regime_variant is regime_variant

    def test_variant_names_pass_through(self):
        assert regime_variant("no-hint") is NO_HINT
        assert regime_variant("few-shot-4").shots == 4

    def test_unknown_regime_raises(self):
        with pytest.raises(ValueError, match="unknown matrix regime"):
            regime_variant("rq9")

    def test_duplicate_regimes_rejected(self, dataset):
        with pytest.raises(ValueError, match="duplicate"):
            run_matrix(
                [get_model(GOLDEN_CONFIG)],
                [get_gpu("V100")],
                rqs=("rq2", "zero-shot"),
                limit=2,
            )

    def test_classification_items_variant_path(self, dataset, monkeypatch):
        """run_rq2/run_rq3 query exactly the work units of their variant."""
        samples = dataset.balanced[:3]
        built = []
        real_run_queries = rq23.run_queries

        def spy(model, items, **kwargs):
            built.append(items)
            return real_run_queries(model, items, **kwargs)

        monkeypatch.setattr(rq23, "run_queries", spy)
        model = get_model(GOLDEN_CONFIG)
        for run, name in ((run_rq2, "zero-shot"), (run_rq3, "few-shot-2")):
            built.clear()
            result = run(model, samples, engine=EvalEngine(store=None))
            assert built == [classification_items(samples, variant=name)]
            assert result.variant is get_variant(name)
