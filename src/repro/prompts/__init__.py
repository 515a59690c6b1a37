"""Prompt construction (paper Figures 3 and 4)."""

from repro.prompts.classify import ClassifyPrompt, SYSTEM_HEADER, build_classify_prompt
from repro.prompts.examples import (
    EXAMPLE_VARIANT,
    PSEUDO_EXAMPLES,
    CodeExample,
    real_example_sequence,
    real_examples,
    real_examples_block,
)
from repro.prompts.variants import (
    FEW_SHOT_2,
    MAX_FEW_SHOT,
    NO_HINT,
    PROBLEM_HINT,
    ZERO_SHOT,
    PromptVariant,
    all_variants,
    few_shot_variant,
    get_variant,
    register_variant,
)
from repro.prompts.rq1 import (
    NUM_ROOFLINES,
    SHOT_COUNTS,
    RooflineQuestion,
    build_rq1_prompt,
    generate_question,
    generate_rq1_questions,
)

__all__ = [
    "ClassifyPrompt",
    "SYSTEM_HEADER",
    "build_classify_prompt",
    "PSEUDO_EXAMPLES",
    "EXAMPLE_VARIANT",
    "CodeExample",
    "real_example_sequence",
    "real_examples",
    "real_examples_block",
    "PromptVariant",
    "ZERO_SHOT",
    "FEW_SHOT_2",
    "NO_HINT",
    "PROBLEM_HINT",
    "MAX_FEW_SHOT",
    "all_variants",
    "few_shot_variant",
    "get_variant",
    "register_variant",
    "RooflineQuestion",
    "build_rq1_prompt",
    "generate_question",
    "generate_rq1_questions",
    "NUM_ROOFLINES",
    "SHOT_COUNTS",
]
