"""First-class prompt variants for the classification experiments.

The paper compares exactly two prompt forms — RQ2's zero-shot prompt with
pseudo-code examples and RQ3's two-shot prompt with real code examples.
To also span a prompt-*ablation* axis (how much does the example block,
the hint, or the shot count actually matter?), every prompt form is a
named :class:`PromptVariant`, collected in a process-wide registry:

* ``zero-shot`` — the RQ2 form (pseudo-code examples).
* ``few-shot-2`` — the RQ3 form (two real code examples in the queried
  language).
* ``no-hint`` — the bare task statement with no example block at all.
* ``problem-hint`` — pseudo-code examples plus an explicit roofline
  reasoning hint (estimate AI, compare against the balance point).
* ``few-shot-K`` — K real code examples (K is parsed dynamically, e.g.
  ``few-shot-1`` / ``few-shot-4``; shots are drawn from held-out program
  variants that never enter the evaluation dataset).

Response caches are keyed on prompt bytes, so the two seed variants'
bytes never change (golden digests in tests/test_prompt_variants.py pin
them) and existing caches keep replaying. Which variant answers which
research question is :data:`repro.eval.rq23.REGIME_VARIANTS`. The
registry is append-only and name-keyed; :func:`get_variant` resolves
names (materialising ``few-shot-K`` on demand).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.prompts.examples import PSEUDO_EXAMPLES, real_examples_block
from repro.types import Language

#: Ceiling on few-shot example counts: each shot pair profiles two held-out
#: program variants, so an unbounded K would quietly turn prompt building
#: into a profiling sweep.
MAX_FEW_SHOT = 8

#: The roofline reasoning hint carried by the ``problem-hint`` variant.
PROBLEM_HINT_BLOCK = """Hint: estimate the kernel's arithmetic intensity (operations performed
per byte of memory traffic) from its loop body, then compare it against
the balance point implied by the hardware's peak compute rate and memory
bandwidth. Kernels whose intensity falls below the balance point are
Bandwidth bound; kernels above it are Compute bound.
"""

_EXAMPLE_MODES = ("pseudo", "real", "none")

_FEW_SHOT_NAME = re.compile(r"^few-shot-([1-9][0-9]*)$")


@dataclass(frozen=True)
class PromptVariant:
    """One point on the prompt-ablation axis.

    ``examples`` selects the example block: ``"pseudo"`` (the paper's
    Figure 4 pseudo-code shots), ``"real"`` (``shots`` held-out real code
    examples in the queried language), or ``"none"``. ``hint`` is an
    optional guidance block inserted after the examples (``""`` = none).
    """

    name: str
    examples: str
    shots: int = 0
    hint: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("prompt variant needs a name")
        if self.examples not in _EXAMPLE_MODES:
            raise ValueError(
                f"examples must be one of {_EXAMPLE_MODES}, "
                f"got {self.examples!r}"
            )
        if self.examples == "real":
            if not 1 <= self.shots <= MAX_FEW_SHOT:
                raise ValueError(
                    f"real-example variants need 1..{MAX_FEW_SHOT} shots, "
                    f"got {self.shots}"
                )
        elif self.shots:
            raise ValueError(
                f"shots={self.shots} is only meaningful with examples='real'"
            )

    def examples_block(self, language: Language) -> str:
        """The example section for one queried language ("" = no block)."""
        if self.examples == "pseudo":
            return PSEUDO_EXAMPLES
        if self.examples == "real":
            return real_examples_block(language, shots=self.shots)
        return ""


def few_shot_variant(shots: int) -> PromptVariant:
    """The canonical K-real-example variant (``few-shot-K``)."""
    return PromptVariant(name=f"few-shot-{shots}", examples="real", shots=shots)


#: The two seed variants (the paper's RQ2 and RQ3 forms); their prompt
#: bytes are pinned, which keeps existing response caches warm.
ZERO_SHOT = PromptVariant(name="zero-shot", examples="pseudo")
FEW_SHOT_2 = few_shot_variant(2)

#: Ablation variants beyond the paper's two regimes.
NO_HINT = PromptVariant(name="no-hint", examples="none")
PROBLEM_HINT = PromptVariant(
    name="problem-hint", examples="pseudo", hint=PROBLEM_HINT_BLOCK
)

_REGISTRY: dict[str, PromptVariant] = {}


def register_variant(variant: PromptVariant) -> PromptVariant:
    """Add a variant to the registry (idempotent for identical definitions).

    Re-registering a name with a *different* definition raises — silently
    shadowing a variant would corrupt cache-key expectations downstream.
    """
    existing = _REGISTRY.get(variant.name)
    if existing is not None and existing != variant:
        raise ValueError(
            f"prompt variant {variant.name!r} is already registered with a "
            "different definition"
        )
    _REGISTRY[variant.name] = variant
    return variant


for _v in (ZERO_SHOT, FEW_SHOT_2, NO_HINT, PROBLEM_HINT, few_shot_variant(1),
           few_shot_variant(4)):
    register_variant(_v)


def get_variant(name: str | PromptVariant) -> PromptVariant:
    """Resolve a variant by name (``few-shot-K`` materialises on demand)."""
    if isinstance(name, PromptVariant):
        return name
    hit = _REGISTRY.get(name)
    if hit is not None:
        return hit
    match = _FEW_SHOT_NAME.match(name)
    if match and int(match.group(1)) <= MAX_FEW_SHOT:
        return register_variant(few_shot_variant(int(match.group(1))))
    raise KeyError(
        f"unknown prompt variant {name!r}; registered: "
        f"{', '.join(sorted(_REGISTRY))}"
    )


def all_variants() -> tuple[PromptVariant, ...]:
    """Every registered variant, in registration order."""
    return tuple(_REGISTRY.values())
