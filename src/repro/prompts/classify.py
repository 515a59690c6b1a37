"""RQ2/RQ3 classification prompt (paper Figure 4).

The system prompt declares the task and the response vocabulary; the user
portion carries the queried kernel's language, name, target-GPU hardware
bullet list, launch geometry, command line, and the program's concatenated
source. Which example block (and optional hint) precedes the task is
decided by a :class:`~repro.prompts.variants.PromptVariant` — ``zero-shot``
is the RQ2 form, ``few-shot-2`` the RQ3 form, and further registered
variants span the prompt-ablation axis. The variant is the only way to
name a prompt form.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataset.records import Sample
from repro.prompts.variants import ZERO_SHOT, PromptVariant, get_variant
from repro.roofline.hardware import GpuSpec, default_gpu

SYSTEM_HEADER = """You are a GPU performance analysis expert that classifies kernels into
Arithmetic Intensity Roofline model categories based on their source code
characteristics. Your task is to provide one of the following performance
boundedness classifications: Compute or Bandwidth.

A kernel is considered Compute bound if its performance is primarily
limited by the number of operations it performs, and Bandwidth bound
if its performance is primarily limited by the rate at which data can be
moved between memory and processing units.

Provide only one word as your response, chosen from the set:
['Compute', 'Bandwidth'].
"""


@dataclass(frozen=True)
class ClassifyPrompt:
    """A fully-assembled classification prompt plus its metadata."""

    text: str
    sample_uid: str
    variant: PromptVariant


def build_classify_prompt(
    sample: Sample,
    *,
    variant: str | PromptVariant = ZERO_SHOT,
    gpu: GpuSpec | None = None,
) -> ClassifyPrompt:
    """Assemble the Figure 4 prompt for one dataset sample.

    ``variant`` names a registered :class:`PromptVariant` (``zero-shot``,
    the default, is the RQ2 form; ``few-shot-2`` the RQ3 form).
    """
    resolved = get_variant(variant)
    gpu = gpu or default_gpu()
    lang = sample.language.display
    bx, by, bz = sample.block
    gx, gy, gz = sample.grid
    # Seed variants must keep producing the exact pre-registry bytes (the
    # response cache is keyed on them): SYSTEM_HEADER and each optional
    # section end in "\n" already, so a plain join reproduces the old
    # f"{SYSTEM_HEADER}\n{examples}\n" layout.
    sections = [SYSTEM_HEADER]
    examples = resolved.examples_block(sample.language)
    if examples:
        sections.append(examples)
    if resolved.hint:
        sections.append(resolved.hint)
    body = (
        "\n".join(sections) + "\n"
        "Now, analyze the following source codes for the requested kernel of the\n"
        "specified hardware.\n\n"
        f"Classify the {lang} kernel called {sample.kernel_name} as Bandwidth or\n"
        f"Compute bound. The system it will execute on is a {gpu.name} with:\n"
        f"{gpu.prompt_block()}\n\n"
        f"The block and grid sizes of the invoked kernel are ({bx},{by},{bz}) and "
        f"({gx},{gy},{gz}),\nrespectively. The executable running this kernel is "
        f"launched with the following\ncommand-line arguments: {sample.argv}.\n\n"
        f"Below is the source code of the requested {lang} kernel:\n\n"
        f"{sample.source}\n"
    )
    return ClassifyPrompt(text=body, sample_uid=sample.uid, variant=resolved)
