"""Prompt parsing — the emulator's "language understanding" front end.

The emulator receives exactly the prompt strings the paper's figures define
and must recover the structured facts from them (hardware numbers, the
queried kernel's name and language, argv, the code block, whether the shots
carry chain-of-thought). It never sees any structured side channel — all
information flows through the prompt text, as it would for a real API model.

Parsing runs once per completion, so it is kept cheap without changing what
it reads: each classify field is searched for only where its pattern's
literal prefix occurs, which yields exactly the first match in the prompt.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from repro.types import Language
from repro.util.hashing import stable_hash_hex


@dataclass(frozen=True)
class RooflineQuery:
    """A parsed RQ1 arithmetic question (the final question in the prompt)."""

    bandwidth_gbs: float
    peak_gflops: float
    ai: float
    has_chain_of_thought_examples: bool
    num_examples: int


@dataclass(frozen=True)
class ClassifyQuery:
    """A parsed RQ2/RQ3 classification request."""

    language: Language
    kernel_name: str
    gpu_name: str
    sp_peak: float
    dp_peak: float
    int_peak: float
    bandwidth: float
    block: tuple[int, int, int]
    grid: tuple[int, int, int]
    argv: str
    source: str
    has_real_examples: bool

    @cached_property
    def code_digest(self) -> str:
        """Digest of the code being read (source + kernel name), hashed once
        per query. It keys the analysis randomness (and so the draw memo)
        and the analysis memo of :mod:`repro.llm.reasoner`."""
        return stable_hash_hex(self.source, self.kernel_name)

    def argv_values(self) -> dict[str, int]:
        """Integer flag values recoverable from the command line."""
        out: dict[str, int] = {}
        toks = self.argv.split()
        for i, t in enumerate(toks):
            if t.startswith("--") and i + 1 < len(toks):
                try:
                    out[t[2:]] = int(toks[i + 1])
                except ValueError:
                    continue
        return out

    def balance_points(self) -> dict:
        from repro.types import OpClass

        return {
            OpClass.SP: self.sp_peak / self.bandwidth,
            OpClass.DP: self.dp_peak / self.bandwidth,
            OpClass.INT: self.int_peak / self.bandwidth,
        }


_QUESTION_RE = re.compile(
    r"max bandwidth of\s+([\d.]+)\s*GB/s.*?peak performance of\s+([\d.]+)\s*"
    r"GFLOP/s.*?Arithmetic Intensity of\s+([\d.]+)\s*FLOP/Byte",
    re.DOTALL,
)


def parse_roofline_query(prompt: str) -> RooflineQuery | None:
    """Parse an RQ1 prompt; None when the text is not an RQ1 question."""
    matches = _QUESTION_RE.findall(prompt)
    if not matches:
        return None
    # The unanswered question is the last one; earlier ones are examples.
    bw, peak, ai = (float(x) for x in matches[-1])
    return RooflineQuery(
        bandwidth_gbs=bw,
        peak_gflops=peak,
        ai=ai,
        has_chain_of_thought_examples="Thought:" in prompt,
        num_examples=max(0, len(matches) - 1),
    )


class _Field:
    """A prompt field's regex, tried only where the literal every match of
    it begins with occurs.

    ``str.find`` skips to that literal far faster than the regex engine's own
    scan (a few-shot prompt's examples put 9–18 kB before the task header),
    and the result is exactly ``rx.search(prompt)``: the first occurrence at
    which the pattern matches is the leftmost match.
    """

    __slots__ = ("prefix", "rx")

    def __init__(self, prefix: str, rest: str, flags: int = 0):
        self.prefix = prefix
        self.rx = re.compile(re.escape(prefix) + rest, flags)

    def search(self, prompt: str) -> re.Match | None:
        start = prompt.find(self.prefix)
        while start >= 0:
            m = self.rx.match(prompt, start)
            if m is not None:
                return m
            start = prompt.find(self.prefix, start + 1)
        return None


_CLASSIFY = _Field("Classify the ", r"(CUDA|OMP) kernel called ([A-Za-z_][A-Za-z_0-9]*)")
_GPU = _Field("execute on is a ", r"(.+?) with:")
_SP = _Field("peak single-precision performance of", r"\s+([\d.]+)\s*GFLOP/s")
_DP = _Field("peak double-precision performance of", r"\s+([\d.]+)\s*GFLOP/s")
_INT = _Field("peak integer performance of", r"\s+([\d.]+)\s*GINTOP/s")
_BW = _Field("max bandwidth of", r"\s+([\d.]+)\s*GB/s")
_DIMS = _Field(
    "block and grid sizes of the invoked kernel are (",
    r"(\d+),(\d+),(\d+)\) and \((\d+),(\d+),(\d+)\)",
)
_ARGV = _Field("command-line arguments:", r"\s*(.+?)\.\s*$", re.MULTILINE)
_SOURCE = _Field(
    "Below is the source code of the requested ", r"(?:CUDA|OMP) kernel:\s*\n"
)
# A real (few-shot) example's code header, in either language.
_EXAMPLE = _Field("Kernel Source Code (", r"(?:CUDA|OMP)\):")


def parse_classify_query(prompt: str) -> ClassifyQuery | None:
    """Parse a Figure 4 classification prompt; None when not one.

    Each field is the first match of its pattern anywhere in the prompt, so
    an example block that repeats a header phrase wins over the task header,
    as it always has.
    """
    m = _CLASSIFY.search(prompt)
    if m is None:
        return None
    sm = _SOURCE.search(prompt)
    if sm is None:
        return None
    lang = Language.CUDA if m.group(1) == "CUDA" else Language.OMP
    kernel_name = m.group(2)

    def grab(field: _Field, default: float = 0.0) -> float:
        mm = field.search(prompt)
        return float(mm.group(1)) if mm else default

    gm = _GPU.search(prompt)
    dm = _DIMS.search(prompt)
    am = _ARGV.search(prompt)
    block = tuple(int(dm.group(i)) for i in (1, 2, 3)) if dm else (256, 1, 1)
    grid = tuple(int(dm.group(i)) for i in (4, 5, 6)) if dm else (1, 1, 1)
    return ClassifyQuery(
        language=lang,
        kernel_name=kernel_name,
        gpu_name=gm.group(1).strip() if gm else "unknown GPU",
        sp_peak=grab(_SP, 1.0),
        dp_peak=grab(_DP, 1.0),
        int_peak=grab(_INT, 1.0),
        bandwidth=grab(_BW, 1.0),
        block=block,  # type: ignore[arg-type]
        grid=grid,  # type: ignore[arg-type]
        argv=am.group(1).strip() if am else "",
        source=prompt[sm.end():],
        has_real_examples=_EXAMPLE.search(prompt) is not None,
    )


def estimate_prompt_tokens(prompt: str) -> int:
    """Cheap deterministic token estimate used for attention modelling and
    usage accounting (≈3 chars per token on code-heavy prompts)."""
    return max(1, len(prompt) // 3)
