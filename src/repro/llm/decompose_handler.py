"""Emulator handlers for the question-decomposition protocol.

Models the behavioural hypotheses behind the paper's future-work direction:
focused sub-tasks keep a model's attention on one thing at a time, so

* spec extraction (step 1) is near-trivial — errors are rare decimal slips;
* work estimation (step 2) derails less often than the holistic zero-shot
  read (the kernel is the *only* thing in the prompt), but its quality is
  still bounded by the model's code-reading ability (``analysis_depth``);
* the final verdict (step 3) is RQ1-grade arithmetic over an explicit rule,
  which every model in Table 1 already does at 90-100%.

None of this changes the calibrated RQ1-RQ3 behaviour; it only adds the new
prompt shapes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from repro.llm.config import ModelConfig
from repro.types import Boundedness, Language
from repro.util.hashing import stable_hash_hex
from repro.util.rng import RngStream

STEP1_MARKER = "Report the hardware limits"
STEP2_MARKER = "Estimate the per-thread work"
STEP3_MARKER = "Apply the roofline verdict"

_SPECS_RE = re.compile(
    r"peak single-precision performance of\s+([\d.]+)\s*GFLOP/s.*?"
    r"peak double-precision performance of\s+([\d.]+)\s*GFLOP/s.*?"
    r"peak integer performance of\s+([\d.]+)\s*GINTOP/s.*?"
    r"max bandwidth of\s+([\d.]+)\s*GB/s",
    re.DOTALL,
)
_KERNEL_RE = re.compile(r"the (CUDA|OMP) kernel called ([A-Za-z_][A-Za-z_0-9]*)")
_ARGV_RE = re.compile(r"launched as:\s*(.+?)\.\s*$", re.MULTILINE)
_SOURCE_RE = re.compile(
    r"Below is the source code of the (?:CUDA|OMP) program:\s*\n"
)
_STEP3_WORK_RE = re.compile(
    r"([\d.eE+-]+) single-precision FLOPs, ([\d.eE+-]+) double-precision "
    r"FLOPs, and ([\d.eE+-]+) integer operations while moving "
    r"([\d.eE+-]+) bytes",
)
_STEP3_PEAKS_RE = re.compile(
    r"([\d.eE+-]+) GFLOP/s single-precision, ([\d.eE+-]+) GFLOP/s "
    r"double-precision, ([\d.eE+-]+) GINTOP/s integer, with "
    r"([\d.eE+-]+) GB/s",
)


def handles(prompt: str) -> bool:
    return any(m in prompt for m in (STEP1_MARKER, STEP2_MARKER, STEP3_MARKER))


def answer(prompt: str, config: ModelConfig) -> str:
    """Dispatch a decomposition sub-prompt to its handler."""
    if STEP1_MARKER in prompt:
        return _answer_step1(prompt, config)
    if STEP2_MARKER in prompt:
        return _answer_step2(prompt, config)
    if STEP3_MARKER in prompt:
        return _answer_step3(prompt, config)
    raise ValueError("not a decomposition prompt")


# -- step 1: spec extraction ---------------------------------------------------

def _answer_step1(prompt: str, config: ModelConfig) -> str:
    m = _SPECS_RE.search(prompt)
    if m is None:
        return "SP=0 DP=0 INT=0 BW=0"
    values = [float(g) for g in m.groups()]
    rng = RngStream("llm", config.name, "extract", stable_hash_hex(prompt))
    if not config.reasoning:
        # Rare decimal slip: one value off by a factor of ten.
        slip_p = min(0.06, config.base_fail * 0.05)
        for i in range(4):
            if rng.child(i).bernoulli(slip_p):
                values[i] *= 10.0 if rng.child(i, "dir").bernoulli(0.5) else 0.1
    return (
        f"SP={values[0]:.4g} DP={values[1]:.4g} "
        f"INT={values[2]:.4g} BW={values[3]:.4g}"
    )


# -- step 2: per-thread work estimation ---------------------------------------

def _answer_step2(prompt: str, config: ModelConfig) -> str:
    from repro.llm.promptio import estimate_prompt_tokens
    from repro.llm.reasoner import static_estimate

    km = _KERNEL_RE.search(prompt)
    sm = _SOURCE_RE.search(prompt)
    am = _ARGV_RE.search(prompt)
    if km is None or sm is None:
        return "SP_OPS=1 DP_OPS=0 INT_OPS=1 BYTES=8"
    language = Language.CUDA if km.group(1) == "CUDA" else Language.OMP
    kernel_name = km.group(2)
    source = prompt[sm.end():]
    argv = am.group(1).strip() if am else ""
    argv_values: dict[str, int] = {}
    toks = argv.split()
    for t, v in zip(toks, toks[1:]):
        if t.startswith("--") and v.lstrip("-").isdigit():
            argv_values[t[2:]] = int(v)

    code_digest = stable_hash_hex(source, kernel_name)
    code_rng = RngStream("llm", config.name, "decompose-estimate", code_digest)
    tokens = estimate_prompt_tokens(prompt)
    # Focused sub-task: the derail probability is a fraction of the
    # holistic zero-shot read's.
    p_derail = min(0.95, 0.6 * config.fail_probability(tokens))
    derailed = code_rng.child("attention").uniform() < p_derail

    # Crude skim estimates: counts keyed on surface features only. These are
    # what a model produces when it cannot genuinely trace the code.
    math_fns = len(re.findall(r"\b(?:sqrtf?|expf?|logf?|sinf?|cosf?|tanhf?)\s*\(", source))
    loops = source.count("for (")
    arrays = len(set(re.findall(r"([A-Za-z_][A-Za-z_0-9]*)\s*\[", source)))
    u = code_rng.child("crude")
    crude = {
        "sp": max(1.0, (2.0 + 4.0 * math_fns) * (4.0 ** min(loops, 3)) * u.uniform(0.2, 5.0)),
        "dp": max(0.0, (1.0 if "double" in source else 0.0) * (2.0 + 2.0 * math_fns) * u.uniform(0.3, 3.0)),
        "int": max(1.0, (3.0 + loops * 4.0) * u.uniform(0.3, 3.0)),
        "bytes": max(4.0, 4.0 * arrays * u.uniform(0.5, 4.0)),
    }

    est = None
    if not derailed:
        est = static_estimate(source, kernel_name, language, argv_values, code_digest)

    if est is None:
        vals = crude
    else:
        # Decomposition forces the sub-task, but cannot conjure reading
        # ability: the reported numbers interpolate (log-space) between the
        # genuine trace and the crude skim by the model's analysis depth,
        # then carry focused-read noise (half the holistic sigma).
        depth = config.analysis_depth
        deep = {
            "sp": est.ops_sp,
            "dp": est.ops_dp,
            "int": est.ops_int,
            "bytes": est.bytes_per_thread,
        }
        sigma = config.deep_noise * 0.5 * (1.0 + est.guess_fraction * 0.5)
        noise = code_rng.child("noise")
        vals = {}
        for key in ("sp", "dp", "int", "bytes"):
            d, c = deep[key], crude[key]
            if d <= 0.0 and c <= 0.0:
                vals[key] = 0.0
                continue
            d = max(d, 1e-3)
            c = max(c, 1e-3)
            blended = math.exp(depth * math.log(d) + (1.0 - depth) * math.log(c))
            vals[key] = blended * math.exp(noise.child(key).normal(0.0, sigma) * 0.69)
        if deep["dp"] <= 0.0 and crude["dp"] <= 0.0:
            vals["dp"] = 0.0

    return (
        f"SP_OPS={vals['sp']:.4g} DP_OPS={vals['dp']:.4g} "
        f"INT_OPS={vals['int']:.4g} BYTES={max(0.5, vals['bytes']):.4g}"
    )


# -- step 3: the verdict --------------------------------------------------------

def _answer_step3(prompt: str, config: ModelConfig) -> str:
    wm = _STEP3_WORK_RE.search(prompt)
    pm = _STEP3_PEAKS_RE.search(prompt)
    if wm is None or pm is None:
        return "Bandwidth"
    sp_ops, dp_ops, int_ops, byts = (float(g) for g in wm.groups())
    sp_peak, dp_peak, int_peak, bw = (float(g) for g in pm.groups())
    if byts <= 0 or bw <= 0:
        return "Bandwidth"
    compute_bound = any(
        peak > 0 and ops / byts >= peak / bw
        for ops, peak in ((sp_ops, sp_peak), (dp_ops, dp_peak), (int_ops, int_peak))
    )
    verdict = Boundedness.COMPUTE if compute_bound else Boundedness.BANDWIDTH
    # The explicit rule in the prompt scaffolds the arithmetic like CoT.
    rng = RngStream("llm", config.name, "verdict", stable_hash_hex(prompt))
    if rng.bernoulli(config.arithmetic_slip_cot):
        verdict = verdict.other
    return verdict.word
