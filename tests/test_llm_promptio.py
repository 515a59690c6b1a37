"""Tests for prompt construction and the emulator's prompt parsing.

The round trip (build prompt → parse prompt) must recover every structured
fact: this is the contract between repro.prompts and repro.llm.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.promptio import (
    ClassifyQuery,
    estimate_prompt_tokens,
    parse_classify_query,
    parse_roofline_query,
)
from repro.prompts import (
    build_classify_prompt,
    build_rq1_prompt,
    generate_question,
    generate_rq1_questions,
)
from repro.prompts.examples import real_examples
from repro.roofline import RTX_3080
from repro.types import Boundedness, Language, OpClass
from repro.util.rng import RngStream


class TestRq1Prompts:
    def test_question_generation_respects_label(self):
        rng = RngStream("t")
        for want in (Boundedness.BANDWIDTH, Boundedness.COMPUTE):
            for i in range(20):
                q = generate_question(rng.child(i, want.value), force_label=want)
                assert q.truth is want

    def test_workload_is_balanced(self):
        qs = generate_rq1_questions(50)
        assert len(qs) == 100
        cb = sum(1 for q in qs if q.truth is Boundedness.COMPUTE)
        assert cb == 50

    def test_prompt_contains_question_values(self):
        q = generate_question(RngStream("x"))
        prompt = build_rq1_prompt(q, shots=2)
        assert f"{q.ai:.2f} FLOP/Byte" in prompt
        assert "Answer:" in prompt

    def test_cot_examples_marked(self):
        q = generate_question(RngStream("x"))
        plain = build_rq1_prompt(q, shots=2, chain_of_thought=False)
        cot = build_rq1_prompt(q, shots=4, chain_of_thought=True)
        assert "Thought:" not in plain
        assert "Thought:" in cot
        assert "balance point" in cot

    def test_minimum_two_shots(self):
        q = generate_question(RngStream("x"))
        with pytest.raises(ValueError):
            build_rq1_prompt(q, shots=1)

    def test_parse_recovers_final_question(self):
        q = generate_question(RngStream("y"))
        prompt = build_rq1_prompt(q, shots=8, chain_of_thought=True)
        parsed = parse_roofline_query(prompt)
        assert parsed is not None
        assert parsed.ai == pytest.approx(q.ai, abs=0.01)
        assert parsed.bandwidth_gbs == pytest.approx(q.bandwidth_gbs, abs=0.1)
        assert parsed.peak_gflops == pytest.approx(q.peak_gflops, abs=0.01)
        assert parsed.num_examples == 8
        assert parsed.has_chain_of_thought_examples

    def test_parse_rejects_other_text(self):
        assert parse_roofline_query("write me a poem about GPUs") is None


class TestClassifyPrompts:
    def test_prompt_structure(self, balanced_samples):
        s = balanced_samples[0]
        p = build_classify_prompt(s)
        assert "GPU performance analysis expert" in p.text
        assert f"kernel called {s.kernel_name}" in p.text
        assert s.argv in p.text
        assert s.source in p.text
        assert "['Compute', 'Bandwidth']" in p.text

    def test_zero_shot_uses_pseudo_examples(self, balanced_samples):
        p = build_classify_prompt(balanced_samples[0])
        assert "load_data(large_array)" in p.text

    def test_few_shot_uses_real_examples(self, balanced_samples):
        s = balanced_samples[0]
        p = build_classify_prompt(s, variant="few-shot-2")
        assert "load_data(large_array)" not in p.text
        assert f"Kernel Source Code ({s.language.display})" in p.text

    def test_parse_roundtrip(self, balanced_samples):
        for s in balanced_samples[:25]:
            prompt = build_classify_prompt(s).text
            q = parse_classify_query(prompt)
            assert q is not None, s.uid
            assert q.kernel_name == s.kernel_name
            assert q.language is s.language
            assert q.argv == s.argv
            assert q.block == s.block
            assert q.grid == s.grid
            assert q.sp_peak == pytest.approx(RTX_3080.sp_peak_gflops, abs=0.1)
            assert q.bandwidth == pytest.approx(RTX_3080.bandwidth_gbs, abs=0.1)
            assert s.kernel_name in q.source

    def test_parse_detects_real_examples(self, balanced_samples):
        s = balanced_samples[0]
        q0 = parse_classify_query(build_classify_prompt(s).text)
        q3 = parse_classify_query(
            build_classify_prompt(s, variant="few-shot-2").text
        )
        assert not q0.has_real_examples
        assert q3.has_real_examples

    def test_argv_values(self, balanced_samples):
        s = balanced_samples[0]
        q = parse_classify_query(build_classify_prompt(s).text)
        vals = q.argv_values()
        assert vals  # at least one flag
        for name, v in vals.items():
            assert f"--{name} {v}" in s.argv

    def test_balance_points(self, balanced_samples):
        q = parse_classify_query(build_classify_prompt(balanced_samples[0]).text)
        bp = q.balance_points()
        expected = RTX_3080.rooflines().balance_points()
        for oc in OpClass:
            assert bp[oc] == pytest.approx(expected[oc], rel=0.01)

    def test_parse_rejects_other_text(self):
        assert parse_classify_query("please summarize this paper") is None


class TestRealExamples:
    @pytest.mark.parametrize("language", [Language.CUDA, Language.OMP])
    def test_one_of_each_label(self, language):
        bb, cb = real_examples(language)
        assert bb.label is Boundedness.BANDWIDTH
        assert cb.label is Boundedness.COMPUTE
        assert bb.language is language

    def test_examples_not_in_dataset(self, balanced_samples):
        example_names = set()
        for language in (Language.CUDA, Language.OMP):
            for ex in real_examples(language):
                example_names.add(ex.name)
        dataset_names = {s.program_name for s in balanced_samples}
        assert not (example_names & dataset_names)


class TestTokenEstimate:
    def test_monotone(self):
        assert estimate_prompt_tokens("ab" * 100) > estimate_prompt_tokens("ab")

    def test_minimum_one(self):
        assert estimate_prompt_tokens("") == 1


# -- parser differential ------------------------------------------------------
#
# The classify parser anchors each field search at the first ``str.find`` of
# its pattern's literal prefix. That must be exactly the whole-prompt regex
# search it replaced, kept here verbatim as the reference.

_REF_CLASSIFY_RE = re.compile(
    r"Classify the (CUDA|OMP) kernel called ([A-Za-z_][A-Za-z_0-9]*)"
)
_REF_GPU_RE = re.compile(r"execute on is a (.+?) with:")
_REF_SP_RE = re.compile(r"peak single-precision performance of\s+([\d.]+)\s*GFLOP/s")
_REF_DP_RE = re.compile(r"peak double-precision performance of\s+([\d.]+)\s*GFLOP/s")
_REF_INT_RE = re.compile(r"peak integer performance of\s+([\d.]+)\s*GINTOP/s")
_REF_BW_RE = re.compile(r"max bandwidth of\s+([\d.]+)\s*GB/s")
_REF_DIMS_RE = re.compile(
    r"block and grid sizes of the invoked kernel are "
    r"\((\d+),(\d+),(\d+)\) and \((\d+),(\d+),(\d+)\)"
)
_REF_ARGV_RE = re.compile(r"command-line arguments:\s*(.+?)\.\s*$", re.MULTILINE)
_REF_SOURCE_RE = re.compile(
    r"Below is the source code of the requested (?:CUDA|OMP) kernel:\s*\n"
)


def reference_parse_classify_query(prompt: str) -> ClassifyQuery | None:
    """The whole-prompt regex parser, as it was before anchoring."""
    m = _REF_CLASSIFY_RE.search(prompt)
    if m is None:
        return None
    lang = Language.CUDA if m.group(1) == "CUDA" else Language.OMP
    kernel_name = m.group(2)

    def grab(rx: re.Pattern, default: float = 0.0) -> float:
        mm = rx.search(prompt)
        return float(mm.group(1)) if mm else default

    gm = _REF_GPU_RE.search(prompt)
    dm = _REF_DIMS_RE.search(prompt)
    am = _REF_ARGV_RE.search(prompt)
    sm = _REF_SOURCE_RE.search(prompt)
    if sm is None:
        return None
    block = tuple(int(dm.group(i)) for i in (1, 2, 3)) if dm else (256, 1, 1)
    grid = tuple(int(dm.group(i)) for i in (4, 5, 6)) if dm else (1, 1, 1)
    return ClassifyQuery(
        language=lang,
        kernel_name=kernel_name,
        gpu_name=gm.group(1).strip() if gm else "unknown GPU",
        sp_peak=grab(_REF_SP_RE, 1.0),
        dp_peak=grab(_REF_DP_RE, 1.0),
        int_peak=grab(_REF_INT_RE, 1.0),
        bandwidth=grab(_REF_BW_RE, 1.0),
        block=block,
        grid=grid,
        argv=am.group(1).strip() if am else "",
        source=prompt[sm.end():],
        has_real_examples="Kernel Source Code (CUDA):" in prompt
        or "Kernel Source Code (OMP):" in prompt,
    )


def assert_same_parse(prompt: str) -> ClassifyQuery | None:
    got = parse_classify_query(prompt)
    assert got == reference_parse_classify_query(prompt)
    return got


#: An example block that repeats every header phrase with other values; the
#: first match in the prompt is the one that counts.
_FAKE_HEADER = """Example 0:
Classify the OMP kernel called decoy_kernel as Bandwidth or
Compute bound. The system it will execute on is a Decoy GPU 9000 with:
- peak single-precision performance of 1.5 GFLOP/s
- peak double-precision performance of 2.5 GFLOP/s
- peak integer performance of 3.5 GINTOP/s
- max bandwidth of 4.5 GB/s
The block and grid sizes of the invoked kernel are (7,8,9) and (10,11,12),
respectively. The executable is launched with the following
command-line arguments: ./decoy --n 3.
Below is the source code of the requested OMP kernel:
void decoy_kernel() {}
Kernel Source Code (OMP):
Response: Bandwidth

"""

#: Prefix-only decoys: each field's literal prefix, with text after it that
#: its pattern rejects, so the search must move on to a later occurrence.
_DECOY_PREFIXES = """Example 0:
Classify the Fortran kernel called nothing. The system will
execute on is a mystery
- peak single-precision performance of many GFLOP/s
- peak double-precision performance of 2.5 TFLOP/s
- peak integer performance of lots GINTOP/s
- max bandwidth of plenty GB/s
block and grid sizes of the invoked kernel are (a,b,c) and (1,2,3)
command-line arguments: none
Below is the source code of the requested Fortran kernel:
Kernel Source Code (simplified):
Kernel Source Code (Fortran):

"""

#: The smallest prompt tail that parses, for the fragment soup to surround.
_MINI_HEADER = (
    "Classify the CUDA kernel called k_0 as Bandwidth or\n"
    "Below is the source code of the requested CUDA kernel:\n"
)

_TASK_MARK = "Now, analyze the following source codes"

_FRAGMENTS = (
    "Classify the ", "CUDA", "OMP", " kernel called ", "k_1", "execute on is a ",
    "GPU X", " with:", "peak single-precision performance of",
    "peak double-precision performance of", "peak integer performance of",
    "max bandwidth of", " 12.5", " 3", " GFLOP/s", " GINTOP/s", " GB/s",
    "block and grid sizes of the invoked kernel are ", "(1,2,3)", " and ",
    "(4,5,6)", "command-line arguments:", " ./p --n 5", ".", "\n", " ",
    "Below is the source code of the requested ", " kernel:", "Kernel Source Code (",
    "):", "—", "x",
)


class TestParseDifferential:
    def test_every_variant_gpu_and_kernel(self, balanced_samples):
        from repro.prompts.variants import all_variants
        from repro.roofline.hardware import GPU_DATABASE

        parsed = 0
        for variant in all_variants():
            for gpu in GPU_DATABASE.values():
                for s in balanced_samples[:12]:
                    prompt = build_classify_prompt(s, variant=variant, gpu=gpu).text
                    q = assert_same_parse(prompt)
                    assert q is not None and q.gpu_name == gpu.name
                    parsed += 1
        assert parsed == len(all_variants()) * len(GPU_DATABASE) * 12

    @pytest.mark.parametrize("block", [_FAKE_HEADER, _DECOY_PREFIXES])
    def test_examples_repeating_header_phrases(self, balanced_samples, block):
        s = balanced_samples[0]
        for variant in ("zero-shot", "few-shot-2"):
            prompt = build_classify_prompt(s, variant=variant).text
            at = prompt.index(_TASK_MARK)
            doctored = prompt[:at] + block + prompt[at:]
            q = assert_same_parse(doctored)
            if block is _FAKE_HEADER:
                # The example's header comes first, so it wins.
                assert q.kernel_name == "decoy_kernel"
                assert q.gpu_name == "Decoy GPU 9000"
                assert (q.sp_peak, q.dp_peak, q.int_peak, q.bandwidth) == (
                    1.5, 2.5, 3.5, 4.5
                )
                assert (q.block, q.grid) == ((7, 8, 9), (10, 11, 12))
                assert q.argv == "./decoy --n 3"
                assert q.has_real_examples
            else:
                # Every decoy is skipped; the task header still answers.
                assert q == parse_classify_query(prompt)

    def test_other_prompts_parse_to_none(self, balanced_samples):
        from repro.prompts.decompose import (
            build_step1_prompt,
            build_step2_prompt,
            build_step3_prompt,
        )

        others = [
            build_rq1_prompt(q, shots=shots, chain_of_thought=cot)
            for q in generate_rq1_questions(2)
            for shots in (2, 4)
            for cot in (False, True)
        ]
        others += [build_step1_prompt(), build_step2_prompt(balanced_samples[0])]
        others.append(build_step3_prompt(
            sp_ops=1.0, dp_ops=0.0, int_ops=2.0, bytes_per_thread=8.0,
            sp_peak=100.0, dp_peak=50.0, int_peak=100.0, bandwidth=10.0,
        ))
        for prompt in others:
            assert parse_classify_query(prompt) is None
            assert reference_parse_classify_query(prompt) is None

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(_FRAGMENTS), max_size=40),
        st.booleans(),
        st.lists(st.sampled_from(_FRAGMENTS), max_size=40),
    )
    def test_random_fragment_soup(self, before, with_header, after):
        prompt = "".join(before) + (_MINI_HEADER if with_header else "") + "".join(after)
        q = assert_same_parse(prompt)
        if with_header:
            assert q is not None
