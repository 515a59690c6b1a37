"""Tests for the C lexer and kernel discovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    TokKind,
    find_kernel,
    find_kernels,
    first_kernel,
    lex,
    strip_comments,
)
from repro.analysis.clexer import number_is_f32, number_is_float, number_value
from repro.types import Language


class TestLex:
    def test_identifiers_and_numbers(self):
        toks = lex("int foo = 42;")
        kinds = [(t.kind, t.text) for t in toks]
        assert (TokKind.IDENT, "int") in kinds
        assert (TokKind.IDENT, "foo") in kinds
        assert (TokKind.NUMBER, "42") in kinds

    def test_float_literals(self):
        toks = lex("x = 2.5f + 1e-3;")
        nums = [t.text for t in toks if t.kind is TokKind.NUMBER]
        assert "2.5f" in nums
        assert "1e-3" in nums

    def test_hex_literals(self):
        toks = lex("mask = 0xFF00u;")
        assert any(t.text == "0xFF00u" for t in toks)

    def test_comments_stripped(self):
        toks = lex("a /* comment */ b // trailing\nc")
        idents = [t.text for t in toks if t.kind is TokKind.IDENT]
        assert idents == ["a", "b", "c"]

    def test_multichar_operators(self):
        toks = lex("a <<= b >> c <= d == e && f")
        ops = [t.text for t in toks if t.kind is TokKind.PUNCT]
        assert "<<=" in ops and ">>" in ops and "<=" in ops
        assert "==" in ops and "&&" in ops

    def test_triple_angle_launch(self):
        toks = lex("k<<<grid, block>>>(a);")
        ops = [t.text for t in toks if t.kind is TokKind.PUNCT]
        assert "<<<" in ops and ">>>" in ops

    def test_strings_preserved(self):
        toks = lex('printf("hello %d\\n", x);')
        assert any(t.kind is TokKind.STRING for t in toks)

    def test_pragma_captured(self):
        toks = lex("#pragma omp target teams\nint x;")
        assert any(t.kind is TokKind.PRAGMA for t in toks)

    def test_garbage_bytes_skipped(self):
        toks = lex("a $ b")
        assert [t.text for t in toks if t.kind is TokKind.IDENT] == ["a", "b"]


class TestNumberHelpers:
    def test_values(self):
        assert number_value("42") == 42.0
        assert number_value("2.5f") == 2.5
        assert number_value("0x10") == 16.0

    def test_float_detection(self):
        assert number_is_float("2.5f")
        assert number_is_float("1e9")
        assert not number_is_float("42")
        assert not number_is_float("0x42")

    def test_f32_detection(self):
        assert number_is_f32("2.5f")
        assert not number_is_f32("2.5")


class TestStripComments:
    def test_line_comment(self):
        assert strip_comments("a // x\nb") == "a \nb"

    def test_block_comment(self):
        assert strip_comments("a /* x\ny */ b") == "a  b"

    def test_string_with_slashes_preserved(self):
        src = 'printf("// not a comment");'
        assert strip_comments(src) == src

    def test_unterminated_block(self):
        assert strip_comments("a /* never ends") == "a "

    @pytest.mark.parametrize(
        "src, expected",
        [
            # An unterminated string runs to the end.
            ('a "never ends // x', 'a "never ends // x'),
            # An escaped backslash closes the string; an escaped quote
            # stays inside it.
            (r'x = "\\"; // c', r'x = "\\"; '),
            (r'"a\"b" /* c */ d', r'"a\"b"  d'),
            # '"' is not a char literal: its quote opens a string.
            ("c = '\"'; // x\ny", "c = '\"'; // x\ny"),
            ('"tail \\', '"tail \\'),
            ("/*/ still comment */x", "x"),
            ("//*\nz", "\nz"),
        ],
    )
    def test_quirks(self, src, expected):
        assert strip_comments(src) == expected
        assert _reference_strip_comments(src) == expected

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet='/*"\\\'\nab', max_size=40))
    def test_matches_reference_loop(self, src):
        assert strip_comments(src) == _reference_strip_comments(src)

    def test_matches_reference_on_corpus_sources(self, mini_corpus):
        from repro.kernels.codegen import render_program

        for spec in mini_corpus.programs:
            src = render_program(spec).concatenated_source()
            assert strip_comments(src) == _reference_strip_comments(src)


def _reference_strip_comments(source: str) -> str:
    """The original character loop, kept as the differential oracle for the
    one-pass regex in :func:`strip_comments`."""
    out: list[str] = []
    i = 0
    n = len(source)
    while i < n:
        two = source[i : i + 2]
        if two == "//":
            j = source.find("\n", i)
            i = n if j == -1 else j
        elif two == "/*":
            j = source.find("*/", i + 2)
            i = n if j == -1 else j + 2
        elif source[i] == '"':
            j = i + 1
            while j < n and source[j] != '"':
                j += 2 if source[j] == "\\" else 1
            out.append(source[i : min(j + 1, n)])
            i = j + 1
        else:
            out.append(source[i])
            i += 1
    return "".join(out)


CUDA_SRC = """
__global__ void first_k(const float *x, float *y, int n)
{
  const int gx = blockIdx.x * blockDim.x + threadIdx.x;
  if (gx >= n) return;
  y[gx] = x[gx];
}

__global__ void second_k(float *z, int n)
{
  const int gx = blockIdx.x * blockDim.x + threadIdx.x;
  if (gx >= n) return;
  z[gx] = 0.0f;
}

int main() { return 0; }
"""

OMP_SRC = """
void offload_k(const float *x, float *y, int n)
{
  #pragma omp target teams distribute parallel for thread_limit(256)
  for (int gx = 0; gx < n; gx++) {
    y[gx] = x[gx];
  }
}

void helper(float *p) { p[0] = 1.0f; }
"""


class TestKernelDiscovery:
    def test_cuda_kernels_in_order(self):
        ks = find_kernels(CUDA_SRC, Language.CUDA)
        assert [k.name for k in ks] == ["first_k", "second_k"]

    def test_first_kernel(self):
        assert first_kernel(CUDA_SRC, Language.CUDA).name == "first_k"

    def test_find_by_name(self):
        k = find_kernel(CUDA_SRC, "second_k", Language.CUDA)
        assert "z[gx] = 0.0f" in k.body_text

    def test_missing_name_raises(self):
        with pytest.raises(KeyError):
            find_kernel(CUDA_SRC, "third_k", Language.CUDA)

    def test_params_text(self):
        k = find_kernel(CUDA_SRC, "first_k", Language.CUDA)
        assert "const float *x" in k.params_text

    def test_omp_kernels_require_target_pragma(self):
        ks = find_kernels(OMP_SRC, Language.OMP)
        assert [k.name for k in ks] == ["offload_k"]  # helper is not a kernel

    def test_no_kernels_raises(self):
        with pytest.raises(ValueError):
            first_kernel("int main() { return 0; }", Language.CUDA)

    def test_declaration_not_matched(self):
        src = "__global__ void declared_only(int n);\n" + CUDA_SRC
        ks = find_kernels(src, Language.CUDA)
        assert "declared_only" not in [k.name for k in ks]
