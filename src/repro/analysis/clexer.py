"""Lexer for C/CUDA/OpenMP source text.

The static analyser works from *source text only* (like the paper's LLMs):
this module produces a token stream with comments and string literals
stripped, preprocessor lines captured separately, and positions preserved
for error reporting.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator


class TokKind(str, enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    PUNCT = "punct"
    PRAGMA = "pragma"


@dataclass(frozen=True)
class Token:
    kind: TokKind
    text: str
    pos: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.value}, {self.text!r})"


_TOKEN_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<pragma>\#[^\n]*)
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<char>'(?:\\.|[^'\\])')
  | (?P<number>
        0[xX][0-9a-fA-F]+[uUlL]*
      | (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[fFlLuU]*
    )
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct><<<|>>>|<<=|>>=|\.\.\.|->|\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<|>>|<=|>=|==|!=|&&|\|\||[+\-*/%&|^~!<>=?:;,.(){}\[\]])
    """,
    re.VERBOSE | re.DOTALL,
)


def lex(source: str) -> list[Token]:
    """Tokenize C-ish source. Unknown bytes are skipped (robustness over
    strictness: the analyser must not crash on odd input)."""
    out: list[Token] = []
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            pos += 1  # skip unrecognized byte
            continue
        kind = m.lastgroup
        text = m.group()
        if kind == "comment":
            pos = m.end()
            continue
        if kind == "pragma":
            out.append(Token(TokKind.PRAGMA, text, pos))
        elif kind == "string":
            out.append(Token(TokKind.STRING, text, pos))
        elif kind == "char":
            out.append(Token(TokKind.CHAR, text, pos))
        elif kind == "number":
            out.append(Token(TokKind.NUMBER, text, pos))
        elif kind == "ident":
            out.append(Token(TokKind.IDENT, text, pos))
        else:
            out.append(Token(TokKind.PUNCT, text, pos))
        pos = m.end()
    return out


# One pass over the text: a comment (an unterminated ``/*`` runs to the
# end) is dropped; a string literal is kept verbatim, so comment markers
# inside it survive. Strings span newlines, a backslash escapes the next
# character, an unterminated string runs to the end, and ``'`` is an
# ordinary character (so ``'"'`` opens a string).
_COMMENT_OR_STRING_RE = re.compile(
    r"""//[^\n]*|/\*(?:.*?\*/|.*)|(?P<string>"(?:\\.|[^"\\])*"?)""",
    re.DOTALL,
)


def strip_comments(source: str) -> str:
    """Remove // and /* */ comments (string-literal aware)."""
    return _COMMENT_OR_STRING_RE.sub(lambda m: m.group("string") or "", source)


def number_value(text: str) -> float:
    """Parse a numeric literal's value (suffixes stripped)."""
    t = text.rstrip("fFlLuU")
    if t.lower().startswith("0x"):
        return float(int(t, 16))
    return float(t)


def number_is_float(text: str) -> bool:
    """True when the literal is floating point."""
    if text.lower().startswith("0x"):
        return False
    return "." in text or "e" in text.lower() or text.endswith(("f", "F"))


def number_is_f32(text: str) -> bool:
    """True when the literal is single precision (``f`` suffix)."""
    return number_is_float(text) and text.endswith(("f", "F"))
