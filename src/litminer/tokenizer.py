"""Deterministic text normalization shared by indexing and phrase queries.

A token is a maximal run of letters and digits in the lowercased text.  ASCII
text skips the regex: a ``bytes.translate`` table lowercases ``A-Z`` and blanks
every byte but ``a-z0-9``, then ``split()`` takes the runs.  Below U+0080,
``\\w`` is exactly ``[A-Za-z0-9_]``, so both ways give the same tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import LitminerError

# Bump whenever tokenization rules change; stored in index files so a stale
# index is refused instead of silently answering with different semantics.
TOKENIZER_VERSION = 1

_TOKEN_RE = re.compile(r"[^\W_]+")
# Letters and digits (ASCII only) to their lowercase forms, other bytes to a space.
_ASCII_TOKEN_BYTES = bytes(b if bytes((b,)).isalnum() else 32 for b in bytes(range(256)).lower())
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


class InvalidPhraseError(LitminerError, ValueError):
    """Raised when a phrase contains no indexable tokens."""


def is_utf8(text: str) -> bool:
    """Whether UTF-8 can store ``text``, that is, it holds no surrogate code point.

    Python reads a byte that is not UTF-8 in an argument, a file name or an
    environment variable as a lone surrogate, and JSON may spell one.
    """
    return text.isascii() or _SURROGATE_RE.search(text) is None


def normalize_tokenize(text: str) -> list[str]:
    """The tokens of ``text`` in order: a token's position is its list index."""
    if text.isascii():
        return text.encode().translate(_ASCII_TOKEN_BYTES).decode().split()
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class TokenizedPhrase:
    """A normalized, non-empty token sequence used for exact phrase matching."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise InvalidPhraseError("phrase contains no tokens")
        for tok in self.tokens:
            if not isinstance(tok, str) or _TOKEN_RE.fullmatch(tok) is None or tok != tok.lower():
                raise ValueError(f"token {tok!r} is not in normalized form")

    @classmethod
    def from_text(cls, text: str) -> "TokenizedPhrase":
        tokens = tuple(normalize_tokenize(text))
        if not tokens:
            raise InvalidPhraseError(f"phrase {text!r} contains no indexable tokens")
        return cls(tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        return " ".join(self.tokens)
