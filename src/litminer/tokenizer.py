"""Deterministic text normalization shared by indexing and phrase queries."""

from __future__ import annotations

import re
from dataclasses import dataclass

# Bump whenever tokenization rules change; stored in index files so a stale
# index is refused instead of silently answering with different semantics.
TOKENIZER_VERSION = 1

# Maximal runs of letters and digits; everything else separates tokens.
# \w minus underscore covers Unicode letters and digits.
_TOKEN_RE = re.compile(r"[^\W_]+")


class InvalidPhraseError(ValueError):
    """Raised when a phrase contains no indexable tokens."""


def normalize_tokenize(text: str) -> list[str]:
    """Split ``text`` into its tokens, in order of appearance.

    The text is lowercased first, then tokens are taken as maximal runs of
    letters and digits.  A token's position is its index in the list, so
    phrase queries can test adjacency.
    """
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
