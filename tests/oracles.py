"""Slow independent reference implementations used to check the fast paths.

These deliberately avoid the package's numeric and index machinery: the
tail probability is exact rational arithmetic, and the counting oracle is
a linear scan over token sequences with no index at all.  For an index no
corpus produced, ``decode_postings`` reads its arrays back into documents
for the same kind of scan.
"""

from __future__ import annotations

from collections import defaultdict
from datetime import date
from fractions import Fraction
from math import comb

from litminer.index import Document
from litminer.tokenizer import normalize_tokenize


def hypergeom_upper_tail_exact(
    targ_kp: int, targ_no_kp: int, no_targ_kp: int, no_targ_no_kp: int
) -> Fraction:
    """Exact P(X >= targ_kp) for the table's margins, as a Fraction."""
    kp_total = targ_kp + no_targ_kp
    term_total = targ_kp + targ_no_kp
    grand_total = targ_kp + targ_no_kp + no_targ_kp + no_targ_no_kp
    highest = min(term_total, kp_total)
    numerator = sum(
        comb(kp_total, x) * comb(grand_total - kp_total, term_total - x)
        for x in range(targ_kp, highest + 1)
    )
    if grand_total == 0:
        return Fraction(1)
    return Fraction(numerator, comb(grand_total, term_total))


def tokens_of(text: str) -> list[str]:
    return normalize_tokenize(text)


def contains_sequence(tokens: list[str], phrase: tuple[str, ...]) -> bool:
    """True when ``phrase`` appears as a contiguous run inside ``tokens``."""
    k = len(phrase)
    if k == 0:
        raise ValueError("empty phrase")
    if k > len(tokens):
        return False
    first = phrase[0]
    want = list(phrase)
    start = 0
    limit = len(tokens) - k + 1
    while start < limit:
        try:
            i = tokens.index(first, start, limit)
        except ValueError:
            return False
        if tokens[i : i + k] == want:
            return True
        start = i + 1
    return False


def scan_article_count(docs: list[tuple[date, list[str]]], start: date, end: date) -> int:
    return sum(1 for d, _ in docs if start <= d <= end)


def scan_count_with(
    docs: list[tuple[date, list[str]]], phrase: tuple[str, ...], start: date, end: date
) -> int:
    return sum(
        1 for d, toks in docs if start <= d <= end and contains_sequence(toks, phrase)
    )


def scan_count_with_both(
    docs: list[tuple[date, list[str]]],
    phrase_a: tuple[str, ...],
    phrase_b: tuple[str, ...],
    start: date,
    end: date,
) -> int:
    return sum(
        1
        for d, toks in docs
        if start <= d <= end
        and contains_sequence(toks, phrase_a)
        and contains_sequence(toks, phrase_b)
    )


def pretokenize(documents: list[Document]) -> list[tuple[date, list[str]]]:
    return [(doc.pub_date, tokens_of(doc.text)) for doc in documents]


def decode_postings(dates, spans, docs, offsets, positions) -> list[tuple[date, dict]]:
    """Each document as ``(date, {position: tokens there})``, read from index arrays.

    ``check()`` does not refuse two tokens at one position, so a position
    holds a set, and a phrase may match either token there.
    """
    decoded = [(date.fromordinal(ordinal), defaultdict(set)) for ordinal in dates]
    for token, (s, e) in spans.items():
        for j in range(s, e):
            for p in positions[offsets[j] : offsets[j + 1]]:
                decoded[docs[j]][1][p].add(token)
    return decoded


def decoded_count(decoded, phrases: list[tuple[str, ...]], start: date, end: date) -> int:
    """In-range decoded documents holding every phrase, each at some run of positions."""

    def holds(at, phrase):
        return any(all(t in at.get(p + i, ()) for i, t in enumerate(phrase)) for p in at)

    return sum(
        1 for d, at in decoded if start <= d <= end and all(holds(at, ph) for ph in phrases)
    )
