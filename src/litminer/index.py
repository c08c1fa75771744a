"""Positional inverted index with date-censored exact-phrase document counts."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date, datetime, timezone
from typing import Iterable

from .tokenizer import TokenizedPhrase, normalize_tokenize


class IngestionError(ValueError):
    """Raised when a document stream cannot be indexed."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    pub_date: date


@dataclass(frozen=True)
class DateRange:
    """Inclusive publication-date interval used to censor counts."""

    start: date
    end: date

    def __post_init__(self) -> None:
        if not isinstance(self.start, date) or not isinstance(self.end, date):
            raise ValueError("DateRange bounds must be dates")
        if self.end < self.start:
            raise ValueError(f"date range ends before it starts: {self.start} .. {self.end}")

    def __str__(self) -> str:
        return f"{self.start.isoformat()} .. {self.end.isoformat()}"


class PostingsIndex:
    """Token -> postings map over a fixed document set.

    Postings hold (internal doc id, positions) with doc ids ascending and
    positions strictly increasing.  The documents and postings never change
    once built.  The only mutable state is a one-slot memo of the last key
    phrase's in-window documents used by :meth:`count_with_both`.  It holds
    one immutable ``(key, docs)`` pair and is replaced by a single attribute
    assignment, so a concurrent reader sees either the old pair or the new
    one, never a key with another key's documents, and any number of
    threads may query one index concurrently.
    """

    def __init__(
        self,
        doc_ids: list[str],
        date_ordinals: list[int],
        postings: dict[str, dict[int, tuple[int, ...]]],
        corpus_name: str,
        built_at: datetime,
    ):
        self._doc_ids = doc_ids
        self._dates = date_ordinals
        self._sorted_dates = sorted(date_ordinals)
        self._postings = postings
        self._key_docs: tuple[tuple[tuple[str, ...], DateRange] | None, tuple[int, ...]] = (None, ())
        self.corpus_name = corpus_name
        self.built_at = built_at

    @property
    def doc_count(self) -> int:
        return len(self._doc_ids)

    @property
    def token_count(self) -> int:
        return len(self._postings)

    def date_span(self) -> tuple[date, date] | None:
        if not self._sorted_dates:
            return None
        return (
            date.fromordinal(self._sorted_dates[0]),
            date.fromordinal(self._sorted_dates[-1]),
        )

    def article_count(self, date_range: DateRange) -> int:
        """Number of documents whose date falls inside the range."""
        lo = date_range.start.toordinal()
        hi = date_range.end.toordinal()
        return bisect_right(self._sorted_dates, hi) - bisect_left(self._sorted_dates, lo)

    def count_with(self, phrase: TokenizedPhrase, date_range: DateRange) -> int:
        """Number of in-range documents containing the contiguous phrase.

        Each document counts once no matter how often the phrase occurs.
        """
        if len(phrase.tokens) == 1:
            lo = date_range.start.toordinal()
            hi = date_range.end.toordinal()
            dates = self._dates
            return sum(
                1 for doc in self._postings.get(phrase.tokens[0], ()) if lo <= dates[doc] <= hi
            )
        return len(self._matching_docs(phrase.tokens, date_range))

    def count_with_both(
        self, phrase_a: TokenizedPhrase, phrase_b: TokenizedPhrase, date_range: DateRange
    ) -> int:
        """Number of in-range documents containing both phrases.

        ``phrase_b`` is the key phrase in a mining run: its in-range
        documents are evaluated once and kept in a one-slot memo, and
        ``phrase_a`` is checked in each of them, so the cost scales with the
        key phrase's document count, not the term's.
        """
        key = (phrase_b.tokens, date_range)
        memo = self._key_docs
        if memo[0] != key:
            memo = (key, tuple(self._matching_docs(phrase_b.tokens, date_range)))
            self._key_docs = memo
        docs = memo[1]
        maps = self._token_maps(phrase_a.tokens)
        if maps is None:
            return 0
        for m in maps:
            docs = list(filter(m.__contains__, docs))
        if len(maps) == 1:
            return len(docs)
        return sum(1 for doc in docs if self._phrase_in_doc(maps, doc))

    def _token_maps(self, tokens: tuple[str, ...]) -> list[dict[int, tuple[int, ...]]] | None:
        """Posting maps for each token, or None when some token is absent."""
        maps = []
        for token in tokens:
            entry = self._postings.get(token)
            if entry is None:
                return None
            maps.append(entry)
        return maps

    def _matching_docs(self, tokens: tuple[str, ...], date_range: DateRange) -> list[int]:
        maps = self._token_maps(tokens)
        if maps is None:
            return []
        lo = date_range.start.toordinal()
        hi = date_range.end.toordinal()
        dates = self._dates
        if len(maps) == 1:
            return [doc for doc in maps[0] if lo <= dates[doc] <= hi]
        candidates = maps[0].keys() & maps[1].keys()
        for m in maps[2:]:
            candidates &= m.keys()
        return [
            doc
            for doc in candidates
            if lo <= dates[doc] <= hi and self._phrase_in_doc(maps, doc)
        ]

    @staticmethod
    def _phrase_in_doc(maps: list[dict[int, tuple[int, ...]]], doc: int) -> bool:
        """True when the tokens of ``maps`` occur at consecutive positions in ``doc``.

        Needs at least two maps, each containing ``doc``.  Works on the
        positions where the phrase would end, so two tokens take one
        ``isdisjoint``.
        """
        last = len(maps) - 1
        ends = {p + last for p in maps[0][doc]}
        for offset in range(1, last):
            ends.intersection_update([p + last - offset for p in maps[offset][doc]])
        return not ends.isdisjoint(maps[last][doc])

    def verify_invariants(self) -> None:
        """Structural self-check used by tests; raises AssertionError on damage."""
        assert len(self._dates) == len(self._doc_ids)
        assert self._sorted_dates == sorted(self._dates)
        assert self._doc_ids == sorted(self._doc_ids)
        for token, entry in self._postings.items():
            assert entry, f"token {token!r} has an empty posting list"
            docs = list(entry)
            assert docs == sorted(docs), f"postings for {token!r} not sorted by doc"
            assert len(set(docs)) == len(docs) <= self.doc_count
            for doc, positions in entry.items():
                assert 0 <= doc < self.doc_count
                assert positions, f"empty position list for {token!r} in doc {doc}"
                assert all(a < b for a, b in zip(positions, positions[1:]))


def build_index(
    documents: Iterable[Document],
    corpus_name: str = "",
    built_at: datetime | None = None,
) -> PostingsIndex:
    """Index a document stream.  Input order does not affect the result."""
    docs = sorted(documents, key=lambda d: d.doc_id)
    previous_id = None
    for doc in docs:
        if not isinstance(doc.doc_id, str) or not doc.doc_id:
            raise IngestionError(f"document id must be a non-empty string, got {doc.doc_id!r}")
        if doc.doc_id == previous_id:
            raise IngestionError(f"duplicate doc_id {doc.doc_id!r}")
        if not isinstance(doc.pub_date, date):
            raise IngestionError(f"doc {doc.doc_id!r} has invalid date {doc.pub_date!r}")
        previous_id = doc.doc_id

    doc_ids = [d.doc_id for d in docs]
    date_ordinals = [d.pub_date.toordinal() for d in docs]
    postings: dict[str, dict[int, tuple[int, ...]]] = {}
    for internal, doc in enumerate(docs):
        per_token: dict[str, list[int]] = {}
        for token, position in normalize_tokenize(doc.text):
            per_token.setdefault(token, []).append(position)
        for token, positions in per_token.items():
            postings.setdefault(token, {})[internal] = tuple(positions)

    if built_at is None:
        built_at = datetime.now(timezone.utc)
    return PostingsIndex(doc_ids, date_ordinals, postings, corpus_name, built_at)
