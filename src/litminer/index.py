"""Positional inverted index with date-censored exact-phrase document counts."""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import partial
from itertools import accumulate, chain, compress, count, islice, pairwise, repeat
from operator import and_, countOf, getitem, lshift, lt, ne, sub
from typing import Collection, Iterable, Sequence

from . import ConfigError, LitminerError
from .tokenizer import TokenizedPhrase, normalize_tokenize

# Typecode of the arrays that hold dates, doc ids, offsets and positions:
# unsigned 32-bit on every platform CPython supports, little-endian on disk.
U32 = "I"
_MIN_ORDINAL = date.min.toordinal()
_MAX_ORDINAL = date.max.toordinal()
# ``1 << p`` for the positions below the bound: the mask of a posting at one
# such position is taken from here, so the mask maps share these ints.
_BITS_BOUND = 256
_BITS = tuple(1 << p for p in range(_BITS_BOUND))


class IngestionError(LitminerError, ValueError):
    """Raised when a document stream cannot be indexed."""


class IndexFormatError(LitminerError, ValueError):
    """An index this build cannot use: another format, or a damaged structure."""


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
            raise ConfigError(f"date range ends before it starts: {self.start} .. {self.end}")

    def __str__(self) -> str:
        return f"{self.start.isoformat()} .. {self.end.isoformat()}"


class PostingsIndex:
    """Token -> postings over a fixed document set, held in flat arrays.

    Internal doc ids number the documents in ``(date, doc_id)`` order, so
    the documents of a date window are the id range ``[lo, hi)``.  Tokens
    ascend, ``tokens[k]`` has ``counts[k]`` postings, and each token's follow
    the previous token's: token ``t``'s are ``docs[s:e]`` for ``(s, e) =
    _spans[t]``, doc ids ascending; posting ``j``'s positions are
    ``positions[offsets[j]:offsets[j + 1]]``, strictly increasing.

    Loading checks only the tables (:meth:`check_tables`).  A token's postings
    are checked before their first read (:meth:`_checked_spans`), and a damaged
    token raises :class:`IndexFormatError` from each query that reads it.

    The arrays never change once built.  Caches fill as queries arrive: the
    set of tokens whose postings passed their check; the in-window documents
    of the last two phrases counted (:meth:`_phrase_docs`), which only a
    pair count reads, so that it reuses only what its own run's counts kept;
    and, for each token of a multi-token phrase counted so far, a
    ``{doc: position bitmask}`` map (bit ``p`` set when the token is at
    position ``p``).  The maps share their ints: every key comes from one list
    of the doc ids, built with the first map, and the mask of a posting at one
    position below ``_BITS_BOUND`` from the ``_BITS`` table.  Every cache is
    idempotent and each is published by one assignment (an attribute, a dict
    item, a set member), so a concurrent reader sees the old value or a
    complete new one, and any number of threads may query one index
    concurrently.
    """

    def __init__(
        self,
        doc_ids: list[str],
        dates: array,
        tokens: list[str],
        counts: array,
        docs: array,
        offsets: array,
        positions: array,
        corpus_name: str,
        built_at: datetime,
    ):
        self._doc_ids = doc_ids
        self._dates = dates
        self._tokens = tokens
        self._counts = counts
        self._spans = dict(zip(tokens, pairwise(accumulate(counts, initial=0))))
        self._docs = docs
        self._offsets = offsets
        self._positions = positions
        self._masks: dict[str, dict[int, int]] = {}
        self._doc_ints: list[int] | None = None
        self._phrases: dict[tuple[tuple[str, ...], DateRange], frozenset[int]] = {}
        self._checked: set[str] = set()
        self.corpus_name = corpus_name
        self.built_at = built_at

    @property
    def doc_count(self) -> int:
        return len(self._doc_ids)

    @property
    def token_count(self) -> int:
        return len(self._tokens)

    def date_span(self) -> tuple[date, date] | None:
        if not self._dates:
            return None
        return date.fromordinal(self._dates[0]), date.fromordinal(self._dates[-1])

    def _window(self, date_range: DateRange) -> tuple[int, int]:
        """The internal id range ``[lo, hi)`` of the documents inside the range."""
        dates = self._dates
        return (
            bisect_left(dates, date_range.start.toordinal()),
            bisect_right(dates, date_range.end.toordinal()),
        )

    def article_count(self, date_range: DateRange) -> int:
        """Number of documents whose date falls inside the range."""
        lo, hi = self._window(date_range)
        return hi - lo

    def count_with(self, phrase: TokenizedPhrase, date_range: DateRange) -> int:
        """Number of in-range documents containing the contiguous phrase.

        Each document counts once, however often the phrase occurs.  A count
        always checks its phrase: it first drops any set kept for it, so a
        pair count reuses only what its own run's counts kept.
        """
        key = (phrase.tokens, date_range)
        if key in self._phrases:
            self._phrases = {k: v for k, v in self._phrases.items() if k != key}
        if len(phrase.tokens) == 1:
            i, j = self._rarest_postings(phrase.tokens, *self._window(date_range))
            return j - i
        return len(self._phrase_docs(phrase.tokens, date_range))

    def count_with_both(
        self, phrase_a: TokenizedPhrase, phrase_b: TokenizedPhrase, date_range: DateRange
    ) -> int:
        """Number of in-range documents containing both phrases.

        ``phrase_b`` is the key phrase in a mining run.  A multi-token term's
        count is the size of the intersection of its own and the key phrase's
        sets from :meth:`_phrase_docs`.  A one-token term walks the smaller of
        the key phrase's documents and its own in-window postings.
        """
        tokens = phrase_a.tokens
        if len(tokens) > 1:
            # The term's set first: the key phrase is then the newer memo entry,
            # and it survives the next term's ``count_with``.
            term_docs = self._phrase_docs(tokens, date_range)
            return len(self._phrase_docs(phrase_b.tokens, date_range).intersection(term_docs))
        key_docs = self._phrase_docs(phrase_b.tokens, date_range)
        i, j = self._rarest_postings(tokens, *self._window(date_range))
        # A term is checked through its position map only when a phrase has
        # already built one: building it costs more than one scan.
        if j - i > len(key_docs) and tokens[0] in self._masks:
            return len(self._with_phrase(tokens, key_docs))
        return len(list(filter(key_docs.__contains__, self._docs[i:j])))

    def _phrase_docs(self, tokens: tuple[str, ...], date_range: DateRange) -> frozenset[int]:
        """The ids of the in-range documents with the phrase; the last two phrases' are kept."""
        key = (tokens, date_range)
        memo = self._phrases
        docs = memo.get(key)
        if docs is None:
            i, j = self._rarest_postings(tokens, *self._window(date_range))
            candidates = self._docs[i:j]
            if len(tokens) > 1 and i < j:
                candidates = self._with_phrase(tokens, candidates)
            docs = frozenset(candidates)
        if next(reversed(memo), None) != key:
            self._phrases = dict([*list(memo.items())[-1:], (key, docs)])
        return docs

    def _rarest_postings(self, tokens: tuple[str, ...], lo: int, hi: int) -> tuple[int, int]:
        """The slice of ``docs`` holding the in-window postings of the rarest token.

        The rarest token is the one with the fewest documents in ``[lo, hi)``;
        the slice is empty when some token is absent from the index.
        """
        spans = self._checked_spans(tokens)
        if spans is None:
            return 0, 0
        docs = self._docs
        windows = [(bisect_left(docs, lo, s, e), bisect_left(docs, hi, s, e)) for s, e in spans]
        return min(windows, key=lambda w: w[1] - w[0])

    def _checked_spans(self, tokens: tuple[str, ...]) -> list[tuple[int, int]] | None:
        """The tokens' spans, or None when one is absent.  Every read of a token's
        postings gets its span here, so they are checked before their first read."""
        spans = [self._spans.get(token) for token in tokens]
        if None in spans:
            return None
        checked = self._checked
        if not checked.issuperset(tokens):
            for token in tokens:
                if token not in checked:
                    self._check_token(token)
                    checked.add(token)
        return spans

    def _with_phrase(self, tokens: tuple[str, ...], candidates: Collection[int]) -> list[int]:
        """The candidates, in their order, in which the tokens occur contiguously.

        Every token is in the index.  ``acc`` holds the positions at which
        the phrase so far ends: the first token's mask, then for each further
        token ``(acc << 1) & mask``.  A document missing a token gets mask 0
        and drops out.
        """
        first, *rest = map(self._token_masks, tokens)
        acc = map(first.get, candidates, repeat(0))
        for token_masks in rest:
            shifted = map(lshift, acc, repeat(1))
            acc = map(and_, shifted, map(token_masks.get, candidates, repeat(0)))
        return list(compress(candidates, acc))

    def _token_masks(self, token: str) -> dict[int, int]:
        """``{doc: position bitmask}`` for a token in the index.

        Built from the arrays on first use and kept for the index's lifetime.
        """
        masks = self._masks.get(token)
        if masks is None:
            ((s, e),) = self._checked_spans((token,))
            offsets = self._offsets
            positions = iter(self._positions[offsets[s] : offsets[e]])
            counts = map(sub, offsets[s + 1 : e + 1], offsets[s:e])
            ones = repeat(1)
            # Positions within a posting are distinct, so their powers of two
            # sum to their union.
            bits = [
                (_BITS[p] if (p := next(positions)) < _BITS_BOUND else 1 << p)
                if n == 1
                else sum(map(lshift, ones, islice(positions, n)))
                for n in counts
            ]
            doc_ints = self._doc_ints
            if doc_ints is None:
                self._doc_ints = doc_ints = list(range(self.doc_count))
            masks = dict(zip(map(doc_ints.__getitem__, self._docs[s:e]), bits))
            self._masks[token] = masks
        return masks

    def check(self) -> None:
        """Raise :class:`IndexFormatError` unless the tables and every token's postings hold."""
        self.check_tables()
        self._checked_spans(tuple(self._spans))

    def check_tables(self) -> None:
        """Raise :class:`IndexFormatError` unless the checks that cost O(documents +
        tokens) pass.  Each pass over an array runs in C (``map``/``islice``), not bytecode."""
        doc_ids, dates = self._doc_ids, self._dates
        docs, offsets, positions, counts = self._docs, self._offsets, self._positions, self._counts
        doc_count = len(doc_ids)
        if len(dates) != doc_count or len(offsets) != len(docs) + 1:
            raise IndexFormatError("index arrays have mismatched lengths")
        if not _ascending(list(zip(dates, doc_ids))):
            raise IndexFormatError("documents are not in (date, id) order")
        if len(set(doc_ids)) != doc_count:
            raise IndexFormatError("duplicate document id")
        if dates and not _MIN_ORDINAL <= dates[0] <= dates[-1] <= _MAX_ORDINAL:
            raise IndexFormatError("document date out of range")
        if not _ascending(list(self._spans)):
            raise IndexFormatError("tokens are not in ascending order")
        # A token listed twice has one span for two counts.
        if len(counts) != len(self._spans) or not all(counts) or sum(counts) != len(docs):
            raise IndexFormatError("token posting counts do not add up")
        if offsets[0] != 0 or offsets[-1] != len(positions):
            raise IndexFormatError("position offsets do not cover the positions")

    def _check_token(self, token: str) -> None:
        """Raise :class:`IndexFormatError` unless the token's doc ids ascend and are
        known, and its offsets and the positions in each posting ascend."""
        s, e = self._spans[token]
        docs = self._docs[s:e]
        if not _ascending(docs):
            raise IndexFormatError("a token's document ids do not ascend")
        if docs and docs[-1] >= self.doc_count:  # its last doc id is its largest
            raise IndexFormatError("posting references an unknown document")
        offsets = self._offsets[s : e + 1]
        if not _ascending(offsets):
            raise IndexFormatError("position offsets do not ascend")
        first = offsets[0]
        positions = self._positions[first : offsets[-1]]
        if not _ascending_in_groups(positions, map(sub, offsets[1:-1], repeat(first))):
            raise IndexFormatError("positions do not increase within a document")


def _ascending(values: Sequence) -> bool:
    return all(map(lt, values, islice(values, 1, None)))


def _ascending_in_groups(values: array, starts: Iterable[int]) -> bool:
    """True when ``values`` strictly ascends within each group.

    Groups are consecutive; ``starts`` holds the index at which each group
    after the first begins.  A value may fall only where a group begins.
    """
    rises = bytearray(map(lt, values, islice(values, 1, None)))
    falls = rises.count(0)
    if not falls:
        return True
    rises.insert(0, 1)  # rises[s] now compares values[s - 1] with values[s]
    return countOf(map(getitem, repeat(rises), starts), 0) == falls


def build_index(
    documents: Iterable[Document],
    corpus_name: str = "",
    built_at: datetime | None = None,
) -> PostingsIndex:
    """Index a document stream.  Input order does not affect the result."""
    docs = list(documents)
    seen: set[str] = set()
    for doc in docs:
        if not isinstance(doc.doc_id, str) or not doc.doc_id:
            raise IngestionError(f"document id must be a non-empty string, got {doc.doc_id!r}")
        if doc.doc_id in seen:
            raise IngestionError(f"duplicate doc_id {doc.doc_id!r}")
        if not isinstance(doc.pub_date, date):
            raise IngestionError(f"doc {doc.doc_id!r} has invalid date {doc.pub_date!r}")
        if not isinstance(doc.text, str):
            raise IngestionError(f"doc {doc.doc_id!r} has {type(doc.text).__name__} text, not str")
        seen.add(doc.doc_id)
    docs.sort(key=lambda d: (d.pub_date.toordinal(), d.doc_id))

    # Each occurrence, in (doc, position) order, appends ``doc << 32 | position``
    # to its token's array: ``map`` makes the calls, so no bytecode runs per occurrence.
    occurrences: defaultdict[str, array] = defaultdict(partial(array, "Q"))
    for internal, doc in enumerate(docs):
        doc_tokens = normalize_tokenize(doc.text)
        at = count(internal << 32)
        deque(map(array.append, map(occurrences.__getitem__, doc_tokens), at), 0)

    # The arrays joined in ascending token order; token k's run begins at ``runs[k]``.
    # Read as 32-bit halves, each occurrence is its position and its doc, low half first.
    tokens = sorted(occurrences)
    runs = list(accumulate(map(len, map(occurrences.__getitem__, tokens)), initial=0))
    halves = array(U32, b"".join(map(occurrences.pop, tokens)))
    low = 0 if sys.byteorder == "little" else 1
    positions, occurrence_docs = halves[low::2], halves[1 - low :: 2]
    del halves
    # A posting begins where the doc changes or a token's run begins.
    begins = bytearray(map(ne, occurrence_docs, chain((-1,), occurrence_docs)))
    for run in runs[:-1]:
        begins[run] = 1
    postings = array(U32, compress(occurrence_docs, begins))
    del occurrence_docs
    offsets = array(U32, compress(range(len(positions)), begins))
    offsets.append(len(positions))
    counts = array(U32, map(begins.count, repeat(1), runs, runs[1:]))  # postings per run

    if built_at is None:
        built_at = datetime.now(timezone.utc)
    return PostingsIndex(
        [d.doc_id for d in docs],
        array(U32, [d.pub_date.toordinal() for d in docs]),
        tokens,
        counts,
        postings,
        offsets,
        positions,
        corpus_name,
        built_at,
    )
