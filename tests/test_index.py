import hashlib
import random
import sys
import threading
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import litminer.index
from litminer import (
    DateRange,
    Document,
    IngestionError,
    TokenizedPhrase,
    build_index,
    save_index,
)
from oracles import (
    pretokenize,
    scan_article_count,
    scan_count_with,
    scan_count_with_both,
    tokens_of,
)


def phrase(text):
    return TokenizedPhrase.from_text(text)


class TestDateRange:
    def test_str(self, full_range):
        assert str(full_range) == "1900-01-01 .. 2017-12-31"

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            DateRange(date(2010, 1, 1), date(2009, 12, 31))

    def test_rejects_non_dates(self):
        with pytest.raises(ValueError):
            DateRange("1900-01-01", date(2000, 1, 1))


class TestBuildIndex:
    def test_empty_corpus(self):
        index = build_index([])
        assert index.doc_count == 0
        assert index.token_count == 0
        assert index.date_span() is None
        full = DateRange(date(1900, 1, 1), date(2100, 1, 1))
        assert index.article_count(full) == 0
        assert index.count_with(phrase("anything"), full) == 0

    def test_duplicate_ids_rejected(self):
        docs = [
            Document("d1", "one", date(2000, 1, 1)),
            Document("d1", "two", date(2001, 1, 1)),
        ]
        with pytest.raises(IngestionError, match="d1"):
            build_index(docs)

    def test_duplicate_id_on_two_dates_rejected(self):
        docs = [
            Document("d1", "one", date(2000, 1, 1)),
            Document("d2", "two", date(2000, 6, 1)),
            Document("d1", "three", date(2001, 1, 1)),
        ]
        with pytest.raises(IngestionError, match="d1"):
            build_index(docs)

    def test_empty_id_rejected(self):
        with pytest.raises(IngestionError):
            build_index([Document("", "text", date(2000, 1, 1))])

    def test_non_date_rejected(self):
        with pytest.raises(IngestionError, match="d1"):
            build_index([Document("d1", "text", "2000-01-01")])

    @pytest.mark.parametrize("text", [None, 42, b"stem cell"])
    def test_non_string_text_rejected(self, text):
        with pytest.raises(IngestionError, match="d1"):
            build_index([Document("d1", text, date(2000, 1, 1))])

    def test_insertion_order_does_not_matter(self, six_documents, full_range, tmp_path):
        built_at = datetime(2020, 1, 1, tzinfo=timezone.utc)
        forward = build_index(six_documents, built_at=built_at)
        backward = build_index(list(reversed(six_documents)), built_at=built_at)
        for text in ("alpha", "stem cell", "beta"):
            assert forward.count_with(phrase(text), full_range) == backward.count_with(
                phrase(text), full_range
            )
        # The saved form holds every document, token and position.
        save_index(forward, tmp_path / "forward.idx")
        save_index(backward, tmp_path / "backward.idx")
        assert (tmp_path / "forward.idx").read_bytes() == (tmp_path / "backward.idx").read_bytes()


class TestCounts:
    def test_six_doc_counts(self, six_index, full_range):
        assert six_index.article_count(full_range) == 6
        assert six_index.count_with(phrase("alpha"), full_range) == 3
        assert six_index.count_with(phrase("beta"), full_range) == 4
        assert six_index.count_with(phrase("stem cell"), full_range) == 3
        assert six_index.count_with_both(phrase("alpha"), phrase("stem cell"), full_range) == 3
        assert six_index.count_with_both(phrase("beta"), phrase("stem cell"), full_range) == 1

    def test_conjunction_is_symmetric(self, six_index, full_range):
        a, b = phrase("beta"), phrase("stem cell")
        assert six_index.count_with_both(a, b, full_range) == six_index.count_with_both(
            b, a, full_range
        )

    def test_absent_phrase(self, six_index, full_range):
        assert six_index.count_with(phrase("zebra"), full_range) == 0
        assert six_index.count_with_both(phrase("zebra"), phrase("alpha"), full_range) == 0

    def test_date_censoring(self, six_index):
        until_2003 = DateRange(date(1900, 1, 1), date(2003, 12, 31))
        assert six_index.article_count(until_2003) == 3
        assert six_index.count_with(phrase("alpha"), until_2003) == 3
        assert six_index.count_with(phrase("beta"), until_2003) == 1
        assert six_index.count_with(phrase("stem cell"), until_2003) == 3

    def test_range_boundaries_are_inclusive(self, six_index):
        exact_day = DateRange(date(2004, 6, 30), date(2004, 6, 30))
        assert six_index.article_count(exact_day) == 1
        assert six_index.count_with(phrase("beta"), exact_day) == 1

    def test_empty_range_window(self, six_index):
        gap = DateRange(date(2004, 7, 1), date(2005, 2, 13))
        assert six_index.article_count(gap) == 0
        assert six_index.count_with(phrase("beta"), gap) == 0


class TestPhraseMatching:
    def test_order_matters(self, six_index, full_range):
        assert six_index.count_with(phrase("cell stem"), full_range) == 0

    def test_longer_phrase(self, six_index, full_range):
        assert six_index.count_with(phrase("the stem cell"), full_range) == 1

    def test_phrase_must_be_contiguous(self, six_index, full_range):
        # d3 contains both tokens but never adjacent in this order
        assert six_index.count_with(phrase("alpha beta"), full_range) == 0

    def test_hyphenated_text_matches_spaced_phrase(self):
        docs = [Document("h1", "Stem-cell research update", date(2010, 1, 1))]
        index = build_index(docs)
        full = DateRange(date(1900, 1, 1), date(2020, 1, 1))
        assert index.count_with(phrase("stem cell"), full) == 1

    def test_repeated_token_phrase(self):
        docs = [
            Document("r1", "stem stem cell line", date(2010, 1, 1)),
            Document("r2", "stem cell line", date(2010, 1, 2)),
        ]
        index = build_index(docs)
        full = DateRange(date(1900, 1, 1), date(2020, 1, 1))
        assert index.count_with(phrase("stem stem cell"), full) == 1
        assert index.count_with(phrase("stem cell line"), full) == 2

    def test_date_span_and_invariants(self, six_index):
        assert six_index.date_span() == (date(2001, 3, 10), date(2006, 9, 1))
        six_index.check()


WORDS = ["alpha", "beta", "stem", "cell", "gene", "tumor", "cortex", "assay"]


def random_corpus(rng, max_docs=60):
    docs = []
    for i in range(rng.randrange(0, max_docs)):
        text = " ".join(rng.choice(WORDS) for _ in range(rng.randrange(0, 12)))
        pub = date(2000, 1, 1) + timedelta(days=rng.randrange(0, 4000))
        docs.append(Document(f"doc{i}", text, pub))
    return docs


def random_range(rng):
    start = date(2000, 1, 1) + timedelta(days=rng.randrange(0, 4000))
    end = start + timedelta(days=rng.randrange(0, 4000))
    return DateRange(start, end)


# Windows that hold every document, end before the first, or start after
# the last one that random_corpus can date.
EDGE_RANGES = [
    DateRange(date(1900, 1, 1), date(2100, 1, 1)),
    DateRange(date(1990, 1, 1), date(1999, 12, 31)),
    DateRange(date(2011, 1, 1), date(2030, 1, 1)),
]


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_counts_match_linear_scan(seed):
    rng = random.Random(seed)
    docs = random_corpus(rng)
    index = build_index(docs)
    scannable = pretokenize(docs)
    for date_range in [random_range(rng) for _ in range(4)] + EDGE_RANGES:
        tokens = tuple(rng.choice(WORDS) for _ in range(rng.randrange(1, 4)))
        other = tuple(rng.choice(WORDS) for _ in range(rng.randrange(1, 4)))
        assert index.article_count(date_range) == scan_article_count(
            scannable, date_range.start, date_range.end
        )
        assert index.count_with(TokenizedPhrase(tokens), date_range) == scan_count_with(
            scannable, tokens, date_range.start, date_range.end
        )
        assert index.count_with_both(
            TokenizedPhrase(tokens), TokenizedPhrase(other), date_range
        ) == scan_count_with_both(scannable, tokens, other, date_range.start, date_range.end)


# Mixed case and non-ASCII letters; the tokenizer lowercases them.
GROUPING_WORDS = ["alpha", "Beta", "stem", "cell", "Naïve", "β", "ÄRZTE", "東京"]
GROUPING_DAYS = [date(2001, 1, 1), date(2001, 1, 2), date(2003, 5, 5)]


@st.composite
def grouping_corpora(draw):
    """Random documents, plus the cases where a posting starts or ends oddly.

    An empty document and one that repeats its tokens share a date, and the
    last document in (date, id) order holds the only "ωmega".
    """
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(GROUPING_WORDS), max_size=12),
                st.sampled_from(GROUPING_DAYS),
            ),
            max_size=20,
        )
    )
    docs = [Document(f"r{i}", " ".join(words), day) for i, (words, day) in enumerate(rows)]
    day = draw(st.sampled_from(GROUPING_DAYS))
    return docs + [
        Document("empty", "", day),
        Document("repeat", "naïve stem cell Naïve STEM-cell stem", day),
        Document("last", "alpha Ωmega", date(2011, 1, 1)),
    ]


def postings_of(index):
    """{token: [(doc id, positions), ...]} read off the index's arrays."""
    docs, offsets, positions = index._docs, index._offsets, index._positions
    return {
        token: [
            (index._doc_ids[docs[j]], list(positions[offsets[j] : offsets[j + 1]]))
            for j in range(s, e)
        ]
        for token, (s, e) in index._spans.items()
    }


@given(grouping_corpora())
@settings(max_examples=60, deadline=None)
def test_postings_match_oracle_tokens(tmp_path_factory, docs):
    built_at = datetime(2020, 1, 1, tzinfo=timezone.utc)
    index = build_index(docs, built_at=built_at)
    index.check()
    expected = {}
    for doc in sorted(docs, key=lambda d: (d.pub_date, d.doc_id)):
        tokens = tokens_of(doc.text)
        for token in dict.fromkeys(tokens):
            where = [p for p, t in enumerate(tokens) if t == token]
            expected.setdefault(token, []).append((doc.doc_id, where))
    assert postings_of(index) == dict(sorted(expected.items()))
    assert list(index._spans) == sorted(expected)
    assert postings_of(index)["ωmega"] == [("last", [1])]

    directory = tmp_path_factory.mktemp("grouping")
    save_index(index, directory / "forward.idx")
    save_index(build_index(docs[::-1], built_at=built_at), directory / "reversed.idx")
    assert (directory / "forward.idx").read_bytes() == (directory / "reversed.idx").read_bytes()


def reference_arrays(docs):
    """``(spans, docs, offsets, positions)`` built one occurrence at a time."""
    occurrences = {}
    for internal, doc in enumerate(sorted(docs, key=lambda d: (d.pub_date, d.doc_id))):
        for position, token in enumerate(tokens_of(doc.text)):
            occurrences.setdefault(token, {}).setdefault(internal, []).append(position)
    spans, posting_docs, offsets, positions = {}, [], [0], []
    for token in sorted(occurrences):
        start = len(posting_docs)
        for internal, at in occurrences[token].items():
            posting_docs.append(internal)
            positions.extend(at)
            offsets.append(len(positions))
        spans[token] = (start, len(posting_docs))
    return spans, posting_docs, offsets, positions


def built_arrays(index):
    return index._spans, list(index._docs), list(index._offsets), list(index._positions)


@given(grouping_corpora())
@settings(max_examples=60, deadline=None)
def test_build_matches_a_per_occurrence_reference(docs):
    assert built_arrays(build_index(docs)) == reference_arrays(docs)


def test_build_keeps_positions_above_16_bits():
    """A document of more than 65,536 tokens: each occurrence packs its doc id
    and position into one 64-bit entry, and both halves must come back whole."""
    rng = random.Random(7)
    words = rng.choices(["alpha", "beta", "gamma"], k=70_000)
    docs = [
        Document("long", " ".join(words), date(2002, 1, 1)),
        Document("short", "beta gamma delta", date(2001, 1, 1)),
        Document("later", "gamma alpha", date(2003, 1, 1)),
    ]
    index = build_index(docs)
    index.check()
    assert built_arrays(index) == reference_arrays(docs)
    assert max(index._positions) > 65_536


# Documents that take both tokenizer paths: text with any non-ASCII character
# goes through the regex.  "İstanbul" lengthens when lowercased, to
# "i̇stanbul", and its combining dot is not a letter, so it splits the word.
MIXED_DOCUMENTS = [
    Document("a1", "Cafe culture: snake_case NKX2-5", date(2010, 3, 1)),
    Document("u1", "Café au lait; cafe noir", date(2010, 3, 1)),
    Document("u2", "Straße and strasse", date(2011, 7, 9)),
    Document("u3", "İstanbul fibroblast cafe", date(2012, 1, 2)),
    Document("u4", "ﬁbroblast growth; fibroblast growth", date(2009, 12, 31)),
    Document("u5", "٣ cells, 3 cells and snake_case", date(2012, 1, 2)),
    Document("a2", "Fibroblast GROWTH factor in snake_case", date(2013, 5, 5)),
]
# SHA-256 of MIXED_DOCUMENTS' index file.  The scan oracle tokenizes with
# normalize_tokenize itself, so this digest is what pins the tokens.
MIXED_INDEX_SHA256 = "30319ae368c59591971d8415e279c0ed160d1a6f0c550fbe59f26de0e7fd1235"
MIXED_COUNTS = {
    "cafe": 3,
    "café": 1,
    "straße": 1,
    "strasse": 1,
    "i stanbul fibroblast": 1,
    "ﬁbroblast growth": 1,
    "fibroblast growth": 2,
    "٣ cells": 1,
    "3 cells": 1,
    "snake case": 3,
    "nkx2 5": 1,
}


def test_mixed_script_index_file_is_golden(tmp_path):
    built_at = datetime(2020, 1, 1, tzinfo=timezone.utc)
    index = build_index(MIXED_DOCUMENTS, corpus_name="mixed", built_at=built_at)
    index.check()
    save_index(index, tmp_path / "mixed.idx")
    digest = hashlib.sha256((tmp_path / "mixed.idx").read_bytes()).hexdigest()
    assert digest == MIXED_INDEX_SHA256
    scannable = pretokenize(MIXED_DOCUMENTS)
    whole = DateRange(date(2009, 1, 1), date(2013, 12, 31))
    for date_range in (whole, DateRange(date(2010, 3, 1), date(2012, 1, 1))):
        start, end = date_range.start, date_range.end
        for text in MIXED_COUNTS:
            tokens = phrase(text).tokens
            expected = scan_count_with(scannable, tokens, start, end)
            assert index.count_with(phrase(text), date_range) == expected
            assert index.count_with_both(
                phrase(text), phrase("cafe"), date_range
            ) == scan_count_with_both(scannable, tokens, ("cafe",), start, end)
    assert {text: index.count_with(phrase(text), whole) for text in MIXED_COUNTS} == MIXED_COUNTS


def test_empty_index_counts_zero_in_every_window():
    index = build_index([])
    for date_range in EDGE_RANGES:
        assert index.article_count(date_range) == 0
        assert index.count_with(phrase("stem cell"), date_range) == 0
        assert index.count_with_both(phrase("stem"), phrase("stem cell"), date_range) == 0


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_repeated_token_phrases_match_linear_scan(seed):
    rng = random.Random(seed)
    docs = [
        Document(
            f"doc{i}",
            " ".join(rng.choice(["stem", "cell", "line"]) for _ in range(rng.randrange(0, 10))),
            date(2000, 1, 1) + timedelta(days=rng.randrange(0, 4000)),
        )
        for i in range(rng.randrange(0, 40))
    ]
    index = build_index(docs)
    scannable = pretokenize(docs)
    phrases = [("stem", "stem", "cell"), ("stem", "stem"), ("cell", "stem", "stem"), ("stem",)]
    for date_range in [random_range(rng)] + EDGE_RANGES:
        bounds = (date_range.start, date_range.end)
        for tokens in phrases:
            assert index.count_with(TokenizedPhrase(tokens), date_range) == scan_count_with(
                scannable, tokens, *bounds
            )
            for other in phrases:
                assert index.count_with_both(
                    TokenizedPhrase(tokens), TokenizedPhrase(other), date_range
                ) == scan_count_with_both(scannable, tokens, other, *bounds)


def test_key_phrase_memo_follows_window(six_index, full_range):
    """The same key phrase in a second window must not reuse the first window's docs."""
    until_2001 = DateRange(date(1900, 1, 1), date(2001, 12, 31))
    alpha, key = phrase("alpha"), phrase("stem cell")
    assert six_index.count_with_both(alpha, key, full_range) == 3
    assert six_index.count_with_both(alpha, key, until_2001) == 1
    assert six_index.count_with_both(alpha, phrase("beta"), until_2001) == 0
    assert six_index.count_with_both(alpha, key, full_range) == 3


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_count_with_both_sequence_matches_linear_scan(seed):
    """One index answers a run of calls whose key phrase and window change."""
    rng = random.Random(seed)
    docs = random_corpus(rng)
    index = build_index(docs)
    scannable = pretokenize(docs)
    keys = [tuple(rng.choice(WORDS) for _ in range(rng.randrange(1, 3))) for _ in range(2)]
    windows = [random_range(rng), random_range(rng)]
    for _ in range(12):
        key, date_range = rng.choice(keys), rng.choice(windows)
        term = tuple(rng.choice(WORDS) for _ in range(rng.randrange(1, 3)))
        assert index.count_with_both(
            TokenizedPhrase(term), TokenizedPhrase(key), date_range
        ) == scan_count_with_both(scannable, term, key, date_range.start, date_range.end)


def test_concurrent_count_with_both_matches_linear_scan():
    """Four threads alternating two key phrases and two windows on one index.

    The index is fresh, so the threads also race to check each token's
    postings; every worker must finish, with no refusal of a sound token."""
    rng = random.Random(20190614)
    docs = random_corpus(rng, max_docs=300)
    index = build_index(docs)
    scannable = pretokenize(docs)
    keys = [("stem", "cell"), ("gene",)]
    windows = [DateRange(date(2000, 1, 1), date(2010, 12, 31)), random_range(rng)]
    terms = [(w,) for w in WORDS] + [("alpha", "beta"), ("tumor", "cortex")]
    expected = {
        (term, key, date_range): scan_count_with_both(
            scannable, term, key, date_range.start, date_range.end
        )
        for term in terms
        for key in keys
        for date_range in windows
    }
    wrong = []

    def worker(shift):
        for i in range(2000):
            key = keys[(i + shift) % 2]
            date_range = windows[(i // 2 + shift) % 2]
            term = terms[i % len(terms)]
            got = index.count_with_both(TokenizedPhrase(term), TokenizedPhrase(key), date_range)
            if got != expected[term, key, date_range]:
                wrong.append((term, key, date_range, got))
        finished.append(shift)

    finished = []
    threads = [threading.Thread(target=worker, args=(shift,)) for shift in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(finished) == [0, 1, 2, 3]
    assert wrong == []


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_conjunction_bounded_by_each_count(seed):
    rng = random.Random(seed)
    docs = random_corpus(rng)
    index = build_index(docs)
    date_range = random_range(rng)
    a = TokenizedPhrase(tuple(rng.choice(WORDS) for _ in range(rng.randrange(1, 3))))
    b = TokenizedPhrase(tuple(rng.choice(WORDS) for _ in range(rng.randrange(1, 3))))
    both = index.count_with_both(a, b, date_range)
    assert both <= index.count_with(a, date_range)
    assert both <= index.count_with(b, date_range)
    assert index.count_with(a, date_range) <= index.article_count(date_range)


def test_counts_grow_with_range_end(six_index):
    cuts = [date(2000 + i, 6, 1) for i in range(8)]
    start = date(1900, 1, 1)
    previous = (0, 0)
    for cut in cuts:
        r = DateRange(start, cut)
        current = (six_index.article_count(r), six_index.count_with(phrase("beta"), r))
        assert current >= previous
        previous = current


def test_mask_maps_equal_a_direct_recomputation():
    """Each token's {doc: position bitmask} map, at positions on both sides of
    the shared single-bit table's bound (``_BITS_BOUND``)."""
    bound = litminer.index._BITS_BOUND
    rng = random.Random(11)
    texts = [
        # "x" alone at positions below, at and above the bound.
        *(" ".join(["pad"] * p + ["x"]) for p in (0, 1, 7, 8, bound - 1, bound, bound + 1, 1000)),
        # "x" twice, straddling the bound.
        " ".join(["pad"] * (bound - 1) + ["x", "x"]),
        " ".join(["x"] + ["pad"] * (bound + 40) + ["x"]),
        *(
            " ".join(rng.choices(["x", "y", "pad"], k=rng.randrange(1, 3 * bound)))
            for _ in range(30)
        ),
    ]
    # One document a day, so internal ids follow the list.
    docs = [
        Document(f"d{i:02}", text, date(2000, 1, 1) + timedelta(days=i))
        for i, text in enumerate(texts)
    ]
    index = build_index(docs)
    for token in ("x", "y", "pad"):
        expected = {}
        for internal, doc in enumerate(docs):
            bits = sum(1 << p for p, t in enumerate(tokens_of(doc.text)) if t == token)
            if bits:
                expected[internal] = bits
        assert index._token_masks(token) == expected
    assert index._token_masks("x")[5] == 1 << bound
    everything = DateRange(date(1900, 1, 1), date(2100, 1, 1))
    for holding_absent in ("absent", "x absent", "absent pad x"):
        assert index.count_with(phrase(holding_absent), everything) == 0
        for other in ("x", "pad x"):
            assert index.count_with_both(phrase(holding_absent), phrase(other), everything) == 0
            assert index.count_with_both(phrase(other), phrase(holding_absent), everything) == 0
    assert "absent" not in index._masks


def test_mask_maps_share_their_ints():
    """Every map keys on one list of doc-id ints, and a posting at one position
    below the bound takes its mask from the table, not a new int."""
    docs = [
        Document(f"d{i:03}", " ".join(["pad"] * (10 + i % 3) + ["x"]), date(2000, 1, 1))
        for i in range(600)
    ]
    index = build_index(docs)
    x, pad = index._token_masks("x"), index._token_masks("pad")
    pad_keys = {key: key for key in pad}
    assert len(x) == 600
    assert all(pad_keys[key] is key for key in x)
    assert all(bits is litminer.index._BITS[bits.bit_length() - 1] for bits in x.values())
