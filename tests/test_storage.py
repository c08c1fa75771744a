import json
import random
import struct
import time
import tracemalloc
import zlib
from array import array
from datetime import date, datetime, timedelta, timezone
from functools import partial
from itertools import accumulate, pairwise

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import litminer.index
import litminer.storage
from litminer import (
    CorpusFormatError,
    DateRange,
    Document,
    IndexFormatError,
    PostingsIndex,
    TokenizedPhrase,
    build_index,
    load_index,
    read_corpus,
    save_index,
)
from litminer.index import U32
from litminer.storage import INDEX_MAGIC, parse_corpus_line, parse_date, write_atomically
from litminer.tokenizer import TOKENIZER_VERSION
from conftest import SIX_DOCS
from oracles import decode_postings, decoded_count


ORDINAL = date(2001, 1, 1).toordinal()
SECTIONS_MISMATCH = "index sections do not match the sizes the body declares$"


def make_index(doc_ids, dates, spans, docs, offsets, positions):
    """A PostingsIndex from plain lists, with no check of its invariants."""
    return PostingsIndex(
        doc_ids,
        array(U32, dates),
        spans,
        array(U32, docs),
        array(U32, offsets),
        array(U32, positions),
        "crafted",
        datetime(2020, 1, 1, tzinfo=timezone.utc),
    )


def line_for(doc_id="d1", pub="2001-03-10", text="alpha beta"):
    return json.dumps({"id": doc_id, "date": pub, "text": text})


class TestParseCorpusLine:
    def test_valid_line(self):
        doc = parse_corpus_line(line_for(), 1)
        assert doc == Document("d1", "alpha beta", date(2001, 3, 10))

    @pytest.mark.parametrize(
        "raw",
        [
            "not json",
            "[1, 2]",
            '"just a string"',
            '{"id": "d1", "date": "2001-03-10"}',
            '{"id": 5, "date": "2001-03-10", "text": "x"}',
            '{"id": "", "date": "2001-03-10", "text": "x"}',
            '{"id": "d1", "date": "2001-3-10", "text": "x"}',
            '{"id": "d1", "date": "2001-13-10", "text": "x"}',
            '{"id": "d1", "date": 20010310, "text": "x"}',
            '{"id": "d1", "date": "2001-03-10", "text": 7}',
            "[" * 100_000,
            '{"id": "d1", "n": ' + "9" * 5000 + "}",
        ],
        ids=lambda raw: raw[:50],
    )
    def test_rejects_malformed_lines(self, raw):
        with pytest.raises(CorpusFormatError):
            parse_corpus_line(raw, 3)

    def test_error_carries_line_number(self):
        with pytest.raises(CorpusFormatError, match="line 42"):
            parse_corpus_line("not json", 42)

    def test_date_error_names_document(self):
        with pytest.raises(CorpusFormatError, match="d9"):
            parse_corpus_line(line_for(doc_id="d9", pub="2001-02-30"), 1)

    @pytest.mark.parametrize(
        "pub, message",
        [
            ("2001-3-10", "'2001-3-10' for doc 'd1' is not YYYY-MM-DD"),
            ("2004-W01-1", "'2004-W01-1' for doc 'd1' is not YYYY-MM-DD"),
            ("2001-02-30", "'2001-02-30' for doc 'd1' is not a valid date"),
        ],
    )
    def test_date_error_says_which_rule_failed(self, pub, message):
        with pytest.raises(CorpusFormatError, match=message):
            parse_corpus_line(line_for(pub=pub), 1)


class TestParseDate:
    def test_reads_yyyy_mm_dd(self):
        assert parse_date("2004-02-29") == date(2004, 2, 29)

    @pytest.mark.parametrize(
        "text", ["2004-W01-1", "20040101", "2004-001", "2004-1-1", "2004-01-01 ", "2004-01-01\n"]
    )
    def test_other_shapes_are_refused(self, text):
        with pytest.raises(ValueError, match="^not YYYY-MM-DD$"):
            parse_date(text)

    @pytest.mark.parametrize("text", ["2001-02-29", "2001-13-01", "0000-01-01"])
    def test_dates_that_do_not_exist_are_refused(self, text):
        with pytest.raises(ValueError, match="^not a valid date$"):
            parse_date(text)


class TestReadCorpus:
    def test_reads_in_order_and_skips_blanks(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            line_for("a") + "\n\n" + line_for("b") + "\n   \n" + line_for("c") + "\n",
            encoding="utf-8",
        )
        docs = list(read_corpus(path))
        assert [d.doc_id for d in docs] == ["a", "b", "c"]

    def test_error_points_at_physical_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(line_for("a") + "\n" + "{broken\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 2"):
            list(read_corpus(path))

    def test_crlf_and_cr_end_lines_as_in_text_mode(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(f"{line_for('a')}\r\n{line_for('b')}\r\r{line_for('c')}".encode())
        assert [d.doc_id for d in read_corpus(path)] == ["a", "b", "c"]
        path.write_bytes(f"{line_for('a')}\r\n\r{{broken\n".encode())
        with pytest.raises(CorpusFormatError, match="line 3"):
            list(read_corpus(path))


def queries(index, date_range):
    def count(text):
        return index.count_with(TokenizedPhrase.from_text(text), date_range)

    return (
        index.doc_count,
        index.article_count(date_range),
        count("alpha"),
        count("stem cell"),
        index.count_with_both(
            TokenizedPhrase.from_text("alpha"),
            TokenizedPhrase.from_text("stem cell"),
            date_range,
        ),
    )


class TestRoundTrip:
    def test_six_doc_round_trip(self, six_index, full_range, tmp_path):
        path = tmp_path / "six.idx"
        save_index(six_index, path)
        loaded = load_index(path)
        assert loaded.corpus_name == six_index.corpus_name
        assert queries(loaded, full_range) == queries(six_index, full_range)
        assert loaded.date_span() == six_index.date_span()
        assert int(loaded.built_at.timestamp()) == int(six_index.built_at.timestamp())
        loaded.check()

    def test_empty_index_round_trip(self, tmp_path):
        path = tmp_path / "empty.idx"
        save_index(build_index([], corpus_name="none"), path)
        loaded = load_index(path)
        assert loaded.doc_count == 0
        assert loaded.token_count == 0

    def test_no_tmp_file_left_behind(self, six_index, tmp_path):
        path = tmp_path / "six.idx"
        save_index(six_index, path)
        leftovers = [p for p in tmp_path.iterdir() if p.name != "six.idx"]
        assert leftovers == []

    def test_existing_tmp_name_is_left_untouched(self, six_index, tmp_path):
        path = tmp_path / "six.idx"
        bystander = tmp_path / "six.idx.tmp"
        bystander.write_bytes(b"not ours")
        save_index(six_index, path)
        assert bystander.read_bytes() == b"not ours"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["six.idx", "six.idx.tmp"]

    def test_failed_write_keeps_old_index_and_leaves_no_tmp(
        self, six_index, full_range, tmp_path
    ):
        path = tmp_path / "six.idx"
        save_index(six_index, path)
        # A lone surrogate cannot be encoded as UTF-8, so the write fails
        # after the temp file has been created.
        broken = make_index(["\ud800"], [ORDINAL], {}, [], [0], [])
        with pytest.raises(UnicodeEncodeError):
            save_index(broken, path)
        assert [p.name for p in tmp_path.iterdir()] == ["six.idx"]
        assert queries(load_index(path), full_range) == queries(six_index, full_range)


class TestWriteAtomically:
    def test_write_that_raises_part_way_keeps_old_file(self, tmp_path):
        path = tmp_path / "report.json"
        write_atomically(path, lambda fh: fh.write(b"old"))

        def torn(fh):
            fh.write(b"half of the new")
            fh.flush()
            raise RuntimeError("crash mid-write")

        with pytest.raises(RuntimeError):
            write_atomically(path, torn)
        assert path.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp")) == []
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


WORDS = ["alpha", "beta", "stem", "cell", "line", "assay"]


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_corpus_round_trip(tmp_path_factory, seed):
    rng = random.Random(seed)
    docs = []
    for i in range(rng.randrange(0, 30)):
        text = " ".join(rng.choice(WORDS) for _ in range(rng.randrange(0, 10)))
        docs.append(
            Document(f"doc{i}", text, date(2000, 1, 1) + timedelta(days=rng.randrange(0, 3000)))
        )
    index = build_index(docs, corpus_name=f"rand{seed}")
    path = tmp_path_factory.mktemp("idx") / "r.idx"
    save_index(index, path)
    loaded = load_index(path)
    date_range = DateRange(date(2000, 1, 1), date(2010, 1, 1))
    for _ in range(5):
        tokens = tuple(rng.choice(WORDS) for _ in range(rng.randrange(1, 4)))
        p = TokenizedPhrase(tokens)
        assert loaded.count_with(p, date_range) == index.count_with(p, date_range)
    assert loaded.article_count(date_range) == index.article_count(date_range)


class TestLoadRejections:
    @pytest.fixture
    def saved(self, six_index, tmp_path):
        path = tmp_path / "six.idx"
        save_index(six_index, path)
        return path

    def test_bad_magic(self, saved):
        data = bytearray(saved.read_bytes())
        data[:4] = b"XXXX"
        saved.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="magic"):
            load_index(saved)

    def test_unsupported_format_version(self, saved):
        data = bytearray(saved.read_bytes())
        data[8:10] = struct.pack("<H", 99)
        saved.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="format version 99"):
            load_index(saved)

    def test_tokenizer_version_mismatch(self, saved):
        data = bytearray(saved.read_bytes())
        data[10:12] = struct.pack("<H", 7)
        saved.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="tokenizer version 7"):
            load_index(saved)

    def test_format_version_1_is_refused(self, tmp_path):
        # An empty index as format version 1 wrote it: header, doc count,
        # corpus name, build time, token count.
        path = tmp_path / "v1.idx"
        path.write_bytes(
            INDEX_MAGIC
            + struct.pack("<HHI", 1, TOKENIZER_VERSION, 0)
            + struct.pack("<QI", 0, 0)
            + struct.pack("<QI", 1577836800, 0)
        )
        with pytest.raises(IndexFormatError, match="format version 1 .*rebuild the index"):
            load_index(path)

    def test_truncated_file(self, saved):
        data = saved.read_bytes()
        saved.write_bytes(data[: len(data) // 2])
        with pytest.raises(IndexFormatError, match="truncated"):
            load_index(saved)

    def test_trailing_garbage(self, saved):
        saved.write_bytes(saved.read_bytes() + b"extra")
        with pytest.raises(IndexFormatError):
            load_index(saved)

    def test_not_a_file(self, tmp_path):
        with pytest.raises(OSError):
            load_index(tmp_path / "missing.idx")

    @staticmethod
    def write_body(path, body):
        """Write ``body`` under the saved file's header with its CRC32 recomputed,
        so that the framing, not the checksum, has to refuse it."""
        header = path.read_bytes()[:16]
        path.write_bytes(header[:12] + struct.pack("<I", zlib.crc32(body)) + body)

    def test_valid_checksum_over_a_cut_section(self, saved):
        """A whole file whose CRC32 matches is not cut: its sections and counts disagree."""
        self.write_body(saved, saved.read_bytes()[16:-4])
        with pytest.raises(IndexFormatError, match=SECTIONS_MISMATCH):
            load_index(saved)

    def test_valid_checksum_over_invalid_utf8(self, saved):
        body = bytearray(saved.read_bytes()[16:])
        # The corpus name "six": its u32 length follows the 24-byte counts.
        assert body[24:31] == struct.pack("<I", 3) + b"six"
        body[28] = 0xFF
        self.write_body(saved, bytes(body))
        with pytest.raises(IndexFormatError, match="invalid UTF-8"):
            load_index(saved)

    def test_valid_checksum_over_trailing_data(self, saved):
        self.write_body(saved, saved.read_bytes()[16:] + b"extra")
        with pytest.raises(IndexFormatError, match="trailing data after index body"):
            load_index(saved)

    @pytest.mark.parametrize(
        "count_at", [0, 4, 8, 12], ids=["docs", "tokens", "postings", "positions"]
    )
    def test_valid_checksum_over_a_huge_declared_count(self, saved, count_at):
        """A section that claims 2**32 - 1 entries is refused against the file's
        size before anything is allocated for it."""
        body = bytearray(saved.read_bytes()[16:])
        body[count_at : count_at + 4] = struct.pack("<I", 2**32 - 1)
        self.write_body(saved, bytes(body))
        started = time.perf_counter()
        with pytest.raises(IndexFormatError, match=SECTIONS_MISMATCH):
            load_index(saved)
        assert time.perf_counter() - started < 1

    @pytest.mark.parametrize(
        "start, end", [(16, 32), (32, 40), (40, 44)], ids=["counts", "build time", "name length"]
    )
    def test_garbage_sizes_report_the_checksum(self, saved, start, end):
        """With its checksum left as written, a body whose counts, build time or
        string lengths are garbage is refused for its CRC32, not its structure."""
        data = bytearray(saved.read_bytes())
        data[start:end] = b"\xff" * (end - start)
        saved.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match=r"\(CRC32 mismatch\); rebuild the index$"):
            load_index(saved)

    def test_valid_checksum_over_a_build_time_out_of_range(self, saved):
        body = bytearray(saved.read_bytes()[16:])
        body[16:24] = b"\xff" * 8
        self.write_body(saved, bytes(body))
        with pytest.raises(IndexFormatError, match="build time out of range$"):
            load_index(saved)

    def test_short_file_that_is_not_a_magic_prefix(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(b"LITMX")
        with pytest.raises(IndexFormatError, match=r"not an index file \(bad magic\)"):
            load_index(path)


@pytest.fixture(scope="module")
def six_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("six") / "six.idx"
    save_index(build_index(SIX_DOCS, corpus_name="six"), path)
    return path.read_bytes()


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_file_never_loads(six_bytes, tmp_path_factory, data):
    """Any flipped byte or any truncation ends in IndexFormatError, never in a count."""
    damaged = bytearray(six_bytes)
    if data.draw(st.booleans(), label="truncate"):
        del damaged[data.draw(st.integers(0, len(six_bytes) - 1), label="length") :]
    else:
        offset = data.draw(st.integers(0, len(six_bytes) - 1), label="offset")
        damaged[offset] ^= data.draw(st.integers(1, 255), label="flip")
    path = tmp_path_factory.mktemp("damaged") / "six.idx"
    path.write_bytes(bytes(damaged))
    with pytest.raises(IndexFormatError):
        load_index(path)


# Each index breaks one invariant and is saved with a valid CRC32, as a
# faulty writer would leave it.
D1, D2 = ORDINAL, ORDINAL + 1
BROKEN_INDEXES = {
    "documents not in date order": (
        (["a", "b"], [D2, D1], {"x": (0, 1)}, [0], [0, 1], [0]), "date, id"
    ),
    "ids not ascending within a date": (
        (["b", "a"], [D1, D1], {"x": (0, 1)}, [0], [0, 1], [0]), "date, id"
    ),
    "duplicate id": ((["a", "a"], [D1, D2], {"x": (0, 1)}, [0], [0, 1], [0]), "duplicate"),
    "tokens not ascending": (
        (["a"], [D1], {"y": (0, 1), "x": (1, 2)}, [0, 0], [0, 1, 2], [0, 1]), "tokens"
    ),
    "empty posting list": (
        (["a"], [D1], {"x": (0, 0), "y": (0, 1)}, [0], [0, 1], [0]), "posting counts"
    ),
    "postings not covered by tokens": ((["a"], [D1], {}, [0], [0, 1], [0]), "posting counts"),
    "doc id out of range": (
        (["a", "b"], [D1, D2], {"x": (0, 2)}, [0, 2], [0, 1, 2], [0, 0]), "unknown document"
    ),
    "doc ids not ascending": (
        (["a", "b"], [D1, D2], {"x": (0, 2)}, [1, 0], [0, 1, 2], [0, 0]), "do not ascend"
    ),
    "doc id repeated": (
        (["a", "b"], [D1, D2], {"x": (0, 2)}, [1, 1], [0, 1, 2], [0, 0]), "do not ascend"
    ),
    "offsets do not start at zero": (
        (["a"], [D1], {"x": (0, 1)}, [0], [1, 2], [0, 1]), "offsets"
    ),
    "offsets do not reach the end": (
        (["a"], [D1], {"x": (0, 1)}, [0], [0, 1], [0, 1]), "offsets"
    ),
    "empty position list": (
        (["a", "b"], [D1, D2], {"x": (0, 2)}, [0, 1], [0, 0, 1], [4]), "offsets do not ascend"
    ),
    "positions not increasing": (
        (["a"], [D1], {"x": (0, 1)}, [0], [0, 2], [3, 1]), "positions"
    ),
    "position repeated": ((["a"], [D1], {"x": (0, 1)}, [0], [0, 2], [3, 3]), "positions"),
    "positions fall inside the second of two postings": (
        (["a", "b"], [D1, D2], {"x": (0, 2)}, [0, 1], [0, 1, 3], [5, 4, 2]), "positions"
    ),
    "date ordinal zero": ((["a"], [0], {"x": (0, 1)}, [0], [0, 1], [0]), "date out of range"),
}


# The cases that break one token's postings, not a table: such an index loads,
# and the first query that reads the token refuses it.
BROKEN_POSTINGS = {
    "doc id out of range",
    "doc ids not ascending",
    "doc id repeated",
    "empty position list",
    "positions not increasing",
    "position repeated",
    "positions fall inside the second of two postings",
}


@pytest.mark.parametrize("case", sorted(BROKEN_INDEXES))
def test_structurally_broken_index_is_refused(case, tmp_path):
    fields, message = BROKEN_INDEXES[case]
    broken = make_index(*fields)
    with pytest.raises(IndexFormatError, match=message):
        broken.check()
    path = tmp_path / "broken.idx"
    save_index(broken, path)
    if case in BROKEN_POSTINGS:
        load_index(path).check_tables()
    else:
        with pytest.raises(IndexFormatError, match=message):
            load_index(path)


QUERIES_OF_X = {
    "count x": lambda index, window: index.count_with(TokenizedPhrase(("x",)), window),
    "count z x": lambda index, window: index.count_with(TokenizedPhrase(("z", "x")), window),
    "pair x, z": lambda index, window: index.count_with_both(
        TokenizedPhrase(("x",)), TokenizedPhrase(("z",)), window
    ),
    "pair z, x": lambda index, window: index.count_with_both(
        TokenizedPhrase(("z",)), TokenizedPhrase(("x",)), window
    ),
    "pair z x, z": lambda index, window: index.count_with_both(
        TokenizedPhrase(("z", "x")), TokenizedPhrase(("z",)), window
    ),
}


@pytest.mark.parametrize("query", sorted(QUERIES_OF_X))
@pytest.mark.parametrize("case", sorted(BROKEN_POSTINGS))
def test_broken_postings_are_refused_by_the_first_query_that_reads_them(case, query, tmp_path):
    """Token x's postings are broken and a sound token z is added: a query
    that reads x raises, as often as it is asked, and z still counts right."""
    (doc_ids, dates, spans, docs, offsets, positions), message = BROKEN_INDEXES[case]
    spans = {**spans, "z": (len(docs), len(docs) + 1)}
    arrays = (dates, spans, [*docs, 0], [*offsets, len(positions) + 1], [*positions, 0])
    path = tmp_path / "broken.idx"
    save_index(make_index(doc_ids, *arrays), path)
    loaded = load_index(path)
    window = DateRange(date.fromordinal(D1), date.fromordinal(D2))
    sound = decode_postings(dates, {"z": spans["z"]}, *arrays[2:])
    z_count = decoded_count(sound, [("z",)], window.start, window.end)
    assert loaded.count_with(TokenizedPhrase(("z",)), window) == z_count == 1
    for _ in range(2):
        with pytest.raises(IndexFormatError, match=message):
            QUERIES_OF_X[query](loaded, window)
    assert loaded.count_with(TokenizedPhrase(("z",)), window) == z_count


# Shapes only a directly built index can have: a file's sections fix them.
MISSHAPEN_INDEXES = {
    "fewer dates than ids": ((["a", "b"], [D1], {"x": (0, 1)}, [0], [0, 1], [0]), "lengths"),
    "offsets without the final entry": ((["a"], [D1], {"x": (0, 1)}, [0], [0], [0]), "lengths"),
    "overlapping spans": (
        (["a"], [D1], {"x": (0, 1), "y": (0, 1)}, [0], [0, 1], [0]), "posting counts"
    ),
    "a gap between spans": (
        (["a"], [D1], {"x": (0, 1), "y": (2, 3)}, [0, 0, 0], [0, 1, 2, 3], [0, 1, 2]),
        "posting counts",
    ),
}


@pytest.mark.parametrize("case", sorted(MISSHAPEN_INDEXES))
def test_misshapen_index_fails_check(case):
    fields, message = MISSHAPEN_INDEXES[case]
    with pytest.raises(IndexFormatError, match=message):
        make_index(*fields).check()


FUZZ_TOKENS = ["a", "b", "c"]


def mutate(values, data):
    """Change one entry of ``values`` in place, as a faulty writer might."""
    before = list(values)
    i, j = (data.draw(st.integers(0, len(values) - 1), label="entry") for _ in "ij")
    kind = data.draw(st.sampled_from(["swap", "repeat", "drop", "+1", "-1"]), label="kind")
    if kind == "swap":
        values[i], values[j] = values[j], values[i]
    elif kind == "repeat":
        values[i] = values[j]
    elif kind == "drop":
        del values[i]
    else:
        values[i] = max(0, values[i] + int(kind))
    assume(values != before)


def damaged_tokens(doc_count, spans, docs, offsets, positions) -> set[str]:
    """The tokens whose postings break their orders, found by plain loops."""

    def rises(values):
        return all(a < b for a, b in pairwise(values))

    return {
        token
        for token, (s, e) in spans.items()
        if not rises(docs[s:e])
        or any(doc >= doc_count for doc in docs[s:e])
        or not rises(offsets[s : e + 1])
        or not all(rises(positions[offsets[j] : offsets[j + 1]]) for j in range(s, e))
    }


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_index_with_a_valid_checksum_loads_only_if_it_counts_right(tmp_path_factory, data):
    """An index whose arrays a faulty writer changed, saved with a valid CRC32,
    is refused when it loads if its tables are damaged.  Otherwise every query
    that reads a damaged token's postings raises, and every other count equals
    a scan of what the sound tokens' arrays say.  Document ids stay as built:
    no count reads them."""
    # One draw seeds the corpus: drawing each token costs more than the rest of an example.
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="corpus seed"))
    documents = [
        Document(
            f"d{i}",
            " ".join(rng.choices(FUZZ_TOKENS, k=rng.randint(0, 5))),
            date.fromordinal(D1 + rng.randint(0, 3)),
        )
        for i in range(rng.randint(2, 4))
    ]
    index = build_index(documents)
    tokens = list(index._spans)
    fields = {
        "dates": list(index._dates),
        "counts": [e - s for s, e in index._spans.values()],
        "docs": list(index._docs),
        "offsets": list(index._offsets),
        "positions": list(index._positions),
    }
    name = data.draw(st.sampled_from([*fields, "span bound"]), label="field")
    counts = fields["counts"]
    if name == "span bound":  # one token gains a posting that the next one loses
        assume(len(counts) > 1)
        k = data.draw(st.integers(0, len(counts) - 2), label="token")
        step = data.draw(st.sampled_from([1, -1]), label="step")
        counts[k], counts[k + 1] = counts[k] + step, counts[k + 1] - step
    else:
        assume(fields[name])
        mutate(fields[name], data)
    starts = list(accumulate(counts, initial=0))
    spans = dict(zip(tokens, pairwise(starts)))
    arrays = (fields["dates"], spans, fields["docs"], fields["offsets"], fields["positions"])
    path = tmp_path_factory.getbasetemp() / "mutated.idx"
    save_index(make_index(list(index._doc_ids), *arrays), path)
    try:
        loaded = load_index(path)
    except IndexFormatError:
        return
    damaged = damaged_tokens(len(index._doc_ids), *arrays[1:])
    sound_spans = {token: span for token, span in spans.items() if token not in damaged}
    decoded = decode_postings(fields["dates"], sound_spans, *arrays[2:])

    def reads_damaged(phrase):  # a phrase with an absent token reads no postings
        return set(phrase) <= spans.keys() and not damaged.isdisjoint(phrase)

    phrase = st.lists(st.sampled_from([*FUZZ_TOKENS, "absent"]), min_size=1, max_size=3)
    for _ in range(3):
        start, end = sorted(data.draw(st.integers(D1 - 1, D1 + 4), label="day") for _ in "se")
        window = DateRange(date.fromordinal(start), date.fromordinal(end))
        a, b = (tuple(data.draw(phrase, label="phrase")) for _ in "ab")
        expect = partial(decoded_count, decoded, start=window.start, end=window.end)
        assert loaded.article_count(window) == expect([])
        for phrases, count in (
            ([b], lambda: loaded.count_with(TokenizedPhrase(b), window)),
            ([a], lambda: loaded.count_with(TokenizedPhrase(a), window)),
            ([a, b], lambda: loaded.count_with_both(*map(TokenizedPhrase, (a, b)), window)),
        ):
            if any(map(reads_damaged, phrases)):
                with pytest.raises(IndexFormatError):
                    count()
            else:
                assert count() == expect(phrases)


def test_index_format_error_is_one_class():
    assert litminer.storage.IndexFormatError is litminer.index.IndexFormatError
    assert litminer.IndexFormatError is IndexFormatError is litminer.index.IndexFormatError


def test_values_may_fall_between_groups(tmp_path):
    """Doc ids restart at each token and positions at each posting."""
    index = make_index(
        ["a", "b"], [D1, D2], {"x": (0, 2), "y": (2, 3)}, [0, 1, 0], [0, 2, 3, 4], [3, 7, 1, 2]
    )
    index.check()
    path = tmp_path / "ok.idx"
    save_index(index, path)
    loaded = load_index(path)
    loaded.check()
    everything = DateRange(date(1900, 1, 1), date(2100, 1, 1))
    assert loaded.count_with(TokenizedPhrase(("x",)), everything) == 2
    assert loaded.count_with(TokenizedPhrase(("y", "x")), everything) == 1


def test_load_peak_stays_near_what_it_loads(tmp_path):
    """Loading reads the file straight into the index's arrays: no copy of the
    whole file and no per-element lists in the checks, so the peak stays near
    what the loaded index holds."""
    rng = random.Random(5)
    vocab = [f"w{rank}" for rank in range(3_000)]
    weights = [1 / (rank + 1) for rank in range(3_000)]
    docs = [
        Document(
            f"doc{i}",
            " ".join(rng.choices(vocab, weights, k=120)),
            date(2000, 1, 1) + timedelta(days=rng.randrange(0, 5_000)),
        )
        for i in range(1_500)
    ]
    path = tmp_path / "zipf.idx"
    save_index(build_index(docs, corpus_name="zipf"), path)
    tracemalloc.start()
    try:
        index = load_index(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.doc_count == 1_500
    assert peak <= 1.5 * held, f"peak {peak} B for {held} B loaded"
