"""Corpus file parsing and the on-disk index format.

Corpus files are UTF-8 JSON Lines: one object per line with string fields
``id``, ``date`` (YYYY-MM-DD) and ``text``.  A line that is not UTF-8, or an
``id`` that UTF-8 cannot store, is refused with its line number.

Index files are binary, little-endian throughout.  A 16-byte header:

    magic             8 bytes  b"LITMIDX\\0"
    format version    u16      (2)
    tokenizer version u16
    body CRC32        u32      (zlib.crc32 of every byte after the header)

then the body, whose sections are arrays of u32 written and read whole:

    doc count N, token count T, posting count P, position count Q   4 * u32
    built at          u64      (Unix seconds, UTC)
    corpus name       1 * u32 byte length, then the UTF-8 bytes
    doc dates         N * u32  date ordinals, ascending
    doc ids           N * u32 byte lengths, then the UTF-8 bytes
    tokens            T * u32 byte lengths, then the UTF-8 bytes, ascending
    postings per token  T * u32, each at least 1, summing to P
    docs              P * u32  each token's internal doc ids, ascending
    offsets           (P + 1) * u32  posting j's positions are
                      positions[offsets[j]:offsets[j + 1]]
    positions         Q * u32  strictly increasing within each posting

Internal doc ids number the documents in (date, doc id) order.  Loading
reads the file once, each section straight into the index's arrays, with
no copy of the whole file: a section's declared size is compared with the
bytes left in the file before anything is allocated for it, and the CRC32
accumulates over the bytes as they are parsed, so the bytes checked are the
bytes used.  It refuses files whose format or tokenizer version does not
match this build, since either mismatch silently changes query semantics,
any file whose CRC32 does not match its body (reported ahead of any fault
in the structure of a damaged body), and any body whose tables break these
orders and bounds (``PostingsIndex.check_tables``).  A token whose postings
break them is refused by the first query that reads it, so a damaged index
fails loudly instead of counting.
"""

from __future__ import annotations

import io
import json
import os
import re
import secrets
import struct
import sys
import zlib
from array import array
from datetime import date, datetime, timezone
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import LitminerError
from .index import U32, Document, IndexFormatError, PostingsIndex
from .tokenizer import TOKENIZER_VERSION, is_utf8

INDEX_MAGIC = b"LITMIDX\x00"
INDEX_FORMAT_VERSION = 2
_HEADER = struct.Struct("<8sHHI")

_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}$")


class CorpusFormatError(LitminerError, ValueError):
    """A corpus line that cannot be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def parse_date(text: str) -> date:
    """The date that ``text`` spells as YYYY-MM-DD, and no other spelling.

    Raises ``ValueError("not YYYY-MM-DD")`` for text of another shape (the
    ISO parser alone also takes forms such as ``2004-W01-1`` from Python
    3.11 on) and ``ValueError("not a valid date")`` for a date that does not
    exist, such as 2001-02-30.
    """
    if _DATE_RE.fullmatch(text) is None:
        raise ValueError("not YYYY-MM-DD")
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise ValueError("not a valid date") from None


def parse_corpus_line(line: str, line_no: int) -> Document:
    try:
        record = json.loads(line)
    except (RecursionError, ValueError) as exc:  # also nested too deep, or an integer too long
        raise CorpusFormatError(line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
    if not isinstance(record, dict):
        raise CorpusFormatError(line_no, "record is not an object")
    for field in ("id", "date", "text"):
        if field not in record:
            raise CorpusFormatError(line_no, f"missing field {field!r}")
        if not isinstance(record[field], str):
            raise CorpusFormatError(line_no, f"field {field!r} is not a string")
    doc_id = record["id"]
    if not doc_id:
        raise CorpusFormatError(line_no, "field 'id' is empty")
    if not is_utf8(doc_id):
        raise CorpusFormatError(
            line_no, f"field 'id' {doc_id!r} holds a lone surrogate, which UTF-8 cannot store"
        )
    raw_date = record["date"]
    try:
        pub_date = parse_date(raw_date)
    except ValueError as exc:
        raise CorpusFormatError(line_no, f"date {raw_date!r} for doc {doc_id!r} is {exc}") from exc
    return Document(doc_id=doc_id, text=record["text"], pub_date=pub_date)


def read_corpus(path: str | Path) -> Iterator[Document]:
    """Yield documents from a JSON Lines corpus file; blank lines are skipped."""
    with open(path, "rb") as fh:
        # Lines end at \n, \r\n or \r, as in text mode, and each is decoded
        # on its own, so a byte that is not UTF-8 is reported with its line.
        lines = (part for block in fh for part in block.splitlines())
        for line_no, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(
                    line_no, f"byte {exc.start + 1} is not valid UTF-8 ({exc.reason})"
                ) from None
            if not line.strip():
                continue
            yield parse_corpus_line(line, line_no)


def write_atomically(path: str | Path, write: Callable[[io.BufferedWriter], object]) -> None:
    """Write ``path`` through ``write(fh)`` atomically (write then rename).

    The body goes to a new, uniquely named file beside ``path`` (created
    with ``O_EXCL``, so no other file is overwritten), which is renamed over
    ``path`` once complete and removed if writing fails.  A reader sees the
    old file or the whole new one, never a torn one.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with open(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_index(index: PostingsIndex, path: str | Path) -> None:
    """Write the index to ``path`` atomically (see :func:`write_atomically`)."""
    write_atomically(path, lambda fh: _write_index(fh, index))


def _little_endian(values: array) -> array:
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    return values


def _string_table(strings: Iterable[str]) -> list[bytes | array]:
    encoded = [string.encode("utf-8") for string in strings]
    return [_little_endian(array(U32, map(len, encoded))), b"".join(encoded)]


def _write_index(fh: io.BufferedWriter, index: PostingsIndex) -> None:
    body = [
        struct.pack(
            "<IIIIQ",
            index.doc_count,
            index.token_count,
            len(index._docs),
            len(index._positions),
            int(index.built_at.timestamp()),
        ),
        *_string_table([index.corpus_name]),
        _little_endian(index._dates),
        *_string_table(index._doc_ids),
        *_string_table(index._tokens),
        _little_endian(index._counts),
        _little_endian(index._docs),
        _little_endian(index._offsets),
        _little_endian(index._positions),
    ]
    crc = 0
    for part in body:
        crc = zlib.crc32(part, crc)
    fh.write(INDEX_MAGIC)
    fh.write(struct.pack("<HHI", INDEX_FORMAT_VERSION, TOKENIZER_VERSION, crc))
    for part in body:
        fh.write(part)


class _Cursor:
    """Reads an index body's sections in order, straight from the file.

    Each section's declared size is checked against the bytes left in the
    file before anything is allocated for it, and ``crc`` accumulates the
    CRC32 of exactly the bytes handed out, as they are parsed.
    """

    def __init__(self, fh: io.BufferedReader, size: int):
        self._fh = fh
        self._left = size
        self.crc = 0

    def _claim(self, n: int) -> None:
        if n > self._left:  # reported once the CRC32 has ruled out a cut file
            raise IndexFormatError("index sections do not match the sizes the body declares")
        self._left -= n

    def take(self, n: int) -> bytes:
        self._claim(n)
        chunk = self._fh.read(n)
        if len(chunk) != n:  # the file shrank while it was read
            raise IndexFormatError("index file is truncated")
        self.crc = zlib.crc32(chunk, self.crc)
        return chunk

    def u32s(self, n: int) -> array:
        self._claim(4 * n)
        values = array(U32, [0]) * n
        if self._fh.readinto(values) != 4 * n:
            raise IndexFormatError("index file is truncated")
        self.crc = zlib.crc32(values, self.crc)
        if sys.byteorder == "big":
            values.byteswap()
        return values

    def strings(self, n: int) -> list[str]:
        """``n`` UTF-8 strings stored as their byte lengths, then their bytes."""
        ends = list(accumulate(self.u32s(n)))
        blob = self.take(ends[-1] if ends else 0)
        try:
            return [blob[a:b].decode("utf-8") for a, b in zip([0] + ends, ends)]
        except UnicodeDecodeError as exc:
            raise IndexFormatError("index file contains invalid UTF-8") from exc

    def at_end(self) -> bool:
        return self._left == 0

    def check_crc(self, expected: int) -> None:
        """Checksum the rest of the file and compare the body's CRC32 with ``expected``."""
        while chunk := self._fh.read(1 << 16):
            self.crc = zlib.crc32(chunk, self.crc)
        if self.crc != expected:
            raise IndexFormatError(
                "index file is truncated or damaged (CRC32 mismatch); rebuild the index"
            )


def load_index(path: str | Path) -> PostingsIndex:
    """Load an index written by :func:`save_index`.

    Raises :class:`IndexFormatError` for a file of another format or
    tokenizer version, a damaged or truncated file (CRC32 mismatch), or a
    body whose tables break the index's invariants: O(documents + tokens).
    Each token's postings are checked on first read (``PostingsIndex``).
    """
    with open(path, "rb") as fh:
        try:
            return _read_index(fh)
        except IndexFormatError as exc:
            raise IndexFormatError(f"{path}: {exc}") from None


def _read_index(fh: io.BufferedReader) -> PostingsIndex:
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        if not INDEX_MAGIC.startswith(header[: len(INDEX_MAGIC)]):
            raise IndexFormatError("not an index file (bad magic)")
        raise IndexFormatError("index file is truncated")
    magic, format_version, tokenizer_version, crc = _HEADER.unpack(header)
    if magic != INDEX_MAGIC:
        raise IndexFormatError("not an index file (bad magic)")
    if format_version != INDEX_FORMAT_VERSION:
        raise IndexFormatError(
            f"format version {format_version} is not supported"
            f" (this build reads version {INDEX_FORMAT_VERSION}); rebuild the index"
        )
    if tokenizer_version != TOKENIZER_VERSION:
        raise IndexFormatError(
            f"built with tokenizer version {tokenizer_version},"
            f" this build uses {TOKENIZER_VERSION}; rebuild the index"
        )
    cursor = _Cursor(fh, os.fstat(fh.fileno()).st_size - _HEADER.size)
    try:
        index = _parse_body(cursor)
    except IndexFormatError:
        cursor.check_crc(crc)  # a damaged body reports its checksum first
        raise
    cursor.check_crc(crc)
    index.check_tables()
    return index


def _parse_body(cursor: _Cursor) -> PostingsIndex:
    doc_count, token_count, posting_count, position_count, built_ts = struct.unpack(
        "<IIIIQ", cursor.take(24)
    )
    (name,) = cursor.strings(1)
    dates = cursor.u32s(doc_count)
    doc_ids = cursor.strings(doc_count)
    tokens = cursor.strings(token_count)
    counts = cursor.u32s(token_count)
    docs = cursor.u32s(posting_count)
    offsets = cursor.u32s(posting_count + 1)
    positions = cursor.u32s(position_count)
    if not cursor.at_end():
        raise IndexFormatError("trailing data after index body")
    try:
        built_at = datetime.fromtimestamp(built_ts, tz=timezone.utc)
    except (OverflowError, OSError, ValueError):
        raise IndexFormatError("build time out of range") from None
    return PostingsIndex(doc_ids, dates, tokens, counts, docs, offsets, positions, name, built_at)
