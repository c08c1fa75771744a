"""Corpus file parsing and the on-disk index format.

Corpus files are UTF-8 JSON Lines: one object per line with string fields
``id``, ``date`` (YYYY-MM-DD) and ``text``.

Index files are binary, little-endian throughout:

    magic            8 bytes  b"LITMIDX\\0"
    format version   u16
    tokenizer version u16
    reserved         u32      (zero)
    doc count        u64
    corpus name      u32 length + UTF-8 bytes
    built at         u64      (Unix seconds, UTC)
    doc table        doc_count * (u32 length + id bytes, u32 date ordinal)
    token count      u32
    token entries    token bytes, u32 posting count,
                     then per posting: u32 doc, u32 n, n * u32 positions

Loading refuses files whose format or tokenizer version does not match
this build, since either mismatch silently changes query semantics.
"""

from __future__ import annotations

import io
import json
import os
import re
import secrets
import struct
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Callable, Iterator

from .index import Document, PostingsIndex
from .tokenizer import TOKENIZER_VERSION

INDEX_MAGIC = b"LITMIDX\x00"
INDEX_FORMAT_VERSION = 1

_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}$")


class CorpusFormatError(ValueError):
    """A corpus line that cannot be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class IndexFormatError(ValueError):
    """An index file this build cannot load."""


def parse_corpus_line(line: str, line_no: int) -> Document:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(line_no, f"invalid JSON: {exc.msg}") from exc
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
    raw_date = record["date"]
    if _DATE_RE.fullmatch(raw_date) is None:
        raise CorpusFormatError(
            line_no, f"date {raw_date!r} for doc {doc_id!r} is not YYYY-MM-DD"
        )
    try:
        pub_date = date.fromisoformat(raw_date)
    except ValueError as exc:
        raise CorpusFormatError(
            line_no, f"date {raw_date!r} for doc {doc_id!r} is not a valid date"
        ) from exc
    return Document(doc_id=doc_id, text=record["text"], pub_date=pub_date)


def read_corpus(path: str | Path) -> Iterator[Document]:
    """Yield documents from a JSON Lines corpus file; blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            yield parse_corpus_line(line, line_no)


def _write_bytes(fh: io.BufferedWriter, data: bytes) -> None:
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


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


def _write_index(fh: io.BufferedWriter, index: PostingsIndex) -> None:
    fh.write(INDEX_MAGIC)
    fh.write(struct.pack("<HHI", INDEX_FORMAT_VERSION, TOKENIZER_VERSION, 0))
    fh.write(struct.pack("<Q", index.doc_count))
    _write_bytes(fh, index.corpus_name.encode("utf-8"))
    fh.write(struct.pack("<Q", int(index.built_at.timestamp())))
    dates = index._dates
    for internal, doc_id in enumerate(index._doc_ids):
        _write_bytes(fh, doc_id.encode("utf-8"))
        fh.write(struct.pack("<I", dates[internal]))
    postings = index._postings
    fh.write(struct.pack("<I", len(postings)))
    for token in sorted(postings):
        entry = postings[token]
        _write_bytes(fh, token.encode("utf-8"))
        fh.write(struct.pack("<I", len(entry)))
        for doc in sorted(entry):
            positions = entry[doc]
            fh.write(struct.pack(f"<II{len(positions)}I", doc, len(positions), *positions))


class _Reader:
    def __init__(self, fh: io.BufferedReader):
        self._fh = fh

    def exactly(self, n: int) -> bytes:
        data = self._fh.read(n)
        if len(data) != n:
            raise IndexFormatError("index file is truncated")
        return data

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.exactly(struct.calcsize(fmt)))

    def string(self) -> str:
        (length,) = self.unpack("<I")
        try:
            return self.exactly(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IndexFormatError("index file contains invalid UTF-8") from exc


def load_index(path: str | Path) -> PostingsIndex:
    """Load an index written by :func:`save_index`."""
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        magic = reader.exactly(len(INDEX_MAGIC))
        if magic != INDEX_MAGIC:
            raise IndexFormatError(f"{path}: not an index file (bad magic)")
        format_version, tokenizer_version, _reserved = reader.unpack("<HHI")
        if format_version != INDEX_FORMAT_VERSION:
            raise IndexFormatError(
                f"{path}: format version {format_version} is not supported"
                f" (this build reads version {INDEX_FORMAT_VERSION})"
            )
        if tokenizer_version != TOKENIZER_VERSION:
            raise IndexFormatError(
                f"{path}: built with tokenizer version {tokenizer_version},"
                f" this build uses {TOKENIZER_VERSION}; rebuild the index"
            )
        (doc_count,) = reader.unpack("<Q")
        corpus_name = reader.string()
        (built_ts,) = reader.unpack("<Q")
        doc_ids: list[str] = []
        date_ordinals: list[int] = []
        for _ in range(doc_count):
            doc_ids.append(reader.string())
            (ordinal,) = reader.unpack("<I")
            date_ordinals.append(ordinal)
        (token_count,) = reader.unpack("<I")
        postings: dict[str, dict[int, tuple[int, ...]]] = {}
        for _ in range(token_count):
            token = reader.string()
            (n_postings,) = reader.unpack("<I")
            entry: dict[int, tuple[int, ...]] = {}
            for _ in range(n_postings):
                doc, n_positions = reader.unpack("<II")
                if doc >= doc_count:
                    raise IndexFormatError(f"{path}: posting references unknown doc {doc}")
                positions = reader.unpack(f"<{n_positions}I")
                entry[doc] = positions
            postings[token] = entry
        if fh.read(1):
            raise IndexFormatError(f"{path}: trailing data after index body")
    built_at = datetime.fromtimestamp(built_ts, tz=timezone.utc)
    return PostingsIndex(doc_ids, date_ordinals, postings, corpus_name, built_at)
