"""Shared test doubles: count providers backed by dictionaries instead of a
corpus, and readers that parse a written results file back into TermResults."""

from __future__ import annotations

import json
import threading

from litminer import DateRange, TransportError
from litminer.mining import TermResult
from litminer.output import RESULTS_FORMAT_NAME, RESULTS_FORMAT_VERSION, TSV_COLUMNS


class StubCountProvider:
    """Answers count queries from fixed numbers.

    term_counts maps each term string to (term_count, both_count). The key
    phrase must match exactly; every call is logged for assertions.
    """

    def __init__(self, article_total, key_phrase, kp_count, term_counts):
        self._article_total = article_total
        self._key_phrase = key_phrase
        self._kp_count = kp_count
        self._term_counts = dict(term_counts)
        self.calls = []
        self._lock = threading.Lock()

    def _log(self, *entry):
        with self._lock:
            self.calls.append(entry)

    def article_total(self, date_range: DateRange) -> int:
        self._log("article_total",)
        return self._article_total

    def count_with(self, phrase: str, date_range: DateRange) -> int:
        self._log("count_with", phrase)
        if phrase == self._key_phrase:
            return self._kp_count
        return self._term_counts[phrase][0]

    def count_with_both(self, phrase_a: str, phrase_b: str, date_range: DateRange) -> int:
        self._log("count_with_both", phrase_a, phrase_b)
        return self._term_counts[phrase_a][1]


class FailingProvider(StubCountProvider):
    """Stub whose term queries raise for a chosen set of terms."""

    def __init__(self, *args, failing_terms=(), fail_totals=False, **kwargs):
        super().__init__(*args, **kwargs)
        self.failing_terms = set(failing_terms)
        self.fail_totals = fail_totals

    def article_total(self, date_range):
        if self.fail_totals:
            raise TransportError("totals", "backend down")
        return super().article_total(date_range)

    def count_with(self, phrase, date_range):
        if phrase in self.failing_terms:
            raise TransportError(phrase, f"no answer for {phrase}")
        return super().count_with(phrase, date_range)


def provider_for_table(table):
    """Builds a stub provider replaying one curated reference table."""
    return StubCountProvider(
        article_total=table.article_total,
        key_phrase=table.key_phrase,
        kp_count=table.kp_total,
        term_counts={
            term: (term_count, both) for term, both, term_count, _ratio in table.rows
        },
    )


class ResultParseError(ValueError):
    """A results file that cannot be read back."""


def parse_results_tsv(text: str) -> list[TermResult]:
    lines = text.splitlines()
    if not lines or tuple(lines[0].split("\t")) != TSV_COLUMNS:
        raise ResultParseError("missing or unexpected TSV header")
    results = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(TSV_COLUMNS):
            raise ResultParseError(f"line {line_no}: expected {len(TSV_COLUMNS)} fields")
        try:
            results.append(
                TermResult(
                    term=fields[1],
                    both_count=int(fields[2]),
                    term_count=int(fields[3]),
                    kp_count=int(fields[4]),
                    article_total=int(fields[5]),
                    ratio=float(fields[7]),
                    p_value=float(fields[8]),
                    significant=True,
                )
            )
        except ValueError as exc:
            raise ResultParseError(f"line {line_no}: {exc}") from exc
    return results


def parse_results_json(text: str) -> list[TermResult]:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ResultParseError(f"invalid JSON: {exc.msg}") from exc
    if not isinstance(document, dict) or document.get("format") != RESULTS_FORMAT_NAME:
        raise ResultParseError("not a litminer results document")
    if document.get("version") != RESULTS_FORMAT_VERSION:
        raise ResultParseError(f"unsupported results version {document.get('version')!r}")
    results = []
    try:
        for record in document["results"]:
            results.append(
                TermResult(
                    term=record["term"],
                    both_count=record["term_plus_kp_count"],
                    term_count=record["term_count"],
                    kp_count=record["kp_count"],
                    article_total=record["article_total"],
                    ratio=record["ratio"],
                    p_value=record["p_value"],
                    significant=record["significant"],
                )
            )
    except (KeyError, TypeError) as exc:
        raise ResultParseError(f"malformed result record: {exc}") from exc
    return results
