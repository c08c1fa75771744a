"""Result serialization: ranked TSV, structured JSON, sidecar report.

:func:`run_parameters` is the block of run settings and totals that both
the structured results and the CLI's manifest carry.

Both result formats are deterministic byte-for-byte for identical inputs,
and both render floats with repr (shortest round-trip form), so reading a
written file back gives the exact TermResult values.  A TSV row is the
structured record of the same rank, with ``ratio`` fixed to three decimals
and ``ratio_full`` carrying the full-precision value.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any, Sequence

from .mining import MiningRun, TermResult
from .storage import write_atomically

RESULTS_FORMAT_NAME = "litminer-results"
RESULTS_FORMAT_VERSION = 1

TSV_COLUMNS = (
    "rank",
    "term",
    "term_plus_kp_count",
    "term_count",
    "kp_count",
    "article_total",
    "ratio",
    "ratio_full",
    "p_value",
)


def display_ratio(r: TermResult) -> str:
    """Three-decimal display form of the ratio: ``ratio_full`` rounded half-up.

    The shortest repr of ``both / denominator`` lies on the same side of
    every half-thousandth as the exact quotient, and equals it when the
    quotient is one (3/80 prints ``0.0375``), for any denominator below
    about 2e12.  So this is the exact quotient's half-up rounding, without
    the to-even or binary-representation slips of formatting the float.
    """
    return str(Decimal(repr(r.ratio)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def check_tsv_field(text: str) -> None:
    """Raise ``ValueError`` if ``text`` holds a tab or a line break.

    Either would split a TSV row; line breaks are those of ``str.splitlines``,
    so a reader that splits the file's lines that way reads each row whole.
    """
    if "\t" in text or text.splitlines() != [text]:
        raise ValueError(f"{text!r} contains a tab or line break, which a TSV field cannot hold")


def _result_record(rank: int, r: TermResult) -> dict[str, Any]:
    return {
        "rank": rank,
        "term": r.term,
        "term_plus_kp_count": r.both_count,
        "term_count": r.term_count,
        "kp_count": r.kp_count,
        "article_total": r.article_total,
        "ratio": r.ratio,
        "p_value": r.p_value,
        "significant": r.significant,
    }


def render_results_tsv(results: Sequence[TermResult]) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    for rank, r in enumerate(results, start=1):
        check_tsv_field(r.term)
        record = _result_record(rank, r) | {"ratio": display_ratio(r), "ratio_full": r.ratio}
        lines.append("\t".join(str(record[column]) for column in TSV_COLUMNS))
    return "\n".join(lines) + "\n"


def run_parameters(run: MiningRun) -> dict[str, Any]:
    """The run's settings and corpus totals, as the results and manifest record them."""
    return {
        "key_phrase": run.config.key_phrase,
        "date_range": {
            "from": run.config.date_range.start.isoformat(),
            "to": run.config.date_range.end.isoformat(),
        },
        "p_threshold": run.config.p_threshold,
        "ranking_mode": run.config.ranking_mode.value,
        "article_total": run.article_total,
        "kp_count": run.kp_count,
    }


def render_results_json(run: MiningRun) -> str:
    document = {
        "format": RESULTS_FORMAT_NAME,
        "version": RESULTS_FORMAT_VERSION,
        **run_parameters(run),
        "results": [
            _result_record(rank, r) for rank, r in enumerate(run.significant, start=1)
        ],
    }
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


def render_report(run: MiningRun) -> str:
    """Sidecar accounting for everything that is not in the ranked output."""
    document = {
        "excluded": [
            {
                "term": e.term,
                "reason": e.reason.value,
                "detail": e.detail,
                "result": None if e.result is None else _result_record(0, e.result) | {"rank": None},
            }
            for e in run.excluded
        ],
        "failed": [{"term": f.term, "error": f.error} for f in run.failed],
        "duplicates": [
            {"dropped": dropped, "kept": kept} for dropped, kept in run.duplicates
        ],
        "diagnostic": run.diagnostic,
    }
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` atomically, so no reader sees a torn file."""
    write_atomically(path, lambda fh: fh.write(text.encode("utf-8")))
