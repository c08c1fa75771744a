import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litminer import MinerConfig, RankingMode, run_mining
from litminer.mining import TermResult
from litminer.output import (
    TSV_COLUMNS,
    display_ratio,
    render_report,
    render_results_json,
    render_results_tsv,
    write_text,
)
from helpers import (
    FailingProvider,
    ResultParseError,
    StubCountProvider,
    parse_results_json,
    parse_results_tsv,
)

HEADER = "\t".join(TSV_COLUMNS)


@pytest.fixture
def small_run(full_range):
    provider = FailingProvider(
        1000,
        "stem cell",
        40,
        {
            "alpha": (30, 12),
            "beta": (200, 17),
            "ghost": (0, 0),
            "broken": (1, 1),
            # p around 0.115: lands in the over-threshold report
            "gamma": (3, 1),
        },
        failing_terms={"broken"},
    )
    config = MinerConfig(
        key_phrase="stem cell",
        target_terms=("alpha", "beta", "ghost", "broken", "gamma", "ALPHA"),
        date_range=full_range,
        p_threshold=0.05,
    )
    return run_mining(provider, config)


class TestTsv:
    def test_round_trip_is_exact(self, small_run):
        text = render_results_tsv(small_run.significant)
        parsed = parse_results_tsv(text)
        assert parsed == small_run.significant

    def test_layout(self, small_run):
        lines = render_results_tsv(small_run.significant).splitlines()
        assert lines[0].split("\t") == [
            "rank",
            "term",
            "term_plus_kp_count",
            "term_count",
            "kp_count",
            "article_total",
            "ratio",
            "ratio_full",
            "p_value",
        ]
        first = lines[1].split("\t")
        assert first[0] == "1"
        ratio_display = first[6]
        assert len(ratio_display.split(".")[1]) == 3
        assert text_ends_with_newline(render_results_tsv(small_run.significant))

    def test_empty_results_is_header_only(self):
        text = render_results_tsv([])
        assert text.splitlines() == [text.splitlines()[0]]
        assert parse_results_tsv(text) == []

    def test_parse_rejects_wrong_header(self):
        with pytest.raises(ResultParseError):
            parse_results_tsv("rank\tterm\n1\talpha\n")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1\talpha", "line 2: expected 9 fields"),
            ("1\talpha\tx\t30\t40\t1000\t0.4\t0.4\t0.01", "line 2: invalid literal for int"),
        ],
        ids=["wrong field count", "non-integer count"],
    )
    def test_parse_rejects_malformed_row(self, row, message):
        with pytest.raises(ResultParseError, match=message):
            parse_results_tsv(f"{HEADER}\n{row}\n")

    def test_parse_skips_blank_lines(self, small_run):
        text = render_results_tsv(small_run.significant).replace("\n", "\n\n")
        assert parse_results_tsv(text) == small_run.significant

    @pytest.mark.parametrize(
        "term", ["alpha\tprotein", "alpha\rprotein", "alpha\nprotein", "alpha\u2028", "\x1calpha"]
    )
    def test_term_that_would_break_a_row_is_refused(self, small_run, term):
        results = [*small_run.significant, replace(small_run.significant[0], term=term)]
        with pytest.raises(ValueError, match="tab or line break"):
            render_results_tsv(results)


class TestJson:
    def test_round_trip_is_exact(self, small_run):
        text = render_results_json(small_run)
        assert parse_results_json(text) == small_run.significant

    def test_envelope(self, small_run):
        doc = json.loads(render_results_json(small_run))
        assert doc["format"] == "litminer-results"
        assert doc["version"] == 1
        assert doc["key_phrase"] == "stem cell"
        assert doc["p_threshold"] == 0.05
        assert doc["ranking_mode"] == RankingMode.TERM_DENOMINATOR.value
        assert doc["article_total"] == 1000
        assert doc["kp_count"] == 40
        assert [row["rank"] for row in doc["results"]] == list(
            range(1, len(small_run.significant) + 1)
        )

    def test_parse_rejects_other_documents(self):
        with pytest.raises(ResultParseError):
            parse_results_json(json.dumps({"format": "something-else", "version": 1}))

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"format": "litminer-results", ', "invalid JSON"),
            (json.dumps({"format": "litminer-results", "version": 2}), "version 2"),
            (
                json.dumps({"format": "litminer-results", "version": 1, "results": [{"term": "a"}]}),
                "malformed result record: 'term_plus_kp_count'",
            ),
        ],
        ids=["invalid JSON", "unknown version", "record missing a key"],
    )
    def test_parse_rejects_malformed_document(self, text, message):
        with pytest.raises(ResultParseError, match=message):
            parse_results_json(text)


class TestFormatsAgree:
    def test_each_tsv_row_is_the_structured_record_of_its_rank(self, full_range):
        counts = {"alpha": (30, 12), "beta": (200, 17), "delta": (80, 3), "kappa": (7, 2)}
        provider = StubCountProvider(10000, "stem cell", 40, {**counts, "omega": (9, 9)})
        config = MinerConfig(
            key_phrase="stem cell",
            target_terms=(*counts, "omega"),
            date_range=full_range,
            p_threshold=0.05,
        )
        run = run_mining(provider, config)
        header, *rows = render_results_tsv(run.significant).splitlines()
        records = json.loads(render_results_json(run))["results"]
        assert header == HEADER
        assert len(rows) == len(records) == len(run.significant) == 5
        assert len({r["ratio"] for r in records}) == len({r["p_value"] for r in records}) == 5
        # 3/80 = 0.0375 shows as 0.038, so one row's two ratio columns differ.
        assert "0.038\t0.0375\t" in "\n".join(rows)
        for row, record, result in zip(rows, records, run.significant):
            assert dict(zip(TSV_COLUMNS, row.split("\t"))) == {
                "rank": str(record["rank"]),
                "term": record["term"],
                "term_plus_kp_count": str(record["term_plus_kp_count"]),
                "term_count": str(record["term_count"]),
                "kp_count": str(record["kp_count"]),
                "article_total": str(record["article_total"]),
                "ratio": display_ratio(result),
                "ratio_full": repr(record["ratio"]),
                "p_value": repr(record["p_value"]),
            }
            assert result.ratio == record["ratio"]


class TestReport:
    def test_report_accounts_for_everything(self, small_run):
        doc = json.loads(render_report(small_run))
        excluded_terms = {e["term"] for e in doc["excluded"]}
        assert "ghost" in excluded_terms
        failed_terms = {f["term"] for f in doc["failed"]}
        assert failed_terms == {"broken"}
        assert doc["duplicates"] == [{"dropped": "ALPHA", "kept": "alpha"}]
        reasons = {e["term"]: e["reason"] for e in doc["excluded"]}
        assert reasons["ghost"] == "zero-term-count"

    def test_over_threshold_entries_carry_the_result(self, small_run):
        doc = json.loads(render_report(small_run))
        over = [e for e in doc["excluded"] if e["reason"] == "over-threshold"]
        for entry in over:
            assert entry["result"]["term"] == entry["term"]
            assert entry["result"]["p_value"] >= 0.05


def quotient_result(a, b):
    return TermResult("t", a, b, b, 2 * b, a / b, 0.5, True)


def exact_half_up(a, b):
    """``a / b`` rounded half-up to three decimals, in integers."""
    thousandths = (2000 * a + b) // (2 * b)
    return f"{thousandths // 1000}.{thousandths % 1000:03d}"


LARGEST_COUNT = 10**12


@st.composite
def quotients(draw):
    b = draw(st.integers(min_value=1, max_value=LARGEST_COUNT))
    return draw(st.integers(min_value=0, max_value=b)), b


@st.composite
def half_thousandths(draw):
    """An exact half-thousandth ``(2k + 1) / 2000``, or a neighbour at +-1/b."""
    m = draw(st.integers(min_value=1, max_value=LARGEST_COUNT // 2000))
    k = draw(st.integers(min_value=0, max_value=999))
    return (2 * k + 1) * m + draw(st.sampled_from((-1, 0, 1))), 2000 * m


def nearest_miss(b, side):
    """The ``a`` putting ``a / b`` as close to a half-thousandth as it gets.

    ``2000 a - (2k + 1) b = side`` (+-1), so the quotient is ``1 / (2000 b)``
    above or below the half-thousandth; that needs ``b`` coprime to 10.
    """
    odd = (-side * pow(b, -1, 2000)) % 2000
    return (odd * b + side) // 2000


@st.composite
def nearest_misses(draw):
    b = 10 * draw(st.integers(min_value=0, max_value=LARGEST_COUNT // 10 - 1))
    b += draw(st.sampled_from((1, 3, 7, 9)))
    return nearest_miss(b, draw(st.sampled_from((-1, 1)))), b


class TestDisplayRatio:
    @given(st.one_of(quotients(), half_thousandths(), nearest_misses()))
    @settings(max_examples=500, deadline=None)
    def test_equals_exact_half_up_rounding(self, pair):
        a, b = pair
        assert display_ratio(quotient_result(a, b)) == exact_half_up(a, b)

    @pytest.mark.parametrize("b", [2000, 10**12, 1_999_999_998_000])
    def test_every_half_thousandth_and_its_neighbours(self, b):
        m = b // 2000
        wrong = []
        for k in range(1000):
            for a in ((2 * k + 1) * m - 1, (2 * k + 1) * m, (2 * k + 1) * m + 1):
                if display_ratio(quotient_result(a, b)) != exact_half_up(a, b):
                    wrong.append((a, b))
        assert wrong == []

    @pytest.mark.parametrize("b", [999_999_999_997, 1_999_999_999_999])
    def test_nearest_misses_at_large_denominators(self, b):
        for a in (nearest_miss(b, -1), nearest_miss(b, 1)):
            assert display_ratio(quotient_result(a, b)) == exact_half_up(a, b)

    def test_half_thousandth_rounds_up(self):
        # 3/80 is 0.0375 exactly; its float is just below, so "%.3f" gives 0.037.
        assert display_ratio(quotient_result(3, 80)) == "0.038"
        assert display_ratio(quotient_result(0, 7)) == "0.000"
        assert display_ratio(quotient_result(7, 7)) == "1.000"


class TestWriteText:
    def test_failed_write_keeps_old_file_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "results.tsv"
        write_text(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            write_text(path, "new \ud800\n")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["results.tsv"]


def text_ends_with_newline(text):
    return text.endswith("\n")
