import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litminer import (
    ConfigError,
    CountProvider,
    ExclusionReason,
    IndexCountProvider,
    MinerConfig,
    MiningError,
    RankingMode,
    TransportError,
    deduplicate_terms,
    rank_results,
    run_mining,
)
from litminer.index import PostingsIndex
from litminer.mining import TermResult
from conftest import SIX_DOCS
from helpers import FailingProvider, StubCountProvider
from oracles import (
    hypergeom_upper_tail_exact,
    pretokenize,
    scan_count_with,
    scan_count_with_both,
    tokens_of,
)


class RaisingProvider(StubCountProvider):
    """Stub whose count for the first term raises ``error``; every other term takes 2 ms."""

    def __init__(self, error, terms):
        super().__init__(10_000, "stem cell", 50, {term: (20, 5) for term in terms})
        self.error, self.first = error, terms[0]

    def count_with(self, phrase, date_range):
        if phrase == self.first:
            raise self.error
        if phrase != "stem cell":
            time.sleep(0.002)
        return super().count_with(phrase, date_range)


def make_config(full_range, terms, threshold=0.1, mode=RankingMode.TERM_DENOMINATOR):
    return MinerConfig(
        key_phrase="stem cell",
        target_terms=tuple(terms),
        date_range=full_range,
        p_threshold=threshold,
        ranking_mode=mode,
    )


class TestDeduplicateTerms:
    def test_keeps_first_spelling(self):
        unique, dropped = deduplicate_terms(["NANOG", "nanog ", "Sox2", "SOX2", "NANOG"])
        assert unique == ["NANOG", "Sox2"]
        assert dropped == [("nanog ", "NANOG"), ("SOX2", "Sox2"), ("NANOG", "NANOG")]

    def test_normalization_is_token_based(self):
        unique, dropped = deduplicate_terms(["stem-cell", "stem cell"])
        assert unique == ["stem-cell"]
        assert dropped == [("stem cell", "stem-cell")]

    def test_no_duplicates(self):
        unique, dropped = deduplicate_terms(["a", "b"])
        assert unique == ["a", "b"]
        assert dropped == []


class TestConfigValidation:
    def test_empty_terms(self, full_range):
        with pytest.raises(ConfigError):
            make_config(full_range, [])

    def test_zero_token_terms_listed(self, full_range):
        with pytest.raises(ConfigError, match="!!!"):
            make_config(full_range, ["alpha", "!!!"])

    def test_untokenizable_key_phrase(self, full_range):
        with pytest.raises(ConfigError):
            MinerConfig(
                key_phrase="???",
                target_terms=("alpha",),
                date_range=full_range,
                p_threshold=0.1,
            )

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 1.5])
    def test_threshold_out_of_range(self, full_range, threshold):
        with pytest.raises(ConfigError):
            make_config(full_range, ["alpha"], threshold=threshold)

    def test_plain_string_ranking_mode(self, full_range):
        # RankingMode is a str Enum, so its value compares equal but is not a mode.
        with pytest.raises(ConfigError, match="unknown ranking mode 'term-denominator'"):
            make_config(full_range, ["alpha"], mode="term-denominator")

    def test_bad_parallelism(self, full_range):
        provider = StubCountProvider(6, "stem cell", 3, {"alpha": (3, 3)})
        with pytest.raises(ConfigError):
            run_mining(provider, make_config(full_range, ["alpha"]), parallelism=0)


class TestRunMining:
    def test_six_doc_run_with_stub(self, full_range):
        provider = StubCountProvider(
            6, "stem cell", 3, {"alpha": (3, 3), "beta": (4, 1)}
        )
        run = run_mining(provider, make_config(full_range, ["alpha", "beta"]))
        assert [r.term for r in run.significant] == ["alpha"]
        alpha = run.significant[0]
        assert (alpha.both_count, alpha.term_count, alpha.kp_count, alpha.article_total) == (
            3,
            3,
            3,
            6,
        )
        assert alpha.ratio == 1.0
        assert abs(alpha.p_value - 0.05) < 1e-12
        assert alpha.significant is True
        [beta] = run.excluded
        assert beta.term == "beta"
        assert beta.reason is ExclusionReason.OVER_THRESHOLD
        assert beta.result is not None
        assert beta.result.p_value == 1.0
        assert beta.result.significant is False
        assert run.tallies == {
            "significant": 1,
            "excluded": 1,
            "failed": 0,
            "duplicates": 0,
        }

    def test_index_provider_matches_stub(self, six_index, full_range):
        stub = StubCountProvider(6, "stem cell", 3, {"alpha": (3, 3), "beta": (4, 1)})
        config = make_config(full_range, ["alpha", "beta"])
        from_stub = run_mining(stub, config)
        from_index = run_mining(IndexCountProvider(six_index), config)
        assert from_stub.significant == from_index.significant
        assert from_stub.excluded == from_index.excluded

    def test_index_checks_each_phrase_once_per_run(self, six_index, full_range, monkeypatch):
        """The key phrase and each multi-token term go through the phrase check
        once, one-token terms in between included, and every count is the scan's."""
        checked = []
        with_phrase = PostingsIndex._with_phrase

        def spy(index, tokens, candidates):
            checked.append(tokens)
            return with_phrase(index, tokens, candidates)

        monkeypatch.setattr(PostingsIndex, "_with_phrase", spy)
        terms = ["alpha protein", "alpha", "stem cell niche", "beta", "cell culture", "beta x"]
        run = run_mining(IndexCountProvider(six_index), make_config(full_range, terms))
        phrases = [tokens for tokens in checked if len(tokens) > 1]
        assert sorted(phrases) == sorted(
            [("stem", "cell"), ("alpha", "protein"), ("stem", "cell", "niche"), ("cell", "culture")]
        )
        scannable = pretokenize(SIX_DOCS)
        start, end = full_range.start, full_range.end
        key = ("stem", "cell")
        scored = [*run.significant, *(e.result for e in run.excluded if e.result)]
        assert len(scored) == 5  # every term but "beta x", which matches nothing
        for result in scored:
            term = tuple(tokens_of(result.term))
            assert result.term_count == scan_count_with(scannable, term, start, end)
            assert result.both_count == scan_count_with_both(scannable, term, key, start, end)

    def test_each_run_checks_its_own_phrases(self, six_index, full_range, monkeypatch):
        """A second run with the same key phrase and window checks the key
        phrase again: no count reads a set that an earlier run kept."""
        checked = []
        with_phrase = PostingsIndex._with_phrase

        def spy(index, tokens, candidates):
            checked.append(tokens)
            return with_phrase(index, tokens, candidates)

        monkeypatch.setattr(PostingsIndex, "_with_phrase", spy)
        provider = IndexCountProvider(six_index)
        config = make_config(full_range, ["alpha protein", "beta", "cell culture", "alpha"])
        for _ in range(2):
            checked.clear()
            run_mining(provider, config)
            assert sorted(tokens for tokens in checked if len(tokens) > 1) == [
                ("alpha", "protein"),
                ("cell", "culture"),
                ("stem", "cell"),
            ]

    def test_pair_counts_of_a_second_run_read_its_own_key_set(self, six_index, full_range):
        """With a one-token key phrase, the set that a run's pair counts read
        is found again by each run, not taken from the run before."""
        provider = IndexCountProvider(six_index)
        config = MinerConfig(
            key_phrase="beta",
            target_terms=("alpha", "stem cell", "cortex"),
            date_range=full_range,
            p_threshold=0.1,
        )
        key = (("beta",), full_range)
        runs, kept = [], []
        for _ in range(2):
            runs.append(run_mining(provider, config))
            kept.append(six_index._phrases[key])
        assert kept[1] is not kept[0]
        assert kept[1] == kept[0] == {2, 3, 4, 5}
        assert runs[1] == runs[0]

    def test_index_provider_is_a_count_provider(self, six_index):
        assert isinstance(IndexCountProvider(six_index), CountProvider)

    def test_key_phrase_absent(self, full_range):
        provider = StubCountProvider(6, "zebra fish", 0, {"alpha": (3, 3)})
        config = MinerConfig(
            key_phrase="zebra fish",
            target_terms=("alpha",),
            date_range=full_range,
            p_threshold=0.1,
        )
        run = run_mining(provider, config)
        assert run.significant == []
        assert [e.reason for e in run.excluded] == [ExclusionReason.KEY_PHRASE_ABSENT]
        assert run.diagnostic is not None
        assert "zebra fish" in run.diagnostic
        # the both-count query is never issued when the key phrase is absent
        assert all(call[0] != "count_with_both" for call in provider.calls)

    def test_zero_term_count_skips_both_query(self, full_range):
        provider = StubCountProvider(6, "stem cell", 3, {"ghost": (0, 0)})
        run = run_mining(provider, make_config(full_range, ["ghost"]))
        [excluded] = run.excluded
        assert excluded.reason is ExclusionReason.ZERO_TERM_COUNT
        assert all(call[0] != "count_with_both" for call in provider.calls)

    def test_inconsistent_counts_excluded(self, full_range):
        provider = StubCountProvider(6, "stem cell", 3, {"weird": (2, 5)})
        run = run_mining(provider, make_config(full_range, ["weird"]))
        [excluded] = run.excluded
        assert excluded.reason is ExclusionReason.INCONSISTENT_COUNTS
        assert "targ_no_kp" in excluded.detail

    def test_failed_term_does_not_stop_run(self, full_range):
        provider = FailingProvider(
            6,
            "stem cell",
            3,
            {"alpha": (3, 3), "broken": (1, 1)},
            failing_terms={"broken"},
        )
        run = run_mining(provider, make_config(full_range, ["alpha", "broken"]))
        assert [r.term for r in run.significant] == ["alpha"]
        [failed] = run.failed
        assert failed.term == "broken"
        assert "TransportError" in failed.error

    def test_all_terms_failing_raises(self, full_range):
        provider = FailingProvider(
            6, "stem cell", 3, {"a": (1, 1), "b": (1, 1)}, failing_terms={"a", "b"}
        )
        with pytest.raises(MiningError):
            run_mining(provider, make_config(full_range, ["a", "b"]))

    def test_totals_failure_raises(self, full_range):
        provider = FailingProvider(6, "stem cell", 3, {"a": (1, 1)}, fail_totals=True)
        with pytest.raises(TransportError, match="backend down"):
            run_mining(provider, make_config(full_range, ["a"]))

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize(
        "error",
        [RuntimeError("a bug"), OSError(28, "No space left on device")],
        ids=["bug", "disk full"],
    )
    def test_error_that_is_not_litminers_ends_the_run(self, full_range, error, parallelism):
        terms = [f"t{i}" for i in range(50)]
        provider = RaisingProvider(error, terms)
        with pytest.raises(type(error)) as info:
            run_mining(provider, make_config(full_range, terms), parallelism=parallelism)
        assert info.value is error
        # The terms not yet started when t0 failed are never counted.
        counted = [c for c in provider.calls if c[0] == "count_with" and c[1] != "stem cell"]
        assert len(counted) <= 10

    def test_duplicates_counted_once(self, full_range):
        provider = StubCountProvider(6, "stem cell", 3, {"alpha": (3, 3)})
        run = run_mining(provider, make_config(full_range, ["alpha", "Alpha", "ALPHA "]))
        assert [r.term for r in run.significant] == ["alpha"]
        assert run.duplicates == [("Alpha", "alpha"), ("ALPHA ", "alpha")]
        assert run.tallies["duplicates"] == 2
        assert len([c for c in provider.calls if c[0] == "count_with" and c[1] == "alpha"]) == 1

    def test_accounting_identity(self, full_range):
        provider = FailingProvider(
            10,
            "stem cell",
            4,
            {"a": (4, 4), "b": (5, 0), "c": (0, 0), "d": (1, 1)},
            failing_terms={"d"},
        )
        run = run_mining(provider, make_config(full_range, ["a", "b", "c", "d"]))
        assert len(run.significant) + len(run.excluded) + len(run.failed) == 4

    def test_parallel_run_matches_serial(self, full_range):
        counts = {f"t{i}": (10 + i, min(5, 10 + i)) for i in range(30)}
        provider = StubCountProvider(10_000, "stem cell", 50, counts)
        config = make_config(full_range, list(counts))
        serial = run_mining(provider, config)
        parallel = run_mining(
            StubCountProvider(10_000, "stem cell", 50, counts), config, parallelism=8
        )
        assert serial.significant == parallel.significant
        assert serial.excluded == parallel.excluded


def result(term, both, term_count, kp=100, total=100_000, mode=RankingMode.TERM_DENOMINATOR):
    table_p = float(
        hypergeom_upper_tail_exact(both, term_count - both, kp - both, total - term_count - kp + both)
    )
    denominator = term_count if mode is RankingMode.TERM_DENOMINATOR else kp
    return TermResult(
        term=term,
        both_count=both,
        term_count=term_count,
        kp_count=kp,
        article_total=total,
        ratio=both / denominator,
        p_value=table_p,
        significant=True,
    )


class TestRanking:
    def test_ratio_descending(self):
        results = [result("low", 5, 100), result("high", 50, 100), result("mid", 20, 100)]
        ranked = rank_results(results)
        assert [r.term for r in ranked] == ["high", "mid", "low"]

    def test_ratio_tie_broken_by_p_value(self):
        # same ratio, more evidence -> smaller p -> earlier rank
        small = result("small", 7, 14)
        large = result("large", 14, 28)
        ranked = rank_results([small, large])
        assert [r.term for r in ranked] == ["large", "small"]
        assert ranked[0].p_value < ranked[1].p_value

    def test_full_tie_broken_lexicographically(self):
        twin_b = result("bravo", 3, 9)
        twin_a = result("alpha", 3, 9)
        ranked = rank_results([twin_b, twin_a])
        assert [r.term for r in ranked] == ["alpha", "bravo"]

    def test_keyphrase_denominator_mode(self):
        # term-denominator order: narrow (1.0) first; keyphrase-denominator
        # order counts shared documents, so broad (30) wins
        narrow = result("narrow", 10, 10)
        broad = result("broad", 30, 90)
        assert [r.term for r in rank_results([narrow, broad])] == ["narrow", "broad"]
        keyphrase = RankingMode.KEYPHRASE_DENOMINATOR
        narrow = result("narrow", 10, 10, mode=keyphrase)
        broad = result("broad", 30, 90, mode=keyphrase)
        assert [r.term for r in rank_results([narrow, broad])] == ["broad", "narrow"]

    def test_result_ratio_reflects_mode(self, full_range):
        # gamma: term_count 2, both 1 -> p = 0.8, kept at this loose threshold
        provider = StubCountProvider(6, "stem cell", 3, {"gamma": (2, 1)})
        config = make_config(
            full_range, ["gamma"], threshold=0.9999, mode=RankingMode.KEYPHRASE_DENOMINATOR
        )
        run = run_mining(provider, config)
        [gamma] = run.significant
        assert gamma.ratio == pytest.approx(1 / 3)
        term_mode = run_mining(
            StubCountProvider(6, "stem cell", 3, {"gamma": (2, 1)}),
            make_config(full_range, ["gamma"], threshold=0.9999),
        )
        assert term_mode.significant[0].ratio == pytest.approx(1 / 2)


@st.composite
def stub_tables(draw):
    n_terms = draw(st.integers(min_value=1, max_value=8))
    article_total = draw(st.integers(min_value=10, max_value=2000))
    kp_count = draw(st.integers(min_value=1, max_value=article_total))
    counts = {}
    for i in range(n_terms):
        term_count = draw(st.integers(min_value=0, max_value=article_total))
        both_max = min(term_count, kp_count)
        both_min = max(0, term_count + kp_count - article_total)
        both = draw(st.integers(min_value=both_min, max_value=both_max))
        counts[f"term{i}"] = (term_count, both)
    return article_total, kp_count, counts


@given(stub_tables(), st.floats(min_value=1e-6, max_value=0.999))
@settings(max_examples=80, deadline=None)
def test_threshold_semantics_property(table, threshold):
    article_total, kp_count, counts = table
    provider = StubCountProvider(article_total, "stem cell", kp_count, counts)
    config = MinerConfig(
        key_phrase="stem cell",
        target_terms=tuple(counts),
        date_range=None,
        p_threshold=threshold,
    )
    run = run_mining(provider, config)
    for r in run.significant:
        assert r.p_value < threshold
    for e in run.excluded:
        if e.reason is ExclusionReason.OVER_THRESHOLD:
            assert e.result.p_value >= threshold
    keys = [(-r.ratio, r.p_value, r.term) for r in run.significant]
    assert keys == sorted(keys)
    expected = {
        term
        for term, (tc, _b) in counts.items()
        if tc > 0
    }
    scored = {r.term for r in run.significant} | {
        e.term for e in run.excluded if e.reason is not ExclusionReason.ZERO_TERM_COUNT
    }
    assert scored <= expected
