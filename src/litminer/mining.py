"""The mining pipeline: per-term counts, significance filter, ratio ranking."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Protocol, Sequence, runtime_checkable

from . import ConfigError, LitminerError
from .index import DateRange, IndexFormatError, PostingsIndex
from .stats import (
    InconsistentCountsError,
    co_occurrence_ratio,
    derive_table,
    fisher_one_sided,
    keyphrase_cooccurrence_ratio,
)
from .tokenizer import TokenizedPhrase, normalize_tokenize

DEFAULT_P_THRESHOLD = 1e-5


class MiningError(LitminerError, RuntimeError):
    """Raised when a run cannot produce a result set at all."""


class RankingMode(str, Enum):
    """Denominator used for the ranking ratio."""

    TERM_DENOMINATOR = "term-denominator"
    KEYPHRASE_DENOMINATOR = "keyphrase-denominator"


class ExclusionReason(str, Enum):
    OVER_THRESHOLD = "over-threshold"
    ZERO_TERM_COUNT = "zero-term-count"
    INCONSISTENT_COUNTS = "inconsistent-counts"
    KEY_PHRASE_ABSENT = "key-phrase-absent"


@runtime_checkable
class CountProvider(Protocol):
    """Source of date-censored document counts.

    Implementations must answer all three queries against one consistent
    snapshot of the corpus for the duration of a run.
    """

    def article_total(self, date_range: DateRange) -> int: ...

    def count_with(self, phrase: str, date_range: DateRange) -> int: ...

    def count_with_both(self, phrase_a: str, phrase_b: str, date_range: DateRange) -> int: ...


class IndexCountProvider:
    """Serves count queries from a local :class:`PostingsIndex`."""

    def __init__(self, index: PostingsIndex):
        self._index = index

    def article_total(self, date_range: DateRange) -> int:
        return self._index.article_count(date_range)

    def count_with(self, phrase: str, date_range: DateRange) -> int:
        return self._index.count_with(TokenizedPhrase.from_text(phrase), date_range)

    def count_with_both(self, phrase_a: str, phrase_b: str, date_range: DateRange) -> int:
        return self._index.count_with_both(
            TokenizedPhrase.from_text(phrase_a),
            TokenizedPhrase.from_text(phrase_b),
            date_range,
        )


@dataclass(frozen=True)
class MinerConfig:
    """One run's inputs, checked on construction: a bad one raises ``ConfigError``."""

    key_phrase: str
    target_terms: tuple[str, ...]
    date_range: DateRange
    p_threshold: float = DEFAULT_P_THRESHOLD
    ranking_mode: RankingMode = RankingMode.TERM_DENOMINATOR

    def __post_init__(self) -> None:
        if not normalize_tokenize(self.key_phrase):
            raise ConfigError(f"key phrase {self.key_phrase!r} contains no indexable tokens")
        if not self.target_terms:
            raise ConfigError("target term list is empty")
        bad = [t for t in self.target_terms if not normalize_tokenize(t)]
        if bad:
            raise ConfigError(f"terms with no indexable tokens: {bad!r}")
        if not 0.0 < self.p_threshold < 1.0:
            raise ConfigError(f"p threshold must be in (0, 1), got {self.p_threshold!r}")
        if not isinstance(self.ranking_mode, RankingMode):
            raise ConfigError(f"unknown ranking mode {self.ranking_mode!r}")


@dataclass(frozen=True)
class TermResult:
    term: str
    both_count: int
    term_count: int
    kp_count: int
    article_total: int
    ratio: float
    p_value: float
    significant: bool


@dataclass(frozen=True)
class ExcludedTerm:
    term: str
    reason: ExclusionReason
    detail: str = ""
    result: TermResult | None = None


@dataclass(frozen=True)
class FailedTerm:
    term: str
    error: str


@dataclass
class MiningRun:
    """Everything a run produced: ranked survivors plus full accounting."""

    significant: list[TermResult]
    excluded: list[ExcludedTerm]
    failed: list[FailedTerm]
    duplicates: list[tuple[str, str]]
    article_total: int
    kp_count: int
    config: MinerConfig
    diagnostic: str | None = None

    @property
    def tallies(self) -> dict[str, int]:
        return {
            "significant": len(self.significant),
            "excluded": len(self.excluded),
            "failed": len(self.failed),
            "duplicates": len(self.duplicates),
        }


def deduplicate_terms(terms: Sequence[str]) -> tuple[list[str], list[tuple[str, str]]]:
    """Drop terms that normalize to an already-seen token sequence.

    Returns (unique terms in first-seen order, [(dropped, kept), ...]).
    """
    seen: dict[tuple[str, ...], str] = {}
    unique: list[str] = []
    duplicates: list[tuple[str, str]] = []
    for term in terms:
        key = tuple(normalize_tokenize(term))
        kept = seen.get(key)
        if kept is None:
            seen[key] = term
            unique.append(term)
        else:
            duplicates.append((term, kept))
    return unique, duplicates


def rank_results(results: Sequence[TermResult]) -> list[TermResult]:
    """Order results by ratio descending, ties by p ascending then term."""
    return sorted(results, key=lambda r: (-r.ratio, r.p_value, r.term))


def _score_term(
    provider: CountProvider,
    config: MinerConfig,
    article_total: int,
    kp_count: int,
    term: str,
) -> TermResult | ExcludedTerm | FailedTerm:
    try:
        term_count = provider.count_with(term, config.date_range)
        if term_count == 0:
            return ExcludedTerm(
                term,
                ExclusionReason.ZERO_TERM_COUNT,
                detail="term matches no documents in range; ratio undefined",
            )
        both_count = provider.count_with_both(term, config.key_phrase, config.date_range)
    except IndexFormatError:  # a damaged index: no term's count can be trusted
        raise
    except LitminerError as exc:
        return FailedTerm(term, f"{type(exc).__name__}: {exc}")
    try:
        table = derive_table(article_total, kp_count, term_count, both_count)
    except InconsistentCountsError as exc:
        return ExcludedTerm(term, ExclusionReason.INCONSISTENT_COUNTS, detail=str(exc))
    p_value = fisher_one_sided(table)
    if config.ranking_mode is RankingMode.TERM_DENOMINATOR:
        ratio = co_occurrence_ratio(table)
    else:
        ratio = keyphrase_cooccurrence_ratio(table)
    significant = p_value < config.p_threshold
    result = TermResult(
        term=term,
        both_count=both_count,
        term_count=term_count,
        kp_count=kp_count,
        article_total=article_total,
        ratio=ratio,
        p_value=p_value,
        significant=significant,
    )
    if not significant:
        return ExcludedTerm(
            term,
            ExclusionReason.OVER_THRESHOLD,
            detail=f"p={p_value:.6g} not below threshold {config.p_threshold:g}",
            result=result,
        )
    return result


def run_mining(
    provider: CountProvider, config: MinerConfig, parallelism: int = 1
) -> MiningRun:
    """Score every target term against the key phrase and rank the survivors.

    The corpus-wide totals are fetched once up front.  A ``LitminerError``
    from one term's counts (a transport or protocol failure, a phrase the
    backend cannot express) marks that term failed and the run continues.
    Any other error, an ``IndexFormatError`` from a damaged token, and any
    error fetching the totals, ends the run as itself; so does failure of
    every term, as a ``MiningError``.
    """
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    unique_terms, duplicates = deduplicate_terms(config.target_terms)

    article_total = provider.article_total(config.date_range)
    kp_count = provider.count_with(config.key_phrase, config.date_range)
    if kp_count == 0:
        diagnostic = (
            f"key phrase {config.key_phrase!r} matches no documents in"
            f" {config.date_range}; no term can be scored"
        )
        outcomes = [
            ExcludedTerm(term, ExclusionReason.KEY_PHRASE_ABSENT, detail=diagnostic)
            for term in unique_terms
        ]
    else:
        diagnostic = None

        def score(term: str) -> TermResult | ExcludedTerm | FailedTerm:
            return _score_term(provider, config, article_total, kp_count, term)

        if parallelism > 1:
            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                outcomes = list(pool.map(score, unique_terms))
        else:
            outcomes = [score(term) for term in unique_terms]

    results = [o for o in outcomes if isinstance(o, TermResult)]
    excluded = [o for o in outcomes if isinstance(o, ExcludedTerm)]
    failed = [o for o in outcomes if isinstance(o, FailedTerm)]

    if unique_terms and len(failed) == len(unique_terms):
        raise MiningError(
            f"all {len(unique_terms)} terms failed; first failure:"
            f" {failed[0].term!r}: {failed[0].error}"
        )

    return MiningRun(
        significant=rank_results(results),
        excluded=excluded,
        failed=failed,
        duplicates=duplicates,
        article_total=article_total,
        kp_count=kp_count,
        config=config,
        diagnostic=diagnostic,
    )
