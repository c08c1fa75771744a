"""Contingency tables, one-sided Fisher's exact test, co-occurrence ratios."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import LitminerError

# Smallest positive double; extreme tables can push the true p-value below
# what floating point can represent, and the contract is 0 < p <= 1.
_MIN_P = math.ulp(0.0)

_LOG_2PI = math.log(2.0 * math.pi)

# stirlerr(n) for n = 0..15 from exact factorials; stirlerr(0) is taken as 0.
_STIRLERR_SMALL = (0.0,) + tuple(
    math.log(math.factorial(n)) - (n + 0.5) * math.log(n) + n - 0.5 * _LOG_2PI
    for n in range(1, 16)
)
# Coefficients of the asymptotic series of stirlerr in 1 / n.
_S0 = 1.0 / 12.0
_S1 = 1.0 / 360.0
_S2 = 1.0 / 1260.0
_S3 = 1.0 / 1680.0
_S4 = 1.0 / 1188.0


class InconsistentCountsError(LitminerError, ValueError):
    """Raised when four counts cannot form a non-negative 2x2 table."""


class UndefinedRatioError(LitminerError, ValueError):
    """Raised when a ratio's denominator count is zero."""


@dataclass(frozen=True)
class ContingencyTable:
    """Document counts for one term against the key phrase.

    ``targ_kp`` counts documents with both the term and the key phrase,
    ``targ_no_kp`` those with the term only, ``no_targ_kp`` those with the
    key phrase only, and ``no_targ_no_kp`` the remainder of the corpus.
    """

    targ_kp: int
    targ_no_kp: int
    no_targ_kp: int
    no_targ_no_kp: int

    def __post_init__(self) -> None:
        for name in ("targ_kp", "targ_no_kp", "no_targ_kp", "no_targ_no_kp"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"cell {name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"cell {name} is negative: {value}")

    @property
    def term_total(self) -> int:
        return self.targ_kp + self.targ_no_kp

    @property
    def kp_total(self) -> int:
        return self.targ_kp + self.no_targ_kp

    @property
    def grand_total(self) -> int:
        return self.targ_kp + self.targ_no_kp + self.no_targ_kp + self.no_targ_no_kp


def derive_table(
    article_total: int, kp_total: int, term_total: int, both_count: int
) -> ContingencyTable:
    """Build the 2x2 table from the four raw counts a pipeline run collects.

    Raises :class:`InconsistentCountsError` naming the first derived cell
    that would go negative, so inconsistent backend answers surface with
    enough context to debug.
    """
    for name, value in (
        ("article_total", article_total),
        ("kp_total", kp_total),
        ("term_total", term_total),
        ("both_count", both_count),
    ):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} is negative: {value}")

    targ_kp = both_count
    targ_no_kp = term_total - both_count
    if targ_no_kp < 0:
        raise InconsistentCountsError(
            f"targ_no_kp = {targ_no_kp}: both_count {both_count} exceeds term_total {term_total}"
        )
    no_targ_kp = kp_total - both_count
    if no_targ_kp < 0:
        raise InconsistentCountsError(
            f"no_targ_kp = {no_targ_kp}: both_count {both_count} exceeds kp_total {kp_total}"
        )
    no_targ_no_kp = article_total - targ_kp - targ_no_kp - no_targ_kp
    if no_targ_no_kp < 0:
        raise InconsistentCountsError(
            f"no_targ_no_kp = {no_targ_no_kp}: kp_total {kp_total} plus term_total {term_total}"
            f" minus both_count {both_count} exceeds article_total {article_total}"
        )
    return ContingencyTable(targ_kp, targ_no_kp, no_targ_kp, no_targ_no_kp)


def stirlerr(n: int) -> float:
    """Error of Stirling's formula, log(n!) - log(sqrt(2 pi n) (n / e)**n).

    Tabulated up to 15; above, the asymptotic series is cut after as many
    terms as double precision needs at that size.
    """
    if n <= 15:
        return _STIRLERR_SMALL[n]
    nn = n * n
    if n > 500:
        return (_S0 - _S1 / nn) / n
    if n > 80:
        return (_S0 - (_S1 - _S2 / nn) / nn) / n
    if n > 35:
        return (_S0 - (_S1 - (_S2 - _S3 / nn) / nn) / nn) / n
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n


def bd0(x: float, mean: float) -> float:
    """Deviance term x log(x / mean) + mean - x, for x >= 0 and mean > 0.

    Close to the mean the two sides nearly cancel, so there it is summed
    as the series (x - mean) v + 2x (v^3/3 + v^5/5 + ...) with
    v = (x - mean) / (x + mean), which has no cancellation.  Loader sums
    it for |v| < 0.1; summing up to 0.25 keeps the closed form away from
    x / mean near 1, where rounding x / mean costs about 50 ulps of the
    result.
    """
    diff = x - mean
    if abs(diff) < 0.25 * (x + mean):
        v = diff / (x + mean)
        total = diff * v
        term = 2.0 * x * v
        v2 = v * v
        k = 3
        while True:
            term *= v2
            updated = total + term / k
            if updated == total:
                return updated
            total = updated
            k += 2
    return x * math.log(x / mean) + mean - x


def log_dbinom_raw(x: int, n: int, p: float, q: float) -> float:
    """log P(X = x) for X ~ Binomial(n, p), given q = 1 - p and 0 < p < 1.

    Loader's saddle-point form: Stirling errors plus two deviance terms,
    so no factorial or power of p is ever formed.
    """
    if x == 0:
        if n == 0:
            return 0.0
        return -bd0(n, n * q) - n * p if p < 0.1 else n * math.log(q)
    if x == n:
        return -bd0(n, n * p) - n * q if q < 0.1 else n * math.log(p)
    lc = stirlerr(n) - stirlerr(x) - stirlerr(n - x) - bd0(x, n * p) - bd0(n - x, n * q)
    # x (n - x) / n from exact integers: log1p(-x / n) would lose the
    # digits of n - x when x / n is close to 1.
    return lc - 0.5 * (_LOG_2PI + math.log(x * (n - x) / n))


def log_dhyper(x: int, kp: int, draws: int, grand: int) -> float:
    """log P(X = x) for X hypergeometric, requiring 0 < draws < grand.

    X counts the marked items in ``draws`` taken from ``grand``, of which
    ``kp`` are marked.  The pmf is a ratio of three binomial pmfs at
    p = draws / grand, each from :func:`log_dbinom_raw`, so it stays
    accurate at any ``grand`` (C. Loader, "Fast and Accurate Computation
    of Binomial Probabilities", 2000).
    """
    p = draws / grand
    q = (grand - draws) / grand
    return (
        log_dbinom_raw(x, kp, p, q)
        + log_dbinom_raw(draws - x, grand - kp, p, q)
        - log_dbinom_raw(draws, grand, p, q)
    )


def fisher_one_sided(table: ContingencyTable) -> float:
    """Upper-tail probability of the 2x2 table under fixed margins.

    This is the one-sided Fisher's exact test for over-representation:
    the probability that a hypergeometric draw of ``term_total`` documents
    from ``grand_total``, of which ``kp_total`` contain the key phrase,
    contains at least ``targ_kp`` key-phrase documents.  Always in (0, 1].

    Only a tail beyond the mean is summed: the upper tail itself or, when
    ``targ_kp`` is below the mean, the lower tail P(X < targ_kp), which is
    then subtracted from one.  The hypergeometric median is within one of
    the mean, so that lower tail is at most about one half and the
    subtraction loses no precision.  The first term comes from
    :func:`log_dhyper`; each further term is the previous one times the
    pmf ratio, until the support ends or a term no longer changes the
    total.  Tested to stay within 1e-10 relative error of exact rational
    arithmetic.
    """
    grand = table.grand_total
    kp = table.kp_total
    draws = table.term_total
    observed = table.targ_kp

    if observed <= max(0, draws + kp - grand):
        # The whole support is in the tail, including the degenerate
        # margins (term_total == 0 or kp_total == 0).
        return 1.0

    # X < observed exactly when the draws without the key phrase,
    # draws - X, number more than draws - observed.
    below_mean = observed * grand < kp * draws
    x, marked = (draws - observed + 1, grand - kp) if below_mean else (observed, kp)
    highest = min(draws, marked)
    term = math.exp(log_dhyper(x, marked, draws, grand))
    total = term
    while x < highest and term > total * math.ulp(1.0):
        # pmf(x + 1) / pmf(x) from exact integer products.
        term *= (marked - x) * (draws - x) / ((x + 1) * (grand - marked - draws + x + 1))
        total += term
        x += 1

    p = 1.0 - total if below_mean else total
    if p <= 0.0:
        return _MIN_P
    return min(p, 1.0)


def co_occurrence_ratio(table: ContingencyTable) -> float:
    """Fraction of the term's documents that also contain the key phrase."""
    if table.term_total == 0:
        raise UndefinedRatioError("co-occurrence ratio undefined: term_total is 0")
    return table.targ_kp / table.term_total


def keyphrase_cooccurrence_ratio(table: ContingencyTable) -> float:
    """Fraction of the key phrase's documents that also contain the term."""
    if table.kp_total == 0:
        raise UndefinedRatioError("co-occurrence ratio undefined: kp_total is 0")
    return table.targ_kp / table.kp_total
