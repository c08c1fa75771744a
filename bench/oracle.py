"""Reference answers for the correctness gate.

Local counts come from a linear scan over the generated token-id arrays,
with no index and no tokenizer involved.  Remote counts come from the
stub's count model (:class:`inputs.RemoteCountModel`, which has the same
methods) evaluated in-process, with no HTTP involved.  Tail probabilities
come from a 256-bit-precision sum of hypergeometric terms; ``selftest.py``
checks it against the exact rational oracle of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

from inputs import Corpus

# Relative tolerance the test suite holds fisher_one_sided to.
P_REL_TOL = 1e-10
# Above this many draws fisher_one_sided leaves exact binomials for the
# log-factorial table, whose documented accuracy is "roughly one ulp of
# log(grand_total!)"; nine such terms enter each log-probability.
EXACT_DRAW_LIMIT = 10_000
LOG_FACTORIAL_ULPS = 16
_SMALLEST_NORMAL = 2.2250738585072014e-308


class ScanOracle:
    """Date-censored phrase counts by scanning every document's tokens."""

    def __init__(self, corpus: Corpus):
        self._corpus = corpus
        self._docs: dict[str, "numpy.ndarray"] = {}  # noqa: F821

    def _in_range(self, start: date, end: date):
        dates = self._corpus.dates
        return (dates >= start.toordinal()) & (dates <= end.toordinal())

    def _docs_with(self, phrase: str):
        import numpy as np

        if phrase not in self._docs:
            tokens = self._corpus.tokens
            ids = self._corpus.token_ids(phrase)
            if ids is None or len(ids) > tokens.shape[1]:
                found = np.zeros(tokens.shape[0], dtype=bool)
            else:
                width = tokens.shape[1] - len(ids) + 1
                hit = np.ones((tokens.shape[0], width), dtype=bool)
                for offset, token_id in enumerate(ids):
                    hit &= tokens[:, offset : offset + width] == token_id
                found = hit.any(axis=1)
            self._docs[phrase] = found
        return self._docs[phrase]

    def article_count(self, start: date, end: date) -> int:
        return int(self._in_range(start, end).sum())

    def count(self, phrase: str, start: date, end: date) -> int:
        return int((self._docs_with(phrase) & self._in_range(start, end)).sum())

    def count_both(self, phrase_a: str, phrase_b: str, start: date, end: date) -> int:
        both = self._docs_with(phrase_a) & self._docs_with(phrase_b)
        return int((both & self._in_range(start, end)).sum())


def upper_tail(targ_kp: int, targ_no_kp: int, no_targ_kp: int, no_targ_no_kp: int):
    """P(X >= targ_kp) for the table's margins, as a 256-bit mpmath number.

    Terms are summed outward from the observed count (or, when that lies
    below the mode, the lower tail is summed and subtracted from one) until
    a geometric bound on the remainder falls below 2**-120 of the sum.
    """
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.prec = 256
    kp = targ_kp + no_targ_kp
    draws = targ_kp + targ_no_kp
    grand = draws + no_targ_kp + no_targ_no_kp
    lowest = max(0, draws + kp - grand)
    highest = min(draws, kp)
    if targ_kp <= lowest:
        return ctx.mpf(1)
    lg = ctx.loggamma

    def pmf(x: int):
        return ctx.exp(
            lg(kp + 1) - lg(x + 1) - lg(kp - x + 1)
            + lg(grand - kp + 1) - lg(draws - x + 1) - lg(grand - kp - draws + x + 1)
            - lg(grand + 1) + lg(draws + 1) + lg(grand - draws + 1)
        )

    def up(x: int):  # pmf(x + 1) / pmf(x)
        return ctx.mpf((kp - x) * (draws - x)) / ((x + 1) * (grand - kp - draws + x + 1))

    mode = (draws + 1) * (kp + 1) // (grand + 2)
    eps = ctx.mpf(2) ** -120
    if targ_kp >= mode:
        x, term, total = targ_kp, pmf(targ_kp), ctx.mpf(0)
        while True:
            total += term
            if x >= highest:
                return total
            ratio = up(x)
            if ratio < 1 and term * ratio / (1 - ratio) <= total * eps:
                return total
            term *= ratio
            x += 1
    x, term, total = targ_kp - 1, pmf(targ_kp - 1), ctx.mpf(0)
    while True:
        total += term
        if x <= lowest:
            break
        ratio = 1 / up(x - 1)  # pmf(x - 1) / pmf(x)
        if ratio < 1 and term * ratio / (1 - ratio) <= total * eps:
            break
        term *= ratio
        x -= 1
    return 1 - total


def p_tolerance(draws: int, grand: int) -> float:
    """Relative error fisher_one_sided is documented to stay within."""
    if draws <= EXACT_DRAW_LIMIT:
        return P_REL_TOL
    return max(P_REL_TOL, LOG_FACTORIAL_ULPS * math.ulp(math.lgamma(grand + 1)))


def p_value_error(p: float, targ_kp: int, targ_no_kp: int, no_targ_kp: int, no_targ_no_kp: int) -> str | None:
    """Describe how ``p`` misses the reference, or None when it is within tolerance."""
    exact = upper_tail(targ_kp, targ_no_kp, no_targ_kp, no_targ_no_kp)
    draws = targ_kp + targ_no_kp
    grand = draws + no_targ_kp + no_targ_no_kp
    tol = p_tolerance(draws, grand)
    if exact < _SMALLEST_NORMAL:
        # Subnormal and underflowing tails: only the order of magnitude survives.
        if p <= _SMALLEST_NORMAL and p > 0.0:
            return None
        return f"p={p!r} but the exact tail {float(exact):.3e} is below the normal range"
    rel = abs((p - exact) / exact)
    if rel <= tol:
        return None
    return f"p={p!r} vs exact {float(exact)!r}: relative error {float(rel):.2e} > {tol:.1e}"


@dataclass(frozen=True)
class TermCheck:
    """The four counts and p-value the program reported for one term."""

    term: str
    article_total: int
    kp_count: int
    term_count: int
    both_count: int | None
    p_value: float | None


def check_term(
    oracle, check: TermCheck, key_phrase: str, start: date, end: date
) -> list[str]:
    """Mismatches between one reported term and the oracle; empty when correct."""
    expected = {
        "article_total": oracle.article_count(start, end),
        "kp_count": oracle.count(key_phrase, start, end),
        "term_count": oracle.count(check.term, start, end),
    }
    if expected["term_count"]:
        expected["both_count"] = oracle.count_both(check.term, key_phrase, start, end)
    problems = [
        f"{check.term!r}: {name} {getattr(check, name)} != oracle {value}"
        for name, value in expected.items()
        if getattr(check, name) != value
    ]
    if problems or check.p_value is None:
        return problems
    a = check.both_count
    b = check.term_count - a
    c = check.kp_count - a
    d = check.article_total - a - b - c
    error = p_value_error(check.p_value, a, b, c, d)
    return [f"{check.term!r}: {error}"] if error else []
