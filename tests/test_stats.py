import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from litminer import (
    ContingencyTable,
    InconsistentCountsError,
    UndefinedRatioError,
    co_occurrence_ratio,
    derive_table,
    fisher_one_sided,
    keyphrase_cooccurrence_ratio,
)
from litminer.stats import bd0, log_dhyper, stirlerr
from oracles import hypergeom_upper_tail_exact


def rel_err(approx, exact):
    if exact == 0:
        return abs(approx)
    return abs(approx - float(exact)) / float(exact)


class TestContingencyTable:
    def test_totals(self):
        table = ContingencyTable(3, 1, 1, 3)
        assert table.term_total == 4
        assert table.kp_total == 4
        assert table.grand_total == 8

    @pytest.mark.parametrize("cell", range(4))
    def test_rejects_negative_cells(self, cell):
        values = [1, 1, 1, 1]
        values[cell] = -1
        with pytest.raises(ValueError):
            ContingencyTable(*values)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            ContingencyTable(1.0, 1, 1, 1)
        with pytest.raises(ValueError):
            ContingencyTable(True, 1, 1, 1)


class TestDeriveTable:
    def test_cells(self):
        table = derive_table(article_total=8, kp_total=4, term_total=4, both_count=3)
        assert (table.targ_kp, table.targ_no_kp, table.no_targ_kp, table.no_targ_no_kp) == (
            3,
            1,
            1,
            3,
        )

    def test_both_exceeding_term_total(self):
        with pytest.raises(InconsistentCountsError, match="targ_no_kp"):
            derive_table(article_total=50, kp_total=30, term_total=10, both_count=20)

    def test_both_exceeding_kp_total(self):
        with pytest.raises(InconsistentCountsError, match="no_targ_kp"):
            derive_table(article_total=50, kp_total=5, term_total=10, both_count=7)

    def test_union_exceeding_article_total(self):
        with pytest.raises(InconsistentCountsError, match="no_targ_no_kp"):
            derive_table(article_total=10, kp_total=8, term_total=7, both_count=2)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("kp_total", True, "kp_total must be an integer, got True"),
            ("term_total", 2.0, "term_total must be an integer, got 2.0"),
            ("both_count", -1, "both_count is negative: -1"),
        ],
    )
    def test_raw_count_that_is_not_a_count(self, name, value, message):
        counts = {"article_total": 10, "kp_total": 4, "term_total": 4, "both_count": 2}
        with pytest.raises(ValueError, match=message):
            derive_table(**{**counts, name: value})


class TestFisherOneSided:
    def test_hand_case(self):
        p = fisher_one_sided(ContingencyTable(3, 1, 1, 3))
        assert rel_err(p, Fraction(17, 70)) <= 1e-12

    def test_six_doc_values(self):
        assert rel_err(fisher_one_sided(ContingencyTable(3, 0, 0, 3)), Fraction(1, 20)) <= 1e-12
        # observed co-occurrence at the support minimum: the tail is everything
        assert fisher_one_sided(ContingencyTable(1, 3, 2, 0)) == 1.0

    def test_zero_margins_give_one(self):
        assert fisher_one_sided(ContingencyTable(0, 0, 5, 5)) == 1.0
        assert fisher_one_sided(ContingencyTable(0, 5, 0, 5)) == 1.0
        assert fisher_one_sided(ContingencyTable(0, 0, 0, 0)) == 1.0

    def test_zero_observed_gives_one(self):
        assert fisher_one_sided(ContingencyTable(0, 10, 10, 10)) == 1.0

    def test_matches_oracle_on_fixed_grid(self):
        for kp in (0, 1, 3, 7):
            for term in (0, 1, 4, 9):
                for extra in (0, 5, 12):
                    for both in range(0, min(kp, term) + 1):
                        table = derive_table(kp + term - both + extra, kp, term, both)
                        exact = hypergeom_upper_tail_exact(
                            table.targ_kp,
                            table.targ_no_kp,
                            table.no_targ_kp,
                            table.no_targ_no_kp,
                        )
                        assert rel_err(fisher_one_sided(table), exact) <= 1e-10

    def test_large_scale_against_oracle(self):
        table = derive_table(100_000, 500, 300, 25)
        exact = hypergeom_upper_tail_exact(
            table.targ_kp, table.targ_no_kp, table.no_targ_kp, table.no_targ_no_kp
        )
        assert rel_err(fisher_one_sided(table), exact) <= 1e-10

    @pytest.mark.parametrize(
        "article_total, kp_total, term_total, both_count",
        [
            (40_000_000, 40, 9_999, 2),
            (40_000_000, 40, 10_001, 2),
            (40_000_000, 60, 12_000, 3),
            # Just below the mean of 9,990.999, so the lower tail is
            # summed; the oracle's binomials stay small because almost
            # every document has the key phrase.
            (40_000_000, 39_960_000, 10_001, 9_990),
        ],
    )
    def test_corpus_scale_against_oracle(self, article_total, kp_total, term_total, both_count):
        # Europe-PMC-sized grand totals; the oracle's bigints make larger
        # margins too slow for the suite.
        table = derive_table(article_total, kp_total, term_total, both_count)
        exact = hypergeom_upper_tail_exact(
            table.targ_kp, table.targ_no_kp, table.no_targ_kp, table.no_targ_no_kp
        )
        assert rel_err(fisher_one_sided(table), exact) <= 1e-10

    @pytest.mark.parametrize(
        "article_total, kp_total, term_total, both_count",
        [
            # The mean is 15: just below it, at it and just above it.
            (10_000, 500, 300, 14),
            (10_000, 500, 300, 15),
            (10_000, 500, 300, 16),
            # The mean is 540 and the support starts at 500.
            (1_000, 900, 600, 539),
            (1_000, 900, 600, 541),
            # The mean is 33.98 and the mode 34.
            (10_000, 100, 3_398, 34),
            # The mode is 5 and the mean 5.85.
            (10_000, 100, 585, 5),
        ],
    )
    def test_either_side_of_the_mean_against_oracle(
        self, article_total, kp_total, term_total, both_count
    ):
        table = derive_table(article_total, kp_total, term_total, both_count)
        exact = hypergeom_upper_tail_exact(
            table.targ_kp, table.targ_no_kp, table.no_targ_kp, table.no_targ_no_kp
        )
        assert rel_err(fisher_one_sided(table), exact) <= 1e-10

    def test_underflow_clamps_to_smallest_positive_float(self):
        table = derive_table(27_500_000, 100_000, 20_000, 15_000)
        p = fisher_one_sided(table)
        assert p == math.ulp(0.0)
        assert p > 0.0

    def test_tail_is_monotone_in_observed_count(self):
        # In the second shape the mean is 10.005, so the sum changes sides
        # between observed counts 10 and 11.
        for draws, kp, grand in ((40, 60, 200), (2_001, 500, 100_000)):
            previous = None
            for observed in range(0, min(draws, kp) + 1):
                table = ContingencyTable(
                    observed, draws - observed, kp - observed, grand - draws - kp + observed
                )
                p = fisher_one_sided(table)
                if previous is not None:
                    assert p <= previous + 1e-15, (draws, kp, grand, observed)
                previous = p

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_random_tables(self, a, b, c, d):
        table = ContingencyTable(a, b, c, d)
        exact = hypergeom_upper_tail_exact(a, b, c, d)
        p = fisher_one_sided(table)
        assert 0.0 < p <= 1.0
        assert rel_err(p, exact) <= 1e-10


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def stirlerr_exact(n):
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(n)
        return Decimal(math.factorial(n)).ln() - (d + Decimal("0.5")) * d.ln() + d - (2 * _PI).sqrt().ln()


def bd0_exact(x, mean):
    with localcontext() as ctx:
        ctx.prec = 60
        x, mean = Decimal(x), Decimal(mean)
        return x * (x / mean).ln() + mean - x


def pmf_rel_err(x, kp, draws, grand):
    """Relative error of exp(log_dhyper(...)) against the rational pmf.

    Computed exactly in integers and rounded once; no gcd of the huge
    binomials is ever taken.
    """
    num = math.comb(kp, x) * math.comb(grand - kp, draws - x)
    den = math.comb(grand, draws)
    a, b = math.exp(log_dhyper(x, kp, draws, grand)).as_integer_ratio()
    return abs(a * den - b * num) / (b * num)


STIRLERR_CUTS = (15, 16, 35, 36, 80, 81, 500, 501)


class TestLoaderParts:
    @pytest.mark.parametrize("n", [*range(1, 40), 79, 80, 81, 82, 499, 500, 501, 502, 10_000])
    def test_stirlerr(self, n):
        assert abs(Decimal(stirlerr(n)) - stirlerr_exact(n)) <= Decimal("1e-14")

    @pytest.mark.parametrize(
        "x, mean",
        [
            (40_000, 40_000.0),  # no deviance
            (10, 10.5),
            (100, 61.0),  # series, just inside |x - mean| < 0.25 (x + mean)
            (100, 59.0),  # closed form, just outside
            (100, 166.0),
            (100, 168.0),
            (7_118, 5_237.3),
            (1, 40.0),
            (3, 1e-3),
            (500_000, 100_000.0),
        ],
    )
    def test_bd0(self, x, mean):
        exact = bd0_exact(x, mean)
        assert abs(Decimal(bd0(x, mean)) - exact) <= Decimal("1e-15") * exact


class TestLogDhyper:
    @pytest.mark.parametrize("n", STIRLERR_CUTS)
    def test_stirlerr_cut_points(self, n):
        # n as the observed count, as the marked total, as the unmarked
        # total and as the draws, so every Stirling-error argument role
        # meets each side of every cut.
        for x, kp, draws, grand in (
            (n, 2 * n, 2 * n, 4 * n),
            (n // 2, n, n, 3 * n),
            (3, 10, n, n + 10),
            (7, n + 7, 40, n + 47),
        ):
            assert pmf_rel_err(x, kp, draws, grand) <= 1e-12, (x, kp, draws, grand)

    @pytest.mark.parametrize(
        "x, kp, draws, grand",
        [
            # Every deviance term is summed as a series: at the mode, and
            # about 15 standard deviations out on either side.
            (250, 1_000, 1_000, 4_000),
            (500, 5_000, 10_000, 100_000),
            (25_000, 50_000, 50_000, 100_000),
            (26_200, 50_000, 50_000, 100_000),
            (23_800, 50_000, 50_000, 100_000),
            # Some deviance terms take the closed form, above and below
            # their mean.
            (450, 1_000, 1_000, 4_000),
            (900, 5_000, 10_000, 100_000),
            (250, 5_000, 10_000, 100_000),
            (20, 60_000, 100, 100_000),
            (95, 60_000, 100, 100_000),
            (1, 60_000, 100, 100_000),
            # Deep tails where deviance terms have x / mean near 1.2: the
            # closed form would lose about 50 ulps there, the series not.
            (4_677, 10_793, 31_962, 54_233),
            (45_256, 54_736, 72_591, 91_789),
        ],
    )
    def test_deviance_branches(self, x, kp, draws, grand):
        assert pmf_rel_err(x, kp, draws, grand) <= 1e-12

    @pytest.mark.parametrize(
        "x, kp, draws, grand",
        [
            (0, 30, 100, 10_000),  # x = 0, p < 0.1
            (0, 5, 300, 1_000),  # x = 0, p >= 0.1
            (5, 5, 100, 1_000),  # x = kp, q >= 0.1
            (5, 5, 950, 1_000),  # x = kp, q < 0.1
            (10, 50, 10, 1_000),  # x = draws
            (300, 900, 300, 1_000),  # x = draws, p >= 0.1
            (60, 100, 960, 1_000),  # draws - x = grand - kp, q < 0.1
            (100, 500, 600, 1_000),  # draws - x = grand - kp, q >= 0.1
            (1, 1, 1, 2),
            (0, 0, 1, 2),
            (69_990, 70_000, 99_990, 100_000),  # x = lowest, q < 0.1
            (100, 100, 3_999_999, 4_000_000),  # x = kp, draws = grand - 1
            (1, 100, 1, 4_000_000),  # x = draws = 1
        ],
    )
    def test_support_ends(self, x, kp, draws, grand):
        assert pmf_rel_err(x, kp, draws, grand) <= 1e-12

    @given(
        st.integers(min_value=2, max_value=5_000),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=-40, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_pmf(self, grand, kp_share, draw_share, z):
        kp = round(kp_share * grand)
        draws = min(grand - 1, max(1, round(draw_share * grand)))
        mean = draws * kp / grand
        sd = math.sqrt(mean * (1 - kp / grand) * (grand - draws) / grand)
        lowest, highest = max(0, draws + kp - grand), min(draws, kp)
        x = min(highest, max(lowest, round(mean + z * sd)))
        # Far enough into the tails the pmf leaves the normal range of a
        # double and only its order of magnitude survives.
        assume(log_dhyper(x, kp, draws, grand) > -700.0)
        assert pmf_rel_err(x, kp, draws, grand) <= 1e-12


class TestRatios:
    def test_term_denominator(self):
        assert co_occurrence_ratio(ContingencyTable(3, 1, 1, 3)) == 0.75

    def test_keyphrase_denominator(self):
        assert keyphrase_cooccurrence_ratio(ContingencyTable(3, 1, 5, 3)) == 0.375

    def test_zero_denominators_raise(self):
        with pytest.raises(UndefinedRatioError):
            co_occurrence_ratio(ContingencyTable(0, 0, 2, 2))
        with pytest.raises(UndefinedRatioError):
            keyphrase_cooccurrence_ratio(ContingencyTable(0, 2, 0, 2))
