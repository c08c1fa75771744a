"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every test checks both the substantive property and its wall-clock budget.
"""

import json
import random
import time
from datetime import date, timedelta
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from litminer import (
    ContingencyTable,
    DateRange,
    Document,
    MinerConfig,
    TermResult,
    TokenizedPhrase,
    build_index,
    build_query,
    fisher_one_sided,
    run_mining,
)
from litminer.cli import main
from litminer.output import display_ratio
from fixtures.reference_tables import ALL_TABLES
from helpers import StubCountProvider, parse_results_tsv, provider_for_table
from oracles import (
    hypergeom_upper_tail_exact,
    pretokenize,
    scan_article_count,
    scan_count_with,
    scan_count_with_both,
)
from remote_stub import CountingStubServer

# Two frozen rows can only be reproduced by rounding the exact quotient
# to four decimals and then to three (both half-up); every other row is a
# plain single half-up rounding to three decimals.
TWO_STAGE_ROUNDED_ROWS = {"LHX2", "HOXD9"}


def verdict(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {label}: {status}{suffix}")
    assert ok, f"criterion {number} {label} failed: {detail}"


def two_stage_round(both, term_count):
    exact = Decimal(both) / Decimal(term_count)
    coarse = exact.quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP)
    return str(coarse.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def result_for_row(table, term, both, term_count):
    return TermResult(
        term=term,
        both_count=both,
        term_count=term_count,
        kp_count=table.kp_total,
        article_total=table.article_total,
        ratio=both / term_count,
        p_value=0.0,
        significant=True,
    )


def test_criterion_1_ratio_fixture():
    began = time.perf_counter()
    spot_checks = {
        ("NANOG", 15, 59, "0.254"),
        ("GATA4", 302, 1294, "0.233"),
        ("HNF1A", 781, 849, "0.920"),
        ("GLYNASE", 16, 27, "0.593"),
    }
    all_rows = set()
    mismatches = []
    needed_two_stages = set()
    total_rows = 0
    for table in ALL_TABLES:
        for term, both, term_count, printed in table.rows:
            total_rows += 1
            all_rows.add((term, both, term_count, printed))
            rendered = display_ratio(result_for_row(table, term, both, term_count))
            # value comparison: a couple of frozen rows trim trailing
            # zeros ("0.35"), which is the same three-decimal rounding
            if Decimal(rendered) == Decimal(printed):
                continue
            if Decimal(two_stage_round(both, term_count)) == Decimal(printed):
                needed_two_stages.add(term)
            else:
                mismatches.append((table.label, term, rendered, printed))
    elapsed = time.perf_counter() - began
    ok = (
        total_rows == 110
        and not mismatches
        and needed_two_stages == TWO_STAGE_ROUNDED_ROWS
        and spot_checks <= all_rows
        and elapsed < 1.0
    )
    verdict(
        1,
        "ratio fixture",
        ok,
        f"{total_rows} rows, {total_rows - len(needed_two_stages)} single-stage,"
        f" {sorted(needed_two_stages)} via two-stage rounding,"
        f" {len(mismatches)} mismatches, {elapsed:.2f}s",
    )


def canonical_order(terms, counts):
    """Sorts each run of identical-count neighbours; identical counts give
    identical ratio and p, so their relative order is genuinely arbitrary."""
    out = []
    run = [terms[0]]
    for term in terms[1:]:
        if counts[term] == counts[run[-1]]:
            run.append(term)
        else:
            out.extend(sorted(run))
            run = [term]
    out.extend(sorted(run))
    return out


def test_criterion_2_ranking_fixture():
    began = time.perf_counter()
    problems = []
    tied_terms = 0
    rows_checked = 0
    for table in ALL_TABLES:
        counts = {term: (both, tc) for term, both, tc, _ in table.rows}
        shuffled = list(counts)
        random.Random(f"shuffle:{table.label}").shuffle(shuffled)
        config = MinerConfig(
            key_phrase=table.key_phrase,
            target_terms=tuple(shuffled),
            date_range=table.date_range,
        )
        run = run_mining(provider_for_table(table), config)
        if run.excluded or run.failed:
            problems.append(f"{table.label}: unexpected exclusions or failures")
            continue
        got = [r.term for r in run.significant]
        expected = [row[0] for row in table.rows]
        rows_checked += len(expected)
        tied_terms += sum(
            1
            for t in expected
            if sum(1 for u in expected if counts[u] == counts[t]) > 1
        )
        if canonical_order(got, counts) != canonical_order(expected, counts):
            problems.append(f"{table.label}: order mismatch")
    elapsed = time.perf_counter() - began
    ok = not problems and rows_checked == 110 and elapsed < 1.0
    verdict(
        2,
        "ranking fixture",
        ok,
        f"4 tables, {rows_checked} rows replayed through the miner,"
        f" {tied_terms} terms in identical-count tie classes,"
        f" {problems if problems else 'printed order reproduced'}, {elapsed:.2f}s",
    )


def test_criterion_3_fet_oracle_equivalence():
    began = time.perf_counter()
    rng = random.Random(20040131)
    worst = 0.0
    checked = 0
    hand = fisher_one_sided(ContingencyTable(3, 1, 1, 3))
    hand_err = abs(hand - 17 / 70) / (17 / 70)
    worst = max(worst, hand_err)
    for _ in range(10_000):
        cells = [rng.randint(0, 50) for _ in range(4)]
        table = ContingencyTable(*cells)
        exact = hypergeom_upper_tail_exact(*cells)
        p = fisher_one_sided(table)
        err = abs(Fraction(p) - exact) / exact if exact else Fraction(0)
        worst = max(worst, float(err))
        checked += 1
    elapsed = time.perf_counter() - began
    ok = worst <= 1e-10 and elapsed < 30.0
    verdict(
        3,
        "FET oracle equivalence",
        ok,
        f"{checked} random tables plus hand case, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_fet_degenerate_cases():
    began = time.perf_counter()
    checked = 0
    failures = 0
    for grand in range(0, 21):
        for kp in range(0, grand + 1):
            for term in range(0, grand + 1):
                x_min = max(0, term + kp - grand)
                table = ContingencyTable(
                    x_min, term - x_min, kp - x_min, grand - term - kp + x_min
                )
                checked += 1
                if fisher_one_sided(table) != 1.0:
                    failures += 1
                if (term == 0 or kp == 0) and fisher_one_sided(table) != 1.0:
                    failures += 1
    elapsed = time.perf_counter() - began
    ok = failures == 0 and elapsed < 5.0
    verdict(
        4,
        "FET degenerate cases",
        ok,
        f"{checked} minimum-feasible tables over margins <= 20, {failures} failures,"
        f" {elapsed:.2f}s",
    )


VOCAB = [
    "alpha", "beta", "gamma", "delta", "stem", "cell", "line", "tumor",
    "gene", "protein", "assay", "mouse", "human", "culture", "growth",
    "factor", "receptor", "kinase", "signal", "pathway", "marker", "tissue",
    "clone", "vector", "screen", "panel", "cohort", "trial", "dose", "serum",
]


def synthetic_corpus(rng, n_docs, base=date(2000, 1, 1), days=3000):
    docs = []
    for i in range(n_docs):
        words = " ".join(rng.choice(VOCAB) for _ in range(rng.randint(0, 18)))
        docs.append(Document(f"d{i}", words, base + timedelta(days=rng.randrange(days))))
    return docs


def test_criterion_5_index_oracle_equivalence():
    began = time.perf_counter()
    rng = random.Random(1905)
    corpora = 0
    checks = 0
    mismatches = 0
    for _ in range(500):
        docs = synthetic_corpus(rng, rng.randint(0, 1000))
        corpora += 1
        index = build_index(docs)
        scannable = pretokenize(docs)
        for _ in range(2):
            start = date(2000, 1, 1) + timedelta(days=rng.randrange(3000))
            end = start + timedelta(days=rng.randrange(2000))
            date_range = DateRange(start, end)
            phrase = tuple(rng.choice(VOCAB) for _ in range(rng.randint(1, 4)))
            other = tuple(rng.choice(VOCAB) for _ in range(rng.randint(1, 4)))
            checks += 3
            if index.article_count(date_range) != scan_article_count(scannable, start, end):
                mismatches += 1
            if index.count_with(TokenizedPhrase(phrase), date_range) != scan_count_with(
                scannable, phrase, start, end
            ):
                mismatches += 1
            if index.count_with_both(
                TokenizedPhrase(phrase), TokenizedPhrase(other), date_range
            ) != scan_count_with_both(scannable, phrase, other, start, end):
                mismatches += 1
    elapsed = time.perf_counter() - began
    ok = mismatches == 0 and corpora == 500 and elapsed < 60.0
    verdict(
        5,
        "index-oracle equivalence",
        ok,
        f"{corpora} corpora, {checks} count checks, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_6_censoring_monotonicity():
    began = time.perf_counter()
    rng = random.Random(1906)
    docs = synthetic_corpus(rng, 400)
    index = build_index(docs)
    phrase_a = TokenizedPhrase(("stem", "cell"))
    phrase_b = TokenizedPhrase(("alpha",))
    start = date(1900, 1, 1)
    cuts = [date(2000, 1, 1) + timedelta(days=round(i * 3200 / 49)) for i in range(50)]
    previous = None
    violations = 0
    for cut in cuts:
        r = DateRange(start, cut)
        snapshot = (
            index.article_count(r),
            index.count_with(phrase_a, r),
            index.count_with(phrase_b, r),
            index.count_with_both(phrase_a, phrase_b, r),
        )
        if previous is not None and any(c < p for c, p in zip(snapshot, previous)):
            violations += 1
        previous = snapshot
    elapsed = time.perf_counter() - began
    ok = violations == 0 and elapsed < 10.0
    verdict(
        6,
        "censoring monotonicity",
        ok,
        f"50 cut points, 4 tracked counts, {violations} violations, {elapsed:.2f}s",
    )


def test_criterion_7_query_grammar_golden():
    began = time.perf_counter()
    query = build_query(
        "NANOG",
        "embryonic stem cell",
        date_range=DateRange(date(1900, 1, 1), date(2004, 12, 31)),
    )
    golden = b'"NANOG" AND "embryonic stem cell" AND (FIRST_PDATE:[1900-01-01 TO 2004-12-31])'
    elapsed = time.perf_counter() - began
    ok = query.encode("utf-8") == golden
    verdict(7, "query grammar golden", ok, f"byte-identical, {elapsed * 1000:.1f}ms")


def _hundred_terms(rng):
    """100 synthetic target terms: single words, two-word phrases, a few
    absent from the corpus, and one duplicate spelling pair."""
    terms = []
    for i in range(40):
        terms.append(rng.choice(VOCAB))
    for i in range(30):
        terms.append(f"{rng.choice(VOCAB)} {rng.choice(VOCAB)}")
    for i in range(28):
        terms.append(f"unseen{i}")
    terms.append("Stem Cell")
    terms.append("ALPHA")
    unique = []
    seen = set()
    for term in terms:
        if term not in seen:
            seen.add(term)
            unique.append(term)
    while len(unique) < 100:
        unique.append(f"extra{len(unique)}")
    return unique[:100]


def test_criterion_8_end_to_end_determinism(tmp_path):
    began = time.perf_counter()
    rng = random.Random(1908)

    corpus_path = tmp_path / "corpus.jsonl"
    docs = synthetic_corpus(rng, 150)
    # random draws rarely produce the key phrase as an adjacent bigram, so
    # seed one stem-cell document per vocabulary word to guarantee real
    # co-occurrence for the local run
    for i, word in enumerate(VOCAB):
        docs.append(
            Document(
                f"seed{i}",
                f"stem cell {word} panel",
                date(2001, 1, 1) + timedelta(days=31 * i),
            )
        )
    corpus_path.write_text(
        "\n".join(
            json.dumps({"id": d.doc_id, "date": d.pub_date.isoformat(), "text": d.text})
            for d in docs
        )
        + "\n",
        encoding="utf-8",
    )
    index_path = tmp_path / "corpus.idx"
    assert main(["index", "--corpus", str(corpus_path), "--output", str(index_path)]) == 0

    terms_path = tmp_path / "terms.txt"
    terms_path.write_text("\n".join(_hundred_terms(rng)) + "\n", encoding="utf-8")

    def run_local(name, fmt):
        out = tmp_path / name
        code = main(
            [
                "mine",
                "--index",
                str(index_path),
                "--key-phrase",
                "stem cell",
                "--terms",
                str(terms_path),
                "--p-threshold",
                "0.5",
                "--to",
                "2010-12-31",
                "--format",
                fmt,
                "--output",
                str(out),
            ]
        )
        assert code == 0
        return out.read_bytes(), (tmp_path / f"{name}.report.json").read_bytes()

    tsv_first = run_local("local_a.tsv", "tsv")
    tsv_second = run_local("local_b.tsv", "tsv")
    json_first = run_local("local_a.json", "structured")
    json_second = run_local("local_b.json", "structured")
    local_ok = tsv_first == tsv_second and json_first == json_second
    local_rows = len(parse_results_tsv(tsv_first[0].decode("utf-8")))
    local_nonempty = local_rows > 0

    # remote: the first run fills the cache, the second must stay offline
    date_clause = "(FIRST_PDATE:[1900-01-01 TO 2004-12-31])"
    responses = {date_clause: 1_000_000, f'"stem cell" AND {date_clause}': 800}
    terms = _hundred_terms(random.Random(1918))
    for term in terms:
        term_count = rng.randint(1, 1500)
        both = rng.randint(0, min(term_count, 800))
        responses[f'"{term}" AND {date_clause}'] = term_count
        responses[f'"{term}" AND "stem cell" AND {date_clause}'] = both
    client_config = tmp_path / "client.json"
    client_config.write_text(
        json.dumps({"requests_per_second": 100000, "backoff_base": 0.001}),
        encoding="utf-8",
    )
    remote_terms = tmp_path / "remote_terms.txt"
    remote_terms.write_text("\n".join(terms) + "\n", encoding="utf-8")

    def run_remote(server, name):
        out = tmp_path / name
        code = main(
            [
                "mine",
                "--endpoint",
                server.url,
                "--client-config",
                str(client_config),
                "--cache",
                str(tmp_path / "counts.jsonl"),
                "--key-phrase",
                "stem cell",
                "--terms",
                str(remote_terms),
                "--from",
                "1900-01-01",
                "--to",
                "2004-12-31",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        return out.read_bytes()

    with CountingStubServer(responses=responses) as server:
        remote_first = run_remote(server, "remote_a.tsv")
        cold_traffic = server.request_count
        remote_second = run_remote(server, "remote_b.tsv")
        warm_traffic = server.request_count - cold_traffic

    remote_ok = remote_first == remote_second and cold_traffic > 0 and warm_traffic == 0
    elapsed = time.perf_counter() - began
    ok = local_ok and local_nonempty and remote_ok and elapsed < 30.0
    verdict(
        8,
        "end-to-end determinism",
        ok,
        f"local byte-identical={local_ok} with {local_rows} result rows,"
        f" remote byte-identical={remote_first == remote_second},"
        f" warm-cache traffic {warm_traffic} after {cold_traffic} cold requests,"
        f" {elapsed:.1f}s",
    )


def test_criterion_9_threshold_semantics():
    began = time.perf_counter()
    rng = random.Random(1909)
    default_threshold = 1e-5
    lower_threshold = 1e-9
    violations = 0
    truncation_breaks = 0
    emitted = 0
    for _ in range(30):
        article_total = rng.randint(50_000, 200_000)
        kp_count = rng.randint(100, 1_000)
        counts = {}
        for t in range(20):
            term_count = rng.randint(1, 3_000)
            limit = min(term_count, kp_count)
            # skew towards the key phrase so a usable share clears 1e-5
            both = min(limit, rng.randint(0, max(1, term_count // 3)))
            counts[f"term{t}"] = (term_count, both)
        provider = StubCountProvider(article_total, "stem cell", kp_count, counts)
        config = MinerConfig(
            key_phrase="stem cell",
            target_terms=tuple(counts),
            date_range=DateRange(date(1900, 1, 1), date(2004, 12, 31)),
            p_threshold=default_threshold,
        )
        base_run = run_mining(provider, config)
        emitted += len(base_run.significant)
        for r in base_run.significant:
            if not (r.p_value < default_threshold):
                violations += 1
        lower_config = MinerConfig(
            key_phrase="stem cell",
            target_terms=tuple(counts),
            date_range=config.date_range,
            p_threshold=lower_threshold,
        )
        lower_run = run_mining(
            StubCountProvider(article_total, "stem cell", kp_count, counts), lower_config
        )
        expected = [r for r in base_run.significant if r.p_value < lower_threshold]
        got = [
            (r.term, r.both_count, r.term_count, r.ratio, r.p_value)
            for r in lower_run.significant
        ]
        want = [(r.term, r.both_count, r.term_count, r.ratio, r.p_value) for r in expected]
        if got != want:
            truncation_breaks += 1
    elapsed = time.perf_counter() - began
    ok = violations == 0 and truncation_breaks == 0 and emitted > 0 and elapsed < 10.0
    verdict(
        9,
        "threshold semantics",
        ok,
        f"{emitted} significant results across 30 runs, strict p < 1e-5 everywhere,"
        f" lowering to 1e-9 only filters, {elapsed:.2f}s",
    )
