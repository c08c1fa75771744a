"""Checks of the benchmark itself: seeded inputs, references and the gate.

    python3 bench/selftest.py

Exits non-zero on the first failed check.  Runs in a few seconds on small
inputs and leaves nothing behind in the checkout.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import dataclasses  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from itertools import islice  # noqa: E402
from math import comb  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402  (puts src/ and bench/ on sys.path)
import inputs  # noqa: E402
from oracle import ScanOracle, p_value_error, upper_tail  # noqa: E402


def hypergeom_upper_tail_exact(targ_kp, targ_no_kp, no_targ_kp, no_targ_no_kp) -> Fraction:
    """Exact P(X >= targ_kp) as a Fraction; a copy of the test suite's oracle."""
    kp_total = targ_kp + no_targ_kp
    term_total = targ_kp + targ_no_kp
    grand_total = targ_kp + targ_no_kp + no_targ_kp + no_targ_no_kp
    highest = min(term_total, kp_total)
    numerator = sum(
        comb(kp_total, x) * comb(grand_total - kp_total, term_total - x)
        for x in range(targ_kp, highest + 1)
    )
    if grand_total == 0:
        return Fraction(1)
    return Fraction(numerator, comb(grand_total, term_total))


def small_corpus(path: Path, seed: int) -> inputs.Corpus:
    vocab = inputs.zipf_vocabulary(seed, run.VOCAB_SIZE)
    return inputs.generate_corpus(path, seed, 500, (20, 40), vocab, planted=run.PLANTED)


def check_inputs_are_seeded(workdir: Path) -> None:
    a, b, c = (workdir / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    corpus = small_corpus(a, 1)
    small_corpus(b, 1)
    small_corpus(c, 2)
    assert a.read_bytes() == b.read_bytes(), "one seed gave two corpora"
    assert a.read_bytes() != c.read_bytes(), "two seeds gave one corpus"
    first = list(islice(run.local_queries(1, corpus), 20))
    assert first == list(islice(run.local_queries(1, corpus), 20)), "local queries not seeded"
    assert first != list(islice(run.local_queries(2, corpus), 20)), "local queries ignore the seed"
    model_a, model_b = inputs.RemoteCountModel(1), inputs.RemoteCountModel(1)
    assert model_a.terms == model_b.terms and model_a.key_phrases == model_b.key_phrases
    assert list(islice(run.remote_queries(1, model_a), 20)) == list(islice(run.remote_queries(1, model_b), 20))
    assert model_a.terms != inputs.RemoteCountModel(2).terms, "remote model ignores the seed"


def check_tail_reference() -> None:
    rng = random.Random(0)
    tables = [tuple(rng.randint(0, 60) for _ in range(4)) for _ in range(200)]
    tables += [(25, 275, 475, 99_225), (1_600, 13_400, 400, 4_600), (90, 4_910, 210, 14_790)]
    for table in tables:
        exact = hypergeom_upper_tail_exact(*table)
        ref = upper_tail(*table)
        assert abs(ref / exact.numerator * exact.denominator - 1) <= 2.0**-100, table


def check_gate_catches_a_wrong_count(workdir: Path) -> None:
    """The gate passes the real provider and fails one that lies once."""
    path = workdir / "small.jsonl"
    corpus = small_corpus(path, 3)
    docs = list(run.storage_mod.read_corpus(path))
    index = run.index_mod.build_index(docs, built_at=inputs.BUILT_AT)
    query = next(run.local_queries(3, corpus))
    query = run.Query(query.key_phrase, query.terms[:run.GATE_TERMS], query.window)
    victim = query.terms[0]

    class OneWrongCount:
        def __init__(self, inner, method):
            self._inner, self._method = inner, method

        def article_total(self, date_range):
            return self._inner.article_total(date_range)

        def count_with(self, phrase, date_range):
            true = self._inner.count_with(phrase, date_range)
            return true + 1 if self._method == "count_with" and phrase == victim else true

        def count_with_both(self, phrase_a, phrase_b, date_range):
            true = self._inner.count_with_both(phrase_a, phrase_b, date_range)
            return true + 1 if self._method == "count_with_both" and phrase_a == victim else true

    honest = run.mining_mod.IndexCountProvider(index)
    for provider, should_fail in (
        (honest, False),
        (OneWrongCount(honest, "count_with"), True),
        (OneWrongCount(honest, "count_with_both"), True),
    ):
        outcome = run.Outcome()
        check = run.mine_check(ScanOracle(corpus), 3, outcome)
        problems, *_ = check(query, run.mine_op(provider, 1, workdir)(query, run._no_span))
        assert bool(problems) == should_fail, (should_fail, problems)


def check_gate_catches_a_wrong_p_value() -> None:
    table = (25, 275, 475, 99_225)
    exact = float(upper_tail(*table))
    assert p_value_error(exact, *table) is None
    assert p_value_error(exact * (1 + 1e-9), *table) is not None


def check_stub_counts_unmatched_queries(workdir: Path) -> None:
    data = run.setup_remote(5, workdir, 0, None)
    try:
        provider = run.epmc_mod.EpmcCountProvider(data.client)
        window = run.index_mod.DateRange(*run.FULL_SPAN)
        assert provider.count_with(data.model.terms[0], window) == data.model.count(data.model.terms[0], *run.FULL_SPAN)
        try:
            provider.count_with("phrase the model never made", window)
        except run.epmc_mod.TransportError:
            pass
        else:
            raise AssertionError("stub answered an unknown phrase")
        assert run.stub_stats(data)["unmatched"] == 1
    finally:
        run.discard_remote(data)


def check_stub_catches_a_repeated_request(workdir: Path) -> None:
    """A second client that bypasses the cache repeats a request and fails the gate."""
    data = run.setup_remote(6, workdir, 0, None)
    try:
        assert run.stub_problems(run.stub_stats(data), data.session) == []
        config = dataclasses.replace(data.client.config, bypass_cache=True)
        uncached = run.epmc_mod.EpmcCountProvider(run.epmc_mod.EpmcCountClient(config, session=data.session))
        uncached.count_with(data.model.terms[0], run.index_mod.DateRange(*run.FULL_SPAN))
        problems = run.stub_problems(run.stub_stats(data), data.session)
        assert any("query strings" in p for p in problems), problems
    finally:
        run.discard_remote(data)


def check_benchmark_json_lists_the_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units, key


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=run.ROOT))
    try:
        for name, check in (
            ("inputs are seeded", lambda: check_inputs_are_seeded(workdir)),
            ("tail reference matches the exact oracle", check_tail_reference),
            ("gate catches a wrong count", lambda: check_gate_catches_a_wrong_count(workdir)),
            ("gate catches a wrong p-value", check_gate_catches_a_wrong_p_value),
            ("stub counts unmatched queries", lambda: check_stub_counts_unmatched_queries(workdir)),
            ("stub catches a repeated request", lambda: check_stub_catches_a_repeated_request(workdir)),
            ("BENCHMARK.json lists the metrics run.py reports", check_benchmark_json_lists_the_metrics),
        ):
            check()
            print(f"ok  {name}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
