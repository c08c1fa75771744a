"""Benchmark of the litminer pipeline: ingest, local mining, remote mining.

    python3 bench/run.py --workload {ingest,local-mine,remote-mine} \\
        --seed N --seconds S --trace {0,1}

Each invocation generates its inputs from the seed, sets up several times
(reporting the median), then runs the workload's operation in a closed
loop with one client for ``--seconds`` seconds and at least MIN_OPS
operations.  Every operation's output is checked against a reference
outside the timed region.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Generated files live in a temporary directory inside the
checkout that is removed on exit; traced runs write their spans to
``bench/out/``.  See bench/README.md for what each workload is for.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import requests  # noqa: E402
from oracle import EXACT_DRAW_LIMIT, ScanOracle, TermCheck, check_term  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

try:
    from litminer import epmc as epmc_mod
    from litminer import index as index_mod
    from litminer import mining as mining_mod
    from litminer import output as output_mod
    from litminer import storage as storage_mod
    from litminer.tokenizer import TokenizedPhrase
except ImportError as exc:
    sys.exit(f"cannot import litminer from {ROOT / 'src'}: {exc}")

SETUP_REPEATS = 3
# The p90 needs at least ten samples beyond it.
MIN_OPS = 100
# Terms per query whose four counts and p-value the gate checks.
GATE_TERMS = 2
FULL_SPAN = (inputs.SPAN_START, inputs.SPAN_END)
VOCAB_SIZE = 20_000
PLANTED = {"stem cell": 0.10, "gene expression": 0.02}
PLANTED_KEY_PHRASES = tuple(PLANTED)

# ingest: 100k abstract-length documents, indexed one 800-document file at a time.
INGEST_FILES = 125
INGEST_DOCS_PER_FILE = 800
INGEST_DOC_LEN = (20, 40)
# local-mine: the ROADMAP baseline shape at half the documents, so that
# three set-ups (each builds the index) fit the benchmark's time budget.
# The index is built and saved in a child process (bench/build_index.py);
# this process only loads it, as a `litminer mine` process does.
LOCAL_DOCS = 10_000
LOCAL_DOC_LEN = (150, 150)
# Each query takes one single word from each Zipf-rank stratum and one
# bigram from each stratum of its rarer word's rank, so queries of one key
# phrase do about the same work and latency quantiles do not hinge on
# whether a run happened to draw the most frequent words.
LOCAL_WORD_STRATA = (0, 2, 5, 10, 20, 35, 60, 100, 170, 300, 520, 1_000, 2_000, 5_000, 10_000, VOCAB_SIZE)
LOCAL_BIGRAM_STRATA = (0, 100, 500, 2_000, 8_000, VOCAB_SIZE)
# Single-word key phrases by Zipf rank, beside the planted two-word ones.
LOCAL_KEY_PHRASE_RANKS = (30, 150, 1_000)
# A five-year window makes a query several times cheaper than the full
# span.  With half the queries in each, the median would sit on the gap
# between the two groups and jump between runs; one in WINDOW_CYCLE pairs
# of queries uses a five-year window instead.
WINDOW_CYCLE = 4
# remote-mine: Europe-PMC-scale counts from a stub server in its own process.
REMOTE_TERMS_PER_QUERY = 20
REMOTE_PARALLELISM = 2


@dataclass
class Outcome:
    """What one workload run measured."""

    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    traced_op_s: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    properties: dict[str, float] = field(default_factory=dict)
    digest: object = field(default_factory=hashlib.sha256)


@dataclass(frozen=True)
class Query:
    key_phrase: str
    terms: tuple[str, ...]
    window: tuple


def _no_span(_name: str):
    return nullcontext()


def closed_loop(seconds: float, ops, cycle: int, run_op, check, tracer: Tracer | None, outcome: Outcome) -> None:
    """Run ``ops`` back to back for ``seconds`` and at least MIN_OPS operations.

    The workload's mix repeats every ``cycle`` operations; the loop stops
    only at the end of a cycle, so a faster or slower run measures the
    same mix, not a different share of each query class.  With a tracer, odd-numbered operations are traced and even ones are
    not, so both halves see the same mix and the same cache state.
    ``check`` runs untimed and returns (problems, bytes for the output
    digest, items done, seconds those items took or None for the whole
    operation).  The digest covers the first MIN_OPS operations only, so
    it does not depend on machine speed.
    """
    started = time.perf_counter()
    for i, op in enumerate(ops):
        if i >= MIN_OPS and i % cycle == 0 and time.perf_counter() - started >= seconds:
            break
        traced = tracer is not None and i % 2 == 1
        outcome.attempted += 1
        try:
            t0 = time.perf_counter()
            with tracer.installed(f"op{i}") if traced else nullcontext():
                result = run_op(op, tracer.span if traced else _no_span)
            elapsed = time.perf_counter() - t0
            problems, digest_bytes, items, item_s = check(op, result)
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome.failed += 1
            outcome.problems.append(f"op {i}: {type(exc).__name__}: {exc}")
            continue
        (outcome.traced_op_s if traced else outcome.op_s).append(elapsed)
        if not traced:
            outcome.rates.append(items / (elapsed if item_s is None else item_s))
        if i < MIN_OPS:
            outcome.digest.update(digest_bytes)
        if problems:
            outcome.failed += 1
            outcome.problems.extend(f"op {i}: {p}" for p in problems)
    else:
        outcome.problems.append("ran out of generated operations")


def repeated_setup(setup, tracer: Tracer | None, outcome: Outcome, discard=None):
    """Set up SETUP_REPEATS times, keep the last, record every duration.

    Each set-up regenerates the inputs from the seed, so the repeats also
    check that one seed gives byte-identical inputs.
    """
    result, digests = None, set()
    for rep in range(SETUP_REPEATS):
        if result is not None and discard is not None:
            discard(result)
        result = None  # free the previous set-up before timing the next
        t0 = time.perf_counter()
        with tracer.installed(f"setup{rep}") if tracer is not None else nullcontext():
            result = setup(rep)
        outcome.setup_s.append(time.perf_counter() - t0)
        digests.add(result.input_digest)
    if len(digests) != 1:
        outcome.problems.append("one seed generated different inputs on repeated set-up")
    return result


# --- ingest ---------------------------------------------------------------


@dataclass
class IngestInputs:
    input_digest: str
    files: list[tuple[Path, inputs.Corpus]]


def setup_ingest(seed: int, workdir: Path) -> IngestInputs:
    # One file at a time, so generating the inputs does not set the peak RSS.
    vocab = inputs.zipf_vocabulary(seed, VOCAB_SIZE)
    digest = hashlib.sha256()
    files = []
    for f in range(INGEST_FILES):
        path = workdir / f"ingest-{f:03d}.jsonl"
        part = inputs.generate_corpus(
            path, (seed, f), INGEST_DOCS_PER_FILE, INGEST_DOC_LEN, vocab, planted=PLANTED, id_prefix=f"f{f:03d}-"
        )
        digest.update(part.sha256.encode())
        files.append((path, part))
    return IngestInputs(digest.hexdigest(), files)


def run_ingest(seed: int, seconds: float, workdir: Path, tracer: Tracer | None, outcome: Outcome) -> None:
    data = repeated_setup(lambda rep: setup_ingest(seed, workdir), tracer, outcome)
    if tracer is not None:
        # The tokenizer calls build_index makes, counting the tokens.
        tracer.patch(index_mod, "normalize_tokenize", "tokenizer.normalize_tokenize",
                     on_result=lambda tokens: tracer.note("tokens", len(tokens)))
    index_path = workdir / "ingest.idx"
    rng = random.Random(f"ingest-gate-{seed}")
    sizes = []

    def run_op(op, span):
        path, _part = op
        t0 = time.perf_counter()
        with span("storage.read_corpus"):
            docs = list(storage_mod.read_corpus(path))
        with span("index.build_index"):
            built = index_mod.build_index(docs, corpus_name=path.stem, built_at=inputs.BUILT_AT)
        with span("storage.save_index"):
            storage_mod.save_index(built, index_path)
        write_s = time.perf_counter() - t0
        with span("storage.load_index"):
            loaded = storage_mod.load_index(index_path)
        return loaded, len(docs), write_s

    def check(op, result):
        loaded, n_docs, write_s = result
        raw = index_path.read_bytes()
        sizes.append(len(raw))
        return ingest_problems(loaded, op[1], rng), raw, n_docs, write_s

    ops = (data.files[i % INGEST_FILES] for i in range(20 * INGEST_FILES))
    closed_loop(seconds, ops, 1, run_op, check, tracer, outcome)
    tokens = sum(int((part.tokens >= 0).sum()) for _path, part in data.files)
    outcome.properties.update({
        "input.docs": INGEST_DOCS_PER_FILE,
        "input.tokens_per_doc": tokens / (INGEST_FILES * INGEST_DOCS_PER_FILE),
        "storage.index_bytes": statistics.median(sizes),
        "storage.index_bytes_per_doc": statistics.median(sizes) / INGEST_DOCS_PER_FILE,
    })


def ingest_problems(loaded, part: inputs.Corpus, rng: random.Random) -> list[str]:
    """Compare a loaded index's counts for sampled phrases with the scan oracle."""
    oracle = ScanOracle(part)
    problems = []
    if loaded.doc_count != part.doc_count:
        problems.append(f"doc_count {loaded.doc_count} != {part.doc_count}")
    row = [t for t in part.tokens[rng.randrange(part.doc_count)].tolist() if t >= 0]
    pos = rng.randrange(len(row) - 1)
    word = part.vocab[row[pos]]
    bigram = f"{word} {part.vocab[row[pos + 1]]}"
    start, end = inputs.five_year_window(rng)
    window = index_mod.DateRange(start, end)
    a, b = TokenizedPhrase.from_text(word), TokenizedPhrase.from_text(bigram)
    for name, got, want in (
        ("article_count", loaded.article_count(window), oracle.article_count(start, end)),
        (f"count_with({word!r})", loaded.count_with(a, window), oracle.count(word, start, end)),
        (f"count_with({bigram!r})", loaded.count_with(b, window), oracle.count(bigram, start, end)),
        ("count_with_both", loaded.count_with_both(a, b, window), oracle.count_both(word, bigram, start, end)),
    ):
        if got != want:
            problems.append(f"{name} over {start}..{end}: index {got} != oracle {want}")
    return problems


# --- mining (shared by local-mine and remote-mine) ------------------------


def mine_op(provider, parallelism: int, outdir: Path):
    """One mine query as a `litminer mine` user waits for it."""

    def run_op(query: Query, span):
        config = mining_mod.MinerConfig(
            key_phrase=query.key_phrase,
            target_terms=query.terms,
            date_range=index_mod.DateRange(*query.window),
        )
        with span("mining.run_mining"):
            run = mining_mod.run_mining(provider, config, parallelism=parallelism)
        with span("output.render"):
            results = output_mod.render_results_tsv(run.significant)
            report = output_mod.render_report(run)
            manifest = json.dumps({
                "key_phrase": config.key_phrase,
                "date_range": [d.isoformat() for d in query.window],
                "parallelism": parallelism,
                "article_total": run.article_total,
                "kp_count": run.kp_count,
                "tallies": run.tallies,
            }, indent=2) + "\n"
        with span("output.write"):
            output_mod.write_text(outdir / "results.tsv", results)
            output_mod.write_text(outdir / "results.tsv.report.json", report)
            output_mod.write_text(outdir / "results.tsv.manifest.json", manifest)
        return run, (results + report).encode()

    return run_op


def mine_check(oracle, seed: int, outcome: Outcome):
    """Gate for mine queries: sampled terms' counts and p-values against the oracle."""
    rng = random.Random(f"mine-gate-{seed}")
    tables = small_tables = 0
    kp_shares = []

    def check(query: Query, result):
        nonlocal tables, small_tables
        run, text = result
        problems = [f"{f.term!r} failed: {f.error}" for f in run.failed]
        reported = {r.term: r for r in run.significant}
        zero = set()
        for e in run.excluded:
            if e.result is not None:
                reported[e.term] = e.result
            elif e.reason is mining_mod.ExclusionReason.ZERO_TERM_COUNT:
                zero.add(e.term)
            else:
                problems.append(f"{e.term!r} excluded as {e.reason.value}: {e.detail}")
        for term in rng.sample(query.terms, GATE_TERMS):
            if term in reported:
                r = reported[term]
                reading = TermCheck(term, r.article_total, r.kp_count, r.term_count, r.both_count, r.p_value)
            elif term in zero:
                reading = TermCheck(term, run.article_total, run.kp_count, 0, None, None)
            else:
                problems.append(f"{term!r} missing from the run")
                continue
            problems.extend(check_term(oracle, reading, query.key_phrase, *query.window))
        tables += len(reported)
        small_tables += sum(1 for r in reported.values() if r.term_count <= EXACT_DRAW_LIMIT)
        kp_shares.append(run.kp_count / run.article_total)
        outcome.properties["input.kp_doc_share"] = statistics.mean(kp_shares)
        outcome.properties["input.small_table_share"] = small_tables / tables if tables else 0.0
        return problems, text, len(reported) + len(zero) + len(run.failed), None

    return check


# --- local-mine -----------------------------------------------------------


@dataclass
class LocalInputs:
    input_digest: str
    corpus: inputs.Corpus
    index: object
    index_bytes: int


def setup_local(seed: int, workdir: Path, tracer: Tracer | None) -> LocalInputs:
    vocab = inputs.zipf_vocabulary(seed, VOCAB_SIZE)
    corpus_path, index_path = workdir / "local.jsonl", workdir / "local.idx"
    corpus = inputs.generate_corpus(corpus_path, seed, LOCAL_DOCS, LOCAL_DOC_LEN, vocab, planted=PLANTED)
    command = [sys.executable, "-B", str(HERE / "build_index.py"), str(corpus_path), str(index_path)]
    if tracer is None:
        subprocess.run(command, check=True, timeout=170)
    else:
        report = json.loads(
            subprocess.run(command + ["--trace"], check=True, timeout=170, stdout=subprocess.PIPE).stdout
        )
        tracer.adopt(report["spans"])
        tracer.note("tokens", report["tokens"])
    with tracer.span("storage.load_index") if tracer is not None else nullcontext():
        loaded = storage_mod.load_index(index_path)
    return LocalInputs(corpus.sha256, corpus, loaded, index_path.stat().st_size)


def local_queries(seed: int, corpus: inputs.Corpus):
    """Pairs of queries sharing a key phrase and window; the classes cycle.

    Key phrases: "stem cell" (planted in 10% of docs), "gene expression"
    (2%) and single words of three frequencies.  Windows are the full 30
    years, or a five-year span for one in WINDOW_CYCLE rounds of pairs.
    Terms are single words of every frequency and bigrams taken from the
    corpus (vocabulary ids are Zipf ranks).
    """
    rng = random.Random(f"local-queries-{seed}")
    vocab, tokens = corpus.vocab, corpus.tokens
    key_phrases = list(PLANTED_KEY_PHRASES) + [vocab[r] for r in LOCAL_KEY_PHRASE_RANKS]

    def bigram(lo: int, hi: int) -> str:
        while True:
            doc, pos = rng.randrange(tokens.shape[0]), rng.randrange(tokens.shape[1] - 1)
            a, b = int(tokens[doc, pos]), int(tokens[doc, pos + 1])
            if lo <= max(a, b) < hi:
                return f"{vocab[a]} {vocab[b]}"

    for pair in range(10_000):
        key_phrase = key_phrases[pair % len(key_phrases)]
        short = (pair // len(key_phrases)) % WINDOW_CYCLE == WINDOW_CYCLE - 1
        window = inputs.five_year_window(rng) if short else FULL_SPAN
        for _ in range(2):
            words = [vocab[rng.randrange(lo, hi)] for lo, hi in zip(LOCAL_WORD_STRATA, LOCAL_WORD_STRATA[1:])]
            bigrams = [bigram(lo, hi) for lo, hi in zip(LOCAL_BIGRAM_STRATA, LOCAL_BIGRAM_STRATA[1:])]
            yield Query(key_phrase, tuple(dict.fromkeys(words + bigrams)), window)


def run_local(seed: int, seconds: float, workdir: Path, tracer: Tracer | None, outcome: Outcome) -> None:
    data = repeated_setup(lambda rep: setup_local(seed, workdir, tracer), tracer, outcome)
    index = data.index
    if tracer is not None:
        for method in ("count_with", "count_with_both", "article_count"):
            tracer.patch(index, method, f"index.{method}")
        tracer.patch(mining_mod, "fisher_one_sided", "stats.fisher_one_sided")
    provider = mining_mod.IndexCountProvider(index)
    run_op = mine_op(provider, 1, workdir)
    check = mine_check(ScanOracle(data.corpus), seed, outcome)
    cycle = 2 * len(LOCAL_KEY_PHRASE_RANKS + PLANTED_KEY_PHRASES) * WINDOW_CYCLE
    closed_loop(seconds, local_queries(seed, data.corpus), cycle, run_op, check, tracer, outcome)
    outcome.properties.update({
        "input.docs": LOCAL_DOCS,
        "input.tokens_per_doc": float(LOCAL_DOC_LEN[0]),
        "storage.index_bytes": data.index_bytes,
        "storage.index_bytes_per_doc": data.index_bytes / LOCAL_DOCS,
    })


# --- remote-mine ----------------------------------------------------------


class CountingSession:
    """The client's ``session=``: forwards to requests, counts statuses, traces."""

    def __init__(self, tracer: Tracer | None):
        self._session = requests.Session()
        self._tracer = tracer
        self.statuses: list[int] = []

    def get(self, url, **kwargs):
        tracer = self._tracer
        with tracer.span("epmc.http") if tracer is not None and tracer.op_id else nullcontext():
            response = self._session.get(url, **kwargs)
        self.statuses.append(response.status_code)
        if tracer is not None and tracer.op_id and response.status_code != 200:
            tracer.note("retry", tracer.op_id)
        return response

    def close(self) -> None:
        self._session.close()


@dataclass
class RemoteInputs:
    input_digest: str
    model: inputs.RemoteCountModel
    stub: subprocess.Popen
    port: int
    client: object
    provider: object
    session: CountingSession


def start_stub(seed: int) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, "-B", str(HERE / "stub.py"), "--seed", str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith("PORT "):
        stop_stub(proc)
        raise RuntimeError(f"stub server did not start: {line!r}")
    return proc, int(line.split()[1])


def stop_stub(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
    proc.stdout.close()


def setup_remote(seed: int, workdir: Path, rep: int, tracer: Tracer | None) -> RemoteInputs:
    model = inputs.RemoteCountModel(seed)
    digest = hashlib.sha256("\n".join(model.terms + model.key_phrases).encode()).hexdigest()
    stub, port = start_stub(seed)
    try:
        session = CountingSession(tracer)
        config = epmc_mod.ClientConfig(
            endpoint=f"http://127.0.0.1:{port}/search",
            requests_per_second=1e9,  # never paces
            max_in_flight=2,
            max_attempts=5,
            backoff_base=0.002,
            backoff_cap=0.05,
            timeout=30.0,
            cache_path=str(workdir / f"cache-{rep}.jsonl"),
        )
        client = epmc_mod.EpmcCountClient(config, session=session)
        provider = epmc_mod.EpmcCountProvider(client)
        for window in remote_windows(seed):
            date_range = index_mod.DateRange(*window)
            provider.article_total(date_range)
            for term in model.terms:
                provider.count_with(term, date_range)
    except BaseException:
        stop_stub(stub)
        raise
    return RemoteInputs(digest, model, stub, port, client, provider, session)


def remote_windows(seed: int) -> list[tuple]:
    return [FULL_SPAN, inputs.five_year_window(random.Random(f"remote-window-{seed}"))]


def remote_queries(seed: int, model: inputs.RemoteCountModel):
    """Each query a new key phrase with terms from a shared pool.

    Set-up puts every total and single-term count of the pool in the
    shared cache, so in every query those hit and the key-phrase and pair
    counts miss.  Pairs of queries share a window: the full span, or for
    one pair in WINDOW_CYCLE one fixed five-year span.  The pool is cut by
    count into one stratum per term slot, so every query scores terms of
    every size.
    """
    rng = random.Random(f"remote-queries-{seed}")
    windows = remote_windows(seed)
    pool = sorted(model.terms, key=lambda t: model.count(t, *FULL_SPAN))
    size = len(pool) // REMOTE_TERMS_PER_QUERY
    strata = [pool[k * size : (k + 1) * size] for k in range(REMOTE_TERMS_PER_QUERY)]
    for i, key_phrase in enumerate(model.key_phrases):
        terms = tuple(rng.choice(stratum) for stratum in strata)
        yield Query(key_phrase, terms, windows[(i // 2) % WINDOW_CYCLE == WINDOW_CYCLE - 1])


def stub_stats(data: RemoteInputs) -> dict:
    return requests.get(f"http://127.0.0.1:{data.port}/stats", timeout=10).json()


def stub_problems(stats: dict, session: CountingSession) -> list[str]:
    """Compare the stub's request log with what the client should have sent.

    Every request must match the count model, and the stub must have seen
    one request per distinct query string plus one retry per injected
    429/503, so a client that repeats a request, retries too often or
    misses its cache fails the gate.
    """
    retries = sum(1 for s in session.statuses if s != 200)
    problems = []
    if stats["unmatched"]:
        problems.append(f"stub could not answer {stats['unmatched']} requests")
    if retries != stats["injected"]:
        problems.append(f"client saw {retries} failed responses, stub injected {stats['injected']}")
    if stats["requests"] != stats["distinct"] + stats["injected"]:
        problems.append(
            f"stub served {stats['requests']} requests for {stats['distinct']} query strings"
            f" and {stats['injected']} injected failures"
        )
    return problems


def discard_remote(data: RemoteInputs) -> None:
    data.session.close()
    stop_stub(data.stub)


def run_remote(seed: int, seconds: float, workdir: Path, tracer: Tracer | None, outcome: Outcome) -> None:
    data = repeated_setup(
        lambda rep: setup_remote(seed, workdir, rep, tracer), tracer, outcome, discard=discard_remote
    )
    try:
        client = data.client
        if tracer is not None:
            tracer.patch(client, "fetch_count", "epmc.fetch_count")
            tracer.patch(client.cache, "get", "epmc.cache_get", on_result=lambda r: tracer.note("cache_hit", r is not None))
            tracer.patch(client.cache, "put", "epmc.cache_put")
            tracer.patch(mining_mod, "fisher_one_sided", "stats.fisher_one_sided")
        run_op = mine_op(data.provider, REMOTE_PARALLELISM, workdir)
        check = mine_check(data.model, seed, outcome)
        closed_loop(seconds, remote_queries(seed, data.model), 2 * WINDOW_CYCLE, run_op, check, tracer, outcome)
        stats = stub_stats(data)
        outcome.problems.extend(stub_problems(stats, data.session))
    finally:
        discard_remote(data)
    outcome.properties.update({
        "epmc.injected_failures": stats["injected"],
        "epmc.requests_total": stats["requests"],
    })


# --- reporting ------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def end_to_end(outcome: Outcome) -> dict[str, float]:
    op_ms = [t * 1000 for t in outcome.op_s]
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": statistics.quantiles(op_ms, n=10)[8],
        "items_per_s": statistics.median(outcome.rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


PER_LAYER_UNITS: dict[str, str] = {
    "trace.ops": "count",
    "trace.overhead_frac": "ratio",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "tokenizer.tokenize_s": "s",
    "tokenizer.tokens": "count",
    "storage.read_corpus_s": "s",
    "storage.save_index_s": "s",
    "storage.load_index_s": "s",
    "storage.index_bytes": "B",
    "storage.index_bytes_per_doc": "B/doc",
    "index.build_index_s": "s",
    "index.count_with_calls": "count",
    "index.count_with_ms": "ms",
    "index.count_with_both_calls": "count",
    "index.count_with_both_ms": "ms",
    "index.article_count_ms": "ms",
    "stats.fisher_calls": "count",
    "stats.fisher_ms": "ms",
    "mining.run_mining_ms": "ms",
    "epmc.fetch_count_calls": "count",
    "epmc.cache_hits": "count",
    "epmc.cache_misses": "count",
    "epmc.cache_hit_ratio": "ratio",
    "epmc.http_requests": "count",
    "epmc.http_ms": "ms",
    "epmc.retries": "count",
    "epmc.cache_put_ms": "ms",
    "output.render_ms": "ms",
    "output.write_ms": "ms",
}


def per_layer(tracer: Tracer, outcome: Outcome) -> dict[str, float]:
    """Per-layer metrics from the traced operations.

    Query-time figures are means per traced operation; build, save, load
    and tokenizer figures are means per call, whether the call happened in
    an operation (ingest) or in set-up (local-mine).
    """
    op_ids = {f"op{i}" for i in range(outcome.attempted) if i % 2 == 1}
    n = max(1, len(outcome.traced_op_s))
    ops = tracer.totals(op_ids)
    everywhere = tracer.totals()
    selfs = tracer.self_times()

    def per_op(name: str, scale: float = 1000.0) -> float:
        return ops.get(name, (0, 0.0, 0.0))[1] * scale / n

    def calls(name: str) -> float:
        return ops.get(name, (0, 0.0, 0.0))[0] / n

    def per_call(name: str) -> float:
        count, total, _ = everywhere.get(name, (0, 0.0, 0.0))
        return total / count if count else 0.0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for sid, _parent, name, _start, _end, op in tracer.spans:
        layer = name.split(".")[0]
        if op in op_ids and layer in layer_self:
            layer_self[layer] += selfs[sid] * 1000 / n
    pairs = min(len(outcome.op_s), len(outcome.traced_op_s))
    builds = everywhere.get("index.build_index", (0,))[0]
    cache_results = tracer.notes.get("cache_hit", [])
    hits = sum(cache_results)
    metrics = {
        "trace.ops": len(outcome.traced_op_s),
        "trace.overhead_frac": (
            sum(outcome.traced_op_s[:pairs]) / sum(outcome.op_s[:pairs]) - 1 if pairs else 0.0
        ),
        **{f"{layer}.self_ms": value for layer, value in layer_self.items()},
        "tokenizer.tokenize_s": everywhere.get("tokenizer.normalize_tokenize", (0, 0.0))[1] / builds if builds else 0.0,
        "tokenizer.tokens": sum(tracer.notes.get("tokens", [])) / builds if builds else 0.0,
        "storage.read_corpus_s": per_call("storage.read_corpus"),
        "storage.save_index_s": per_call("storage.save_index"),
        "storage.load_index_s": per_call("storage.load_index"),
        "index.build_index_s": per_call("index.build_index"),
        "index.count_with_calls": calls("index.count_with"),
        "index.count_with_ms": per_op("index.count_with"),
        "index.count_with_both_calls": calls("index.count_with_both"),
        "index.count_with_both_ms": per_op("index.count_with_both"),
        "index.article_count_ms": per_op("index.article_count"),
        "stats.fisher_calls": calls("stats.fisher_one_sided"),
        "stats.fisher_ms": per_op("stats.fisher_one_sided"),
        "mining.run_mining_ms": per_op("mining.run_mining"),
        "epmc.fetch_count_calls": calls("epmc.fetch_count"),
        "epmc.cache_hits": hits / n,
        "epmc.cache_misses": (len(cache_results) - hits) / n,
        "epmc.cache_hit_ratio": hits / len(cache_results) if cache_results else 0.0,
        "epmc.http_requests": calls("epmc.http"),
        "epmc.http_ms": per_op("epmc.http"),
        "epmc.retries": sum(1 for op in tracer.notes.get("retry", []) if op in op_ids) / n,
        "epmc.cache_put_ms": per_op("epmc.cache_put"),
        "output.render_ms": per_op("output.render"),
        "output.write_ms": per_op("output.write"),
    }
    for name in PER_LAYER_UNITS:
        metrics.setdefault(name, outcome.properties.get(name, 0.0))
    return metrics


WORKLOADS = {"ingest": run_ingest, "local-mine": run_local, "remote-mine": run_remote}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    outcome = Outcome()
    workdir = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        WORKLOADS[args.workload](args.seed, args.seconds, workdir, tracer, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        metrics = per_layer(tracer, outcome)
        units = PER_LAYER_UNITS
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(outcome)
        units = END_TO_END_UNITS
    correct = outcome.failed == 0 and not outcome.problems

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{outcome.attempted} operations, {outcome.failed} failed, "
          f"setup runs {[round(s, 3) for s in outcome.setup_s]} s")
    for problem in outcome.problems[:20]:
        print(f"  problem: {problem}")
    for name, value in sorted(outcome.properties.items()):
        print(f"  input  {name} = {value}")
    print(f"  output digest (first {MIN_OPS} operations) sha256:{outcome.digest.hexdigest()}")
    for name, value in metrics.items():
        print(f"  metric {name} = {value} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
