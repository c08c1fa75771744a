"""The local index and the remote client give the same answer for the same corpus.

The remote side talks to a stub that parses litminer's query grammar
(``"…" AND … AND (FIRST_PDATE:[a TO b])``) and counts with the linear scan
in ``oracles``, so this also checks the index's counts against the scan.
It checks litminer's pipeline, not the real service's text analysis.

Terms holding a double quote are not generated: the query grammar cannot
express them, so they fail remotely and are counted locally, a difference
``test_cli.py::TestMineRemote`` pins.
"""

import json
import re
import tempfile
from datetime import date
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from litminer import Document
from litminer.cli import main
from oracles import (
    pretokenize,
    scan_article_count,
    scan_count_with,
    scan_count_with_both,
    tokens_of,
)
from remote_stub import CountingStubServer

QUERY = re.compile(r'((?:"[^"]*" AND )*)\(FIRST_PDATE:\[(\S+) TO (\S+)\]\)')

word = st.sampled_from(["stem", "cell", "alpha", "beta", "p53", "gene"]).flatmap(
    lambda w: st.sampled_from([w, w.upper(), w.capitalize()])
)
separator = st.sampled_from([" ", "-", ", ", ". "])
text = st.lists(st.tuples(word, separator), max_size=14).map(
    lambda parts: "".join(w + sep for w, sep in parts)
)
# A word or a bigram, its words joined by a space, a hyphen or both.
term = word | st.tuples(word, st.sampled_from([" ", "-", " - "]), word).map("".join)
day = st.dates(date(2000, 1, 1), date(2009, 12, 31))


@st.composite
def runs(draw):
    bodies = draw(st.lists(st.tuples(day, text), min_size=1, max_size=30))
    docs = [Document(f"d{i}", body, pub) for i, (pub, body) in enumerate(bodies)]
    terms = draw(st.lists(term, min_size=1, max_size=6))
    # Another spelling of a term, which the run drops as a duplicate.
    terms.append(draw(st.sampled_from(terms)).swapcase().replace(" ", "-"))
    bound = st.dates(date(1999, 1, 1), date(2010, 12, 31))
    start, end = sorted([draw(bound), draw(bound)])
    options = [
        "--key-phrase", draw(term),
        "--from", start.isoformat(),
        "--to", end.isoformat(),
        "--p-threshold", draw(st.sampled_from(["0.05", "0.5", "0.99"])),
        "--format", draw(st.sampled_from(["tsv", "structured"])),
    ]
    return docs, terms, options


def scan_answer(docs):
    """The stub's count for a query, by a linear scan of the documents."""
    scannable = pretokenize(docs)

    def answer(query):
        clauses, start, end = QUERY.fullmatch(query).groups()
        phrases = [tuple(tokens_of(p)) for p in re.findall(r'"([^"]*)"', clauses)]
        start, end = date.fromisoformat(start), date.fromisoformat(end)
        if not phrases:
            return scan_article_count(scannable, start, end)
        if len(phrases) == 1:
            return scan_count_with(scannable, phrases[0], start, end)
        return scan_count_with_both(scannable, *phrases, start, end)

    return answer


def test_local_and_remote_runs_write_the_same_files():
    """Results and reports byte for byte; manifests but for provider, output and times."""
    with CountingStubServer() as server, tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus, index, terms_path = work / "corpus.jsonl", work / "c.idx", work / "terms.txt"
        client_config = work / "client.json"
        client_config.write_text(
            json.dumps({"requests_per_second": 10000, "max_in_flight": 1}), encoding="utf-8"
        )
        backends = {
            "local": ["--index", str(index)],
            "remote": [
                "--endpoint", server.url, "--client-config", str(client_config), "--no-cache"
            ],
        }

        @settings(max_examples=25, deadline=None)
        @given(runs())
        def check(run):
            docs, terms, options = run
            corpus.write_text(
                "".join(
                    json.dumps({"id": d.doc_id, "date": d.pub_date.isoformat(), "text": d.text})
                    + "\n"
                    for d in docs
                ),
                encoding="utf-8",
            )
            assert main(["index", "--corpus", str(corpus), "--output", str(index)]) == 0
            terms_path.write_text("".join(t + "\n" for t in terms), encoding="utf-8")
            server.set_answer(scan_answer(docs))
            files = {}
            for name, backend in backends.items():
                out = work / f"{name}.out"
                args = [*backend, *options, "--terms", str(terms_path), "--output", str(out)]
                assert main(["mine", *args]) == 0
                manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
                for key in ("provider", "output", "started_at", "finished_at"):
                    del manifest[key]
                report = Path(f"{out}.report.json").read_bytes()
                files[name] = (out.read_bytes(), report, manifest)
            assert files["local"] == files["remote"]

        check()
