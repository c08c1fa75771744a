"""Parse, index and save one corpus in a process of its own.

    python3 -B bench/build_index.py CORPUS INDEX [--trace]

The local-mine workload builds its index here, so that the benchmark
process, like a `litminer mine` process, only loads the index: its peak
RSS is that of loading and querying, not of building.  With ``--trace``
the last line of standard output is JSON with the spans recorded around
``read_corpus``, ``build_index``, ``save_index`` and every tokenizer call
the build makes, and the number of tokens.  ``time.perf_counter`` is the
system-wide monotonic clock, so the spans line up with the caller's.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from inputs import BUILT_AT  # noqa: E402
from litminer import index as index_mod  # noqa: E402
from litminer import storage as storage_mod  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpus", type=Path)
    parser.add_argument("index", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    tokens = 0
    if tracer is not None:
        def count_tokens(result) -> None:
            nonlocal tokens
            tokens += len(result)

        index_mod.normalize_tokenize = tracer.traced(
            "tokenizer.normalize_tokenize", index_mod.normalize_tokenize, count_tokens
        )

    def span(name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    with span("storage.read_corpus"):
        docs = list(storage_mod.read_corpus(args.corpus))
    with span("index.build_index"):
        built = index_mod.build_index(docs, corpus_name=args.corpus.stem, built_at=BUILT_AT)
    with span("storage.save_index"):
        storage_mod.save_index(built, args.index)
    if tracer is not None:
        print(json.dumps({"spans": tracer.spans, "tokens": tokens}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
