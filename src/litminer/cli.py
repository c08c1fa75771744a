"""Command line interface: build indexes, run count queries, run the miner."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Iterable, NoReturn

from . import ConfigError, LitminerError, __version__
from .index import DateRange, IndexFormatError, build_index
from .mining import (
    DEFAULT_P_THRESHOLD,
    IndexCountProvider,
    MinerConfig,
    RankingMode,
    run_mining,
)
from .output import (
    check_tsv_field,
    render_report,
    render_results_json,
    render_results_tsv,
    run_parameters,
    write_text,
)
from .stats import (
    co_occurrence_ratio,
    derive_table,
    fisher_one_sided,
)
from .storage import (
    load_index,
    parse_date,
    read_corpus,
    save_index,
)
from .tokenizer import is_utf8, normalize_tokenize

DEFAULT_RANGE_START = date(1900, 1, 1)


def _parse_date(text: str) -> date:
    try:
        return parse_date(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a YYYY-MM-DD date") from None


def _date_range(args: argparse.Namespace) -> DateRange:
    start = args.date_from if args.date_from is not None else DEFAULT_RANGE_START
    end = args.date_to if args.date_to is not None else date.today()
    return DateRange(start, end)


def _add_provider_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--provider",
        choices=("local", "remote"),
        help="count backend; inferred from --index/--endpoint when omitted",
    )
    parser.add_argument("--index", metavar="PATH", help="local index file to query")
    parser.add_argument("--endpoint", metavar="URL", help="remote search API base URL")
    parser.add_argument(
        "--client-config",
        metavar="PATH",
        help="JSON file with remote client settings (see README)",
    )
    parser.add_argument("--cache", metavar="PATH", help="remote count cache file")
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ask the service even for cached queries (fresh answers still refresh the cache)",
    )


def _add_range_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--from",
        dest="date_from",
        type=_parse_date,
        metavar="DATE",
        help=f"start of publication date range, inclusive (default {DEFAULT_RANGE_START})",
    )
    parser.add_argument(
        "--to",
        dest="date_to",
        type=_parse_date,
        metavar="DATE",
        help="end of publication date range, inclusive (default today)",
    )


class _Parser(argparse.ArgumentParser):
    """Raises its refusals as usage errors, so ``main`` reports them in one line."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="litminer",
        description="Rank candidate terms by co-occurrence with a key phrase.",
    )
    parser.add_argument("--version", action="version", version=f"litminer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build a local index from a corpus file")
    p_index.add_argument("--corpus", required=True, metavar="PATH", help="JSON Lines corpus")
    p_index.add_argument("--output", required=True, metavar="PATH", help="index file to write")
    p_index.add_argument("--name", metavar="LABEL", help="corpus label (default: corpus file stem)")
    p_index.set_defaults(func=cmd_index)

    p_count = sub.add_parser("count", help="count documents matching one phrase or a pair")
    _add_provider_flags(p_count)
    _add_range_flags(p_count)
    p_count.add_argument(
        "phrases",
        nargs="+",
        metavar="PHRASE",
        help="one phrase to count, or TERM KEY_PHRASE to analyze the pair",
    )
    p_count.set_defaults(func=cmd_count)

    p_mine = sub.add_parser("mine", help="rank a term list against a key phrase")
    _add_provider_flags(p_mine)
    _add_range_flags(p_mine)
    p_mine.add_argument("--key-phrase", required=True, metavar="STR")
    p_mine.add_argument(
        "--terms", required=True, metavar="FILE", help="term list, one per line, # comments"
    )
    p_mine.add_argument(
        "--p-threshold",
        type=float,
        default=DEFAULT_P_THRESHOLD,
        metavar="FLOAT",
        help=f"keep terms with p strictly below this (default {DEFAULT_P_THRESHOLD:g})",
    )
    p_mine.add_argument(
        "--ranking-mode",
        choices=tuple(mode.value for mode in RankingMode),
        default=RankingMode.TERM_DENOMINATOR.value,
        help="denominator for the ranking ratio (default term-denominator)",
    )
    p_mine.add_argument("--output", required=True, metavar="FILE", help="results file to write")
    p_mine.add_argument(
        "--format",
        choices=("tsv", "structured"),
        default="tsv",
        help="results format: tsv (default) or structured JSON",
    )
    p_mine.set_defaults(func=cmd_mine)

    return parser


@contextmanager
def _open_provider(args: argparse.Namespace):
    """Yields (provider, identity dict for the manifest, worker count for mining).

    Local counting is pure Python under one interpreter lock, so it gets
    one worker; the remote backend gets one per request slot, and its
    client's connections are closed on exit.  Only the remote branch
    imports the remote backend, so a local run loads no HTTP code.
    """
    kind = args.provider or ("local" if args.index else "remote" if args.endpoint else None)
    if kind is None:
        raise ConfigError("no count backend: give --index PATH or --endpoint URL")
    if kind == "local":
        if not args.index:
            raise ConfigError("--provider local requires --index PATH")
        for flag, given in (
            ("--endpoint", args.endpoint),
            ("--client-config", args.client_config),
            ("--cache", args.cache),
            ("--no-cache", args.no_cache),
        ):
            if given:
                raise ConfigError(f"{flag} applies only to the remote backend")
        index = load_index(args.index)
        identity = {
            "kind": "local",
            "index": str(args.index),
            "corpus_name": index.corpus_name,
            "doc_count": index.doc_count,
            "built_at": index.built_at.isoformat(),
        }
        try:
            yield IndexCountProvider(index), identity, 1
        except IndexFormatError as exc:  # a token's postings, checked on their first read
            raise IndexFormatError(f"{args.index}: {exc}; rebuild the index") from None
        return
    if args.index:
        raise ConfigError("--index conflicts with --provider remote")
    from .epmc import ClientConfig, EpmcCountClient, EpmcCountProvider, check_proxy

    # Defaults, then the config file, the environment and the flags.
    config = ClientConfig()
    if args.client_config:
        try:
            config = ClientConfig.from_file(args.client_config)
        except OSError as exc:
            raise ConfigError(str(exc)) from exc
    flags = {"endpoint": args.endpoint, "cache_path": args.cache, "bypass_cache": args.no_cache}
    config = replace(config.with_env_overrides(), **{k: v for k, v in flags.items() if v})
    check_proxy(config.endpoint)
    client = EpmcCountClient(config)
    identity = {
        "kind": "remote",
        "endpoint": config.endpoint,
        "cache": config.cache_path,
        "bypass_cache": config.bypass_cache,
    }
    try:
        yield EpmcCountProvider(client), identity, config.max_in_flight
    finally:
        client.close()


def _same_file(a: str | Path, b: str | Path) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _refuse_overwrite(outputs: Iterable[str | Path], inputs: dict[str, str | None]) -> None:
    """Refuse, before any work, an output that would replace an input the command line names."""
    for output in outputs:
        for flag, given in inputs.items():
            if given and _same_file(output, given):
                raise ConfigError(f"output {output} would replace {flag} {given}")


def cmd_index(args: argparse.Namespace) -> int:
    _refuse_overwrite([args.output], {"--corpus": args.corpus})
    name = args.name if args.name is not None else Path(args.corpus).stem
    index = build_index(read_corpus(args.corpus), corpus_name=name)
    save_index(index, args.output)
    if index.doc_count == 0:
        print("warning: corpus is empty; wrote an empty index", file=sys.stderr)
    print(f"{index.doc_count} documents indexed")
    print(f"distinct tokens: {index.token_count}")
    span = index.date_span()
    if span is not None:
        print(f"date span: {span[0].isoformat()} .. {span[1].isoformat()}")
    print(f"index written to {args.output}")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    if len(args.phrases) > 2:
        raise ConfigError("count takes one phrase, or a TERM KEY_PHRASE pair")
    for phrase in args.phrases:
        if not normalize_tokenize(phrase):
            raise ConfigError(f"phrase {phrase!r} contains no indexable tokens")
    date_range = _date_range(args)
    # Every count is asked for before anything is printed, so a count that
    # fails leaves stdout empty, and a remote client is closed by then.
    with _open_provider(args) as (provider, _identity, _workers):
        article_total = provider.article_total(date_range)
        counts = [provider.count_with(p, date_range) for p in args.phrases]
        pair = len(args.phrases) == 2
        both = provider.count_with_both(*args.phrases, date_range) if pair else None
    lines = [f"date_range: {date_range}", f"article_total: {article_total}"]
    lines += [f'count["{phrase}"]: {count}' for phrase, count in zip(args.phrases, counts)]
    if pair:
        table = derive_table(article_total, counts[1], counts[0], both)
        if table.term_total == 0:
            ratio = "undefined (term matches no documents)"
        else:
            ratio = repr(co_occurrence_ratio(table))
        lines += [
            f"count_both: {both}",
            "contingency: " + " ".join(f"{cell}={n}" for cell, n in asdict(table).items()),
            f"fisher_one_sided_p: {fisher_one_sided(table)!r}",
            f"co_occurrence_ratio: {ratio}",
        ]
    print("\n".join(lines))
    return 0


def _read_terms(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read terms file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"terms file {path} is not UTF-8 text ({exc.reason})") from exc
    terms = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            try:
                check_tsv_field(stripped)
            except ValueError as exc:
                raise ConfigError(f"terms file {path} line {line_no}: term {exc}") from exc
            terms.append(stripped)
    if not terms:
        raise ConfigError(f"terms file {path} contains no terms")
    return terms


def cmd_mine(args: argparse.Namespace) -> int:
    out_path = Path(args.output)
    report_path = out_path.with_name(out_path.name + ".report.json")
    manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    inputs = {
        "--index": args.index,
        "--terms": args.terms,
        "--client-config": args.client_config,
        "--cache": args.cache,
    }
    _refuse_overwrite((out_path, report_path, manifest_path), inputs)
    config = MinerConfig(
        key_phrase=args.key_phrase,
        date_range=_date_range(args),
        target_terms=tuple(_read_terms(args.terms)),
        p_threshold=args.p_threshold,
        ranking_mode=RankingMode(args.ranking_mode),
    )
    with _open_provider(args) as (provider, identity, parallelism):
        started_at = datetime.now(timezone.utc)
        run = run_mining(provider, config, parallelism=parallelism)
        finished_at = datetime.now(timezone.utc)

    if args.format == "tsv":
        results = render_results_tsv(run.significant)
    else:
        results = render_results_json(run)
    report = render_report(run)
    # The old manifest goes first and the new one comes last, holding the
    # digests of the two files beside it: a run that stops partway leaves
    # no manifest, so a manifest never describes another run's files.
    manifest_path.unlink(missing_ok=True)
    files = {}
    for name, path, text in (("results", out_path, results), ("report", report_path, report)):
        write_text(path, text)
        data = text.encode("utf-8")
        files[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    manifest = {
        "tool": "litminer",
        "version": __version__,
        "command": "mine",
        "provider": identity,
        **run_parameters(run),
        "terms_file": str(args.terms),
        "input_term_count": len(config.target_terms),
        "parallelism": parallelism,
        "format": args.format,
        "output": str(out_path),
        "files": files,
        "tallies": run.tallies,
        "started_at": started_at.isoformat(timespec="seconds"),
        "finished_at": finished_at.isoformat(timespec="seconds"),
    }
    write_text(manifest_path, json.dumps(manifest, indent=2, ensure_ascii=False) + "\n")

    if run.diagnostic:
        print(f"note: {run.diagnostic}", file=sys.stderr)
    print(f"article_total: {run.article_total}")
    print(f"kp_count: {run.kp_count}")
    print("  ".join(f"{name}: {n}" for name, n in run.tallies.items()))
    print(f"results: {out_path}")
    print(f"report: {report_path}")
    print(f"manifest: {manifest_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # Every argument can end up in a file name, the manifest, an index or
        # a request, and all of those are UTF-8.
        for arg in argv:
            if not is_utf8(arg):
                raise ConfigError(f"argument {arg!r} is not UTF-8 text")
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # -h or --version, after printing
        return int(exc.code or 0)
    except LitminerError as exc:
        print(f"{'usage error' if exc.exit_code == 2 else 'error'}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
