"""litminer: rank candidate terms by co-occurrence with a key phrase.

The pipeline counts, for every candidate term, how many documents in a
date-censored corpus mention the term, the key phrase, and both.  Terms
whose co-occurrence is significant under a one-sided Fisher's exact test
are ranked by co-occurrence ratio.  Counts come either from a local
positional inverted index or from a remote literature search API.
"""

from importlib import import_module

__version__ = "0.1.0"


class LitminerError(Exception):
    """Base of litminer's errors; ``exit_code`` is the command line's exit status for one."""

    exit_code = 1


class ConfigError(LitminerError, ValueError):
    """Bad input, raised by the check that finds it; the command line's usage error."""

    exit_code = 2


# Each public name under the submodule that defines it.  A submodule is
# imported the first time one of its names is used (PEP 562), so a run on
# a local index never loads the remote backend's HTTP modules.
_PUBLIC_NAMES = {
    "index": (
        "DateRange",
        "Document",
        "IndexFormatError",
        "IngestionError",
        "PostingsIndex",
        "build_index",
    ),
    "mining": (
        "DEFAULT_P_THRESHOLD",
        "CountProvider",
        "ExcludedTerm",
        "ExclusionReason",
        "FailedTerm",
        "IndexCountProvider",
        "MinerConfig",
        "MiningError",
        "MiningRun",
        "RankingMode",
        "TermResult",
        "deduplicate_terms",
        "rank_results",
        "run_mining",
    ),
    "stats": (
        "ContingencyTable",
        "InconsistentCountsError",
        "UndefinedRatioError",
        "co_occurrence_ratio",
        "derive_table",
        "fisher_one_sided",
        "keyphrase_cooccurrence_ratio",
    ),
    "epmc": (
        "ClientConfig",
        "EpmcCountClient",
        "EpmcCountProvider",
        "ProtocolError",
        "TransportError",
        "build_query",
    ),
    "storage": ("CorpusFormatError", "load_index", "read_corpus", "save_index"),
    "tokenizer": (
        "TOKENIZER_VERSION",
        "InvalidPhraseError",
        "TokenizedPhrase",
        "normalize_tokenize",
    ),
}

__all__ = ["ConfigError", "LitminerError", "__version__"]
__all__ += sorted(name for names in _PUBLIC_NAMES.values() for name in names)


def __getattr__(name: str):
    """Return a public name or one of the submodules above, importing it on first use."""
    if name in _PUBLIC_NAMES:
        return import_module(f".{name}", __name__)
    for module, names in _PUBLIC_NAMES.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
