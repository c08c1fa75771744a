"""litminer: rank candidate terms by co-occurrence with a key phrase.

The pipeline counts, for every candidate term, how many documents in a
date-censored corpus mention the term, the key phrase, and both.  Terms
whose co-occurrence is significant under a one-sided Fisher's exact test
are ranked by co-occurrence ratio.  Counts come either from a local
positional inverted index or from a remote literature search API.
"""

__version__ = "0.1.0"

from .index import (
    DateRange,
    Document,
    IndexFormatError,
    IngestionError,
    PostingsIndex,
    build_index,
)
from .mining import (
    DEFAULT_P_THRESHOLD,
    ConfigError,
    CountProvider,
    ExcludedTerm,
    ExclusionReason,
    FailedTerm,
    IndexCountProvider,
    MinerConfig,
    MiningError,
    MiningRun,
    RankingMode,
    TermResult,
    deduplicate_terms,
    rank_results,
    run_mining,
)
from .stats import (
    ContingencyTable,
    InconsistentCountsError,
    UndefinedRatioError,
    co_occurrence_ratio,
    derive_table,
    fisher_one_sided,
    keyphrase_cooccurrence_ratio,
)
from .epmc import (
    ClientConfig,
    EpmcCountClient,
    EpmcCountProvider,
    ProtocolError,
    TransportError,
    build_query,
)
from .storage import CorpusFormatError, load_index, read_corpus, save_index
from .tokenizer import (
    TOKENIZER_VERSION,
    InvalidPhraseError,
    TokenizedPhrase,
    normalize_tokenize,
)

__all__ = [
    "__version__",
    "ClientConfig",
    "ConfigError",
    "ContingencyTable",
    "CorpusFormatError",
    "CountProvider",
    "DEFAULT_P_THRESHOLD",
    "DateRange",
    "Document",
    "EpmcCountClient",
    "EpmcCountProvider",
    "ExcludedTerm",
    "ExclusionReason",
    "FailedTerm",
    "InconsistentCountsError",
    "IndexCountProvider",
    "IndexFormatError",
    "IngestionError",
    "InvalidPhraseError",
    "MinerConfig",
    "MiningError",
    "MiningRun",
    "PostingsIndex",
    "ProtocolError",
    "RankingMode",
    "TOKENIZER_VERSION",
    "TermResult",
    "TokenizedPhrase",
    "TransportError",
    "UndefinedRatioError",
    "build_index",
    "build_query",
    "co_occurrence_ratio",
    "deduplicate_terms",
    "derive_table",
    "fisher_one_sided",
    "keyphrase_cooccurrence_ratio",
    "load_index",
    "normalize_tokenize",
    "rank_results",
    "read_corpus",
    "run_mining",
    "save_index",
]
