"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed and parameters, so one seed
always yields byte-identical corpora, query lists and count models.  The
program under test only ever sees the generated files and query strings;
the token-id arrays kept beside a corpus feed the linear-scan oracle.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path

# Build time stamped into every index, so one corpus gives one index file.
BUILT_AT = datetime(2020, 1, 1, tzinfo=timezone.utc)
SPAN_START = date(1990, 1, 1)
SPAN_END = date(2019, 12, 31)

_ONSETS = "b c d f g h k l m n p r s t v z br dr gr kl pl st tr".split()
_VOWELS = "a e i o u ai ea io ou".split()
_CODAS = ["", "", "", "n", "r", "s", "x", "l", "m"]

# Real words that planted phrases are made of.  They sit at fixed Zipf
# ranks too, so each also occurs on its own and phrase matching matters.
PLANTED_WORDS = {"stem": 180, "cell": 140, "gene": 260, "expression": 320}
_TOKEN_RE = re.compile(r"[a-z]+")


def pseudo_words(rng: random.Random, count: int, exclude: set[str] = frozenset()) -> list[str]:
    """``count`` distinct lowercase pseudo-words drawn from ``rng``."""
    words: list[str] = []
    seen = set(exclude)
    while len(words) < count:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 4))
        ) + rng.choice(_CODAS)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class Vocabulary(list):
    """Words by Zipf rank (index 0 is the most frequent), with ``ids`` mapping back."""

    def __init__(self, words: list[str]):
        super().__init__(words)
        self.ids = {w: i for i, w in enumerate(words)}


def zipf_vocabulary(seed: int, size: int) -> Vocabulary:
    words = pseudo_words(random.Random(f"vocab-{seed}"), size, set(PLANTED_WORDS))
    for word, rank in PLANTED_WORDS.items():
        if rank < size:
            words[rank] = word
    return Vocabulary(words)


@dataclass
class Corpus:
    """A generated corpus file's SHA-256 plus the arrays the oracle scans.

    ``tokens`` is a (docs x max_len) int32 array of vocabulary ids padded
    with -1; ``dates`` holds the date ordinals.
    """

    vocab: Vocabulary
    tokens: "numpy.ndarray"  # noqa: F821
    dates: "numpy.ndarray"  # noqa: F821
    sha256: str

    @property
    def doc_count(self) -> int:
        return len(self.dates)

    def token_ids(self, phrase: str) -> tuple[int, ...] | None:
        """Vocabulary ids of a phrase, or None if a word is not in the vocabulary."""
        try:
            return tuple(self.vocab.ids[word] for word in _TOKEN_RE.findall(phrase.lower()))
        except KeyError:
            return None


def generate_corpus(
    path: Path,
    seed: int | tuple[int, ...],
    docs: int,
    doc_len: tuple[int, int],
    vocab: Vocabulary,
    zipf_s: float = 1.0,
    planted: dict[str, float] | None = None,
    span: tuple[date, date] = (SPAN_START, SPAN_END),
    id_prefix: str = "doc",
) -> Corpus:
    """Write a JSONL corpus of Zipf-distributed documents to ``path``.

    ``doc_len`` is the inclusive (min, max) token count per document;
    ``planted`` maps a phrase of vocabulary words to the share of documents
    it is written into at a random position.  Dates are uniform over
    ``span``.  Texts capitalize the first word and end with a period, so
    the tokenizer's case folding and punctuation splitting are exercised.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    ranks = np.arange(1, len(vocab) + 1, dtype=np.float64)
    probs = ranks**-zipf_s
    probs /= probs.sum()
    lo_len, hi_len = doc_len
    lengths = rng.integers(lo_len, hi_len + 1, size=docs)
    tokens = rng.choice(len(vocab), size=(docs, hi_len), p=probs).astype(np.int32)
    tokens[np.arange(hi_len)[None, :] >= lengths[:, None]] = -1
    for phrase, share in sorted((planted or {}).items()):
        ids = [vocab.ids[w] for w in phrase.split()]
        chosen = np.flatnonzero(rng.random(docs) < share)
        starts = rng.integers(0, lengths[chosen] - len(ids) + 1)
        for offset, token_id in enumerate(ids):
            tokens[chosen, starts + offset] = token_id
    dates = rng.integers(span[0].toordinal(), span[1].toordinal() + 1, size=docs).astype(np.int32)

    lines = []
    for i, (row, length, ordinal) in enumerate(zip(tokens, lengths.tolist(), dates.tolist())):
        words = [vocab[t] for t in row[:length].tolist()]
        words[0] = words[0].capitalize()
        record = {
            "id": f"{id_prefix}{i:07d}",
            "date": date.fromordinal(ordinal).isoformat(),
            "text": " ".join(words) + ".",
        }
        lines.append(json.dumps(record) + "\n")
    data = "".join(lines).encode("utf-8")
    path.write_bytes(data)
    return Corpus(vocab, tokens, dates, hashlib.sha256(data).hexdigest())


def five_year_window(rng: random.Random) -> tuple[date, date]:
    start = rng.randint(SPAN_START.year, SPAN_END.year - 4)
    return date(start, 1, 1), date(start + 4, 12, 31)


# --- remote count model -------------------------------------------------

REMOTE_TOTAL = 40_000_000
REMOTE_KP_RANGE = (100_000, 400_000)
REMOTE_TERM_RANGE = (10, 2_000_000)
REMOTE_ENRICHMENT_RANGE = (0.3, 30.0)
# Share of first requests for a query string the stub answers 429 or 503.
REMOTE_FAILURE_SHARE = 0.02


def seeded_unit(seed: int, *parts: str) -> float:
    """Deterministic uniform draw in [0, 1) keyed by seed and strings."""
    digest = hashlib.blake2b("\x1f".join((str(seed),) + parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2**64


_GOLDEN = (5**0.5 - 1) / 2


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


class RemoteCountModel:
    """Europe-PMC-scale counts for a fixed vocabulary of phrases.

    Counts depend only on the seed, the phrases and the date window, never
    on how a query string is formatted.  Totals grow linearly with the
    window's share of the 30-year span; each term's co-occurrence with a
    key phrase is its independence expectation times a seeded enrichment.

    Single counts are spread evenly rather than drawn independently: the
    i-th of n terms sits at log-uniform quantile (i + jitter) / n, and the
    i-th key phrase at quantile frac(offset + i * golden ratio), so every
    seed's term pool, and every run of consecutive key phrases, covers the
    count range evenly, and seeds differ little in how their counts fall
    around the 10,000-draw boundary of the exact Fisher branch.
    """

    def __init__(self, seed: int, terms: int = 300, key_phrases: int = 20_000):
        self.seed = seed
        rng = random.Random(f"remote-{seed}")
        words = pseudo_words(rng, 2 * terms + 2 * key_phrases)
        term_words, kp_words = words[: 2 * terms], words[2 * terms :]
        # A quarter of the terms are two-word phrases.
        self.terms = [
            f"{term_words[2 * i]} {term_words[2 * i + 1]}" if i % 4 == 3 else term_words[2 * i]
            for i in range(terms)
        ]
        self.key_phrases = [f"{kp_words[2 * i]} {kp_words[2 * i + 1]}" for i in range(key_phrases)]
        self._term_base = {
            term: _log_uniform((i + seeded_unit(seed, "term", term)) / terms, *REMOTE_TERM_RANGE)
            for i, term in enumerate(self.terms)
        }
        offset = seeded_unit(seed, "kp")
        self._kp_base = {
            kp: _log_uniform((offset + i * _GOLDEN) % 1.0, *REMOTE_KP_RANGE)
            for i, kp in enumerate(self.key_phrases)
        }

    @staticmethod
    def window_share(start: date, end: date) -> float:
        days = (SPAN_END - SPAN_START).days + 1
        lo = max(start, SPAN_START)
        hi = min(end, SPAN_END)
        if hi < lo:
            return 0.0
        return ((hi - lo).days + 1) / days

    def article_count(self, start: date, end: date) -> int:
        return int(REMOTE_TOTAL * self.window_share(start, end))

    def count(self, phrase: str, start: date, end: date) -> int | None:
        """Single-phrase count, or None for a phrase the model does not know."""
        base = self._kp_base.get(phrase, self._term_base.get(phrase))
        if base is None:
            return None
        return int(base * self.window_share(start, end))

    def count_both(self, phrase_a: str, phrase_b: str, start: date, end: date) -> int | None:
        """Count for one term and one key phrase, in either order."""
        if phrase_a in self._kp_base and phrase_b in self._term_base:
            phrase_a, phrase_b = phrase_b, phrase_a
        if phrase_a not in self._term_base or phrase_b not in self._kp_base:
            return None
        term = self.count(phrase_a, start, end)
        kp = self.count(phrase_b, start, end)
        total = self.article_count(start, end)
        if total == 0:
            return 0
        enrichment = _log_uniform(seeded_unit(self.seed, "both", phrase_a, phrase_b), *REMOTE_ENRICHMENT_RANGE)
        return min(term, kp, int(term * kp / total * enrichment))
