import re
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from litminer import InvalidPhraseError, TokenizedPhrase, normalize_tokenize, tokenizer

TOKEN_RE = re.compile(r"[^\W_]+")


def tokens(text):
    return normalize_tokenize(text)


def test_lowercases_and_splits_on_punctuation():
    assert tokens("Embryonic Stem-Cell!") == ["embryonic", "stem", "cell"]


def test_positions_are_token_ordinals():
    assert normalize_tokenize("NKX2-5 binds DNA") == ["nkx2", "5", "binds", "dna"]


def test_digits_stay_attached_to_letters():
    assert tokens("p53 and HOXD11") == ["p53", "and", "hoxd11"]


def test_underscore_is_a_separator():
    assert tokens("stem_cell") == ["stem", "cell"]


def test_unicode_letters_are_tokens():
    assert tokens("Naïve β-cell") == ["naïve", "β", "cell"]


def test_empty_and_symbol_only_text():
    assert normalize_tokenize("") == []
    assert normalize_tokenize("--- !!! ...") == []


def test_phrase_from_text():
    phrase = TokenizedPhrase.from_text("  Embryonic   Stem Cell ")
    assert phrase.tokens == ("embryonic", "stem", "cell")
    assert len(phrase) == 3
    assert str(phrase) == "embryonic stem cell"


@pytest.mark.parametrize("bad", ["", "   ", "!!!", "__"])
def test_phrase_from_text_rejects_tokenless_input(bad):
    with pytest.raises(InvalidPhraseError):
        TokenizedPhrase.from_text(bad)


def test_phrase_constructor_rejects_unnormalized_tokens():
    with pytest.raises(ValueError):
        TokenizedPhrase(tokens=("Stem",))
    with pytest.raises(ValueError):
        TokenizedPhrase(tokens=("stem cell",))
    with pytest.raises(ValueError):
        TokenizedPhrase(tokens=())


@given(st.text(max_size=200))
def test_tokens_match_token_shape(text):
    for tok in normalize_tokenize(text):
        assert TOKEN_RE.fullmatch(tok)
        assert tok == tok.lower()


@given(st.text(max_size=200))
def test_tokenization_is_idempotent(text):
    first = tokens(text)
    assert tokens(" ".join(first)) == first


@given(st.text(max_size=200))
def test_positions_are_sequential(text):
    # A token's position is its list index: one entry per match, in order.
    assert normalize_tokenize(text) == TOKEN_RE.findall(text.lower())


# ASCII text takes the translate-and-split path, everything else the regex.
# Below U+0080 both must split at the same places.
@given(st.text(st.characters(max_codepoint=127), max_size=200))
def test_ascii_text_matches_the_regex(text):
    assert normalize_tokenize(text) == TOKEN_RE.findall(text.lower())


@pytest.mark.parametrize(
    "text, expected",
    [
        ("snake_case _x_", ["snake", "case", "x"]),
        ("del\x7fete", ["del", "ete"]),
        ("a\x1cb\x1dc\x1ed\x1fe", ["a", "b", "c", "d", "e"]),
        ("tab\tvt\vff\fcr\r", ["tab", "vt", "ff", "cr"]),
        ("NKX2-5", ["nkx2", "5"]),
        ("\x00Zeta\x01", ["zeta"]),
    ],
)
def test_ascii_separators(text, expected):
    assert normalize_tokenize(text) == expected == TOKEN_RE.findall(text.lower())


def test_regex_runs_for_non_ascii_text_only(monkeypatch):
    calls = []

    def findall(text):
        calls.append(text)
        return TOKEN_RE.findall(text)

    monkeypatch.setattr(tokenizer, "_TOKEN_RE", SimpleNamespace(findall=findall))
    assert normalize_tokenize("NKX2-5 snake_case\x7f") == ["nkx2", "5", "snake", "case"]
    assert calls == []
    assert normalize_tokenize("Naïve β-cell") == ["naïve", "β", "cell"]
    assert calls == ["naïve β-cell"]
    # The st.text() properties above draw non-ASCII text, so they test the regex path.
    calls.clear()
    test_positions_are_sequential()
    assert calls
