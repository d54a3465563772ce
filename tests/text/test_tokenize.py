"""Tests for text normalisation and tokenisation."""

from repro.text.tokenize import (
    char_ngrams,
    normalize_text,
    tokenize,
    word_tokens,
)


class TestNormalize:
    def test_lowercases(self):
        assert normalize_text("Il Gattopardo") == "il gattopardo"

    def test_strips_accents(self):
        assert normalize_text("caffè è già") == "caffe e gia"

    def test_removes_punctuation(self):
        assert normalize_text("l'isola: misteriosa!") == "l isola misteriosa"

    def test_collapses_whitespace(self):
        assert normalize_text("  a \t b\nc ") == "a b c"

    def test_empty(self):
        assert normalize_text("") == ""


class TestWordTokens:
    def test_split(self):
        assert word_tokens("a bb ccc") == ["a", "bb", "ccc"]

    def test_empty(self):
        assert word_tokens("") == []


class TestCharNgrams:
    def test_boundary_markers(self):
        grams = char_ngrams("ab", 3, 3)
        assert grams == ["#ab", "ab#"]

    def test_range(self):
        grams = char_ngrams("abc", 3, 4)
        assert "#ab" in grams and "#abc" in grams

    def test_short_token_skipped_for_long_n(self):
        assert char_ngrams("a", 4, 4) == []


class TestTokenize:
    def test_word_and_char_families_prefixed(self):
        features = tokenize("Eco")
        assert "w=eco" in features
        assert any(f.startswith("c=") for f in features)

    def test_words_then_their_three_and_four_grams(self):
        assert tokenize("Eco") == [
            "w=eco", "c=#ec", "c=eco", "c=co#", "c=#eco", "c=eco#",
        ]

    def test_same_text_same_features(self):
        assert tokenize("Umberto Eco") == tokenize("Umberto Eco")
