"""Tokenizer and file-format tests."""

import pytest

from reflectspec.corpus import (
    BACK_WORD,
    IntTokenizer,
    WordTokenizer,
    load_corpus_documents,
    load_prompt_lines,
)
from reflectspec.errors import InvalidConfigError, InvalidTokenError


class TestIntTokenizer:
    def test_encode_decode(self):
        tok = IntTokenizer(32)
        assert tok.encode("3 7 0") == [3, 7, 0]
        assert tok.decode([3, 7, 0]) == "3 7 0"

    def test_back_special_maps_to_top_id(self):
        tok = IntTokenizer(32)
        assert tok.encode(BACK_WORD) == [31]
        assert tok.decode([31]) == BACK_WORD

    def test_out_of_range_rejected(self):
        tok = IntTokenizer(8)
        with pytest.raises(InvalidTokenError):
            tok.encode("9")
        with pytest.raises(InvalidTokenError):
            tok.encode("abc")


class TestWordTokenizer:
    def test_first_appearance_order(self):
        tok = WordTokenizer()
        assert tok.encode("the cat sat the mat", extend=True) == [0, 1, 2, 0, 3]
        assert tok.encode("the cat sat mat") == [0, 1, 2, 3]
        assert tok.vocab_size == 4

    def test_round_trip(self):
        tok = WordTokenizer()
        tok.encode("a b c", extend=True)
        ids = tok.encode("c a b")
        assert tok.decode(ids) == "c a b"

    def test_extend_grows_vocab(self):
        tok = WordTokenizer()
        tok.encode("a b", extend=True)
        assert tok.encode("a new", extend=True) == [0, 2]
        assert tok.vocab_size == 3

    def test_frozen_vocab_rejects_unknowns(self):
        tok = WordTokenizer()
        tok.encode("a b", extend=True)
        with pytest.raises(InvalidTokenError):
            tok.encode("zzz")


class TestFiles:
    def test_corpus_documents_split_by_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a b a\n\nb b\n", encoding="utf-8")
        tok = WordTokenizer()
        docs = load_corpus_documents(path, tok)
        assert docs == [[0, 1, 0], [1, 1]]
        assert tok.vocab_size == 2

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(InvalidConfigError):
            load_corpus_documents(path, WordTokenizer())

    def test_prompt_lines(self, tmp_path):
        path = tmp_path / "prompts.txt"
        path.write_text("1 2 3\n\n4 5\n", encoding="utf-8")
        assert load_prompt_lines(path) == ["1 2 3", "4 5"]
