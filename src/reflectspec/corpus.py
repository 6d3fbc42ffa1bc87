"""Tokenizers and text-file loaders.

Two tokenization modes cover every input the package reads:

- ``WordTokenizer``: whitespace-split word-to-id mapping built from a corpus
  file, ids assigned in order of first appearance. Corpus files hold one
  document per line. Probe templates and prompts are encoded with the same
  tokenizer; novel words can extend the vocabulary while models are still
  unbuilt (``extend=True``).
- ``IntTokenizer``: raw integer mode for synthetic runs. Tokens are written
  as decimal ids; ``[BACK]`` maps to the highest id, so the stock probe
  template works without a corpus.

Both give ``vocab_size`` and ``encode(text, extend=True)``, which is all the
CLI needs to build a sweep spec.
"""

from __future__ import annotations

from pathlib import Path

from .errors import InvalidConfigError, InvalidTokenError
from .tokens import setting_int, token_ids

BACK_WORD = "[BACK]"


class IntTokenizer:
    """Tokens written as decimal ids; ``[BACK]`` names the highest id."""

    def __init__(self, vocab_size: int):
        self.vocab_size = setting_int("vocab_size", vocab_size, 2)

    def encode(self, text: str, extend: bool = False) -> list[int]:
        # ``extend`` is accepted for interface parity with WordTokenizer;
        # integer vocabularies are fixed at construction.
        out = []
        for word in text.split():
            if word == BACK_WORD:
                out.append(self.vocab_size - 1)
                continue
            try:
                out.append(int(word))
            except ValueError:
                raise InvalidTokenError(
                    f"{word!r} is neither an integer token nor {BACK_WORD}"
                ) from None
        return token_ids(out, self.vocab_size)

    def decode(self, ids: list[int]) -> str:
        return " ".join(BACK_WORD if t == self.vocab_size - 1 else str(t) for t in ids)


class WordTokenizer:
    """Whitespace word-to-id mapping, ids in order of first appearance."""

    def __init__(self) -> None:
        self._word_to_id: dict[str, int] = {}
        self._id_to_word: list[str] = []

    def _add(self, word: str) -> int:
        if word not in self._word_to_id:
            self._word_to_id[word] = len(self._id_to_word)
            self._id_to_word.append(word)
        return self._word_to_id[word]

    @property
    def vocab_size(self) -> int:
        return len(self._id_to_word)

    def encode(self, text: str, extend: bool = False) -> list[int]:
        out = []
        for word in text.split():
            if word in self._word_to_id:
                out.append(self._word_to_id[word])
            elif extend:
                out.append(self._add(word))
            else:
                raise InvalidTokenError(f"unknown word {word!r} (vocabulary is frozen)")
        return out

    def decode(self, ids: list[int]) -> str:
        return " ".join(self._id_to_word[t] for t in token_ids(ids, self.vocab_size))


def load_corpus_documents(path: str | Path, tokenizer: WordTokenizer) -> list[list[int]]:
    """Tokenize a corpus file: whitespace tokens, one document per line."""
    docs = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            docs.append(tokenizer.encode(line, extend=True))
    if not docs:
        raise InvalidConfigError(f"corpus file {path} holds no documents")
    return docs


def load_prompt_lines(path: str | Path) -> list[str]:
    """Read a prompt-set file: one prompt per line, blank lines skipped."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines:
        raise InvalidConfigError(f"prompt file {path} holds no prompts")
    return lines
