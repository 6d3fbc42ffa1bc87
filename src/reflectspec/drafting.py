"""Draft generation: the autoregressive proposal loop of the draft model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .models import ModelSession
from .tokens import inverse_cdf, setting_int


@dataclass(frozen=True)
class DraftBundle:
    """A fixed-length draft: tokens plus the distribution each was drawn from."""

    tokens: tuple[int, ...]
    q_dists: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.q_dists) or not self.tokens:
            raise InvalidConfigError("draft tokens and distributions must align and be non-empty")

    @property
    def gamma(self) -> int:
        return len(self.tokens)

    @property
    def draft_forward_count(self) -> int:
        """The positions the draft session computed while producing this
        bundle: gamma - 1, since the first token reads cached state and the
        last is never fed."""
        return len(self.tokens) - 1


def generate_draft(session: ModelSession, gamma: int, rng: np.random.Generator) -> DraftBundle:
    """Sample ``gamma`` draft tokens autoregressively from ``session``'s model.

    The session must already hold the committed prefix and be built at the
    draft's temperature (0 means greedy via a one-hot), so each row it
    caches is the model's ``next_distribution`` q: a step reads its q, picks
    one token by inverse CDF, and feeds it back. The gamma uniforms come
    from one ``rng.random(gamma)`` call, the stream gamma ``sample`` calls
    consume. A one-hot, or a softmax of logits that ``softmax`` has just
    checked, is a distribution by construction, so the rows are not checked
    again; the verifiers validate them as one block where they enter.

    The session is left holding the committed prefix plus the first gamma - 1
    drafted tokens; ``engine.commit_and_prune`` keeps the accepted ones and
    drops the rest, so no accepted position is computed twice. Bad input
    is refused before any uniform is drawn.
    """
    gamma = setting_int("gamma", gamma)  # a bool is no length to rng.random
    if gamma < 1:
        raise InvalidConfigError(f"gamma must be >= 1, got {gamma}")
    if session.temperature is None:
        raise InvalidConfigError("the draft session caches logits: build it with a temperature")
    if not isinstance(rng, np.random.Generator):
        raise InvalidConfigError(f"rng must be a numpy.random.Generator, got {rng!r}")
    tokens: list[int] = []
    dists: list[np.ndarray] = []
    q = session.last_row
    for i, u in enumerate(rng.random(gamma).tolist()):
        tok = inverse_cdf(q, u)
        tokens.append(tok)
        dists.append(q)
        if i < gamma - 1:
            (q,) = session.forward([tok])
    return DraftBundle(tuple(tokens), tuple(dists))
