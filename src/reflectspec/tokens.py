"""Core numeric kernels over tokens, logit vectors, and distributions.

Conventions used throughout the package:

- A token is a plain ``int`` in ``[0, vocab_size)``.
- A logit vector is a 1-D ``float64`` ndarray of finite unnormalized scores.
  A logit block is an ``(n, V)`` ``float64`` ndarray, row i for position i;
  it is validated once, where it enters the kernels, not row by row.
- A distribution is a 1-D ``float64`` ndarray of non-negative probabilities
  summing to 1 within ``VALIDATE_TOL``; a distribution block has one per row.
- Entropy is measured in nats.
- Random streams are ``numpy.random.Generator`` instances backed by PCG64.
  PCG64 is the package's compatibility contract: given the same seed, every
  sampling operation is bit-reproducible across platforms.
- Categorical sampling is inverse-CDF over ascending token id and consumes
  exactly one uniform draw per sampled token.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from .errors import (
    InternalConsistencyError,
    InvalidConfigError,
    InvalidDistributionError,
    InvalidLogitsError,
    InvalidTokenError,
)

# Validation tolerance for externally supplied distributions, and the tighter
# tolerance kernels must satisfy internally.
VALIDATE_TOL = 1e-9
KERNEL_TOL = 1e-12


def make_rng(seed: int) -> np.random.Generator:
    """Return the package's canonical random stream (PCG64) for ``seed``."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def derive_seed(*parts: object) -> int:
    """Derive a stable 63-bit seed from a sequence of primitive values.

    Uses BLAKE2b over the ``repr`` of each part, so the mapping is fixed
    across runs, platforms, and process boundaries. Used for sweep cells,
    per-prompt streams, and auxiliary model seeds.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


def validate_logits(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a finite, non-empty float64 logit vector or ``(n, V)`` block,
    or raise ``InvalidLogitsError``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise InvalidLogitsError(
            f"logits must be a non-empty 1-D vector or (n, V) block, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise InvalidLogitsError("logits contain non-finite values")
    return arr


def validate_distribution(probs: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a valid probability vector or raise ``InvalidDistributionError``."""
    return _check_probabilities(np.asarray(probs, dtype=np.float64), ndim=1)


def stack_rows(rows: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Per-position rows as one float64 array; ragged rows are a bookkeeping fault."""
    try:
        return np.asarray(rows, dtype=np.float64)
    except ValueError:
        if len({np.shape(row) for row in rows}) > 1:
            raise InternalConsistencyError("per-position rows differ in vocabulary size") from None
        raise


def logit_block(rows: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Per-position logit vectors as one validated ``(n, V)`` block."""
    block = stack_rows(rows)
    if block.ndim != 2:
        raise InvalidLogitsError(f"logit rows must be 1-D vectors, got block shape {block.shape}")
    return validate_logits(block)


def distribution_block(rows: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Per-position distributions as one ``(n, V)`` block, every row validated."""
    return _check_probabilities(stack_rows(rows), ndim=2)


def _check_probabilities(arr: np.ndarray, ndim: int) -> np.ndarray:
    """Non-empty, finite, non-negative, and summing to 1 along the last axis."""
    if arr.ndim != ndim or arr.size == 0:
        raise InvalidDistributionError(
            f"distribution must be a non-empty {ndim}-D sequence, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise InvalidDistributionError("distribution contains non-finite values")
    low = arr.min()
    if low < 0.0:
        raise InvalidDistributionError(f"negative probability {low!r}")
    totals = arr.sum(axis=-1).tolist()
    for total in totals if ndim == 2 else [totals]:
        if abs(total - 1.0) > VALIDATE_TOL:
            raise InvalidDistributionError(f"probabilities sum to {total!r}, not 1")
    return arr


def softmax(logits: Sequence[float] | np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax over the last axis, stabilized by max-subtraction.

    Requires ``temperature > 0``. Each row is renormalized once so its sum is
    1 within ``KERNEL_TOL`` regardless of vocabulary size.
    """
    arr = validate_logits(logits)
    if not temperature > 0:
        raise InvalidConfigError(f"temperature must be > 0, got {temperature!r}")
    scaled = arr / float(temperature)
    scaled -= scaled.max(axis=-1, keepdims=True)
    exp = np.exp(scaled)
    return exp / exp.sum(axis=-1, keepdims=True)


def one_hot(token: int, vocab_size: int) -> np.ndarray:
    """Distribution putting all mass on ``token``."""
    if not 0 <= token < vocab_size:
        raise InvalidTokenError(f"token {token} outside vocabulary of size {vocab_size}")
    out = np.zeros(vocab_size, dtype=np.float64)
    out[token] = 1.0
    return out


def sampling_distribution(logits: Sequence[float] | np.ndarray, temperature: float) -> np.ndarray:
    """Distribution actually used for sampling at a given temperature.

    Positive temperature is a plain temperature softmax over the last axis;
    temperature 0 is the greedy limit, a one-hot on each row's argmax (lowest
    id wins ties).
    """
    if temperature < 0:
        raise InvalidConfigError(f"temperature must be >= 0, got {temperature!r}")
    if temperature == 0:
        arr = validate_logits(logits)
        picks = arr.argmax(axis=-1)[..., None]
        return (np.arange(arr.shape[-1]) == picks).astype(np.float64)
    return softmax(logits, temperature)


def entropy(dist: Sequence[float] | np.ndarray) -> float:
    """Shannon entropy in nats, with the 0*log(0) = 0 convention."""
    p = validate_distribution(dist)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def sample(dist: Sequence[float] | np.ndarray, rng: np.random.Generator) -> int:
    """Draw one token by inverse-CDF over ascending token id.

    Consumes exactly one uniform from ``rng``; identical stream state and
    distribution always produce the identical token.
    """
    p = validate_distribution(dist)
    u = rng.random()
    cdf = np.cumsum(p)
    idx = int(np.searchsorted(cdf, u, side="right"))
    if idx >= p.size:
        # Float dust: u landed beyond the accumulated total. The inverse CDF
        # answer is the last token with positive mass.
        idx = int(np.nonzero(p)[0][-1])
    return idx


def sample_rows(block: np.ndarray, rng: np.random.Generator) -> list[int]:
    """``sample`` on each row of an already validated distribution block.

    One ``rng.random(n)`` call yields the stream n ``sample`` calls consume.
    """
    u = rng.random(len(block))
    cdf = np.cumsum(block, axis=-1)
    # On a non-decreasing row this count is searchsorted(row, u, side="right").
    picks = (cdf <= u[:, None]).sum(axis=-1)
    for i in np.flatnonzero(picks >= block.shape[-1]).tolist():
        picks[i] = np.nonzero(block[i])[0][-1]
    return picks.tolist()


def greedy(dist: Sequence[float] | np.ndarray) -> int:
    """Index of the maximal probability; ties broken by lowest token id."""
    p = validate_distribution(dist)
    return int(np.argmax(p))
