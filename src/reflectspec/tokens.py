"""Core numeric kernels over tokens, logit vectors, and distributions.

Conventions used throughout the package:

- A token is a plain ``int`` in ``[0, vocab_size)``.
- A logit vector is a 1-D ``float64`` ndarray of finite unnormalized scores.
  A logit block is an ``(n, V)`` ``float64`` ndarray, row i for position i.
- A distribution is a 1-D ``float64`` ndarray of non-negative probabilities
  summing to 1 within ``VALIDATE_TOL``; a distribution block has one per row.
- Entropy is measured in nats.
- Random streams are ``numpy.random.Generator`` instances backed by PCG64.
  PCG64 is the package's compatibility contract: given the same seed, every
  sampling operation is bit-reproducible across platforms.
- Categorical sampling is inverse-CDF over ascending token id and consumes
  exactly one uniform draw per sampled token.

Arrays are validated once, where they enter: ``validate_logits`` and
``softmax`` check logits, ``validate_distribution`` and
``distribution_block`` distributions, and ``sample`` its argument.
``entropy``, ``inverse_cdf`` and ``sample_rows`` trust an already validated
row or block; a softmax or one-hot of validated logits is a distribution by
construction.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from operator import index as _as_int
from typing import Sequence

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidDistributionError,
    InvalidLogitsError,
    InvalidTokenError,
)

# Validation tolerance for externally supplied distributions.
VALIDATE_TOL = 1e-9


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


def token_ids(tokens: Sequence[int], vocab_size: int) -> list[int]:
    """``tokens`` as plain ints in ``[0, vocab_size)``; numpy integers pass.
    ``InvalidTokenError`` names the first token outside the vocabulary, or
    a value that is not an integer: 1.9, which ``int`` would truncate to 1."""
    try:
        ids = [_as_int(t) for t in tokens]
    except TypeError:
        bad = next(t for t in tokens if not isinstance(t, numbers.Integral))
        raise InvalidTokenError(f"token {bad!r} is not an integer") from None
    for t in ids:
        if not 0 <= t < vocab_size:
            raise InvalidTokenError(f"token {t} outside vocabulary of size {vocab_size}")
    return ids


def setting_int(name: str, value: object) -> int:
    """``value`` through ``operator.index``, so numpy integers pass, or an
    ``InvalidConfigError`` naming the setting: 1.5, which ``int`` truncates."""
    try:
        return _as_int(value)
    except TypeError:
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}") from None


def setting_real(name: str, value: object) -> float:
    """``value`` as a float, or an ``InvalidConfigError`` naming the setting:
    "0.3", which ``float`` parses. A bool counts as its number."""
    if not isinstance(value, (float, int, numbers.Real)):  # the ABC alone costs ~700 ns
        raise InvalidConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


def validate_logits(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a finite, non-empty float64 logit vector or ``(n, V)`` block,
    or raise ``InvalidLogitsError``."""
    return _finite_logits(values)[0]


def _finite_logits(values: Sequence[float] | np.ndarray) -> tuple[np.ndarray, float]:
    """``validate_logits`` plus the largest logit magnitude, which is the
    reduction that checks finiteness (NaN and infinities propagate to it)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise InvalidLogitsError(
            f"logits must be a non-empty 1-D vector or (n, V) block, got shape {arr.shape}"
        )
    peak = float(np.maximum.reduce(np.abs(arr), axis=None))
    if not peak < math.inf:
        raise InvalidLogitsError("logits contain non-finite values")
    return arr, peak


def validate_distribution(probs: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a valid probability vector or raise ``InvalidDistributionError``."""
    return _check_probabilities(np.asarray(probs, dtype=np.float64), ndim=1)


def stack_rows(
    rows: Sequence[np.ndarray] | np.ndarray, error: type[Exception] = InvalidLogitsError
) -> np.ndarray:
    """Per-position rows as one float64 array; rows of different shapes are
    the caller's ``error``, which names the shapes."""
    try:
        return np.asarray(rows, dtype=np.float64)
    except ValueError:
        shapes = sorted({np.shape(row) for row in rows})
        if len(shapes) > 1:
            raise error(f"per-position rows differ in width: shapes {shapes}") from None
        raise


def distribution_block(rows: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Per-position distributions as one ``(n, V)`` block, every row validated."""
    return _check_probabilities(stack_rows(rows, InvalidDistributionError), ndim=2)


def _check_probabilities(arr: np.ndarray, ndim: int) -> np.ndarray:
    """Non-empty, finite, non-negative, and summing to 1 along the last axis."""
    if arr.ndim != ndim or arr.size == 0:
        raise InvalidDistributionError(
            f"distribution must be a non-empty {ndim}-D sequence, got shape {arr.shape}"
        )
    # A minimum >= 0 rules out NaN and -inf and a total near 1 rules out +inf,
    # so one min and one sum pass a valid array; the rest names the fault.
    low = arr.min()
    totals = arr.sum(axis=-1).tolist()
    off = [t for t in (totals if ndim == 2 else [totals]) if abs(t - 1.0) > VALIDATE_TOL]
    if low >= 0.0 and not off:
        return arr
    if not np.isfinite(arr).all():
        raise InvalidDistributionError("distribution contains non-finite values")
    if low < 0.0:
        raise InvalidDistributionError(f"negative probability {low!r}")
    raise InvalidDistributionError(f"probabilities sum to {off[0]!r}, not 1")


def softmax(logits: Sequence[float] | np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax over the last axis, stabilized by max-subtraction.

    Requires ``temperature > 0``, and large enough that the scaled logits
    and their spread stay finite: at most twice the largest logit magnitude
    over the temperature. Each row is renormalized once so its sum is 1
    within 1e-12 regardless of vocabulary size.
    """
    arr, peak = _finite_logits(logits)
    try:
        if not temperature > 0:
            raise InvalidConfigError(f"temperature must be > 0, got {temperature!r}")
    except TypeError:  # no number: valid input pays only the comparison
        raise InvalidConfigError(f"temperature must be a real number, got {temperature!r}") from None
    t = float(temperature)
    if not 2.0 * peak / t < math.inf:
        raise InvalidConfigError(
            f"temperature {temperature!r} is too small for logits of magnitude "
            f"{peak!r}: logits / temperature overflows"
        )
    out = arr / t
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def one_hot(token: int, vocab_size: int) -> np.ndarray:
    """Distribution putting all mass on ``token``."""
    out = np.zeros(vocab_size, dtype=np.float64)
    out[token_ids([token], vocab_size)] = 1.0
    return out


def sampling_distribution(logits: Sequence[float] | np.ndarray, temperature: float) -> np.ndarray:
    """Distribution actually used for sampling at a given temperature.

    Positive temperature is a plain temperature softmax over the last axis;
    temperature 0 is the greedy limit, a one-hot on each row's argmax (lowest
    id wins ties).
    """
    try:
        if not temperature >= 0:
            raise InvalidConfigError(f"temperature must be >= 0, got {temperature!r}")
    except TypeError:  # no number: valid input pays only the comparison
        raise InvalidConfigError(f"temperature must be a real number, got {temperature!r}") from None
    if temperature == 0:
        arr = validate_logits(logits)
        picks = arr.argmax(axis=-1)[..., None]
        return (np.arange(arr.shape[-1]) == picks).astype(np.float64)
    return softmax(logits, temperature)


def entropy(p: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in nats of a validated distribution, or of each row of
    a validated block, with the 0*log(0) = 0 convention. A block holding a
    zero is summed row by row over its nonzero terms: a masked full-row sum
    groups the terms differently and can differ in the last bit."""
    if p.ndim == 2:
        if p.min() > 0.0:
            return -(p * np.log(p)).sum(axis=-1)
        return np.array([entropy(row) for row in p])
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def sample(dist: Sequence[float] | np.ndarray, rng: np.random.Generator) -> int:
    """Draw one token by inverse-CDF over ascending token id.

    Consumes exactly one uniform from ``rng``; identical stream state and
    distribution always produce the identical token.
    """
    if not isinstance(rng, np.random.Generator):
        raise InvalidConfigError(f"rng must be a numpy.random.Generator, got {rng!r}")
    return inverse_cdf(validate_distribution(dist), rng.random())


def inverse_cdf(p: np.ndarray, u: float) -> int:
    """The token a uniform ``u`` in [0, 1) selects from an already validated
    distribution ``p``, by inverse CDF over ascending token id."""
    # np.add.accumulate: ndarray.cumsum's values without its dispatch cost.
    idx = int(np.add.accumulate(p).searchsorted(u, "right"))
    if idx >= p.size:
        # Float dust: u landed beyond the accumulated total. The inverse CDF
        # answer is the last token with positive mass.
        idx = int(np.nonzero(p)[0][-1])
    return idx


def sample_rows(block: np.ndarray, u: np.ndarray) -> list[int]:
    """``inverse_cdf`` of row i of a validated block at ``u[i]``: given one
    ``rng.random(n)``, the tokens n ``sample`` calls would draw."""
    cdf = np.add.accumulate(block, axis=-1)
    # On a non-decreasing row this count is searchsorted(row, u, side="right").
    picks = (cdf <= u[:, None]).sum(axis=-1)
    for i in np.flatnonzero(picks >= block.shape[-1]).tolist():
        picks[i] = np.nonzero(block[i])[0][-1]
    return picks.tolist()
