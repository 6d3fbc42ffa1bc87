"""Acceptance strategies over fused distributions, plus exact oracles.

Three strategies decide how many leading draft tokens to keep; every step
then emits one bonus token, so a step yields accepted_n + 1 tokens total.

- exact match: resample (or argmax) each position from the verifier's
  distribution and accept while it reproduces the draft token.
- speculative sampling: accept token i with probability
  min(1, p_i(x_i) / q_i(x_i)); on the first rejection the bonus comes from
  the residual distribution norm(max(0, p - q)), which makes the emitted
  token law exactly the verifier's distribution.
- typical sampling: accept token i when its verifier probability clears an
  entropy-scaled threshold min(epsilon, delta * exp(-H)).

``exact_step_distribution`` computes the one-step output law of speculative
sampling by summation, with no sampling at all; it is the enumeration oracle
used to prove unbiasedness.

Verifiers take the step's distributions as one ``(gamma + 1, V)`` block and
validate each input block once per call, at entry, with the draft tokens
against the block's width (and, for speculative sampling, against q: a
token q gives no mass is refused); a block that does not fit the draft is
an ``InvalidDistributionError`` naming it. The row work after that
(ratios, residual, thresholds, the bonus pick) trusts the validated rows.
An invalid row raises wherever it sits, even past the first rejection.
``residual_distribution`` and ``typical_threshold`` (on the whole block)
are two of those kernels, so the oracles and ``reflectspec selftest`` check
the functions a decode runs.

After its checks each verifier makes one ``rng.random(k)`` call, k fixed
wherever rejection happens, and hands the uniforms to a private verdict: a
pure function of the blocks, the draft and the uniforms, which can run again
on other rows with the same uniforms. With the engine's own draws, a decode
step consumes:

| draw | uniforms |
|---|---|
| drafting, per drafted step | gamma |
| speculative sampling | gamma + 1 |
| exact match, sample mode | gamma + 1 |
| exact match, greedy mode (and at temperature 0) | 0 |
| typical | 1 |
| a vanilla step's bonus | 1 |
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateResidualError,
    InvalidConfigError,
    InvalidDistributionError,
    InvalidTokenError,
)
from .tokens import (
    distribution_block,
    entropy,
    inverse_cdf,
    sample_rows,
    token_ids,
    validate_distribution,
)


def check_typical_range(epsilon: float, delta: float) -> None:
    """Raise ``InvalidConfigError`` unless epsilon and delta lie in (0, 1]."""
    if not 0.0 < epsilon <= 1.0:
        raise InvalidConfigError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    if not 0.0 < delta <= 1.0:
        raise InvalidConfigError(f"delta must lie in (0, 1], got {delta!r}")


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of verifying one draft.

    ``bonus`` is the extra token every step emits. ``per_step_accepts[i]``
    records whether position i would have been accepted in isolation.
    ``diagnostics`` carries strategy-specific per-position values
    (acceptance ratios, thresholds, or resampled tokens).
    """

    bonus: int
    per_step_accepts: tuple[bool, ...]
    diagnostics: dict = field(default_factory=dict)

    @property
    def accepted_n(self) -> int:
        """The number of leading accepted draft tokens: the leading True flags."""
        return _leading_true(self.per_step_accepts)


def _leading_true(flags: Sequence[bool]) -> int:
    return (*flags, False).index(False)


def residual_distribution(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """norm(max(0, p - q)), the bonus distribution after a rejection, of two
    validated rows of one vocabulary."""
    residual = np.maximum(p - q, 0.0)
    mass = float(residual.sum())
    if mass < 1e-12:
        raise DegenerateResidualError(
            "residual distribution has no mass; p and q coincide where a rejection occurred"
        )
    return residual / mass


def typical_threshold(
    entropy_source: np.ndarray, epsilon: float, delta: float
) -> float | np.ndarray:
    """min(epsilon, delta * exp(-H)), the per-step gate, of a validated row,
    or an array of the gates of a block's rows; ``check_typical_range`` checks
    epsilon and delta."""
    gate = delta * np.exp(-entropy(entropy_source))
    return np.minimum(epsilon, gate) if entropy_source.ndim == 2 else min(epsilon, float(gate))


def verify_exact_match(
    p_dists: Sequence[np.ndarray],
    draft_tokens: Sequence[int],
    rng: np.random.Generator,
    greedy_match: bool = False,
) -> VerificationResult:
    """Accept while an independent draw from p_i reproduces the draft token.

    ``greedy_match`` replaces every draw by the argmax, the temperature-0
    behavior (and one deterministic reading of exact matching at positive
    temperature). The bonus is a fresh draw (or argmax) from p at the first
    mismatched position, or from the final distribution when all match.

    Sampled matching is not lossless. A mismatch discards the resampled
    token and emits a fresh draw from p, so with the draft drawn from q the
    token emitted at a drafted position has law p(t) (1 + q(t) - <q, p>),
    not p(t).
    """
    p, draft = _checked(p_dists, draft_tokens)
    return _exact_match_verdict(p, draft, rng.random(0 if greedy_match else len(draft) + 1))


def _exact_match_verdict(p: np.ndarray, draft: list[int], u: np.ndarray) -> VerificationResult:
    """Row i's pick is at ``u[i]``, the bonus at ``u[gamma]``; no ``u`` picks argmaxes."""
    gamma = len(draft)
    picks = sample_rows(p[:gamma], u[:gamma]) if u.size else p.argmax(axis=-1).tolist()
    resampled = picks[:gamma]
    flags = tuple(resampled[i] == draft[i] for i in range(gamma))
    n = _leading_true(flags)
    bonus = inverse_cdf(p[n], u[gamma]) if u.size else picks[n]
    return VerificationResult(bonus, flags, {"resampled": resampled})


def verify_speculative_sampling(
    p_dists: Sequence[np.ndarray],
    q_dists: Sequence[np.ndarray],
    draft_tokens: Sequence[int],
    rng: np.random.Generator,
) -> VerificationResult:
    """Ratio-test acceptance with residual bonus sampling.

    Position i is accepted when r_i <= min(1, p_i(x_i) / q_i(x_i)), with one
    uniform r_i per position in order (equality accepts). On the first
    rejection the bonus is drawn from the residual distribution at that
    position; if everything is accepted it is drawn from the final
    distribution.
    """
    p, draft = _checked(p_dists, draft_tokens)
    q = _draft_rows(q_dists, "q_dists", p)
    for i, tok in enumerate(draft):
        if q.item(i, tok) <= 0.0:
            raise InvalidTokenError(f"draft token {tok} has zero q_dists mass at position {i}")
    return _speculative_sampling_verdict(p, q, draft, rng.random(len(draft) + 1))


def _speculative_sampling_verdict(
    p: np.ndarray, q: np.ndarray, draft: list[int], u: np.ndarray
) -> VerificationResult:
    """The ratio test of draft token i, which q gives mass, at ``u[i]``; the bonus at ``u[gamma]``."""
    gamma = len(draft)
    draws = u.tolist()
    ratios = [min(1.0, p.item(i, tok) / q.item(i, tok)) for i, tok in enumerate(draft)]
    flags = [draw <= ratio for draw, ratio in zip(draws, ratios)]
    n = _leading_true(flags)
    bonus_dist = residual_distribution(p[n], q[n]) if n < gamma else p[gamma]
    bonus = inverse_cdf(bonus_dist, draws[gamma])
    return VerificationResult(bonus, tuple(flags), {"ratios": ratios, "draws": draws[:gamma]})


def verify_typical(
    p_dists: Sequence[np.ndarray],
    entropy_dists: Sequence[np.ndarray],
    draft_tokens: Sequence[int],
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
) -> VerificationResult:
    """Entropy-threshold acceptance.

    Position i is accepted when p_i(x_i) strictly exceeds
    min(epsilon, delta * exp(-H(entropy_dists[i]))), with epsilon and delta
    in (0, 1]. The entropy source is supplied by the caller, so it can be
    either the unfused original distributions or the fused ones. The bonus
    is drawn from p at position accepted_n.
    """
    check_typical_range(epsilon, delta)
    p, draft = _checked(p_dists, draft_tokens)
    # The engine passes the fused block as both when entropy comes from it.
    h = p if entropy_dists is p_dists else _draft_rows(entropy_dists, "entropy_dists", p)
    return _typical_verdict(p, h, draft, epsilon, delta, rng.random(1))


def _typical_verdict(
    p: np.ndarray, h: np.ndarray, draft: list[int], epsilon: float, delta: float, u: np.ndarray
) -> VerificationResult:
    """Each draft position against the gate of its row of ``h``, the bonus at ``u[0]``."""
    thresholds = typical_threshold(h[: len(draft)], epsilon, delta).tolist()
    flags = tuple(p.item(i, tok) > thresholds[i] for i, tok in enumerate(draft))
    bonus = inverse_cdf(p[_leading_true(flags)], u[0])
    return VerificationResult(bonus, flags, {"thresholds": thresholds})


def exact_step_distribution(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact one-step output law of speculative sampling, by summation.

    For each token x the accepted mass is q(x) * min(1, p(x)/q(x)), which
    equals min(p(x), q(x)); the remaining probability flows through the
    residual distribution. No sampling is involved, making this the
    enumeration oracle for the unbiasedness property (the result equals p).
    """
    p = validate_distribution(p)
    q = validate_distribution(q)
    if p.shape != q.shape:
        raise InvalidDistributionError(f"p and q differ in shape: {p.shape} vs {q.shape}")
    accepted = np.minimum(p, q)
    reject_mass = 1.0 - float(accepted.sum())
    if reject_mass <= 1e-15:
        return accepted / accepted.sum()
    return accepted + reject_mass * residual_distribution(p, q)


def _checked(
    p_dists: Sequence[np.ndarray], draft_tokens: Sequence[int]
) -> tuple[np.ndarray, list[int]]:
    """The verifier block, one row per draft position plus the bonus row,
    and the draft as tokens of its vocabulary."""
    gamma = len(draft_tokens)
    if gamma < 1:
        raise InvalidConfigError("verification requires at least one draft token")
    if len(p_dists) != gamma + 1:
        raise InvalidDistributionError(
            f"p_dists must hold {gamma + 1} rows for {gamma} draft tokens, got {len(p_dists)}"
        )
    p = distribution_block(p_dists)
    return p, token_ids(draft_tokens, p.shape[-1])


def _draft_rows(dists: Sequence[np.ndarray], name: str, p: np.ndarray) -> np.ndarray:
    """The validated block of the rows of ``dists`` at the draft positions
    of the verifier block ``p``, each as wide as p's rows."""
    gamma, width = len(p) - 1, p.shape[-1]
    if len(dists) < gamma:
        raise InvalidDistributionError(f"{name} must hold {gamma} rows, got {len(dists)}")
    block = distribution_block(dists[:gamma])
    if block.shape[-1] != width:
        raise InvalidDistributionError(f"{name} rows have {block.shape[-1]} tokens, p_dists rows {width}")
    return block
