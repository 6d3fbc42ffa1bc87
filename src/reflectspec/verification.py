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

Verifiers take the step's distributions as one ``(gamma + 1, V)`` block.

RNG consumption is fixed per call regardless of where rejection happens:
exact match and speculative sampling consume gamma + 1 uniforms (gamma
per-position draws plus the bonus), typical sampling consumes 1. This keeps
seeded runs reproducible and comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateResidualError,
    InternalConsistencyError,
    InvalidConfigError,
)
from .tokens import distribution_block, entropy, sample, sample_rows, stack_rows
from .tokens import validate_distribution


@dataclass(frozen=True)
class TypicalConfig:
    """Entropy-threshold parameters; both must lie in (0, 1]."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise InvalidConfigError(f"epsilon must lie in (0, 1], got {self.epsilon!r}")
        if not 0.0 < self.delta <= 1.0:
            raise InvalidConfigError(f"delta must lie in (0, 1], got {self.delta!r}")


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of verifying one draft.

    ``accepted_n`` counts the leading accepted draft tokens; ``bonus`` is the
    extra token every step emits. ``per_step_accepts[i]`` records whether
    position i would have been accepted in isolation, so the leading-true
    count equals ``accepted_n``. ``diagnostics`` carries strategy-specific
    per-position values (acceptance ratios, thresholds, or resampled tokens).
    """

    accepted_n: int
    bonus: int
    per_step_accepts: tuple[bool, ...]
    strategy: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if _leading_true(self.per_step_accepts) != self.accepted_n:
            raise InternalConsistencyError("accepted_n does not match leading accept flags")


def _leading_true(flags: Sequence[bool]) -> int:
    n = 0
    for flag in flags:
        if not flag:
            return n
        n += 1
    return n


def residual_distribution(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """norm(max(0, p - q)): the bonus distribution after a rejection."""
    p = validate_distribution(p)
    q = validate_distribution(q)
    if p.shape != q.shape:
        raise InternalConsistencyError("residual requires equal-size distributions")
    residual = np.maximum(p - q, 0.0)
    mass = float(residual.sum())
    if mass < 1e-12:
        raise DegenerateResidualError(
            "residual distribution has no mass; p and q coincide where a rejection occurred"
        )
    return residual / mass


def typical_threshold(entropy_source: np.ndarray, config: TypicalConfig) -> float:
    """min(epsilon, delta * exp(-H(entropy_source))), the per-step gate."""
    return min(config.epsilon, config.delta * float(np.exp(-entropy(entropy_source))))


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
    """
    gamma = len(draft_tokens)
    _check_lengths(p_dists, gamma)
    p = distribution_block(p_dists)
    if greedy_match:
        picks = p.argmax(axis=-1).tolist()
        resampled = picks[:gamma]
    else:
        resampled = sample_rows(p[:gamma], rng)
    flags = tuple(resampled[i] == draft_tokens[i] for i in range(gamma))
    n = _leading_true(flags)
    bonus = picks[n] if greedy_match else sample_rows(p[n : n + 1], rng)[0]
    return VerificationResult(
        accepted_n=n,
        bonus=bonus,
        per_step_accepts=flags,
        strategy="exact",
        diagnostics={"resampled": resampled},
    )


def verify_speculative_sampling(
    p_dists: Sequence[np.ndarray],
    q_dists: Sequence[np.ndarray],
    draft_tokens: Sequence[int],
    rng: np.random.Generator,
) -> VerificationResult:
    """Ratio-test acceptance with residual bonus sampling.

    Position i is accepted when r_i <= min(1, p_i(x_i) / q_i(x_i)), with one
    uniform r_i consumed per position in order (equality accepts). On the
    first rejection the bonus is drawn from the residual distribution at that
    position; if everything is accepted it is drawn from the final
    distribution.
    """
    gamma = len(draft_tokens)
    _check_lengths(p_dists, gamma)
    if len(q_dists) < gamma:
        raise InternalConsistencyError(f"need {gamma} draft distributions, got {len(q_dists)}")
    draws = rng.random(gamma).tolist()
    p_toks = _draft_token_probs(p_dists, draft_tokens)
    ratios = []
    for i, tok in enumerate(draft_tokens):
        q_tok = float(q_dists[i][tok])
        if q_tok <= 0.0:
            raise InternalConsistencyError(
                f"draft token {tok} has zero draft probability at position {i}"
            )
        ratios.append(min(1.0, p_toks[i] / q_tok))
    flags = [draw <= ratio for draw, ratio in zip(draws, ratios)]
    n = _leading_true(flags)
    if n < gamma:
        bonus_dist = residual_distribution(p_dists[n], q_dists[n])
    else:
        bonus_dist = p_dists[gamma]
    bonus = sample(bonus_dist, rng)
    return VerificationResult(
        accepted_n=n,
        bonus=bonus,
        per_step_accepts=tuple(flags),
        strategy="specsample",
        diagnostics={"ratios": ratios, "draws": draws},
    )


def verify_typical(
    p_dists: Sequence[np.ndarray],
    entropy_dists: Sequence[np.ndarray],
    draft_tokens: Sequence[int],
    config: TypicalConfig,
    rng: np.random.Generator,
) -> VerificationResult:
    """Entropy-threshold acceptance.

    Position i is accepted when p_i(x_i) strictly exceeds
    min(epsilon, delta * exp(-H(entropy_dists[i]))). The entropy source is
    supplied by the caller, so it can be either the unfused original
    distributions or the fused ones. The bonus is drawn from p at position
    accepted_n.
    """
    gamma = len(draft_tokens)
    _check_lengths(p_dists, gamma)
    if len(entropy_dists) < gamma:
        raise InternalConsistencyError(
            f"need {gamma} entropy-source distributions, got {len(entropy_dists)}"
        )
    thresholds = [typical_threshold(entropy_dists[i], config) for i in range(gamma)]
    p_toks = _draft_token_probs(p_dists, draft_tokens)
    flags = tuple(p_tok > threshold for p_tok, threshold in zip(p_toks, thresholds))
    n = _leading_true(flags)
    bonus = sample(p_dists[n], rng)
    return VerificationResult(
        accepted_n=n,
        bonus=bonus,
        per_step_accepts=flags,
        strategy="typical",
        diagnostics={"thresholds": thresholds},
    )


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
        raise InternalConsistencyError("distributions must share a vocabulary")
    accepted = np.minimum(p, q)
    reject_mass = 1.0 - float(accepted.sum())
    if reject_mass <= 1e-15:
        return accepted / accepted.sum()
    return accepted + reject_mass * residual_distribution(p, q)


def _draft_token_probs(dists: Sequence[np.ndarray], tokens: Sequence[int]) -> list[float]:
    """dists[i][tokens[i]] for every draft position i, in one indexing step."""
    gamma = len(tokens)
    return stack_rows(dists[:gamma])[np.arange(gamma), tokens].tolist()


def _check_lengths(p_dists: Sequence[np.ndarray], gamma: int) -> None:
    if gamma < 1:
        raise InvalidConfigError("verification requires at least one draft token")
    if len(p_dists) != gamma + 1:
        raise InternalConsistencyError(
            f"need {gamma + 1} verifier distributions, got {len(p_dists)}"
        )
