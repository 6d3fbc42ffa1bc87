"""The decode loop: draft, assemble, paired forward, fuse, verify, commit.

Each speculative step performs exactly one verification forward pass on the
target model (the pass over the assembled two-copy input), which is the
denominator of the mean-accepted-tokens metric. After verification the
target session is pruned back to the committed prefix plus the accepted
draft tokens, and the bonus token is appended; nothing of the probe, the
positional prefix replay, or the second draft copy survives in any cache.
The bonus is part of the committed prefix for the next round, and its cached
logits provide the first original distribution of the next step, so the next
verification pass feeds exactly the assembled sequence.

A step's gamma + 1 verifier distributions are one ``(gamma + 1, V)`` array,
from ``fuse`` or, without reflection, one block softmax.

Wall times are measured around the verification pass plus verification and
are toy-backend numbers; they are not comparable to production throughput
and reports label them accordingly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .drafting import DraftBundle, generate_draft
from .errors import InternalConsistencyError, InvalidConfigError
from .models import Model, ModelSession
from .reflective import (
    FusionConfig,
    ReflectiveLayout,
    ReflectiveTemplate,
    build_reflective_input,
    fuse,
    paired_forward,
)
from .tokens import make_rng, sample, sampling_distribution, stack_rows
from .verification import (
    TypicalConfig,
    VerificationResult,
    verify_exact_match,
    verify_speculative_sampling,
    verify_typical,
)

STRATEGIES = ("exact", "specsample", "typical", "vanilla")

# Tolerance for the debug-mode check that the appended reflective tail does
# not perturb the original-segment logits.
CAUSALITY_TOL = 1e-12


@dataclass(frozen=True)
class DecodeConfig:
    gamma: int = 5
    alpha: float = 0.3
    temperature: float = 0.8
    strategy: str = "specsample"
    epsilon: float = 0.3
    delta: float = 0.2
    template: ReflectiveTemplate = ReflectiveTemplate()
    reflect: bool = True
    entropy_source: str = "original"  # or "fused"
    exact_match_mode: str = "sample"  # or "greedy"
    max_new_tokens: int = 64
    eos_token: int | None = None
    seed: int = 0
    debug_checks: bool = False
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise InvalidConfigError(f"unknown strategy {self.strategy!r}")
        if self.gamma < 1:
            raise InvalidConfigError("gamma must be >= 1")
        if self.max_new_tokens < 1:
            raise InvalidConfigError("max_new_tokens must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidConfigError("alpha must lie in [0, 1]")
        if self.temperature < 0:
            raise InvalidConfigError("temperature must be >= 0")
        if self.entropy_source not in ("original", "fused"):
            raise InvalidConfigError(f"unknown entropy source {self.entropy_source!r}")
        if self.exact_match_mode not in ("sample", "greedy"):
            raise InvalidConfigError(f"unknown exact-match mode {self.exact_match_mode!r}")


@dataclass
class StepStats:
    """Per-step accounting. tokens_emitted is accepted_n + 1 except on a
    final step truncated by the budget or an end-of-sequence token."""

    accepted_n: int
    tokens_emitted: int
    target_forward_count: int
    draft_forward_count: int
    input_tokens_fed: int
    wall_time: float


@dataclass
class StepTrace:
    """Debug record of one step, kept only when tracing is enabled."""

    committed_before: tuple[int, ...]
    draft_tokens: tuple[int, ...]
    full_sequence: tuple[int, ...] | None
    original: list[np.ndarray]
    reflective: list[np.ndarray] | None
    fused: np.ndarray  # (gamma + 1, V) verifier distributions
    result: VerificationResult


@dataclass
class RunStats:
    steps: list[StepStats] = field(default_factory=list)
    output_tokens: list[int] = field(default_factory=list)
    prompt_len: int = 0
    trace: list[StepTrace] | None = None

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def total_tokens_emitted(self) -> int:
        return sum(s.tokens_emitted for s in self.steps)

    @property
    def total_target_forwards(self) -> int:
        return sum(s.target_forward_count for s in self.steps)

    @property
    def total_draft_forwards(self) -> int:
        return sum(s.draft_forward_count for s in self.steps)

    @property
    def total_input_tokens(self) -> int:
        return sum(s.input_tokens_fed for s in self.steps)

    @property
    def total_wall_time(self) -> float:
        return sum(s.wall_time for s in self.steps)


def decode(
    target: Model,
    draft: Model,
    prompt_tokens: Sequence[int],
    config: DecodeConfig,
) -> tuple[list[int], RunStats]:
    """Run a full decode and return (emitted tokens, per-step statistics).

    Emitted tokens stop at ``max_new_tokens`` or just after the first
    end-of-sequence token. Deterministic given (models, prompt, config).
    """
    prompt = [int(t) for t in prompt_tokens]
    if not prompt:
        raise InvalidConfigError("prompt must be non-empty")
    if target.vocab_size != draft.vocab_size:
        raise InvalidConfigError("target and draft models must share a vocabulary")
    rng = make_rng(config.seed)
    target_session = ModelSession(target)
    target_session.forward(prompt)
    if config.strategy == "vanilla":
        return _decode_vanilla(target_session, config, rng, len(prompt))
    draft_session = ModelSession(draft)
    draft_session.forward(prompt)
    committed = list(prompt)
    stats = RunStats(prompt_len=len(prompt), trace=[] if config.record_trace else None)
    fusion = FusionConfig(config.alpha, config.temperature)

    while len(stats.output_tokens) < config.max_new_tokens:
        # Feed the draft session whatever was committed since its last sync.
        pending = committed[len(draft_session) :]
        draft_forwards = 0
        if pending:
            draft_session.forward(pending)
            draft_forwards += len(pending)
        bundle = generate_draft(draft_session, config.gamma, config.temperature, rng)
        draft_forwards += bundle.draft_forward_count

        start = time.perf_counter()
        layout: ReflectiveLayout | None = None
        reflective = None
        if config.reflect:
            layout = build_reflective_input(bundle, config.template, committed)
            original, reflective = paired_forward(target_session, layout)
            fused = fuse(original, reflective, fusion)
            fed = len(layout.full_sequence)
        else:
            first = target_session.last_logits
            original = [first] + target_session.forward(list(bundle.tokens))
            fused = sampling_distribution(stack_rows(original), config.temperature)
            fed = bundle.gamma
        result = _verify(config, fused, original, bundle, rng)
        wall = time.perf_counter() - start

        if config.debug_checks:
            _assert_original_segment_clean(target, committed, bundle, original)

        committed_before = len(committed)
        if layout is not None:
            commit_and_prune(target_session, draft_session, layout, result)
        else:
            _commit(target_session, draft_session, bundle.gamma, result)

        step_tokens = list(bundle.tokens[: result.accepted_n]) + [result.bonus]
        kept = _truncate_step_tokens(step_tokens, config, len(stats.output_tokens))
        if len(kept) < len(step_tokens):
            target_session.truncate(committed_before + len(kept))
        committed.extend(kept)
        stats.output_tokens.extend(kept)
        stats.steps.append(
            StepStats(
                accepted_n=result.accepted_n,
                tokens_emitted=len(kept),
                target_forward_count=1,
                draft_forward_count=draft_forwards,
                input_tokens_fed=fed,
                wall_time=wall,
            )
        )
        if stats.trace is not None:
            stats.trace.append(
                StepTrace(
                    committed_before=tuple(committed[:committed_before]),
                    draft_tokens=bundle.tokens,
                    full_sequence=layout.full_sequence if layout else None,
                    original=original,
                    reflective=reflective,
                    fused=fused,
                    result=result,
                )
            )
        if _hit_eos(kept, config.eos_token) or len(kept) < len(step_tokens):
            break
    return list(stats.output_tokens), stats


def commit_and_prune(
    target_session: ModelSession,
    draft_session: ModelSession,
    layout: ReflectiveLayout,
    result: VerificationResult,
) -> None:
    """Prune the verification tail and commit the step's tokens.

    The target session is truncated back to the committed prefix plus the
    accepted draft tokens, which drops the probe, the prefix replay, and the
    entire second copy; the bonus token is then appended by the next forward,
    leaving its logits cached for the following step. The draft session is
    trimmed to the committed boundary (it normally already sits there, since
    drafting rolls itself back).
    """
    _commit(target_session, draft_session, len(layout.full_sequence), result)


def _commit(
    target_session: ModelSession,
    draft_session: ModelSession,
    fed_len: int,
    result: VerificationResult,
) -> None:
    committed_before = len(target_session) - fed_len
    if committed_before < 0:
        raise InternalConsistencyError("session shorter than the tail it supposedly holds")
    target_session.truncate(committed_before + result.accepted_n)
    target_session.forward([result.bonus])
    if len(draft_session) > committed_before:
        draft_session.truncate(committed_before)


def _decode_vanilla(
    target_session: ModelSession,
    config: DecodeConfig,
    rng: np.random.Generator,
    prompt_len: int,
) -> tuple[list[int], RunStats]:
    """Plain autoregressive decoding: one token per forward pass."""
    stats = RunStats(prompt_len=prompt_len, trace=None)
    while len(stats.output_tokens) < config.max_new_tokens:
        start = time.perf_counter()
        dist = sampling_distribution(target_session.last_logits, config.temperature)
        token = sample(dist, rng)
        target_session.forward([token])
        wall = time.perf_counter() - start
        stats.output_tokens.append(token)
        stats.steps.append(
            StepStats(
                accepted_n=0,
                tokens_emitted=1,
                target_forward_count=1,
                draft_forward_count=0,
                input_tokens_fed=1,
                wall_time=wall,
            )
        )
        if config.eos_token is not None and token == config.eos_token:
            break
    return list(stats.output_tokens), stats


def _verify(
    config: DecodeConfig,
    fused: np.ndarray,
    original: list[np.ndarray],
    bundle: DraftBundle,
    rng: np.random.Generator,
) -> VerificationResult:
    if config.strategy == "exact":
        greedy_match = config.exact_match_mode == "greedy" or config.temperature == 0
        return verify_exact_match(fused, bundle.tokens, rng, greedy_match=greedy_match)
    if config.strategy == "specsample":
        return verify_speculative_sampling(fused, bundle.q_dists, bundle.tokens, rng)
    if config.strategy == "typical":
        if config.entropy_source == "fused" or not config.reflect:
            entropy_dists = fused  # unreflected, fused is softmax(original)
        else:
            entropy_dists = sampling_distribution(stack_rows(original), config.temperature)
        return verify_typical(
            fused, entropy_dists, bundle.tokens, TypicalConfig(config.epsilon, config.delta), rng
        )
    raise InvalidConfigError(f"unknown strategy {config.strategy!r}")


def _assert_original_segment_clean(
    target: Model,
    committed: list[int],
    bundle: DraftBundle,
    original: list[np.ndarray],
) -> None:
    """Debug check: replaying only committed + draft reproduces the original
    logits, i.e. the appended reflective tail changed nothing upstream."""
    fresh = ModelSession(target)
    fresh.forward(committed)
    reference = [fresh.last_logits] + fresh.forward(list(bundle.tokens))
    for got, want in zip(original, reference):
        if float(np.max(np.abs(got - want))) > CAUSALITY_TOL:
            raise InternalConsistencyError(
                "reflective tail perturbed original-segment logits"
            )


def _truncate_step_tokens(
    step_tokens: list[int], config: DecodeConfig, already_emitted: int
) -> list[int]:
    budget = config.max_new_tokens - already_emitted
    kept = step_tokens[:budget]
    if config.eos_token is not None and config.eos_token in kept:
        kept = kept[: kept.index(config.eos_token) + 1]
    return kept


def _hit_eos(tokens: list[int], eos_token: int | None) -> bool:
    return eos_token is not None and eos_token in tokens
