"""The decode loop: draft, assemble, paired forward, fuse, verify, commit.

Each speculative step performs exactly one verification forward pass on the
target model (the pass over the assembled two-copy input), so the step count
is the denominator of the mean-accepted-tokens metric. After verification the
target session is pruned back to the committed prefix plus the accepted
draft tokens, and the bonus token is appended; nothing of the probe, the
positional prefix replay, or the second draft copy survives in any cache.
The bonus is part of the committed prefix for the next round, and its cached
logits provide the first original distribution of the next step, so the next
verification pass feeds exactly the assembled sequence. A vanilla step is a
step with an empty draft: it feeds nothing and emits only its bonus, drawn
from the target's cached p_0, through the same commit, cut and count.

The draft session keeps the positions it drafted: drafting leaves it holding
the committed prefix plus the first gamma - 1 draft tokens, and the same
prune cuts it back to the committed prefix plus the accepted ones. The next
step feeds it only what it never saw: the bonus token, or the last draft
token and the bonus when all gamma drafts were accepted. So every decode
computes, on the target, ``prompt_len + sum(input_tokens_fed) + steps``
positions (a bonus per step) and, on the draft, ``prompt_len +
sum(draft_forward_count)``.

A step's gamma + 1 verifier distributions are one ``(gamma + 1, V)`` array,
from ``fuse`` or, without reflection, one block softmax.

A step's wall time covers the whole step: the draft session's sync,
drafting, assembly, the verification pass, fusion, verification, commit and
the cut to the budget and the end-of-sequence token. Wall times are
toy-backend numbers; they are not comparable to production throughput and
reports label them accordingly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .drafting import DraftBundle, generate_draft
from .errors import InternalConsistencyError, InvalidConfigError
from .models import MAX_VOCAB_SIZE, Model, ModelSession
from .reflective import (
    ReflectiveTemplate,
    build_reflective_input,
    fuse,
    paired_forward,
)
from .tokens import inverse_cdf, make_rng, sampling_distribution, setting_int, stack_rows, token_ids
from .verification import (
    VerificationResult,
    check_typical_range,
    verify_exact_match,
    verify_speculative_sampling,
    verify_typical,
)

STRATEGIES = ("exact", "specsample", "typical", "vanilla")
ENTROPY_SOURCES = ("original", "fused")
EXACT_MATCH_MODES = ("sample", "greedy")


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
    entropy_source: str = "original"  # one of ENTROPY_SOURCES
    exact_match_mode: str = "sample"  # one of EXACT_MATCH_MODES
    max_new_tokens: int = 64
    eos_token: int | None = None
    seed: int = 0
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise InvalidConfigError(f"unknown strategy {self.strategy!r}")
        for name in ("gamma", "max_new_tokens", "seed"):
            setting_int(name, getattr(self, name))
        if self.eos_token is not None:
            setting_int("eos_token", self.eos_token)
        if self.gamma < 1:
            raise InvalidConfigError(f"gamma must be >= 1, got {self.gamma}")
        if self.gamma >= MAX_VOCAB_SIZE:  # a step draws rng.random(gamma + 1), one float64 row
            raise InvalidConfigError(f"gamma must be < {MAX_VOCAB_SIZE}, got {self.gamma}")
        if self.max_new_tokens < 1:
            raise InvalidConfigError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidConfigError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if not self.temperature >= 0:
            raise InvalidConfigError(f"temperature must be >= 0, got {self.temperature!r}")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")
        if self.entropy_source not in ENTROPY_SOURCES:
            raise InvalidConfigError(f"unknown entropy source {self.entropy_source!r}")
        if self.exact_match_mode not in EXACT_MATCH_MODES:
            raise InvalidConfigError(f"unknown exact-match mode {self.exact_match_mode!r}")
        check_typical_range(self.epsilon, self.delta)
        if self.reflect and not self.template.reflective:
            raise InvalidConfigError(
                f"reflect=True needs a reflective template, got the plain {self.template.text!r}"
            )


@dataclass
class StepStats:
    """The record of one step. tokens_emitted is accepted_n + 1 except on a
    final step truncated by the budget or an end-of-sequence token.

    Under ``record_trace`` a step also keeps its draft tokens, its original
    logits (``original[i]`` predicts draft position i, as the verification
    pass computed it; a vanilla step keeps one row, for its bonus) and the
    verifier's result; otherwise they stay empty. The committed text the
    step started from is the prompt plus the tokens all earlier steps emitted.
    """

    accepted_n: int
    tokens_emitted: int
    draft_forward_count: int
    input_tokens_fed: int
    wall_time: float
    draft_tokens: tuple[int, ...] = ()
    original: list[np.ndarray] | None = None
    result: VerificationResult | None = None


@dataclass
class RunStats:
    steps: list[StepStats] = field(default_factory=list)
    output_tokens: list[int] = field(default_factory=list)
    prompt_len: int = 0

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def total_tokens_emitted(self) -> int:
        return sum(s.tokens_emitted for s in self.steps)

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
    end-of-sequence token, which must lie in the vocabulary. Deterministic
    given (models, prompt, config).
    """
    prompt = token_ids(prompt_tokens, target.vocab_size)
    if not prompt:
        raise InvalidConfigError("prompt must be non-empty")
    if target.vocab_size != draft.vocab_size:
        raise InvalidConfigError("target and draft models must share a vocabulary")
    eos = config.eos_token
    if eos is not None and not 0 <= eos < target.vocab_size:
        raise InvalidConfigError(
            f"eos_token {eos} outside vocabulary of size {target.vocab_size}"
        )
    rng = make_rng(config.seed)
    target_session = ModelSession(target)
    target_session.forward(prompt)
    draft_session = ModelSession(draft, config.temperature)
    draft_session.forward(prompt)
    committed = list(prompt)
    stats = RunStats(prompt_len=len(prompt))

    while len(stats.output_tokens) < config.max_new_tokens:
        start = time.perf_counter()
        if config.strategy == "vanilla":
            # An empty draft: the step emits only its bonus, drawn from p_0.
            draft_tokens, draft_forwards, fed = (), 0, 0
            original = [target_session.last_logits]
            bonus = inverse_cdf(sampling_distribution(original[0], config.temperature), rng.random())
            result = VerificationResult(bonus, ())
        else:
            # Feed the draft session the committed tokens it has not drafted.
            pending = committed[len(draft_session) :]
            if pending:
                draft_session.forward(pending)
            bundle = generate_draft(draft_session, config.gamma, rng)
            draft_tokens = bundle.tokens
            draft_forwards = len(pending) + bundle.draft_forward_count
            if config.reflect:
                layout = build_reflective_input(bundle, config.template, committed)
                original, reflective = paired_forward(target_session, layout)
                fused = fuse(original, reflective, config.alpha, config.temperature)
                fed = len(layout.full_sequence)
            else:
                first = target_session.last_logits
                original = [first] + target_session.forward(list(bundle.tokens))
                fused = sampling_distribution(stack_rows(original), config.temperature)
                fed = bundle.gamma
            result = _verify(config, fused, original, bundle, rng)

        commit_and_prune(target_session, draft_session, fed, result)

        step_tokens = list(draft_tokens[: result.accepted_n]) + [result.bonus]
        kept = _cut(step_tokens, config, len(stats.output_tokens))
        wall = time.perf_counter() - start
        committed.extend(kept)
        stats.output_tokens.extend(kept)
        step = StepStats(
            accepted_n=result.accepted_n,
            tokens_emitted=len(kept),
            draft_forward_count=draft_forwards,
            input_tokens_fed=fed,
            wall_time=wall,
        )
        if config.record_trace:
            step.draft_tokens, step.original, step.result = draft_tokens, original, result
        stats.steps.append(step)
        # A cut step is the last: the sessions keep its uncut tokens, and
        # nothing reads them again.
        if len(kept) < len(step_tokens) or kept[-1] == config.eos_token:
            break
    return list(stats.output_tokens), stats


def commit_and_prune(
    target_session: ModelSession,
    draft_session: ModelSession,
    fed_len: int,
    result: VerificationResult,
) -> None:
    """Prune both sessions to the accepted draft and commit the step's tokens.

    ``fed_len`` is the number of tokens the step's verification pass fed the
    target: the whole reflective layout, the draft alone on a plain step, or
    0 on a vanilla step. Both sessions are truncated back to the committed
    prefix plus the accepted draft tokens. On the target this drops the
    rejected draft tokens and, on a reflective step, the probe, the prefix
    replay, and the entire second copy; the bonus token is then appended by
    the next forward, leaving its logits cached for the following step. The
    draft session, which holds the committed prefix plus the first gamma - 1
    drafts (only the prompt on a vanilla decode), loses the rejected drafts
    and keeps the accepted ones; when all gamma were accepted it is already
    shorter and stays as it is.
    """
    committed_before = len(target_session) - fed_len
    if committed_before < 0:
        raise InternalConsistencyError("session shorter than the tail it supposedly holds")
    keep = committed_before + result.accepted_n
    target_session.truncate(keep)
    target_session.forward([result.bonus])
    if len(draft_session) > keep:
        draft_session.truncate(keep)


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
        return verify_typical(fused, entropy_dists, bundle.tokens, config.epsilon, config.delta, rng)
    raise InvalidConfigError(f"unknown strategy {config.strategy!r}")


def _cut(step_tokens: list[int], config: DecodeConfig, emitted: int) -> list[int]:
    """The tokens a step emits: ``step_tokens`` cut to the budget left after
    ``emitted`` tokens, then just after the first end-of-sequence token."""
    kept = step_tokens[: config.max_new_tokens - emitted]
    if config.eos_token in kept:
        kept = kept[: kept.index(config.eos_token) + 1]
    return kept
