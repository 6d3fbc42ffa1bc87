"""Reflective input assembly, paired logit extraction, and fusion.

The verification input for one decode step is the draft played twice around
a probe:

    draft , probe prompt , positional prefix , draft

The positional prefix replays the trailing committed tokens so the model can
anchor where regeneration starts. Because attention is causal, appending the
probe and second copy never disturbs the logits of the first copy; a single
forward pass therefore yields both the original logits (first copy) and the
reflective logits (second copy). ``shift_len`` is the distance between a
draft token's two appearances, and the fused distribution at each position
is a convex combination of the paired logits pushed through one softmax.

Template files use ``${draft}`` and ``${prefix}`` placeholders, e.g.::

    ${draft} [BACK] ${prefix} ${draft}

A template with a single ``${draft}`` means no reflection: the engine then
feeds only the draft and verifies against unfused logits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .drafting import DraftBundle
from .errors import InvalidConfigError, InternalConsistencyError
from .models import ModelSession
from .tokens import logit_block, sampling_distribution

DEFAULT_TEMPLATE_TEXT = "${draft} [BACK] ${prefix} ${draft}"

_REFLECTIVE_RE = re.compile(
    r"^\s*\$\{draft\}(?P<prompt>.*?)(?P<prefix>\$\{prefix\})?\s*\$\{draft\}\s*$",
    re.DOTALL,
)
_PLAIN_RE = re.compile(r"^\s*\$\{draft\}\s*$")


@dataclass(frozen=True)
class ReflectiveTemplate:
    """Probe prompt tokens plus the positional prefix length to replay."""

    prompt_tokens: tuple[int, ...] = ()
    prefix_len: int = 0

    def __post_init__(self) -> None:
        if self.prefix_len < 0:
            raise InvalidConfigError("prefix_len must be >= 0")


@dataclass(frozen=True)
class ResolvedTemplate:
    """A parsed template string: its probe text and structural flags."""

    text: str
    prompt_tokens: tuple[int, ...]
    has_prefix: bool
    reflective: bool


@dataclass(frozen=True)
class FusionConfig:
    alpha: float
    temperature: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidConfigError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if self.temperature < 0:
            raise InvalidConfigError("temperature must be >= 0")


@dataclass(frozen=True)
class ReflectiveLayout:
    """The assembled two-copy sequence with its segment bookkeeping.

    ``shift_len`` = gamma + template_len separates a draft token from its
    mirror; ``m`` = shift_len + 1 is the 1-based index of the first
    reflective logit. Segment fields are (start, stop) half-open spans into
    ``full_sequence``.
    """

    full_sequence: tuple[int, ...]
    gamma: int
    template_len: int
    shift_len: int
    m: int
    draft1_span: tuple[int, int]
    probe_span: tuple[int, int]
    prefix_span: tuple[int, int]
    draft2_span: tuple[int, int]

    def __post_init__(self) -> None:
        if self.shift_len != self.gamma + self.template_len or self.m != self.shift_len + 1:
            raise InternalConsistencyError("layout shift bookkeeping is inconsistent")
        if len(self.full_sequence) != self.shift_len + self.gamma:
            raise InternalConsistencyError("layout length does not match its segments")
        for i in range(self.gamma):
            if self.full_sequence[i] != self.full_sequence[i + self.shift_len]:
                raise InternalConsistencyError("second draft copy does not mirror the first")


def parse_template_text(text: str) -> ResolvedTemplate:
    """Parse a placeholder template into its probe text and flags.

    Raises ``InvalidConfigError`` for any shape other than one ``${draft}``
    (plain, no reflection) or two ``${draft}`` with an optional probe text
    and optional ``${prefix}`` in between. Prompt tokens are filled in later
    by ``resolve_template``.
    """
    if _PLAIN_RE.match(text):
        return ResolvedTemplate(text=text, prompt_tokens=(), has_prefix=False, reflective=False)
    match = _REFLECTIVE_RE.match(text)
    if not match:
        raise InvalidConfigError(
            f"unsupported template {text!r}; expected '${{draft}}' or "
            "'${draft} <probe> ${prefix} ${draft}'"
        )
    prompt_text = match.group("prompt")
    if "${" in prompt_text:
        raise InvalidConfigError(f"unexpected placeholder inside probe text of {text!r}")
    return ResolvedTemplate(
        text=text,
        prompt_tokens=(),
        has_prefix=match.group("prefix") is not None,
        reflective=True,
    )


def resolve_template(text: str, tokenizer) -> ResolvedTemplate:
    """Parse and tokenize a template with the run's tokenizer.

    Tokenization happens once per run; the placeholders are structural and
    are never string-substituted at decode time.
    """
    parsed = parse_template_text(text)
    prompt_part = ""
    if parsed.reflective:
        match = _REFLECTIVE_RE.match(text)
        assert match is not None
        prompt_part = match.group("prompt")
    prompt_tokens = tuple(tokenizer.encode(prompt_part, extend=True))
    return ResolvedTemplate(
        text=parsed.text,
        prompt_tokens=prompt_tokens,
        has_prefix=parsed.has_prefix,
        reflective=parsed.reflective,
    )


def build_reflective_input(
    draft: DraftBundle,
    template: ReflectiveTemplate,
    committed: Sequence[int],
) -> ReflectiveLayout:
    """Assemble draft + probe + prefix + draft and compute shift bookkeeping.

    The prefix segment replays the last ``template.prefix_len`` committed
    tokens; when fewer are committed, all of them are used (no padding).
    """
    tokens = [int(t) for t in draft.tokens]
    gamma = len(tokens)
    prompt = [int(t) for t in template.prompt_tokens]
    if template.prefix_len > 0:
        prefix = [int(t) for t in committed[-template.prefix_len :]]
    else:
        prefix = []
    full = tokens + prompt + prefix + tokens
    template_len = len(prompt) + len(prefix)
    shift_len = gamma + template_len
    probe_start = gamma
    prefix_start = probe_start + len(prompt)
    return ReflectiveLayout(
        full_sequence=tuple(full),
        gamma=gamma,
        template_len=template_len,
        shift_len=shift_len,
        m=shift_len + 1,
        draft1_span=(0, gamma),
        probe_span=(probe_start, prefix_start),
        prefix_span=(prefix_start, prefix_start + len(prefix)),
        draft2_span=(shift_len, shift_len + gamma),
    )


def paired_forward(
    session: ModelSession,
    layout: ReflectiveLayout,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """One forward over the assembled sequence, split into paired logits.

    Returns (original, reflective), each of length gamma + 1. original[i]
    predicts draft position i; original[0] is the logit vector already cached
    at the end of the committed prefix, so the forward feeds exactly the
    assembled sequence and nothing is re-fed. reflective[i] is the logit
    vector at the mirrored position in the second copy; index gamma of each
    is the respective bonus-position output. The session is left holding the
    full assembled tail; pruning is the caller's job.
    """
    if session.cached_length == 0:
        raise InternalConsistencyError("session holds no committed state to anchor the draft")
    gamma = layout.gamma
    first_original = session.last_logits
    outputs = session.forward(list(layout.full_sequence))
    original = [first_original] + outputs[:gamma]
    reflective = outputs[layout.shift_len - 1 : layout.shift_len + gamma]
    if len(original) != gamma + 1 or len(reflective) != gamma + 1:
        raise InternalConsistencyError("paired logit extraction does not match the layout")
    return original, reflective


def fuse(
    original: Sequence[np.ndarray],
    reflective: Sequence[np.ndarray],
    config: FusionConfig,
) -> np.ndarray:
    """Convex combination of the paired logits of a step, then one softmax.

    Both sides are stacked into ``(gamma + 1, V)`` blocks and validated once;
    row i of the result is the sampling distribution of the fused logit
    vector (1-alpha)*original[i] + alpha*reflective[i]. Temperature applies
    to the fused sum inside the final softmax, so at alpha=0 this reproduces
    plain temperature sampling of the original logits bit for bit. The final
    softmax validates the fused block once more, so a non-finite fused sum
    raises ``InvalidLogitsError`` like a non-finite input does.
    """
    if len(original) != len(reflective):
        raise InternalConsistencyError(
            f"paired logit lengths differ: {len(original)} vs {len(reflective)}"
        )
    o = logit_block(original)
    r = logit_block(reflective)
    if o.shape != r.shape:
        raise InternalConsistencyError("paired logit vectors differ in vocabulary size")
    alpha = config.alpha
    return sampling_distribution((1.0 - alpha) * o + alpha * r, config.temperature)
