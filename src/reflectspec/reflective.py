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
from .errors import InvalidConfigError, InternalConsistencyError, InvalidLogitsError
from .models import ModelSession
from .tokens import sampling_distribution, setting_int, stack_rows

DEFAULT_TEMPLATE_TEXT = "${draft} [BACK] ${prefix} ${draft}"

# One ``${draft}`` (plain), or two with an optional probe text and an
# optional ``${prefix}`` between them (reflective).
_TEMPLATE_RE = re.compile(
    r"^\s*\$\{draft\}"
    r"(?:(?P<prompt>.*?)(?P<prefix>\$\{prefix\})?\s*(?P<second>\$\{draft\}))?\s*$",
    re.DOTALL,
)


@dataclass(frozen=True)
class ReflectiveTemplate:
    """A probe template: probe tokens, the positional prefix length to
    replay, and the shape of the text it was parsed from.

    ``resolve_template`` fills in ``text``, ``has_prefix`` (the text holds
    ``${prefix}``) and ``reflective`` (the text plays the draft twice) and
    leaves ``prefix_len`` at 0 for the caller to set. The defaults describe
    a reflective template built from tokens rather than text. The engine
    reads only ``prompt_tokens`` and ``prefix_len``.
    """

    prompt_tokens: tuple[int, ...] = ()
    prefix_len: int = 0
    text: str = ""
    has_prefix: bool = True
    reflective: bool = True

    def __post_init__(self) -> None:
        if setting_int("prefix_len", self.prefix_len) < 0:
            raise InvalidConfigError("prefix_len must be >= 0")


@dataclass(frozen=True)
class ReflectiveLayout:
    """The assembled two-copy sequence: draft, probe, prefix, draft.

    ``shift_len`` is the distance between a draft token and its mirror in
    the second copy (gamma plus the probe and prefix lengths), so the first
    reflective logit sits at 1-based input index ``shift_len + 1``. The
    draft length ``gamma`` is what follows the first ``shift_len`` tokens.
    """

    full_sequence: tuple[int, ...]
    shift_len: int

    def __post_init__(self) -> None:
        if not 1 <= self.gamma <= self.shift_len:
            raise InternalConsistencyError(
                f"layout draft length {self.gamma} outside [1, shift_len {self.shift_len}]"
            )
        if self.full_sequence[: self.gamma] != self.full_sequence[self.shift_len :]:
            raise InternalConsistencyError("second draft copy does not mirror the first")

    @property
    def gamma(self) -> int:
        return len(self.full_sequence) - self.shift_len


def resolve_template(text: str, tokenizer) -> ReflectiveTemplate:
    """Parse a placeholder template and tokenize its probe text.

    Raises ``InvalidConfigError`` for any shape other than one ``${draft}``
    (plain, no reflection) or two ``${draft}`` with an optional probe text
    and optional ``${prefix}`` in between. Tokenization happens once per
    run; the placeholders are structural and are never string-substituted
    at decode time.
    """
    match = _TEMPLATE_RE.match(text)
    if not match:
        raise InvalidConfigError(
            f"unsupported template {text!r}; expected '${{draft}}' or "
            "'${draft} <probe> ${prefix} ${draft}'"
        )
    prompt_text = match.group("prompt") or ""
    if "${" in prompt_text:
        raise InvalidConfigError(f"unexpected placeholder inside probe text of {text!r}")
    return ReflectiveTemplate(
        prompt_tokens=tuple(tokenizer.encode(prompt_text, extend=True)),
        text=text,
        has_prefix=match.group("prefix") is not None,
        reflective=match.group("second") is not None,
    )


def build_reflective_input(
    draft: DraftBundle,
    template: ReflectiveTemplate,
    committed: Sequence[int],
) -> ReflectiveLayout:
    """Assemble draft + probe + prefix + draft.

    The prefix segment replays the last ``template.prefix_len`` committed
    tokens; when fewer are committed, all of them are used (no padding).
    """
    tokens = list(draft.tokens)
    prompt = list(template.prompt_tokens)
    prefix = list(committed[-template.prefix_len :]) if template.prefix_len > 0 else []
    return ReflectiveLayout(
        full_sequence=tuple(tokens + prompt + prefix + tokens),
        shift_len=len(tokens) + len(prompt) + len(prefix),
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
    if len(session) == 0:
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
    alpha: float,
    temperature: float,
) -> np.ndarray:
    """Convex combination of the paired logits of a step, then one softmax.

    Both sides are stacked in one array and blended in place; row i of the
    result is the sampling distribution of (1-alpha)*original[i] +
    alpha*reflective[i], so at alpha=0 it is plain temperature sampling of
    the original logits bit for bit. The softmax's check of the fused block
    is the only finiteness check: a NaN or infinity on either side reaches
    the fused sum (at alpha 0 or 1 as 0*inf, a NaN), so it raises there.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InvalidConfigError(f"alpha must lie in [0, 1], got {alpha!r}")
    n = len(original)
    if len(reflective) != n:
        raise InvalidLogitsError(f"original and reflective differ in length: {n} vs {len(reflective)}")
    pair = stack_rows([*original, *reflective])
    if pair.ndim != 2:
        raise InvalidLogitsError(f"logit rows must be 1-D vectors, got block shape {pair.shape}")
    fused, r = pair[:n], pair[n:]
    with np.errstate(invalid="ignore"):  # 0 * inf: the check below refuses the NaN
        fused *= 1.0 - alpha
        r *= alpha
        fused += r
    return sampling_distribution(fused, temperature)
