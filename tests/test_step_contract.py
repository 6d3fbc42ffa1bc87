"""The error contract of the step calls below ``decode``.

Each of ``ModelSession.forward`` / ``truncate`` / ``last_row``,
``ReflectiveLayout``, ``build_reflective_input``, ``paired_forward``,
``generate_draft`` and ``commit_and_prune`` either returns, or raises a
``ReflectSpecError`` whose message names the argument at fault (a token is
named as a token). None raises ``InternalConsistencyError`` or a bare
exception. Every argument is drawn from well-formed values and from the
values a caller passes by mistake: floats, strings, ``None``, bools, numpy
scalars, negatives and values past the end.
"""

import inspect
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectspec.drafting import DraftBundle, generate_draft
from reflectspec.engine import commit_and_prune
from reflectspec.errors import ReflectSpecError
from reflectspec.models import ModelSession, TableModel
from reflectspec.reflective import (
    ReflectiveLayout,
    ReflectiveTemplate,
    build_reflective_input,
    paired_forward,
)
from reflectspec.tokens import make_rng

VOCAB = 16
MODEL = TableModel(VOCAB, seed=3)  # shared: its memo changes no row

MISTAKES = st.sampled_from(
    [1.5, -0.5, math.nan, "2", None, True, np.int64(2), np.uint8(3), np.float64(2.0)]
)
SCALARS = st.one_of(st.integers(min_value=-3, max_value=VOCAB + 3), MISTAKES)
GOOD_TOKENS = st.lists(st.integers(min_value=0, max_value=VOCAB - 1), max_size=6)
TOKENS = st.one_of(GOOD_TOKENS, st.lists(SCALARS, max_size=6))


@st.composite
def sessions(draw):
    """A session of ``MODEL`` that caches logits or a temperature's q rows,
    empty or holding up to five tokens."""
    session = ModelSession(MODEL, draw(st.sampled_from([None, 0.0, 0.8])))
    tokens = draw(st.lists(st.integers(min_value=0, max_value=VOCAB - 1), max_size=5))
    if tokens:
        session.forward(tokens)
    return session


@st.composite
def layouts(draw, well_formed=False):
    """A well-formed (full_sequence, shift_len) pair, or unless
    ``well_formed`` one with its shift_len or second copy replaced; any
    token may be a mistake."""
    draft = draw(st.lists(SCALARS, min_size=1, max_size=4))
    middle = draw(TOKENS)
    if well_formed:
        return tuple(draft + middle + draft), len(draft) + len(middle)
    second = draw(st.one_of(st.just(draft), TOKENS))
    shift_len = draw(st.one_of(st.just(len(draft) + len(middle)), SCALARS))
    return tuple(draft + middle + second), shift_len


def bundle(tokens):
    """A ``DraftBundle`` of ``tokens`` with a uniform row for each."""
    return DraftBundle(tuple(tokens), tuple(np.full(VOCAB, 1 / VOCAB) for _ in tokens))


def forward(data):
    session = data.draw(sessions())
    new_tokens = data.draw(TOKENS)
    before = session.tokens
    try:
        rows = session.forward(new_tokens)
    except ReflectSpecError:
        assert session.tokens == before
        raise
    assert len(rows) == len(new_tokens) and session.tokens == before + [int(t) for t in new_tokens]


def truncate(data):
    session = data.draw(sessions())
    keep_length = data.draw(SCALARS)
    session.truncate(keep_length)
    assert len(session) == keep_length


def last_row(data):
    session = data.draw(sessions())
    assert session.last_row.shape == (VOCAB,)


def reflective_layout(data):
    full_sequence, shift_len = data.draw(layouts())
    layout = ReflectiveLayout(full_sequence, shift_len)
    assert 1 <= layout.gamma <= shift_len


def reflective_input(data):
    draft = bundle(data.draw(st.lists(SCALARS, max_size=4)))
    template = ReflectiveTemplate(tuple(data.draw(TOKENS)), data.draw(SCALARS))
    committed = data.draw(TOKENS)
    layout = build_reflective_input(draft, template, committed)
    assert layout.gamma == draft.gamma


def paired(data):
    session = data.draw(sessions())
    layout = ReflectiveLayout(*data.draw(layouts(well_formed=True)))
    n = len(session)
    try:
        original, reflective = paired_forward(session, layout)
    except ReflectSpecError:
        assert len(session) == n
        raise
    assert len(original) == len(reflective) == layout.gamma + 1


def draft(data):
    session = data.draw(sessions())
    gamma = data.draw(st.one_of(st.integers(min_value=-2, max_value=6), MISTAKES))
    n = len(session)
    rng = data.draw(st.one_of(st.integers(0, 99).map(make_rng), MISTAKES))
    result = generate_draft(session, gamma, rng)
    assert result.gamma == gamma and len(session) == n + gamma - 1
    assert all(q[t] > 0 for t, q in zip(result.tokens, result.q_dists))


def commit(data):
    target_session, draft_session = data.draw(sessions()), data.draw(sessions())
    keep_length, bonus = data.draw(SCALARS), data.draw(SCALARS)
    commit_and_prune(target_session, draft_session, keep_length, bonus)
    assert len(target_session) == keep_length + 1 and target_session.tokens[-1] == bonus
    assert len(draft_session) <= keep_length


# Each call, the parameters its case draws, and the words one of which its
# errors name.
CALLS = {
    "forward": (forward, ModelSession.forward, ("new_tokens",), ("token",)),
    "truncate": (truncate, ModelSession.truncate, ("keep_length",), ("keep_length",)),
    "last_row": (last_row, ModelSession.last_row.fget, (), ("session",)),
    "ReflectiveLayout": (
        reflective_layout, ReflectiveLayout, ("full_sequence", "shift_len"),
        ("full_sequence", "shift_len"),
    ),
    "build_reflective_input": (
        reflective_input, build_reflective_input, ("draft", "template", "committed"),
        ("draft tokens", "prefix_len"),
    ),
    "paired_forward": (paired, paired_forward, ("session", "layout"), ("session", "token")),
    "generate_draft": (draft, generate_draft, ("session", "gamma", "rng"), ("session", "gamma", "rng")),
    "commit_and_prune": (
        commit, commit_and_prune, ("target_session", "draft_session", "keep_length", "bonus"),
        ("keep_length", "token"),
    ),
}


def test_every_parameter_is_drawn():
    for name, (_, function, drawn, _) in CALLS.items():
        params = [p for p in inspect.signature(function).parameters if p != "self"]
        assert tuple(params) == drawn, name


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_each_call_returns_or_names_the_argument(data):
    name = data.draw(st.sampled_from(sorted(CALLS)))
    case, _, _, named = CALLS[name]
    try:
        case(data)
    except ReflectSpecError as exc:
        assert any(word in str(exc) for word in named), (name, str(exc))
