"""Draft-loop tests: determinism, kept positions, and the RNG replay oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_impl import ref_generate_draft

from reflectspec.drafting import generate_draft
from reflectspec.engine import DecodeConfig, decode
from reflectspec.errors import InvalidConfigError, SessionRangeError
from reflectspec.models import BlendModel, Model, ModelSession, TableModel
from reflectspec.tokens import make_rng, sample, sampling_distribution, validate_distribution


def fresh_session(temperature, vocab=16, seed=3, prefix=(1, 2, 3)):
    s = ModelSession(TableModel(vocab, seed=seed), temperature)
    s.forward(list(prefix))
    return s


def test_greedy_drafts_are_identical_across_calls():
    s = fresh_session(0.0)
    a = generate_draft(s, 5, make_rng(0))
    s.truncate(3)
    b = generate_draft(s, 5, make_rng(99))
    assert a.tokens == b.tokens
    for qa, qb in zip(a.q_dists, b.q_dists):
        assert np.array_equal(qa, qb)


def test_gamma_one_boundary():
    s = fresh_session(0.8)
    bundle = generate_draft(s, 1, make_rng(1))
    assert len(bundle.tokens) == 1 and len(bundle.q_dists) == 1
    assert bundle.draft_forward_count == 0


def test_session_keeps_drafts_and_forward_count():
    s = fresh_session(0.8)
    before = s.tokens
    bundle = generate_draft(s, 6, make_rng(2))
    assert s.tokens == before + list(bundle.tokens[:5])
    assert bundle.draft_forward_count == 5


def test_rng_replay_reproduces_tokens():
    # Replaying a same-seed stream against the recorded distributions must
    # reproduce the drafted tokens draw for draw.
    s = fresh_session(0.9)
    bundle = generate_draft(s, 8, make_rng(42))
    replay = make_rng(42)
    for tok, q in zip(bundle.tokens, bundle.q_dists):
        assert sample(q, replay) == tok


def test_distributions_match_independent_recomputation():
    model = TableModel(16, seed=3)
    prefix = [1, 2, 3]
    s = ModelSession(model, 0.7)
    s.forward(prefix)
    bundle = generate_draft(s, 5, make_rng(4))
    for i, q in enumerate(bundle.q_dists):
        ctx = prefix + list(bundle.tokens[:i])
        want = sampling_distribution(model.next_logits(ctx), 0.7)
        assert np.max(np.abs(q - want)) <= 1e-12


def test_drafted_tokens_have_positive_draft_mass():
    s = fresh_session(0.5)
    bundle = generate_draft(s, 6, make_rng(5))
    for tok, q in zip(bundle.tokens, bundle.q_dists):
        assert q[tok] > 0


def test_gamma_zero_rejected():
    s = fresh_session(0.8)
    with pytest.raises(InvalidConfigError):
        generate_draft(s, 0, make_rng(0))


@pytest.mark.parametrize("temperature", [-1.0, float("nan")])
def test_a_bad_draft_temperature_is_refused_where_it_enters(temperature):
    # The session's first row refuses it, naming it, and so does the config.
    s = ModelSession(TableModel(16, seed=3), temperature)
    with pytest.raises(InvalidConfigError, match=f"^temperature must be >= 0, got {temperature!r}$"):
        s.forward([1, 2, 3])
    with pytest.raises(InvalidConfigError, match=f"^temperature must be >= 0, got {temperature!r}$"):
        DecodeConfig(temperature=temperature)


def test_a_session_that_caches_logits_is_a_caller_error():
    s = ModelSession(TableModel(16, seed=3))
    s.forward([1, 2, 3])
    with pytest.raises(InvalidConfigError, match="^the draft session caches logits"):
        generate_draft(s, 2, make_rng(0))
    assert s.tokens == [1, 2, 3]


@pytest.mark.parametrize("gamma", [1.5, "2", None])
def test_a_gamma_that_is_no_integer_is_named(gamma):
    s = ModelSession(TableModel(16, seed=3), 0.8)
    s.forward([1, 2, 3])
    rng = make_rng(0)
    with pytest.raises(InvalidConfigError, match=f"^gamma must be an integer, got {gamma!r}$"):
        generate_draft(s, gamma, rng)
    assert s.tokens == [1, 2, 3] and rng.random() == make_rng(0).random()


def test_a_bool_gamma_counts_as_its_integer():
    # rng.random refuses a bool as a size; the draft and a decode do not.
    a = generate_draft(fresh_session(0.8), True, make_rng(0))
    b = generate_draft(fresh_session(0.8), 1, make_rng(0))
    assert a.tokens == b.tokens and len(a.tokens) == 1
    model = TableModel(16, seed=3)
    got = decode(model, model, [1, 2], DecodeConfig(gamma=True, max_new_tokens=6))
    assert got[0] == decode(model, model, [1, 2], DecodeConfig(gamma=1, max_new_tokens=6))[0]


def test_an_empty_session_is_refused_before_a_uniform_is_drawn():
    rng = make_rng(0)
    with pytest.raises(SessionRangeError, match="^the session is empty"):
        generate_draft(ModelSession(TableModel(16, seed=3), 0.8), 2, rng)
    assert rng.random() == make_rng(0).random()


class CoarseModel(Model):
    """``inner``'s logits floored to integers, so rows tie at their maximum."""

    def __init__(self, inner):
        self.vocab_size = inner.vocab_size
        self.inner = inner

    def next_logits(self, context):
        return np.floor(self.inner.next_logits(context))


@settings(max_examples=80, deadline=None)
@given(
    vocab=st.integers(2, 80) | st.integers(81, 700),  # tabled at order 2, or not
    gamma=st.integers(1, 8),
    temperature=st.sampled_from([0.0]) | st.floats(0.05, 5.0),
    kind=st.sampled_from(["table", "coarse", "blend"]),
    model_seed=st.integers(0, 2**32),
    seed=st.integers(0, 2**32),
    prefix=st.lists(st.integers(0, 2**16), min_size=1, max_size=6),
)
def test_one_pass_draft_matches_per_token_reference(
    vocab, gamma, temperature, kind, model_seed, seed, prefix
):
    # The one-pass loop (one rng.random(gamma) call, inverse_cdf per row, one
    # block check, drafts kept, q read from the session's rows: a table's
    # below V=81, computed above it or behind CoarseModel) against the
    # per-token loop with a rollback, which softmaxes the cached logits.
    model = TableModel(vocab, seed=model_seed)
    if kind == "coarse":
        model = CoarseModel(model)
    elif kind == "blend":
        model = BlendModel(model, TableModel(vocab, seed=model_seed + 1, order=1), 0.3)
    prefix = [t % vocab for t in prefix]
    sessions = [ModelSession(model, temperature), ModelSession(model)]
    for s in sessions:
        s.forward(prefix)
    rng, ref_rng = make_rng(seed), make_rng(seed)
    bundle = generate_draft(sessions[0], gamma, rng)
    ref_tokens, ref_dists = ref_generate_draft(sessions[1], gamma, temperature, ref_rng)
    assert bundle.tokens == tuple(ref_tokens)
    assert all(np.array_equal(q, r) for q, r in zip(bundle.q_dists, ref_dists, strict=True))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert sessions[0].tokens == prefix + ref_tokens[: gamma - 1]
    assert sessions[1].tokens == prefix


@settings(max_examples=200, deadline=None)
@given(
    logits=st.lists(
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False), min_size=1, max_size=64
    ),
    temperature=st.sampled_from([0.0]) | st.floats(1e-3, 1e3),
)
def test_sampling_distribution_is_valid_by_construction(logits, temperature):
    # Why drafting checks its q rows once per step: a softmax or one-hot of
    # finite logits always passes the per-row check. (|logit| / temperature
    # must stay finite; the bounds keep it below the float64 range.)
    validate_distribution(sampling_distribution(np.array(logits), temperature))
