"""Layout assembly, paired logit extraction, fusion, and template parsing."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_impl import ref_layout

from reflectspec import models
from reflectspec.corpus import IntTokenizer, WordTokenizer
from reflectspec.drafting import DraftBundle
from reflectspec.errors import InvalidConfigError, InvalidLogitsError, SessionRangeError
from reflectspec.models import ModelSession, TableModel
from reflectspec.reflective import (
    DEFAULT_TEMPLATE_TEXT,
    ReflectiveLayout,
    ReflectiveTemplate,
    build_reflective_input,
    fuse,
    paired_forward,
    resolve_template,
)
from reflectspec.tokens import make_rng, one_hot, softmax


def bundle_for(tokens, vocab=32):
    toks = tuple(int(t) for t in tokens)
    return DraftBundle(toks, tuple(one_hot(t, vocab) for t in toks))


class TestLayout:
    def test_worked_example(self):
        # draft [a,b,c], probe [T1,T2], prefix [P1,P2]
        a, b, c, t1, t2, p1, p2 = 1, 2, 3, 10, 11, 20, 21
        layout = build_reflective_input(
            bundle_for([a, b, c]),
            ReflectiveTemplate(prompt_tokens=(t1, t2), prefix_len=2),
            committed=[9, 9, p1, p2],
        )
        assert layout.full_sequence == (a, b, c, t1, t2, p1, p2, a, b, c)
        assert layout.shift_len == 7
        assert layout.gamma == 3

    def test_degenerate_template(self):
        layout = build_reflective_input(
            bundle_for([4, 5]), ReflectiveTemplate(), committed=[1, 2, 3]
        )
        assert layout.full_sequence == (4, 5, 4, 5)
        assert layout.shift_len == 2

    def test_budget_five_three_four_five(self):
        layout = build_reflective_input(
            bundle_for([1, 2, 3, 4, 5]),
            ReflectiveTemplate(prompt_tokens=(10, 11, 12), prefix_len=4),
            committed=[20, 21, 22, 23, 24, 25],
        )
        assert len(layout.full_sequence) == 17

    def test_short_committed_shrinks_prefix(self):
        layout = build_reflective_input(
            bundle_for([4]), ReflectiveTemplate(prompt_tokens=(9,), prefix_len=4), committed=[7]
        )
        assert layout.full_sequence == (4, 9, 7, 4)
        assert layout.shift_len == 3

    def test_segment_spans(self):
        layout = build_reflective_input(
            bundle_for([1, 2]),
            ReflectiveTemplate(prompt_tokens=(10,), prefix_len=2),
            committed=[5, 6, 7],
        )
        sequence, spans = ref_layout((1, 2), (10,), 2, [5, 6, 7])
        assert layout.full_sequence == sequence
        assert layout.shift_len == spans["draft2"][0]
        seq = layout.full_sequence
        assert seq[slice(*spans["draft1"])] == (1, 2)
        assert seq[slice(*spans["probe"])] == (10,)
        assert seq[slice(*spans["prefix"])] == (6, 7)
        assert seq[slice(*spans["draft2"])] == (1, 2)

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=15),
        st.randoms(use_true_random=False),
    )
    @example(gamma=3, prompt_len=2, prefix_len=6, clen=2, r=random.Random(0))
    @settings(max_examples=120)
    def test_invariants_hold_for_random_shapes(self, gamma, prompt_len, prefix_len, clen, r):
        # Differential against the segment-by-segment reference, committed
        # text shorter than the prefix included.
        vocab = 32
        draft = [r.randrange(vocab) for _ in range(gamma)]
        prompt = tuple(r.randrange(vocab) for _ in range(prompt_len))
        committed = [r.randrange(vocab) for _ in range(clen)]
        layout = build_reflective_input(
            bundle_for(draft), ReflectiveTemplate(prompt, prefix_len), committed
        )
        sequence, spans = ref_layout(draft, prompt, prefix_len, committed)
        assert layout.full_sequence == sequence
        assert layout.shift_len == spans["draft2"][0]
        assert layout.gamma == gamma
        prefix = committed[max(clen - prefix_len, 0) :] if prefix_len else []
        segments = {"draft1": draft, "probe": prompt, "prefix": prefix, "draft2": draft}
        for name, segment in segments.items():
            assert layout.full_sequence[slice(*spans[name])] == tuple(segment), name

    def test_copy_must_mirror_draft(self):
        assert ReflectiveLayout((1, 2, 9, 1, 2), shift_len=3).gamma == 2
        with pytest.raises(
            InvalidConfigError, match="^full_sequence's second draft copy does not mirror the first$"
        ):
            ReflectiveLayout((1, 2, 9, 1, 3), shift_len=3)

    @pytest.mark.parametrize("shift_len", [5, 6, 2, 1])
    def test_gamma_must_lie_between_one_and_shift_len(self, shift_len):
        # A 5-token sequence leaves gamma 0, -1, 3 and 4: all outside [1, shift_len].
        with pytest.raises(InvalidConfigError, match=f"^shift_len {shift_len} leaves full_sequence a draft of length"):
            ReflectiveLayout((1, 1, 1, 1, 1), shift_len=shift_len)

    @pytest.mark.parametrize("shift_len", ["2", 1.5, None])
    def test_a_shift_len_that_is_no_integer_is_named(self, shift_len):
        with pytest.raises(InvalidConfigError, match=f"^shift_len must be an integer, got {shift_len!r}$"):
            ReflectiveLayout((1, 2, 1), shift_len)

    def test_numpy_unsigned_lengths_are_kept_as_ints(self):
        # Negating np.uint8(3) wraps to 253, which replayed no prefix.
        template = ReflectiveTemplate((9,), np.uint8(3))
        assert type(template.prefix_len) is int
        layout = build_reflective_input(bundle_for([4]), template, committed=[5, 6, 7, 8])
        assert layout.full_sequence == (4, 9, 6, 7, 8, 4)
        assert ReflectiveLayout((1, 2, 1), np.uint8(2)).gamma == 1
        with pytest.raises(InvalidConfigError, match="^shift_len 3 leaves full_sequence a draft of length -1"):
            ReflectiveLayout((1, 2), np.uint8(3))


class TestPairedForward:
    def test_matches_from_scratch_recomputation(self):
        # Order-1 backend, empty template: each paired vector must equal a
        # direct per-position recomputation on a fresh model call.
        model = TableModel(16, seed=8, order=1)
        committed = [1, 2, 3]
        session = ModelSession(model)
        session.forward(committed)
        bundle = bundle_for([4, 5, 6], vocab=16)
        layout = build_reflective_input(bundle, ReflectiveTemplate(), committed)
        original, reflective = paired_forward(session, layout)
        full = list(layout.full_sequence)
        for i in range(4):
            want_orig = model.next_logits(committed + full[:i])
            assert np.max(np.abs(original[i] - want_orig)) <= 1e-12
            want_refl = model.next_logits(committed + full[: layout.shift_len + i])
            assert np.max(np.abs(reflective[i] - want_refl)) <= 1e-12

    def test_reflective_zero_predicts_draft_copy_start(self):
        model = TableModel(16, seed=8)
        committed = [1, 2]
        session = ModelSession(model)
        session.forward(committed)
        bundle = bundle_for([4, 5], vocab=16)
        layout = build_reflective_input(
            bundle, ReflectiveTemplate(prompt_tokens=(9,), prefix_len=1), committed
        )
        original, reflective = paired_forward(session, layout)
        # reflective[0] is produced right before the second copy begins.
        prefix_of_input = committed + list(layout.full_sequence[: layout.shift_len])
        want = model.next_logits(prefix_of_input)
        assert np.array_equal(reflective[0], want)
        assert layout.full_sequence[layout.shift_len] == 4

    def test_gamma_one_with_single_probe_token(self):
        model = TableModel(16, seed=8)
        committed = [1, 2]
        session = ModelSession(model)
        session.forward(committed)
        bundle = bundle_for([4], vocab=16)
        layout = build_reflective_input(
            bundle, ReflectiveTemplate(prompt_tokens=(9,), prefix_len=0), committed
        )
        assert layout.shift_len + 1 == 3  # 1-based index of the first reflective logit
        original, reflective = paired_forward(session, layout)
        assert len(original) == 2 and len(reflective) == 2
        # Outputs at absolute (1-based) input positions committed+2, committed+3.
        assert np.array_equal(reflective[0], model.next_logits([1, 2, 4, 9]))
        assert np.array_equal(reflective[1], model.next_logits([1, 2, 4, 9, 4]))

    def test_session_left_unpruned(self):
        model = TableModel(16, seed=8)
        session = ModelSession(model)
        session.forward([1, 2])
        bundle = bundle_for([4, 5], vocab=16)
        layout = build_reflective_input(bundle, ReflectiveTemplate((9,), 1), [1, 2])
        paired_forward(session, layout)
        assert len(session) == 2 + len(layout.full_sequence)

    def test_empty_session_rejected(self):
        session = ModelSession(TableModel(16, seed=8))
        layout = build_reflective_input(bundle_for([4], vocab=16), ReflectiveTemplate(), [1])
        with pytest.raises(SessionRangeError, match="^the session is empty"):
            paired_forward(session, layout)
        assert len(session) == 0

    @pytest.mark.parametrize(
        "vocab, order, gamma",
        [(64, 3, 1), (64, 3, 2), (64, 3, 5), (64, 3, 48), (401, 2, 5), (401, 2, 48)],
    )
    def test_the_memo_serves_every_second_copy_window(self, vocab, order, gamma):
        # V=64 at order 3 and V=401 at order 2 have too many windows to keep
        # whole, so the memo keeps the last MEMO_WINDOWS of them. A prefix of at least order - 1
        # tokens replays the committed tail, so each second-copy window
        # repeats a first-copy window of the same forward, and only the memo
        # spares recomputing it. At gamma 48 the second copy starts 53
        # positions after the first: a memo of 53 windows serves it, one of
        # 52 recomputes all 48 windows.
        model = TableModel(vocab, seed=8, order=order)
        assert model.capacity == models.MEMO_WINDOWS
        committed = [5, 17, 33, 2, 61]
        session = ModelSession(model)
        session.forward(committed)
        draft = [int(t) for t in make_rng(gamma).integers(0, vocab - 1, size=gamma)]
        layout = build_reflective_input(
            bundle_for(draft, vocab=vocab), ReflectiveTemplate((vocab - 1,), prefix_len=4), committed
        )
        assert layout.shift_len == gamma + 5 <= models.MEMO_WINDOWS
        computed_at = []
        window_logits = model.window_logits
        model.window_logits = lambda window: computed_at.append(len(session)) or window_logits(window)
        paired_forward(session, layout)
        second_copy = range(len(committed) + layout.shift_len + 1, len(session) + 1)
        assert len(second_copy) == gamma and computed_at
        assert not set(computed_at) & set(second_copy)

class TestFuse:
    def test_alpha_zero_reduces_to_original_exactly(self):
        rng = make_rng(0)
        orig = [rng.normal(size=8) for _ in range(3)]
        refl = [rng.normal(size=8) for _ in range(3)]
        fused = fuse(orig, refl, 0.0, 0.7)
        for f, o in zip(fused, orig):
            assert np.array_equal(f, softmax(o, 0.7))

    def test_alpha_one_is_reflective(self):
        rng = make_rng(0)
        orig = [rng.normal(size=8)]
        refl = [rng.normal(size=8)]
        fused = fuse(orig, refl, 1.0, 1.3)
        assert np.max(np.abs(fused[0] - softmax(refl[0], 1.3))) <= 1e-12

    def test_hand_example(self):
        fused = fuse([np.array([0.0, 0.0])], [np.array([1.0, 0.0])], 0.3, 1.0)
        want = softmax(np.array([0.3, 0.0]), 1.0)
        assert np.max(np.abs(fused[0] - want)) <= 1e-12

    @given(st.floats(min_value=0, max_value=1), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_logit_space_linearity(self, alpha, r):
        rng = make_rng(r.randrange(2**31))
        orig = rng.normal(size=6)
        refl = rng.normal(size=6)
        fused = fuse([orig], [refl], alpha, 1.0)[0]
        want = softmax((1 - alpha) * orig + alpha * refl, 1.0)
        assert np.max(np.abs(fused - want)) <= 1e-12

    def test_identical_inputs_fuse_to_unfused(self):
        rng = make_rng(3)
        logits = rng.normal(size=8)
        base = softmax(logits, 0.9)
        for alpha in (0.0, 0.25, 0.6, 1.0):
            fused = fuse([logits], [logits.copy()], alpha, 0.9)[0]
            assert np.max(np.abs(fused - base)) <= 1e-12

    def test_zero_temperature_gives_one_hot(self):
        fused = fuse([np.array([0.0, 2.0])], [np.array([0.0, 1.0])], 0.5, 0.0)
        assert fused[0].tolist() == [0.0, 1.0]

    def test_length_mismatch(self):
        with pytest.raises(InvalidLogitsError, match="^original and reflective differ in length: 1 vs 0$"):
            fuse([np.zeros(4)], [], 0.3, 1.0)

    def test_alpha_validated(self):
        with pytest.raises(InvalidConfigError):
            fuse([np.zeros(4)], [np.zeros(4)], 1.2, 1.0)

    @pytest.mark.parametrize(
        "alpha, temperature, message",
        [
            ("0.3", 0.8, "^alpha must be a real number, got '0.3'$"),
            (None, 0.8, "^alpha must be a real number, got None$"),
            (0.3, "0.8", "^temperature must be a real number, got '0.8'$"),
        ],
    )
    def test_a_setting_that_is_no_number_is_named(self, alpha, temperature, message):
        p = np.log([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(InvalidConfigError, match=message):
            fuse([p], [p], alpha, temperature)


class TestTemplates:
    def test_default_template(self):
        parsed = resolve_template(DEFAULT_TEMPLATE_TEXT, IntTokenizer(64))
        assert parsed.reflective and parsed.has_prefix

    def test_plain_draft_only(self):
        parsed = resolve_template("${draft}", IntTokenizer(64))
        assert not parsed.reflective and not parsed.has_prefix

    def test_empty_probe_with_prefix(self):
        parsed = resolve_template("${draft} ${prefix} ${draft}", IntTokenizer(64))
        assert parsed.reflective and parsed.has_prefix

    def test_probe_without_prefix(self):
        parsed = resolve_template("${draft} [BACK] ${draft}", IntTokenizer(64))
        assert parsed.reflective and not parsed.has_prefix

    def test_sentence_probe_resolves_words(self):
        tok = WordTokenizer()
        tok.encode("alpha beta", extend=True)
        resolved = resolve_template(
            "${draft} Oh! I made a mistake! The correct answer is: ${prefix} ${draft}", tok
        )
        assert resolved.reflective and resolved.has_prefix
        assert len(resolved.prompt_tokens) == 9
        assert tok.decode(list(resolved.prompt_tokens)) == "Oh! I made a mistake! The correct answer is:"

    def test_int_tokenizer_back_marker(self):
        tok = IntTokenizer(64)
        resolved = resolve_template(DEFAULT_TEMPLATE_TEXT, tok)
        assert resolved.prompt_tokens == (63,)

    def test_malformed_templates_rejected(self):
        for text in ("", "no placeholders", "${draft} ${prefix}", "${draft} ${prefix} x ${draft} ${draft}"):
            with pytest.raises(InvalidConfigError):
                resolve_template(text, IntTokenizer(64))

    def test_a_prefix_len_that_is_not_an_integer_is_rejected_naming_it(self):
        # Unchecked, decoding with it fails in the prefix slice.
        with pytest.raises(InvalidConfigError, match=r"^prefix_len must be an integer, got 2\.5$"):
            ReflectiveTemplate((3,), 2.5)
        assert ReflectiveTemplate((3,), np.int64(2)).prefix_len == 2
