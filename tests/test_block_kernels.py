"""Block kernels against per-row references, and error parity at the boundary.

The per-step numeric path works on ``(gamma + 1, V)`` blocks. Its results
must equal, bit for bit, what the row-by-row references in
``reference_impl`` give, and the public functions must keep raising the same
error types on malformed input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impl import ref_fuse, ref_sample, ref_softmax

from reflectspec.errors import (
    InternalConsistencyError,
    InvalidConfigError,
    InvalidDistributionError,
    InvalidLogitsError,
)
from reflectspec.reflective import FusionConfig, fuse
from reflectspec.tokens import (
    logit_block,
    make_rng,
    sample_rows,
    sampling_distribution,
    softmax,
)
from reflectspec.verification import (
    TypicalConfig,
    verify_exact_match,
    verify_speculative_sampling,
    verify_typical,
)

gammas = st.integers(min_value=1, max_value=8)
# Pairwise summation works in blocks of 8 and recurses past 128 entries, so
# the edges around those sizes are drawn explicitly, next to sweep-sized
# vocabularies of 400 and more.
vocabs = st.one_of(
    st.integers(min_value=2, max_value=700),
    st.sampled_from([2, 7, 9, 127, 128, 129, 400, 401, 523, 700]),
)
alphas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
temperatures = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=5.0))
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def logit_rows(seed, n, vocab, temperature):
    """n logit vectors; at temperature 0, few integer levels so maxima tie."""
    rng = make_rng(seed)
    if temperature == 0:
        return list(rng.integers(-2, 3, size=(n, vocab)).astype(np.float64))
    scale = float(rng.choice([0.3, 3.0, 30.0]))
    return list(rng.normal(scale=scale, size=(n, vocab)))


def ref_distributions(seed, n, vocab, temperature):
    return np.array([ref_softmax(row, temperature) for row in logit_rows(seed, n, vocab, temperature)])


class TestBlockKernelsMatchRows:
    @given(gammas, vocabs, alphas, temperatures, seeds, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_fuse_matches_ref_fuse(self, gamma, vocab, alpha, temperature, seed, mirrored):
        original = logit_rows(seed, gamma + 1, vocab, temperature)
        # A mirrored reflective side keeps the original's ties in the fused sum.
        reflective = (
            [row.copy() for row in original]
            if mirrored
            else logit_rows(seed + 1, gamma + 1, vocab, temperature)
        )
        got = fuse(original, reflective, FusionConfig(alpha, temperature))
        want = np.array(ref_fuse(original, reflective, alpha, temperature))
        assert got.shape == (gamma + 1, vocab)
        assert np.array_equal(got, want)

    @given(gammas, vocabs, temperatures, seeds)
    @settings(max_examples=150, deadline=None)
    def test_block_softmax_matches_rows(self, gamma, vocab, temperature, seed):
        rows = logit_rows(seed, gamma + 1, vocab, temperature)
        want = np.array([ref_softmax(row, temperature) for row in rows])
        assert np.array_equal(sampling_distribution(logit_block(rows), temperature), want)
        if temperature > 0:
            assert np.array_equal(softmax(np.array(rows), temperature), want)
        for row, want_row in zip(rows, want):
            assert np.array_equal(sampling_distribution(row, temperature), want_row)

    def test_zero_temperature_ties_go_to_lowest_id(self):
        block = np.array([[1.0, 3.0, 3.0], [2.0, 2.0, 2.0], [0.0, -1.0, 0.0]])
        got = sampling_distribution(block, 0.0)
        assert got.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]

    @given(gammas, vocabs, temperatures, seeds, seeds)
    @settings(max_examples=150, deadline=None)
    def test_sample_rows_matches_per_row_ref_sample(self, gamma, vocab, temperature, seed, stream):
        dists = ref_distributions(seed, gamma + 1, vocab, temperature)
        rng_block, rng_rows = make_rng(stream), make_rng(stream)
        got = sample_rows(dists, rng_block)
        want = [ref_sample(d, rng_rows) for d in dists]
        assert got == want
        assert rng_block.bit_generator.state == rng_rows.bit_generator.state

    def test_sample_rows_float_dust_takes_last_positive_token(self):
        class FixedUniforms:
            def random(self, size):
                return np.full(size, 0.999999999999)

        # Row sums stop just short of 1, so each uniform lands past the CDF.
        block = np.array([[0.5, 0.4999999, 0.0], [0.9999999, 0.0, 0.0]])
        assert sample_rows(block, FixedUniforms()) == [1, 0]

    @given(gammas, vocabs, temperatures, seeds, seeds, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_exact_match_matches_per_row_ref_sample(
        self, gamma, vocab, temperature, seed, stream, greedy_match
    ):
        dists = ref_distributions(seed, gamma + 1, vocab, temperature)
        # Drafts drawn from the verifier's own rows get accepted often enough
        # to reach every bonus position.
        aux = make_rng(seed + 7)
        draft = [ref_sample(dists[i], aux) for i in range(gamma)]
        rng_block, rng_rows = make_rng(stream), make_rng(stream)
        result = verify_exact_match(dists, draft, rng_block, greedy_match=greedy_match)
        if greedy_match:
            resampled = [int(np.argmax(dists[i])) for i in range(gamma)]
        else:
            resampled = [ref_sample(dists[i], rng_rows) for i in range(gamma)]
        n = next((i for i in range(gamma) if resampled[i] != draft[i]), gamma)
        bonus = int(np.argmax(dists[n])) if greedy_match else ref_sample(dists[n], rng_rows)
        assert result.diagnostics["resampled"] == resampled
        assert (result.accepted_n, result.bonus) == (n, bonus)
        assert rng_block.bit_generator.state == rng_rows.bit_generator.state


GAMMA = 3
VOCAB = 6


def rows(seed=0, n=GAMMA + 1, vocab=VOCAB):
    return list(make_rng(seed).normal(size=(n, vocab)))


def valid_p(seed=0):
    return [softmax(row, 1.0) for row in rows(seed)]


class TestErrorParity:
    """Each input here raises the error type the row-by-row kernels raised.

    A block input gets the type its rows got one at a time.
    """

    @pytest.mark.parametrize("side", ["original", "reflective"])
    @pytest.mark.parametrize("row", range(GAMMA + 1))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("temperature", [0.0, 0.7])
    def test_non_finite_logit_in_any_row(self, side, row, bad, temperature):
        paired = {"original": rows(1), "reflective": rows(2)}
        paired[side][row][2] = bad
        with pytest.raises(InvalidLogitsError):
            fuse(paired["original"], paired["reflective"], FusionConfig(0.4, temperature))

    @pytest.mark.parametrize("temperature", [0.0, 0.7])
    def test_non_finite_fused_sum(self, temperature):
        # A convex combination of finite blocks stays finite, so reaching the
        # check on the fused sum needs an alpha outside [0, 1], which
        # FusionConfig itself would reject.
        config = FusionConfig(0.5, temperature)
        object.__setattr__(config, "alpha", 3.0)
        original = [np.array([1e308, 0.0]), np.array([0.0, 1e308])]
        reflective = [np.zeros(2), np.zeros(2)]
        with np.errstate(over="ignore"), pytest.raises(InvalidLogitsError):
            fuse(original, reflective, config)

    def test_vocabulary_mismatch_between_sides(self):
        reflective = rows(2)
        reflective[1] = np.zeros(VOCAB + 1)
        with pytest.raises(InternalConsistencyError):
            fuse(rows(1), reflective, FusionConfig(0.4, 1.0))

    def test_position_count_mismatch(self):
        with pytest.raises(InternalConsistencyError):
            fuse(rows(1), rows(2, n=GAMMA), FusionConfig(0.4, 1.0))

    @pytest.mark.parametrize("block", [False, True])
    def test_negative_temperature(self, block):
        logits = np.array(rows(1)) if block else rows(1)[0]
        with pytest.raises(InvalidConfigError):
            sampling_distribution(logits, -0.5)
        with pytest.raises(InvalidConfigError):
            softmax(logits, -0.5)
        with pytest.raises(InvalidConfigError):
            softmax(logits, 0.0)
        with pytest.raises(InvalidConfigError):
            FusionConfig(0.3, -1.0)

    @pytest.mark.parametrize("row", range(GAMMA))
    @pytest.mark.parametrize("kind", ["negative", "short", "nan"])
    @pytest.mark.parametrize("greedy_match", [False, True])
    def test_invalid_p_row_exact_match(self, row, kind, greedy_match):
        p = valid_p()
        p[row] = corrupt(p[row], kind)
        with pytest.raises(InvalidDistributionError):
            verify_exact_match(p, [0] * GAMMA, make_rng(0), greedy_match=greedy_match)

    @pytest.mark.parametrize("kind", ["negative", "short", "nan"])
    def test_invalid_p_rows_speculative_sampling(self, kind):
        p = [corrupt(row, kind) for row in valid_p()]
        q = valid_p(seed=5)[:GAMMA]
        with pytest.raises(InvalidDistributionError):
            verify_speculative_sampling(p, q, [0] * GAMMA, make_rng(0))

    @pytest.mark.parametrize("kind", ["negative", "short", "nan"])
    def test_invalid_p_rows_typical(self, kind):
        p = [corrupt(row, kind) for row in valid_p()]
        with pytest.raises(InvalidDistributionError):
            verify_typical(p, valid_p(), [0] * GAMMA, TypicalConfig(0.3, 0.2), make_rng(0))

    @pytest.mark.parametrize("row", range(GAMMA))
    def test_invalid_entropy_row_typical(self, row):
        entropy_dists = valid_p()
        entropy_dists[row] = corrupt(entropy_dists[row], "short")
        with pytest.raises(InvalidDistributionError):
            verify_typical(valid_p(), entropy_dists, [0] * GAMMA, TypicalConfig(0.3, 0.2), make_rng(0))


def test_ragged_rows_within_a_side_are_rejected():
    # The row-by-row fuse paired rows one by one and let the vocabulary vary
    # between positions; the rows of one block share it.
    original, reflective = rows(1), rows(2)
    original[0] = np.zeros(VOCAB + 1)
    reflective[0] = np.zeros(VOCAB + 1)
    with pytest.raises(InternalConsistencyError):
        fuse(original, reflective, FusionConfig(0.4, 1.0))


def corrupt(dist, kind):
    out = np.array(dist, dtype=np.float64)
    if kind == "negative":
        out[1] += out[0] + 0.25
        out[0] = -0.25
    elif kind == "short":
        out *= 0.5
    else:
        out[1] = np.nan
    return out
