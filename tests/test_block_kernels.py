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
from reference_impl import (
    ref_fuse,
    ref_sample,
    ref_softmax,
    ref_verify_exact_match,
    ref_verify_speculative_sampling,
    ref_verify_typical,
)

from reflectspec.errors import (
    DegenerateResidualError,
    InvalidConfigError,
    InvalidDistributionError,
    InvalidLogitsError,
)
from reflectspec.reflective import fuse
from reflectspec.tokens import (
    make_rng,
    sample_rows,
    sampling_distribution,
    softmax,
    stack_rows,
)
from reflectspec.verification import (
    _exact_match_verdict,
    _speculative_sampling_verdict,
    _typical_verdict,
    typical_threshold,
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
        got = fuse(original, reflective, alpha, temperature)
        want = np.array(ref_fuse(original, reflective, alpha, temperature))
        assert got.shape == (gamma + 1, vocab)
        assert np.array_equal(got, want)

    @given(gammas, vocabs, temperatures, seeds)
    @settings(max_examples=150, deadline=None)
    def test_block_softmax_matches_rows(self, gamma, vocab, temperature, seed):
        rows = logit_rows(seed, gamma + 1, vocab, temperature)
        want = np.array([ref_softmax(row, temperature) for row in rows])
        assert np.array_equal(sampling_distribution(stack_rows(rows), temperature), want)
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
        got = sample_rows(dists, rng_block.random(len(dists)))
        want = [ref_sample(d, rng_rows) for d in dists]
        assert got == want
        assert rng_block.bit_generator.state == rng_rows.bit_generator.state

    def test_sample_rows_float_dust_takes_last_positive_token(self):
        # Row sums stop just short of 1, so each uniform lands past the CDF.
        block = np.array([[0.5, 0.4999999, 0.0], [0.9999999, 0.0, 0.0]])
        assert sample_rows(block, np.full(2, 0.999999999999)) == [1, 0]

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


def outcome(verify, *args, **kwargs):
    """What a verifier returned or raised, and the end state of its generator
    (the last positional argument)."""
    rng = args[-1]
    try:
        result = verify(*args, **kwargs)
        got = (result.bonus, result.per_step_accepts, result.diagnostics)
    except DegenerateResidualError as exc:
        got = (type(exc), str(exc))
    return got, rng.bit_generator.state


def entropy_block(source, p, seed, temperature):
    """The typical entropy source: the fused block ``p`` itself, or a
    separate block like the original logits' or a sparse one. Zeros
    scattered among many nonzero entries change how a sum over the whole
    row groups its terms, so only the per-row sum over the nonzero entries
    reproduces the reference there."""
    if source == "fused":
        return p
    if source == "original":
        return ref_distributions(seed + 2, *p.shape, max(temperature, 0.5))
    aux = make_rng(seed + 2)
    h = aux.random(p.shape) * (aux.random(p.shape) < 0.5)
    h[:, 0] += 1.0
    return h / h.sum(axis=-1, keepdims=True)


def draft_case(seed, gamma, vocab, temperature, shared):
    """(p block, q rows, draft tokens) for one step; with ``shared`` the
    draft's rows are the verifier's own, so every position accepts more
    often and the final row's bonus is reached."""
    p = ref_distributions(seed, gamma + 1, vocab, temperature)
    q = p[:gamma] if shared else ref_distributions(seed + 1, gamma, vocab, temperature)
    aux = make_rng(seed + 7)
    tokens = tuple(ref_sample(row, aux) for row in q)
    return p, tuple(row.copy() for row in q), tokens


class TestVerifiersMatchPerRowReference:
    """The block verifiers against the per-row ones in ``reference_impl``:
    equal bonus, flags, diagnostics and end generator state."""

    @given(gammas, vocabs, temperatures, seeds, seeds, st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_exact_match(self, gamma, vocab, temperature, seed, stream, shared, greedy_match):
        p, _, tokens = draft_case(seed, gamma, vocab, temperature, shared)
        got = outcome(verify_exact_match, p, tokens, make_rng(stream), greedy_match=greedy_match)
        want = outcome(ref_verify_exact_match, p, tokens, make_rng(stream), greedy_match=greedy_match)
        assert got == want

    @given(gammas, vocabs, temperatures, seeds, seeds, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_speculative_sampling(self, gamma, vocab, temperature, seed, stream, shared):
        p, q, tokens = draft_case(seed, gamma, vocab, temperature, shared)
        got = outcome(verify_speculative_sampling, p, q, tokens, make_rng(stream))
        want = outcome(ref_verify_speculative_sampling, p, q, tokens, make_rng(stream))
        assert got == want

    @given(
        gammas, vocabs, temperatures, seeds, seeds, st.booleans(),
        st.sampled_from(["fused", "original", "sparse"]),
        st.floats(min_value=1e-3, max_value=1.0), st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_typical(self, gamma, vocab, temperature, seed, stream, shared, source, epsilon, delta):
        p, _, tokens = draft_case(seed, gamma, vocab, temperature, shared)
        h = entropy_block(source, p, seed, temperature)
        got = outcome(verify_typical, p, h, tokens, epsilon, delta, make_rng(stream))
        want = outcome(ref_verify_typical, p, h, tokens, epsilon, delta, make_rng(stream))
        assert got == want

    @given(gammas, st.data(), st.integers(min_value=3, max_value=700), seeds)
    @settings(max_examples=50, deadline=None)
    def test_degenerate_residual(self, gamma, data, vocab, stream):
        # The rejected row n puts 5e-13 of draft mass on a token p never
        # emits, so the test always rejects it and the residual keeps 5e-13.
        n = data.draw(st.integers(min_value=0, max_value=gamma - 1))
        p = np.zeros((gamma + 1, vocab))
        p[:, 1:] = 1.0 / (vocab - 1)
        q = [row.copy() for row in p[:gamma]]
        q[n][0] = 5e-13
        q[n][1] -= 5e-13
        tokens = tuple(0 if i == n else 1 for i in range(gamma))
        got = outcome(verify_speculative_sampling, p, q, tokens, make_rng(stream))
        want = outcome(ref_verify_speculative_sampling, p, q, tokens, make_rng(stream))
        assert got == want
        assert got[0][0] is DegenerateResidualError


class Uniforms:
    """A stand-in generator that yields ``values`` in order: ``random()``
    the next one, ``random(n)`` the next n as an array."""

    def __init__(self, values):
        self.values = list(values)
        self.taken = 0

    def random(self, size=None):
        start = self.taken
        self.taken += 1 if size is None else size
        assert self.taken <= len(self.values), "drew more uniforms than the verdict was given"
        return self.values[start] if size is None else np.array(self.values[start : self.taken])


def verdict_outcome(verify, *args, **kwargs):
    """What a verdict or a reference verifier returned or raised."""
    try:
        result = verify(*args, **kwargs)
    except DegenerateResidualError as exc:
        return type(exc), str(exc)
    return result.bonus, result.per_step_accepts, result.diagnostics


def uniform_lists(n, low_excluded=False):
    unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=low_excluded, exclude_max=True)
    return st.lists(unit, min_size=n, max_size=n)


class TestVerdictsMatchPerRowReference:
    """Each pure verdict, fed validated blocks and an array of uniforms,
    against the per-row reference fed a stand-in generator that yields the
    same values: equal bonus, flags and diagnostics, and the reference draws
    exactly the uniforms the verdict was given."""

    @given(gammas, vocabs, temperatures, seeds, st.booleans(), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_exact_match(self, gamma, vocab, temperature, seed, shared, greedy_match, data):
        p, _, tokens = draft_case(seed, gamma, vocab, temperature, shared)
        u = [] if greedy_match else data.draw(uniform_lists(gamma + 1))
        stream = Uniforms(u)
        got = verdict_outcome(_exact_match_verdict, p, list(tokens), np.array(u))
        want = verdict_outcome(ref_verify_exact_match, p, tokens, stream, greedy_match=greedy_match)
        assert got == want
        assert stream.taken == len(u)

    @given(gammas, vocabs, temperatures, seeds, st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_speculative_sampling(self, gamma, vocab, temperature, seed, shared, data):
        p, q, tokens = draft_case(seed, gamma, vocab, temperature, shared)
        u = data.draw(uniform_lists(gamma + 1))
        stream = Uniforms(u)
        got = verdict_outcome(_speculative_sampling_verdict, p, np.array(q), list(tokens), np.array(u))
        want = verdict_outcome(ref_verify_speculative_sampling, p, q, tokens, stream)
        assert got == want
        assert stream.taken == len(u)

    @given(
        gammas, vocabs, temperatures, seeds, st.booleans(),
        st.sampled_from(["fused", "original", "sparse"]),
        st.floats(min_value=1e-3, max_value=1.0), st.floats(min_value=1e-3, max_value=1.0),
        uniform_lists(1),
    )
    @settings(max_examples=150, deadline=None)
    def test_typical(self, gamma, vocab, temperature, seed, shared, source, epsilon, delta, u):
        p, _, tokens = draft_case(seed, gamma, vocab, temperature, shared)
        h = entropy_block(source, p, seed, temperature)
        stream = Uniforms(u)
        got = verdict_outcome(_typical_verdict, p, h, list(tokens), epsilon, delta, np.array(u))
        want = verdict_outcome(ref_verify_typical, p, h, tokens, epsilon, delta, stream)
        assert got == want
        assert stream.taken == 1

    @given(gammas, st.data(), st.integers(min_value=3, max_value=700))
    @settings(max_examples=50, deadline=None)
    def test_degenerate_residual(self, gamma, data, vocab):
        # As in the verifier test above: row n rejects at any positive
        # uniform, and its residual keeps 5e-13 of mass.
        n = data.draw(st.integers(min_value=0, max_value=gamma - 1))
        p = np.zeros((gamma + 1, vocab))
        p[:, 1:] = 1.0 / (vocab - 1)
        q = p[:gamma].copy()
        q[n, 0] = 5e-13
        q[n, 1] -= 5e-13
        tokens = [0 if i == n else 1 for i in range(gamma)]
        u = data.draw(uniform_lists(gamma + 1, low_excluded=True))
        stream = Uniforms(u)
        got = verdict_outcome(_speculative_sampling_verdict, p, q, tokens, np.array(u))
        want = verdict_outcome(ref_verify_speculative_sampling, p, list(q), tokens, stream)
        assert got == want
        assert got[0] is DegenerateResidualError
        assert stream.taken == len(u)

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize(
        "verdict", ["exact-sample", "exact-greedy", "specsample", "typical-fused", "typical-original"]
    )
    def test_a_rejection_at_every_position(self, verdict, n):
        # Draft token i has 0.6 of its row's mass before position n and none
        # at n, so every strategy accepts before n and rejects at n; at
        # n = gamma every position accepts. Uniform i sits inside token i's
        # inverse-CDF interval of row i, [0.1 i, 0.1 i + 0.6).
        gamma, vocab = 4, 5
        draft = list(range(gamma))
        p = np.full((gamma + 1, vocab), 1.0 / vocab)
        for i in range(min(n + 1, gamma)):
            p[i] = 0.1 if i < n else 0.25
            p[i, i] = 0.6 if i < n else 0.0
        u = {"exact-greedy": [], "typical-fused": [0.7], "typical-original": [0.7]}.get(
            verdict, [0.1 * i + 0.3 for i in range(gamma)] + [0.7]
        )
        stream = Uniforms(u)
        if verdict.startswith("exact"):
            got = _exact_match_verdict(p, draft, np.array(u))
            want = ref_verify_exact_match(p, draft, stream, greedy_match=not u)
        elif verdict == "specsample":
            q = p[:gamma].copy()
            q[n:] = 1.0 / vocab  # the ratio is 1 before n and 0 at n
            got = _speculative_sampling_verdict(p, q, draft, np.array(u))
            want = ref_verify_speculative_sampling(p, q, draft, stream)
        else:
            h = p if verdict == "typical-fused" else np.full_like(p, 1.0 / vocab)
            got = _typical_verdict(p, h, draft, 0.3, 0.2, np.array(u))
            want = ref_verify_typical(p, h, draft, 0.3, 0.2, stream)
        assert got.accepted_n == n
        assert (got.bonus, got.per_step_accepts, got.diagnostics) == (
            want.bonus, want.per_step_accepts, want.diagnostics
        )
        assert stream.taken == len(u)


def threshold_blocks():
    """Distribution blocks of each kind a typical step meets: one-hot rows
    (temperature 0, entropy 0), softmax rows whose tails underflow to 0,
    sparse rows of a wide vocabulary, and dense rows with no zero."""
    rng = make_rng(3)
    sparse = rng.random((40, 400)) * (rng.random((40, 400)) < 0.5)
    sparse[:, 0] += 1.0
    blocks = {
        "one-hot": sampling_distribution(rng.integers(-2, 3, size=(6, 9)).astype(np.float64), 0.0),
        "underflow": softmax(rng.normal(scale=300.0, size=(8, 64)), 0.5),
        "sparse": sparse / sparse.sum(axis=-1, keepdims=True),
        "dense": softmax(rng.normal(scale=3.0, size=(8, 64)), 1.0),
    }
    under = blocks["underflow"]
    assert (under == 0.0).any() and ((under > 0.0).sum(axis=-1) > 1).any()
    return blocks


# (epsilon, delta) pairs: one-hot rows gate at delta, so epsilon binds on
# them where it is the smaller; sparse rows of 400 gate near delta / 200.
TYPICAL_GRID = [(1e-4, 1.0), (0.05, 0.9), (0.3, 0.2), (1.0, 1.0)]


class TestTypicalThresholdBlocks:
    """``typical_threshold`` over a block, where either term of the gate binds."""

    @pytest.mark.parametrize("kind", ["one-hot", "underflow", "sparse", "dense"])
    def test_block_equals_rows_and_the_law(self, kind):
        block = threshold_blocks()[kind]
        bound = {"epsilon": 0, "delta": 0}
        for epsilon, delta in TYPICAL_GRID:
            got = typical_threshold(block, epsilon, delta).tolist()
            assert got == [typical_threshold(row, epsilon, delta) for row in block]
            for row, threshold in zip(block, got):
                nz = row[row > 0.0]
                h = float(-(nz * np.log(nz)).sum())
                gate = delta * float(np.exp(-h))
                assert threshold == min(epsilon, gate)
                bound["epsilon" if gate > epsilon else "delta"] += 1
        assert bound["epsilon"] and bound["delta"]

    @pytest.mark.parametrize("kind", ["one-hot", "underflow", "sparse", "dense"])
    @pytest.mark.parametrize("fused_source", [False, True])
    def test_verify_typical_thresholds_match_reference(self, kind, fused_source):
        block = threshold_blocks()[kind]
        p = block if fused_source else valid_p(seed=4, n=len(block), vocab=block.shape[-1])
        tokens = [0] * (len(block) - 1)
        for epsilon, delta in TYPICAL_GRID:
            got = verify_typical(p, block, tokens, epsilon, delta, make_rng(0))
            want = ref_verify_typical(p, block, tokens, epsilon, delta, make_rng(0))
            assert got.diagnostics["thresholds"] == want.diagnostics["thresholds"]
            assert all(type(t) is float for t in got.diagnostics["thresholds"])


GAMMA = 3
VOCAB = 6


def rows(seed=0, n=GAMMA + 1, vocab=VOCAB):
    return list(make_rng(seed).normal(size=(n, vocab)))


def valid_p(seed=0, n=GAMMA + 1, vocab=VOCAB):
    return [softmax(row, 1.0) for row in rows(seed, n, vocab)]


class TestErrorParity:
    """Each input here raises the error type the row-by-row kernels raised.

    A block input gets the type its rows got one at a time.
    """

    @pytest.mark.parametrize("side", ["original", "reflective"])
    @pytest.mark.parametrize("row", range(GAMMA + 1))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("temperature", [0.0, 0.7])
    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_non_finite_logit_in_any_row(self, side, row, bad, temperature, alpha):
        # fuse checks finiteness only on the fused block; at alpha 0 and 1
        # the side with weight 0 reaches it as 0 * inf or 0 * NaN, a NaN.
        paired = {"original": rows(1), "reflective": rows(2)}
        paired[side][row][2] = bad
        with pytest.raises(InvalidLogitsError):
            fuse(paired["original"], paired["reflective"], alpha, temperature)

    @pytest.mark.parametrize("temperature", [0.0, 0.7])
    def test_non_finite_fused_sum(self, temperature):
        # Overflowing the fused sum of finite blocks needs an alpha outside
        # [0, 1]; fuse rejects that alpha before it sums anything.
        original = [np.array([1e308, 0.0]), np.array([0.0, 1e308])]
        reflective = [np.zeros(2), np.zeros(2)]
        with pytest.raises(InvalidConfigError, match="alpha"):
            fuse(original, reflective, 3.0, temperature)

    def test_vocabulary_mismatch_between_sides(self):
        reflective = rows(2)
        reflective[1] = np.zeros(VOCAB + 1)
        with pytest.raises(InvalidLogitsError, match=r"width: shapes \[\(6,\), \(7,\)\]"):
            fuse(rows(1), reflective, 0.4, 1.0)

    def test_position_count_mismatch(self):
        with pytest.raises(InvalidLogitsError, match="^original and reflective differ in length"):
            fuse(rows(1), rows(2, n=GAMMA), 0.4, 1.0)

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
            fuse(rows(1), rows(2), 0.3, -1.0)

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
            verify_typical(p, valid_p(), [0] * GAMMA, 0.3, 0.2, make_rng(0))

    @pytest.mark.parametrize("row", range(GAMMA))
    def test_invalid_entropy_row_typical(self, row):
        entropy_dists = valid_p()
        entropy_dists[row] = corrupt(entropy_dists[row], "short")
        with pytest.raises(InvalidDistributionError):
            verify_typical(valid_p(), entropy_dists, [0] * GAMMA, 0.3, 0.2, make_rng(0))

    # Rows a verifier that checks only the rows it samples from lets through
    # when the step rejects before them.
    BAD_ROWS = {
        "nan": [np.nan, 0.5, 0.5],
        "sum-2.7": [0.9, 0.9, 0.9],
        "negative": [0.5, 1.0, -0.5],
        "short": [0.25, 0.25, 0.25],
    }

    @pytest.mark.parametrize("bad", BAD_ROWS)
    def test_invalid_q_row_after_rejection_speculative_sampling(self, bad):
        # Position 0 rejects (ratio 0.4 against the first uniform of
        # make_rng(0)), and the bad row's ratio at token 0 is 1 or a NaN.
        p = [np.array([0.5, 0.3, 0.2])] * 3
        q = [np.array([0.2, 0.3, 0.5]), np.array(self.BAD_ROWS[bad])]
        with pytest.raises(InvalidDistributionError):
            verify_speculative_sampling(p, q, [2, 0], make_rng(0))

    @pytest.mark.parametrize("row", [1, 2])
    @pytest.mark.parametrize("bad", BAD_ROWS)
    @pytest.mark.parametrize("strategy", ["specsample", "typical"])
    def test_invalid_p_row_after_rejection(self, strategy, bad, row):
        # Position 0 rejects under both tests: its token has p 0.01 against
        # a draft probability of 0.98 and a typical threshold near 0.18.
        p = [np.array([0.98, 0.01, 0.01]), np.array([0.5, 0.3, 0.2]), np.array([0.5, 0.3, 0.2])]
        valid = [dist.copy() for dist in p]
        p[row] = np.array(self.BAD_ROWS[bad])
        with pytest.raises(InvalidDistributionError):
            if strategy == "specsample":
                q = [np.array([0.01, 0.98, 0.01]), np.array([0.5, 0.3, 0.2])]
                verify_speculative_sampling(p, q, [1, 0], make_rng(0))
            else:
                verify_typical(p, valid, [1, 0], 0.3, 0.2, make_rng(0))


def test_ragged_rows_within_a_side_are_rejected():
    # The row-by-row fuse paired rows one by one and let the vocabulary vary
    # between positions; the rows of one block share it. Ragged rows are the
    # caller's error, not a broken invariant.
    original, reflective = rows(1), rows(2)
    original[0] = np.zeros(VOCAB + 1)
    reflective[0] = np.zeros(VOCAB + 1)
    with pytest.raises(InvalidLogitsError, match=r"width: shapes \[\(6,\), \(7,\)\]"):
        fuse(original, reflective, 0.4, 1.0)
    with pytest.raises(InvalidLogitsError, match=r"width: shapes \[\(2,\), \(3,\)\]"):
        fuse([np.zeros(2)], [np.zeros(3)], 0.3, 0.8)


@pytest.mark.parametrize("strategy", ["exact", "specsample", "typical"])
def test_ragged_distribution_rows_are_rejected(strategy):
    p = valid_p()
    p[2] = np.full(VOCAB + 1, 1.0 / (VOCAB + 1))
    with pytest.raises(InvalidDistributionError, match=r"width: shapes \[\(6,\), \(7,\)\]"):
        if strategy == "exact":
            verify_exact_match(p, [0] * GAMMA, make_rng(0))
        elif strategy == "specsample":
            verify_speculative_sampling(p, valid_p(n=GAMMA), [0] * GAMMA, make_rng(0))
        else:
            verify_typical(p, p, [0] * GAMMA, 0.3, 0.2, make_rng(0))


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
