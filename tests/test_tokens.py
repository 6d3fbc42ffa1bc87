"""Kernel tests: softmax, entropy, sampling, greedy, and seed derivation."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reflectspec.errors import (
    InvalidConfigError,
    InvalidDistributionError,
    InvalidLogitsError,
    InvalidTokenError,
)
from reflectspec.tokens import (
    derive_seed,
    entropy,
    make_rng,
    one_hot,
    sample,
    sampling_distribution,
    softmax,
    validate_distribution,
)

finite_logits = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=12
)

# Gap between the top two logits above which greedy picks the same token at
# every temperature in [0.05, 20]. In scaled units (logit / T) the gap is
# d / T, while the rounding of the scaling and of the max-subtraction moves
# each scaled logit by a few ulps of 50 / T, under 2.3e-14 / T; after exp,
# the two numerators must still differ by a few ulps of 1 (about 4.4e-16,
# so d / T >= 4.4e-16, i.e. d >= 8.9e-15 at T = 20) for the division by the
# common sum to keep them apart. Any d above ~3.2e-14 is enough; 1e-9
# leaves five orders of magnitude. Below that, a gap can round away to an
# exact tie at one temperature and not at another (see
# test_sub_ulp_gap_may_tie).
ARGMAX_MARGIN = 1e-9


def mpmath_softmax(values, temperature=1.0):
    """Independent high-precision softmax oracle."""
    with mpmath.workdps(50):
        scaled = [mpmath.mpf(v) / mpmath.mpf(temperature) for v in values]
        exps = [mpmath.e**v for v in scaled]
        total = mpmath.fsum(exps)
        return [float(e / total) for e in exps]


class TestSoftmax:
    def test_equal_logits_give_uniform(self):
        for temp in (0.5, 1.0, 7.0):
            out = softmax(np.full(5, 2.5), temp)
            assert np.allclose(out, 0.2, atol=1e-12)

    def test_dominant_logit(self):
        out = softmax(np.array([100.0, 0.0, 0.0]), 1.0)
        assert out[0] > 1 - 1e-12
        assert out[1] < 1e-12 and out[2] < 1e-12

    def test_against_high_precision_oracle(self):
        logits = np.array([1.0, 2.0, 3.0])
        want = mpmath_softmax([1.0, 2.0, 3.0])
        got = softmax(logits, 1.0)
        assert np.max(np.abs(got - np.array(want))) < 1e-12

    @given(finite_logits, st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=100)
    def test_sums_to_one_and_shift_invariant(self, values, temp):
        arr = np.array(values)
        out = softmax(arr, temp)
        assert abs(out.sum() - 1.0) <= 1e-12
        shifted = softmax(arr + 13.25, temp)
        assert np.max(np.abs(out - shifted)) <= 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidConfigError):
            softmax(np.zeros(3), 0.0)
        with pytest.raises(InvalidConfigError):
            softmax(np.zeros(3), -1.0)
        with pytest.raises(InvalidLogitsError):
            softmax(np.array([1.0, np.nan]), 1.0)
        with pytest.raises(InvalidLogitsError):
            softmax(np.array([1.0, np.inf]), 1.0)


    @pytest.mark.parametrize(
        "logits, temperature",
        [
            ([0.5, -3.0, 2.0], 1e-310),  # the quotient overflows
            ([1e308, 0.0], 1e-3),
            ([1e308, -1e308], 1.0),  # the quotient is finite, its spread is not
            ([[0.0, 1.0], [4.0, -1.0]], 5e-324),
        ],
    )
    def test_overflowing_temperature_names_the_temperature(self, logits, temperature):
        # Numeric warnings are errors under this suite, so none may be raised.
        for kernel in (softmax, sampling_distribution):
            with pytest.raises(InvalidConfigError, match=f"^temperature {temperature!r} is too small"):
                kernel(np.array(logits), temperature)

    @given(
        st.lists(st.floats(min_value=-1e308, max_value=1e308), min_size=1, max_size=8),
        st.floats(min_value=5e-324, max_value=1e3),
    )
    @settings(max_examples=300)
    def test_finite_logits_give_a_distribution_or_a_temperature_error(self, values, temp):
        try:
            out = softmax(np.array(values), temp)
        except InvalidConfigError as exc:
            assert str(exc).startswith(f"temperature {temp!r} is too small")
        else:
            validate_distribution(out)


class TestSamplingDistribution:
    def test_zero_temperature_is_one_hot_argmax(self):
        out = sampling_distribution(np.array([0.5, 3.0, 3.0]), 0.0)
        assert out.tolist() == [0.0, 1.0, 0.0]  # lowest id wins the tie

    def test_negative_temperature_rejected(self):
        with pytest.raises(InvalidConfigError):
            sampling_distribution(np.zeros(2), -0.5)

    def test_nan_temperature_rejected_naming_it(self):
        with pytest.raises(InvalidConfigError, match="^temperature must be >= 0, got nan$"):
            sampling_distribution(np.zeros(2), float("nan"))

    def test_positive_temperature_matches_softmax(self):
        logits = np.array([0.1, -2.0, 1.0])
        assert np.array_equal(sampling_distribution(logits, 0.7), softmax(logits, 0.7))


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert entropy(one_hot(2, 6)) == 0.0

    def test_uniform_four(self):
        assert abs(entropy(np.full(4, 0.25)) - math.log(4)) < 1e-12

    def test_against_direct_summation(self):
        dist = np.array([0.5, 0.25, 0.25])
        want = -sum(p * math.log(p) for p in dist)
        assert abs(entropy(dist) - want) < 1e-15

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=16))
    @settings(max_examples=100)
    def test_bounded_by_log_vocab(self, raw):
        dist = np.array(raw) / np.sum(raw)
        h = entropy(dist)
        bound = math.log(dist.size)
        assert h <= bound + 1e-9
        if abs(h - bound) < 1e-9:
            assert np.allclose(dist, 1.0 / dist.size, atol=1e-4)

    def test_uniform_attains_bound(self):
        for size in (2, 5, 31):
            assert abs(entropy(np.full(size, 1.0 / size)) - math.log(size)) < 1e-9


class TestSample:
    def test_one_hot_support(self):
        dist = one_hot(3, 5)
        for seed in range(5):
            assert sample(dist, make_rng(seed)) == 3

    def test_uniform_two_frequency(self):
        rng = make_rng(42)
        dist = np.array([0.5, 0.5])
        draws = sum(1 for _ in range(100_000) if sample(dist, rng) == 0)
        assert 0.49 <= draws / 100_000 <= 0.51

    def test_deterministic_given_state(self):
        dist = np.array([0.2, 0.3, 0.5])
        seq_a = [sample(dist, rng) for rng in [make_rng(9)] for _ in range(20)]
        rng = make_rng(9)
        seq_b = [sample(dist, rng) for _ in range(20)]
        assert seq_a == seq_b

    def test_consumes_one_uniform_per_draw(self):
        dist = np.array([0.25, 0.75])
        rng_a, rng_b = make_rng(3), make_rng(3)
        sample(dist, rng_a)
        rng_b.random()
        assert rng_a.random() == rng_b.random()

    def test_never_returns_zero_mass_token(self):
        dist = np.array([0.5, 0.5, 0.0])
        rng = make_rng(1)
        assert all(sample(dist, rng) in (0, 1) for _ in range(2000))


def greedy(values) -> int:
    """The token temperature-0 sampling picks from ``values``: the one-hot
    ``sampling_distribution(values, 0)`` must put all mass on one id."""
    one_hot_row = sampling_distribution(np.asarray(values), 0.0)
    (picks,) = np.nonzero(one_hot_row)
    assert one_hot_row.sum() == 1.0 and len(picks) == 1
    return int(picks[0])


class TestGreedy:
    """Ties and argmax of the production greedy path, temperature-0
    ``sampling_distribution``."""

    def test_simple(self):
        assert greedy(np.array([0.1, 0.7, 0.2])) == 1

    def test_tie_breaks_low(self):
        assert greedy(np.array([0.5, 0.5])) == 0

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_matches_linear_scan(self, raw):
        dist = np.array(raw) / np.sum(raw)
        best, best_p = 0, dist[0]
        for i, p in enumerate(dist):
            if p > best_p:
                best, best_p = i, p
        assert greedy(dist) == best

    @given(finite_logits, st.booleans(), st.floats(min_value=0.05, max_value=20))
    @settings(max_examples=100)
    def test_argmax_invariant_under_temperature(self, values, tie, temp):
        # Holds when every logit is either exactly tied with the maximum (both
        # temperatures then pick the lowest tied id) or at least ARGMAX_MARGIN
        # below it; a sub-ulp gap below a tied maximum can round away too.
        if tie:
            values = values + [max(values)]
        top = max(values)
        assume(all(v == top or top - v >= ARGMAX_MARGIN for v in values))
        arr = np.array(values)
        assert greedy(softmax(arr, temp)) == greedy(softmax(arr, 1.0))

    def test_sub_ulp_gap_may_tie(self):
        # A gap of one ulp below zero survives at T=1 but rounds away at T=5:
        # the softmax is an exact tie there and greedy takes the lower id.
        arr = np.array([-2.220446049250313e-16, 0.0])
        assert softmax(arr, 5.0).tolist() == [0.5, 0.5]
        assert greedy(softmax(arr, 5.0)) == 0
        assert greedy(softmax(arr, 1.0)) == 1


class TestValidation:
    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidDistributionError):
            validate_distribution(np.array([1.1, -0.1]))

    def test_bad_sum_rejected(self):
        with pytest.raises(InvalidDistributionError):
            validate_distribution(np.array([0.5, 0.4]))

    def test_small_drift_tolerated(self):
        validate_distribution(np.array([0.5, 0.5 + 5e-10]))

    def test_one_hot_range_check(self):
        with pytest.raises(InvalidTokenError):
            one_hot(5, 5)


class TestSeedDerivation:
    def test_stable_mapping(self):
        # Frozen value: any change here silently invalidates every recorded
        # sweep seed, so the mapping is pinned.
        assert derive_seed("sweep-cell", 0, 0, 0, 0, 0, 0) == 2016093990430089630
        assert derive_seed("a", 1) != derive_seed("a", 2)
        assert derive_seed(1, "a") != derive_seed("1", "a")

    def test_range(self):
        for i in range(50):
            s = derive_seed("x", i)
            assert 0 <= s < 2**63
