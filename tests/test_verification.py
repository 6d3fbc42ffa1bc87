"""Acceptance-strategy tests, the enumeration oracle for unbiasedness, and
the uniforms each verifier and each decode step draws."""

import ast
import inspect
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import make_divergence_pair

from reflectspec import engine, verification
from reflectspec.drafting import generate_draft
from reflectspec.engine import DecodeConfig, decode
from reflectspec.errors import (
    DegenerateResidualError,
    InvalidConfigError,
    InvalidDistributionError,
    InvalidTokenError,
)
from reflectspec.models import ModelSession, ModelSpec
from reflectspec.reflective import ReflectiveTemplate
from reflectspec.tokens import make_rng, one_hot
from reflectspec.verification import (
    VerificationResult,
    _exact_match_verdict,
    exact_step_distribution,
    residual_distribution,
    typical_threshold,
    verify_exact_match,
    verify_speculative_sampling,
    verify_typical,
)


def rand_dist(rng, size):
    raw = rng.random(size) + 1e-6
    return raw / raw.sum()


def exact_match_law(p, q):
    """The law of the token a one-draft sample-mode exact-match step emits
    at its drafted position, by exact enumeration: the draft x ~ q, and the
    resampled y and the bonus z ~ p, each picked by a uniform inside its
    token's inverse-CDF interval of p; outcome (x, y, z) weighs
    q(x) p(y) p(z). Both verifier rows are p."""
    edges = np.concatenate([[0.0], np.add.accumulate(p)])
    inside = (edges[:-1] + edges[1:]) / 2
    law = np.zeros(len(p))
    for x, y, z in itertools.product(range(len(p)), repeat=3):
        res = _exact_match_verdict(np.array([p, p]), [x], np.array([inside[y], inside[z]]))
        assert res.tested == (y,) and res.bonus == z
        law[x if res.accepted_n else z] += q[x] * p[y] * p[z]
    return law


class TestResidual:
    @pytest.mark.parametrize(
        "p,q,want",
        [
            ([0.5, 0.5], [1.0, 0.0], [0.0, 1.0]),
            ([0.6, 0.4], [0.2, 0.8], [1.0, 0.0]),
            ([0.5, 0.3, 0.2], [0.1, 0.5, 0.4], [1.0, 0.0, 0.0]),
        ],
    )
    def test_hand_cases(self, p, q, want):
        got = residual_distribution(np.array(p), np.array(q))
        assert np.max(np.abs(got - np.array(want))) <= 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateResidualError):
            residual_distribution(np.array([0.3, 0.7]), np.array([0.3, 0.7]))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_normalized_and_supported_where_p_exceeds_q(self, seed):
        rng = make_rng(seed)
        size = int(rng.integers(2, 9))
        p, q = rand_dist(rng, size), rand_dist(rng, size)
        r = residual_distribution(p, q)
        assert abs(r.sum() - 1.0) <= 1e-12
        assert np.all(r[p <= q] == 0.0)


class TestExactStepDistribution:
    def test_identical_distributions_pass_through(self):
        p = np.array([0.2, 0.3, 0.5])
        out = exact_step_distribution(p, p.copy())
        assert np.max(np.abs(out - p)) <= 1e-12

    def test_one_hot_draft_expands_to_target(self):
        rng = make_rng(1)
        for _ in range(50):
            size = int(rng.integers(2, 9))
            p = rand_dist(rng, size)
            q = one_hot(int(rng.integers(0, size)), size)
            out = exact_step_distribution(p, q)
            assert np.max(np.abs(out - p)) <= 1e-12

    def test_unbiasedness_sweep(self):
        rng = make_rng(20240601)
        for i in range(1000):
            size = 2 + (i % 7)
            p, q = rand_dist(rng, size), rand_dist(rng, size)
            out = exact_step_distribution(p, q)
            assert np.max(np.abs(out - p)) <= 1e-12


class TestExactMatch:
    def test_one_hot_on_draft_accepts_all(self):
        vocab = 6
        draft = [1, 4, 2]
        p = [one_hot(t, vocab) for t in draft] + [one_hot(0, vocab)]
        res = verify_exact_match(p, draft, make_rng(0))
        assert res.accepted_n == 3
        assert res.bonus == 0
        assert res.per_step_accepts == (True, True, True)

    def test_one_hot_elsewhere_rejects_first(self):
        vocab = 6
        p = [one_hot(5, vocab), one_hot(1, vocab)]
        res = verify_exact_match(p, [2], make_rng(0))
        assert res.accepted_n == 0
        assert res.bonus == 5  # fresh draw lands on the only supported token

    def test_greedy_match_uses_argmax(self):
        p1 = np.array([0.1, 0.6, 0.3])
        p2 = np.array([0.7, 0.2, 0.1])
        res = verify_exact_match([p1, p2], [1], make_rng(0), greedy_match=True)
        assert res.accepted_n == 1 and res.bonus == 0
        res2 = verify_exact_match([p1, p2], [2], make_rng(0), greedy_match=True)
        assert res2.accepted_n == 0 and res2.bonus == 1

    def test_acceptance_probability_equals_draft_mass(self):
        # Mixing p toward a one-hot on the draft token raises its mass, and
        # the per-step acceptance probability is exactly that mass, so
        # acceptance is monotone under the mixing.
        rng = make_rng(7)
        p = rand_dist(rng, 5)
        tok = 2
        masses = []
        for lam in (0.0, 0.3, 0.8, 1.0):
            mixed = (1 - lam) * p + lam * one_hot(tok, 5)
            masses.append(mixed[tok])
            hits = 0
            trials = 4000
            sample_rng = make_rng(123)
            for _ in range(trials):
                res = verify_exact_match([mixed, mixed], [tok], sample_rng)
                hits += res.accepted_n
            assert abs(hits / trials - mixed[tok]) < 0.03
        assert all(b >= a for a, b in zip(masses, masses[1:]))

    @pytest.mark.parametrize("seed", range(4))
    def test_the_sample_mode_law_at_a_drafted_position_is_tilted_toward_q(self, seed):
        # A match emits the draft x; a mismatch discards the resampled token
        # and emits a fresh draw from p. So token t comes out with
        # probability q(t) p(t) + (1 - <q, p>) p(t).
        rng = make_rng(seed)
        p, q = rand_dist(rng, 4), rand_dist(rng, 4)
        want = p * (1 + q - q @ p)
        assert np.max(np.abs(exact_match_law(p, q) - want)) <= 1e-12

    @pytest.mark.xfail(
        strict=True, reason="sample-mode exact match is not lossless: its law is p(t)(1 + q(t) - <q,p>)"
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_the_sample_mode_law_at_a_drafted_position_is_p(self, seed):
        rng = make_rng(seed)
        p, q = rand_dist(rng, 4), rand_dist(rng, 4)
        assert np.max(np.abs(exact_match_law(p, q) - p)) <= 1e-12


class TestSpeculativeSampling:
    def test_equal_distributions_accept_everything(self):
        rng_data = make_rng(5)
        dists = [rand_dist(rng_data, 6) for _ in range(4)]
        draft = [int(np.argmax(d)) for d in dists[:3]]
        for seed in range(25):
            res = verify_speculative_sampling(dists, dists[:3], draft, make_rng(seed))
            assert res.accepted_n == 3

    def test_zero_target_mass_always_rejected(self):
        vocab = 4
        p1 = np.array([0.0, 0.5, 0.3, 0.2])
        q1 = one_hot(0, vocab)  # drafts token 0, which p gives zero mass
        p2 = rand_dist(make_rng(1), vocab)
        for seed in range(200):
            res = verify_speculative_sampling([p1, p2], [q1], [0], make_rng(seed))
            assert res.accepted_n == 0
            assert p1[res.bonus] > 0
        # The residual equals p with the drafted token removed, renormalized;
        # here that is p itself.
        assert np.max(np.abs(residual_distribution(p1, q1) - p1)) <= 1e-12

    def test_gamma_one_output_law_matches_oracle(self):
        # Empirical check against the closed-form law for small vocabularies.
        rng = make_rng(9)
        for _ in range(5):
            p = rand_dist(rng, 4)
            q = rand_dist(rng, 4)
            law = exact_step_distribution(p, q)
            counts = np.zeros(4)
            trial_rng = make_rng(77)
            trials = 20_000
            for _ in range(trials):
                from reflectspec.tokens import sample

                x = sample(q, trial_rng)
                res = verify_speculative_sampling([p, p], [q], [x], trial_rng)
                emitted = x if res.accepted_n == 1 else res.bonus
                counts[emitted] += 1
            tv = 0.5 * np.abs(counts / trials - law).sum()
            assert tv < 0.02

    def test_stopping_index_ignores_later_positions(self):
        rng = make_rng(2)
        dists_a = [rand_dist(rng, 5) for _ in range(4)]
        dists_b = [d.copy() for d in dists_a[:2]] + [rand_dist(rng, 5), rand_dist(rng, 5)]
        q = [rand_dist(rng, 5) for _ in range(3)]
        draft = [int(np.argmax(d)) for d in q]
        res_a = verify_speculative_sampling(dists_a, q, draft, make_rng(31))
        res_b = verify_speculative_sampling(dists_b, q, draft, make_rng(31))
        assert res_a.per_step_accepts[:2] == res_b.per_step_accepts[:2]


class TestTypical:
    def test_one_hot_accepts_with_min_eps_delta(self):
        vocab = 5
        draft = [2, 0]
        p = [one_hot(t, vocab) for t in draft] + [one_hot(1, vocab)]
        res = verify_typical(p, p, draft, 0.3, 0.2, make_rng(0))
        assert res.accepted_n == 2
        assert res.bounds == (min(0.3, 0.2),) * 2

    def test_uniform_hand_case(self):
        uniform = np.full(4, 0.25)
        want = min(0.3, 0.2 * math.exp(-math.log(4)))
        assert abs(typical_threshold(uniform, 0.3, 0.2) - want) <= 1e-15
        assert abs(want - 0.05) <= 1e-15
        res = verify_typical([uniform, uniform], [uniform, uniform], [3], 0.3, 0.2, make_rng(0))
        assert res.accepted_n == 1  # 0.25 > 0.05

    def test_vanishing_delta_accepts_all_positive_mass(self):
        rng = make_rng(4)
        dists = [rand_dist(rng, 6) for _ in range(4)]
        draft = [0, 1, 2]
        res = verify_typical(dists, dists, draft, 0.3, 1e-12, make_rng(1))
        assert res.accepted_n == 3

    def test_threshold_law_random_sweep(self):
        rng = make_rng(6)
        for _ in range(200):
            size = int(rng.integers(2, 12))
            dist = rand_dist(rng, size)
            # Either term of the min binds somewhere on this grid.
            for eps in (0.1, 0.6):
                for delta in (0.05, 0.9):
                    got = typical_threshold(dist, eps, delta)
                    h = -sum(x * math.log(x) for x in dist if x > 0)
                    assert abs(got - min(eps, delta * math.exp(-h))) <= 1e-12
                    assert 0 < got <= eps
                    assert got <= delta

    def test_entropy_source_is_separate_from_acceptance_source(self):
        flat = np.full(4, 0.25)
        sharp = np.array([0.97, 0.01, 0.01, 0.01])
        # Sharp entropy source: threshold ~0.9*exp(-0.16) ~ 0.77 rejects 0.25.
        res = verify_typical([flat, flat], [sharp, sharp], [0], 0.9, 0.9, make_rng(0))
        assert res.accepted_n == 0
        # Flat entropy source: threshold 0.9*0.25=0.225 < 0.25 accepts.
        res2 = verify_typical([flat, flat], [flat, flat], [0], 0.9, 0.9, make_rng(0))
        assert res2.accepted_n == 1

    def test_config_validated(self):
        uniform = np.full(4, 0.25)
        for name in ("epsilon", "delta"):
            for bad in (0.0, 1.5, math.nan):
                params = {"epsilon": 0.3, "delta": 0.2, name: bad}
                message = rf"^{name} must lie in \(0, 1\], got {bad!r}$"
                with pytest.raises(InvalidConfigError, match=message):
                    verify_typical([uniform] * 2, [uniform] * 2, [3], rng=make_rng(0), **params)


class TestVerificationResult:
    def test_accepted_n_counts_leading_true_flags(self):
        cases = [f for n in range(1, 6) for f in itertools.product((False, True), repeat=n)]
        assert len(cases) == 62
        for flags in cases:
            want = next((i for i, flag in enumerate(flags) if not flag), len(flags))
            assert VerificationResult(bonus=0, per_step_accepts=flags).accepted_n == want

    def test_flags_after_rejection_are_recorded(self):
        vocab = 4
        p = [one_hot(0, vocab), one_hot(1, vocab), one_hot(2, vocab)]
        res = verify_exact_match(p, [3, 1], make_rng(0))
        assert res.accepted_n == 0
        assert res.per_step_accepts == (False, True)


P4 = np.array([0.1, 0.2, 0.3, 0.4])
Q4 = np.array([0.4, 0.3, 0.2, 0.1])

VERIFIERS = {
    "exact-sample": lambda draft, rng: verify_exact_match([P4, P4], draft, rng),
    "exact-greedy": lambda draft, rng: verify_exact_match([P4, P4], draft, rng, greedy_match=True),
    "specsample": lambda draft, rng: verify_speculative_sampling([P4, P4], [Q4], draft, rng),
    "typical": lambda draft, rng: verify_typical([P4, P4], [P4, P4], draft, 0.3, 0.2, rng),
}


class TestDraftTokens:
    """Each verifier checks the draft against its block's width before it
    draws, so a refused call consumes no uniforms."""

    @pytest.mark.parametrize("name", VERIFIERS)
    @pytest.mark.parametrize(
        "token, message",
        [
            (-1, r"^token -1 outside vocabulary of size 4$"),
            (4, r"^token 4 outside vocabulary of size 4$"),
            (1.5, r"^token 1\.5 is not an integer$"),
        ],
    )
    def test_a_token_outside_the_vocabulary_is_refused_before_the_draw(self, name, token, message):
        # Unchecked, -1 reads column V - 1 (a specsample ratio of 1.0) and 4
        # indexes past the row, or passes for a mismatch in exact match.
        rng = make_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(InvalidTokenError, match=message):
            VERIFIERS[name]([token], rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("name", VERIFIERS)
    def test_numpy_integer_tokens_verify_like_ints(self, name):
        for token in range(4):
            want = VERIFIERS[name]([token], make_rng(1))
            for cast in (np.int64, np.uint8):
                assert VERIFIERS[name]([cast(token)], make_rng(1)) == want


Q_ZERO_AT_0 = np.array([0.0, 0.3, 0.3, 0.4])

CALLER_FAULTS = {
    "p too short": (
        lambda rng: verify_exact_match([P4], [1], rng),
        InvalidDistributionError, r"^p_dists must hold 2 rows for 1 draft tokens, got 1$",
    ),
    "p too long": (
        lambda rng: verify_speculative_sampling([P4, P4, P4], [Q4], [1], rng),
        InvalidDistributionError, r"^p_dists must hold 2 rows for 1 draft tokens, got 3$",
    ),
    "too few q rows": (
        lambda rng: verify_speculative_sampling([P4, P4, P4], [Q4], [1, 2], rng),
        InvalidDistributionError, r"^q_dists must hold 2 rows, got 1$",
    ),
    "too few entropy rows": (
        lambda rng: verify_typical([P4, P4, P4], [P4], [1, 2], 0.3, 0.2, rng),
        InvalidDistributionError, r"^entropy_dists must hold 2 rows, got 1$",
    ),
    "q of another width": (
        lambda rng: verify_speculative_sampling([P4, P4], [np.full(5, 0.2)], [1], rng),
        InvalidDistributionError, r"^q_dists rows have 5 tokens, p_dists rows 4$",
    ),
    "zero q mass": (
        lambda rng: verify_speculative_sampling([P4, P4], [Q_ZERO_AT_0], [0], rng),
        InvalidTokenError, r"^draft token 0 has zero q_dists mass at position 0$",
    ),
    "epsilon a string": (
        lambda rng: verify_typical([P4, P4], [P4], [1], "0.3", 0.2, rng),
        InvalidConfigError, r"^epsilon must be a real number, got '0.3'$",
    ),
    "epsilon None": (
        lambda rng: verify_typical([P4, P4], [P4], [1], None, 0.2, rng),
        InvalidConfigError, r"^epsilon must be a real number, got None$",
    ),
    "draft an int": (
        lambda rng: verify_speculative_sampling([P4, P4], [Q4], 1, rng),
        InvalidTokenError, r"^draft_tokens must be a sequence, got 1$",
    ),
    "rng None": (
        lambda rng: verify_speculative_sampling([P4, P4], [Q4], [1], None),
        InvalidConfigError, r"^rng must be a numpy.random.Generator, got None$",
    ),
    "greedy_match a string": (
        lambda rng: verify_exact_match([P4, P4], [1], rng, greedy_match="no"),
        InvalidConfigError, r"^greedy_match must be a bool, got 'no'$",
    ),
}


class TestCallerInputs:
    """A verifier given blocks that do not fit the draft, or a draft token
    its q gives no mass, raises the package error that names the argument,
    before it draws: the caller is at fault, not the package."""

    @pytest.mark.parametrize("case", CALLER_FAULTS)
    def test_the_error_names_the_argument_before_the_draw(self, case):
        call, error, message = CALLER_FAULTS[case]
        rng = make_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(error, match=message):
            call(rng)
        assert rng.bit_generator.state == before

    def test_exact_step_distribution_refuses_rows_of_different_widths(self):
        with pytest.raises(InvalidDistributionError, match=r"^p and q differ in shape: \(4,\) vs \(5,\)$"):
            exact_step_distribution(P4, np.full(5, 0.2))


ROOT = Path(__file__).resolve().parent.parent

DRAFTING = "drafting, per drafted step"
SPECSAMPLE = "speculative sampling"
EXACT_SAMPLE = "exact match, sample mode"
EXACT_GREEDY = "exact match, greedy mode (and at temperature 0)"
TYPICAL = "typical"
VANILLA = "a vanilla step's bonus"


def consumption_table(text):
    """The rows of the ``| draw | uniforms |`` table in ``text``: each
    draw's label and its count, a sum of ``gamma`` and integers."""
    lines = text[text.index("| draw | uniforms |") :].splitlines()[2:]
    rows = {}
    for line in map(str.strip, lines):
        if not line.startswith("|"):
            break
        label, count = (cell.strip() for cell in line.strip("|").split("|"))
        rows[label] = count
    return rows


def count(expression, gamma):
    return sum(gamma if term == "gamma" else int(term) for term in expression.split(" + "))


def uniforms_drawn(seed, rng, limit=5000):
    """The number of uniforms ``rng``, made by ``make_rng(seed)``, has drawn:
    the draws a fresh stream needs to reach its state."""
    fresh = make_rng(seed)
    for n in range(limit):
        if fresh.bit_generator.state == rng.bit_generator.state:
            return n
        fresh.random()
    raise AssertionError(f"the stream is not within {limit} uniforms of its seed")


def readme_table():
    return consumption_table((ROOT / "README.md").read_text())


class TestUniformsDrawn:
    """The uniforms each verifier call and each decode step draws, read from
    generator state, against the one table that README's determinism
    contract and ``verification``'s docstring both state."""

    def test_readme_and_the_docstring_state_one_table(self):
        table = readme_table()
        assert table == consumption_table(verification.__doc__)
        assert set(table) == {DRAFTING, SPECSAMPLE, EXACT_SAMPLE, EXACT_GREEDY, TYPICAL, VANILLA}

    @pytest.mark.parametrize("gamma", [1, 3, 6])
    def test_each_call_draws_its_count_wherever_it_rejects(self, gamma):
        table = readme_table()
        data = make_rng(gamma)
        p = [rand_dist(data, 5) for _ in range(gamma + 1)]
        q = [rand_dist(data, 5) for _ in range(gamma)]
        model = make_divergence_pair(ModelSpec("table", 5, seed=2, order=2), 0.0)[0]

        def drafting(rng):
            session = ModelSession(model, 0.8)
            session.forward([1, 2])
            return generate_draft(session, gamma, rng)

        calls = {
            DRAFTING: drafting,
            SPECSAMPLE: lambda draft, rng: verify_speculative_sampling(p, q, draft, rng),
            EXACT_SAMPLE: lambda draft, rng: verify_exact_match(p, draft, rng),
            EXACT_GREEDY: lambda draft, rng: verify_exact_match(p, draft, rng, greedy_match=True),
            TYPICAL: lambda draft, rng: verify_typical(p, p, draft, 0.3, 0.2, rng),
        }
        accepted = set()
        for seed in range(30):
            draft = data.integers(0, 5, gamma).tolist()
            for label, call in calls.items():
                rng = make_rng(seed)
                if label == DRAFTING:
                    call(rng)
                else:
                    accepted.add(call(draft, rng).accepted_n)
                assert uniforms_drawn(seed, rng) == count(table[label], gamma), label
        assert len(accepted) > 1

    @pytest.mark.parametrize(
        "strategy, temperature, settings, label",
        [
            ("specsample", 0.8, {}, SPECSAMPLE),
            ("exact", 0.8, {}, EXACT_SAMPLE),
            ("exact", 0.8, {"exact_match_mode": "greedy"}, EXACT_GREEDY),
            ("exact", 0.0, {}, EXACT_GREEDY),
            ("typical", 0.8, {}, TYPICAL),
            ("typical", 0.8, {"entropy_source": "fused"}, TYPICAL),
            ("vanilla", 0.8, {}, VANILLA),
        ],
    )
    @pytest.mark.parametrize("reflect", [False, True])
    def test_each_decode_step_draws_the_table_count(
        self, monkeypatch, strategy, temperature, settings, label, reflect
    ):
        # A drafted step draws for its draft and its verifier, a vanilla
        # step only its bonus.
        streams = []

        def recording_rng(seed):
            streams.append(make_rng(seed))
            return streams[-1]

        monkeypatch.setattr(engine, "make_rng", recording_rng)
        target, draft = make_divergence_pair(ModelSpec("table", 16, seed=3, order=2), 0.4)
        config = DecodeConfig(
            gamma=4, strategy=strategy, temperature=temperature, reflect=reflect,
            template=ReflectiveTemplate((15,), 2), max_new_tokens=30, seed=9, **settings,
        )
        _, stats = decode(target, draft, [1, 2, 3], config)
        table = readme_table()
        per_step = count(table[label], config.gamma)
        if strategy != "vanilla":
            per_step += count(table[DRAFTING], config.gamma)
        assert stats.num_steps > 1
        assert uniforms_drawn(9, streams[0]) == stats.num_steps * per_step


def test_only_the_public_verifiers_draw_once_each_then_hand_over():
    # Each public verifier's one generator call is the last thing it does:
    # its uniforms go straight to a verdict, which takes no generator.
    tree = ast.parse(inspect.getsource(verification))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    draws = {}
    for name, node in functions.items():
        calls = [
            n for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "random"
        ]
        if calls:
            draws[name] = len(calls)
    verifiers = ["verify_exact_match", "verify_speculative_sampling", "verify_typical"]
    assert draws == dict.fromkeys(verifiers, 1)
    verdicts = sorted(name for name in functions if name.endswith("_verdict"))
    assert verdicts == ["_exact_match_verdict", "_speculative_sampling_verdict", "_typical_verdict"]
    for name in verdicts:
        assert "rng" not in [arg.arg for arg in functions[name].args.args]
    for name in verifiers:
        last = functions[name].body[-1]
        assert isinstance(last, ast.Return) and isinstance(last.value, ast.Call)
        assert last.value.func.id in verdicts
        assert any(isinstance(n, ast.Call) and getattr(n.func, "attr", "") == "random" for n in last.value.args)
