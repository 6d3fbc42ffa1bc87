"""Decode-loop tests: baseline reduction, pruning contract, stats invariants."""

import time
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference_impl import ref_copy_target, reference_decode
from fixtures import CountingModel, make_divergence_pair

from reflectspec import engine, models
from reflectspec.engine import STRATEGIES, DecodeConfig, RunStats, commit_and_prune, decode
from reflectspec.errors import (
    DegenerateResidualError,
    InvalidConfigError,
    InvalidTokenError,
    SessionRangeError,
)
from reflectspec.models import (
    BlendModel,
    ModelSession,
    ModelSpec,
    NgramModel,
    ReflectionAwareModel,
    TableModel,
    build_model,
    divergence_noise_model,
    pair_models,
)
from reflectspec.bench import mean_accepted_tokens
from reflectspec.drafting import DraftBundle
from reflectspec.corpus import IntTokenizer
from reflectspec.reflective import ReflectiveTemplate, build_reflective_input, resolve_template
from reflectspec.tokens import make_rng, one_hot

VOCAB = 40
MARKER = VOCAB - 1
TEMPLATE = ReflectiveTemplate(prompt_tokens=(MARKER,), prefix_len=4)


class SleepyModel(CountingModel):
    """A ``CountingModel`` that sleeps ``seconds`` per call."""

    def __init__(self, inner, seconds):
        super().__init__(inner)
        self.seconds = seconds

    def next_logits(self, context):
        time.sleep(self.seconds)
        return super().next_logits(context)


class RecordingReflectionModel(ReflectionAwareModel):
    """A ``ReflectionAwareModel`` that keeps a copy of every context it is
    asked about, in the type the caller passed."""

    def __init__(self, base, marker, blend):
        super().__init__(base, marker, blend)
        self.contexts = []

    def next_logits(self, context):
        self.contexts.append(context[:])
        return super().next_logits(context)


def counted_decode(target, draft, prompt, config):
    """``decode`` on counting models, asserting the position identity: the
    target computes the prompt, every fed token and one bonus per step; the
    draft computes the prompt and its counted forwards."""
    t, d = CountingModel(target), CountingModel(draft)
    out, stats = decode(t, d, prompt, config)
    assert t.calls == stats.prompt_len + stats.total_input_tokens + stats.num_steps
    assert d.calls == stats.prompt_len + stats.total_draft_forwards
    return out, stats


def table_pair(eta=0.3, seed=11):
    return make_divergence_pair(ModelSpec("table", VOCAB, seed=seed, order=2), eta)


def copy_pair():
    """A new table pair at eta 0.4 whose target copies drafts after ``MARKER``."""
    base_target, draft = table_pair(eta=0.4)
    return ReflectionAwareModel(base_target, MARKER, 0.5), draft


def base_config(**kw):
    defaults = dict(
        gamma=4,
        alpha=0.3,
        temperature=0.8,
        strategy="specsample",
        template=TEMPLATE,
        max_new_tokens=24,
        seed=5,
    )
    defaults.update(kw)
    return DecodeConfig(**defaults)


class TestBaselineReduction:
    @pytest.mark.parametrize("strategy", ["specsample", "exact", "typical"])
    def test_plain_engine_matches_independent_reference(self, strategy):
        target, draft = table_pair()
        for seed in (0, 1, 2):
            prompt = [seed + 1, 7, 9]
            config = base_config(strategy=strategy, alpha=0.0, reflect=False, seed=seed)
            out, stats = decode(target, draft, prompt, config)
            ref_out, ref_ns = reference_decode(
                target,
                draft,
                prompt,
                gamma=4,
                temperature=0.8,
                strategy=strategy,
                seed=seed,
                max_new_tokens=24,
            )
            assert out == ref_out
            assert [s.accepted_n for s in stats.steps] == ref_ns

    @pytest.mark.parametrize("strategy", ["specsample", "exact", "typical"])
    def test_alpha_zero_with_reflective_feed_matches_plain(self, strategy):
        target, draft = table_pair()
        for seed in (3, 4):
            prompt = [2, 5, seed + 1]
            reflective = base_config(strategy=strategy, alpha=0.0, reflect=True, seed=seed)
            plain = base_config(strategy=strategy, alpha=0.0, reflect=False, seed=seed)
            out_r, stats_r = decode(target, draft, prompt, reflective)
            out_p, stats_p = decode(target, draft, prompt, plain)
            assert out_r == out_p
            assert [s.accepted_n for s in stats_r.steps] == [s.accepted_n for s in stats_p.steps]


class TestForcedAcceptance:
    def test_identical_models_greedy_exact_match_accepts_everything(self):
        model = TableModel(VOCAB, seed=4)
        config = base_config(
            strategy="exact", temperature=0.0, alpha=0.0, gamma=4, max_new_tokens=40
        )
        out, stats = decode(model, model, [1, 2, 3], config)
        assert all(s.accepted_n == 4 for s in stats.steps)
        assert all(s.tokens_emitted == 5 for s in stats.steps)
        assert mean_accepted_tokens(stats) == 5.0
        assert len(out) == 40

    def test_vanilla_mat_is_exactly_one(self):
        model = TableModel(VOCAB, seed=4)
        config = base_config(strategy="vanilla", max_new_tokens=30)
        out, stats = decode(model, model, [1, 2], config)
        assert mean_accepted_tokens(stats) == 1.0
        assert len(out) == 30
        assert all(s.input_tokens_fed == 0 for s in stats.steps)


class TestDeterminism:
    def test_same_seed_same_run(self):
        target, draft = table_pair()
        config = base_config(record_trace=False)
        out1, stats1 = decode(target, draft, [1, 2, 3], config)
        out2, stats2 = decode(target, draft, [1, 2, 3], config)
        assert out1 == out2
        assert [s.accepted_n for s in stats1.steps] == [s.accepted_n for s in stats2.steps]

    def test_different_seed_differs(self):
        target, draft = table_pair()
        out1, _ = decode(target, draft, [1, 2, 3], base_config(seed=0))
        out2, _ = decode(target, draft, [1, 2, 3], base_config(seed=1))
        assert out1 != out2


class TestCommitAndPrune:
    def test_manual_step(self):
        model = TableModel(16, seed=2)
        target_session = ModelSession(model)
        draft_session = ModelSession(model)
        committed = [1, 2, 3]
        target_session.forward(committed)
        draft_session.forward(committed)
        tokens = (4, 5, 6)
        bundle = DraftBundle(tokens, tuple(one_hot(t, 16) for t in tokens))
        layout = build_reflective_input(bundle, ReflectiveTemplate((15,), 2), committed)
        target_session.forward(list(layout.full_sequence))
        commit_and_prune(target_session, draft_session, len(committed) + 1, 9)
        assert target_session.tokens == committed + [4, 9]
        assert draft_session.tokens == committed

    def test_zero_accepts_shrinks_to_committed(self):
        model = TableModel(16, seed=2)
        target_session = ModelSession(model)
        draft_session = ModelSession(model)
        committed = [1, 2]
        target_session.forward(committed)
        draft_session.forward(committed)
        tokens = (4,)
        bundle = DraftBundle(tokens, (one_hot(4, 16),))
        layout = build_reflective_input(bundle, ReflectiveTemplate(), committed)
        target_session.forward(list(layout.full_sequence))
        commit_and_prune(target_session, draft_session, len(committed), 3)
        assert target_session.tokens == committed + [3]

    @pytest.mark.parametrize("gamma", [1, 2, 5])
    def test_draft_session_keeps_accepted_drafts(self, gamma):
        # Drafting leaves the draft session at committed + the first gamma - 1
        # drafts; the prune keeps the accepted ones, and what stays cached is
        # what a fresh replay computes, bit for bit.
        target, draft = table_pair()
        committed = [1, 2, 3, 4, 5]
        tokens = tuple(range(6, 6 + gamma))
        bundle = DraftBundle(tokens, tuple(one_hot(t, VOCAB) for t in tokens))
        layout = build_reflective_input(bundle, TEMPLATE, committed)
        for accepted_n in range(gamma + 1):
            target_session = ModelSession(target)
            target_session.forward(committed + list(layout.full_sequence))
            draft_session = ModelSession(draft)
            draft_session.forward(committed + list(tokens[: gamma - 1]))
            commit_and_prune(target_session, draft_session, len(committed) + accepted_n, 9)
            assert target_session.tokens == committed + list(tokens[:accepted_n]) + [9]
            kept = committed + list(tokens[: min(accepted_n, gamma - 1)])
            assert draft_session.tokens == kept
            replay = ModelSession(draft).forward(kept)
            for length in range(len(kept), 0, -1):
                draft_session.truncate(length)
                assert np.array_equal(draft_session.last_logits, replay[length - 1])

    @pytest.mark.parametrize(
        "keep_length, bonus, error, message",
        [
            (4, 9, SessionRangeError, "^keep_length 4 outside \\[0, 3\\]"),
            (-1, 9, SessionRangeError, "^keep_length -1 outside"),
            (1.5, 9, InvalidConfigError, "^keep_length must be an integer, got 1.5$"),
            ("2", 9, InvalidConfigError, "^keep_length must be an integer, got '2'$"),
            (2, 16, InvalidTokenError, "^token 16 outside vocabulary of size 16$"),
            (2, 1.5, InvalidTokenError, "^token 1.5 is not an integer$"),
        ],
        ids=["past-the-end", "negative", "float", "string", "bonus-outside", "bonus-float"],
    )
    def test_a_bad_keep_length_or_bonus_is_a_named_caller_error(
        self, keep_length, bonus, error, message
    ):
        model = TableModel(16, seed=2)
        target_session, draft_session = ModelSession(model), ModelSession(model)
        target_session.forward([1, 2, 3])
        draft_session.forward([1, 2, 3])
        with pytest.raises(error, match=message):
            commit_and_prune(target_session, draft_session, keep_length, bonus)

    def test_a_bad_bonus_leaves_both_sessions_unchanged(self):
        model = TableModel(16, seed=2)
        target_session, draft_session = ModelSession(model), ModelSession(model)
        target_session.forward([1, 2, 3, 4, 5])
        draft_session.forward([1, 2, 3, 4, 5])
        last = target_session.last_logits
        with pytest.raises(InvalidTokenError, match="^token 16 outside vocabulary of size 16$"):
            commit_and_prune(target_session, draft_session, 2, 16)
        assert target_session.tokens == draft_session.tokens == [1, 2, 3, 4, 5]
        assert target_session.last_logits is last

    def test_fresh_session_equivalence_across_steps(self):
        # After every step the target session must behave exactly like a
        # fresh session replaying only the committed tokens.
        target, draft = table_pair()
        config = base_config(record_trace=True, max_new_tokens=20)
        prompt = [1, 2, 3]
        out, stats = decode(target, draft, prompt, config)
        emitted = 0
        for step in stats.steps:
            fresh = ModelSession(target)
            fresh.forward(prompt + out[:emitted])
            assert np.max(np.abs(fresh.last_logits - step.original[0])) <= 1e-12
            regrown = fresh.forward(list(step.draft_tokens))
            for got, want in zip(step.original[1:], regrown):
                assert np.max(np.abs(got - want)) <= 1e-12
            emitted += step.tokens_emitted


class TestTermination:
    def test_max_tokens_respected_exactly(self):
        target, draft = table_pair()
        for budget in (1, 7, 23):
            out, stats = decode(target, draft, [1, 2, 3], base_config(max_new_tokens=budget))
            assert len(out) == budget
            assert stats.total_tokens_emitted == budget

    def test_eos_stops_decode(self):
        target, draft = table_pair()
        config = base_config(eos_token=0, max_new_tokens=400, seed=1)
        out, stats = decode(target, draft, [1, 2, 3], config)
        assert out.count(0) == 1
        assert out[-1] == 0
        assert stats.total_tokens_emitted == len(out)
        final = stats.steps[-1]
        assert final.tokens_emitted <= final.accepted_n + 1

    def test_non_final_steps_emit_accepted_plus_one(self):
        target, draft = table_pair()
        out, stats = decode(target, draft, [1, 2, 3], base_config(max_new_tokens=21, seed=2))
        for step in stats.steps[:-1]:
            assert step.tokens_emitted == step.accepted_n + 1


class TestStats:
    def test_one_target_forward_per_step_and_budget_accounting(self):
        target, draft = table_pair()
        config = base_config()
        out, stats = decode(target, draft, [1, 2, 3], config)
        # Budget per step: two copies of gamma plus probe plus prefix replay.
        # The first step replays only the 3 prompt tokens (fewer committed
        # tokens than prefix_len); afterwards the full prefix is available.
        full_budget = 2 * config.gamma + 1 + config.template.prefix_len
        assert stats.steps[0].input_tokens_fed == full_budget - 1
        assert all(s.input_tokens_fed == full_budget for s in stats.steps[1:])
        assert stats.total_tokens_emitted == len(out)
        mat = mean_accepted_tokens(stats)
        assert 1.0 <= mat <= config.gamma + 1

    def test_totals_are_sums(self):
        target, draft = table_pair()
        _, stats = decode(target, draft, [1, 2, 3], base_config())
        assert stats.total_tokens_emitted == sum(s.tokens_emitted for s in stats.steps)
        assert stats.total_draft_forwards == sum(s.draft_forward_count for s in stats.steps)

    def test_step_wall_time_covers_drafting(self):
        target, base = table_pair(eta=0.0)
        draft = SleepyModel(base, seconds=0.002)
        start = time.perf_counter()
        _, stats = decode(target, draft, [1, 2, 3], base_config(gamma=3, max_new_tokens=12))
        outside = time.perf_counter() - start
        step_calls = draft.calls - stats.prompt_len  # the prompt is fed before any step
        assert step_calls == stats.total_draft_forwards > 0
        assert 0.002 * step_calls <= stats.total_wall_time <= outside

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("reflect", [True, False])
    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    def test_counted_positions_match_stats(self, strategy, reflect, temperature):
        # Every position either model computes is accounted for by the step
        # stats, including a final step cut inside its accepted prefix by
        # the budget or an end-of-sequence token.
        target, draft = table_pair(eta=0.2)
        prompt = [1, 2, 3]
        cuts = 0
        for gamma in range(1, 9):
            config = base_config(
                gamma=gamma,
                strategy=strategy,
                reflect=reflect,
                temperature=temperature,
                max_new_tokens=40,
                seed=gamma,
            )
            out, stats = counted_decode(target, draft, prompt, config)
            emitted = 0
            for step in stats.steps:
                # A step whose first token is an accepted draft token, seen
                # for the first time: cut there by the budget and by EOS.
                if step.accepted_n >= 1 and out[emitted] not in out[:emitted]:
                    for cut in (
                        replace(config, max_new_tokens=emitted + 1),
                        replace(config, eos_token=out[emitted]),
                    ):
                        cut_out, cut_stats = counted_decode(target, draft, prompt, cut)
                        assert cut_out == out[: emitted + 1]
                        last = cut_stats.steps[-1]
                        assert last.tokens_emitted == 1 < last.accepted_n + 1
                        cuts += 1
                    break
                emitted += step.tokens_emitted
        if strategy != "vanilla":
            assert cuts >= 8

    def test_empty_stats_rejected(self):
        with pytest.raises(InvalidConfigError):
            mean_accepted_tokens(RunStats())


class TestVariants:
    def test_entropy_source_switch_changes_typical_thresholds(self):
        # With the copy mechanism active the fused distributions are far
        # sharper than the originals, so the two entropy sources must yield
        # visibly different per-step thresholds on the very first step.
        base_target, draft = table_pair(eta=0.4)
        target = ReflectionAwareModel(base_target, MARKER, 0.8)
        thresholds = {}
        for source in ("original", "fused"):
            config = base_config(
                strategy="typical",
                alpha=0.6,
                entropy_source=source,
                max_new_tokens=16,
                seed=3,
                record_trace=True,
            )
            _, stats = decode(target, draft, [1, 2, 3], config)
            thresholds[source] = stats.steps[0].result.bounds
        assert thresholds["original"] != thresholds["fused"]
        assert max(thresholds["fused"]) > 2 * max(thresholds["original"])

    def test_exact_match_greedy_mode_differs_from_sampled(self):
        target, draft = table_pair(eta=0.6)
        sampled, _ = decode(
            target, draft, [1, 2, 3], base_config(strategy="exact", seed=6, max_new_tokens=32)
        )
        greedy_mode, _ = decode(
            target,
            draft,
            [1, 2, 3],
            base_config(strategy="exact", exact_match_mode="greedy", seed=6, max_new_tokens=32),
        )
        assert sampled != greedy_mode

    def test_ngram_backend_roundtrip(self):
        rng = make_rng(0)
        docs = [[int(t) for t in rng.integers(0, 12, size=50)] for _ in range(4)]
        target = NgramModel(docs, 16, order=2, smoothing=0.5)
        draft = NgramModel(docs, 16, order=1, smoothing=0.5)
        config = base_config(
            template=ReflectiveTemplate((15,), 4), gamma=3, max_new_tokens=12, seed=4
        )
        out, stats = decode(target, draft, [1, 2], config)
        assert len(out) == 12


class TestCopySearchInDecode:
    @pytest.mark.parametrize("vocab", [VOCAB, 300])
    @pytest.mark.parametrize("strategy", ["exact", "specsample", "typical"])
    def test_every_target_context_matches_reference_scan(self, vocab, strategy):
        base = TableModel(vocab, seed=11)
        target = RecordingReflectionModel(base, vocab - 1, 0.5)
        draft = BlendModel(base, TableModel(vocab, seed=12), 0.25)
        template = ReflectiveTemplate(prompt_tokens=(vocab - 1,), prefix_len=3)
        config = base_config(strategy=strategy, template=template, max_new_tokens=64)
        decode(target, draft, [1, 2, 3, 4, 5], config)
        assert target.contexts and all(type(c) is array for c in target.contexts)
        want = [ref_copy_target(list(c), target.marker) for c in target.contexts]
        assert [target._copy_target(c) for c in target.contexts] == want
        assert 0 < want.count(None) < len(want)  # both outcomes occur


MEMO_VOCAB = 64
MEMO_CORPUS = [
    [int(t) for t in make_rng(doc).integers(0, MEMO_VOCAB - 1, size=200)] for doc in range(4)
]


def memo_pair(kind, fifo=False):
    """A freshly built (target, draft) pair at V=64: a table base behind the
    copy target, or an n-gram base with a plain target. Both models keep
    their whole window space unless ``fifo`` bounds their memos to
    ``MEMO_WINDOWS``."""
    spec = ModelSpec(kind, MEMO_VOCAB, seed=3, order=2)
    with pytest.MonkeyPatch.context() as mp:
        if fifo:
            mp.setattr(models, "TABLE_BYTES", 0)
        base = build_model(spec, corpus=MEMO_CORPUS if kind == "ngram" else None)
        noise = divergence_noise_model(spec)
    beta = 0.5 if kind == "table" else 0.0
    return pair_models(base, noise, 0.4, beta, MEMO_VOCAB - 1)


def memo_cases():
    """Every strategy under the reflective template and the plain one, each
    with its own prompt and seed."""
    template = ReflectiveTemplate(prompt_tokens=(MEMO_VOCAB - 1,), prefix_len=3)
    cases = []
    for i, strategy in enumerate(STRATEGIES):
        for reflect in (True, False):
            config = base_config(
                strategy=strategy, template=template, reflect=reflect, gamma=5,
                max_new_tokens=160, seed=20 + 2 * i + reflect,
            )
            cases.append(([i + 1, 2 * i + 3, 40 + 3 * i + reflect], config))
    return cases


def decode_with_end_state(target, draft, prompt, config):
    """``decode``'s tokens and the state its generator ended in."""
    made = []

    def recording_rng(seed):
        made.append(make_rng(seed))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "make_rng", recording_rng)
        out, _ = decode(target, draft, prompt, config)
    assert len(made) == 1
    return out, made[0].bit_generator.state


class TestMemoTransparency:
    """The memos live as long as the models, across decodes, so a pair that
    has already decoded must act exactly like a new one."""

    @pytest.mark.parametrize("kind", ["table", "ngram"])
    @pytest.mark.parametrize("fifo, windows", [(False, None), (True, None), (True, 1)])
    def test_warm_pair_decodes_like_a_fresh_pair(self, kind, fifo, windows, monkeypatch):
        # ``windows`` shrinks every bounded memo; the fresh pairs keep their
        # whole spaces.
        if windows is not None:
            monkeypatch.setattr(models, "MEMO_WINDOWS", windows)
        warm_target, warm_draft = memo_pair(kind, fifo)
        warm_models = (warm_draft.primary, warm_draft.secondary)
        cases = memo_cases()
        # Each case runs after every case before it in the list, on the
        # shared pair; the last case warms the pair for the first.
        for prompt, config in cases[-1:] + cases:
            warm = decode_with_end_state(warm_target, warm_draft, prompt, config)
            fresh = decode_with_end_state(*memo_pair(kind), prompt, config)
            assert warm == fresh, (config.strategy, config.reflect)
        full = models.MEMO_WINDOWS
        primary, secondary = warm_models
        if fifo:  # the primary's memo has filled and evicted
            assert len(primary._memo) == full
        else:  # the whole space keeps more windows than a bounded memo
            assert len(primary._memo) > full
        # The secondary is read through its formula and holds nothing.
        assert secondary._memo == {}


class TestTableMemoDecodes:
    """A pair that keeps its whole window spaces decodes exactly like the
    same pair with bounded memos, for every strategy and both templates."""

    @pytest.mark.parametrize("kind", ["table", "ngram"])
    def test_whole_space_pair_decodes_like_a_bounded_pair(self, kind):
        tables, memos = memo_pair(kind), memo_pair(kind, fifo=True)
        for prompt, config in memo_cases():
            got = decode_with_end_state(*tables, prompt, config)
            assert got == decode_with_end_state(*memos, prompt, config), (config.strategy, config.reflect)


def eta_pair(kind, eta):
    """``memo_pair``'s models, whole spaces kept, at draft divergence ``eta``."""
    spec = ModelSpec(kind, MEMO_VOCAB, seed=3, order=2)
    base = build_model(spec, corpus=MEMO_CORPUS if kind == "ngram" else None)
    beta = 0.5 if kind == "table" else 0.0
    return base, pair_models(base, divergence_noise_model(spec), eta, beta, MEMO_VOCAB - 1)


class TestDraftDistributionTable:
    """A draft that keeps its q rows decodes exactly like the same draft
    behind an opaque ``Model`` wrapper, which computes every row from its
    logits as perfbench's ``TracedModel`` does."""

    @pytest.mark.parametrize("eta", [0.0, 0.4])
    @pytest.mark.parametrize("kind", ["table", "ngram"])
    def test_a_memo_draft_decodes_like_an_opaque_one(self, kind, eta):
        base, (target, draft) = eta_pair(kind, eta)
        assert (draft is base) == (eta == 0)  # at eta 0 the base itself drafts
        cases = memo_cases()
        prompt, config = cases[1]
        # The q memo follows the decode's temperature, and back.
        cases += [(prompt, replace(config, temperature=t)) for t in (0.0, 1.3, 0.8)]
        for prompt, config in cases:
            _, (opaque_target, opaque_draft) = eta_pair(kind, eta)
            opaque = CountingModel(opaque_draft)
            got = decode_with_end_state(target, draft, prompt, config)
            assert got == decode_with_end_state(opaque_target, opaque, prompt, config)
            assert opaque.calls > 0 and opaque._q_memo is None
            assert draft._q_memo.temperature == config.temperature and len(draft._q_memo) > 0


class TestNoiseModelKeepsNoRows:
    """A draft blend reads its secondary, the noise model, through its
    formula: decoding fills the base's logits memo and the draft's q memo,
    and leaves the noise model's memo empty."""

    def test_two_decodes_leave_the_secondary_empty(self):
        target, draft = reference_pair(MEMO_VOCAB, seed=5, order=2, beta=0.5, eta=0.3)
        template = ReflectiveTemplate(prompt_tokens=(MEMO_VOCAB - 1,), prefix_len=3)
        for strategy, seed in (("specsample", 1), ("typical", 2)):
            config = base_config(strategy=strategy, template=template, max_new_tokens=96, seed=seed)
            decode(target, draft, [4, 9, 30], config)
        noise = draft.secondary
        assert noise._memo == {}
        assert len(draft.primary._memo) > 0 and len(draft._q_memo) > 0


@st.composite
def reference_cases(draw):
    """A copy-backend target over a table base, its blended draft, a prompt
    and a config: any strategy, gamma 1-8, temperature 0 or above, alpha 0,
    1 or between, the reflective template (the probe ends in the marker, and
    the prefix may outrun the prompt) or the plain one, and a budget and an
    end-of-sequence token that can cut a step inside its accepted prefix."""
    vocab = draw(st.sampled_from([4, 7, 16, 64, 300]))
    token = st.integers(min_value=0, max_value=vocab - 1)
    models = dict(
        vocab=vocab,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        order=draw(st.integers(min_value=1, max_value=3)),
        beta=draw(st.sampled_from([0.0, 0.5, 1.0])),
        eta=draw(st.floats(min_value=0.0, max_value=1.0)),
    )
    template = ReflectiveTemplate(
        prompt_tokens=(*draw(st.lists(token, max_size=2)), vocab - 1),
        prefix_len=draw(st.integers(min_value=0, max_value=8)),
    )
    config = DecodeConfig(
        gamma=draw(st.integers(min_value=1, max_value=8)),
        alpha=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))),
        temperature=draw(st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=3.0))),
        strategy=draw(st.sampled_from(STRATEGIES)),
        epsilon=draw(st.floats(min_value=0.01, max_value=1.0)),
        delta=draw(st.floats(min_value=0.01, max_value=1.0)),
        template=template,
        reflect=draw(st.booleans()),
        entropy_source=draw(st.sampled_from(["original", "fused"])),
        exact_match_mode=draw(st.sampled_from(["sample", "greedy"])),
        max_new_tokens=draw(st.integers(min_value=1, max_value=24)),
        eos_token=draw(st.one_of(st.none(), token)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
    )
    prompt = draw(st.lists(token, min_size=1, max_size=4))
    return models, prompt, config


def reference_pair(vocab, seed, order, beta, eta):
    """A new (target, draft) pair: the copy backend (marker ``vocab - 1``)
    over a table base, and the base blended with an unrelated table."""
    base = TableModel(vocab, seed=seed, order=order)
    noise = TableModel(vocab, seed=seed + 1, order=order)
    return ReflectionAwareModel(base, vocab - 1, beta), BlendModel(base, noise, eta)


def reference_with_end_state(target, draft, prompt, config):
    """``reference_decode``'s tokens under ``config``, and the state its
    generator ended in."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    out, _ = reference_decode(
        target,
        draft,
        prompt,
        gamma=config.gamma,
        temperature=config.temperature,
        strategy=config.strategy,
        seed=config.seed,
        max_new_tokens=config.max_new_tokens,
        epsilon=config.epsilon,
        delta=config.delta,
        alpha=config.alpha,
        reflect=config.reflect,
        probe=config.template.prompt_tokens,
        prefix_len=config.template.prefix_len,
        entropy_source=config.entropy_source,
        exact_match_mode=config.exact_match_mode,
        eos_token=config.eos_token,
        rng=rng,
    )
    return out, rng.bit_generator.state


class TestReferenceDecode:
    """``decode`` against the from-scratch reference loop, which uses no
    session and computes every position from its full context."""

    @given(reference_cases())
    @settings(max_examples=150, deadline=None)
    def test_decode_matches_reference(self, case):
        models, prompt, config = case
        try:
            got = decode_with_end_state(*reference_pair(**models), prompt, config)
        except DegenerateResidualError:
            # At temperature 0, p and q are one-hots and a rejected token has
            # p = 0, so the residual is all of p.
            assert config.temperature > 0, "a temperature-0 draft left an empty residual"
            with pytest.raises(DegenerateResidualError):
                reference_with_end_state(*reference_pair(**models), prompt, config)
            return
        assert got == reference_with_end_state(*reference_pair(**models), prompt, config)

    def test_typical_entropy_sources_match_reference(self):
        # At this seed the entropy source changes the output, so the
        # reference must read the same source as the engine.
        outs = []
        for source in ("original", "fused"):
            config = base_config(strategy="typical", alpha=0.6, entropy_source=source, seed=3)
            got = decode_with_end_state(*copy_pair(), [1, 2, 3], config)
            assert got == reference_with_end_state(*copy_pair(), [1, 2, 3], config)
            outs.append(got[0])
        assert outs[0] != outs[1]


@st.composite
def greedy_cases(draw):
    """``reference_cases``' pair, prompt and config at temperature 0, with
    min(epsilon, delta) < 1: the reflective template (reflect on) or the
    plain one (reflect off), any alpha, gamma, budget and end-of-sequence
    token."""
    vocab = draw(st.sampled_from([4, 7, 16, 64]))
    token = st.integers(min_value=0, max_value=vocab - 1)
    models = dict(
        vocab=vocab,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        order=draw(st.integers(min_value=1, max_value=3)),
        beta=draw(st.sampled_from([0.0, 0.5, 1.0])),
        eta=draw(st.floats(min_value=0.0, max_value=1.0)),
    )
    reflect = draw(st.booleans())
    if reflect:
        template = ReflectiveTemplate(
            prompt_tokens=(*draw(st.lists(token, max_size=2)), vocab - 1),
            prefix_len=draw(st.integers(min_value=0, max_value=8)),
        )
    else:
        template = ReflectiveTemplate(text="${draft}", has_prefix=False, reflective=False)
    share = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    epsilon, delta = draw(share), draw(share)
    assume(min(epsilon, delta) < 1.0)
    config = DecodeConfig(
        gamma=draw(st.integers(min_value=1, max_value=8)),
        alpha=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))),
        temperature=0.0,
        epsilon=epsilon,
        delta=delta,
        template=template,
        reflect=reflect,
        entropy_source=draw(st.sampled_from(["original", "fused"])),
        exact_match_mode=draw(st.sampled_from(["sample", "greedy"])),
        max_new_tokens=draw(st.integers(min_value=1, max_value=24)),
        eos_token=draw(st.one_of(st.none(), token)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
    )
    prompt = draw(st.lists(token, min_size=1, max_size=4))
    return models, prompt, config


def greedy_run(target, draft, prompt, config):
    """A decode's tokens and per-step accept counts."""
    out, stats = decode(target, draft, prompt, config)
    return out, [step.accepted_n for step in stats.steps]


class TestTemperatureZeroLaws:
    """At temperature 0 every row is a one-hot, so a draft token is accepted
    exactly when it is the target's greedy pick, whatever the strategy."""

    @given(greedy_cases())
    @settings(max_examples=300, deadline=None)
    def test_exact_specsample_and_typical_agree_step_by_step(self, case):
        models, prompt, config = case
        pair = reference_pair(**models)
        strategies = ("exact", "specsample", "typical")
        runs = [greedy_run(*pair, prompt, replace(config, strategy=s)) for s in strategies]
        assert runs[0] == runs[1] == runs[2]

    @given(greedy_cases())
    @settings(max_examples=200, deadline=None)
    def test_at_alpha_zero_every_strategy_emits_the_greedy_text(self, case):
        models, prompt, config = case
        pair = reference_pair(**models)
        config = replace(config, alpha=0.0)
        greedy, _ = greedy_run(*pair, prompt, replace(config, strategy="vanilla"))
        for strategy in STRATEGIES:
            assert greedy_run(*pair, prompt, replace(config, strategy=strategy))[0] == greedy, strategy


class TestTraceTransparency:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("reflect", [True, False])
    def test_record_trace_changes_nothing_observable(self, strategy, reflect):
        target, draft = copy_pair()
        prompt = [1, 2, 3]
        runs = {}
        for traced in (False, True):
            config = base_config(
                strategy=strategy, reflect=reflect, max_new_tokens=40, record_trace=traced
            )
            end = decode_with_end_state(target, draft, prompt, config)
            _, stats = decode(target, draft, prompt, config)
            accounting = [
                (s.accepted_n, s.tokens_emitted, s.draft_forward_count, s.input_tokens_fed)
                for s in stats.steps
            ]
            runs[traced] = (end, accounting, stats.steps)
        assert runs[True][:2] == runs[False][:2]
        for step in runs[False][2]:
            assert (step.draft_tokens, step.original, step.result) == ((), None, None)
        output, fresh_target, emitted = runs[True][0][0], copy_pair()[0], 0
        for step in runs[True][2]:
            assert step.result.accepted_n == step.accepted_n
            if strategy == "vanilla":
                # An empty draft: one row of p_0's logits, and the bonus emitted.
                context = prompt + output[:emitted]
                assert step.draft_tokens == ()
                assert len(step.original) == 1
                assert np.array_equal(step.original[0], fresh_target.next_logits(context))
                assert step.result.bonus == output[emitted]
            else:
                assert len(step.draft_tokens) == len(step.original) - 1 == 4
            emitted += step.tokens_emitted


class TestValidation:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("eos", [-1, VOCAB, 999])
    def test_eos_token_outside_vocabulary(self, strategy, eos):
        target, draft = table_pair()
        config = base_config(strategy=strategy, eos_token=eos)
        with pytest.raises(InvalidConfigError, match=f"^eos_token {eos} outside vocabulary of size {VOCAB}$"):
            decode(target, draft, [1, 2, 3], config)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_prompt_token_that_is_not_an_integer_is_rejected(self, strategy):
        # int() would decode this prompt as [1, 2, 3].
        target, draft = table_pair()
        with pytest.raises(InvalidTokenError, match=r"^token 1\.9 is not an integer$"):
            decode(target, draft, [1.9, 2.7, 3.2], base_config(strategy=strategy))

    def test_a_probe_token_that_is_not_an_integer_is_rejected(self):
        target, draft = table_pair()
        template = ReflectiveTemplate(prompt_tokens=(MARKER - 0.5,), prefix_len=2)
        with pytest.raises(InvalidTokenError, match=r"^token 38\.5 is not an integer$"):
            decode(target, draft, [1, 2, 3], base_config(template=template))

    def test_numpy_integer_prompts_decode_like_int_prompts(self):
        want = decode(*table_pair(), [1, 2, 3], base_config())[0]
        assert decode(*table_pair(), np.array([1, 2, 3], dtype=np.uint8), base_config())[0] == want
        assert decode(*table_pair(), [np.int64(1), 2, np.int32(3)], base_config())[0] == want

    def test_vocab_mismatch(self):
        with pytest.raises(InvalidConfigError):
            decode(TableModel(8, seed=0), TableModel(16, seed=0), [1], base_config())

    def test_empty_prompt(self):
        model = TableModel(8, seed=0)
        with pytest.raises(InvalidConfigError):
            decode(model, model, [], base_config())

    def test_bad_config_values(self):
        with pytest.raises(InvalidConfigError):
            DecodeConfig(gamma=0)
        with pytest.raises(InvalidConfigError):
            DecodeConfig(alpha=2.0)
        with pytest.raises(InvalidConfigError):
            DecodeConfig(strategy="nope")
        with pytest.raises(InvalidConfigError):
            DecodeConfig(max_new_tokens=0)
        with pytest.raises(InvalidConfigError):
            DecodeConfig(entropy_source="bogus")
        with pytest.raises(InvalidConfigError, match="^unknown exact-match mode 'bogus'$"):
            DecodeConfig(exact_match_mode="bogus")

    @pytest.mark.parametrize("temperature, shown", [(-1, "-1"), (float("nan"), "nan")])
    def test_out_of_range_temperature_rejected_naming_it(self, temperature, shown):
        with pytest.raises(InvalidConfigError, match=f"^temperature must be >= 0, got {shown}$"):
            DecodeConfig(temperature=temperature)

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            (field, value, shown)
            for field in ("gamma", "max_new_tokens", "seed", "eos_token")
            for value, shown in [(1.5, r"1\.5"), ("3", "'3'"), (None, "None")]
            if (field, value) != ("eos_token", None)  # None: no end-of-sequence token
        ],
    )
    def test_an_integer_setting_that_is_not_an_integer_is_rejected_naming_it(self, field, value, shown):
        # Unchecked, gamma 1.5 fails inside numpy and eos_token 1.5 never
        # fires.
        with pytest.raises(InvalidConfigError, match=f"^{field} must be an integer, got {shown}$"):
            DecodeConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            (field, value, shown)
            for field in ("alpha", "temperature", "epsilon", "delta")
            for value, shown in [("0.3", "'0.3'"), (None, "None")]
        ],
    )
    def test_a_real_setting_that_is_no_number_is_rejected_naming_it(self, field, value, shown):
        with pytest.raises(InvalidConfigError, match=f"^{field} must be a real number, got {shown}$"):
            DecodeConfig(**{field: value})

    @pytest.mark.parametrize("field", ["reflect", "record_trace"])
    @pytest.mark.parametrize("value, shown", [("no", "'no'"), (1, "1"), (None, "None")])
    def test_a_flag_that_is_no_bool_is_rejected_naming_it(self, field, value, shown):
        # "no" is truthy: unchecked, reflect="no" decodes reflectively.
        with pytest.raises(InvalidConfigError, match=f"^{field} must be a bool, got {shown}$"):
            DecodeConfig(**{field: value})

    @pytest.mark.parametrize("strategy", ["exact", "specsample", "typical"])
    def test_numpy_reals_and_flags_decode_like_python_ones(self, strategy):
        # At a numpy temperature 0 the engine's greedy_match is a numpy bool.
        target, draft = table_pair()
        for temperature in (0.0, 0.8):
            plain = dict(alpha=0.3, temperature=temperature, epsilon=0.3, delta=0.2, reflect=True)
            as_numpy = {k: np.bool_(v) if type(v) is bool else np.float64(v) for k, v in plain.items()}
            want = decode(target, draft, [1, 2, 3], base_config(strategy=strategy, **plain))[0]
            got = decode(target, draft, [1, 2, 3], base_config(strategy=strategy, **as_numpy))[0]
            assert got == want

    def test_numpy_integer_settings_decode_like_ints(self):
        target, draft = table_pair()
        ints = dict(gamma=3, max_new_tokens=20, seed=4, eos_token=7)
        want = decode(target, draft, [1, 2, 3], base_config(**ints))[0]
        numpy_ints = {name: np.int64(value) for name, value in ints.items()}
        assert decode(target, draft, [1, 2, 3], base_config(**numpy_ints))[0] == want

    def test_reflection_needs_a_reflective_template(self):
        # Reflection with a plain template would feed the draft twice, 2
        # gamma positions a step, and decode other tokens than reflect=False.
        plain = resolve_template("${draft}", IntTokenizer(16))
        with pytest.raises(
            InvalidConfigError,
            match=r"^reflect=True needs a reflective template, got the plain '\$\{draft\}'$",
        ):
            DecodeConfig(template=plain)
        model = TableModel(16, seed=1)
        out, stats = decode(model, model, [1, 2, 3], DecodeConfig(template=plain, reflect=False))
        assert {step.input_tokens_fed for step in stats.steps} == {5}
        # The other direction stays valid: a reflective template, reflection off.
        reflective = ReflectiveTemplate((15,), 2)
        assert decode(model, model, [1, 2, 3], DecodeConfig(template=reflective, reflect=False))[0] == out

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidConfigError, match="^seed must be >= 0, got -1$"):
            DecodeConfig(seed=-1)
