"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.
"""

import time

import numpy as np

from reference_impl import reference_decode
from fixtures import make_divergence_pair

from reflectspec.bench import mean_accepted_tokens, write_decode_stats
from reflectspec.drafting import DraftBundle
from reflectspec.engine import DecodeConfig, decode
from reflectspec.models import (
    ModelSession,
    ModelSpec,
    NgramModel,
    ReflectionAwareModel,
)
from reflectspec.reflective import ReflectiveTemplate, build_reflective_input
from reflectspec.tokens import derive_seed, make_rng, one_hot, sample
from reflectspec.verification import (
    exact_step_distribution,
    typical_threshold,
    verify_speculative_sampling,
)

VOCAB = 48
MARKER = VOCAB - 1
TEMPLATE = ReflectiveTemplate(prompt_tokens=(MARKER,), prefix_len=4)


def rand_dist(rng, size):
    raw = rng.random(size) + 1e-6
    return raw / raw.sum()


def seeded_prompts(tag, count, length=5, vocab=VOCAB):
    rng = make_rng(derive_seed("acceptance-prompts", tag))
    return [[int(t) for t in rng.integers(0, vocab, size=length)] for _ in range(count)]


def mean_mat(target, draft, prompts, seed_tag, **config_kw):
    mats = []
    for i, prompt in enumerate(prompts):
        config = DecodeConfig(seed=derive_seed(seed_tag, "run", i), **config_kw)
        _, stats = decode(target, draft, prompt, config)
        mats.append(mean_accepted_tokens(stats))
    return float(np.mean(mats))


def test_c1_unbiasedness_oracle():
    """1000 seeded (p, q) pairs over vocab 2..8: output law equals p, 1e-12."""
    rng = make_rng(20240601)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        size = 2 + (i % 7)
        p = rand_dist(rng, size)
        q = rand_dist(rng, size)
        out = exact_step_distribution(p, q)
        worst = max(worst, float(np.max(np.abs(out - p))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"max deviation {worst}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    print(f"\n[PASS] criterion 1: unbiasedness, max err {worst:.2e} in {elapsed:.2f}s")


def test_c2_baseline_reduction(tmp_path):
    """Alpha 0 pipeline == reference speculative run: tokens, accepted_n,
    and byte-identical stats files, for 20 prompts x 3 strategies."""
    target, draft = make_divergence_pair(ModelSpec("table", VOCAB, seed=11, order=2), 0.3)
    prompts = seeded_prompts("baseline", 20)
    for strategy in ("specsample", "exact", "typical"):
        for i, prompt in enumerate(prompts):
            seed = derive_seed("baseline-run", strategy, i)
            kw = dict(
                gamma=4,
                alpha=0.0,
                temperature=0.8,
                strategy=strategy,
                template=TEMPLATE,
                max_new_tokens=24,
                seed=seed,
            )
            out_r, stats_r = decode(target, draft, prompt, DecodeConfig(reflect=True, **kw))
            out_p, stats_p = decode(target, draft, prompt, DecodeConfig(reflect=False, **kw))
            assert out_r == out_p, (strategy, i)
            assert [s.accepted_n for s in stats_r.steps] == [
                s.accepted_n for s in stats_p.steps
            ], (strategy, i)
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
            assert out_p == ref_out, (strategy, i)
            assert [s.accepted_n for s in stats_p.steps] == ref_ns, (strategy, i)
            file_r = write_decode_stats(stats_r, tmp_path / f"r_{strategy}_{i}.json")
            file_p = write_decode_stats(stats_p, tmp_path / f"p_{strategy}_{i}.json")
            assert file_r.read_bytes() == file_p.read_bytes(), (strategy, i)
    print("\n[PASS] criterion 2: baseline reduction, 20 prompts x 3 strategies byte-identical")


def test_c3_layout_shift_correctness():
    """500 random (gamma, template, prefix) shapes plus the 5+3+4+5 case."""
    rng = make_rng(777)
    for _ in range(500):
        gamma = int(rng.integers(1, 11))
        prompt_len = int(rng.integers(0, 13))
        prefix_len = int(rng.integers(0, 7))
        committed = [int(t) for t in rng.integers(0, VOCAB, size=int(rng.integers(1, 24)))]
        draft_tokens = tuple(int(t) for t in rng.integers(0, VOCAB, size=gamma))
        bundle = DraftBundle(draft_tokens, tuple(one_hot(t, VOCAB) for t in draft_tokens))
        template = ReflectiveTemplate(
            prompt_tokens=tuple(int(t) for t in rng.integers(0, VOCAB, size=prompt_len)),
            prefix_len=prefix_len,
        )
        layout = build_reflective_input(bundle, template, committed)
        for i in range(gamma):
            assert layout.full_sequence[i] == layout.full_sequence[i + layout.shift_len]
        assert len(layout.full_sequence) == layout.shift_len + gamma
    bundle = DraftBundle(tuple(range(5)), tuple(one_hot(t, VOCAB) for t in range(5)))
    layout = build_reflective_input(
        bundle, ReflectiveTemplate((40, 41, 42), 4), list(range(10, 20))
    )
    assert len(layout.full_sequence) == 17
    print("\n[PASS] criterion 3: layout/shift invariants, 500 shapes + 5+3+4+5 = 17")


def test_c4_vanilla_and_forced_mat():
    """Vanilla AR reports exactly 1.00; identical-models greedy exact match
    with gamma=4 reports exactly 5.00 when no final step is truncated."""
    target, draft = make_divergence_pair(ModelSpec("table", VOCAB, seed=3, order=2), 0.3)
    _, stats = decode(
        target,
        draft,
        [1, 2, 3],
        DecodeConfig(strategy="vanilla", max_new_tokens=40, seed=9, template=TEMPLATE),
    )
    assert mean_accepted_tokens(stats) == 1.0

    model, _ = make_divergence_pair(ModelSpec("table", VOCAB, seed=5, order=2), 0.0)
    _, stats2 = decode(
        model,
        model,
        [1, 2, 3],
        DecodeConfig(
            gamma=4,
            alpha=0.0,
            temperature=0.0,
            strategy="exact",
            template=TEMPLATE,
            max_new_tokens=40,
            seed=1,
        ),
    )
    assert all(s.tokens_emitted == 5 for s in stats2.steps)
    assert mean_accepted_tokens(stats2) == 5.0
    print("\n[PASS] criterion 4: vanilla mat 1.00 exact, forced greedy mat 5.00 exact")


def test_c5_cache_prune_contract():
    """Fresh-session replay of committed tokens reproduces every step's
    original-segment logits within 1e-12: 50 steps per backend."""
    rng = make_rng(31)
    docs = [[int(t) for t in rng.integers(0, VOCAB, size=60)] for _ in range(5)]
    table_target, table_draft = make_divergence_pair(
        ModelSpec("table", VOCAB, seed=21, order=2), 0.4
    )
    backends = {
        "table": (table_target, table_draft),
        "ngram": (
            NgramModel(docs, VOCAB, order=2, smoothing=0.5),
            NgramModel(docs, VOCAB, order=1, smoothing=0.5),
        ),
        "reflection-aware": (
            ReflectionAwareModel(table_target, MARKER, 0.5),
            table_draft,
        ),
    }
    for name, (target, draft) in backends.items():
        steps_checked = 0
        prompt_rng = make_rng(derive_seed("prune", name))
        run = 0
        while steps_checked < 50:
            prompt = [int(t) for t in prompt_rng.integers(0, VOCAB, size=4)]
            config = DecodeConfig(
                gamma=4,
                alpha=0.3,
                temperature=0.8,
                strategy="specsample",
                template=TEMPLATE,
                max_new_tokens=24,
                seed=derive_seed("prune-run", name, run),
                record_trace=True,
            )
            out, stats = decode(target, draft, prompt, config)
            emitted = 0
            for step in stats.steps:
                fresh = ModelSession(target)
                fresh.forward(prompt + out[:emitted])
                diff = float(np.max(np.abs(fresh.last_logits - step.original[0])))
                assert diff <= 1e-12, (name, diff)
                regrown = fresh.forward(list(step.draft_tokens))
                for got, want in zip(step.original[1:], regrown):
                    assert float(np.max(np.abs(got - want))) <= 1e-12, name
                emitted += step.tokens_emitted
                steps_checked += 1
                if steps_checked >= 50:
                    break
            run += 1
    print("\n[PASS] criterion 5: cache-prune replay equivalence, 50 steps x 3 backends")


def test_c6_typical_threshold_law():
    """200 random distributions x (eps, delta) grid: threshold law at 1e-12."""
    rng = make_rng(61)
    import math

    worst = 0.0
    for _ in range(200):
        size = int(rng.integers(2, 17))
        dist = rand_dist(rng, size)
        h = -sum(float(x) * math.log(float(x)) for x in dist if x > 0)
        for eps in (0.3, 0.6):
            for delta in (0.05, 0.2):
                got = typical_threshold(dist, eps, delta)
                want = min(eps, delta * math.exp(-h))
                worst = max(worst, abs(got - want))
                assert got <= eps
    assert worst <= 1e-12
    print(f"\n[PASS] criterion 6: typical threshold law, max err {worst:.2e}")


def test_c7_mechanism_direction():
    """Reflective fusion must lift mean accepted tokens: alpha 0.3 beats
    alpha 0 by at least 0.1 on the copy-aware backend, within 60s."""
    start = time.perf_counter()
    spec = ModelSpec("table", VOCAB, seed=11, order=2)
    base_target, draft = make_divergence_pair(spec, 0.4)
    target = ReflectionAwareModel(base_target, MARKER, 0.5)
    prompts = seeded_prompts("mechanism", 50)
    kw = dict(
        gamma=5,
        temperature=0.8,
        strategy="specsample",
        template=TEMPLATE,
        max_new_tokens=32,
    )
    mat_base = mean_mat(target, draft, prompts, "mechanism-a0", alpha=0.0, **kw)
    mat_reflect = mean_mat(target, draft, prompts, "mechanism-a3", alpha=0.3, **kw)
    elapsed = time.perf_counter() - start
    assert mat_reflect > mat_base + 0.1, (mat_base, mat_reflect)
    assert elapsed < 60.0
    print(
        f"\n[PASS] criterion 7: mechanism direction, mat {mat_base:.3f} -> "
        f"{mat_reflect:.3f} in {elapsed:.1f}s"
    )


def test_c8_draft_quality_monotonicity():
    """Mean accepted tokens non-increasing in draft noise, per seed."""
    spec = ModelSpec("table", VOCAB, seed=11, order=2)
    results = {}
    for seed in (101, 202, 303):
        prompts = seeded_prompts(("quality", seed), 20)
        mats = []
        for eta in (0.0, 0.25, 0.5, 1.0):
            base_target, draft = make_divergence_pair(spec, eta)
            target = ReflectionAwareModel(base_target, MARKER, 0.5)
            mats.append(
                mean_mat(
                    target,
                    draft,
                    prompts,
                    ("quality-run", seed, eta),
                    gamma=4,
                    alpha=0.3,
                    temperature=0.8,
                    strategy="specsample",
                    template=TEMPLATE,
                    max_new_tokens=24,
                )
            )
        assert all(a >= b for a, b in zip(mats, mats[1:])), (seed, mats)
        results[seed] = [round(m, 3) for m in mats]
    print(f"\n[PASS] criterion 8: draft-quality monotonicity per seed: {results}")


def test_c9_residual_sampler_equivalence():
    """100k seeded samples at gamma=1 land within total variation 0.01 of p."""
    pairs = [
        (np.array([0.4, 0.3, 0.2, 0.1]), np.array([0.1, 0.2, 0.3, 0.4])),
        (np.array([0.7, 0.1, 0.1, 0.1]), np.array([0.25, 0.25, 0.25, 0.25])),
        (np.array([0.25, 0.25, 0.25, 0.25]), np.array([0.97, 0.01, 0.01, 0.01])),
        (np.array([0.05, 0.05, 0.45, 0.45]), np.array([0.45, 0.45, 0.05, 0.05])),
        (np.array([0.5, 0.2, 0.2, 0.1]), np.array([0.5, 0.2, 0.2, 0.1])),
    ]
    worst = 0.0
    for k, (p, q) in enumerate(pairs):
        rng = make_rng(derive_seed("residual-sampler", k))
        counts = np.zeros(4)
        trials = 100_000
        for _ in range(trials):
            x = sample(q, rng)
            res = verify_speculative_sampling([p, p], [q], [x], rng)
            counts[x if res.accepted_n == 1 else res.bonus] += 1
        tv = 0.5 * float(np.abs(counts / trials - p).sum())
        worst = max(worst, tv)
        assert tv <= 0.01, (k, tv)
    print(f"\n[PASS] criterion 9: residual sampler equivalence, worst TV {worst:.4f}")
