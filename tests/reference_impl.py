"""Independent reference implementations, computed from scratch.

``reference_decode`` is the whole draft-then-verify loop written directly
against ``Model.next_logits``: no session and no cache, every logit vector
computed from its full context. It covers plain and reflective decodes (the
probe, the prefix replay and alpha fusion through ``ref_fuse``), all four
strategies, exact match in both modes, both typical entropy sources and an
end-of-sequence token. It is the oracle for the engine: under the same seed
``decode`` must reproduce its tokens and leave its generator in the same
state.

RNG discipline mirrors the package contract: PCG64 streams, inverse-CDF
categorical draws consuming one uniform each, gamma per-position uniforms in
exact-match and ratio-test verification plus one bonus draw, and a single
bonus draw for typical verification. Greedy exact match draws nothing.

``ref_generate_draft`` is the one exception to sharing no code: it is the
per-token draft loop on the package's own validating kernels, kept as the
oracle for the one-pass loop in ``reflectspec.drafting``.

``ref_verify_exact_match``, ``ref_verify_speculative_sampling`` and
``ref_verify_typical`` are the three verifiers computed row by row with
inline kernels, each categorical draw one ``ref_sample``. They return the
package's ``VerificationResult`` and raise its ``DegenerateResidualError``,
so the block verifiers can be compared with them field for field.

``ref_table_logits`` is ``TableModel``'s formula written out on its own:
the window's integer seed, hashed byte for byte, seeds ``PCG64``.
"""

import hashlib

import numpy as np

from reflectspec.errors import DegenerateResidualError
from reflectspec.tokens import sample, sampling_distribution
from reflectspec.verification import VerificationResult


def ref_softmax(values, temperature):
    if temperature == 0:
        out = np.zeros(len(values))
        out[int(np.argmax(values))] = 1.0
        return out
    scaled = np.asarray(values, dtype=np.float64) / float(temperature)
    scaled -= scaled.max()
    exp = np.exp(scaled)
    return exp / exp.sum()


def ref_fuse(original, reflective, alpha, temperature):
    """Fused sampling distributions, one position at a time."""
    return [
        ref_softmax(
            (1.0 - alpha) * np.asarray(o, dtype=np.float64)
            + alpha * np.asarray(r, dtype=np.float64),
            temperature,
        )
        for o, r in zip(original, reflective)
    ]


def ref_sample(dist, rng):
    return ref_pick(dist, rng.random())


def ref_pick(dist, u):
    """The token ``u`` selects from ``dist`` by inverse CDF."""
    cdf = np.cumsum(dist)
    idx = int(np.searchsorted(cdf, u, side="right"))
    if idx >= len(dist):
        idx = int(np.nonzero(dist)[0][-1])
    return idx


def reference_decode(
    target,
    draft,
    prompt,
    *,
    gamma,
    temperature,
    strategy,
    seed,
    max_new_tokens,
    epsilon=0.3,
    delta=0.2,
    alpha=0.0,
    reflect=False,
    probe=(),
    prefix_len=0,
    entropy_source="original",
    exact_match_mode="sample",
    eos_token=None,
    rng=None,
):
    """Speculative (or, for "vanilla", plain) decoding from scratch; returns
    (tokens, per-step accepted counts).

    With ``reflect`` each step reads the original logits of the draft and
    the reflective logits at its mirror in ``ref_layout``'s second copy, and
    verifies against their ``ref_fuse``; without it, against the softmax of
    the original logits. Emission stops at ``max_new_tokens`` or just after
    the first ``eos_token``. Draws come from ``rng`` when given, so a caller
    can read the state it ends in, else from a PCG64 stream of ``seed``.
    """
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))
    committed = list(prompt)
    emitted = []
    accepted_ns = []
    while len(emitted) < max_new_tokens:
        if strategy == "vanilla":
            p = ref_softmax(target.next_logits(committed), temperature)
            n, step_tokens = 0, [ref_sample(p, rng)]
        else:
            draft_tokens = []
            q_dists = []
            for _ in range(gamma):
                q = ref_softmax(draft.next_logits(committed + draft_tokens), temperature)
                q_dists.append(q)
                draft_tokens.append(ref_sample(q, rng))
            original = [
                target.next_logits(committed + draft_tokens[:i]) for i in range(gamma + 1)
            ]
            original_dists = [ref_softmax(o, temperature) for o in original]
            if reflect:
                sequence, spans = ref_layout(draft_tokens, probe, prefix_len, committed)
                mirror = spans["draft2"][0]
                reflective = [
                    target.next_logits(committed + list(sequence[: mirror + i]))
                    for i in range(gamma + 1)
                ]
                p_dists = ref_fuse(original, reflective, alpha, temperature)
            else:
                p_dists = original_dists
            if strategy == "exact":
                greedy = exact_match_mode == "greedy" or temperature == 0
                result = ref_verify_exact_match(p_dists, draft_tokens, rng, greedy_match=greedy)
            elif strategy == "specsample":
                result = ref_verify_speculative_sampling(p_dists, q_dists, draft_tokens, rng)
            elif strategy == "typical":
                entropy_dists = original_dists if entropy_source == "original" else p_dists
                result = ref_verify_typical(
                    p_dists, entropy_dists, draft_tokens, epsilon, delta, rng
                )
            else:
                raise ValueError(strategy)
            n = result.accepted_n
            step_tokens = draft_tokens[:n] + [result.bonus]
        kept = step_tokens[: max_new_tokens - len(emitted)]
        hit_eos = eos_token is not None and eos_token in kept
        if hit_eos:
            kept = kept[: kept.index(eos_token) + 1]
        emitted.extend(kept)
        committed.extend(kept)
        accepted_ns.append(n)
        if hit_eos or len(kept) < len(step_tokens):
            break
    return emitted, accepted_ns


def ref_copy_target(context, marker):
    """Copy target of ``ReflectionAwareModel``, by a plain scan.

    Finds the last marker, then the latest start before it whose window
    equals the post-marker tail and whose continuation exists and is not the
    marker; returns that continuation, or None.
    """
    ctx = list(context)
    marker_idx = -1
    for i in range(len(ctx) - 1, -1, -1):
        if ctx[i] == marker:
            marker_idx = i
            break
    if marker_idx < 0:
        return None
    tail = ctx[marker_idx + 1 :]
    if not tail:
        return None
    n = len(tail)
    for start in range(marker_idx - n - 1, -1, -1):
        if ctx[start : start + n] == tail:
            nxt = ctx[start + n]
            if nxt != marker:
                return nxt
    return None


def ref_window_seed(seed, window):
    """A ``TableModel`` window's integer seed: a blake2b hash of the signed
    64-bit seed and each token as 8 little-endian bytes."""
    data = seed.to_bytes(8, "little", signed=True)
    data += b"".join(int(t).to_bytes(8, "little") for t in window)
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def ref_table_logits(seed, window, vocab):
    """Logits of a ``TableModel`` with ``seed`` after ``window``: the window
    seed seeds ``PCG64``, which draws ``vocab`` uniforms in [-4, 4)."""
    window_seed = ref_window_seed(seed, window)
    return np.random.Generator(np.random.PCG64(window_seed)).uniform(-4.0, 4.0, size=vocab)


def ref_ngram_counts(corpus, order):
    """Context and (context, token) counts of ``NgramModel``, by a plain loop.

    ``corpus`` is a list of documents (empty ones skipped). Every token is
    counted after each of its trailing contexts of length 0 to ``order`` that
    lie inside its document.
    """
    docs = [[int(t) for t in doc] for doc in corpus if len(doc) > 0]
    pair_counts = {}
    ctx_counts = {}
    for doc in docs:
        for i, tok in enumerate(doc):
            for length in range(min(order, i) + 1):
                ctx = tuple(doc[i - length : i])
                pair_counts.setdefault(ctx, {})
                pair_counts[ctx][tok] = pair_counts[ctx].get(tok, 0) + 1
                ctx_counts[ctx] = ctx_counts.get(ctx, 0) + 1
    return pair_counts, ctx_counts


def ref_ngram_logits(pair_counts, ctx_counts, context, vocab_size, order, smoothing):
    """Smoothed log-probabilities after ``context``: dense counts, one log."""
    length = min(order, len(context))
    ctx = tuple(int(t) for t in context[len(context) - length :])
    counts = np.zeros(vocab_size, dtype=np.float64)
    for tok, c in pair_counts.get(ctx, {}).items():
        counts[tok] = c
    total = ctx_counts.get(ctx, 0)
    return np.log((counts + smoothing) / (total + smoothing * vocab_size))


def ref_generate_draft(session, gamma, temperature, rng):
    """The per-token draft loop, with a rollback: (tokens, q rows).

    Each token is drawn by the package's validating ``sample``, one
    ``rng.random()`` at a time, and the session is truncated back to the
    committed prefix before returning. ``generate_draft`` must agree with it
    on tokens, rows and generator state.
    """
    base_len = len(session)
    tokens, dists = [], []
    for i in range(gamma):
        q = sampling_distribution(session.last_logits, temperature)
        tok = sample(q, rng)
        tokens.append(tok)
        dists.append(q)
        if i < gamma - 1:
            session.forward([tok])
    session.truncate(base_len)
    return tokens, dists


def ref_layout(draft, probe, prefix_len, committed):
    """The two-copy layout, one segment at a time: (sequence, spans).

    The segments are the draft, the probe, the last ``prefix_len`` committed
    tokens (all of them when fewer are committed) and the draft again.
    ``spans`` maps "draft1", "probe", "prefix" and "draft2" to (start, stop)
    half-open spans into the sequence.
    """
    committed = [int(t) for t in committed]
    prefix = committed[len(committed) - min(prefix_len, len(committed)) :]
    sequence = []
    spans = {}
    segments = (("draft1", draft), ("probe", probe), ("prefix", prefix), ("draft2", draft))
    for name, segment in segments:
        start = len(sequence)
        sequence.extend(int(t) for t in segment)
        spans[name] = (start, len(sequence))
    return tuple(sequence), spans


def _leading_accepts(flags):
    return next((i for i, flag in enumerate(flags) if not flag), len(flags))


def ref_verify_exact_match(p_dists, draft_tokens, rng, greedy_match=False):
    """Exact match, row by row: a ``ref_sample`` (or argmax) per draft
    position, then one more from the row of the first mismatch."""
    gamma = len(draft_tokens)
    if greedy_match:
        resampled = [int(np.argmax(p_dists[i])) for i in range(gamma)]
    else:
        resampled = [ref_sample(p_dists[i], rng) for i in range(gamma)]
    flags = tuple(resampled[i] == draft_tokens[i] for i in range(gamma))
    n = _leading_accepts(flags)
    bonus = int(np.argmax(p_dists[n])) if greedy_match else ref_sample(p_dists[n], rng)
    return VerificationResult(bonus, flags, {"resampled": resampled})


def ref_verify_speculative_sampling(p_dists, q_dists, draft_tokens, rng):
    """The ratio test, row by row, with the bonus from the residual
    norm(max(0, p_n - q_n)) at the first rejection n. The bonus uniform is
    drawn with the others, before the residual can raise."""
    gamma = len(draft_tokens)
    draws = rng.random(gamma).tolist()
    bonus_u = rng.random()
    ratios = [
        min(1.0, float(p_dists[i][tok]) / float(q_dists[i][tok]))
        for i, tok in enumerate(draft_tokens)
    ]
    flags = [draw <= ratio for draw, ratio in zip(draws, ratios)]
    n = _leading_accepts(flags)
    if n < gamma:
        residual = np.maximum(np.asarray(p_dists[n]) - np.asarray(q_dists[n]), 0.0)
        mass = float(residual.sum())
        if mass < 1e-12:
            raise DegenerateResidualError(
                "residual distribution has no mass; p and q coincide where a rejection occurred"
            )
        bonus_dist = residual / mass
    else:
        bonus_dist = p_dists[gamma]
    bonus = ref_pick(bonus_dist, bonus_u)
    return VerificationResult(bonus, tuple(flags), {"ratios": ratios, "draws": draws})


def ref_verify_typical(p_dists, entropy_dists, draft_tokens, epsilon, delta, rng):
    """Typical acceptance, row by row: p_i(x_i) against
    min(epsilon, delta * exp(-H_i)), each H_i summed over its own nonzero
    entries as one array."""
    thresholds = []
    for i in range(len(draft_tokens)):
        h = np.asarray(entropy_dists[i], dtype=np.float64)
        nz = h[h > 0.0]
        entropy = float(-(nz * np.log(nz)).sum())
        thresholds.append(min(epsilon, delta * float(np.exp(-entropy))))
    flags = tuple(
        float(p_dists[i][tok]) > thresholds[i] for i, tok in enumerate(draft_tokens)
    )
    bonus = ref_sample(p_dists[_leading_accepts(flags)], rng)
    return VerificationResult(bonus, flags, {"thresholds": thresholds})
