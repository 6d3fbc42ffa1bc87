"""Independent reference decoder: plain draft-then-verify, no reflection.

Written directly against ``Model.next_logits`` with its own inline kernels,
deliberately sharing no code with the engine module. Used as the oracle for
the baseline-reduction checks: with fusion weight 0 the full pipeline must
reproduce this loop token for token under the same seed.

RNG discipline mirrors the package contract: PCG64 streams, inverse-CDF
categorical draws consuming one uniform each, gamma per-position uniforms in
exact-match and ratio-test verification plus one bonus draw, and a single
bonus draw for typical verification.
"""

import math

import numpy as np


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
    u = rng.random()
    cdf = np.cumsum(dist)
    idx = int(np.searchsorted(cdf, u, side="right"))
    if idx >= len(dist):
        idx = int(np.nonzero(dist)[0][-1])
    return idx


def ref_entropy(dist):
    return -sum(float(p) * math.log(float(p)) for p in dist if p > 0)


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
):
    """Plain speculative decoding; returns (tokens, per-step accepted counts)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    committed = list(prompt)
    emitted = []
    accepted_ns = []
    while len(emitted) < max_new_tokens:
        draft_tokens = []
        q_dists = []
        for i in range(gamma):
            q = ref_softmax(draft.next_logits(committed + draft_tokens), temperature)
            tok = ref_sample(q, rng)
            q_dists.append(q)
            draft_tokens.append(tok)
        p_dists = [
            ref_softmax(target.next_logits(committed + draft_tokens[:i]), temperature)
            for i in range(gamma + 1)
        ]
        if strategy == "specsample":
            draws = [rng.random() for _ in range(gamma)]
            n = gamma
            for i in range(gamma):
                ratio = min(1.0, p_dists[i][draft_tokens[i]] / q_dists[i][draft_tokens[i]])
                if draws[i] > ratio:
                    n = i
                    break
            if n < gamma:
                residual = np.maximum(p_dists[n] - q_dists[n], 0.0)
                bonus_dist = residual / residual.sum()
            else:
                bonus_dist = p_dists[gamma]
            bonus = ref_sample(bonus_dist, rng)
        elif strategy == "exact":
            resampled = [ref_sample(p_dists[i], rng) for i in range(gamma)]
            n = gamma
            for i in range(gamma):
                if resampled[i] != draft_tokens[i]:
                    n = i
                    break
            bonus = ref_sample(p_dists[n], rng)
        elif strategy == "typical":
            n = gamma
            for i in range(gamma):
                threshold = min(epsilon, delta * math.exp(-ref_entropy(p_dists[i])))
                if not p_dists[i][draft_tokens[i]] > threshold:
                    n = i
                    break
            bonus = ref_sample(p_dists[n], rng)
        else:
            raise ValueError(strategy)
        step_tokens = draft_tokens[:n] + [bonus]
        budget = max_new_tokens - len(emitted)
        step_tokens = step_tokens[:budget]
        emitted.extend(step_tokens)
        committed.extend(step_tokens)
        accepted_ns.append(n)
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
