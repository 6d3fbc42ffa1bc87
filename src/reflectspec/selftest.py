"""Built-in oracle suite, runnable without a test framework.

These checks re-derive the package's core guarantees from first principles:
the enumeration proof that speculative sampling is unbiased, the residual
distribution identities, the entropy-threshold law, and the two-copy layout
arithmetic. The CLI exposes them as the ``selftest`` subcommand and exits
nonzero if any check fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .drafting import DraftBundle
from .errors import DegenerateResidualError
from .reflective import ReflectiveTemplate, build_reflective_input
from .tokens import make_rng, one_hot
from .verification import (
    exact_step_distribution,
    residual_distribution,
    typical_threshold,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_distribution(rng: np.random.Generator, size: int) -> np.ndarray:
    raw = rng.random(size) + 1e-6
    return raw / raw.sum()


def check_unbiasedness(pairs: int = 1000, seed: int = 20240601) -> CheckResult:
    """exact_step_distribution(p, q) must equal p for random pairs."""
    rng = make_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    for i in range(pairs):
        size = 2 + (i % 7)  # vocab sizes 2 through 8
        p = _random_distribution(rng, size)
        q = _random_distribution(rng, size)
        err = float(np.max(np.abs(exact_step_distribution(p, q) - p)))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    return CheckResult(
        "unbiasedness", ok, f"{pairs} pairs, max error {worst:.3e}, {elapsed:.2f}s"
    )


def check_residual(seed: int = 7) -> CheckResult:
    """Hand cases plus structural properties of norm(max(0, p - q))."""
    cases = [
        ([0.5, 0.5], [1.0, 0.0], [0.0, 1.0]),
        ([0.6, 0.4], [0.2, 0.8], [1.0, 0.0]),
        ([0.5, 0.3, 0.2], [0.1, 0.5, 0.4], [1.0, 0.0, 0.0]),
    ]
    for p, q, want in cases:
        got = residual_distribution(np.array(p), np.array(q))
        if float(np.max(np.abs(got - np.array(want)))) > 1e-12:
            return CheckResult("residual", False, f"hand case {p} vs {q} gave {got}")
    rng = make_rng(seed)
    for _ in range(200):
        size = int(rng.integers(2, 9))
        p = _random_distribution(rng, size)
        q = _random_distribution(rng, size)
        if np.allclose(p, q):
            continue
        r = residual_distribution(p, q)
        if abs(r.sum() - 1.0) > 1e-12 or np.any(r[p <= q] != 0.0):
            return CheckResult("residual", False, "random case broke normalization/support")
    try:
        residual_distribution(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        return CheckResult("residual", False, "degenerate residual did not raise")
    except DegenerateResidualError:
        pass
    return CheckResult("residual", True, "3 hand cases, 200 random cases, degenerate raise")


def check_typical_thresholds(count: int = 200, seed: int = 11) -> CheckResult:
    """Thresholds must equal min(eps, delta*exp(-H)) and never exceed eps."""
    rng = make_rng(seed)
    grid = [(e, d) for e in (0.3, 0.6) for d in (0.05, 0.2)]
    worst = 0.0
    for _ in range(count):
        size = int(rng.integers(2, 17))
        dist = _random_distribution(rng, size)
        h = -sum(x * math.log(x) for x in dist if x > 0)  # independent entropy
        for eps, delta in grid:
            got = typical_threshold(dist, eps, delta)
            want = min(eps, delta * math.exp(-h))
            worst = max(worst, abs(got - want))
            if got > eps or got > delta or got <= 0:
                return CheckResult("typical-thresholds", False, f"threshold {got} out of range")
    ok = worst <= 1e-12
    return CheckResult(
        "typical-thresholds", ok, f"{count} distributions x {len(grid)} configs, max err {worst:.3e}"
    )


def check_layout(cases: int = 500, seed: int = 23) -> CheckResult:
    """Two-copy layout invariants over random shapes, plus the 5+3+4+5 case."""
    rng = make_rng(seed)
    vocab = 32
    for _ in range(cases):
        gamma = int(rng.integers(1, 11))
        prompt_len = int(rng.integers(0, 13))
        prefix_len = int(rng.integers(0, 7))
        committed = [int(t) for t in rng.integers(0, vocab, size=rng.integers(1, 20))]
        draft_tokens = tuple(int(t) for t in rng.integers(0, vocab, size=gamma))
        bundle = DraftBundle(draft_tokens, tuple(one_hot(t, vocab) for t in draft_tokens))
        template = ReflectiveTemplate(
            prompt_tokens=tuple(int(t) for t in rng.integers(0, vocab, size=prompt_len)),
            prefix_len=prefix_len,
        )
        layout = build_reflective_input(bundle, template, committed)
        seq = layout.full_sequence
        actual_prefix = min(prefix_len, len(committed))
        if layout.shift_len != gamma + prompt_len + actual_prefix:
            return CheckResult("layout", False, "shift_len mismatch")
        if len(seq) != layout.shift_len + gamma:
            return CheckResult("layout", False, "budget != sequence length")
        for i in range(gamma):
            if seq[i] != seq[i + layout.shift_len]:
                return CheckResult("layout", False, "draft copies differ")
    # 5-token draft, 3-token probe, 4-token prefix: budget must be 17.
    bundle = DraftBundle(tuple(range(5)), tuple(one_hot(t, vocab) for t in range(5)))
    template = ReflectiveTemplate(prompt_tokens=(20, 21, 22), prefix_len=4)
    layout = build_reflective_input(bundle, template, [10, 11, 12, 13, 14, 15])
    if len(layout.full_sequence) != 17:
        return CheckResult("layout", False, f"5+3+4+5 budget was {len(layout.full_sequence)}")
    return CheckResult("layout", True, f"{cases} random shapes plus the 5+3+4+5 = 17 case")


def run_all() -> list[CheckResult]:
    return [
        check_unbiasedness(),
        check_residual(),
        check_typical_thresholds(),
        check_layout(),
    ]
