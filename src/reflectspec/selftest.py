"""Built-in oracle suite, runnable without a test framework.

Four checks re-derive laws no decode checks as it runs: the enumeration
proof that a speculative-sampling step is unbiased, the residual identities,
the entropy-threshold law, and the exact law of a whole speculative decode,
which must equal the target's autoregressive law. The CLI exposes them as
the ``selftest`` subcommand and exits nonzero if any check fails; a check
that raises a package error fails by itself and the others still run.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateResidualError, ReflectSpecError
from .models import BlendModel, ReflectionAwareModel, TableModel
from .tokens import make_rng, sampling_distribution
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


def check_unbiasedness() -> CheckResult:
    """exact_step_distribution(p, q) must equal p for random pairs."""
    pairs = 1000
    rng = make_rng(20240601)
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


def check_residual() -> CheckResult:
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
    rng = make_rng(7)
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


def check_typical_thresholds() -> CheckResult:
    """Thresholds equal min(eps, delta*exp(-H)) and never exceed eps, by row and by block."""
    count = 200
    rng = make_rng(11)
    grid = [(e, d) for e in (0.1, 0.6) for d in (0.05, 0.9)]  # either term can bind
    worst = 0.0
    dists = [_random_distribution(rng, int(rng.integers(2, 17))) for _ in range(count)]
    for size in {len(d) for d in dists}:
        block = np.array([d for d in dists if len(d) == size])
        for eps, delta in grid:
            for dist, in_block in zip(block, typical_threshold(block, eps, delta).tolist()):
                h = -sum(x * math.log(x) for x in dist if x > 0)  # independent entropy
                got = typical_threshold(dist, eps, delta)
                worst = max(worst, abs(got - min(eps, delta * math.exp(-h))))
                if got > eps or got > delta or got <= 0 or got != in_block:
                    detail = f"threshold {got} out of range or {in_block} in its block"
                    return CheckResult("typical-thresholds", False, detail)
    ok = worst <= 1e-12
    return CheckResult(
        "typical-thresholds", ok, f"{count} distributions x {len(grid)} configs, max err {worst:.3e}"
    )


def check_decode_law() -> CheckResult:
    """A whole speculative-sampling decode emits the target's own law.

    ``law(ctx, n, gamma)`` is the exact law of the next ``n`` tokens after
    ``ctx``, over every draft prefix weighted by q, accept count and bonus,
    with the step that crosses the budget cut. At gamma 0 it is the target's
    autoregressive law. The marker (2) enters the text, so the copy rule fires.
    """
    length, temperature = 3, 0.8
    base = TableModel(3, seed=11)
    target = ReflectionAwareModel(base, 2, 0.5)
    draft = BlendModel(base, TableModel(3, seed=12), 0.4)

    @functools.cache
    def law(ctx: tuple[int, ...], n: int, gamma: int) -> dict[tuple[int, ...], float]:
        if n <= 0:
            return {(): 1.0}
        out: dict[tuple[int, ...], float] = defaultdict(float)

        def emit(tokens: tuple[int, ...], mass: float) -> None:
            for rest, m in law(ctx + tokens, n - len(tokens), gamma).items():
                out[(tokens + rest)[:n]] += mass * m

        def walk(accepted: tuple[int, ...], mass: float) -> None:
            p = sampling_distribution(target.next_logits(ctx + accepted), temperature)
            if len(accepted) == gamma:  # all drafts accepted: the bonus comes from p
                for t, pt in enumerate(p):
                    emit(accepted + (t,), mass * pt)
                return
            q = draft.next_distribution(ctx + accepted, temperature)
            rejected = 0.0
            for t, qt in enumerate(q):
                ratio = min(1.0, p[t] / qt)
                walk(accepted + (t,), mass * qt * ratio)
                rejected += mass * qt * (1.0 - ratio)
            for t, rt in enumerate(residual_distribution(p, q)):
                emit(accepted + (t,), rejected * rt)

        walk((), 1.0)
        return out

    start = time.perf_counter()
    # The target gives every token mass, so ``want`` holds every output.
    want, *laws = (law((0, 1), length, gamma) for gamma in range(4))
    worst = max(float(abs(got.get(y, 0.0) - want[y])) for got in laws for y in want)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    detail = f"gamma 1-3 vs 0 over {len(want)} outputs, max error {worst:.3e}, {elapsed:.2f}s"
    return CheckResult("decode-law", ok, detail)


def run_all() -> list[CheckResult]:
    """Every check's result. A check that raises a ``ReflectSpecError``
    fails under its own name and the rest still run."""
    checks = {
        "unbiasedness": check_unbiasedness,
        "residual": check_residual,
        "typical-thresholds": check_typical_thresholds,
        "decode-law": check_decode_law,
    }
    results = []
    for name, check in checks.items():
        try:
            results.append(check())
        except ReflectSpecError as exc:
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
