"""Tracing from outside the package: spans and counters at module boundaries.

Nothing inside ``reflectspec`` is edited. A ``Tracer`` replaces, for the
duration of a ``with tracer.installed():`` block, the module attributes the
engine and the sweep harness call through, and restores them on exit:

- ``engine.generate_draft``, ``engine.build_reflective_input``,
  ``engine.paired_forward``, ``engine.fuse``, ``engine.verify_*`` and
  ``engine.commit_and_prune`` get a span each;
- every binding of the ``tokens`` kernels (``validate_logits``,
  ``validate_distribution``, ``softmax``, ``sample``) in any ``reflectspec``
  module gets a call counter, no span, since they run tens of times a step;
- ``bench.build_model`` and ``bench.decode`` get spans, and the sweep's
  decodes run through ``traced_decode`` so their models are counted too.

Models handed to ``decode`` are wrapped in ``TracedModel``, which counts and
spans every ``next_logits`` call. Spans nest on a stack; a span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import reflectspec
from reflectspec import bench, engine, tokens
from reflectspec.models import Model

_perf = time.perf_counter

# Engine bindings that get a span, by the span name used in metrics.
ENGINE_SPANS = (
    "generate_draft",
    "build_reflective_input",
    "paired_forward",
    "fuse",
    "verify_exact_match",
    "verify_speculative_sampling",
    "verify_typical",
    "commit_and_prune",
)
VERIFY_SPANS = ("verify_exact_match", "verify_speculative_sampling", "verify_typical")
COUNTED_KERNELS = ("validate_logits", "validate_distribution", "softmax", "sample")


class PositionMismatch(Exception):
    """A decode computed a different number of positions than its stats imply."""


class Tracer:
    """In-memory spans plus per-name self time and counters."""

    def __init__(self) -> None:
        # Finished spans: (span id, parent id, decode id, name, start, end).
        self.spans: list[tuple] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.total_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.decodes = 0
        self.decode_id: int | None = None  # set while a traced decode runs
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 1

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, _perf(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        end = _perf()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else None, self.decode_id, name, start, end))
        self.self_time[name] += duration - child
        self.total_time[name] += duration
        self.counts[name] += 1

    def wrap(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_verify(self, result) -> None:
        self.counts["accepted"] += result.accepted_n
        self.counts["gamma"] += len(result.per_step_accepts)

    def _on_layout(self, layout) -> None:
        self.counts["reflective_input_tokens"] += len(layout.full_sequence)

    @contextmanager
    def installed(self):
        """Patch the package's module bindings for the duration of the block."""
        saved: list[tuple[object, str, object]] = []

        def patch(module, attr, value):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

        hooks = {"build_reflective_input": self._on_layout}
        hooks.update({name: self._on_verify for name in VERIFY_SPANS})
        for name in ENGINE_SPANS:
            patch(engine, name, self.wrap(name, getattr(engine, name), hooks.get(name)))
        modules = _package_modules()
        for name in COUNTED_KERNELS:
            original = getattr(tokens, name)
            wrapped = self.counter(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch(module, attr, wrapped)
        patch(bench, "build_model", self.wrap("build_model", bench.build_model))
        patch(bench, "decode", lambda t, d, p, c: traced_decode(self, t, d, p, c))
        try:
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "decode", "name", "start", "end"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class TracedModel(Model):
    """Counts and spans every ``next_logits`` call of the model it wraps."""

    def __init__(self, inner: Model, role: str, tracer: Tracer):
        self.inner = inner
        self.vocab_size = inner.vocab_size
        self.span_name = f"{role}.next_logits"
        self.positions = 0
        self.tracer = tracer

    def next_logits(self, context):
        self.positions += 1
        self.tracer.begin(self.span_name)
        try:
            return self.inner.next_logits(context)
        finally:
            self.tracer.end()


def traced_decode(tracer: Tracer, target: Model, draft: Model, prompt, config):
    """``engine.decode`` on counted models, checked against its own stats.

    Raises ``PositionMismatch`` unless the counted positions equal
    ``prompt_len + sum(input_tokens_fed) + steps`` for the target and
    ``prompt_len + sum(draft_forward_count)`` for the draft.
    """
    tracer.decodes += 1
    tracer.decode_id = tracer.decodes
    t = TracedModel(target, "target", tracer)
    d = TracedModel(draft, "draft", tracer)
    tracer.begin("decode")
    try:
        output, stats = engine.decode(t, d, prompt, config)
    finally:
        tracer.end()
        tracer.decode_id = None
    want_target = stats.prompt_len + stats.total_input_tokens + stats.num_steps
    want_draft = stats.prompt_len + stats.total_draft_forwards
    if (t.positions, d.positions) != (want_target, want_draft):
        raise PositionMismatch(
            f"counted target/draft positions {t.positions}/{d.positions}, "
            f"stats imply {want_target}/{want_draft}"
        )
    tracer.counts["target_positions"] += t.positions
    tracer.counts["draft_positions"] += d.positions
    tracer.counts["prompt_positions"] += stats.prompt_len
    tracer.counts["tokens"] += len(output)
    tracer.counts["steps"] += stats.num_steps
    return output, stats


def _package_modules():
    prefix = reflectspec.__name__
    return [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]


def layer_metrics(tracer: Tracer, passes: int, corpus_encode_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of ``passes`` traced passes, normalised per pass."""
    c, st, tt = tracer.counts, tracer.self_time, tracer.total_time
    tok = c["tokens"]
    computed = c["target_positions"] - c["prompt_positions"]

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "models.target_positions": (per_pass(c["target_positions"]), "count/pass"),
        "models.draft_positions": (per_pass(c["draft_positions"]), "count/pass"),
        "models.target_s": (per_pass(st["target.next_logits"]), "s/pass"),
        "models.draft_s": (per_pass(st["draft.next_logits"]), "s/pass"),
        "models.target_positions_per_token": (ratio(c["target_positions"], tok), "count/token"),
        "models.target_kept_ratio": (ratio(tok, computed), "ratio"),
        "drafting.generate_draft_s": (per_pass(st["generate_draft"]), "s/pass"),
        "drafting.calls": (per_pass(c["generate_draft"]), "count/pass"),
        "reflective.build_input_s": (per_pass(st["build_reflective_input"]), "s/pass"),
        "reflective.paired_forward_self_s": (per_pass(st["paired_forward"]), "s/pass"),
        "reflective.fuse_s": (per_pass(st["fuse"]), "s/pass"),
        "reflective.input_tokens_per_step": (
            ratio(c["reflective_input_tokens"], c["build_reflective_input"]),
            "count/step",
        ),
        "verification.verify_s": (per_pass(sum(st[n] for n in VERIFY_SPANS)), "s/pass"),
        "verification.calls": (per_pass(sum(c[n] for n in VERIFY_SPANS)), "count/pass"),
        "verification.accepted_per_step": (
            ratio(c["accepted"], sum(c[n] for n in VERIFY_SPANS)),
            "count/step",
        ),
        "verification.accept_rate": (ratio(c["accepted"], c["gamma"]), "ratio"),
        "tokens.validate_calls_per_token": (
            ratio(c["validate_logits"] + c["validate_distribution"], tok),
            "count/token",
        ),
        "tokens.sample_calls": (per_pass(c["sample"]), "count/pass"),
        "tokens.softmax_calls": (per_pass(c["softmax"]), "count/pass"),
        "engine.steps": (per_pass(c["steps"]), "count/pass"),
        "engine.commit_prune_s": (per_pass(st["commit_and_prune"]), "s/pass"),
        "engine.commit_prune_calls": (per_pass(c["commit_and_prune"]), "count/pass"),
        "engine.decode_self_s": (per_pass(st["decode"]), "s/pass"),
        "bench.sweep_s": (per_pass(tt["run_sweep"]), "s/pass"),
        "bench.model_builds": (per_pass(c["build_model"]), "count/pass"),
        "bench.model_build_s": (per_pass(tt["build_model"]), "s/pass"),
        "bench.cells": (per_pass(c["cells"]), "count/pass"),
        "bench.cells_failed": (per_pass(c["cells_failed"]), "count/pass"),
        "corpus.encode_s": (corpus_encode_s, "s"),
    }
