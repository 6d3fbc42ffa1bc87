"""The benchmark's workloads: inputs built from a seed, one operation, checks.

Every workload is a fixed list of operations (a "pass"). The timed loop
repeats the pass in order, one caller waiting for each operation (a closed
loop with one client). All inputs come from ``random.Random`` seeded with
the workload name and the benchmark seed, so the package only ever sees the
generated prompts, corpus and configurations.

- ``reflect-long``: long decodes against a reflection-aware target, where
  the target model's copy scan dominates and acceptance is high.
- ``table-short``: many short decodes against a plain table target, where
  per-call overhead dominates and acceptance is low.
- ``sweep-ngram``: the sweep harness with two worker processes over an
  n-gram target with a vocabulary of several hundred words.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass

from reflectspec import (
    DEFAULT_TEMPLATE_TEXT,
    BlendModel,
    DecodeConfig,
    InternalConsistencyError,
    ModelSpec,
    ReflectionAwareModel,
    ReflectiveTemplate,
    SweepSpec,
    TableModel,
    decode,
    resolve_template,
    run_sweep,
)
from reflectspec.corpus import IntTokenizer, WordTokenizer

from spans import Tracer, traced_decode

PLAIN_TEMPLATE_TEXT = "${draft}"


class Abort(Exception):
    """A failure that must stop the run at once (a programming error)."""


@dataclass
class Outcome:
    """What one operation produced: work done and a comparable record."""

    tokens: int
    steps: int
    attempted: int
    record: object
    errors: list[str]


@dataclass(frozen=True)
class DecodeCase:
    prompt: tuple[int, ...]
    config: DecodeConfig


class DecodeWorkload:
    """A pass of ``decode`` calls over one target/draft pair."""

    def __init__(self, name, target, draft, vocab_size, cases, tail_pct):
        self.name = name
        self.target = target
        self.draft = draft
        self.vocab_size = vocab_size
        self.cases = cases
        self.tail_pct = tail_pct
        self.corpus_encode_s = 0.0

    def __len__(self) -> int:
        return len(self.cases)

    def run(self, i: int, tracer: Tracer | None = None) -> tuple[float, tuple]:
        """Run operation ``i``; return its wall time and its result."""
        case = self.cases[i]
        start = time.perf_counter()
        if tracer is None:
            result = decode(self.target, self.draft, case.prompt, case.config)
        else:
            result = traced_decode(tracer, self.target, self.draft, case.prompt, case.config)
        return time.perf_counter() - start, result

    def outcome(self, i: int, result) -> Outcome:
        output, stats = result
        want = self.cases[i].config.max_new_tokens
        errors = []
        if len(output) != want:
            errors.append(f"emitted {len(output)} tokens, expected {want}")
        if any(not 0 <= t < self.vocab_size for t in output):
            errors.append("emitted a token outside the vocabulary")
        return Outcome(len(output), stats.num_steps, 1, tuple(output), errors)


class SweepWorkload:
    """One ``run_sweep`` call per operation; the pass is that single call."""

    def __init__(self, name, spec, jobs, corpus_encode_s, tail_pct):
        self.name = name
        self.spec = spec
        self.jobs = jobs
        self.corpus_encode_s = corpus_encode_s
        self.tail_pct = tail_pct

    def __len__(self) -> int:
        return 1

    def run(self, i: int, tracer: Tracer | None = None) -> tuple[float, list]:
        """Run the sweep; return its wall time and its rows.

        A traced sweep runs in-process (jobs=1) so the tracer sees every
        cell; the sweep's determinism contract makes its rows identical.
        """
        start = time.perf_counter()
        if tracer is None:
            rows = run_sweep(self.spec, jobs=self.jobs)
        else:
            tracer.begin("run_sweep")
            try:
                rows = run_sweep(self.spec, jobs=1)
            finally:
                tracer.end()
            tracer.counts["cells"] += len(rows)
            tracer.counts["cells_failed"] += sum(1 for r in rows if r.error)
        return time.perf_counter() - start, rows

    def outcome(self, i: int, rows) -> Outcome:
        errors = []
        want = len(self.spec.prompts) * self.spec.max_new_tokens
        for row in rows:
            if row.error:
                if InternalConsistencyError.__name__ in row.error:
                    raise Abort(f"sweep cell raised a programming error: {row.error}")
                errors.append(f"sweep cell failed: {row.error}")
            elif row.output_tokens != want:
                errors.append(f"sweep cell emitted {row.output_tokens} tokens, expected {want}")
        record = json.dumps([r.to_dict() for r in rows], sort_keys=True)
        return Outcome(
            sum(r.output_tokens for r in rows),
            sum(r.total_steps for r in rows),
            len(rows),
            record,
            errors,
        )


def digest(records) -> str:
    """Digest of a pass's outputs, in pass order."""
    return hashlib.sha256(json.dumps(list(records)).encode()).hexdigest()


def _prompt(rng: random.Random, vocab: int, low: int, high: int) -> tuple[int, ...]:
    # The highest id is the [BACK] marker; prompts never contain it.
    return tuple(rng.randrange(vocab - 1) for _ in range(rng.randint(low, high)))


def _pair(rng: random.Random, vocab: int, eta: float):
    base = TableModel(vocab, seed=rng.randrange(2**32), order=2)
    noise = TableModel(vocab, seed=rng.randrange(2**32), order=2)
    return base, BlendModel(base, noise, eta)


def _template(text: str, tokenizer, prefix_len: int) -> tuple[ReflectiveTemplate, bool]:
    resolved = resolve_template(text, tokenizer)
    template = ReflectiveTemplate(
        prompt_tokens=resolved.prompt_tokens,
        prefix_len=prefix_len if resolved.has_prefix else 0,
    )
    return template, resolved.reflective


def reflect_long(seed: int) -> DecodeWorkload:
    rng = random.Random(f"reflect-long:{seed}")
    vocab = 64
    base, draft = _pair(rng, vocab, eta=0.25)
    target = ReflectionAwareModel(base, marker=vocab - 1, blend=0.5)
    template, _ = _template(DEFAULT_TEMPLATE_TEXT, IntTokenizer(vocab), prefix_len=4)
    cases = [
        DecodeCase(
            _prompt(rng, vocab, 8, 16),
            DecodeConfig(
                gamma=5,
                strategy="specsample",
                template=template,
                max_new_tokens=1024,
                seed=rng.randrange(2**32),
            ),
        )
        for _ in range(8)
    ]
    return DecodeWorkload("reflect-long", target, draft, vocab, cases, tail_pct=75)


def table_short(seed: int) -> DecodeWorkload:
    rng = random.Random(f"table-short:{seed}")
    vocab = 64
    target, draft = _pair(rng, vocab, eta=0.25)
    tokenizer = IntTokenizer(vocab)
    templates = [
        _template(DEFAULT_TEMPLATE_TEXT, tokenizer, prefix_len=4),
        _template(PLAIN_TEMPLATE_TEXT, tokenizer, prefix_len=4),
    ]
    strategies = ("exact", "specsample", "typical")
    cases = []
    for i in range(30):
        template, reflect = templates[(i // len(strategies)) % len(templates)]
        config = DecodeConfig(
            gamma=5,
            strategy=strategies[i % len(strategies)],
            template=template,
            reflect=reflect,
            max_new_tokens=64,
            seed=rng.randrange(2**32),
        )
        cases.append(DecodeCase(_prompt(rng, vocab, 4, 12), config))
    return DecodeWorkload("table-short", target, draft, vocab, cases, tail_pct=90)


def _synthetic_corpus(rng: random.Random, words: int, docs: int) -> list[str]:
    """Documents from a sparse word-level Markov chain, so an order-2 n-gram
    has real structure to learn."""
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    vocab: list[str] = []
    seen: set[str] = set()
    while len(vocab) < words:
        word = "".join(rng.choice(syllables) for _ in range(rng.randint(2, 3)))
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    successors = [rng.sample(range(words), 6) for _ in range(words)]
    weights = [8, 4, 2, 1, 1, 1]
    lines = []
    for _ in range(docs):
        w = rng.randrange(words)
        doc = []
        for _ in range(rng.randint(20, 40)):
            doc.append(vocab[w])
            w = rng.choices(successors[w], weights)[0] if rng.random() < 0.9 else rng.randrange(words)
        lines.append(" ".join(doc))
    return lines


def sweep_ngram(seed: int) -> SweepWorkload:
    rng = random.Random(f"sweep-ngram:{seed}")
    lines = _synthetic_corpus(rng, words=400, docs=300)
    tokenizer = WordTokenizer()
    start = time.perf_counter()
    docs = [tokenizer.encode(line, extend=True) for line in lines]
    encode_s = time.perf_counter() - start
    resolved = resolve_template(DEFAULT_TEMPLATE_TEXT, tokenizer)
    prompts = []
    for _ in range(3):
        words = rng.choice(lines).split()
        prompts.append(tuple(tokenizer.encode(" ".join(words[:6]))))
    spec = SweepSpec(
        prompts=tuple(prompts),
        base=ModelSpec("ngram", tokenizer.vocab_size, seed=rng.randrange(2**32), order=2),
        alphas=(0.0, 0.3),
        etas=(0.1, 0.4),
        strategies=("exact", "specsample"),
        templates=(resolved,),
        seeds=(rng.randrange(2**32),),
        corpus=tuple(tuple(d) for d in docs),
        prefix_len=4,
        max_new_tokens=48,
    )
    return SweepWorkload("sweep-ngram", spec, 2, encode_s, tail_pct=75)


WORKLOADS = {"reflect-long": reflect_long, "table-short": table_short, "sweep-ngram": sweep_ngram}
