"""Shared test fixtures built from the package's public model constructors."""

from typing import Sequence

from reflectspec.models import (
    Model,
    ModelSpec,
    build_model,
    divergence_noise_model,
    pair_models,
)


class CountingModel(Model):
    """Delegates to ``inner`` and counts ``next_logits`` calls: one per
    position a session computes."""

    def __init__(self, inner: Model):
        self.vocab_size = inner.vocab_size
        self.inner = inner
        self.calls = 0

    def next_logits(self, context):
        self.calls += 1
        return self.inner.next_logits(context)


def make_divergence_pair(
    base_spec: ModelSpec,
    eta: float,
    corpus: Sequence[Sequence[int]] | None = None,
) -> tuple[Model, Model]:
    """``pair_models`` of a spec's base and noise models at blend rate
    ``eta``, without the reflection wrapper: eta=0 gives an identical draft,
    eta=1 a draft unrelated to the target."""
    base = build_model(base_spec, corpus=corpus)
    return pair_models(base, divergence_noise_model(base_spec), eta, 0.0, 0)


def recording_pool(started: list) -> type:
    """A stand-in for ``concurrent.futures.ProcessPoolExecutor`` that appends
    each pool's ``max_workers`` to ``started`` and maps in-process."""

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    return RecordingPool
