"""Shared test fixtures built from the package's public model constructors,
and a parser for the reports the package writes."""

import csv
import io
import json
from pathlib import Path
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


REPORT_FLOAT_FIELDS = ("alpha", "eta", "temperature", "mat", "mean_input_budget",
                       "tokens_per_s", "wall_time_s")
REPORT_INT_FIELDS = ("gamma", "seed", "prefix_len", "num_prompts", "total_steps",
                     "output_tokens")


def read_report(path, fmt: str) -> list[dict]:
    """Parse a CSV or JSON report back into the ``ReportRow.to_dict`` rows it
    was written from. The package writes reports and never reads them; the
    round trip is held by the tests that use this parser."""
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "json":
        return json.loads(text)
    return [_parse_csv_row(raw) for raw in csv.DictReader(io.StringIO(text))]


def _parse_csv_row(raw: dict) -> dict:
    out: dict = {}
    for key, value in raw.items():
        if key in REPORT_INT_FIELDS:
            out[key] = int(value)
        elif key in REPORT_FLOAT_FIELDS:
            out[key] = float(value) if value != "" else None
        elif key == "acceptance_by_position":
            out[key] = [float(v) for v in value.split(";")] if value else []
        elif key == "error":
            out[key] = value if value else None
        else:
            out[key] = value
    return out
