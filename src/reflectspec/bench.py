"""Metrics, configuration sweeps, and report emission.

The central speed metric is mean accepted tokens per verification forward
pass (tokens emitted divided by steps, each of which runs one target forward
pass); plain autoregressive decoding scores exactly 1.0 by construction.
Sweeps run the cross product of parameter grids over a prompt set, one report
row per cell, in a fixed grid order.

Each process running a sweep builds the spec's base and noise models once
and wraps them per cell; build errors land in the rows of the cells they
affect, like any other package error. ``SweepSpec.cell_config`` maps a
cell's settings to a ``DecodeConfig`` and ``CellRunner.models`` builds its
(target, draft) pair; the CLI's ``decode`` runs one cell through both.

Determinism contract: every cell's RNG seed is derived by a documented
stable hash of (seed axis value, the cell's per-axis indices in the
canonical axis order alpha, gamma, strategy, eta, template), and each prompt
inside a cell derives a further stream from (cell seed, prompt index).
Reordering loops in code can therefore never silently change results, and
two runs of the same spec produce byte-identical report files. Timing
columns are toy-backend numbers, excluded from files by default so that the
default reports are byte-reproducible.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import itertools
import json
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

from .engine import DecodeConfig, RunStats, StepStats, decode
from .errors import InvalidConfigError, ReflectSpecError
from .models import Model, ModelSpec, build_model, divergence_noise_model, pair_models
from .reflective import ReflectiveTemplate
from .tokens import derive_seed

TIMING_COLUMNS = ("tokens_per_s", "wall_time_s")
REPORT_FORMATS = ("csv", "json")


def mean_accepted_tokens(stats: RunStats) -> float:
    """Tokens emitted per step, i.e. per target forward pass."""
    if stats.num_steps == 0:
        raise InvalidConfigError("cannot compute mean accepted tokens of an empty run")
    return stats.total_tokens_emitted / stats.num_steps


def acceptance_by_position(steps: Sequence[StepStats], gamma: int) -> list[float]:
    """Fraction of ``steps`` that accepted draft position i, for i < gamma."""
    if not steps:
        return []
    counts = [0] * gamma
    for step in steps:
        for i in range(min(step.accepted_n, gamma)):
            counts[i] += 1
    return [c / len(steps) for c in counts]


@dataclass(frozen=True)
class SweepSpec:
    """Grids, prompt set, and the fixed environment for a sweep.

    Grid axes (canonical order): alphas, gammas, strategies, etas,
    templates, seeds. All other fields are shared by every cell.
    """

    prompts: tuple[tuple[int, ...], ...]
    base: ModelSpec
    alphas: tuple[float, ...] = (0.3,)
    gammas: tuple[int, ...] = (5,)
    strategies: tuple[str, ...] = ("specsample",)
    etas: tuple[float, ...] = (0.0,)
    templates: tuple[ReflectiveTemplate, ...] = ()
    seeds: tuple[int, ...] = (0,)
    corpus: tuple[tuple[int, ...], ...] | None = None
    beta: float = 0.0
    marker: int | None = None
    temperature: float = 0.8
    prefix_len: int = 4
    max_new_tokens: int = 32
    epsilon: float = 0.3
    delta: float = 0.2
    entropy_source: str = "original"
    eos_token: int | None = None
    exact_match_mode: str = "sample"

    def __post_init__(self) -> None:
        for name in ("alphas", "gammas", "strategies", "etas", "templates", "seeds"):
            if not getattr(self, name):
                raise InvalidConfigError(f"sweep grid {name!r} must be non-empty")
        if not self.prompts:
            raise InvalidConfigError("sweep prompt set must be non-empty")
        if self.prefix_len < 0:
            raise InvalidConfigError("prefix_len must be >= 0")

    def cell_config(
        self, alpha: float, gamma: int, strategy: str, template: ReflectiveTemplate, seed: int
    ) -> DecodeConfig:
        """The decode settings of one cell: its grid values and the shared
        settings. The template replays ``prefix_len`` committed tokens only
        when it holds ``${prefix}``."""
        return DecodeConfig(
            gamma=gamma,
            alpha=alpha,
            temperature=self.temperature,
            strategy=strategy,
            epsilon=self.epsilon,
            delta=self.delta,
            template=replace(template, prefix_len=self.prefix_len if template.has_prefix else 0),
            reflect=template.reflective,
            entropy_source=self.entropy_source,
            exact_match_mode=self.exact_match_mode,
            max_new_tokens=self.max_new_tokens,
            eos_token=self.eos_token,
            seed=seed,
        )


@dataclass
class ReportRow:
    """One sweep cell's report row. The field order is the column order."""

    alpha: float
    gamma: int
    strategy: str
    eta: float
    template: str
    seed: int
    prefix_len: int
    temperature: float
    num_prompts: int
    total_steps: int
    output_tokens: int
    mat: float | None
    acceptance_by_position: tuple[float, ...]
    mean_input_budget: float | None
    error: str | None = None
    tokens_per_s: float | None = None
    wall_time_s: float | None = None

    def to_dict(self, include_timing: bool = False) -> dict:
        columns = REPORT_COLUMNS + (TIMING_COLUMNS if include_timing else ())
        out = {c: getattr(self, c) for c in columns}
        out["acceptance_by_position"] = list(self.acceptance_by_position)
        return out


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow) if f.name not in TIMING_COLUMNS)


def sweep_cells(spec: SweepSpec) -> list[tuple[tuple[int, ...], tuple]]:
    """Enumerate (axis indices, axis values) in canonical grid order."""
    axes = (spec.alphas, spec.gammas, spec.strategies, spec.etas, spec.templates)
    return [
        (indices, tuple(axis[i] for axis, i in zip(axes, indices)) + (seed,))
        for indices in itertools.product(*(range(len(axis)) for axis in axes))
        for seed in spec.seeds
    ]


def cell_seed(seed: int, indices: tuple[int, ...]) -> int:
    """Seed of one sweep cell; part of the determinism contract."""
    return derive_seed("sweep-cell", seed, *indices)


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[ReportRow]:
    """Run every cell of the grid; rows come back in grid order.

    A cell's ``ReflectSpecError`` lands in its row's ``error`` field and the
    sweep continues; any other error propagates. With ``jobs`` > 1 cells run
    in worker processes, each handed the spec once when it starts.

    Every process builds the spec's base and noise models once, on its
    first cell, and each cell wraps them with its own blend weight (and
    reflection wrapper). A build that fails is retried by the next cell, so
    its error lands in the row of every cell it affects.
    """
    cells = sweep_cells(spec)
    if jobs <= 1 or len(cells) == 1:
        runner = CellRunner(spec)
        return [runner.run(indices, values) for indices, values in cells]
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=min(jobs, len(cells)), initializer=_start_worker, initargs=(spec,)
    ) as pool:
        return list(pool.map(_run_worker_cell, cells))


class CellRunner:
    """Runs the cells of one sweep in one process, sharing its models."""

    def __init__(self, spec: SweepSpec):
        self.spec = spec
        self._base_and_noise: tuple[Model, Model] | None = None

    def run(self, indices: tuple[int, ...], values: tuple) -> ReportRow:
        spec = self.spec
        alpha, gamma, strategy, eta, template, seed = values
        row = ReportRow(
            alpha=alpha,
            gamma=gamma,
            strategy=strategy,
            eta=eta,
            template=template.text,
            seed=seed,
            prefix_len=spec.prefix_len,
            temperature=spec.temperature,
            num_prompts=len(spec.prompts),
            total_steps=0,
            output_tokens=0,
            mat=None,
            acceptance_by_position=(),
            mean_input_budget=None,
        )
        try:
            target, draft = self.models(eta)
            base_stream = cell_seed(seed, indices)
            steps: list[StepStats] = []
            wall_time = 0.0
            for prompt_index, prompt in enumerate(spec.prompts):
                prompt_seed = derive_seed(base_stream, "prompt", prompt_index)
                config = spec.cell_config(alpha, gamma, strategy, template, prompt_seed)
                start = time.perf_counter()
                _, stats = decode(target, draft, list(prompt), config)
                wall_time += time.perf_counter() - start
                steps.extend(stats.steps)
            run = RunStats(steps=steps)
            row.total_steps = run.num_steps
            row.output_tokens = run.total_tokens_emitted
            row.mat = mean_accepted_tokens(run)
            row.acceptance_by_position = tuple(acceptance_by_position(steps, gamma))
            row.mean_input_budget = run.total_input_tokens / run.num_steps
            row.wall_time_s = wall_time
            if row.wall_time_s > 0:
                row.tokens_per_s = row.output_tokens / row.wall_time_s
        except ReflectSpecError as exc:  # config failures land in the row, sweep continues
            row.error = f"{type(exc).__name__}: {exc}"
        return row

    def models(self, eta: float) -> tuple[Model, Model]:
        """The (target, draft) pair at draft divergence ``eta``."""
        spec = self.spec
        if self._base_and_noise is None:
            base = build_model(spec.base, corpus=spec.corpus)
            self._base_and_noise = (base, divergence_noise_model(spec.base))
        marker = spec.marker if spec.marker is not None else spec.base.vocab_size - 1
        return pair_models(*self._base_and_noise, eta, spec.beta, marker)


# The runner of a worker process's sweep, set by the pool initializer; the
# parent process never sets it, and a worker serves one sweep only.
_worker_runner: CellRunner | None = None


def _start_worker(spec: SweepSpec) -> None:
    global _worker_runner
    _worker_runner = CellRunner(spec)


def _run_worker_cell(cell: tuple[tuple[int, ...], tuple]) -> ReportRow:
    return _worker_runner.run(*cell)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def render_report(
    rows: Sequence[ReportRow], fmt: str, include_timing: bool = False
) -> str:
    """Serialize rows to CSV or JSON text with a stable schema."""
    if fmt not in REPORT_FORMATS:
        raise InvalidConfigError(f"unknown report format {fmt!r}")
    if not rows:
        raise InvalidConfigError("cannot emit an empty report")
    columns = REPORT_COLUMNS + (TIMING_COLUMNS if include_timing else ())
    if fmt == "json":
        payload = [row.to_dict(include_timing=include_timing) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        d = row.to_dict(include_timing=include_timing)
        writer.writerow([_csv_cell(d[c]) for c in columns])
    return buf.getvalue()


def emit_report(
    rows: Sequence[ReportRow],
    fmt: str,
    path: str | Path,
    include_timing: bool = False,
) -> Path:
    path = Path(path)
    path.write_text(render_report(rows, fmt, include_timing=include_timing), encoding="utf-8")
    return path


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Single-decode statistics files
# ---------------------------------------------------------------------------


def decode_stats_dict(stats: RunStats, include_diagnostics: bool = False) -> dict:
    """Deterministic summary of one decode.

    The default view covers only verification behavior (tokens and per-step
    acceptance), so two runs that accept identically produce byte-identical
    files no matter how their inputs were fed. Diagnostics add feed sizes,
    forward counts, and wall time.
    """
    steps: list[dict] = []
    for s in stats.steps:
        entry: dict = {"accepted_n": s.accepted_n, "tokens_emitted": s.tokens_emitted}
        if include_diagnostics:
            entry.update(
                {
                    "draft_forward_count": s.draft_forward_count,
                    "input_tokens_fed": s.input_tokens_fed,
                    "wall_time": s.wall_time,
                }
            )
        steps.append(entry)
    out = {
        "prompt_len": stats.prompt_len,
        "output_tokens": list(stats.output_tokens),
        "steps": steps,
        "total_steps": stats.num_steps,
        "total_tokens": stats.total_tokens_emitted,
        "mean_accepted_tokens": mean_accepted_tokens(stats),
    }
    if include_diagnostics:
        out["total_input_tokens"] = stats.total_input_tokens
        out["total_draft_forwards"] = stats.total_draft_forwards
        out["total_wall_time"] = stats.total_wall_time
    return out


def write_decode_stats(
    stats: RunStats, path: str | Path, include_diagnostics: bool = False
) -> Path:
    path = Path(path)
    payload = decode_stats_dict(stats, include_diagnostics=include_diagnostics)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
