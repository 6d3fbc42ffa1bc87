"""Metrics, configuration sweeps, and report emission.

The central speed metric is mean accepted tokens per verification forward
pass (tokens emitted divided by target forward passes); plain autoregressive
decoding scores exactly 1.0 by construction. Sweeps run the cross product of
parameter grids over a prompt set, one report row per cell, in a fixed grid
order.

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
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .engine import DecodeConfig, RunStats, decode
from .errors import InternalConsistencyError, InvalidConfigError, ReflectSpecError
from .models import (
    BlendModel,
    Model,
    ModelSpec,
    build_model,
    divergence_noise_model,
    make_reflection_aware,
)
from .reflective import ReflectiveLayout, ReflectiveTemplate, ResolvedTemplate
from .tokens import derive_seed

REPORT_COLUMNS = (
    "alpha",
    "gamma",
    "strategy",
    "eta",
    "template",
    "seed",
    "prefix_len",
    "temperature",
    "num_prompts",
    "total_steps",
    "output_tokens",
    "mat",
    "acceptance_by_position",
    "mean_input_budget",
    "error",
)
TIMING_COLUMNS = ("tokens_per_s", "wall_time_s")


def mean_accepted_tokens(stats: RunStats) -> float:
    """Tokens emitted per target forward pass."""
    if stats.num_steps == 0:
        raise InvalidConfigError("cannot compute mean accepted tokens of an empty run")
    return stats.total_tokens_emitted / stats.total_target_forwards


def input_budget(layout: ReflectiveLayout) -> int:
    """Token count of the assembled verification input (all four segments)."""
    return len(layout.full_sequence)


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
    templates: tuple[ResolvedTemplate, ...] = ()
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

    def __post_init__(self) -> None:
        for name in ("alphas", "gammas", "strategies", "etas", "templates", "seeds"):
            if not getattr(self, name):
                raise InvalidConfigError(f"sweep grid {name!r} must be non-empty")
        if not self.prompts:
            raise InvalidConfigError("sweep prompt set must be non-empty")


@dataclass
class ReportRow:
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
        out = {
            "alpha": self.alpha,
            "gamma": self.gamma,
            "strategy": self.strategy,
            "eta": self.eta,
            "template": self.template,
            "seed": self.seed,
            "prefix_len": self.prefix_len,
            "temperature": self.temperature,
            "num_prompts": self.num_prompts,
            "total_steps": self.total_steps,
            "output_tokens": self.output_tokens,
            "mat": self.mat,
            "acceptance_by_position": list(self.acceptance_by_position),
            "mean_input_budget": self.mean_input_budget,
            "error": self.error,
        }
        if include_timing:
            out["tokens_per_s"] = self.tokens_per_s
            out["wall_time_s"] = self.wall_time_s
        return out


def sweep_cells(spec: SweepSpec) -> list[tuple[tuple[int, ...], tuple]]:
    """Enumerate (axis indices, axis values) in canonical grid order."""
    cells = []
    for ia, alpha in enumerate(spec.alphas):
        for ig, gamma in enumerate(spec.gammas):
            for istrat, strategy in enumerate(spec.strategies):
                for ieta, eta in enumerate(spec.etas):
                    for itmpl, template in enumerate(spec.templates):
                        for seed in spec.seeds:
                            cells.append(
                                (
                                    (ia, ig, istrat, ieta, itmpl),
                                    (alpha, gamma, strategy, eta, template, seed),
                                )
                            )
    return cells


def cell_seed(seed: int, indices: tuple[int, ...]) -> int:
    """Seed of one sweep cell; part of the determinism contract."""
    return derive_seed("sweep-cell", seed, *indices)


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[ReportRow]:
    """Run every cell of the grid; rows come back in grid order.

    A cell that fails with a package error is recorded in its row's
    ``error`` field and the sweep continues; ``InternalConsistencyError``
    and errors from outside the package propagate. With ``jobs`` > 1 cells
    run in worker processes.
    """
    cells = sweep_cells(spec)
    args = [(spec, indices, values) for indices, values in cells]
    if jobs <= 1 or len(cells) == 1:
        return [_run_cell_packed(a) for a in args]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_cell_packed, args))


def _run_cell_packed(packed: tuple) -> ReportRow:
    spec, indices, values = packed
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
        target, draft = _cell_models(spec, eta)
        base_stream = cell_seed(seed, indices)
        tmpl = ReflectiveTemplate(
            prompt_tokens=template.prompt_tokens,
            prefix_len=spec.prefix_len if template.has_prefix else 0,
        )
        total_tokens = 0
        total_forwards = 0
        total_fed = 0
        total_wall = 0.0
        accept_counts = [0] * gamma
        total_steps = 0
        for prompt_index, prompt in enumerate(spec.prompts):
            config = DecodeConfig(
                gamma=gamma,
                alpha=alpha,
                temperature=spec.temperature,
                strategy=strategy,
                epsilon=spec.epsilon,
                delta=spec.delta,
                template=tmpl,
                reflect=template.reflective and strategy != "vanilla",
                entropy_source=spec.entropy_source,
                max_new_tokens=spec.max_new_tokens,
                eos_token=spec.eos_token,
                seed=derive_seed(base_stream, "prompt", prompt_index),
            )
            _, stats = decode(target, draft, list(prompt), config)
            total_tokens += stats.total_tokens_emitted
            total_forwards += stats.total_target_forwards
            total_fed += stats.total_input_tokens
            total_wall += stats.total_wall_time
            total_steps += stats.num_steps
            if strategy != "vanilla":
                for step in stats.steps:
                    for i in range(min(step.accepted_n, gamma)):
                        accept_counts[i] += 1
        row.total_steps = total_steps
        row.output_tokens = total_tokens
        row.mat = total_tokens / total_forwards
        row.acceptance_by_position = tuple(
            (c / total_steps if total_steps else 0.0) for c in accept_counts
        )
        row.mean_input_budget = total_fed / total_steps if total_steps else None
        row.wall_time_s = total_wall
        row.tokens_per_s = total_tokens / total_wall if total_wall > 0 else None
    except InternalConsistencyError:
        raise  # a programming error, not a property of the cell
    except ReflectSpecError as exc:  # config failures land in the row, sweep continues
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def _cell_models(spec: SweepSpec, eta: float) -> tuple[Model, Model]:
    base_model = build_model(spec.base, corpus=spec.corpus)
    draft = BlendModel(base_model, divergence_noise_model(spec.base), eta)
    if spec.beta > 0:
        marker = spec.marker if spec.marker is not None else spec.base.vocab_size - 1
        target: Model = make_reflection_aware(base_model, marker, spec.beta)
    else:
        target = base_model
    return target, draft


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def render_report(
    rows: Sequence[ReportRow], fmt: str, include_timing: bool = False
) -> str:
    """Serialize rows to CSV or JSON text with a stable schema."""
    if not rows:
        raise InvalidConfigError("cannot emit an empty report")
    columns = REPORT_COLUMNS + (TIMING_COLUMNS if include_timing else ())
    if fmt == "json":
        payload = [row.to_dict(include_timing=include_timing) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            d = row.to_dict(include_timing=include_timing)
            writer.writerow([_csv_cell(d[c]) for c in columns])
        return buf.getvalue()
    raise InvalidConfigError(f"unknown report format {fmt!r}")


def emit_report(
    rows: Sequence[ReportRow],
    fmt: str,
    path: str | Path,
    include_timing: bool = False,
) -> Path:
    path = Path(path)
    path.write_text(render_report(rows, fmt, include_timing=include_timing), encoding="utf-8")
    return path


def read_report(path: str | Path, fmt: str) -> list[dict]:
    """Parse a report file back into row dictionaries (lossless round trip)."""
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "json":
        return json.load(io.StringIO(text))
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(text))
        return [_parse_csv_row(raw) for raw in reader]
    raise InvalidConfigError(f"unknown report format {fmt!r}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


_CSV_FLOAT_FIELDS = ("alpha", "eta", "temperature", "mat", "mean_input_budget",
                     "tokens_per_s", "wall_time_s")
_CSV_INT_FIELDS = ("gamma", "seed", "prefix_len", "num_prompts", "total_steps",
                   "output_tokens")


def _parse_csv_row(raw: dict) -> dict:
    out: dict = {}
    for key, value in raw.items():
        if key in _CSV_INT_FIELDS:
            out[key] = int(value)
        elif key in _CSV_FLOAT_FIELDS:
            out[key] = float(value) if value != "" else None
        elif key == "acceptance_by_position":
            out[key] = [float(v) for v in value.split(";")] if value else []
        elif key == "error":
            out[key] = value if value else None
        else:
            out[key] = value
    return out


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
                    "target_forward_count": s.target_forward_count,
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
