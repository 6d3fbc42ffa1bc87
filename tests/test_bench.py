"""Metrics, sweep determinism, and report round-trip tests."""

import pytest

from reflectspec import bench
from reflectspec.bench import (
    REPORT_COLUMNS,
    TIMING_COLUMNS,
    SweepSpec,
    cell_seed,
    decode_stats_dict,
    emit_report,
    input_budget,
    mean_accepted_tokens,
    read_report,
    render_report,
    run_sweep,
    write_decode_stats,
)
from reflectspec.drafting import DraftBundle
from reflectspec.engine import DecodeConfig, RunStats, StepStats, decode
from reflectspec.errors import InternalConsistencyError, InvalidConfigError
from reflectspec.models import ModelSpec, make_divergence_pair, make_reflection_aware
from reflectspec.reflective import (
    DEFAULT_TEMPLATE_TEXT,
    ReflectiveTemplate,
    build_reflective_input,
    resolve_template,
)
from reflectspec.corpus import IntTokenizer
from reflectspec.tokens import derive_seed, one_hot

VOCAB = 40


def make_spec(**kw):
    tok = IntTokenizer(VOCAB)
    defaults = dict(
        prompts=((1, 2, 3), (4, 5, 6), (7, 8, 9)),
        base=ModelSpec("table", VOCAB, seed=11, order=2),
        templates=(resolve_template(DEFAULT_TEMPLATE_TEXT, tok),),
        beta=0.5,
        marker=VOCAB - 1,
        max_new_tokens=16,
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestMetrics:
    def test_mean_accepted_tokens_arithmetic(self):
        stats = RunStats(
            steps=[StepStats(3, 4, 1, 3, 13, 0.0) for _ in range(100)],
        )
        stats.output_tokens = [0] * 400
        for s in stats.steps[:80]:
            s.tokens_emitted = 5
        # 80 * 5 + 20 * 4 = 480 tokens over 100 target forwards.
        assert mean_accepted_tokens(stats) == 4.8

    def test_input_budget_matches_sequence_length(self):
        bundle = DraftBundle(
            tuple(range(5)), tuple(one_hot(t, VOCAB) for t in range(5)), 4
        )
        layout = build_reflective_input(
            bundle, ReflectiveTemplate((30, 31, 32), 4), list(range(10, 20))
        )
        assert input_budget(layout) == 17 == len(layout.full_sequence)
        empty = build_reflective_input(bundle, ReflectiveTemplate(), [1, 2])
        assert input_budget(empty) == 10


class TestSweep:
    def test_single_cell_equals_direct_decode(self):
        spec = make_spec(prompts=((1, 2, 3),))
        rows = run_sweep(spec)
        assert len(rows) == 1
        row = rows[0]
        target, draft = _models_like_sweep(spec, eta=0.0)
        stream = cell_seed(0, (0, 0, 0, 0, 0))
        config = DecodeConfig(
            gamma=5,
            alpha=0.3,
            temperature=spec.temperature,
            strategy="specsample",
            template=ReflectiveTemplate((VOCAB - 1,), spec.prefix_len),
            max_new_tokens=spec.max_new_tokens,
            seed=derive_seed(stream, "prompt", 0),
        )
        out, stats = decode(target, draft, [1, 2, 3], config)
        assert row.mat == mean_accepted_tokens(stats)
        assert row.output_tokens == stats.total_tokens_emitted
        assert row.total_steps == stats.num_steps

    def test_alpha_effect_on_reflection_aware_backend(self):
        spec = make_spec(alphas=(0.0, 0.3), etas=(0.4,), gammas=(5,))
        rows = run_sweep(spec)
        mats = {row.alpha: row.mat for row in rows}
        assert mats[0.3] > mats[0.0]

    def test_eta_monotonicity(self):
        spec = make_spec(etas=(0.0, 0.25, 0.5, 1.0), alphas=(0.3,))
        rows = run_sweep(spec)
        mats = [row.mat for row in rows]
        assert all(a >= b for a, b in zip(mats, mats[1:]))

    def test_rows_in_grid_order_and_deterministic(self):
        spec = make_spec(alphas=(0.0, 0.3), seeds=(0, 1))
        rows1 = run_sweep(spec)
        rows2 = run_sweep(spec)
        assert [(r.alpha, r.seed) for r in rows1] == [
            (0.0, 0), (0.0, 1), (0.3, 0), (0.3, 1)
        ]
        assert [r.to_dict() for r in rows1] == [r.to_dict() for r in rows2]

    def test_parallel_jobs_match_serial(self):
        spec = make_spec(alphas=(0.0, 0.3), prompts=((1, 2, 3),), max_new_tokens=8)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_cell_failure_recorded_in_row(self):
        spec = make_spec(strategies=("specsample", "bogus"))
        rows = run_sweep(spec)
        assert rows[0].error is None
        assert rows[1].error is not None and "bogus" in rows[1].error
        assert rows[1].mat is None

    def test_internal_error_fails_the_sweep(self, monkeypatch):
        def broken_decode(*args, **kwargs):
            raise InternalConsistencyError("injected bookkeeping fault")

        monkeypatch.setattr(bench, "decode", broken_decode)
        with pytest.raises(InternalConsistencyError, match="injected"):
            run_sweep(make_spec(), jobs=1)

    def test_mat_bounds_and_acceptance_rates(self):
        spec = make_spec(etas=(0.5,))
        (row,) = run_sweep(spec)
        assert 1.0 <= row.mat <= 6.0
        assert len(row.acceptance_by_position) == 5
        assert all(0.0 <= r <= 1.0 for r in row.acceptance_by_position)
        # Acceptance at position i is a stopping process: rates non-increasing.
        rates = row.acceptance_by_position
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidConfigError):
            make_spec(alphas=())

    def test_vanilla_row_reports_mat_one(self):
        spec = make_spec(strategies=("vanilla",), max_new_tokens=8)
        (row,) = run_sweep(spec)
        assert row.mat == 1.0


class TestReports:
    def test_csv_header_fixed(self, tmp_path):
        rows = run_sweep(make_spec(prompts=((1, 2, 3),), max_new_tokens=8))
        path = emit_report(rows, "csv", tmp_path / "r.csv")
        header = path.read_text().splitlines()[0]
        assert header == ",".join(REPORT_COLUMNS)
        with_timing = render_report(rows, "csv", include_timing=True).splitlines()[0]
        assert with_timing == ",".join(REPORT_COLUMNS + TIMING_COLUMNS)

    def test_json_round_trip(self, tmp_path):
        rows = run_sweep(make_spec(prompts=((1, 2, 3),), alphas=(0.0, 0.3), max_new_tokens=8))
        path = emit_report(rows, "json", tmp_path / "r.json")
        parsed = read_report(path, "json")
        assert parsed == [r.to_dict() for r in rows]

    def test_csv_round_trip(self, tmp_path):
        rows = run_sweep(make_spec(prompts=((1, 2, 3),), max_new_tokens=8))
        path = emit_report(rows, "csv", tmp_path / "r.csv")
        parsed = read_report(path, "csv")
        assert parsed == [r.to_dict() for r in rows]

    def test_reports_byte_identical_across_runs(self, tmp_path):
        spec = make_spec(max_new_tokens=8)
        for fmt in ("csv", "json"):
            a = render_report(run_sweep(spec), fmt)
            b = render_report(run_sweep(spec), fmt)
            assert a == b

    def test_empty_report_rejected(self):
        with pytest.raises(InvalidConfigError):
            render_report([], "csv")

    def test_unwritable_path_raises(self, tmp_path):
        rows = run_sweep(make_spec(prompts=((1, 2, 3),), max_new_tokens=8))
        with pytest.raises(OSError):
            emit_report(rows, "csv", tmp_path / "missing-dir" / "r.csv")


class TestDecodeStatsFile:
    def test_byte_deterministic(self, tmp_path):
        target, draft = make_divergence_pair(ModelSpec("table", VOCAB, seed=1), 0.3)
        config = DecodeConfig(
            gamma=4, template=ReflectiveTemplate((VOCAB - 1,), 4), max_new_tokens=12, seed=2
        )
        paths = []
        for name in ("a.json", "b.json"):
            _, stats = decode(target, draft, [1, 2, 3], config)
            paths.append(write_decode_stats(stats, tmp_path / name))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_diagnostics_extend_schema(self):
        target, draft = make_divergence_pair(ModelSpec("table", VOCAB, seed=1), 0.3)
        config = DecodeConfig(
            gamma=4, template=ReflectiveTemplate((VOCAB - 1,), 4), max_new_tokens=12, seed=2
        )
        _, stats = decode(target, draft, [1, 2, 3], config)
        core = decode_stats_dict(stats)
        full = decode_stats_dict(stats, include_diagnostics=True)
        assert "wall_time" not in core["steps"][0]
        assert "input_tokens_fed" in full["steps"][0]
        assert core["mean_accepted_tokens"] == full["mean_accepted_tokens"]


def _models_like_sweep(spec, eta):
    base_spec = spec.base
    target, draft = make_divergence_pair(base_spec, eta)
    if spec.beta > 0:
        target = make_reflection_aware(target, spec.marker, spec.beta)
    return target, draft
