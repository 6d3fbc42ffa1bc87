"""Metrics, sweep determinism, and report round-trip tests."""

import concurrent.futures
import functools
import json
import multiprocessing
import time

import pytest
from fixtures import make_divergence_pair, read_report, recording_pool

from reflectspec import bench
from reflectspec.bench import (
    SweepSpec,
    cell_seed,
    decode_stats_dict,
    emit_report,
    mean_accepted_tokens,
    render_report,
    run_sweep,
    sweep_cells,
    write_decode_stats,
)
from reflectspec.engine import DecodeConfig, RunStats, StepStats, decode
from reflectspec.errors import InternalConsistencyError, InvalidConfigError
from reflectspec.models import (
    ModelSpec,
    ReflectionAwareModel,
    build_model,
)
from reflectspec.reflective import (
    DEFAULT_TEMPLATE_TEXT,
    ReflectiveTemplate,
    resolve_template,
)
from reflectspec.corpus import IntTokenizer
from reflectspec.tokens import derive_seed, make_rng

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
            steps=[StepStats(3, 4, 3, 13, 0.0) for _ in range(100)],
        )
        stats.output_tokens = [0] * 400
        for s in stats.steps[:80]:
            s.tokens_emitted = 5
        # 80 * 5 + 20 * 4 = 480 tokens over 100 target forwards.
        assert mean_accepted_tokens(stats) == 4.8


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

    def test_cells_follow_the_canonical_axis_order(self):
        tok = IntTokenizer(VOCAB)
        spec = make_spec(
            alphas=(0.0, 0.3),
            gammas=(2, 5),
            strategies=("exact", "typical"),
            etas=(0.0, 0.4),
            templates=tuple(
                resolve_template(text, tok) for text in (DEFAULT_TEMPLATE_TEXT, "${draft}")
            ),
            seeds=(7, 3),
        )
        want = []
        for ia, alpha in enumerate(spec.alphas):
            for ig, gamma in enumerate(spec.gammas):
                for istrat, strategy in enumerate(spec.strategies):
                    for ieta, eta in enumerate(spec.etas):
                        for itmpl, template in enumerate(spec.templates):
                            for seed in spec.seeds:
                                want.append(
                                    (
                                        (ia, ig, istrat, ieta, itmpl),
                                        (alpha, gamma, strategy, eta, template, seed),
                                    )
                                )
        assert len(want) == 64
        assert sweep_cells(spec) == want

    def test_parallel_jobs_match_serial(self):
        spec = make_spec(alphas=(0.0, 0.3), prompts=((1, 2, 3),), max_new_tokens=8)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    @pytest.mark.parametrize("jobs, alphas, workers", [(64, (0.0, 0.3), 2), (2, (0.0, 0.3, 0.6), 2)])
    def test_pool_starts_at_most_one_worker_per_cell(self, monkeypatch, jobs, alphas, workers):
        """A fork pool starts all its workers at the first submit, so the
        pool size is what the sweep asks for. The stand-in runs in-process."""
        started = []
        monkeypatch.setattr(bench, "_worker_runner", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(started))
        spec = make_spec(alphas=alphas, prompts=((1, 2, 3),), max_new_tokens=8)
        rows = run_sweep(spec, jobs=jobs)
        assert started == [workers]
        assert dicts(rows) == dicts(run_sweep(spec, jobs=1))

    def test_wall_time_covers_whole_decode_calls(self, monkeypatch):
        pause = 0.02
        step_time = []

        def slow_decode(target, draft, prompt, config):
            output, stats = decode(target, draft, prompt, config)
            step_time.append(stats.total_wall_time)
            time.sleep(pause)  # inside the decode call, outside every step
            return output, stats

        monkeypatch.setattr(bench, "decode", slow_decode)
        [row] = run_sweep(make_spec(max_new_tokens=8))
        assert len(step_time) == 3
        assert row.wall_time_s >= sum(step_time) + 3 * pause
        assert row.tokens_per_s == row.output_tokens / row.wall_time_s

    def test_cell_failure_recorded_in_row(self):
        spec = make_spec(strategies=("specsample", "bogus"))
        rows = run_sweep(spec)
        assert rows[0].error is None
        assert rows[1].error is not None and "bogus" in rows[1].error
        assert rows[1].mat is None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_internal_error_fails_the_sweep(self, monkeypatch, jobs):
        def broken_decode(*args, **kwargs):
            raise InternalConsistencyError("injected bookkeeping fault")

        monkeypatch.setattr(bench, "decode", broken_decode)
        with pytest.raises(InternalConsistencyError, match="injected"):
            # Two cells, so jobs=2 runs them in worker processes.
            run_sweep(make_spec(alphas=(0.0, 0.3)), jobs=jobs)

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

    @pytest.mark.parametrize("text", [DEFAULT_TEMPLATE_TEXT, "${draft}"])
    def test_negative_prefix_len_rejected(self, text):
        template = resolve_template(text, IntTokenizer(VOCAB))
        with pytest.raises(InvalidConfigError, match="prefix_len"):
            make_spec(templates=(template,), prefix_len=-1)

    def test_vanilla_row_reports_mat_one(self):
        spec = make_spec(strategies=("vanilla",), max_new_tokens=8)
        (row,) = run_sweep(spec)
        assert row.mat == 1.0


def ngram_spec(**kw):
    rng = make_rng(21)
    docs = tuple(tuple(int(t) for t in rng.integers(0, VOCAB - 1, size=30)) for _ in range(10))
    defaults = dict(
        base=ModelSpec("ngram", VOCAB, seed=3, order=2),
        corpus=docs,
        etas=(0.0, 0.3, 0.6),
        max_new_tokens=8,
    )
    defaults.update(kw)
    return make_spec(**defaults)


def dicts(rows):
    return [r.to_dict() for r in rows]


class TestSweepModels:
    """A sweep builds its models once per process and wraps them per cell."""

    def test_multi_cell_sweep_builds_once(self, monkeypatch):
        calls = []

        def counting_build(spec, corpus=None):
            calls.append(spec)
            return build_model(spec, corpus=corpus)

        monkeypatch.setattr(bench, "build_model", counting_build)
        spec = ngram_spec(alphas=(0.0, 0.3))
        rows = run_sweep(spec, jobs=1)
        assert len(rows) == 6 and all(r.error is None for r in rows)
        assert calls == [spec.base]
        run_sweep(spec, jobs=1)
        assert len(calls) == 2  # a new sweep builds anew

    def test_consecutive_sweeps_do_not_share_models(self):
        a = make_spec(base=ModelSpec("table", VOCAB, seed=11, order=2), etas=(0.0, 0.5))
        b = make_spec(base=ModelSpec("table", VOCAB, seed=12, order=2), etas=(0.0, 0.5))
        a_then_b = [dicts(run_sweep(a)), dicts(run_sweep(b))]
        b_then_a = [dicts(run_sweep(b)), dicts(run_sweep(a))]
        assert a_then_b[0] != a_then_b[1]
        assert a_then_b == b_then_a[::-1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_build_lands_in_every_row(self, jobs):
        spec = ngram_spec(corpus=None, alphas=(0.0, 0.3))
        rows = run_sweep(spec, jobs=jobs)
        assert len(rows) == 6
        template = spec.templates[0].text
        for row, (alpha, eta) in zip(rows, [(a, e) for a in (0.0, 0.3) for e in spec.etas]):
            assert row.to_dict(include_timing=True) == {
                "alpha": alpha,
                "gamma": 5,
                "strategy": "specsample",
                "eta": eta,
                "template": template,
                "seed": 0,
                "prefix_len": 4,
                "temperature": 0.8,
                "num_prompts": 3,
                "total_steps": 0,
                "output_tokens": 0,
                "mat": None,
                "acceptance_by_position": [],
                "mean_input_budget": None,
                "error": "InvalidConfigError: ngram models require a corpus",
                "tokens_per_s": None,
                "wall_time_s": None,
            }

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_internal_error_in_build_propagates(self, monkeypatch, jobs):
        def broken_build(spec, corpus=None):
            raise InternalConsistencyError("injected build fault")

        monkeypatch.setattr(bench, "build_model", broken_build)
        with pytest.raises(InternalConsistencyError, match="injected"):
            run_sweep(ngram_spec(), jobs=jobs)

    @pytest.mark.parametrize("start_method", ["default", "spawn"])
    def test_parallel_ngram_eta_grid_matches_serial(self, monkeypatch, start_method):
        spec = ngram_spec(alphas=(0.0, 0.3))
        serial = run_sweep(spec, jobs=1)
        assert all(r.error is None for r in serial)
        if start_method == "spawn":
            # Workers that share nothing with this process by fork.
            spawn_pool = functools.partial(
                concurrent.futures.ProcessPoolExecutor,
                mp_context=multiprocessing.get_context("spawn"),
            )
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawn_pool)
        assert dicts(run_sweep(spec, jobs=2)) == dicts(serial)


class TestReports:
    def test_csv_header_fixed(self, tmp_path):
        # The column order README's "Reports and stats files" section states.
        columns = (
            "alpha,gamma,strategy,eta,template,seed,prefix_len,temperature,num_prompts,"
            "total_steps,output_tokens,mat,acceptance_by_position,mean_input_budget,error"
        )
        timed = columns + ",tokens_per_s,wall_time_s"
        rows = run_sweep(make_spec(prompts=((1, 2, 3),), max_new_tokens=8))
        path = emit_report(rows, "csv", tmp_path / "r.csv")
        assert path.read_text().splitlines()[0] == columns
        assert render_report(rows, "csv", include_timing=True).splitlines()[0] == timed
        [record] = json.loads(render_report(rows, "json"))
        assert ",".join(record) == columns
        [record] = json.loads(render_report(rows, "json", include_timing=True))
        assert ",".join(record) == timed

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
        target = ReflectionAwareModel(target, spec.marker, spec.beta)
    return target, draft
