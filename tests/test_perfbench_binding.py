"""The benchmark in ``perfbench/`` imports and patches package names by hand.

A name it relies on that is deleted or renamed (an engine binding it spans,
``bench.build_model``, ``bench.decode``, a public constructor) breaks the
benchmark without breaking any other test; this one fails instead. The
default seed's outputs of every workload must also still match the digests
and MAT values in ``perfbench/expected.json``.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from reflectspec import tokens
from reflectspec.engine import DecodeConfig
from reflectspec.models import TableModel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("spans"), importlib.import_module("workloads")
    for name in ("spans", "workloads", "run"):
        sys.modules.pop(name, None)


def test_every_workload_has_expected_outputs(perfbench):
    _, workloads = perfbench
    assert set(workloads.WORKLOADS) == set(EXPECTED["workloads"])


@pytest.mark.parametrize("name", sorted(EXPECTED["workloads"]))
def test_default_seed_outputs_match_expected(perfbench, name):
    # One pass under the tracer, as the benchmark's gate runs it: every
    # decode's counted model positions are checked, and the sweep runs
    # in-process (jobs=1), whose rows the determinism contract makes equal
    # to the benchmark's jobs=2 rows.
    _, workloads = perfbench
    run = importlib.import_module("run")
    checks = run.Checks(workloads.WORKLOADS[name](EXPECTED["default_seed"]))
    pass_digest, pass_mat = run.checked_pass(checks)
    assert checks.failed == 0 and checks.attempted > 0
    assert {"digest": pass_digest, "mat": pass_mat} == EXPECTED["workloads"][name]


def test_workloads_build_and_run_under_the_tracer(perfbench):
    spans, workloads = perfbench
    built = {name: make(0) for name, make in workloads.WORKLOADS.items()}
    table = built["table-short"]
    tracer = spans.Tracer()
    with tracer.installed():
        for i in (0, 3):  # the reflective template, then the plain one
            _, result = table.run(i, tracer)
            assert table.outcome(i, result).errors == []
    assert tracer.decodes == 2
    # Plain and reflective steps both commit through commit_and_prune.
    assert tracer.counts["commit_and_prune"] == tracer.counts["steps"] > 0


def test_traced_check_takes_a_vanilla_decode(perfbench):
    # Vanilla steps feed nothing and emit their bonus through the one commit
    # path, so the benchmark's position identity holds for them too.
    spans, _ = perfbench
    tracer = spans.Tracer()
    config = DecodeConfig(strategy="vanilla", max_new_tokens=5)
    with tracer.installed():
        output, stats = spans.traced_decode(tracer, TableModel(16), TableModel(16), [1, 2, 3], config)
    assert len(output) == stats.num_steps == 5
    assert tracer.counts["commit_and_prune"] == tracer.counts["steps"] == 5


def test_a_second_table_short_pass_computes_no_window(perfbench, monkeypatch):
    # Every table-short model keeps a logits table (V=64, order 2), so each
    # model computes a window on its first lookup only, however often the
    # pass repeats.
    _, workloads = perfbench
    workload = workloads.WORKLOADS["table-short"](EXPECTED["default_seed"])
    calls = []
    window_logits = TableModel.window_logits

    def counted(self, window):
        calls.append((id(self), window))
        return window_logits(self, window)

    monkeypatch.setattr(TableModel, "window_logits", counted)
    for i in range(len(workload)):
        workload.run(i)
    assert len(calls) == len(set(calls)) > 0
    calls.clear()
    for i in range(len(workload)):
        workload.run(i)
    assert calls == []


def test_a_second_table_short_pass_makes_no_draft_softmax(perfbench, monkeypatch):
    # The draft's q rows are tabled per window at the decode's temperature,
    # so once a pass has filled them, drafting a token computes no softmax.
    # A call counts as the draft's when it runs under ``generate_draft`` or
    # ``next_distribution``.
    _, workloads = perfbench
    workload = workloads.WORKLOADS["table-short"](EXPECTED["default_seed"])
    softmax, calls = tokens.softmax, []

    def counted(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name in ("generate_draft", "next_distribution"):
                calls.append(frame.f_code.co_name)
                break
            frame = frame.f_back
        return softmax(*args, **kwargs)

    monkeypatch.setattr(tokens, "softmax", counted)
    for i in range(len(workload)):
        workload.run(i)
    assert calls
    calls.clear()
    for i in range(len(workload)):
        workload.run(i)
    assert calls == []
