"""The benchmark in ``perfbench/`` imports and patches package names by hand.

A name it relies on that is deleted or renamed (an engine binding it spans,
``bench.build_model``, ``bench.decode``, a public constructor) breaks the
benchmark without breaking any other test; this one fails instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("spans"), importlib.import_module("workloads")
    for name in ("spans", "workloads"):
        sys.modules.pop(name, None)


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
