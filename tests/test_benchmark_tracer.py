"""The benchmark's per-layer tracer still finds every coxlab name it wraps.

``perfbench/run.py --trace 1`` wraps functions of each coxlab module by
name, so a refactor that deletes or renames one of them would otherwise
break only that traced run.
"""

import importlib
from pathlib import Path

from coxlab import model, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    relator_report, commutes_with = model.relator_report, model.ModelElement.commutes_with
    tracer.install()
    try:
        assert model.relator_report is not relator_report
        assert model.ModelElement.commutes_with is not commutes_with
    finally:
        tracer.uninstall()
    assert model.relator_report is relator_report
    assert model.ModelElement.commutes_with is commutes_with


def test_tracer_sees_every_suite_of_all(monkeypatch, paper):
    # run_suite looks each suite up by name, so the wrapped function runs.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.start_job()
    tracer.install()
    try:
        verify.run_suite(paper.x0, "all")
    finally:
        tracer.uninstall()
    for name in verify.SUITES:
        assert tracer.calls[f"verify._suite_{name}"] == 1
