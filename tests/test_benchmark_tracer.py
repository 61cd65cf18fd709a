"""The benchmark's per-layer tracer still finds every coxlab name it wraps.

``perfbench/run.py --trace 1`` wraps functions of each coxlab module by
name, so a refactor that deletes or renames one of them would otherwise
break only that traced run.
"""

import importlib
from pathlib import Path

from coxlab import model

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
