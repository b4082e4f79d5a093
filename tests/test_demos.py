"""Every demo runs to completion against the current API; the training
demos run at one epoch per task."""

import runpy
from pathlib import Path

import pytest

from xbarlstm import tasks

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["quantizer_basics", "cost_model_tables", "crossbar_reads",
                                  "har_classification", "char_names_training",
                                  "bitwidth_sweep", "noise_robustness"])
def test_demo_runs(name, capsys, monkeypatch):
    for defaults in tasks._TASK_DEFAULTS.values():
        monkeypatch.setitem(defaults, "epochs", 1)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
