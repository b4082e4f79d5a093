"""The fast demos run to completion against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["quantizer_basics", "cost_model_tables", "crossbar_reads"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
