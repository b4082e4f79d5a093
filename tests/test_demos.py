"""Every demo runs to completion against the current API and leaves no
file behind; the training demos run at one epoch per task."""

import runpy
from pathlib import Path

import pytest

from xbarlstm import tasks

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, capsys, monkeypatch):
    for defaults in tasks._TASK_DEFAULTS.values():
        monkeypatch.setitem(defaults, "epochs", 1)
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
