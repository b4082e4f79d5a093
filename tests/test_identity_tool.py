"""tools/identity.py: the comparison step, on output trees written here
(the script's runs of whole revisions take far longer than a unit test)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity", TOOL)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def _tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_compare_reports_each_file(tmp_path):
    a = _tree(tmp_path / "a", {"x/metrics.csv": b"1,2\n", "x/report.json": b"{}\n",
                               "cost/comparison.txt": b"t\n"})
    b = _tree(tmp_path / "b", {"x/metrics.csv": b"1,2\n", "x/report.json": b"{ }\n"})
    (b / "cost" / "comparison.txt").mkdir(parents=True)  # not a file: missing
    files = ["x/metrics.csv", "x/report.json", "cost/comparison.txt", "y/metrics.csv"]
    assert identity.compare(a, b, files) == [
        ("identical", "x/metrics.csv"), ("differs", "x/report.json"),
        ("missing", "cost/comparison.txt"), ("missing", "y/metrics.csv")]


def test_every_cost_config_compares_its_tables():
    files = identity.expected_files()
    for name, (command, _) in identity.CONFIGS.items():
        assert {f"{name}/metrics.csv", f"{name}/report.json"} <= set(files)
        assert (f"{name}/comparison.csv" in files) == (command == "cost")
    assert len(files) == len(set(files))


def test_main_rejects_wrong_arguments(capsys):
    assert identity.main(["HEAD"]) == 2
    assert "usage" in capsys.readouterr().err
