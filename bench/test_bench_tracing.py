"""Tracing changes no results, counts repeat exactly, self times add up.

Runs the benchmark's own unit functions at reduced scale (word_lm, few
epochs) so the suite stays fast; the full-size workloads make the same
calls.
"""

from __future__ import annotations

import importlib.util
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402
from xbarlstm import training  # noqa: E402
from xbarlstm.crossbar import NoiseConfig  # noqa: E402

_spec = importlib.util.spec_from_file_location("xbarlstm_bench_run", BENCH / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

NOISY = [{"bitwidths": (4, 4, 4),
          "noise": NoiseConfig(weight_noise_beta=0.2, adc_noise_enabled=True)}]
CLEAN = [{"bitwidths": None}, {"bitwidths": (4, 4, 4)}]


def _traced_unit(unit_fn):
    """(unit, wall seconds, (self times, counts), tracer) of one traced unit."""
    tracer = tracing.Tracer()
    with tracer.installed():
        before = tracer.snapshot()
        t0 = time.perf_counter()
        unit = unit_fn()
        wall = time.perf_counter() - t0
        after = tracer.snapshot()
    return unit, wall, bench._delta(before, after), tracer


def _char(cells):
    return lambda: bench.char_unit(cells, seed=3, epochs=2, eval_rounds=1, task="word_lm")


def test_traced_cell_results_are_bit_identical():
    plain = _char(NOISY)()
    traced, _, _, _ = _traced_unit(_char(NOISY))
    assert plain.failed == traced.failed == 0
    assert plain.nll == traced.nll
    assert all(math.isfinite(v) for v in plain.nll)


def test_exact_counts_repeat_and_separate_noise():
    _, _, (_, first), _ = _traced_unit(_char(NOISY))
    _, _, (_, second), _ = _traced_unit(_char(NOISY))
    assert first == second
    for name in ("noise.normals", "quantizer.elements", "network.forward.token_steps",
                 "lstm.backward.steps"):
        assert first[name] > 0, name
    _, _, (_, clean), _ = _traced_unit(_char(CLEAN))
    assert clean.get("noise.normals", 0) == 0
    assert clean.get("experiment.cells", 0) == 0


def test_forward_is_split_by_mode_and_self_times_add_up():
    _, wall, delta, tracer = _traced_unit(_char(CLEAN))
    layers = bench.per_layer([wall], [delta], tracer.absent())
    for mode in ("fp", "calibrate", "quantized", "eval"):
        assert layers[f"network.forward.{mode}.s"]["value"] > 0, mode
    assert layers["experiment.cell.s"]["value"] == 0
    times = sum(m["value"] for n, m in layers.items() if n in bench.LAYER_TIMES)
    remainder = layers["trace.remainder.s"]["value"]
    assert remainder >= 0
    assert times + remainder == pytest.approx(layers["trace.unit.s"]["value"], abs=1e-9)


def test_traced_sweep_matches_untraced_and_attributes_threads(tmp_path):
    config = bench.write_sweep_config(tmp_path, epochs=1)
    plain = bench.sweep_unit(config, seed=5, threads=2, eval_rounds=1)
    traced, wall, (self_s, counts), _ = _traced_unit(
        lambda: bench.sweep_unit(config, seed=5, threads=2, eval_rounds=1))
    assert plain.failed == traced.failed == 0
    assert plain.nll == traced.nll
    assert counts["experiment.cells"] == plain.attempted
    assert self_s["experiment.cell"] >= 0 and self_s["experiment.sweep"] > 0
    assert sum(self_s.values()) <= wall


def test_tracer_restores_originals_and_reports_absent_names(monkeypatch):
    original = training.train
    monkeypatch.setitem(tracing.FUNCTION_SPANS, "training.no_such_function", "training.gone")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert training.train is not original
    assert training.train is original
    assert tracer.absent() == ["training.gone"]


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "char_lm-qat",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
