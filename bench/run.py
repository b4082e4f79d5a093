"""Host-time benchmark of xbarlstm: training, evaluation and bit-width sweeps.

    python3 bench/run.py --workload char_lm-qat --seed 1 --seconds 35 --trace 0

Runs the library in `src/` of the checkout that holds this file.  One
warm-up unit of the workload's work runs first; then the unit repeats
while the previous unit's duration still fits into `--seconds`.  Every
cell's output is checked.  The program prints one JSON line of details
followed by the result line `{"correct", "attempted", "failed",
"metrics"}`.  With `--trace 0` the metrics are the end-to-end ones over
the measured units; with `--trace 1` the library is traced from outside
(see tracing.py) and the metrics are the per-layer ones of the median
unit.  All times are host time.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import inspect
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"

CHAR_EPOCHS = 2          # calibration epoch + one quantized epoch per 4/4/4 cell
SWEEP_EPOCHS = 5
SWEEP_WEIGHT_BITS = (2, 4)
SWEEP_ADC_BITS = (2, 4)
SETUP_PER_UNIT = 3
# standalone evaluations of each trained model per unit: about 0.5 s of work
EVAL_ROUNDS = {"char_lm-qat": 3, "char_lm-noisy": 1, "word_lm-sweep": 4}

WORKLOADS = ("char_lm-qat", "char_lm-noisy", "word_lm-sweep")

END_TO_END = {
    "setup_s": "s",
    "train_tokens_per_s": "tokens/s",
    "eval_tokens_per_s": "tokens/s",
    "sweep_cells_per_min": "cells/min",
    "valid_nll": "nats",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span whose self time it reports
LAYER_TIMES = {
    "lstm.backward.s": "lstm.backward",
    "noise.draw.s": "noise.draw",
    "network.forward.fp.s": "network.forward.fp",
    "network.forward.calibrate.s": "network.forward.calibrate",
    "network.forward.quantized.s": "network.forward.quantized",
    "network.forward.eval.s": "network.forward.eval",
    "network.backward.s": "network.backward",
    "network.freeze_adc_ranges.s": "network.freeze_adc_ranges",
    "quantizer.to_code.s": "quantizer.to_code",
    "quantizer.from_code.s": "quantizer.from_code",
    "quantizer.quantize.s": "quantizer.quantize",
    "quantizer.ste_mask.s": "quantizer.ste_mask",
    "training.make_batches.s": "training.make_batches",
    "training.softmax_xent.s": "training.softmax_xent",
    "training.train.self.s": "training.train",
    "training.evaluate.s": "training.evaluate",
    "experiment.run.s": "experiment.run",
    "experiment.sweep.s": "experiment.sweep",
    "experiment.cell.s": "experiment.cell",
    "tasks.build_task.s": "tasks.build_task",
    "tasks.build_network.s": "tasks.build_network",
}

# per-layer metric -> the span that makes the count
LAYER_COUNTS = {
    "lstm.backward.steps": "lstm.backward",
    "noise.normals": "noise.draw",
    "network.forward.token_steps": "network.forward",
    "quantizer.to_code.calls": "quantizer.to_code",
    "quantizer.elements": "quantizer.to_code",
    "training.make_batches.calls": "training.make_batches",
    "training.evaluate.tokens": "training.softmax_xent",
    "experiment.cells": "experiment.cell",
}


@dataclass
class Unit:
    """One repetition of a workload's unit of work."""

    attempted: int = 0
    failed: int = 0
    cells_s: float = 0.0      # building and training the cells (experiment.run on the sweep)
    cells_done: int = 0
    train_tokens: int = 0
    train_s: float = 0.0
    eval_tokens: int = 0
    eval_s: float = 0.0
    nll: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)


def _tokens(dataset) -> int:
    """Target tokens of a language-model split (one per input step)."""
    return sum(len(targets) for _, targets in dataset.sequences)


def _bad_metric(value) -> str | None:
    if not math.isfinite(value):
        return f"final metric is not finite: {value!r}"
    return None


# --- workloads ----------------------------------------------------------------


def char_cells(workload: str) -> list[dict]:
    from xbarlstm.crossbar import NoiseConfig

    if workload == "char_lm-qat":
        return [{"bitwidths": None}, {"bitwidths": (4, 4, 4)}]
    return [{"bitwidths": (4, 4, 4),
             "noise": NoiseConfig(weight_noise_beta=0.2, adc_noise_enabled=True)}]


def sweep_cells() -> list[dict]:
    return [{"bitwidths": (wb, ab, ab)} for wb in SWEEP_WEIGHT_BITS for ab in SWEEP_ADC_BITS]


def measure_setup(task: str, cells: list[dict], seed: int, repeats: int) -> list[float]:
    """Host seconds of build_task plus build_network for every cell, per repeat."""
    from xbarlstm import tasks

    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for overrides in cells:
            bundle = tasks.build_task(task, seed=seed)
            tasks.build_network(bundle, replace(bundle.defaults, **overrides))
        samples.append(time.perf_counter() - t0)
    return samples


def evaluate_trained(unit: Unit, trained: list, rounds: int):
    """Evaluate every trained (model, valid split, cfg, report) standalone,
    `rounds` times.  Each evaluation uses the final report's noise streams
    and must reproduce its metric bit for bit; the cells that do are done."""
    from xbarlstm import training

    passing = list(trained)
    for _ in range(rounds):
        for item in list(passing):
            model, valid, cfg, report = item
            t0 = time.perf_counter()
            try:
                again = training.evaluate(model, valid, cfg, epoch_tag=cfg.epochs + 1)
            except Exception as exc:  # a failing cell is counted, the run goes on
                again = exc
            unit.eval_s += time.perf_counter() - t0
            unit.eval_tokens += _tokens(valid)
            if getattr(again, "metric", None) != report.metric:
                unit.fail(f"{cfg.bitwidths}: standalone evaluate gave {again!r}, "
                          f"train {report.metric!r}")
                passing.remove(item)
    for _, _, _, report in passing:
        unit.cells_done += 1
        unit.nll.append(math.log(report.perplexity))


def char_unit(cells: list[dict], seed: int, epochs: int, eval_rounds: int,
              task: str = "char_lm") -> Unit:
    """Build and train each cell from scratch, then evaluate the models."""
    from xbarlstm import tasks, training

    unit = Unit()
    start = time.perf_counter()
    trained = []
    for overrides in cells:
        unit.attempted += 1
        try:
            bundle = tasks.build_task(task, seed=seed)
            cfg = replace(bundle.defaults, epochs=epochs, **overrides)
            model = tasks.build_network(bundle, cfg)
            t0 = time.perf_counter()
            _, report = training.train(model, bundle.train, cfg, valid_dataset=bundle.valid,
                                       task_name=task)
            unit.train_s += time.perf_counter() - t0
        except Exception as exc:  # a failing cell is counted, the run goes on
            unit.fail(f"{overrides}: {exc!r}")
            continue
        unit.train_tokens += epochs * _tokens(bundle.train)
        if not math.isfinite(report.metric):
            unit.fail(f"{overrides}: final metric is not finite: {report.metric!r}")
            continue
        trained.append((model, bundle.valid, cfg, report))
    unit.cells_s = time.perf_counter() - start
    evaluate_trained(unit, trained, eval_rounds)
    return unit


@contextlib.contextmanager
def capturing_train(experiment, trained: list):
    """Keep the arguments and result of every train call the experiment
    layer makes, so the trained models can be evaluated afterwards."""
    inner = experiment.train
    sig = inspect.signature(inner)

    def train(*args, **kwargs):
        out = inner(*args, **kwargs)
        trained.append((sig.bind(*args, **kwargs).arguments, out))
        return out

    experiment.train = train
    try:
        yield
    finally:
        experiment.train = inner


def write_sweep_config(workdir: Path, epochs: int) -> Path:
    path = workdir / "sweep.ini"
    path.write_text(
        "[experiment]\ncommand = sweep\ntask = word_lm\n\n"
        f"[train]\nepochs = {epochs}\n\n"
        f"[sweep]\nweight_bits = {', '.join(map(str, SWEEP_WEIGHT_BITS))}\n"
        f"adc_bits = {', '.join(map(str, SWEEP_ADC_BITS))}\n")
    return path


def sweep_unit(config: Path, seed: int, threads: int, eval_rounds: int) -> Unit:
    """One `experiment.run` of the sweep config; metrics.csv must hold one
    finite row per grid cell, equal to what each cell's train returned.
    Then the cell models are evaluated."""
    from xbarlstm import experiment

    unit = Unit()
    n_cells = len(SWEEP_WEIGHT_BITS) * len(SWEEP_ADC_BITS)
    unit.attempted = n_cells
    out = config.parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    calls: list = []
    start = time.perf_counter()
    try:
        with capturing_train(experiment, calls):
            code = experiment.run(config, out_dir=out, seed=seed, threads=threads)
    except Exception as exc:  # counted as failed cells, the run goes on
        code = repr(exc)
    unit.train_s = time.perf_counter() - start

    values = {}
    if code == experiment.EXIT_OK:
        try:
            for row in (out / "metrics.csv").read_text().splitlines()[1:]:
                wb, ab, _, _, value = row.split(",")
                values[(int(wb), int(ab))] = float(value)
        except (OSError, ValueError) as exc:
            code = repr(exc)
    if code != experiment.EXIT_OK or len(values) != n_cells or len(calls) != n_cells:
        for _ in range(n_cells):
            unit.fail(f"experiment.run returned {code!r} with {len(values)} metrics.csv "
                      f"rows and {len(calls)} cells trained; expected {n_cells}")
        unit.cells_s = unit.train_s
        return unit

    trained = []
    for args, (model, report) in sorted(calls, key=lambda c: c[0]["cfg"].bitwidths):
        cfg = args["cfg"]
        unit.train_tokens += cfg.epochs * _tokens(args["dataset"])
        value = values.get(cfg.bitwidths[:2], math.nan)
        if not (math.isfinite(value) and value == report.metric):
            unit.fail(f"{cfg.bitwidths}: metrics.csv {value!r}, train {report.metric!r}")
            continue
        trained.append((model, args["valid_dataset"], cfg, report))
    unit.cells_s = unit.train_s
    evaluate_trained(unit, trained, eval_rounds)
    return unit


# --- environment --------------------------------------------------------------


def _blas_threads():
    """Threads the bundled OpenBLAS will use, or None if not found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


# --- metrics ------------------------------------------------------------------


def end_to_end(units: list[Unit], setup: list[float]) -> dict:
    """Rates are total work over total host time of the measured units."""
    ok = [u for u in units if u.cells_done and not u.failed]
    if not ok:
        return {}

    def rate(work, seconds):
        return sum(work(u) for u in ok) / sum(seconds(u) for u in ok)

    values = {
        "setup_s": statistics.median(setup),
        "train_tokens_per_s": rate(lambda u: u.train_tokens, lambda u: u.train_s),
        "eval_tokens_per_s": rate(lambda u: u.eval_tokens, lambda u: u.eval_s),
        "sweep_cells_per_min": 60 * rate(lambda u: u.cells_done, lambda u: u.cells_s),
        "valid_nll": statistics.median(statistics.fmean(u.nll) for u in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(walls: list[float], deltas: list[tuple[dict, dict]], absent: list[str]) -> dict:
    """Per-layer numbers of the unit with the median wall time; its self
    times plus `trace.remainder.s` add up to `trace.unit.s`."""
    k = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
    self_s, counts = deltas[k]
    gone = set(absent)
    if "network.forward" in gone:
        gone.update(s for s in LAYER_TIMES.values() if s.startswith("network.forward."))
    metrics = {}
    for name, span in LAYER_TIMES.items():
        if span not in gone:
            metrics[name] = {"value": self_s.get(span, 0.0), "unit": "s"}
    for name, span in LAYER_COUNTS.items():
        if span not in gone:
            metrics[name] = {"value": counts.get(name, 0), "unit": "count"}
    reported = sum(m["value"] for n, m in metrics.items() if n in LAYER_TIMES)
    metrics["trace.unit.s"] = {"value": walls[k], "unit": "s"}
    metrics["trace.remainder.s"] = {"value": walls[k] - reported, "unit": "s"}
    return metrics


def _delta(before: tuple[dict, dict], after: tuple[dict, dict]) -> tuple[dict, dict]:
    return tuple({k: v - old.get(k, 0) for k, v in new.items()}
                 for old, new in zip(before, after))


# --- main loop ----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (details, result)."""
    from tracing import Tracer

    tracer = Tracer() if trace else None
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS_DIR))
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            if workload == "word_lm-sweep":
                task, cells = "word_lm", sweep_cells()
                config = write_sweep_config(workdir, SWEEP_EPOCHS)
                threads = len(os.sched_getaffinity(0))
                unit_fn = lambda: sweep_unit(config, seed, threads,  # noqa: E731
                                             EVAL_ROUNDS[workload])
            else:
                task, cells = "char_lm", char_cells(workload)
                unit_fn = lambda: char_unit(cells, seed, CHAR_EPOCHS,  # noqa: E731
                                            EVAL_ROUNDS[workload])
            # Set-up samples are spread over the run so that they see the
            # same host speed as the units.  The first unit warms up the
            # allocator and BLAS threads and is left out of the metrics; a
            # unit starts only if the previous one's duration still fits.
            setup, units, walls, deltas = [], [], [], []
            deadline = time.perf_counter() + seconds
            while len(units) < 2 or time.perf_counter() + walls[-1] <= deadline:
                setup += measure_setup(task, cells, seed, SETUP_PER_UNIT)
                before = tracer.snapshot() if tracer else None
                t0 = time.perf_counter()
                units.append(unit_fn())
                walls.append(time.perf_counter() - t0)
                if tracer:
                    deltas.append(_delta(before, tracer.snapshot()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS_DIR.rmdir()

    errors = [e for u in units for e in u.errors]
    if any(u.nll != units[0].nll for u in units):
        errors.append("repeated units of one seed disagree: "
                      f"{sorted({tuple(u.nll) for u in units})}")
    if tracer and any(d[1] != deltas[0][1] for d in deltas):
        errors.append("traced counts differ between repeated units")
    e2e = end_to_end(units[1:], setup)
    metrics = per_layer(walls[1:], deltas[1:], tracer.absent()) if tracer else e2e
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    result = {"correct": not errors and failed == 0 and bool(metrics),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "units": len(units),
        "unit_wall_s": walls,
        "setup_samples_s": setup,
        "errors": errors,
    }
    if tracer:
        details["absent"] = tracer.absent()
        details["traced_end_to_end"] = {k: v["value"] for k, v in e2e.items()}
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # the benchmark leaves nothing behind
    if not (SRC / "xbarlstm" / "__init__.py").is_file():
        print(f"error: no xbarlstm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
