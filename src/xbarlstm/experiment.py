"""Experiment harness: resolve a config file, run one command, write
manifest.json / report.json / metrics.csv into the output directory.

Config files are flat INI-style sections ([experiment], [train], [noise],
[hw], [sweep]) or JSON with the same section names; a previously written
manifest.json is itself a valid JSON config, so any run can be reproduced
from its manifest alone.  All randomness derives from the one root seed
through named streams, and metrics.csv is written deterministically, so
two runs of the same resolved config produce byte-identical metrics.

Commands:
    train        one train+evaluate on a task
    sweep        bit-width grid (weight bits x ADC/DAC bits), shared seeds
    noise-sweep  weight-noise beta sweep and/or ADC-noise on/off sweep
    cost         hardware cost report plus the comparison tables

Exit codes: 0 success, 2 config error, 3 training divergence,
4 infeasible hardware parameters.
"""

from __future__ import annotations

import configparser
import json
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .crossbar import NoiseConfig
from .hwcost import HwParams, InfeasibleHardware, cost_report, render_comparison_tables, MM2
from .tasks import TASK_NAMES, build_network, build_task
from .training import EvalReport, TrainConfig, TrainingDiverged, train

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "load_config",
    "run",
    "run_experiment",
    "exit_code",
    "sweep_bitwidths",
    "noise_sweep",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_DIVERGED",
    "EXIT_INFEASIBLE",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_INFEASIBLE = 4

COMMANDS = ("train", "sweep", "cost", "noise-sweep")


class ConfigError(ValueError):
    pass


@dataclass
class SweepConfig:
    weight_bits: tuple[int, ...] = (1, 2, 3, 4)
    adc_bits: tuple[int, ...] = (1, 2, 3, 4)
    seeds: tuple[int, ...] = ()          # empty: use the experiment seed
    betas: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)
    adc_noise_grid: tuple[str, ...] = ()  # e.g. ('off', 'on')

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentConfig:
    """A resolved experiment.  `train_overrides` holds exactly the train
    keys the config set explicitly; task defaults fill the rest at run
    time, so a manifest re-run resolves identically."""

    command: str
    task: str = "char_lm"
    out_dir: str = "runs/out"
    seed: int = 1
    threads: int = 1
    train_overrides: dict = field(default_factory=dict)
    hw: HwParams = field(default_factory=HwParams)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; expected one of {COMMANDS}")
        if self.command != "cost" and self.task not in TASK_NAMES:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASK_NAMES}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if not str(self.out_dir).strip():
            raise ConfigError("out must name a directory, got an empty value")
        # surface invalid values now, before any compute starts
        try:
            TrainConfig(**self.train_overrides)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid train config: {exc}") from exc

    def seeds(self) -> tuple[int, ...]:
        return self.sweep.seeds if self.sweep.seeds else (self.seed,)

    def as_dict(self) -> dict:
        train = dict(self.train_overrides)
        if isinstance(train.get("noise"), NoiseConfig):
            train["noise"] = asdict(train["noise"])
        if train.get("bitwidths") is not None:
            train["bitwidths"] = list(train["bitwidths"])
        return {
            "experiment": {"command": self.command, "task": self.task,
                           "out": self.out_dir, "seed": self.seed, "threads": self.threads},
            "train": train,
            "hw": asdict(self.hw),
            "sweep": self.sweep.as_dict(),
        }


# --- config parsing -------------------------------------------------------------

_BOOLS = {"on": True, "true": True, "yes": True, "1": True,
          "off": False, "false": False, "no": False, "0": False}


def _coerce(value, target_type, key: str):
    """`value` as an int, float or bool by the INI rules, also for JSON
    input: a JSON number or boolean is read as the text an INI file would
    hold, so 2.7 is no int, 5 no boolean and true no number.  Other target
    types take the value as given."""
    if target_type not in (int, float, bool):
        return value.strip() if isinstance(value, str) else value
    text = str(value).strip()
    if target_type is bool:
        if text.lower() not in _BOOLS:
            raise ConfigError(f"{key}: expected a boolean, got {value!r}")
        return _BOOLS[text.lower()]
    try:
        return target_type(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {target_type.__name__}, got {value!r}") from exc


def _parse_list(value, item, key: str):
    parts = value if isinstance(value, (list, tuple)) else str(value).replace(",", " ").split()
    return tuple(_coerce(p, item, key) for p in parts)


def _sections_from_ini(text: str, path: Path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
        # values are interpolated as they are read
        return {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _sections_from_json(text: str, path: Path) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    # manifests carry extra sections (environment, results); ignore them
    return {k: v for k, v in data.items()
            if k in ("experiment", "train", "noise", "hw", "sweep") and isinstance(v, dict)}


_TRAIN_KEY_TYPES = {
    "optimizer": str, "learning_rate": float, "lr_decay": float, "epochs": int,
    "batch_size": int, "bptt_length": int, "grad_clip": float,
    "weight_range": float, "adc_range_percentile": float, "hidden_size": int,
    "init_scale": float, "input_drive": str,
}

_NOISE_KEY_TYPES = {
    "adc_noise": ("adc_noise_enabled", bool),
    "adc_noise_enabled": ("adc_noise_enabled", bool),
    "weight_noise_beta": ("weight_noise_beta", float),
    # parsed, then dropped: weight noise is redrawn on every read, and
    # older manifests all carry `true`
    "resample_per_read": ("resample_per_read", bool),
}


def _is_unset(raw) -> bool:
    return raw is None or (isinstance(raw, str) and raw.strip().lower() in ("", "none", "null"))


def _build_train_overrides(sec: dict, noise_sec: dict) -> dict:
    """Explicitly-set train keys only, coerced; includes 'bitwidths' and
    'noise' when given."""
    sec = dict(sec)
    overrides: dict = {}

    noise_kwargs = {}
    inline_noise = sec.pop("noise", None)
    if not (_is_unset(inline_noise) or isinstance(inline_noise, dict)):
        raise ConfigError(f"noise: expected a section of noise keys, got {inline_noise!r}")
    for source in (noise_sec, inline_noise if isinstance(inline_noise, dict) else {}):
        for key, raw in source.items():
            if key == "seed":
                continue  # accepted from older configs; noise streams derive from the train seed
            if key not in _NOISE_KEY_TYPES:
                raise ConfigError(f"unknown noise key {key!r}")
            name, typ = _NOISE_KEY_TYPES[key]
            noise_kwargs[name] = _coerce(raw, typ, key)
    if noise_kwargs:
        if (not noise_kwargs.pop("resample_per_read", True)
                and noise_kwargs.get("weight_noise_beta", 0.0) > 0.0):
            raise ConfigError("resample_per_read = false (one fixed programming-noise "
                              "draw) is not modelled; weight noise is redrawn on every read")
        try:
            overrides["noise"] = NoiseConfig(**noise_kwargs)
        except ValueError as exc:
            raise ConfigError(f"invalid noise config: {exc}") from exc

    bits = sec.pop("bitwidths", None)
    wb, ab, db = (sec.pop(k, None) for k in ("weight_bits", "adc_bits", "dac_bits"))
    if bits is None and any(v is not None for v in (wb, ab, db)):
        if not all(v is not None for v in (wb, ab, db)):
            raise ConfigError("set all of weight_bits, adc_bits, dac_bits (or none for FP)")
        bits = (wb, ab, db)
    if not _is_unset(bits) and str(bits).strip().lower() != "fp":
        overrides["bitwidths"] = _parse_list(bits, int, "bitwidths")

    raw_override = sec.pop("adc_range_override", None)
    if not _is_unset(raw_override):
        vals = _parse_list(raw_override, float, "adc_range_override")
        overrides["adc_range_override"] = vals[0] if len(vals) == 1 else vals

    for key, raw in sec.items():
        if key not in _TRAIN_KEY_TYPES:
            raise ConfigError(f"unknown [train] key {key!r}")
        if _is_unset(raw):
            continue
        overrides[key] = _coerce(raw, _TRAIN_KEY_TYPES[key], key)
    return overrides


def _build_hw(sec: dict) -> HwParams:
    kwargs = {}
    hmap = {f.name: f for f in fields(HwParams)}
    for key, raw in sec.items():
        name = key
        scale = 1.0
        if key in ("adc_area_4bit_mm2", "residual_area_mm2"):
            name = key[:-4]
            scale = MM2
        if name not in hmap:
            raise ConfigError(f"unknown [hw] key {key!r}")
        typ = int if hmap[name].type == "int" else float
        kwargs[name] = _coerce(raw, typ, key) * (scale if typ is float else 1)
    try:
        return HwParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid hw params: {exc}") from exc


def _build_sweep(sec: dict) -> SweepConfig:
    kwargs = {}
    for key, raw in sec.items():
        if key in ("weight_bits", "adc_bits", "seeds"):
            kwargs[key] = _parse_list(raw, int, key)
            if key != "seeds" and not all(1 <= b <= 16 for b in kwargs[key]):
                raise ConfigError(f"{key}: bit widths must be in [1, 16], got {raw!r}")
        elif key == "betas":
            kwargs[key] = _parse_list(raw, float, key)
        elif key == "adc_noise_grid":
            grid = _parse_list(raw, str, key)
            for g in grid:
                if g not in ("on", "off"):
                    raise ConfigError(f"adc_noise_grid entries must be on/off, got {g!r}")
            kwargs[key] = grid
        else:
            raise ConfigError(f"unknown [sweep] key {key!r}")
    return SweepConfig(**kwargs)


def load_config(path, out_dir=None, seed=None, threads=None) -> ExperimentConfig:
    """Parse an INI or JSON config file into a validated ExperimentConfig.
    Explicit arguments override the file's values."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    sections = (_sections_from_json(text, path) if text.lstrip().startswith("{")
                else _sections_from_ini(text, path))
    exp = dict(sections.get("experiment", {}))
    command = exp.pop("command", None)
    if command is None:
        raise ConfigError(f"{path}: missing command in [experiment]")
    task = exp.pop("task", "char_lm")
    file_out = exp.pop("out", None)
    file_seed = exp.pop("seed", None)
    file_threads = exp.pop("threads", None)
    if exp:
        raise ConfigError(f"unknown [experiment] keys: {sorted(exp)}")

    root_seed = seed if seed is not None else (
        _coerce(file_seed, int, "seed") if file_seed is not None else 1)
    train_sec = dict(sections.get("train", {}))
    train_sec.pop("seed", None)  # the experiment seed is authoritative
    return ExperimentConfig(
        command=str(command), task=str(task),
        out_dir=str(out_dir if out_dir is not None else (
            file_out if file_out is not None else "runs/out")),
        seed=root_seed,
        threads=_coerce(threads if threads is not None else (
            file_threads if file_threads is not None else 1), int, "threads"),
        train_overrides=_build_train_overrides(train_sec, sections.get("noise", {})),
        hw=_build_hw(sections.get("hw", {})),
        sweep=_build_sweep(sections.get("sweep", {})),
    )


# --- sweep operations -----------------------------------------------------------

def _train_cell(task: str, overrides: dict, seed: int) -> EvalReport:
    """One train+evaluate with the task defaults overlaid by `overrides`."""
    bundle = build_task(task, seed=seed)
    cell_cfg = replace(bundle.defaults, **{**overrides, "seed": seed})
    try:
        model = build_network(bundle, cell_cfg)
    except ValueError as exc:
        raise ConfigError(f"invalid network config: {exc}") from exc
    _, report = train(model, bundle.train, cell_cfg, valid_dataset=bundle.valid,
                      task_name=task)
    return report


def sweep_bitwidths(task: str, weight_bits, adc_bits, base_overrides: dict | None = None,
                    seeds=(1, 2, 3), threads: int = 1) -> dict:
    """Train+evaluate every (weight bits, ADC/DAC bits) cell with shared
    seeds; returns cells plus the seed-mean metric matrix."""
    base = dict(base_overrides or {})
    grid = [(wb, ab, seed) for wb in weight_bits for ab in adc_bits for seed in seeds]

    def cell(args):
        wb, ab, seed = args
        rep = _train_cell(task, {**base, "bitwidths": (wb, ab, ab)}, seed)
        return {"weight_bits": wb, "adc_bits": ab, "seed": seed,
                "metric_name": rep.metric_name, "metric": rep.metric}

    results = _map_maybe_parallel(cell, grid, threads)
    matrix = np.zeros((len(weight_bits), len(adc_bits)))
    for i, wb in enumerate(weight_bits):
        for j, ab in enumerate(adc_bits):
            vals = [r["metric"] for r in results
                    if r["weight_bits"] == wb and r["adc_bits"] == ab]
            matrix[i, j] = float(np.mean(vals))
    return {"task": task, "weight_bits": list(weight_bits), "adc_bits": list(adc_bits),
            "seeds": list(seeds), "cells": results, "mean_matrix": matrix.tolist(),
            "metric_name": results[0]["metric_name"] if results else None}


def noise_sweep(task: str, betas, base_overrides: dict | None = None, seeds=(1,),
                adc_noise_grid=(), adc_bits_grid=(), threads: int = 1) -> dict:
    """One full train+evaluate per grid point with shared seeds.

    Produces the metric-vs-beta table (weight noise, ADC noise off) and,
    when `adc_noise_grid` names 'on'/'off' states, a metric-vs-ADC-bits
    table for each state.  Beta values must lie within the supported
    [0, 0.2] range.
    """
    base = dict(base_overrides or {})
    base_bits = tuple(base.get("bitwidths") or (4, 4, 4))
    jobs = []
    for beta in betas:
        for seed in seeds:
            jobs.append(("weight_noise", float(beta), "off", base_bits[1], seed))
    bits_list = tuple(adc_bits_grid) or (base_bits[1],)
    for state in adc_noise_grid:
        for ab in bits_list:
            for seed in seeds:
                jobs.append(("adc_noise", 0.0, state, int(ab), seed))

    def cell(job):
        kind, beta, adc_state, ab, seed = job
        noise = NoiseConfig(adc_noise_enabled=(adc_state == "on"), weight_noise_beta=beta)
        bits = (base_bits[0], ab, ab)
        rep = _train_cell(task, {**base, "noise": noise, "bitwidths": bits}, seed)
        return {"kind": kind, "beta": beta, "adc_noise": adc_state,
                "weight_bits": bits[0], "adc_bits": bits[1],
                "seed": seed, "metric_name": rep.metric_name, "metric": rep.metric}

    results = _map_maybe_parallel(cell, jobs, threads)
    return {"task": task, "betas": [float(b) for b in betas],
            "adc_noise_grid": list(adc_noise_grid), "seeds": list(seeds),
            "cells": results}


def _map_maybe_parallel(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# --- artifact writing -----------------------------------------------------------

def _write_manifest(cfg: ExperimentConfig, out: Path):
    manifest = cfg.as_dict()
    manifest["environment"] = {
        "package": "xbarlstm",
        "version": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the command and write manifest.json, report.json, metrics.csv
    (plus comparison tables for `cost`) into cfg.out_dir."""
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    _write_manifest(cfg, out)

    if cfg.command == "cost":
        try:
            rep = cost_report(cfg.hw)
        except OverflowError as exc:  # e.g. 2.0 ** (2 * enob) for a huge adc_bits
            raise ConfigError(f"hw params overflow the cost model: {exc}") from exc
        report = rep.as_dict()
        d = report
        rows = [
            ["vmm_throughput_gops", d["vmm_throughput_gops"]],
            ["overall_throughput_gops", d["overall_throughput_gops"]],
            ["power_adc_w", d["power_w"]["adc"]],
            ["power_array_w", d["power_w"]["array"]],
            ["power_residual_w", d["power_w"]["residual"]],
            ["power_total_w", d["power_w"]["total"]],
            ["area_adc_mm2", d["area_mm2"]["adc"]],
            ["area_array_mm2", d["area_mm2"]["array"]],
            ["area_residual_mm2", d["area_mm2"]["residual"]],
            ["area_total_mm2", d["area_mm2"]["total"]],
            ["computing_efficiency_gops_per_w", d["computing_efficiency_gops_per_w"]],
            ["area_efficiency_gops_per_mm2", d["area_efficiency_gops_per_mm2"]],
        ]
        _write_csv(out / "metrics.csv", ["name", "value"], rows)
        (out / "comparison.txt").write_text(render_comparison_tables(cfg.hw))
        (out / "comparison.csv").write_text(render_comparison_tables(cfg.hw, fmt="csv"))

    elif cfg.command == "train":
        report_obj = _train_cell(cfg.task, cfg.train_overrides, cfg.seed)
        report = report_obj.as_dict()
        rows = [[e, "train", "loss", v] for e, v in report_obj.train_loss_curve]
        rows += [[e, "valid", report_obj.metric_name, v] for e, v in report_obj.curve]
        _write_csv(out / "metrics.csv", ["epoch", "split", "metric", "value"], rows)

    elif cfg.command == "sweep":
        report = sweep_bitwidths(cfg.task, cfg.sweep.weight_bits, cfg.sweep.adc_bits,
                                 cfg.train_overrides, seeds=cfg.seeds(),
                                 threads=cfg.threads)
        rows = [[c["weight_bits"], c["adc_bits"], c["seed"], c["metric_name"], c["metric"]]
                for c in report["cells"]]
        _write_csv(out / "metrics.csv",
                   ["weight_bits", "adc_bits", "seed", "metric", "value"], rows)

    else:  # noise-sweep
        for beta in cfg.sweep.betas:
            if not 0.0 <= beta <= 0.2:
                raise ConfigError(f"beta {beta} outside the supported [0, 0.2] range")
        report = noise_sweep(cfg.task, cfg.sweep.betas, cfg.train_overrides,
                             seeds=cfg.seeds(),
                             adc_noise_grid=cfg.sweep.adc_noise_grid,
                             adc_bits_grid=cfg.sweep.adc_bits if cfg.sweep.adc_noise_grid else (),
                             threads=cfg.threads)
        rows = [[c["kind"], c["beta"], c["adc_noise"], c["weight_bits"], c["adc_bits"],
                 c["seed"], c["metric_name"], c["metric"]] for c in report["cells"]]
        _write_csv(out / "metrics.csv",
                   ["kind", "beta", "adc_noise", "weight_bits", "adc_bits",
                    "seed", "metric", "value"], rows)

    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def run(config_path, out_dir=None, seed=None, threads=None) -> int:
    """Load a config file and execute it; returns the process exit code."""
    return exit_code(lambda: run_experiment(
        load_config(config_path, out_dir=out_dir, seed=seed, threads=threads)))


def exit_code(action: Callable[[], object]) -> int:
    """Call `action` and map its outcome to the documented exit code: 0 on
    success, else 2, 3 or 4 for a config error, a diverged training run or
    infeasible hardware, with the message on stderr."""
    try:
        action()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except InfeasibleHardware as exc:
        print(f"infeasible hardware: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK
