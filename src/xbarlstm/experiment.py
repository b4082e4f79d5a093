"""Experiment harness: resolve a config file, run one command, write
manifest.json / report.json / metrics.csv into the output directory.

Config files are flat INI-style sections ([experiment], [train], [noise],
[hw], [sweep]) or JSON with the same section names; a previously written
manifest.json is itself a valid JSON config, so any run can be reproduced
from its manifest alone.  All randomness derives from the one root seed
through named streams, and metrics.csv is written deterministically, so
two runs of the same resolved config produce byte-identical metrics.
Each key of [train], [noise], [hw] and [sweep] sets the field of its name
(or of its alias) in the dataclass the section fills, typed by that
field's annotation, and a field is set by one key only.  A value that
`READS` says the command does not read must keep its default.

Commands:
    train        one train+evaluate on a task
    sweep        bit-width grid (weight bits x ADC/DAC bits), shared seeds
    noise-sweep  weight-noise beta sweep and/or ADC-noise on/off sweep
    cost         hardware cost report plus the comparison tables

A sweep trains its cells one after another in the calling thread.  The
`threads` value older configs and callers give is checked, then dropped.

Exit codes: 0 success, 2 config error (or out of memory, or an infinite
cost figure), 3 training divergence, 4 infeasible hardware parameters.
"""

from __future__ import annotations

import configparser
import json
import math
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

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
    "SweepConfig",
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
SECTIONS = ("experiment", "train", "noise", "hw", "sweep")


class ConfigError(ValueError):
    pass


@dataclass
class SweepConfig:
    weight_bits: tuple[int, ...] = (1, 2, 3, 4)
    adc_bits: tuple[int, ...] = (1, 2, 3, 4)
    seeds: tuple[int, ...] = ()          # empty: use the experiment seed
    betas: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)
    adc_noise_grid: tuple[str, ...] = ()  # e.g. ('off', 'on')

    def __post_init__(self):
        for state in self.adc_noise_grid:
            if state not in ("on", "off"):
                raise ValueError(f"adc_noise_grid entries must be on/off, got {state!r}")


# What each command reads besides [experiment] command, out and seed, by
# section: its keys, or None for all ([noise] is part of [train]).  Older
# manifests carry every section, each at its defaults.
READS = {
    "train": {"experiment": ("task",), "train": None},
    "sweep": {"experiment": ("task",), "train": None,
              "sweep": ("weight_bits", "adc_bits", "seeds")},
    "noise-sweep": {"experiment": ("task",), "train": None,
                    "sweep": ("betas", "adc_noise_grid", "adc_bits", "seeds")},
    "cost": {"hw": None},
}


@dataclass
class ExperimentConfig:
    """A resolved experiment.  `train_overrides` holds exactly the train
    keys the config set explicitly; task defaults fill the rest at run
    time, so a manifest re-run resolves identically."""

    command: str
    task: str = "char_lm"
    out_dir: str = "runs/out"
    seed: int = 1
    train_overrides: dict = field(default_factory=dict)
    hw: HwParams = field(default_factory=HwParams)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; expected one of {COMMANDS}")
        unread = self._sections_read()[1]
        if unread:
            raise ConfigError(f"{self.command} does not read {', '.join(unread)}")
        # `cost` reads no task, so its task is the default here
        if self.task not in TASK_NAMES:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASK_NAMES}")
        if not str(self.out_dir).strip():
            raise ConfigError("out must name a directory, got an empty value")
        # surface invalid values now, before any compute starts
        try:
            for overrides in [self.train_overrides, *(o for _, o, _ in self.cells())]:
                TrainConfig(**overrides)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {self.command} config: {exc}") from exc

    def seeds(self) -> tuple[int, ...]:
        return self.sweep.seeds if self.sweep.seeds else (self.seed,)

    def cells(self) -> list[tuple[dict, dict, int]]:
        """(row labels, train overrides, seed) of each cell of a sweep
        command's grid; `train` and `cost` have no grid."""
        s, base = self.sweep, self.train_overrides
        if self.command == "sweep":
            return _bitwidth_cells(s.weight_bits, s.adc_bits, base, self.seeds())
        if self.command == "noise-sweep":
            return _noise_cells(s.betas, s.adc_noise_grid, s.adc_bits, base, self.seeds())
        return []

    def _sections_read(self) -> tuple[dict, list[str]]:
        """(the values the command reads by section and key, the
        '[section] key' of each other value that is not its default)."""
        train = dict(self.train_overrides)
        if isinstance(train.get("noise"), NoiseConfig):
            train["noise"] = asdict(train["noise"])
        if train.get("bitwidths") is not None:
            train["bitwidths"] = list(train["bitwidths"])
        sections = {"experiment": ({"task": self.task}, {"task": ExperimentConfig.task}),
                    "train": (train, {}),
                    "hw": (asdict(self.hw), asdict(HwParams())),
                    "sweep": (asdict(self.sweep), asdict(SweepConfig()))}
        reads = READS[self.command]
        read, unread = {name: {} for name in reads}, []
        for name, (values, defaults) in sections.items():
            keys = reads.get(name, ())
            for key, value in values.items():
                if keys is None or key in keys:
                    read[name][key] = value
                elif key not in defaults or value != defaults[key]:
                    unread.append(f"[{name}] {key}")
        return read, unread

    def as_dict(self) -> dict:
        """The manifest: the sections the command reads."""
        read = self._sections_read()[0]
        experiment = {"command": self.command, **read.pop("experiment", {}),
                      "out": self.out_dir, "seed": self.seed}
        return {"experiment": experiment, **read}


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
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # keys under [DEFAULT] would go to every section, and with none, nowhere
    unknown = [name for name in sections if name not in SECTIONS]
    unknown += [parser.default_section] if parser.defaults() else []
    if unknown:
        raise ConfigError(f"{path}: unknown sections {unknown}; expected some of {SECTIONS}")
    return sections


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key raises, as a repeated INI
    option does, instead of the last value winning."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def _sections_from_json(text: str, path: Path) -> dict:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    # manifests carry other top-level keys (environment); ignore them
    sections = {k: v for k, v in data.items() if k in SECTIONS}
    not_objects = [name for name, value in sections.items() if not isinstance(value, dict)]
    if not_objects:
        raise ConfigError(f"{path}: sections {not_objects} must be objects")
    return sections


_NOISE_ALIASES = {"adc_noise": ("adc_noise_enabled", None)}
_HW_ALIASES = {"adc_area_4bit_mm2": ("adc_area_4bit", MM2),
               "residual_area_mm2": ("residual_area", MM2)}


def _is_unset(raw) -> bool:
    return raw is None or (isinstance(raw, str) and raw.strip().lower() in ("", "none", "null"))


def _typed(raw, hint, key: str):
    """`raw` coerced to a field annotation: int, float, bool, str,
    `X | None` (as X) or `tuple[X, ...]`."""
    args = [a for a in get_args(hint) if a is not type(None)]
    if get_origin(hint) is tuple:
        return _parse_list(raw, args[0], key)
    return _coerce(raw, args[0] if args else hint, key)


def _read_fields(cls, section: dict, name: str, aliases: dict | None = None,
                 skip_unset: bool = False) -> dict:
    """The keyword arguments `section` gives dataclass `cls`, each value
    typed by its field's annotation.  A key names a field, or is an alias
    (field, scale or None) of one; a field may be set by one key only.
    With `skip_unset`, a known key with an empty or none value sets nothing."""
    types, aliases = get_type_hints(cls), aliases or {}
    kwargs, set_by = {}, {}
    for key, raw in section.items():
        target, scale = aliases.get(key, (key, None))
        if target not in types:
            raise ConfigError(f"unknown [{name}] key {key!r}")
        if target in set_by:
            raise ConfigError(f"[{name}] sets {target} twice, by {set_by[target]} and {key}")
        set_by[target] = key
        if skip_unset and _is_unset(raw):
            continue
        value = _typed(raw, types[target], key)
        kwargs[target] = value if scale is None else value * scale
    return kwargs


def _build(cls, section: dict, name: str, aliases: dict | None = None):
    kwargs = _read_fields(cls, section, name, aliases)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid [{name}] config: {exc}") from exc


def _build_noise(section: dict, inline) -> NoiseConfig | None:
    """The noise a [noise] section or an inline [train] noise sets, or
    None when neither sets a key."""
    if not (_is_unset(inline) or isinstance(inline, dict)):
        raise ConfigError(f"noise: expected a section of noise keys, got {inline!r}")
    inline = inline if isinstance(inline, dict) else {}
    if section and inline:
        raise ConfigError("set the noise in a [noise] section or as [train] noise, not both")
    # older configs carry a seed (noise streams derive from the train seed)
    sec = {k: v for k, v in (section or inline).items() if k != "seed"}
    if not sec:
        return None
    # older manifests all carry `true`: weight noise is redrawn on every read
    resample = _coerce(sec.pop("resample_per_read", True), bool, "resample_per_read")
    noise = _build(NoiseConfig, sec, "noise", _NOISE_ALIASES)
    if not resample and noise.weight_noise_beta > 0.0:
        raise ConfigError("resample_per_read = false (one fixed programming-noise "
                          "draw) is not modelled; weight noise is redrawn on every read")
    return noise


def _build_train_overrides(sec: dict, noise_sec: dict) -> dict:
    """Explicitly-set train keys only, coerced; includes 'bitwidths' and
    'noise' when given."""
    sec = dict(sec)
    if "seed" in sec:
        raise ConfigError("[train] seed: the experiment seed seeds training; "
                          "set [experiment] seed")
    overrides: dict = {}
    noise = _build_noise(noise_sec, sec.pop("noise", None))
    if noise is not None:
        overrides["noise"] = noise

    bits = sec.pop("bitwidths", None)
    wb, ab, db = (sec.pop(k, None) for k in ("weight_bits", "adc_bits", "dac_bits"))
    if any(v is not None for v in (wb, ab, db)):
        if bits is not None:
            raise ConfigError("set either bitwidths or weight_bits, adc_bits, dac_bits, "
                              "not both")
        if not all(v is not None for v in (wb, ab, db)):
            raise ConfigError("set all of weight_bits, adc_bits, dac_bits (or none for FP)")
        bits = (wb, ab, db)
    if not _is_unset(bits) and str(bits).strip().lower() != "fp":
        overrides["bitwidths"] = _parse_list(bits, int, "bitwidths")

    raw_override = sec.pop("adc_range_override", None)
    if not _is_unset(raw_override):
        vals = _parse_list(raw_override, float, "adc_range_override")
        overrides["adc_range_override"] = vals[0] if len(vals) == 1 else vals

    overrides.update(_read_fields(TrainConfig, sec, "train", skip_unset=True))
    return overrides


def _check_threads(value):
    """Older configs and callers set a cell thread count; an int >= 1 is
    accepted and dropped, since cells run one after another."""
    if value is not None and _coerce(value, int, "threads") < 1:
        raise ConfigError("threads must be >= 1")


def load_config(path, out_dir=None, seed=None, threads=None,
                command=None) -> ExperimentConfig:
    """Parse an INI or JSON config file into a validated ExperimentConfig.
    Explicit arguments override the file's values, and the config is
    validated for the command that runs; `threads` and the file's
    `[experiment] threads` are checked, then dropped."""
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
    file_command = exp.pop("command", None)
    command = command if command is not None else file_command
    if command is None:
        raise ConfigError(f"{path}: missing command in [experiment]")
    task = exp.pop("task", "char_lm")
    file_out = exp.pop("out", None)
    file_seed = exp.pop("seed", None)
    file_threads = exp.pop("threads", None)
    if exp:
        raise ConfigError(f"unknown [experiment] keys: {sorted(exp)}")
    _check_threads(threads if threads is not None else file_threads)

    root_seed = seed if seed is not None else (
        _coerce(file_seed, int, "seed") if file_seed is not None else 1)
    return ExperimentConfig(
        command=str(command), task=str(task),
        out_dir=str(out_dir if out_dir is not None else (
            file_out if file_out is not None else "runs/out")),
        seed=root_seed,
        train_overrides=_build_train_overrides(sections.get("train", {}),
                                               sections.get("noise", {})),
        hw=_build(HwParams, sections.get("hw", {}), "hw", _HW_ALIASES),
        sweep=_build(SweepConfig, sections.get("sweep", {}), "sweep"),
    )


# --- sweep operations -----------------------------------------------------------

def _bitwidth_cells(weight_bits, adc_bits, base: dict, seeds) -> list[tuple[dict, dict, int]]:
    """The sweep grid: each (weight bits, ADC/DAC bits) pair for each seed.
    It sets every cell's bit widths, so `base` may not."""
    if "bitwidths" in base:
        raise ValueError("the grid sets the bit widths; set none in [train]")
    cells = [({"weight_bits": wb, "adc_bits": ab, "seed": seed},
              {**base, "bitwidths": (wb, ab, ab)}, seed)
             for wb in weight_bits for ab in adc_bits for seed in seeds]
    if not cells:
        raise ValueError("the grid is empty; weight_bits and adc_bits each need a value")
    return cells


def _noise_cells(betas, adc_noise_grid, adc_bits, base: dict,
                 seeds) -> list[tuple[dict, dict, int]]:
    """The noise-sweep grid: a cell per beta, then per ADC noise state and
    ADC bits, each for each seed.  It sets every cell's noise and ties its
    DAC bits to its ADC bits, so `base` may set neither."""
    if "noise" in base:
        raise ValueError("the grid sets the noise; remove the [noise] section")
    wb, base_ab, db = base.get("bitwidths") or (4, 4, 4)
    if db != base_ab:
        raise ValueError(f"the grid sets the DAC bits to the ADC bits, {base_ab}, not {db}")
    points = [("weight_noise", float(beta), "off", base_ab) for beta in betas]
    points += [("adc_noise", 0.0, state, int(ab))
               for state in adc_noise_grid for ab in (tuple(adc_bits) or (base_ab,))]
    cells = [({"kind": kind, "beta": beta, "adc_noise": state, "weight_bits": wb,
               "adc_bits": ab, "seed": seed},
              {**base, "bitwidths": (wb, ab, ab), "noise": NoiseConfig(
                  adc_noise_enabled=(state == "on"), weight_noise_beta=beta)}, seed)
             for kind, beta, state, ab in points for seed in seeds]
    if not cells:
        raise ValueError("the grid is empty; betas or adc_noise_grid needs a value")
    return cells


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


def _train_cells(task: str, cells) -> list[dict]:
    """Each cell's labels, then its final metric's name and value, training
    the cells one after another."""
    results = []
    for labels, overrides, seed in cells:
        report = _train_cell(task, overrides, seed)
        results.append({**labels, "metric_name": report.metric_name, "metric": report.metric})
    return results


# bench/tracing.py times a sweep by these two names (its experiment.sweep span)

def sweep_bitwidths(cfg: ExperimentConfig) -> dict:
    """The `sweep` report: every cell of the grid, then the seed-mean
    metric of each (weight bits, ADC/DAC bits) pair."""
    s = cfg.sweep
    cells = _train_cells(cfg.task, cfg.cells())
    matrix = [[float(np.mean([c["metric"] for c in cells
                              if (c["weight_bits"], c["adc_bits"]) == (wb, ab)]))
               for ab in s.adc_bits] for wb in s.weight_bits]
    return {"task": cfg.task, "weight_bits": list(s.weight_bits),
            "adc_bits": list(s.adc_bits), "seeds": list(cfg.seeds()), "cells": cells,
            "mean_matrix": matrix, "metric_name": cells[0]["metric_name"]}


def noise_sweep(cfg: ExperimentConfig) -> dict:
    """The `noise-sweep` report: the metric-vs-beta cells, then the
    metric-vs-ADC-bits cells of each ADC noise state."""
    s = cfg.sweep
    return {"task": cfg.task, "betas": [float(b) for b in s.betas],
            "adc_noise_grid": list(s.adc_noise_grid), "seeds": list(cfg.seeds()),
            "cells": _train_cells(cfg.task, cfg.cells())}


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


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _cost(hw: HwParams) -> tuple[dict, dict[str, str]]:
    """The cost report of `hw` and the text of each file `cost` writes
    besides the manifest and report, every figure finite.  Raises
    InfeasibleHardware, or ConfigError when a figure overflows."""
    try:
        report = cost_report(hw).as_dict()
    except OverflowError as exc:  # e.g. 2.0 ** (2 * enob) for a huge adc_bits
        raise ConfigError(f"hw params overflow the cost model: {exc}") from exc
    rows = []
    for name, value in report.items():
        if name == "params":
            continue
        if isinstance(value, dict):  # entry k of power_w is the row power_k_w
            quantity, unit = name.split("_", 1)
            rows += [[f"{quantity}_{k}_{unit}", v] for k, v in value.items()]
        else:
            rows.append([name, value])
    infinite = [name for name, value in rows if not math.isfinite(value)]
    if infinite:  # e.g. a huge f_sample or a tiny r_avg
        raise ConfigError(f"hw params overflow the cost model: {', '.join(infinite)} "
                          "not finite")
    return report, {"metrics.csv": _csv(["name", "value"], rows),
                    "comparison.txt": render_comparison_tables(hw),
                    "comparison.csv": render_comparison_tables(hw, fmt="csv")}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the command and write manifest.json, report.json, metrics.csv
    (plus comparison tables for `cost`) into cfg.out_dir.  A `cost` whose
    figures fail writes nothing."""
    out = Path(cfg.out_dir)
    # the cost model runs in microseconds: check it before writing anything
    cost = _cost(cfg.hw) if cfg.command == "cost" else None
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    _write_manifest(cfg, out)

    if cfg.command == "cost":
        report, files = cost
        for name, text in files.items():
            (out / name).write_text(text)

    elif cfg.command == "train":
        report_obj = _train_cell(cfg.task, cfg.train_overrides, cfg.seed)
        report = report_obj.as_dict()
        rows = [[e, "train", "loss", v] for e, v in report_obj.train_loss_curve]
        rows += [[e, "valid", report_obj.metric_name, v] for e, v in report_obj.curve]
        (out / "metrics.csv").write_text(_csv(["epoch", "split", "metric", "value"], rows))

    else:
        report = sweep_bitwidths(cfg) if cfg.command == "sweep" else noise_sweep(cfg)
        # a row is a cell's labels, then its metric name and value
        cells = report["cells"]
        (out / "metrics.csv").write_text(_csv([*cells[0]][:-2] + ["metric", "value"],
                                              [list(c.values()) for c in cells]))

    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def run(config_path, out_dir=None, seed=None, threads=None) -> int:
    """Load a config file and execute it; returns the process exit code.
    `threads` is checked and dropped, as `load_config` does."""
    return exit_code(lambda: run_experiment(
        load_config(config_path, out_dir=out_dir, seed=seed, threads=threads)))


def exit_code(action: Callable[[], object]) -> int:
    """Call `action` and map its outcome to the documented exit code: 0 on
    success, else 2, 3 or 4 for a config error or lack of memory, a
    diverged training run or infeasible hardware, with the message on
    stderr."""
    try:
        action()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # e.g. a huge hidden_size
        print(f"config error: the run does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except InfeasibleHardware as exc:
        print(f"infeasible hardware: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK
