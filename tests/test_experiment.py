"""Experiment harness: config parsing, exit codes, output artifacts,
manifest closure and byte-identical reproduction."""

import csv
import dataclasses
import io
import json
import re
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import xbarlstm.experiment as exp
import xbarlstm.hwcost as hwcost
from xbarlstm.cli import main as cli_main
from xbarlstm.crossbar import NoiseConfig
from xbarlstm.experiment import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    ConfigError,
    load_config,
    run,
)
from xbarlstm.hwcost import MM2, HwParams, cost_report
from xbarlstm.training import EvalReport, TrainConfig, TrainingDiverged

FAST_TRAIN = """
[experiment]
command = train
task = word_lm
seed = 5

[train]
weight_bits = 4
adc_bits = 4
dac_bits = 4
epochs = 2
hidden_size = 8
"""

# FAST_TRAIN in full precision: no bit widths
FP_TRAIN = FAST_TRAIN.replace("weight_bits = 4\nadc_bits = 4\ndac_bits = 4\n", "")


def written(out: Path) -> list[str]:
    """The names of the files under `out`, none when it does not exist."""
    return sorted(str(p.relative_to(out)) for p in out.rglob("*")) if out.exists() else []


def write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text)
    return p


class TestConfigParsing:
    def test_ini_round_trip(self, tmp_path):
        cfg = load_config(write(tmp_path, FAST_TRAIN))
        assert cfg.command == "train"
        assert cfg.task == "word_lm"
        assert cfg.seed == 5
        assert cfg.train_overrides["bitwidths"] == (4, 4, 4)
        assert cfg.train_overrides["epochs"] == 2

    def test_json_config(self, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps({
            "experiment": {"command": "train", "task": "word_lm", "seed": 3},
            "train": {"bitwidths": [2, 2, 2], "epochs": 1, "hidden_size": 8},
            "noise": {"weight_noise_beta": 0.1, "seed": 7},  # seed: accepted, ignored
        }))
        cfg = load_config(p)
        assert cfg.train_overrides["bitwidths"] == (2, 2, 2)
        assert cfg.train_overrides["noise"].weight_noise_beta == 0.1
        assert not hasattr(cfg.train_overrides["noise"], "seed")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(write(tmp_path, "[experiment]\ncommand = train\n[train]\nlearning = 3\n"))
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[experiment]\ncommand = fly\n"))
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[experiment]\ncommand = train\ntask = mnist\n"))

    def test_partial_bitwidths_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="weight_bits"):
            load_config(write(tmp_path, "[experiment]\ncommand = train\n[train]\nweight_bits = 4\n"))

    def test_invalid_values_fail_before_compute(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[experiment]\ncommand = train\n[train]\nepochs = 0\n"))
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[experiment]\ncommand = train\n[noise]\nweight_noise_beta = 0.5\n"))

    @pytest.mark.parametrize("text, reason", [
        (FAST_TRAIN + "seed = 7\n", r"set \[experiment\] seed"),
        ("[experiment]\ncommand = cost\n[noise]\nadc_noise = on\nadc_noise_enabled = off\n",
         "twice"),
        ("[experiment]\ncommand = cost\n[hw]\nadc_area_4bit_mm2 = 0.02\nadc_area_4bit = 2e-8\n",
         "twice"),
        ("[experiment]\ncommand = cost\n[hw]\nresidual_area = 5e-7\nresidual_area_mm2 = 0.5\n",
         "twice"),
        (json.dumps({"experiment": {"command": "train", "task": "word_lm"},
                     "train": {"noise": {"adc_noise": True}},
                     "noise": {"weight_noise_beta": 0.1}}), "not both"),
    ], ids=["train-seed", "adc-noise-alias", "adc-area-alias", "residual-area-alias",
            "noise-section-and-inline"])
    def test_a_value_set_twice_or_in_train_seed_rejected(self, tmp_path, text, reason):
        with pytest.raises(ConfigError, match=reason):
            load_config(write(tmp_path, text))

    def test_mm2_aliases_scale_to_square_metres(self, tmp_path):
        cfg = load_config(write(tmp_path, "[experiment]\ncommand = cost\n[hw]\n"
                                          "adc_area_4bit_mm2 = 0.02\nresidual_area_mm2 = 0.5\n"))
        assert cfg.hw.adc_area_4bit == 0.02 * MM2
        assert cfg.hw.residual_area == 0.5 * MM2

    def test_readme_config_blocks_load(self, tmp_path):
        # each ```ini block of the README is a whole config for its own command
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```ini\n(.*?)```", text, flags=re.DOTALL)
        commands = [load_config(write(tmp_path, block)).command for block in blocks]
        assert sorted(commands) == sorted(exp.COMMANDS)

    def test_flag_overrides(self, tmp_path):
        # threads: accepted from older callers and dropped
        cfg = load_config(write(tmp_path, FAST_TRAIN), out_dir="elsewhere", seed=99, threads=3)
        assert cfg.out_dir == "elsewhere"
        assert cfg.seed == 99
        assert not hasattr(cfg, "threads")

    @pytest.mark.parametrize("line, overrides", [
        ("seed = abc", {"seed": 3}), ("threads = 0", {"threads": 2}),
        ("threads = 0", {"seed": 3, "threads": 2})], ids=["seed", "threads", "both"])
    def test_file_values_checked_under_overrides(self, tmp_path, line, overrides):
        path = write(tmp_path, f"[experiment]\ncommand = cost\n{line}\n")
        with pytest.raises(ConfigError, match=line.split()[0]):
            load_config(path)
        with pytest.raises(ConfigError, match=line.split()[0]):
            load_config(path, **overrides)

    def test_cli_seed_flag_does_not_hide_a_bad_file_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = write(tmp_path, "[experiment]\ncommand = cost\nseed = abc\n")
        assert cli_main(["cost", "--config", str(config), "--seed", "3"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: seed")
        assert written(tmp_path) == ["exp.ini"]

    @pytest.mark.parametrize("value", ["none", "null", "None", ""])
    def test_ini_out_spelling_none_rejected(self, tmp_path, value):
        path = write(tmp_path, f"[experiment]\ncommand = cost\nout = {value}\n")
        with pytest.raises(ConfigError, match="out: expected a value"):
            load_config(path)
        with pytest.raises(ConfigError, match="out: expected a value"):
            load_config(path, out_dir=str(tmp_path / "elsewhere"))

    def test_json_out_string_none_is_a_directory_name(self, tmp_path):
        # a manifest of a run with `--out none` reloads: JSON spells unset as null
        path = write(tmp_path, json.dumps({"experiment": {"command": "cost", "out": "none"}}),
                     name="manifest.json")
        assert load_config(path).out_dir == "none"

    @pytest.mark.parametrize("command, sweep", [
        ("sweep", "betas = 0.1"),
        ("sweep", "adc_noise_grid = off, on"),
        ("noise-sweep", "weight_bits = 2"),
        ("train", "seeds = 1, 2"),
        ("cost", "adc_bits = 4"),
    ])
    def test_unread_sweep_keys_rejected(self, tmp_path, command, sweep):
        p = write(tmp_path, f"[experiment]\ncommand = {command}\ntask = word_lm\n"
                            f"[sweep]\n{sweep}\n")
        with pytest.raises(ConfigError, match="does not read"):
            load_config(p)

    @pytest.mark.parametrize("command", ["train", "sweep", "noise-sweep", "cost"])
    def test_unread_sweep_keys_at_their_defaults_accepted(self, tmp_path, command):
        # older manifests write every [sweep] field at its default
        defaults = {k: list(v) for k, v in dataclasses.asdict(exp.SweepConfig()).items()}
        p = tmp_path / "old.json"
        # cost reads no task, so it keeps the default one
        task = {} if command == "cost" else {"task": "word_lm"}
        p.write_text(json.dumps({"experiment": {"command": command, **task},
                                 "sweep": defaults}))
        cfg = load_config(p)
        assert sorted(cfg.as_dict().get("sweep", {})) == sorted(
            exp.READS[command].get("sweep", ()))

    @pytest.mark.parametrize("command, text, unread", [
        ("train", FAST_TRAIN + "[hw]\nrows = 7\nnum_adcs = 32\n", ["[hw] rows", "[hw] num_adcs"]),
        ("sweep", "[experiment]\ncommand = sweep\ntask = word_lm\n[hw]\nadc_bits = 2\n",
         ["[hw] adc_bits"]),
        ("noise-sweep", "[experiment]\ncommand = noise-sweep\ntask = word_lm\n"
         "[hw]\nf_sample = 1e6\n", ["[hw] f_sample"]),
        ("cost", "[experiment]\ncommand = cost\ntask = nonsense_task\n"
         "[train]\nepochs = 1\nbitwidths = 4 4 4\n",
         ["[experiment] task", "[train] epochs", "[train] bitwidths"]),
        ("cost", "[experiment]\ncommand = cost\n[noise]\nadc_noise = on\n", ["[train] noise"]),
    ], ids=["train-hw", "sweep-hw", "noise-sweep-hw", "cost-task-and-train", "cost-noise"])
    def test_unread_values_exit_2_before_anything_is_written(self, tmp_path, monkeypatch,
                                                             capsys, command, text, unread):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(write(tmp_path, text)),
                         "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {command} does not read ")
        assert all(part in err for part in unread)
        assert "Traceback" not in err
        assert not out.exists() and not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["train", "sweep", "noise-sweep", "cost"])
    def test_older_manifest_at_defaults_loads_into_the_read_sections(self, tmp_path, command):
        # older manifests wrote every section, each at its defaults but
        # [train], and the task even for cost
        old = {"experiment": {"command": command, "task": "char_lm", "out": "o", "seed": 1},
               "train": {} if command == "cost" else {"epochs": 1},
               "hw": dataclasses.asdict(HwParams()),
               "sweep": {k: list(v) for k, v in
                         dataclasses.asdict(exp.SweepConfig()).items()}}
        p = tmp_path / "old.json"
        p.write_text(json.dumps(old))
        manifest = load_config(p).as_dict()
        assert sorted(manifest) == sorted({"experiment", *exp.READS[command]})
        assert ("task" in manifest["experiment"]) == (command != "cost")


CONFIG_WORDS = ["on", "off", "true", "0", "1", "4", "2.7", "-3", "0.1", "fp", "none", "nan",
                "inf", "1e400", str(10**400), "train", "sweep", "cost", "noise-sweep",
                "char_lm", "word_lm", "adam", "antipodal", "1 2", "4, 4, 4", "off, on",
                "%(x)s", "%", ""]
ROUND_TRIP_WORDS = ["1", "4", "0.1", "1e-7", "none", "on", "off", "fp", "word_lm", "1, 2",
                    "off, on", "adam", "nan"]


def config_texts(st, words=None):
    """A hypothesis strategy of INI or JSON config texts over the known
    sections and keys plus a bogus one, with junk values; or, given
    `words`, with values drawn from them, no bogus key and always a command."""
    keys = {
        "experiment": ["command", "task", "out", "seed", "threads"],
        "train": [f.name for f in dataclasses.fields(TrainConfig)] + [
            "weight_bits", "adc_bits", "dac_bits"],
        "noise": [f.name for f in dataclasses.fields(NoiseConfig)] + sorted(
            exp._NOISE_ALIASES) + ["resample_per_read", "seed"],
        "hw": [f.name for f in dataclasses.fields(HwParams)] + sorted(exp._HW_ALIASES),
        "sweep": [f.name for f in dataclasses.fields(exp.SweepConfig)],
    }
    plain = words is not None
    words = st.sampled_from(words or CONFIG_WORDS)
    scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), words,
                        st.sampled_from([10**400, -(10**400)]), st.text(max_size=10))
    json_values = st.recursive(scalars, lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.sampled_from(keys["noise"]) | st.text(max_size=6), kids,
                        max_size=3)), max_leaves=8)
    ini_values = st.one_of(words, st.text(max_size=12), st.integers().map(str),
                           st.floats().map(repr))

    @st.composite
    def texts(draw):
        as_json = draw(st.booleans())
        values = words if plain else json_values if as_json else ini_values
        sections = {}
        for name, known in keys.items():
            if draw(st.booleans()):
                sections[name] = draw(st.dictionaries(
                    st.sampled_from(known if plain else known + ["bogus"]), values,
                    max_size=4))
        if plain or draw(st.booleans()):  # a valid command reaches the later checks
            sections.setdefault("experiment", {})["command"] = draw(
                st.sampled_from(exp.COMMANDS))
        if as_json:
            return json.dumps(sections)
        return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sec.items())
                       for name, sec in sections.items())

    return texts()


class TestConfigParserProperty:
    """Any INI or JSON text over the known sections and keys, with junk
    values, either loads or raises ConfigError: nothing else escapes; and
    what loads reloads unchanged from its manifest."""

    def test_load_config_returns_a_config_or_raises_config_error(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        path = tmp_path / "cfg"

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(text=config_texts(st))
        def check(text):
            path.write_text(text, encoding="utf-8")
            try:
                cfg = load_config(path)
            except ConfigError:
                return
            assert isinstance(cfg, exp.ExperimentConfig)

        check()

    def test_a_loaded_config_reloads_equal_from_its_dict(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        path, again_path = tmp_path / "cfg", tmp_path / "manifest.json"
        loaded = []

        # values that suit many keys, so that about one config in seven loads
        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(text=config_texts(st, ROUND_TRIP_WORDS))
        def check(text):
            path.write_text(text, encoding="utf-8")
            try:
                cfg = load_config(path)
            except ConfigError:
                return
            loaded.append(cfg)
            again_path.write_text(json.dumps(cfg.as_dict()), encoding="utf-8")
            again = load_config(again_path)
            # repr, not ==: a NaN value is not equal to itself
            assert repr(again) == repr(cfg)
            assert json.dumps(again.as_dict()) == json.dumps(cfg.as_dict())

        check()
        assert len(loaded) >= 15


COST_FILES = ["comparison.csv", "comparison.txt", "manifest.json", "metrics.csv",
              "report.json"]


class TestCostProperty:
    """`cost` over any [hw] values either exits 0 having written all of its
    files or exits non-zero having written nothing."""

    def test_all_files_or_none(self, tmp_path, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hints = get_type_hints(HwParams)
        extremes = st.sampled_from([0, -1, 1e-320, 1e-300, 1e300, 1e308, 10**306,
                                    float("nan"), float("inf")])
        ints = st.one_of(st.integers(1, 4096), st.sampled_from([64, 256, 1024]))
        floats = st.floats(min_value=1e-320, max_value=1e308)
        hw = st.sampled_from(sorted(hints)).flatmap(lambda key: st.tuples(
            st.just(key), st.one_of(ints if hints[key] is int else floats, extremes)))
        path, codes = tmp_path / "cost.ini", []

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(values=st.lists(hw, max_size=4).map(dict))
        def check(values):
            out = tmp_path / f"out{len(codes)}"
            path.write_text("[experiment]\ncommand = cost\n[hw]\n"
                            + "".join(f"{k} = {v}\n" for k, v in values.items()))
            code = run(path, out_dir=out)
            codes.append(code)
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE)
            assert written(out) == (COST_FILES if code == EXIT_OK else [])

        check()
        capsys.readouterr()
        # the search reaches every outcome
        assert {EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE} <= set(codes)


# FP_TRAIN for one epoch
TINY_TRAIN = FP_TRAIN.replace("epochs = 2", "epochs = 1")
EXTREMES = [0, -1, 1e-320, 1e308, float("nan"), float("inf")]


def tiny_train(values: dict) -> str:
    """A one-epoch word_lm `train` at hidden size 8 with `values` set, the
    noise keys in a [noise] section."""
    def lines(keys):
        return "".join(f"{k} = {v}\n" for k, v in keys.items())
    noise = {k: v for k, v in values.items() if k in ("weight_noise_beta", "adc_noise")}
    train = {"epochs": 1, "hidden_size": 8,
             **{k: v for k, v in values.items() if k not in noise}}
    return ("[experiment]\ncommand = train\ntask = word_lm\n[train]\n" + lines(train)
            + ("[noise]\n" + lines(noise) if noise else ""))


class TestTrainProperty:
    """`train` over any [train] values exits 0 having written all three
    files, 3 having kept its manifest, or 2 having written at most the
    manifest; it never raises."""

    def test_exit_codes_and_files(self, tmp_path, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        extremes = st.sampled_from(EXTREMES)

        def floats(lo, hi):
            return st.one_of(st.floats(lo, hi), extremes)

        def few(*values):  # small values keep each example well under a second
            return st.one_of(st.sampled_from(values), extremes)

        keys = {
            "optimizer": st.sampled_from(["sgd", "adam", "rmsprop"]),
            "input_drive": st.sampled_from(["matched", "antipodal", "none"]),
            "learning_rate": floats(0, 10), "lr_decay": floats(0, 1),
            "grad_clip": floats(0, 10), "weight_range": floats(1e-3, 4),
            "adc_range_percentile": floats(0, 100), "init_scale": floats(0, 4),
            "epochs": few(1), "hidden_size": few(1, 4, 8),
            "batch_size": few(4, 16, 64), "bptt_length": few(4, 16, 1000),
            "adc_range_override": st.one_of(
                st.lists(st.floats(1e-3, 10), min_size=1, max_size=4).map(
                    lambda r: " ".join(map(repr, r))), extremes),
            "weight_noise_beta": floats(0, 0.3),
            "adc_noise": st.sampled_from(["on", "off"]),
        }
        entry = st.sampled_from(sorted(keys)).flatmap(
            lambda key: st.tuples(st.just(key), keys[key]))
        path, codes = tmp_path / "train.ini", []

        # several keys are read by quantized cells only, so three in five
        # cells are quantized; bit widths off the grid exit 2
        triple = st.tuples(*[st.integers(1, 6)] * 3).map(lambda b: " ".join(map(str, b)))
        bitwidths = st.one_of(triple, triple, triple, st.none(), extremes)

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(bits=bitwidths, values=st.lists(entry, max_size=4).map(dict))
        # the initial draw overflows to +-inf, quantized and not
        @hypothesis.example(bits="4 4 4", values={"init_scale": 1e308})
        @hypothesis.example(bits=None, values={"init_scale": 1e308})
        # a calibration read overflows to inf, in float64 and in float32
        @hypothesis.example(bits="4 4 4", values={"weight_range": 1e307})
        @hypothesis.example(bits="4 4 4", values={"weight_range": 1e38})
        @hypothesis.example(bits=None, values={"learning_rate": 1e300, "grad_clip": 0})
        @hypothesis.example(bits=None, values={})
        def check(bits, values):
            out = tmp_path / f"out{len(codes)}"
            values = values if bits is None else {**values, "bitwidths": bits}
            path.write_text(tiny_train(values))
            with np.errstate(all="ignore"):
                code = run(path, out_dir=out)
            codes.append(code)
            files = written(out)
            if code == EXIT_OK:
                assert files == ["manifest.json", "metrics.csv", "report.json"]
            elif code == EXIT_DIVERGED:
                assert files == ["manifest.json"]
            else:
                assert code == EXIT_CONFIG and files in ([], ["manifest.json"])

        check()
        capsys.readouterr()
        # the explicit examples reach every outcome
        assert {EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED} <= set(codes)


class TestExitCodes:
    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert run(tmp_path / "missing.ini") == EXIT_CONFIG
        assert "missing.ini" in capsys.readouterr().err

    def test_infeasible_hw_exit_4(self, tmp_path):
        p = write(tmp_path, "[experiment]\ncommand = cost\n[hw]\nnum_adcs = 8\n")
        assert run(p, out_dir=tmp_path / "out") == EXIT_INFEASIBLE
        assert written(tmp_path / "out") == []

    def test_divergence_exit_3(self, tmp_path, monkeypatch):
        def boom(task, overrides, seed):
            raise TrainingDiverged(17)
        monkeypatch.setattr(exp, "_train_cell", boom)
        p = write(tmp_path, FAST_TRAIN)
        assert run(p, out_dir=tmp_path / "out") == EXIT_DIVERGED

    @pytest.mark.parametrize("command, extra", [
        ("train", ""),
        ("train", "weight_bits = 4\nadc_bits = 4\ndac_bits = 4\n"),
        ("sweep", "[sweep]\nweight_bits = 4\nadc_bits = 4\n"),
        ("noise-sweep", "[sweep]\nbetas = 0\n"),
    ], ids=["train-fp", "train-4bit", "sweep", "noise-sweep"])
    def test_overflowing_metric_exit_3(self, tmp_path, capsys, command, extra):
        # the weights blow up in the first epoch; exp(mean NLL) overflows
        p = write(tmp_path, f"""
[experiment]
command = train
task = word_lm
seed = 1

[train]
learning_rate = 1e300
grad_clip = 0
hidden_size = 8
epochs = 1
{extra}""")
        with np.errstate(all="ignore"):
            code = cli_main([command, "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == EXIT_DIVERGED
        assert "non-finite" in capsys.readouterr().err

    # out: "dir" passes --out <tmp>/out, "file" makes that path a file
    # first, "" passes an empty --out, None passes no --out at all
    @pytest.mark.parametrize("config, command, out", [
        (FAST_TRAIN.replace("epochs = 2", "epochs = abc"), "train", "dir"),
        (FAST_TRAIN.replace("seed = 5", "seed = 5\nthreads = x"), "train", "dir"),
        (None, "cost", "file"),
        (json.dumps({"experiment": {"command": "train", "task": "word_lm", "threads": 0}}),
         "train", "dir"),
        (FAST_TRAIN.replace("seed = 5", "seed = 5\nout ="), "train", None),
        (json.dumps({"experiment": {"command": "train", "task": "word_lm", "out": ""}}),
         "train", None),
        ("[experiment]\ncommand = cost\n", "cost", ""),
        (None, "cost", ""),
        ('{"experiment": {"command": "train", "task": "word_lm", "seed": 1e400}}',
         "train", "dir"),
        ("[experiment]\ncommand = sweep\ntask = word_lm\n[sweep]\nweight_bits = 0\n",
         "sweep", "dir"),
        (FAST_TRAIN + "adc_range_override = 1 2\n", "train", "dir"),
        ("[experiment]\ncommand = train\ntask = word_lm\n# caf\xe9\n".encode("latin-1"),
         "train", "dir"),
        ("[experiment]\ncommand = cost\n[hw]\nt_read = nan\n", "cost", "dir"),
        ('{"experiment": {"command": "cost"}, "hw": {"t_read": Infinity}}', "cost", "dir"),
        (json.dumps({"experiment": {"command": "train", "task": "word_lm"},
                     "train": {"epochs": 2.7}}), "train", "dir"),
        (json.dumps({"experiment": {"command": "train", "task": "word_lm"},
                     "noise": {"adc_noise": 5}}), "train", "dir"),
        (FAST_TRAIN + "learning_rate = inf\n", "train", "dir"),
        (FAST_TRAIN + "init_scale = nan\n", "train", "dir"),
        (FAST_TRAIN + "adc_range_percentile = 150\n", "train", "dir"),
        (FAST_TRAIN + "noise = on\n", "train", "dir"),
        (json.dumps({"experiment": {"command": "cost", "out": "a\x00b"}}), "cost", None),
        (FAST_TRAIN.replace("hidden_size = 8", "hidden_size = 0"), "train", "dir"),
        ("[experiment]\ncommand = sweep\ntask = word_lm\n[sweep]\nweight_bits =\n",
         "sweep", "dir"),
        ("[experiment]\ncommand = sweep\ntask = word_lm\n[sweep]\nadc_bits =\n",
         "sweep", "dir"),
        ("[experiment]\ncommand = noise-sweep\ntask = word_lm\n"
         "[sweep]\nbetas =\nadc_noise_grid =\n", "noise-sweep", "dir"),
        ("[experiment]\ncommand = noise-sweep\ntask = word_lm\n[sweep]\nbetas = 0\n"
         "[noise]\nweight_noise_beta = 0.2\nadc_noise = on\n", "noise-sweep", "dir"),
        (FAST_TRAIN.replace("command = train", "command = sweep"), "sweep", "dir"),
        ("[experiment]\ncommand = noise-sweep\ntask = word_lm\n[sweep]\nbetas = 0, 0.3\n",
         "noise-sweep", "dir"),
        (FAST_TRAIN.replace("dac_bits = 4", "dac_bits = 2") + "[sweep]\nbetas = 0\n",
         "noise-sweep", "dir"),
        (FAST_TRAIN.replace("weight_bits = 4", "bitwidths = 4 4 4\nweight_bits = 2")
         .replace("adc_bits = 4", "adc_bits = 2").replace("dac_bits = 4", "dac_bits = 2"),
         "train", "dir"),
        (json.dumps({"experiment": {"command": "train", "task": "word_lm"},
                     "train": {"bitwidths": [4, 4, 4], "adc_bits": 2}}), "train", "dir"),
        ("[experiment]\ncommand = noise-sweep\ntask = word_lm\n[sweep]\nbetas = 0.1\n",
         "sweep", "dir"),
        (FAST_TRAIN + "seed = 7\n", "train", "dir"),
        (FAST_TRAIN + "[noise]\nadc_noise = on\nadc_noise_enabled = off\n", "train", "dir"),
        ("[experiment]\ncommand = cost\n[hw]\nadc_area_4bit_mm2 = 0.02\n"
         "adc_area_4bit = 2e-8\n", "cost", "dir"),
        (json.dumps({"experiment": {"command": "train", "task": "word_lm"},
                     "train": {"noise": {"weight_noise_beta": 0.2}},
                     "noise": {"weight_noise_beta": 0.1}}), "train", "dir"),
        *[(FAST_TRAIN + f"weight_range = {v}\n", "train", "dir")
          for v in ("nan", "inf", "0", "-1")],
        *[('{"experiment": {"command": "train", "task": "word_lm"}, '
           f'"train": {{"weight_range": {v}}}}}', "train", "dir")
          for v in ("NaN", "Infinity", "0", "-1")],
        (FP_TRAIN + "weight_range = nan\n", "train", "dir"),
        *[(FAST_TRAIN + f"grad_clip = {v}\n", "train", "dir") for v in ("nan", "-1")],
        *[('{"experiment": {"command": "train", "task": "word_lm"}, '
           f'"train": {{"grad_clip": {v}}}}}', "train", "dir") for v in ("NaN", "-1")],
        ('{"experiment": {"command": "cost"}, "hw": {"rows": 100, "rows": 356}}',
         "cost", "dir"),
        ('{"experiment": {"command": "train", "task": "word_lm"}, '
         '"train": {"epochs": 1}, "train": {"epochs": 2}}', "train", "dir"),
        (FAST_TRAIN + "weight_range = 1e308\n", "train", "dir"),
        ("[experiment]\ncommand = cost\n[hww]\nrows = 300\n", "cost", "dir"),
        ("[DEFAULT]\nrows = 300\n", "cost", "dir"),
        ('{"experiment": {"command": "cost"}, "hw": [["rows", 300]]}', "cost", "dir"),
        *[(FP_TRAIN + extra, "train", "dir") for extra in (
            "weight_range = 0.3\n", "adc_range_percentile = 50\n", "adc_range_override = 2\n",
            "[noise]\nweight_noise_beta = 0.2\n", "[noise]\nadc_noise = on\n")],
        (json.dumps({"experiment": {"command": "train", "task": "word_lm"},
                     "train": {"noise": {"adc_noise": "on"}}}), "train", "dir"),
        (FAST_TRAIN + "adc_range_override = 2\nadc_range_percentile = 50\n", "train", "dir"),
        ("[experiment]\ncommand = sweep\ntask = word_lm\n[train]\nadc_range_override = 2\n"
         "adc_range_percentile = 50\n[sweep]\nweight_bits = 2\nadc_bits = 2\n", "sweep", "dir"),
        ("[experiment]\ncommand = noise-sweep\ntask = word_lm\n[sweep]\nbetas = 0\n"
         "adc_bits = 1, 2\n", "noise-sweep", "dir"),
        ("[experiment]\ncommand = sweep\ntask = har\n[sweep]\nweight_bits = 2, 2\n"
         "adc_bits = 2\n", "sweep", "dir"),
        ("[experiment]\ncommand = sweep\ntask = har\n[sweep]\nweight_bits = 2\n"
         "adc_bits = 2\nseeds = 1, 1\n", "sweep", "dir"),
        ("[experiment]\ncommand = noise-sweep\ntask = har\n[sweep]\nbetas = 0.1, 0.1\n",
         "noise-sweep", "dir"),
        ("[experiment]\ncommand = noise-sweep\ntask = har\n[sweep]\nbetas =\n"
         "adc_noise_grid = on\nadc_bits = 1, 2, 1\n", "noise-sweep", "dir"),
        ("[experiment]\ncommand = noise-sweep\ntask = har\n[sweep]\nbetas =\n"
         "adc_noise_grid = on, on\n", "noise-sweep", "dir"),
        (json.dumps({"experiment": {"command": "cost", "out": None}}), "cost", None),
        (json.dumps({"experiment": {"command": "cost", "seed": None}}), "cost", "dir"),
        (json.dumps({"experiment": {"command": "cost", "threads": None}}), "cost", "dir"),
        ("[experiment]\ncommand = cost\nout = none\n", "cost", None),
    ], ids=["epochs-not-int", "threads-not-int", "out-is-a-file", "json-threads-zero",
            "ini-out-empty", "json-out-empty", "cost-config-out-flag-empty",
            "cost-out-flag-empty", "json-seed-overflows", "sweep-weight-bits-zero",
            "adc-range-override-two-values", "not-utf-8", "hw-t-read-nan",
            "json-hw-t-read-infinity", "json-epochs-not-int", "json-adc-noise-not-bool",
            "learning-rate-inf", "init-scale-nan", "adc-range-percentile-150",
            "inline-noise-not-a-section", "json-out-nul-byte", "hidden-size-zero",
            "sweep-weight-bits-empty", "sweep-adc-bits-empty", "noise-sweep-grid-empty",
            "noise-sweep-noise-section", "sweep-train-bitwidths", "noise-sweep-beta-0.3",
            "noise-sweep-dac-bits-not-adc-bits", "bitwidths-and-bit-keys",
            "json-bitwidths-and-adc-bits", "sweep-unread-betas", "train-seed",
            "noise-alias-twice", "hw-mm2-alias-twice", "noise-section-and-inline",
            "weight-range-nan", "weight-range-inf", "weight-range-zero",
            "weight-range-negative", "json-weight-range-nan", "json-weight-range-inf",
            "json-weight-range-zero", "json-weight-range-negative", "fp-weight-range-nan",
            "grad-clip-nan", "grad-clip-negative", "json-grad-clip-nan",
            "json-grad-clip-negative", "json-hw-key-twice", "json-section-twice",
            "weight-grid-overflows", "unknown-section", "ini-default-section",
            "json-section-not-an-object", "fp-weight-range", "fp-adc-range-percentile",
            "fp-adc-range-override", "fp-weight-noise", "fp-adc-noise", "json-fp-inline-noise",
            "adc-range-override-and-percentile", "sweep-adc-range-override-and-percentile",
            "noise-sweep-adc-bits-without-grid", "sweep-repeated-bits", "sweep-repeated-seed",
            "noise-sweep-repeated-beta", "noise-sweep-repeated-adc-bits",
            "noise-sweep-repeated-adc-noise-state", "json-null-out", "json-null-seed",
            "json-null-threads", "ini-out-none"])
    def test_malformed_input_exit_2(self, tmp_path, monkeypatch, capsys, config, command, out):
        # anything written to a relative path lands in tmp_path
        monkeypatch.chdir(tmp_path)
        argv = [command]
        if out is not None:
            path = tmp_path / "out"
            argv += ["--out", "" if out == "" else str(path)]
            if out == "file":
                path.write_text("")
        if config is not None:
            argv += ["--config", str(write(tmp_path, config))]
        assert cli_main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not list(tmp_path.rglob("manifest.json"))
        assert not (tmp_path / "runs").exists()
        if out == "dir":
            assert written(tmp_path / "out") == []

    @pytest.mark.parametrize("bits", ["weight_bits = 4\nadc_bits = 4\ndac_bits = 4\n", ""],
                             ids=["4bit", "fp"])
    def test_non_finite_initial_weights_exit_2(self, tmp_path, capsys, bits):
        # init_scale = 1e308 passes the load-time checks, but the initial
        # draw overflows to +-inf: nothing could be trained
        p = write(tmp_path, f"{TINY_TRAIN}init_scale = 1e308\n{bits}")
        with np.errstate(all="ignore"):
            code = cli_main(["train", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "init_scale" in err
        assert written(tmp_path / "out") == ["manifest.json"]

    @pytest.mark.parametrize("command, name", [
        ("cost", "manifest.json"), ("cost", "metrics.csv"), ("train", "report.json")])
    def test_unwritable_output_file_exit_2(self, tmp_path, capsys, command, name):
        # the output file's path is taken by a directory
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        argv = [command, "--out", str(out)]
        if command == "train":
            argv += ["--config", str(write(tmp_path, TINY_TRAIN))]
        assert cli_main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"cannot write {out / name}" in err

    @pytest.mark.parametrize("name", ["metrics.csv", "report.json"])
    @pytest.mark.parametrize("command", ["train", "sweep", "noise-sweep"])
    def test_blocked_output_file_exit_2_before_training(self, tmp_path, capsys,
                                                        monkeypatch, command, name):
        # a directory takes an output file's path: found before any cell trains
        def never(*args, **kwargs):
            raise AssertionError("train ran although an output path is blocked")
        monkeypatch.setattr(exp, "train", never)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        sweep = {"sweep": "[sweep]\nweight_bits = 4\nadc_bits = 4\n",
                 "noise-sweep": "[sweep]\nbetas = 0\n"}.get(command, "")
        config = write(tmp_path, FP_TRAIN.replace("command = train", f"command = {command}")
                       + sweep)
        argv = [command, "--out", str(out), "--config", str(config)]
        assert cli_main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / name}")
        assert not [p for p in out.rglob("*") if p.is_file()]

    def test_full_precision_accepts_noise_that_is_off(self, tmp_path):
        # only enabled noise is a key a full-precision cell would not read
        p = write(tmp_path, FP_TRAIN + "[noise]\nweight_noise_beta = 0\nadc_noise = off\n")
        assert load_config(p).train_overrides["noise"] == NoiseConfig()

    @pytest.mark.parametrize("hw", [f"rows = {10**306}", "adc_bits = 2000"],
                             ids=["rows-times-cols", "adc-energy"])
    def test_cost_model_overflow_exit_2(self, tmp_path, capsys, hw):
        p = write(tmp_path, f"[experiment]\ncommand = cost\n[hw]\n{hw}\n")
        assert run(p, out_dir=tmp_path / "out") == EXIT_CONFIG
        assert "overflow" in capsys.readouterr().err
        assert written(tmp_path / "out") == []

    @pytest.mark.parametrize("hw, figure", [("f_sample = 1e308", "power_adc_w"),
                                            ("r_avg = 1e-320", "power_array_w")],
                             ids=["adc-power", "array-power"])
    def test_non_finite_cost_figure_exit_2(self, tmp_path, capsys, hw, figure):
        p = write(tmp_path, f"[experiment]\ncommand = cost\n[hw]\n{hw}\n")
        assert run(p, out_dir=tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "overflow" in err and figure in err
        assert written(tmp_path / "out") == []

    def test_out_of_memory_exit_2(self, tmp_path, monkeypatch, capsys):
        # what numpy raises for e.g. [train] hidden_size = 1000000; raised
        # here rather than allocated
        def too_big(task, overrides, seed):
            raise MemoryError("Unable to allocate 29.8 TiB for an array")
        monkeypatch.setattr(exp, "_train_cell", too_big)
        p = write(tmp_path, FAST_TRAIN)
        assert cli_main(["train", "--config", str(p), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "memory" in err and "29.8 TiB" in err

    def test_fixed_weight_noise_draw_exit_2(self, tmp_path, capsys):
        p = write(tmp_path, FAST_TRAIN + """
[noise]
weight_noise_beta = 0.1
resample_per_read = false
""")
        assert run(p, out_dir=tmp_path / "out") == EXIT_CONFIG
        assert "resample_per_read" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", [
        "weight_noise_beta = 0.1\nresample_per_read = true\n",
        "adc_noise = on\nresample_per_read = false\n",
    ], ids=["true-with-weight-noise", "false-without-weight-noise"])
    def test_resample_per_read_accepted_and_dropped(self, tmp_path, noise):
        # weight noise is always redrawn on every read: the key changes nothing
        key = "resample_per_read"
        with_key = write(tmp_path, f"{FAST_TRAIN}[noise]\n{noise}", "with.ini")
        without = write(tmp_path, FAST_TRAIN + "[noise]\n" + noise.split(key)[0], "without.ini")
        assert run(with_key, out_dir=tmp_path / "a") == EXIT_OK
        assert run(without, out_dir=tmp_path / "b") == EXIT_OK
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert key not in manifest["train"]["noise"]

    def test_success_exit_0(self, tmp_path):
        p = write(tmp_path, FAST_TRAIN)
        assert run(p, out_dir=tmp_path / "out") == EXIT_OK


# the TrainConfig fields a [train] key of the same name sets; the seed
# comes from [experiment], and the rest have their own spellings below
TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)} - {
    "seed", "bitwidths", "noise", "adc_range_override"}
# a value for each of them, none of them word_lm's default
TRAIN_VALUES = {
    "optimizer": "sgd", "learning_rate": 0.02, "lr_decay": 0.5, "epochs": 3,
    "batch_size": 4, "bptt_length": 8, "grad_clip": 1.5, "weight_range": 0.5,
    "adc_range_percentile": 95.0, "hidden_size": 8, "init_scale": 0.3,
    "input_drive": "matched",
}
# resample_per_read is accepted and dropped on purpose (tested above)
NOISE_VALUES = {
    "adc_noise": ("on", NoiseConfig(adc_noise_enabled=True)),
    "adc_noise_enabled": ("on", NoiseConfig(adc_noise_enabled=True)),
    "weight_noise_beta": ("0.1", NoiseConfig(weight_noise_beta=0.1)),
}
# (config lines, TrainConfig field, the value every cell must see)
CELL_KEYS = {
    **{key: (f"[train]\n{key} = {TRAIN_VALUES[key]}\n", key, TRAIN_VALUES[key])
       for key in sorted(TRAIN_KEYS)},
    "bit widths": ("[train]\nweight_bits = 3\nadc_bits = 2\ndac_bits = 2\n",
                   "bitwidths", (3, 2, 2)),
    "adc_range_override": ("[train]\nadc_range_override = 1.5\n", "adc_range_override", 1.5),
    **{f"noise.{key}": (f"[noise]\n{key} = {text}\n", "noise", noise)
       for key, (text, noise) in NOISE_VALUES.items()},
}
GRIDS = {"train": "", "sweep": "[sweep]\nweight_bits = 2\nadc_bits = 2\n",
         "noise-sweep": "[sweep]\nbetas = 0\n"}
# the keys each grid sets itself; configuring them exits 2 (tested above)
GRID_OWNED = {"sweep": {"bit widths"}, "noise-sweep": {f"noise.{k}" for k in NOISE_VALUES}}
# the keys only a quantized cell reads; `train` sets bit widths next to them,
# since a full-precision cell that sets them exits 2 (tested above)
QUANTIZED_ONLY = {"weight_range", "adc_range_percentile", "adc_range_override",
                  *(f"noise.{k}" for k in NOISE_VALUES)}
BITS = "weight_bits = 4\nadc_bits = 4\ndac_bits = 4\n"


class TestConfigReachesCells:
    """Every configured train, bit-width and noise key reaches the
    TrainConfig each cell trains with, and hidden_size sizes the network."""

    def test_every_train_key_has_a_test_value(self):
        assert set(TRAIN_VALUES) == TRAIN_KEYS

    @pytest.mark.parametrize("command, key", [
        (command, key) for command in GRIDS for key in CELL_KEYS
        if key not in GRID_OWNED.get(command, ())])
    def test_key_reaches_every_cell(self, tmp_path, monkeypatch, command, key):
        lines, name, value = CELL_KEYS[key]
        seen = []

        def fake_train(model, dataset, cfg, valid_dataset=None, task_name="lm"):
            seen.append((model, cfg))
            return model, EvalReport(task=task_name, accuracy=0.5, perplexity=2.0,
                                     metric_name="perplexity", metric=2.0)

        monkeypatch.setattr(exp, "train", fake_train)
        if command == "train" and key in QUANTIZED_ONLY:
            lines += BITS if lines.startswith("[train]") else f"[train]\n{BITS}"
        p = write(tmp_path, f"[experiment]\ncommand = {command}\ntask = word_lm\n"
                            f"{lines}{GRIDS[command]}")
        assert run(p, out_dir=tmp_path / "out") == EXIT_OK
        assert seen
        for model, cfg in seen:
            assert getattr(cfg, name) == value
            if key == "hidden_size":
                assert model.hidden_size == value


class TestArtifacts:
    def test_cost_report_contains_headline_numbers(self, tmp_path):
        p = write(tmp_path, "[experiment]\ncommand = cost\n")
        assert run(p, out_dir=tmp_path / "out") == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert abs(report["overall_throughput_gops"] - 3439) / 3439 < 0.01
        assert abs(report["power_w"]["total"] - 1.136) / 1.136 < 0.01
        assert (tmp_path / "out" / "comparison.txt").exists()
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_report_json_is_the_cost_report(self, tmp_path):
        # off the defaults: ADC energy above its knee, ADC area above 6 bits
        p = write(tmp_path, "[experiment]\ncommand = cost\n[hw]\nrows = 128\ncols = 256\n"
                            "num_adcs = 16\nadc_bits = 12\nparallel_arrays = 2\n")
        assert run(p, out_dir=tmp_path / "out") == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        want = cost_report(HwParams(rows=128, cols=256, num_adcs=16, adc_bits=12,
                                    parallel_arrays=2))
        assert report == want and list(report) == list(want)

    @pytest.mark.parametrize("command, extra", [
        ("train", ""),
        ("sweep", "[sweep]\nweight_bits = 2\nadc_bits = 2, 4\n"),
        ("noise-sweep", "[sweep]\nbetas = 0, 0.1\nadc_noise_grid = on\nadc_bits = 2\n"),
        ("cost", ""),
        ("cost", "[hw]\nrows = 128\ncols = 256\nnum_adcs = 16\nadc_bits = 12\n"
                 "parallel_arrays = 2\n"),
    ], ids=["train", "sweep", "noise-sweep", "cost", "cost-off-default"])
    def test_every_csv_row_is_as_wide_as_its_header(self, tmp_path, command, extra):
        config = ("[experiment]\ncommand = cost\n" if command == "cost"
                  else TINY_TRAIN.replace("command = train", f"command = {command}"))
        assert run(write(tmp_path, config + extra), out_dir=tmp_path / "out") == EXIT_OK
        tables = [list(csv.reader(io.StringIO((tmp_path / "out" / "metrics.csv").read_text())))]
        if command == "cost":
            # each table: a '# title' line, the header, the rows; a blank line between
            blocks = (tmp_path / "out" / "comparison.csv").read_text().split("\n\n")
            tables += [list(csv.reader(io.StringIO(block)))[1:] for block in blocks]
            assert len(tables) == 3
        for header, *rows in tables:
            assert rows and all(len(row) == len(header) for row in rows), header

    def test_cost_prices_the_array_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return cost_report(p)

        # experiment holds its own reference to the function
        monkeypatch.setattr(hwcost, "cost_report", counted)
        monkeypatch.setattr(exp, "cost_report", counted)
        assert run(write(tmp_path, "[experiment]\ncommand = cost\n"),
                   out_dir=tmp_path / "out") == EXIT_OK
        assert len(calls) == 1

    def test_train_writes_epoch_curves(self, tmp_path):
        p = write(tmp_path, FAST_TRAIN)
        assert run(p, out_dir=tmp_path / "out") == EXIT_OK
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,split,metric,value"
        assert any(",train,loss," in ln for ln in lines)
        assert any(",valid,perplexity," in ln for ln in lines)

    def test_noise_sweep_four_rows_beta_increasing(self, tmp_path):
        p = write(tmp_path, """
[experiment]
command = noise-sweep
task = word_lm
seed = 2

[train]
weight_bits = 4
adc_bits = 4
dac_bits = 4
epochs = 2
hidden_size = 8

[sweep]
betas = 0, 0.05, 0.1, 0.2
""")
        assert run(p, out_dir=tmp_path / "out") == EXIT_OK
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 5  # header + one row per beta
        betas = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert betas == sorted(betas) and len(set(betas)) == 4

    def test_noise_sweep_adc_grid_rows(self, tmp_path):
        p = write(tmp_path, """
[experiment]
command = noise-sweep
task = word_lm
seed = 2

[train]
weight_bits = 4
adc_bits = 4
dac_bits = 4
epochs = 1
hidden_size = 8

[sweep]
betas = 0
adc_noise_grid = off, on
adc_bits = 2, 4
""")
        assert run(p, out_dir=tmp_path / "out") == EXIT_OK
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        # 1 beta row + 2 states x 2 adc widths
        assert len(lines) == 1 + 1 + 4
        adc_rows = [ln for ln in lines[1:] if ln.startswith("adc_noise")]
        assert len(adc_rows) == 4

    def test_beta_outside_range_rejected(self, tmp_path):
        p = write(tmp_path, """
[experiment]
command = noise-sweep
task = word_lm

[sweep]
betas = 0, 0.3
""")
        assert run(p, out_dir=tmp_path / "out") == EXIT_CONFIG

    def test_sweep_grid_rows(self, tmp_path):
        p = write(tmp_path, """
[experiment]
command = sweep
task = word_lm
seed = 4

[train]
epochs = 1
hidden_size = 8

[sweep]
weight_bits = 1, 2
adc_bits = 2
seeds = 1, 2
""")
        assert run(p, out_dir=tmp_path / "out") == EXIT_OK
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 1 * 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert np.asarray(report["mean_matrix"]).shape == (2, 1)


class TestReproducibility:
    def test_rerun_from_manifest_byte_identical(self, tmp_path):
        p = write(tmp_path, FAST_TRAIN)
        assert run(p, out_dir=tmp_path / "a") == EXIT_OK
        assert run(tmp_path / "a" / "manifest.json", out_dir=tmp_path / "b") == EXIT_OK
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_manifest_names_the_blas_build(self, tmp_path):
        assert run(write(tmp_path, FAST_TRAIN), out_dir=tmp_path / "a") == EXIT_OK
        env = json.loads((tmp_path / "a" / "manifest.json").read_text())["environment"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert (env["blas"], env["blas_version"]) == (blas["name"], blas["version"])
        assert env["blas"] and env["blas_version"]

    def test_older_manifest_noise_seed_ignored(self, tmp_path):
        # older manifests record a "seed" in train.noise (noise streams
        # derive from the train seed) and "resample_per_read": true (weight
        # noise is redrawn on every read), so a re-run ignores both
        p = write(tmp_path, FAST_TRAIN + "[noise]\nadc_noise = on\n")
        assert run(p, out_dir=tmp_path / "a") == EXIT_OK
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        manifest["train"]["noise"]["seed"] = 7
        manifest["train"]["noise"]["resample_per_read"] = True
        older = write(tmp_path, json.dumps(manifest), "older-manifest.json")
        assert run(older, out_dir=tmp_path / "b") == EXIT_OK
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_same_config_twice_byte_identical(self, tmp_path):
        p = write(tmp_path, FAST_TRAIN)
        run(p, out_dir=tmp_path / "a")
        run(p, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_older_sweep_manifest_with_threads_reruns_identically(self, tmp_path):
        # older manifests carry `threads` and every [sweep] field; cells now
        # train one after another, so the value is checked and dropped
        p = write(tmp_path, """
[experiment]
command = sweep
task = word_lm
seed = 6

[train]
epochs = 1
hidden_size = 8

[sweep]
weight_bits = 2, 4
adc_bits = 4
seeds = 1
""")
        assert run(p, out_dir=tmp_path / "a") == EXIT_OK
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert "threads" not in manifest["experiment"]
        assert sorted(manifest["sweep"]) == ["adc_bits", "seeds", "weight_bits"]
        manifest["experiment"]["threads"] = 4
        manifest["sweep"].update(betas=[0.0, 0.05, 0.1, 0.2], adc_noise_grid=[])
        older = write(tmp_path, json.dumps(manifest), "older-manifest.json")
        assert run(older, out_dir=tmp_path / "b") == EXIT_OK
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()


class TestCLI:
    def test_cost_without_config(self, tmp_path, capsys):
        assert cli_main(["cost", "--out", str(tmp_path / "c")]) == EXIT_OK
        assert (tmp_path / "c" / "report.json").exists()

    def test_train_requires_config(self, capsys):
        assert cli_main(["train"]) == EXIT_CONFIG

    def test_threads_flag_removed(self, tmp_path, capsys):
        p = write(tmp_path, "[experiment]\ncommand = sweep\ntask = word_lm\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--config", str(p), "--threads", "2"])
        assert exc.value.code == EXIT_CONFIG
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_subcommand_overrides_config_command(self, tmp_path):
        # config says train, which does not read [hw]; invoke cost, which does
        p = write(tmp_path, "[experiment]\ncommand = train\n[hw]\nrows = 300\n")
        assert run(p, out_dir=tmp_path / "t") == EXIT_CONFIG
        assert cli_main(["cost", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert "vmm_throughput_gops" in report
        assert report["params"]["rows"] == 300
        # cost reads neither the task nor [train]
        assert cli_main(["cost", "--config", str(write(tmp_path, FAST_TRAIN)),
                         "--out", str(tmp_path / "f")]) == EXIT_CONFIG
        # the subcommand names the command a file leaves unset
        p = write(tmp_path, "[hw]\nrows = 300\n", "no-command.ini")
        assert run(p, out_dir=tmp_path / "n") == EXIT_CONFIG
        assert cli_main(["cost", "--config", str(p), "--out", str(tmp_path / "c")]) == EXIT_OK
        report = json.loads((tmp_path / "c" / "report.json").read_text())
        assert report["params"]["rows"] == 300
