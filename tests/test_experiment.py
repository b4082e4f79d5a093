"""Experiment harness: config parsing, exit codes, output artifacts,
manifest closure and byte-identical reproduction."""

import json

import numpy as np
import pytest

import xbarlstm.experiment as exp
from xbarlstm.cli import main as cli_main
from xbarlstm.experiment import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    ConfigError,
    load_config,
    run,
)
from xbarlstm.training import TrainingDiverged

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

    def test_flag_overrides(self, tmp_path):
        cfg = load_config(write(tmp_path, FAST_TRAIN), out_dir="elsewhere", seed=99, threads=3)
        assert cfg.out_dir == "elsewhere"
        assert cfg.seed == 99
        assert cfg.threads == 3


class TestConfigParserProperty:
    """Any INI or JSON text over the known sections and keys, with junk
    values, either loads or raises ConfigError: nothing else escapes."""

    WORDS = ["on", "off", "true", "0", "1", "4", "2.7", "-3", "0.1", "fp", "none", "nan",
             "inf", "1e400", str(10**400), "train", "sweep", "cost", "noise-sweep", "char_lm",
             "word_lm", "adam", "antipodal", "1 2", "4, 4, 4", "off, on", "%(x)s", "%", ""]

    def test_load_config_returns_a_config_or_raises_config_error(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        from dataclasses import fields

        from xbarlstm.hwcost import HwParams

        keys = {
            "experiment": ["command", "task", "out", "seed", "threads"],
            "train": sorted(exp._TRAIN_KEY_TYPES) + [
                "bitwidths", "weight_bits", "adc_bits", "dac_bits", "adc_range_override",
                "noise", "seed"],
            "noise": sorted(exp._NOISE_KEY_TYPES) + ["seed"],
            "hw": [f.name for f in fields(HwParams)] + ["adc_area_4bit_mm2",
                                                        "residual_area_mm2"],
            "sweep": [f.name for f in fields(exp.SweepConfig)],
        }
        words = st.sampled_from(self.WORDS)
        scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), words,
                            st.sampled_from([10**400, -(10**400)]), st.text(max_size=10))
        json_values = st.recursive(scalars, lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.dictionaries(st.sampled_from(keys["noise"]) | st.text(max_size=6), kids,
                            max_size=3)), max_leaves=8)
        ini_values = st.one_of(words, st.text(max_size=12), st.integers().map(str),
                               st.floats().map(repr))
        path = tmp_path / "cfg"

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(data=st.data())
        def check(data):
            as_json = data.draw(st.booleans())
            values = json_values if as_json else ini_values
            sections = {}
            for name, known in keys.items():
                if data.draw(st.booleans()):
                    sections[name] = data.draw(st.dictionaries(
                        st.sampled_from(known + ["bogus"]), values, max_size=4))
            if data.draw(st.booleans()):  # a valid command reaches the later checks
                sections.setdefault("experiment", {})["command"] = data.draw(
                    st.sampled_from(exp.COMMANDS))
            if as_json:
                text = json.dumps(sections)
            else:
                text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sec.items())
                               for name, sec in sections.items())
            path.write_text(text, encoding="utf-8")
            try:
                cfg = load_config(path)
            except ConfigError:
                return
            assert isinstance(cfg, exp.ExperimentConfig)

        check()


class TestExitCodes:
    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert run(tmp_path / "missing.ini") == EXIT_CONFIG
        assert "missing.ini" in capsys.readouterr().err

    def test_infeasible_hw_exit_4(self, tmp_path):
        p = write(tmp_path, "[experiment]\ncommand = cost\n[hw]\nnum_adcs = 8\n")
        assert run(p, out_dir=tmp_path / "out") == EXIT_INFEASIBLE

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
    ], ids=["epochs-not-int", "threads-not-int", "out-is-a-file", "json-threads-zero",
            "ini-out-empty", "json-out-empty", "cost-config-out-flag-empty",
            "cost-out-flag-empty", "json-seed-overflows", "sweep-weight-bits-zero",
            "adc-range-override-two-values", "not-utf-8", "hw-t-read-nan",
            "json-hw-t-read-infinity", "json-epochs-not-int", "json-adc-noise-not-bool",
            "learning-rate-inf", "init-scale-nan", "adc-range-percentile-150",
            "inline-noise-not-a-section", "json-out-nul-byte"])
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

    @pytest.mark.parametrize("hw", [f"rows = {10**306}", "adc_bits = 2000"],
                             ids=["rows-times-cols", "adc-energy"])
    def test_cost_model_overflow_exit_2(self, tmp_path, capsys, hw):
        p = write(tmp_path, f"[experiment]\ncommand = cost\n[hw]\n{hw}\n")
        assert run(p, out_dir=tmp_path / "out") == EXIT_CONFIG
        assert "overflow" in capsys.readouterr().err

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

    def test_threads_do_not_change_results(self, tmp_path):
        base = """
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
"""
        p = write(tmp_path, base)
        run(p, out_dir=tmp_path / "t1", threads=1)
        run(p, out_dir=tmp_path / "t2", threads=4)
        assert (tmp_path / "t1" / "metrics.csv").read_bytes() == \
               (tmp_path / "t2" / "metrics.csv").read_bytes()


class TestCLI:
    def test_cost_without_config(self, tmp_path, capsys):
        assert cli_main(["cost", "--out", str(tmp_path / "c")]) == EXIT_OK
        assert (tmp_path / "c" / "report.json").exists()

    def test_train_requires_config(self, capsys):
        assert cli_main(["train"]) == EXIT_CONFIG

    def test_subcommand_overrides_config_command(self, tmp_path):
        p = write(tmp_path, FAST_TRAIN)
        # config says train; invoke cost
        assert cli_main(["cost", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert "vmm_throughput_gops" in report
