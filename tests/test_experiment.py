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

    @pytest.mark.parametrize("config, command", [
        (FAST_TRAIN.replace("epochs = 2", "epochs = abc"), "train"),
        (FAST_TRAIN.replace("seed = 5", "seed = 5\nthreads = x"), "train"),
        (None, "cost"),
        (json.dumps({"experiment": {"command": "train", "task": "word_lm", "threads": 0}}),
         "train"),
    ], ids=["epochs-not-int", "threads-not-int", "out-is-a-file", "json-threads-zero"])
    def test_malformed_input_exit_2(self, tmp_path, capsys, config, command):
        out = tmp_path / "out"
        argv = [command, "--out", str(out)]
        if config is None:
            out.write_text("")
        else:
            argv += ["--config", str(write(tmp_path, config))]
        assert cli_main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    def test_fixed_weight_noise_draw_exit_2(self, tmp_path, capsys):
        p = write(tmp_path, FAST_TRAIN + """
[noise]
weight_noise_beta = 0.1
resample_per_read = false
""")
        assert run(p, out_dir=tmp_path / "out") == EXIT_CONFIG
        assert "resample_per_read" in capsys.readouterr().err

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
        # older manifests record a "seed" in train.noise; noise streams
        # derive from the train seed, so a re-run ignores it
        p = write(tmp_path, FAST_TRAIN + "[noise]\nadc_noise = on\n")
        assert run(p, out_dir=tmp_path / "a") == EXIT_OK
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        manifest["train"]["noise"]["seed"] = 7
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
