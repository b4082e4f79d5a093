#!/usr/bin/env python3
"""Device and circuit noise at 4-bit precision: weight-noise ratio sweep
(read noise resampled on every cycle) and ADC quantization noise on/off."""

import tempfile
import time

from xbarlstm.experiment import ExperimentConfig, SweepConfig, run_experiment

t0 = time.time()
# adc_bits = (): the ADC noise cells run at the base 4 bits only
with tempfile.TemporaryDirectory() as out:
    result = run_experiment(ExperimentConfig(
        command="noise-sweep", task="char_lm", out_dir=out,
        sweep=SweepConfig(betas=(0.0, 0.1, 0.2), adc_noise_grid=("off", "on"),
                          adc_bits=(), seeds=(1,))))

print("Weight read noise, sigma = beta * (w_max - w_min), 4-bit everything:")
for cell in result["cells"]:
    if cell["kind"] == "weight_noise":
        print(f"  beta {cell['beta']:.2f}: perplexity/char {cell['metric']:.3f}")

print("\nADC quantization noise, sigma = range / (2^N sqrt(12)):")
for cell in result["cells"]:
    if cell["kind"] == "adc_noise":
        print(f"  adc noise {cell['adc_noise']:>3s}: perplexity/char {cell['metric']:.3f}")

print(f"\n({time.time()-t0:.0f} s) Even 20% weight noise barely moves the metric;")
print("the network was trained with the same noise it sees at read time.")
