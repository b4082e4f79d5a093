#!/usr/bin/env python3
"""Full weight-bits x converter-bits exploration on the word task, the
desk-scale counterpart of the published perplexity grid: weight precision
matters more than converter precision."""

import tempfile
import time

from xbarlstm.experiment import ExperimentConfig, SweepConfig, run_experiment

t0 = time.time()
with tempfile.TemporaryDirectory() as out:
    result = run_experiment(ExperimentConfig(
        command="sweep", task="word_lm", out_dir=out,
        sweep=SweepConfig(weight_bits=(1, 2, 4), adc_bits=(1, 2, 4), seeds=(1,))))
matrix = result["mean_matrix"]

print("Validation perplexity per word (lower is better), seed-mean:\n")
header = "          " + "".join(f"  ADC/DAC {ab}b" for ab in result["adc_bits"])
print(header)
for i, wb in enumerate(result["weight_bits"]):
    row = "".join(f"  {matrix[i][j]:10.2f}" for j in range(len(result["adc_bits"])))
    print(f"weights {wb}b{row}")

print(f"\n({time.time()-t0:.0f} s; rerun with more seeds via SweepConfig(..., seeds=(1, 2, 3)))")
print("Reading the anti-diagonal: 4-bit weights tolerate 2-bit converters far")
print("better than 2-bit weights tolerate 4-bit converters.")
