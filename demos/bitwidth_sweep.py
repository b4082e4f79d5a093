#!/usr/bin/env python3
"""Full weight-bits x converter-bits exploration on the word task, the
desk-scale counterpart of the published perplexity grid: weight precision
matters more than converter precision."""

import time

from xbarlstm import sweep_bitwidths

t0 = time.time()
result = sweep_bitwidths("word_lm", weight_bits=(1, 2, 4), adc_bits=(1, 2, 4),
                         seeds=(1,))
matrix = result["mean_matrix"]

print("Validation perplexity per word (lower is better), seed-mean:\n")
header = "          " + "".join(f"  ADC/DAC {ab}b" for ab in result["adc_bits"])
print(header)
for i, wb in enumerate(result["weight_bits"]):
    row = "".join(f"  {matrix[i][j]:10.2f}" for j in range(len(result["adc_bits"])))
    print(f"weights {wb}b{row}")

print(f"\n({time.time()-t0:.0f} s; rerun with more seeds via sweep_bitwidths(..., seeds=(1,2,3)))")
print("Reading the anti-diagonal: 4-bit weights tolerate 2-bit converters far")
print("better than 2-bit weights tolerate 4-bit converters.")
