#!/usr/bin/env python3
"""Program a crossbar, read it through the DAC/ADC chain, inject the two
noise sources, and round-trip an array dump."""

import tempfile
from pathlib import Path

import numpy as np

from xbarlstm import CrossbarConfig, NoiseConfig, load_array, program, read_back, save_array, vmm
from xbarlstm.quantizer import QuantSpec, to_code

rng = np.random.default_rng(42)
cfg = CrossbarConfig(
    rows=8, cols=8, num_adcs=4,
    weight_spec=QuantSpec.symmetric(4, 1.0),
    dac_spec=QuantSpec.symmetric(8, 1.0),
    adc_spec=QuantSpec.symmetric(8, 4.0),
)
print(f"Array: {cfg.rows}x{cfg.cols}, conductance window "
      f"[{cfg.g_min*1e6:.0f}, {cfg.g_max*1e6:.0f}] uS, "
      f"{cfg.num_adcs} ADCs (mux ratio {cfg.mux_ratio}, "
      f"read latency {cfg.read_latency*1e9:.1f} ns)\n")

w = rng.normal(0, 0.4, size=(8, 8))
arr = program(w, cfg)
print("Programming quantizes weights to the 4-bit device grid and maps them")
print("to signed effective conductances (differential pairs):")
print("  weight  %+.4f -> code %2d -> g_eff %+.3f uS"
      % (w[0, 0], arr.source_codes[0, 0], arr.g_eff[0, 0] * 1e6))
print("  read_back == quantize(w):", bool(np.all(read_back(arr) == arr.source_codes * cfg.weight_spec.step + cfg.weight_spec.v_min)))
print()

x = rng.uniform(-1, 1, 8)
codes = to_code(x, cfg.dac_spec)
adc_codes, pre = vmm(arr, codes, cfg)
direct = np.asarray([x_i for x_i in (cfg.dac_spec.v_min + codes * cfg.dac_spec.step)]) @ read_back(arr)
print("Noise off, the read recovers the digital product up to one ADC step:")
print("  max |vmm - direct| =", float(np.max(np.abs(pre - direct))),
      " (ADC step", cfg.adc_spec.step, ")")
print()

noise = NoiseConfig(adc_noise_enabled=True, weight_noise_beta=0.1)
print("With 10% weight noise and ADC quantization noise the same read varies:")
for k in range(3):
    _, noisy = vmm(arr, codes, cfg, noise=noise, rng=np.random.default_rng(100 + k))
    print("  column 0 reads:", np.round(noisy[:4], 3).tolist())
print("Equal seeds give bit-identical draws; beta = 0 skips drawing entirely.")
print()

with tempfile.TemporaryDirectory() as d:
    path = Path(d) / "array.txt"
    save_array(arr, path)
    loaded = load_array(path)
    print("Dump format round trip is bit-exact:",
          loaded.g_eff.tobytes() == arr.g_eff.tobytes())
    print("First dump lines:")
    for line in path.read_text().splitlines()[:4]:
        print("   ", line)
