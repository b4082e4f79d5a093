#!/usr/bin/env python3
"""Walk through the hardware cost model: throughput, power and area of the
356x1024 crossbar accelerator, and how the ADC resolution dominates both
budgets."""

from xbarlstm import HwParams, adc_energy_per_sample, cost_report, render_comparison_tables
from xbarlstm.hwcost import adc_unit_area, MM2

p = HwParams()
rep = cost_report(p)

print("Default operating point: %dx%d array, %d ADCs at %.0f MS/s, %d-bit"
      % (p.rows, p.cols, p.num_adcs, p.f_sample / 1e6, p.adc_bits))
print("Each ADC serves %d columns; a full read takes %.0f ns.\n"
      % (p.mux_ratio, p.t_read * 1e9))

print("Throughput (1 OP = 1 multiply-accumulate):")
print("  VMM only : %7.0f GOP/s" % rep["vmm_throughput_gops"])
print("  overall  : %7.0f GOP/s (adds %.0f ns activation + %.0f ns element-wise)\n"
      % (rep["overall_throughput_gops"], p.t_act * 1e9, p.t_elem * 1e9))

print("Power breakdown (W):")
for k, v in rep["power_w"].items():
    print(f"  {k:9s}: {v:.4f}")
print("Area breakdown (mm^2):")
for k, v in rep["area_mm2"].items():
    print(f"  {k:9s}: {v:.4f}")
print()
print("Computing efficiency: %6.0f GOP/s/W" % rep["computing_efficiency_gops_per_w"])
print("Area efficiency     : %6.0f GOP/s/mm^2\n" % rep["area_efficiency_gops_per_mm2"])

print("Why low-resolution ADCs matter: energy quadruples per effective bit")
print("above the knee, and area grows ~2.15x per bit above 6:")
for bits in (4, 9, 10, 12):
    print("  %2d-bit ADC: %6.1f pJ/sample, %6.3f mm^2 each"
          % (bits, adc_energy_per_sample(bits) * 1e12, adc_unit_area(bits) / MM2))
print()

print(render_comparison_tables(rep))
