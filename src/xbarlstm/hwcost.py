"""Analytical throughput / power / area estimator for the crossbar LSTM
accelerator, plus the circuit noise-magnitude helper formulas.

Conventions that matter when reading the numbers:

* 1 OP = 1 multiply-accumulate.  356*1024 MACs in a 100 ns read is what
  makes the headline 3645 GOP/s; schemes that count 2 ops per MAC would
  report double.
* ADC energy per sample is flat (e_adc_low) below the ENOB knee and
  quadruples per extra effective bit above it: e = e_low * 2^(2*(enob-knee)).
* ADC unit area is flat up to 6 bits and grows by `area_growth` per bit
  above that; the default growth 2.15/bit is calibrated so a 4-bit ADC is
  0.01 mm^2 while a 12-bit one lands near 1 mm^2.
* `residual_power` / `residual_area` lump the DACs, muxes, buffers,
  activation and element-wise units; they are back-solved constants chosen
  so the default configuration reproduces the published totals, and are
  plain overridable fields.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, asdict

__all__ = [
    "HwParams",
    "InfeasibleHardware",
    "throughput",
    "adc_energy_per_sample",
    "power",
    "area",
    "efficiencies",
    "cost_report",
    "quantization_noise_v",
    "enob",
    "johnson_noise",
    "shot_noise",
    "COMPARISON_ROWS",
    "render_comparison_tables",
]

BOLTZMANN_J_PER_K = 1.380649e-23
ELEMENTARY_CHARGE_C = 1.602176634e-19

MM2 = 1e-6  # m^2 per mm^2


class InfeasibleHardware(ValueError):
    """Raised when the ADCs cannot cover all columns within the read window."""


@dataclass(frozen=True)
class HwParams:
    """Hardware operating point.  Defaults describe the 356x1024 array used
    for the character-prediction task with 64 time-multiplexed 4-bit ADCs.
    The ADC bank and the read timing are described here only; the
    simulated read (`crossbar`) has no notion of them."""

    rows: int = 356
    cols: int = 1024
    t_read: float = 100e-9      # full-array VMM read latency (s)
    t_act: float = 5e-9         # nonlinear activation latency (s)
    t_elem: float = 1e-9        # element-wise op latency (s)
    num_adcs: int = 64
    f_sample: float = 160e6     # ADC sampling rate (samples/s)
    adc_bits: int = 4
    v_read: float = 1.0         # volts
    r_avg: float = 1e6          # average cell resistance (ohm)
    pitch: float = 400e-9       # cell pitch (m)
    e_adc_low: float = 1e-12    # J/sample below the ENOB knee
    enob_knee: float = 9.0      # bits
    adc_area_4bit: float = 0.01 * MM2   # m^2
    area_growth: float = 2.15   # ADC area multiplier per bit above 6
    residual_power: float = 0.762       # W, peripherals
    residual_area: float = 0.333 * MM2  # m^2, peripherals
    parallel_arrays: int = 1

    def __post_init__(self):
        for name, value in asdict(self).items():
            # NaN fails both comparisons; an int too large for a float fails the second
            if not 0 < value <= sys.float_info.max:
                raise ValueError(f"HwParams.{name} must be positive and finite, got {value}")
        if self.cols % self.num_adcs != 0:
            raise ValueError(f"num_adcs ({self.num_adcs}) must divide cols ({self.cols})")

    @property
    def mux_ratio(self) -> int:
        return self.cols // self.num_adcs

    @property
    def ops_per_read(self) -> int:
        # one MAC per cell per read
        return self.rows * self.cols

    def check_feasible(self):
        """The ADC bank must digitize every column within the read window."""
        t_needed = self.cols / (self.num_adcs * self.f_sample)
        if t_needed > self.t_read * (1 + 1e-12):
            raise InfeasibleHardware(
                f"{self.num_adcs} ADCs at {self.f_sample:.3g} S/s need "
                f"{t_needed * 1e9:.1f} ns to cover {self.cols} columns, "
                f"exceeding the {self.t_read * 1e9:.1f} ns read window"
            )


def throughput(p: HwParams) -> tuple[float, float]:
    """(VMM GOP/s, overall GOP/s).  Overall adds activation and element-wise
    latency to the read latency."""
    p.check_feasible()
    ops = p.ops_per_read * p.parallel_arrays
    vmm = ops / p.t_read / 1e9
    overall = ops / (p.t_read + p.t_act + p.t_elem) / 1e9
    return vmm, overall


def adc_energy_per_sample(enob_bits: float, p: HwParams = HwParams()) -> float:
    """Joules per ADC sample; flat below the knee, quadrupling per bit above."""
    if enob_bits <= 0:
        raise ValueError("enob must be positive")
    if enob_bits < p.enob_knee:
        return p.e_adc_low
    return p.e_adc_low * 2.0 ** (2.0 * (enob_bits - p.enob_knee))


def power(p: HwParams) -> dict[str, float]:
    """Power breakdown in watts: {'adc', 'array', 'residual', 'total'}."""
    adc = p.num_adcs * p.f_sample * adc_energy_per_sample(p.adc_bits, p)
    array = p.rows * p.cols * p.v_read**2 / p.r_avg
    adc *= p.parallel_arrays
    array *= p.parallel_arrays
    total = adc + array + p.residual_power
    return {"adc": adc, "array": array, "residual": p.residual_power, "total": total}


def adc_unit_area(bits: float, p: HwParams = HwParams()) -> float:
    """Single-ADC area in m^2; flat up to 6 bits, growing `area_growth`x/bit."""
    if bits <= 6:
        return p.adc_area_4bit
    return p.adc_area_4bit * p.area_growth ** (bits - 6)


def area(p: HwParams) -> dict[str, float]:
    """Area breakdown in m^2: {'adc', 'array', 'residual', 'total'}."""
    adc = p.num_adcs * adc_unit_area(p.adc_bits, p) * p.parallel_arrays
    array = p.rows * p.cols * p.pitch**2 * p.parallel_arrays
    total = adc + array + p.residual_area
    return {"adc": adc, "array": array, "residual": p.residual_area, "total": total}


def efficiencies(p: HwParams) -> tuple[float, float]:
    """(GOP/s/W, GOP/s/mm^2) using overall throughput and the totals."""
    report = cost_report(p)
    return (report["computing_efficiency_gops_per_w"],
            report["area_efficiency_gops_per_mm2"])


# --- noise-magnitude helpers -------------------------------------------------

def quantization_noise_v(full_range: float, bits: int) -> float:
    """RMS quantization noise of an N-bit converter over `full_range` volts:
    (range / 2^N) / sqrt(12).  A +-1 V 2-bit converter gives 0.144 V."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if full_range <= 0:
        raise ValueError("full_range must be positive")
    return full_range / (2**bits * math.sqrt(12.0))


def enob(snr_db: float) -> float:
    """Effective number of bits from SNR in dB: (SNR - 1.76) / 6.02."""
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    return (snr_db - 1.76) / 6.02


def johnson_noise(r_ohm: float, t_kelvin: float, bandwidth_hz: float) -> float:
    """Thermal noise voltage sqrt(4 k_B T R BW); ~4 nV/sqrt(Hz) at 1 kOhm,
    300 K.  The factor-4 (two-sided) convention is used because that is the
    form the quoted nanovolt figure corresponds to."""
    if min(r_ohm, t_kelvin, bandwidth_hz) <= 0:
        raise ValueError("resistance, temperature, bandwidth must be positive")
    return math.sqrt(4.0 * BOLTZMANN_J_PER_K * t_kelvin * r_ohm * bandwidth_hz)


def shot_noise(i_amp: float, bandwidth_hz: float) -> float:
    """Shot noise current sqrt(2 e I BW)."""
    if i_amp < 0 or bandwidth_hz <= 0:
        raise ValueError("current must be >= 0 and bandwidth positive")
    return math.sqrt(2.0 * ELEMENTARY_CHARGE_C * i_amp * bandwidth_hz)


# --- report ------------------------------------------------------------------

def cost_report(p: HwParams = HwParams()) -> dict:
    """The cost report `cost` writes as report.json: throughputs in GOP/s,
    the power breakdown in W, the area breakdown in mm^2, the two
    efficiencies and the params."""
    vmm, overall = throughput(p)
    pw = power(p)
    ar = {k: v / MM2 for k, v in area(p).items()}
    return {
        "vmm_throughput_gops": vmm,
        "overall_throughput_gops": overall,
        "power_w": pw,
        "area_mm2": ar,
        "computing_efficiency_gops_per_w": overall / pw["total"],
        "area_efficiency_gops_per_mm2": overall / ar["total"],
        "params": asdict(p),
    }


# Published figures for competing platforms, kept as reference constants for
# report output only (none of these platforms is modeled here).
COMPARISON_ROWS = {
    "digital": [
        {"name": "Nvidia Jetson AGX Xavier", "technology": "GPU", "precision_bits": 16,
         "throughput_gops": 3478, "power_w": 15, "computing_efficiency": 231,
         "area_mm2": 8700, "area_efficiency": 0.399,
         "source": "Nvidia Jetson AGX Xavier inference benchmarks (2018)"},
        {"name": "ESE", "technology": "FPGA", "precision_bits": 12,
         "throughput_gops": 282, "power_w": 41, "computing_efficiency": 6.88,
         "area_mm2": None, "area_efficiency": None,
         "source": "Han et al., FPGA 2017 (sparse LSTM engine)"},
        {"name": "Tianjic", "technology": "ASIC", "precision_bits": 8,
         "throughput_gops": 1214, "power_w": 0.95, "computing_efficiency": 1278,
         "area_mm2": 14.44, "area_efficiency": 84,
         "source": "Pei et al., Nature 2019 (hybrid neuromorphic chip)"},
    ],
    "nvm": [
        {"name": "IBM RPU", "array_size": "4096x4096", "precision_bits": None,
         "throughput_gops": 84000, "power_w": 6, "computing_efficiency": 14166,
         "area_mm2": 8.04, "area_efficiency": 10477,
         "source": "Gokmen et al., 2018 (resistive processing unit, 3 arrays)"},
        {"name": "RRAM PIM", "array_size": "128x128", "precision_bits": 16,
         "throughput_gops": 108.4, "power_w": 0.932, "computing_efficiency": 116.3,
         "area_mm2": 0.39, "area_efficiency": 277,
         "source": "Long et al., TVLSI 2018 (ReRAM processing-in-memory)"},
    ],
}


def _fmt(x):
    if x is None:
        return "N/A"
    if isinstance(x, str):
        return x
    if isinstance(x, float) and not x.is_integer():
        return f"{x:,.3f}".rstrip("0").rstrip(".")
    return f"{x:,.0f}"


def render_comparison_tables(report: dict, fmt: str = "text") -> str:
    """Render the digital and NVM comparison tables ('text' or 'csv') of
    the reference rows and a 'this work' row read from `report`, the dict
    `cost_report` returns."""
    p = report["params"]
    this_work = {
        "name": "This work", "technology": "NVM", "array_size": f"{p['rows']}x{p['cols']}",
        "precision_bits": p["adc_bits"], "throughput_gops": report["overall_throughput_gops"],
        "power_w": report["power_w"]["total"],
        "computing_efficiency": report["computing_efficiency_gops_per_w"],
        "area_mm2": report["area_mm2"]["total"],
        "area_efficiency": report["area_efficiency_gops_per_mm2"], "source": "this estimator",
    }
    tables = {"digital": ("Comparison with mainstream digital approaches", "technology"),
              "nvm": ("Comparison with other NVM-based approaches", "array_size")}
    out = io.StringIO()
    for kind, (title, second) in tables.items():
        cols = ["name", second, "precision_bits", "throughput_gops", "power_w",
                "computing_efficiency", "area_mm2", "area_efficiency", "source"]
        rows = [[r[c] for c in cols] for r in COMPARISON_ROWS[kind] + [this_work]]
        if fmt == "csv":
            csv.writer(out, lineterminator="\n").writerows(
                [["# " + title], cols] + [["N/A" if v is None else v for v in r] for r in rows])
        else:
            cells = [cols] + [[_fmt(v) for v in r] for r in rows]
            widths = [max(map(len, column)) for column in zip(*cells)]
            out.write(title + "\n")
            out.writelines("  ".join(map(str.ljust, r, widths)) + "\n" for r in cells)
        out.write("\n")
    return out.getvalue()[:-1]  # a blank line between the tables, none after the last
