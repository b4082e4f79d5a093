"""Behavioral model of the NVM weight array with DACs, column-multiplexed
ADCs and injected read noise.

Signed weights use one effective conductance per cell (the difference of a
device pair), mapped linearly from the quantized weight:

    g_eff = (w_q / max(|w_min|, |w_max|)) * (g_max - g_min)

so a column current I_j = sum_i V_i * G_ij scales back into weight units by
the inverse factor.  Data fed to the DACs is expressed in read-voltage
units (v_read = 1 V by default, so data values are the row voltages).

Two noise sources can be injected per read:

* weight noise, Gaussian with sigma = beta * (w_max - w_min), applied in
  weight units before the conductance map and redrawn on every read;
* ADC quantization noise, Gaussian with sigma = full_scale/(2^N * sqrt(12)),
  added to the pre-activation before the ADC snaps it to its grid.

The single-vector `vmm` accumulates column currents row by row so its
result is bit-identical to a scalar summation loop; batched training uses
BLAS matmuls instead (same arithmetic, different summation order).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .hwcost import quantization_noise_v
from .lstm import GateActivations, LSTMState
from .quantizer import ActivationLUT, QuantSpec, build_lut, from_code, quantize, to_code

__all__ = [
    "CrossbarConfig",
    "NoiseConfig",
    "ProgrammedArray",
    "program",
    "read_back",
    "column_currents",
    "vmm",
    "quantized_lstm_step",
    "save_array",
    "load_array",
    "gate_luts",
]

MAX_WEIGHT_NOISE_BETA = 0.2


@dataclass(frozen=True)
class NoiseConfig:
    """Switches for the two injected noise sources.  Their random streams
    are passed in by the caller (derived from the train seed)."""

    adc_noise_enabled: bool = False
    weight_noise_beta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.weight_noise_beta <= MAX_WEIGHT_NOISE_BETA):
            raise ValueError(
                f"weight_noise_beta must be within [0, {MAX_WEIGHT_NOISE_BETA}], "
                f"got {self.weight_noise_beta}"
            )

    @property
    def any_enabled(self) -> bool:
        return self.adc_noise_enabled or self.weight_noise_beta > 0.0


@dataclass(frozen=True)
class CrossbarConfig:
    """Array geometry, device conductance window and converter specs."""

    rows: int
    cols: int
    weight_spec: QuantSpec
    dac_spec: QuantSpec
    adc_spec: QuantSpec
    g_min: float = 1e-6   # siemens
    g_max: float = 51e-6
    v_read: float = 1.0
    num_adcs: int = 64
    t_col: float = 6.25e-9  # per-column conversion latency (s)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array must have at least one row and column")
        if self.cols % self.num_adcs != 0:
            raise ValueError(f"num_adcs ({self.num_adcs}) must divide cols ({self.cols})")
        if not 0 <= self.g_min <= self.g_max:
            raise ValueError("need 0 <= g_min <= g_max")
        if self.g_min == self.g_max:
            raise ValueError("conductance window is empty (g_min == g_max)")
        if self.v_read <= 0:
            raise ValueError("v_read must be positive")
        if max(abs(self.dac_spec.v_min), abs(self.dac_spec.v_max)) > self.v_read * (1 + 1e-12):
            raise ValueError("dac grid exceeds the +-v_read drive range")

    @property
    def mux_ratio(self) -> int:
        return self.cols // self.num_adcs

    @property
    def g_span(self) -> float:
        return self.g_max - self.g_min

    @property
    def w_absmax(self) -> float:
        return max(abs(self.weight_spec.v_min), abs(self.weight_spec.v_max))

    @property
    def read_latency(self) -> float:
        """Seconds to digitize all columns, mux_ratio conversions per ADC."""
        return self.mux_ratio * self.t_col

    @classmethod
    def for_lstm(cls, input_size: int, hidden_size: int, weight_bits: int,
                 adc_bits: int, dac_bits: int, w_max: float = 1.0,
                 adc_range: float = 4.0, **kwargs) -> "CrossbarConfig":
        """Geometry and specs for one concatenated LSTM weight array:
        (m+n) rows by 4n columns in [f | i | o | c] block order."""
        cols = 4 * hidden_size
        if "num_adcs" not in kwargs:
            # largest column count per ADC that still divides evenly,
            # targeting a bank of at most 64 ADCs
            mux = max(1, -(-cols // 64))
            while cols % mux:
                mux += 1
            kwargs["num_adcs"] = cols // mux
        return cls(
            rows=input_size + hidden_size,
            cols=cols,
            weight_spec=QuantSpec.symmetric(weight_bits, w_max),
            dac_spec=QuantSpec.symmetric(dac_bits, kwargs.get("v_read", 1.0)),
            adc_spec=QuantSpec.symmetric(adc_bits, adc_range),
            **kwargs,
        )


@dataclass(frozen=True)
class ProgrammedArray:
    """Immutable snapshot of the programmed conductances."""

    g_eff: np.ndarray         # rows x cols signed effective conductances (S)
    source_codes: np.ndarray  # rows x cols weight quantization codes
    weight_spec: QuantSpec
    g_min: float
    g_max: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.g_eff.shape

    @property
    def g_span(self) -> float:
        return self.g_max - self.g_min

    @property
    def w_absmax(self) -> float:
        return max(abs(self.weight_spec.v_min), abs(self.weight_spec.v_max))


def program(weights: np.ndarray, cfg: CrossbarConfig) -> ProgrammedArray:
    """Quantize weights onto the device grid and map them to conductances."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (cfg.rows, cfg.cols):
        raise ValueError(f"weights shape {weights.shape} != array {cfg.rows}x{cfg.cols}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    codes = to_code(weights, cfg.weight_spec)
    w_q = from_code(codes, cfg.weight_spec)
    g_eff = w_q / cfg.w_absmax * cfg.g_span
    g_eff.setflags(write=False)
    codes.setflags(write=False)
    return ProgrammedArray(g_eff=g_eff, source_codes=codes,
                           weight_spec=cfg.weight_spec, g_min=cfg.g_min, g_max=cfg.g_max)


def read_back(arr: ProgrammedArray) -> np.ndarray:
    """Weight-unit view of the programmed array; equals quantize(W, weight_spec)
    of the original weights exactly (codes are stored, not re-derived)."""
    return from_code(arr.source_codes, arr.weight_spec)


def _read_conductances(arr: ProgrammedArray, noise: NoiseConfig | None,
                       rng: np.random.Generator | None) -> np.ndarray:
    if noise is None or not noise.any_enabled:
        return arr.g_eff
    if rng is None:
        raise ValueError("noise is enabled but no rng_state was provided")
    if noise.weight_noise_beta > 0.0:
        sigma = noise.weight_noise_beta * arr.weight_spec.full_range
        z = rng.normal(0.0, sigma, size=arr.g_eff.shape)
        return arr.g_eff + z / arr.w_absmax * arr.g_span
    return arr.g_eff


def column_currents(g: np.ndarray, voltages: np.ndarray) -> np.ndarray:
    """Ohm's-law column currents I_j = sum_i V_i * G_ij, accumulated row by
    row so the result matches a scalar summation loop bit for bit."""
    acc = np.zeros(g.shape[1])
    for i in range(g.shape[0]):
        acc += voltages[i] * g[i, :]
    return acc


def vmm(arr: ProgrammedArray, x_codes: np.ndarray, cfg: CrossbarConfig,
        noise: NoiseConfig | None = None, rng: np.random.Generator | None = None,
        return_pre_adc: bool = False):
    """One analog read: DAC decode, Ohm's-law column sum, optional noise,
    ADC snap.  Returns (adc codes, dequantized pre-activation values), both
    length cols; with return_pre_adc also the noisy pre-ADC vector in weight
    units.  Columns are converted in mux groups of size mux_ratio, which
    affects timing accounting only (see CrossbarConfig.read_latency).
    """
    x_codes = np.asarray(x_codes)
    if x_codes.shape != (cfg.rows,):
        raise ValueError(f"input codes shape {x_codes.shape} != rows {cfg.rows}")
    v = from_code(x_codes, cfg.dac_spec)

    g = _read_conductances(arr, noise, rng)
    currents = column_currents(g, v)
    pre = currents * (arr.w_absmax / arr.g_span)  # back to weight units

    if noise is not None and noise.adc_noise_enabled:
        if rng is None:
            raise ValueError("noise is enabled but no rng_state was provided")
        sigma = quantization_noise_v(cfg.adc_spec.full_range, cfg.adc_spec.bits)
        pre = pre + rng.normal(0.0, sigma, size=pre.shape)

    codes = to_code(pre, cfg.adc_spec)
    if return_pre_adc:
        return codes, from_code(codes, cfg.adc_spec), pre
    return codes, from_code(codes, cfg.adc_spec)


def gate_luts(adc_specs, out_bits: int) -> tuple[ActivationLUT, ...]:
    """(sigmoid_f, sigmoid_i, sigmoid_o, tanh_c) tables, one per gate block.
    Sigmoid outputs span [0, 1], tanh outputs [-1, 1], both at out_bits."""
    sig_out = QuantSpec(out_bits, 0.0, 1.0)
    tanh_out = QuantSpec(out_bits, -1.0, 1.0)
    fns = ("sigmoid", "sigmoid", "sigmoid", "tanh")
    outs = (sig_out, sig_out, sig_out, tanh_out)
    return tuple(build_lut(fn, spec, out) for fn, spec, out in zip(fns, adc_specs, outs))


def quantized_lstm_step(arr: ProgrammedArray, x: np.ndarray, state: LSTMState,
                        cfg: CrossbarConfig, noise: NoiseConfig | None = None,
                        rng: np.random.Generator | None = None,
                        gate_adc_specs: tuple[QuantSpec, ...] | None = None,
                        luts: tuple[ActivationLUT, ...] | None = None,
                        ) -> tuple[LSTMState, GateActivations]:
    """One LSTM step through the crossbar: [x, h] through the DACs, a single
    read over all 4n columns split into the [f | i | o | c] gate blocks,
    LUT activations on the ADC codes, then the memory-cell update in full
    precision.  h_t is snapped back to the DAC grid before returning; c_t
    stays full precision.
    """
    n = cfg.cols // 4
    m = cfg.rows - n
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m,):
        raise ValueError(f"input shape {x.shape} does not match m={m}")
    if state.h.shape != (n,):
        raise ValueError(f"state shape {state.h.shape} does not match n={n}")
    if gate_adc_specs is None:
        gate_adc_specs = (cfg.adc_spec,) * 4
    if luts is None:
        luts = gate_luts(gate_adc_specs, cfg.adc_spec.bits)

    u_codes = np.concatenate([to_code(x, cfg.dac_spec), to_code(state.h, cfg.dac_spec)])
    v = from_code(u_codes, cfg.dac_spec)

    g = _read_conductances(arr, noise, rng)
    pre = column_currents(g, v) * (arr.w_absmax / arr.g_span)

    gates = []
    for b, (spec, lut) in enumerate(zip(gate_adc_specs, luts)):
        block = pre[b * n:(b + 1) * n]
        if noise is not None and noise.adc_noise_enabled:
            if rng is None:
                raise ValueError("noise is enabled but no rng_state was provided")
            sigma = quantization_noise_v(spec.full_range, spec.bits)
            block = block + rng.normal(0.0, sigma, size=block.shape)
        gates.append(lut(to_code(block, spec)))
    f, i, o, c_tilde = gates

    c = f * state.c + i * c_tilde
    h = np.asarray(quantize(o * np.tanh(c), cfg.dac_spec))
    return LSTMState(h=h, c=c), GateActivations(f=f, i=i, o=o, c_tilde=c_tilde)


# --- array dump format ---------------------------------------------------------
#
# Textual, bit-exact.  Floats are serialized with float.hex(); weight codes
# are integers, one row per line:
#
#     xbarlstm-array v1
#     rows <int> cols <int>
#     weight_bits <int>
#     weight_range <v_min.hex()> <v_max.hex()>
#     conductance <g_min.hex()> <g_max.hex()>
#     <code code code ...>        (rows lines)

_MAGIC = "xbarlstm-array v1"


def save_array(arr: ProgrammedArray, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        _write_array(arr, fh)


def _write_array(arr: ProgrammedArray, fh: io.TextIOBase) -> None:
    rows, cols = arr.shape
    spec = arr.weight_spec
    fh.write(f"{_MAGIC}\n")
    fh.write(f"rows {rows} cols {cols}\n")
    fh.write(f"weight_bits {spec.bits}\n")
    fh.write(f"weight_range {float(spec.v_min).hex()} {float(spec.v_max).hex()}\n")
    fh.write(f"conductance {float(arr.g_min).hex()} {float(arr.g_max).hex()}\n")
    for r in range(rows):
        fh.write(" ".join(str(int(c)) for c in arr.source_codes[r]) + "\n")


def _dump_values(lineno: int, line: str, layout: str, parse) -> list:
    """The values on dump line `lineno` (1-based), parsed with `parse`.
    `layout` spells the line with `_` where a value goes, e.g. 'rows _ cols _'."""
    tok, keys = line.split(), layout.split()
    if len(tok) != len(keys) or any(k not in ("_", t) for k, t in zip(keys, tok)):
        raise ValueError(f"line {lineno}: expected {layout!r}, got {line!r}")
    try:
        return [parse(t) for k, t in zip(keys, tok) if k == "_"]
    except ValueError:
        raise ValueError(f"line {lineno}: malformed value in {line!r}") from None


def load_array(path) -> ProgrammedArray:
    """Read a dump written by `save_array`.  A malformed header line, a row
    with the wrong number of codes, a missing row or a line after the
    declared rows raises ValueError naming the line."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"not an array dump (bad magic {lines[0] if lines else ''!r})")
    header = lines[1:5] + [""] * (5 - len(lines))
    rows, cols = _dump_values(2, header[0], "rows _ cols _", int)
    if rows < 1 or cols < 1:
        raise ValueError(f"line 2: rows and cols must be positive, got {header[0]!r}")
    (bits,) = _dump_values(3, header[1], "weight_bits _", int)
    spec = QuantSpec(bits, *_dump_values(4, header[2], "weight_range _ _", float.fromhex))
    g_min, g_max = _dump_values(5, header[3], "conductance _ _", float.fromhex)
    body = lines[5:]
    if len(body) > rows:
        raise ValueError(f"line {6 + rows}: unexpected line after the {rows} declared rows")
    codes = np.empty((rows, cols), dtype=np.int64)
    for r in range(rows):
        line = body[r].split() if r < len(body) else []
        if len(line) != cols:
            raise ValueError(f"line {6 + r}: row {r} has {len(line)} codes, expected {cols}")
        try:
            codes[r] = [int(c) for c in line]
        except ValueError:
            raise ValueError(f"line {6 + r}: malformed code in row {r}") from None
    w_q = from_code(codes, spec)
    w_absmax = max(abs(spec.v_min), abs(spec.v_max))
    g_eff = w_q / w_absmax * (g_max - g_min)
    g_eff.setflags(write=False)
    codes.setflags(write=False)
    return ProgrammedArray(g_eff=g_eff, source_codes=codes, weight_spec=spec,
                           g_min=g_min, g_max=g_max)
