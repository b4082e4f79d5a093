"""Uniform quantization grids, the straight-through gradient rule, and
quantized activation lookup tables.  The tables tabulate the one
`sigmoid` that the batched cell in `lstm` also evaluates.

A grid with N bits spans [v_min, v_max] inclusive with 2^N representable
levels, so the step is (v_max - v_min) / (2^N - 1).  At N = 1 this
degenerates to the two endpoints, which is what "binary weights" means
here: {-w_max, +w_max} on a symmetric range.  Ties round toward +inf so
results are deterministic across platforms.  Note that on a symmetric
range with an even number of levels, zero is *not* representable
(e.g. 4 bits over [-1, 1] has +-1/15 as the innermost levels).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuantSpec",
    "ActivationLUT",
    "quantize",
    "to_code",
    "from_code",
    "ste_backward",
    "build_lut",
    "sigmoid",
]


@dataclass(frozen=True)
class QuantSpec:
    """A uniform quantization grid: bit width plus an inclusive value range."""

    bits: int
    v_min: float
    v_max: float

    def __post_init__(self):
        if not (1 <= self.bits <= 16):
            raise ValueError(f"bits must be in [1, 16], got {self.bits}")
        if not (np.isfinite(self.v_min) and np.isfinite(self.v_max)):
            raise ValueError("range bounds must be finite")
        if not self.v_min < self.v_max:
            raise ValueError(f"need v_min < v_max, got [{self.v_min}, {self.v_max}]")
        # v_max must map to the top code in float64, or the range is too
        # wide (the step overflows) or too narrow (it loses its precision
        # in subnormals); to_code relies on it to clip before dividing
        step = self.step
        if not (0.0 < step < np.inf
                and np.floor((self.v_max - self.v_min) / step + 0.5) == self.levels - 1):
            raise ValueError(f"[{self.v_min}, {self.v_max}] is not a usable "
                             f"{self.bits}-bit grid in float64")

    @property
    def levels(self) -> int:
        return 1 << self.bits

    @property
    def step(self) -> float:
        # 2^N - 1 intervals between the inclusive endpoints; at N = 1 the
        # "step" is the full range (two levels at the endpoints).
        return (self.v_max - self.v_min) / (self.levels - 1)

    @property
    def full_range(self) -> float:
        return self.v_max - self.v_min

    def grid(self) -> np.ndarray:
        """All 2^N representable values, ascending."""
        return self.v_min + np.arange(self.levels) * self.step

    @classmethod
    def symmetric(cls, bits: int, amplitude: float) -> "QuantSpec":
        return cls(bits=bits, v_min=-amplitude, v_max=amplitude)


def _check_finite(x: np.ndarray):
    if not np.all(np.isfinite(x)):
        raise ValueError("quantizer input must be finite")


def to_code(x, spec: QuantSpec) -> np.ndarray:
    """Nearest grid index for each value; out-of-range input clips to the
    nearest endpoint code; exact midpoints round toward +inf."""
    x = np.asarray(x, dtype=np.float64)
    _check_finite(x)
    # floor((x - v_min) / step + 0.5) in one fresh buffer; floor(u + 0.5)
    # rounds half-up, i.e. toward +inf, unlike np.round.  The caller's
    # array is never written.  x is clipped to [v_min, v_max] first (two
    # ufuncs, equal to np.clip on finite input): every step is monotone,
    # so the codes equal clipping the result to [0, levels - 1], and
    # values near the float limit cannot overflow in the divide.
    raw = np.maximum(x, spec.v_min, out=np.empty(x.shape))
    np.minimum(raw, spec.v_max, out=raw)
    raw -= spec.v_min
    raw /= spec.step
    raw += 0.5
    np.floor(raw, out=raw)
    codes = raw.astype(np.int64)
    # 0-d input returns a numpy integer, not a 0-d array
    return codes if codes.ndim else codes[()]


def from_code(codes, spec: QuantSpec) -> np.ndarray:
    """Grid value for each code (the DAC / dequantization map)."""
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() >= spec.levels):
        raise ValueError(f"code out of range for {spec.bits}-bit grid")
    return spec.v_min + codes.astype(np.float64) * spec.step


def quantize(x, spec: QuantSpec):
    """Snap values to the nearest grid point (clipping outside the range).

    The grid value of `to_code(x)`, gathered from `spec.grid()`: bit for
    bit `from_code(to_code(x))`, without `from_code`'s range scan, which
    cannot fail on codes `to_code` has clipped.  Total over finite reals;
    NaN/inf raise.  Returns a float for scalar or 0-d input, an ndarray
    otherwise.
    """
    out = spec.grid()[to_code(x, spec)]
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def ste_backward(upstream_grad, x, spec: QuantSpec):
    """Clipped straight-through estimator: the quantizer backpropagates as
    identity for inputs inside [v_min, v_max] and blocks gradient outside."""
    out = np.asarray(upstream_grad, dtype=np.float64) * ste_mask(x, spec)
    if np.ndim(upstream_grad) == 0 and np.ndim(x) == 0:
        return float(out)
    return out


def ste_mask(x, spec: QuantSpec) -> np.ndarray:
    """Boolean pass-through mask of the clipped STE (True inside the range)."""
    x = np.asarray(x, dtype=np.float64)
    return (x >= spec.v_min) & (x <= spec.v_max)


def sigmoid(z, out: np.ndarray | None = None):
    """1 / (1 + exp(-z)), computed in `out` or in one new buffer."""
    z = np.asarray(z, dtype=np.float64)
    out = np.negative(z, out=np.empty(z.shape) if out is None else out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    # 0-d input returns a numpy float, not a 0-d array
    return out if out.ndim else out[()]


_ACTIVATIONS = {"sigmoid": sigmoid, "tanh": np.tanh}


@dataclass(frozen=True)
class ActivationLUT:
    """Lookup table mapping every ADC code to a quantized activation value.

    entries[k] == quantize(fn(from_code(k, in_spec)), out_spec), so a 4-bit
    ADC drives a 16-entry table.
    """

    fn: str
    in_spec: QuantSpec
    out_spec: QuantSpec
    entries: np.ndarray = field(repr=False)

    def __call__(self, codes) -> np.ndarray:
        return self.entries[np.asarray(codes)]


def build_lut(fn: str, in_spec: QuantSpec, out_spec: QuantSpec) -> ActivationLUT:
    """Tabulate a nonlinearity over the ADC grid, outputs snapped to out_spec."""
    if fn not in _ACTIVATIONS:
        raise ValueError(f"unsupported activation {fn!r}; expected one of {sorted(_ACTIVATIONS)}")
    inputs = from_code(np.arange(in_spec.levels), in_spec)
    entries = np.asarray(quantize(_ACTIVATIONS[fn](inputs), out_spec))
    entries.setflags(write=False)
    return ActivationLUT(fn=fn, in_spec=in_spec, out_spec=out_spec, entries=entries)
