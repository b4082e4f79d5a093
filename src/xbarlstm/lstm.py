"""LSTM cell mathematics: the batched step loop behind every forward pass,
and backpropagation through time.

The cell has no bias terms: gates come from sigmoid/tanh of
[x_t, h_{t-1}] @ W_* with the input concatenated before the previous
hidden state, the memory cell is c_t = f*c_{t-1} + i*c_tilde and the
hidden state is h_t = o*tanh(c_t).  The memory cell is never quantized.

`run_cell` is the one batched step loop behind every forward pass:
`forward_sequence` here and the fp, calibration and quantized forwards of
`network.LSTMNetwork`.  It reads the weight array it is given, latent or
programmed.  Its stages are switched on by the data passed to it: the
weight read (optional per-sample read noise), the pre-activation
(optional ADC noise, then an optional sink such as the ADC-range
calibration), the converter (sigmoid/tanh or per-gate ADC + LUT) and the
DAC (identity, or inputs and the recycled hidden state snapped to its
grid).  The scalar `lstm_step_ref` stays separate as the reference the
loop is checked against.

Weight read noise follows the hardware: every sample's VMM is a read of
its own, through an array with fresh i.i.d. N(0, sigma^2) noise Z_b.
The loop never builds Z_b.  For one sample u_b @ (W + Z_b) has the
distribution of u_b @ W + sigma |u_b| eps_b with eps_b ~ N(0, I) over
the 4n columns (local reparameterization, Kingma, Salimans & Welling
2015), so a step draws one (B, 4n) standard normal.  The cache keeps
that draw and the per-row scale, and backward adds the noise term's
derivative with respect to the recycled hidden state.

The quantized converters cost a fixed number of array operations per
step, whatever the gate count.  `FusedConverter` holds the four gate
ADCs as per-column v_min, v_max and step arrays plus one concatenated
LUT table, and converts the whole (B, 4n) pre-activation in one pass: a
finite check, the code floor((a - v_min)/step + 0.5) of `a` clipped to
[v_min, v_max], one gather, and the ADC pass mask when recording.
The DAC snaps the recycled hidden state as `grid[to_code(h)]` with the
grid built once per forward.  Both apply the same IEEE operations to
every element as the per-gate `to_code` / LUT / `quantize` calls, so
results are bit-identical to them.

The backward pass operates on the recorded `SequenceCache` of any
forward mode.  Quantizer nodes backpropagate as clipped identity
(straight-through): the cache carries boolean pass masks for the ADC and
the hidden-state DAC, and the caller may set a weight mask derived from
the latent weights; all are `None` in full-precision mode.
Local derivatives of the gate nonlinearities are evaluated at the
continuous pre-ADC values, i.e. the quantized activation unit is treated
as out-quantizer(fn(ADC(a))) with both quantizers backpropagating
straight through.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .quantizer import ActivationLUT, QuantSpec, _check_finite, ste_mask, to_code

__all__ = [
    "LSTMParams",
    "LSTMState",
    "GateActivations",
    "OpCounter",
    "StepRecord",
    "SequenceCache",
    "lstm_step_ref",
    "run_cell",
    "FusedConverter",
    "lstm_backward",
    "sigmoid",
    "GATE_ORDER",
]

GATE_ORDER = ("f", "i", "o", "c")  # column-block order in the concatenated array


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


@dataclass
class LSTMParams:
    """The four gate weight matrices, each (m+n) x n."""

    w_f: np.ndarray
    w_i: np.ndarray
    w_o: np.ndarray
    w_c: np.ndarray

    def __post_init__(self):
        shapes = {w.shape for w in (self.w_f, self.w_i, self.w_o, self.w_c)}
        if len(shapes) != 1:
            raise ValueError(f"gate matrices must share one shape, got {shapes}")
        rows, n = self.w_f.shape
        if rows <= n:
            raise ValueError(f"expected (m+n) x n with m >= 1, got {self.w_f.shape}")
        for name in ("w_f", "w_i", "w_o", "w_c"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def hidden_size(self) -> int:
        return self.w_f.shape[1]

    @property
    def input_size(self) -> int:
        return self.w_f.shape[0] - self.hidden_size

    def concat(self) -> np.ndarray:
        """(m+n) x 4n matrix with the gate blocks in [f | i | o | c] order."""
        return np.concatenate([self.w_f, self.w_i, self.w_o, self.w_c], axis=1)

    @classmethod
    def from_concat(cls, w: np.ndarray) -> "LSTMParams":
        n = w.shape[1] // 4
        return cls(*(w[:, k * n:(k + 1) * n].copy() for k in range(4)))

    @classmethod
    def random(cls, input_size: int, hidden_size: int, rng: np.random.Generator,
               scale: float | None = None) -> "LSTMParams":
        if scale is None:
            scale = 1.0 / np.sqrt(input_size + hidden_size)
        mats = [rng.normal(0.0, scale, size=(input_size + hidden_size, hidden_size))
                for _ in range(4)]
        return cls(*mats)


@dataclass
class LSTMState:
    h: np.ndarray  # (n,)
    c: np.ndarray  # (n,), always full precision

    @classmethod
    def zeros(cls, hidden_size: int) -> "LSTMState":
        return cls(h=np.zeros(hidden_size), c=np.zeros(hidden_size))


@dataclass
class GateActivations:
    f: np.ndarray
    i: np.ndarray
    o: np.ndarray
    c_tilde: np.ndarray


@dataclass
class OpCounter:
    """Tallies the per-step operation budget of the cell."""

    vmm: int = 0
    activations: int = 0
    elementwise_mul: int = 0
    elementwise_add: int = 0


def lstm_step_ref(params: LSTMParams, x: np.ndarray, state: LSTMState,
                  counter: OpCounter | None = None) -> tuple[LSTMState, GateActivations]:
    """One full-precision step of the cell.

    Per step: 4 vector-matrix products, 5 nonlinear activations,
    3 element-wise multiplies and 1 element-wise add.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.input_size,):
        raise ValueError(f"input shape {x.shape} does not match m={params.input_size}")
    if state.h.shape != (params.hidden_size,):
        raise ValueError(f"state shape {state.h.shape} does not match n={params.hidden_size}")

    u = np.concatenate([x, state.h])
    f = sigmoid(u @ params.w_f)
    i = sigmoid(u @ params.w_i)
    o = sigmoid(u @ params.w_o)
    c_tilde = np.tanh(u @ params.w_c)
    c = f * state.c + i * c_tilde
    tanh_c = np.tanh(c)
    h = o * tanh_c
    if counter is not None:
        counter.vmm += 4
        counter.activations += 5
        counter.elementwise_mul += 3
        counter.elementwise_add += 1
    return LSTMState(h=h, c=c), GateActivations(f=f, i=i, o=o, c_tilde=c_tilde)


@dataclass
class StepRecord:
    """Everything the backward pass needs about one time step (batch-first)."""

    inputs: np.ndarray            # (B, m+n) values fed to the VMM
    preact: np.ndarray            # (B, 4n) pre-activation entering the ADCs
    gates: np.ndarray             # (B, 4n) post-activation gate values
    c_prev: np.ndarray            # (B, n)
    c: np.ndarray                 # (B, n)
    tanh_c: np.ndarray            # (B, n)
    adc_mask: np.ndarray | None = None   # (B, 4n) STE pass mask at the ADC
    h_mask: np.ndarray | None = None     # (B, n) STE pass mask at the output DAC
    noise_eps: np.ndarray | None = None    # (B, 4n) standard normals of the weight read
    noise_scale: np.ndarray | None = None  # (B,) sigma * |u_b| scaling row b's normals


@dataclass
class SequenceCache:
    """Recorded forward pass over one (batched) sequence."""

    input_size: int
    hidden_size: int
    records: list[StepRecord] = field(default_factory=list)
    w_used: np.ndarray | None = None     # (m+n, 4n) array the VMM read
    w_mask: np.ndarray | None = None     # STE pass mask from the latent weights

    @property
    def steps(self) -> int:
        return len(self.records)


def forward_sequence(params: LSTMParams, x_seq: np.ndarray) -> tuple[np.ndarray, SequenceCache]:
    """Batched full-precision forward pass over a (T, B, m) input sequence.

    Returns the hidden states (T, B, n) and the recorded cache for
    lstm_backward.
    """
    return run_cell(x_seq, params.concat())


class FusedConverter:
    """The four per-gate ADCs and activation LUTs of a quantized step as one
    vectorized pass over the (B, 4n) pre-activation.

    Column j of gate block b takes gate b's ADC spec and LUT.  Its code is
    floor((a - v_min) / step + 0.5) of `a` clipped to [v_min, v_max], the
    same IEEE operations `quantizer.to_code` applies per gate, and its
    value is that code's entry of gate b's LUT, gathered from one
    concatenated table at the block's base offset.  So the gates equal
    `lut.entries[to_code(block, spec)]` and the mask equals
    `ste_mask(block, spec)` bit for bit, block by block.
    """

    def __init__(self, specs: Sequence[QuantSpec], luts: Sequence[ActivationLUT], n: int):
        for b, (spec, lut) in enumerate(zip(specs, luts, strict=True)):
            if lut.entries.size != spec.levels:
                raise ValueError(f"gate {b}: LUT has {lut.entries.size} entries, "
                                 f"its ADC has {spec.levels} codes")

        def per_column(values):
            return np.repeat(np.asarray(values), n)

        self.v_min = per_column([s.v_min for s in specs])
        self.v_max = per_column([s.v_max for s in specs])
        self.step = per_column([s.step for s in specs])
        self.base = per_column(np.cumsum([0] + [s.levels for s in specs[:-1]]))
        self.table = np.concatenate([lut.entries for lut in luts])

    def __call__(self, a: np.ndarray, record: bool = True
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        """(gate values, ADC pass mask) for a (B, 4n) pre-activation; the
        mask is None unless `record`.  Non-finite input raises ValueError."""
        a = np.asarray(a, dtype=np.float64)
        _check_finite(a)
        # clipped before the divide, as in `to_code`: no overflow
        raw = np.maximum(a, self.v_min)
        np.minimum(raw, self.v_max, out=raw)
        raw -= self.v_min
        raw /= self.step
        raw += 0.5
        np.floor(raw, out=raw)
        codes = raw.astype(np.int64)
        codes += self.base
        mask = (a >= self.v_min) & (a <= self.v_max) if record else None
        return self.table[codes], mask


def run_cell(x_seq: np.ndarray, w: np.ndarray, *,
             weight_noise: tuple[np.random.Generator, float] | None = None,
             adc_noise: tuple[np.random.Generator, np.ndarray] | None = None,
             on_preact: Callable[[np.ndarray], None] | None = None,
             adc: tuple[Sequence[QuantSpec], Sequence[ActivationLUT]] | None = None,
             dac_spec: QuantSpec | None = None,
             record: bool = True,
             ) -> tuple[np.ndarray, SequenceCache | None]:
    """The batched step loop behind every forward pass.

    Runs a (T, B, m) sequence through the cell with the (m+n) x 4n
    concatenated weights `w` and returns the hidden states (T, B, n) and
    the recorded cache (None when `record` is false), whose `w_used` is
    `w` as given; a caller that snapped `w` sets the cache's `w_mask`.
    Each stage is off when its argument is None:

    weight read: `u @ w`, plus per-sample read noise from
        `weight_noise = (rng, sigma)`: each step draws a (B, 4n) standard
        normal and adds row b times sigma |u_b| to `u @ w`, which is
        u_b @ (w + Z_b) in distribution for a fresh noise matrix Z_b of
        i.i.d. N(0, sigma^2) entries per sample and step.
    pre-activation: `adc_noise = (rng, per-column sigma)` is added, then
        `on_preact(a)` sees the result (the calibration sink).
    converter: sigmoid/tanh, or per-gate ADC + LUT from
        `adc = (specs, luts)` in one `FusedConverter` pass, which records
        the ADC pass mask.
    DAC: identity, or inputs and the recycled hidden state snapped to
        `dac_spec`, which records the hidden state's pass mask.
    """
    x_seq = np.asarray(x_seq, dtype=np.float64)
    if x_seq.ndim != 3:
        raise ValueError(f"expected (T, B, m) input, got shape {x_seq.shape}")
    t_steps, batch, m = x_seq.shape
    n = w.shape[1] // 4
    if m != w.shape[0] - n:
        raise ValueError(f"input dim {m} does not match m={w.shape[0] - n}")

    cache = SequenceCache(input_size=m, hidden_size=n, w_used=w) if record else None
    if dac_spec is None:
        h = np.zeros((batch, n))
    else:
        # grid[code] is from_code(code) without its per-call range scan
        dac_grid = dac_spec.grid()
        x_seq = dac_grid[to_code(x_seq, dac_spec)]
        h = np.full((batch, n), dac_grid[to_code(0.0, dac_spec)])
    converter = None if adc is None else FusedConverter(*adc, n)
    c = np.zeros((batch, n))
    h_seq = np.empty((t_steps, batch, n))

    for t in range(t_steps):
        u = np.concatenate([x_seq[t], h], axis=1)
        a = u @ w
        eps = noise_scale = None
        if weight_noise is not None:
            # u_b @ (W + Z_b), Z_b i.i.d. N(0, sigma^2), is distributed as
            # u_b @ W + sigma |u_b| eps_b, eps_b ~ N(0, I): one (B, 4n) draw
            rng, sigma = weight_noise
            eps = rng.normal(size=a.shape)
            noise_scale = sigma * np.sqrt(np.einsum("ij,ij->i", u, u))
            a += eps * noise_scale[:, None]
        if adc_noise is not None:
            rng, sigma = adc_noise
            z = rng.normal(size=a.shape)
            z *= sigma
            a += z
        if on_preact is not None:
            on_preact(a)

        adc_mask = None
        if converter is None:
            gates = np.concatenate([sigmoid(a[:, :3 * n]), np.tanh(a[:, 3 * n:])], axis=1)
        else:
            # the LUT is out-quantizer(fn(ADC(a))): both quantizers backprop
            # straight-through, so the cache records the continuous pre-ADC
            # value for the fn' evaluation plus the ADC pass mask
            gates, adc_mask = converter(a, record)

        f, i, o = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:3 * n]
        c_new = f * c + i * gates[:, 3 * n:]
        tanh_c = np.tanh(c_new)
        h = o * tanh_c
        if record:
            cache.records.append(StepRecord(
                inputs=u, preact=a, gates=gates, c_prev=c, c=c_new, tanh_c=tanh_c,
                adc_mask=adc_mask,
                h_mask=None if dac_spec is None else ste_mask(h, dac_spec),
                noise_eps=eps, noise_scale=noise_scale))
        if dac_spec is not None:
            h = dac_grid[to_code(h, dac_spec)]
        c = c_new
        h_seq[t] = h
    return h_seq, cache


@dataclass
class LSTMGrads:
    w_f: np.ndarray
    w_i: np.ndarray
    w_o: np.ndarray
    w_c: np.ndarray

    def concat(self) -> np.ndarray:
        return np.concatenate([self.w_f, self.w_i, self.w_o, self.w_c], axis=1)


def lstm_backward(cache: SequenceCache, d_h: list[np.ndarray] | np.ndarray) -> LSTMGrads:
    """Backpropagate through the recorded sequence.

    `d_h[t]` is the upstream loss gradient into h_t, shape (B, n) per step.
    Returns gradients w.r.t. the (latent) gate weight matrices; quantizer
    nodes pass gradient through where the cache masks allow.
    """
    if cache.steps == 0:
        raise ValueError("cache holds no recorded steps")
    if len(d_h) != cache.steps:
        raise ValueError(f"need one upstream gradient per step ({cache.steps}), got {len(d_h)}")

    if cache.w_used is None:
        raise ValueError("cache is missing the weight matrix used in the forward pass")
    m, n = cache.input_size, cache.hidden_size
    w_hidden = cache.w_used[m:]
    last = cache.records[-1]
    # each step's gate-input gradient goes into one buffer, so d_w is a
    # single GEMM over the stacked (T*B) rows after the recurrence
    da_seq = np.empty((cache.steps,) + last.preact.shape)
    dh_next = np.zeros_like(last.c)
    dc_next = np.zeros_like(dh_next)

    for t in range(cache.steps - 1, -1, -1):
        rec = cache.records[t]
        dh = np.asarray(d_h[t], dtype=np.float64) + dh_next
        if rec.h_mask is not None:
            dh = dh * rec.h_mask
        f, i, o = rec.gates[:, 0:n], rec.gates[:, n:2 * n], rec.gates[:, 2 * n:3 * n]
        c_tilde = rec.gates[:, 3 * n:]

        da = da_seq[t]
        dc = dc_next + dh * o * (1.0 - rec.tanh_c**2)
        np.multiply(dc, rec.c_prev, out=da[:, 0:n])               # df
        np.multiply(dc, c_tilde, out=da[:, n:2 * n])              # di
        np.multiply(dh, rec.tanh_c, out=da[:, 2 * n:3 * n])       # do
        np.multiply(dc, i, out=da[:, 3 * n:])                     # dc_tilde
        dc_next = dc * f

        # nonlinearity derivatives at the pre-activation values of this pass
        s = sigmoid(rec.preact[:, :3 * n])
        th = np.tanh(rec.preact[:, 3 * n:])
        da[:, :3 * n] *= s
        da[:, :3 * n] *= 1.0 - s
        da[:, 3 * n:] *= 1.0 - th**2
        if rec.adc_mask is not None:
            da *= rec.adc_mask

        if t > 0:
            # only the hidden slice of du feeds the recurrence
            dh_next = da @ w_hidden.T
            if rec.noise_eps is not None:
                # the read noise sigma |u_b| eps_b adds
                # sigma (da_b . eps_b) u_b / |u_b| to du_b, zero at u_b = 0
                u = rec.inputs
                sq = np.einsum("ij,ij->i", u, u)
                gain = np.einsum("ij,ij->i", da, rec.noise_eps) * rec.noise_scale
                np.divide(gain, sq, out=gain, where=sq > 0)
                dh_next += gain[:, None] * u[:, m:]

    inputs = np.concatenate([rec.inputs for rec in cache.records])
    d_w = inputs.T @ da_seq.reshape(inputs.shape[0], -1)
    if cache.w_mask is not None:
        d_w *= cache.w_mask
    return LSTMGrads(
        w_f=d_w[:, 0:n], w_i=d_w[:, n:2 * n], w_o=d_w[:, 2 * n:3 * n], w_c=d_w[:, 3 * n:],
    )
