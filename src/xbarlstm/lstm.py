"""LSTM cell mathematics: the batched step loop behind every forward pass,
and backpropagation through time.

The cell has no bias terms: gates come from sigmoid/tanh of
[x_t, h_{t-1}] @ W_* with the input concatenated before the previous
hidden state, the memory cell is c_t = f*c_{t-1} + i*c_tilde and the
hidden state is h_t = o*tanh(c_t).  The memory cell is never quantized.

`run_cell` is the one batched step loop behind every forward pass:
`forward_sequence` here and the fp, calibration and quantized forwards
of `network.LSTMNetwork`.  It reads the weight array it is given, latent
or programmed.  Its stages are switched on by the data passed to it: the
weight read (optional per-sample read noise), the pre-activation
(optional ADC noise, then an optional sink the caller passes, such as
the ADC-range calibration's collector), the converter (sigmoid/tanh or a
frozen ADC bank) and the DAC (identity, or inputs and the recycled
hidden state snapped to its grid).  The scalar `lstm_step_ref` stays
separate as the reference the loop is checked against.  A forward given
each row's length, rows sorted longest first, is an evaluation forward:
it records nothing, and each step runs only the prefix of rows still
inside their sequence (the packed-sequence layout of cuDNN).  Any other
forward records every step.

Weight read noise follows the hardware: every sample's VMM is a read of
its own, through an array with fresh i.i.d. N(0, sigma^2) noise Z_b.
The loop never builds Z_b.  For one sample u_b @ (W + Z_b) has the
distribution of u_b @ W + sigma |u_b| eps_b with eps_b ~ N(0, I) over
the 4n columns (local reparameterization, Kingma, Salimans & Welling
2015), so a step draws one (B, 4n) standard normal.  The cache keeps
that draw, made in place with `standard_normal(out=...)`, and the
per-row scale, and backward adds the noise term's derivative with
respect to the recycled hidden state.

The quantized converters cost a fixed number of array operations per
step, whatever the gate count.  The ADC bank, a `FusedConverter` built
once from the frozen ranges and the ADC bits, holds the four gate ADCs
as per-column v_min, v_max, step and noise-sigma arrays plus one
concatenated LUT table, and converts the whole (B, 4n) pre-activation in
one pass: one `to_code` call with the bank as its spec and one gather.
The DAC snaps the recycled hidden state as `grid[to_code(h)]` with the
grid built once per forward.  Both apply the same IEEE operations to
every element as the per-gate `to_code` / LUT / `quantize` calls, so
results are bit-identical to them.

Only the recurrence stays inside the step loops; work that does not
depend on it runs once per sequence, with the same IEEE operations on
every element.  A recorded forward writes each step into the
sequence-major buffers of a `SequenceCache`: step t of every buffer is
index t.  The inputs go into the VMM input rows before the loop, each
DAC-snapped hidden state goes straight into the next step's row, and
after the loop h_seq is read back from those rows and the ADC pass mask
is `ste_mask` of the cached pre-activations, all at once.  The backward
pass operates on the recorded cache of any forward mode and sums the
weight gradient in one GEMM over the stacked input rows.  The
nonlinearity derivatives, the ADC mask folded in, are made for as many
steps at a time as fit in FACTOR_VALUES values, which keeps them in
cache on the large array and makes them in one pass on a small one; the
step loop keeps dh, dc, the gate-gradient products, the factor
multiplies and the du GEMM.  Quantizer nodes backpropagate as clipped
identity (straight-through): the cache carries the ADC's boolean pass
mask, and the caller may set a weight mask derived from the latent
weights; both are `None` in full-precision mode.  The DAC range must
cover [-1, 1], the range of |h| = |o tanh(c)| <= 1, so the hidden
state's pass mask would be all true and is never built.  Local derivatives of the gate
nonlinearities are evaluated at the continuous pre-ADC values, i.e. the
quantized activation unit is treated as out-quantizer(fn(ADC(a))) with
both quantizers backpropagating straight through.  With ideal converters
the cached gates equal sigmoid/tanh of the cached pre-activations bit for
bit, so backward reads them instead of recomputing them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .hwcost import quantization_noise_v
from .quantizer import ActivationLUT, QuantSpec, build_lut, sigmoid, ste_mask, to_code

__all__ = [
    "LSTMParams",
    "LSTMState",
    "GateActivations",
    "OpCounter",
    "SequenceCache",
    "lstm_step_ref",
    "run_cell",
    "FusedConverter",
    "gate_luts",
    "lstm_backward",
    "sigmoid",
    "GATE_ORDER",
]

GATE_ORDER = ("f", "i", "o", "c")  # column-block order in the concatenated array


def gate_luts(adc_specs, out_bits: int) -> tuple[ActivationLUT, ...]:
    """(sigmoid_f, sigmoid_i, sigmoid_o, tanh_c) tables, one per gate block.
    Sigmoid outputs span [0, 1], tanh outputs [-1, 1], both at out_bits."""
    sig_out = QuantSpec(out_bits, 0.0, 1.0)
    tanh_out = QuantSpec(out_bits, -1.0, 1.0)
    fns = ("sigmoid", "sigmoid", "sigmoid", "tanh")
    outs = (sig_out, sig_out, sig_out, tanh_out)
    return tuple(build_lut(fn, spec, out) for fn, spec, out in zip(fns, adc_specs, outs))


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
class SequenceCache:
    """Recorded forward pass over one (batched) sequence of T steps, held
    sequence-major: index t of each buffer is step t."""

    input_size: int
    hidden_size: int
    inputs: np.ndarray                 # (T, B, m+n) values fed to the VMM
    preact: np.ndarray                 # (T, B, 4n) pre-activation entering the ADCs
    gates: np.ndarray                  # (T, B, 4n) post-activation gate values
    c: np.ndarray                      # (T+1, B, n) memory cell; c[0] is the zero state
    tanh_c: np.ndarray                 # (T, B, n)
    adc_mask: np.ndarray | None = None     # (T, B, 4n) STE pass mask at the ADC
    noise_eps: np.ndarray | None = None    # (T, B, 4n) standard normals of the weight read
    noise_scale: np.ndarray | None = None  # (T, B) sigma * |u_b| scaling row b's normals
    w_used: np.ndarray | None = None     # (m+n, 4n) array the VMM read
    w_mask: np.ndarray | None = None     # STE pass mask from the latent weights

    @property
    def steps(self) -> int:
        return len(self.preact)


def forward_sequence(params: LSTMParams, x_seq: np.ndarray) -> tuple[np.ndarray, SequenceCache]:
    """Batched full-precision forward pass over a (T, B, m) input sequence.

    Returns the hidden states (T, B, n) and the recorded cache for
    lstm_backward.
    """
    return run_cell(x_seq, params.concat())


class FusedConverter:
    """The frozen ADC bank of a quantized step: the four per-gate ADCs and
    activation LUTs as one vectorized pass over the (B, 4n) pre-activation.
    Gate b's ADC is `QuantSpec.symmetric(bits, r_b)` of the full-scale
    ranges, one for every gate or four in [f | i | o | c] order, and its
    LUT is `gate_luts`' table on that ADC's codes.

    Column j of gate block b takes gate b's ADC spec and LUT: the bank
    holds per-column `v_min`, `v_max` and `step`, so it is itself the spec
    of one `quantizer.to_code` and one `ste_mask` call over all 4n columns.
    A column's value is its code's entry of gate b's LUT, gathered from one
    concatenated table at the block's base offset.  So the gates equal
    `lut.entries[to_code(block, spec)]` and the mask equals
    `ste_mask(block, spec)` bit for bit, block by block.  It keeps the
    `specs` and `luts` it makes, and `noise_sigma`, each column's
    `hwcost.quantization_noise_v`.
    """

    def __init__(self, ranges: float | Sequence[float], bits: int, n: int):
        ranges = np.ravel(np.asarray(ranges, dtype=np.float64))
        if ranges.size not in (1, 4):
            raise ValueError(f"need one ADC range or four (f, i, o, c), got {ranges.size}")
        specs = tuple(QuantSpec.symmetric(bits, float(r)) for r in np.broadcast_to(ranges, 4))

        def per_column(values):
            return np.repeat(np.asarray(values), n)

        self.specs, self.luts = specs, gate_luts(specs, bits)
        self.noise_sigma = per_column([quantization_noise_v(s.full_range, s.bits)
                                       for s in specs])
        self.v_min = per_column([s.v_min for s in specs])
        self.v_max = per_column([s.v_max for s in specs])
        self.step = per_column([s.step for s in specs])
        self.base = per_column(np.cumsum([0] + [s.levels for s in specs[:-1]]))
        self.table = np.concatenate([lut.entries for lut in self.luts])

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """The gate values of a (B, 4n) pre-activation; its ADC pass mask
        is `ste_mask(a, bank)`.  Non-finite input raises ValueError."""
        codes = to_code(a, self)
        codes += self.base
        return self.table[codes]


def run_cell(x_seq: np.ndarray, w: np.ndarray, *,
             weight_noise: tuple[np.random.Generator, float] | None = None,
             adc_noise: np.random.Generator | None = None,
             on_preact: Callable[[np.ndarray], None] | None = None,
             adc: FusedConverter | None = None,
             dac_spec: QuantSpec | None = None,
             lengths: np.ndarray | None = None,
             ) -> tuple[np.ndarray, SequenceCache | None]:
    """The batched step loop behind every forward pass.

    Runs a (T, B, m) sequence through the cell with the (m+n) x 4n
    concatenated weights `w` and returns the hidden states (T, B, n) and
    the recorded cache (None given `lengths`), whose `w_used` is `w` as
    given; a caller that snapped `w` sets the cache's `w_mask`.  Each
    stage is off when its argument is None:

    weight read: `u @ w`, plus per-sample read noise from
        `weight_noise = (rng, sigma)`: each step draws a (B, 4n) standard
        normal and adds row b times sigma |u_b| to `u @ w`, which is
        u_b @ (w + Z_b) in distribution for a fresh noise matrix Z_b of
        i.i.d. N(0, sigma^2) entries per sample and step.
    pre-activation: `adc.noise_sigma` times normals from the generator
        `adc_noise` (ValueError without `adc`) is added, then
        `on_preact(a)` sees the result (a caller's sink, such as
        `network.RangeCollector`).
    converter: sigmoid/tanh, or one pass of the ADC bank `adc`; a
        recorded forward keeps its pass mask, made after the loop.
    DAC: identity, or inputs and the recycled hidden state snapped to
        `dac_spec`, whose range must cover [-1, 1] (ValueError otherwise).

    Without `lengths` the forward keeps every step in the sequence-major
    buffers of the cache it returns.  `lengths` gives each row's sequence
    length, sorted non-increasing, each in [1, T], for an evaluation
    forward that records nothing and reuses a single step of the buffers
    (so `on_preact` must copy what it keeps).  Step t runs every stage on
    the live rows only, the prefix with length > t: the VMM, the noise
    draws of shape (live, 4n), the converter, the cell update and the DAC.
    Rows past their length read zeros in the returned h_seq.  This is the
    packed-sequence layout of cuDNN and PyTorch's `pack_padded_sequence`:
    rows that finished cost nothing.
    """
    x_seq = np.asarray(x_seq, dtype=np.float64)
    if x_seq.ndim != 3:
        raise ValueError(f"expected (T, B, m) input, got shape {x_seq.shape}")
    t_steps, batch, m = x_seq.shape
    n = w.shape[1] // 4
    if m != w.shape[0] - n:
        raise ValueError(f"input dim {m} does not match m={w.shape[0] - n}")
    if dac_spec is not None and not (dac_spec.v_min <= -1.0 and dac_spec.v_max >= 1.0):
        # |h| <= 1, so a DAC over [-1, 1] never clips h and backward needs
        # no pass mask for it
        raise ValueError(f"the DAC range [{dac_spec.v_min}, {dac_spec.v_max}] must "
                         "cover the hidden state's range [-1, 1]")
    if adc_noise is not None and adc is None:
        raise ValueError("adc_noise is the noise of an ADC bank; pass adc as well")
    record = lengths is None
    live = None if record else _live_rows(lengths, t_steps, batch)

    if dac_spec is None:
        h = np.zeros((batch, n))
    else:
        # grid[code] is from_code(code) without its per-call range scan
        dac_grid = dac_spec.grid()
        x_seq = dac_grid[to_code(x_seq, dac_spec)]
        h = np.full((batch, n), dac_grid[to_code(0.0, dac_spec)])
    # a recorded forward keeps every step for backward; a packed one
    # cycles through buffers one step long (two for the memory cell), as
    # fresh sequence-long buffers would cost page faults on every call.
    # Step t uses index t modulo a buffer's length.
    span = t_steps if record else min(t_steps, 1)
    gate_shape = (span, batch, 4 * n)
    cache = SequenceCache(
        input_size=m, hidden_size=n, w_used=w,
        inputs=np.empty((span, batch, m + n)), preact=np.empty(gate_shape),
        gates=np.empty(gate_shape), c=np.zeros((span + 1, batch, n)),
        tanh_c=np.empty((span, batch, n)),
        noise_eps=None if weight_noise is None else np.empty(gate_shape),
        noise_scale=None if weight_noise is None else np.empty((span, batch)))
    if t_steps:
        cache.inputs[0, :, m:] = h
    if record:
        cache.inputs[:, :, :m] = x_seq
    # rows past their length keep the zeros of h_seq
    h_seq = (np.empty if live is None else np.zeros)((t_steps, batch, n))
    adc_eps = None if adc_noise is None else np.empty((batch, 4 * n))

    for t in range(t_steps):
        k = t % span
        rows = batch if live is None else live[t]
        u = cache.inputs[k, :rows]
        if not record:
            u[:, :m] = x_seq[t, :rows]
        a = np.matmul(u, w, out=cache.preact[k, :rows])
        if weight_noise is not None:
            # u_b @ (W + Z_b), Z_b i.i.d. N(0, sigma^2), is distributed as
            # u_b @ W + sigma |u_b| eps_b, eps_b ~ N(0, I): one (rows, 4n)
            # draw, straight into the cache
            rng, sigma = weight_noise
            eps, scale = cache.noise_eps[k, :rows], cache.noise_scale[k, :rows]
            rng.standard_normal(out=eps)
            np.multiply(sigma, np.sqrt(np.einsum("ij,ij->i", u, u)), out=scale)
            a += eps * scale[:, None]
        if adc_noise is not None:
            z = adc_eps[:rows]
            adc_noise.standard_normal(out=z)
            z *= adc.noise_sigma
            a += z
        if on_preact is not None:
            on_preact(a)

        gates = cache.gates[k, :rows]
        if adc is None:
            sigmoid(a[:, :3 * n], out=gates[:, :3 * n])
            np.tanh(a[:, 3 * n:], out=gates[:, 3 * n:])
        else:
            gates[...] = adc(a)

        f, i, o = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:3 * n]
        c_prev = cache.c[t % (span + 1), :rows]
        c = cache.c[(t + 1) % (span + 1), :rows]
        np.multiply(f, c_prev, out=c)
        c += i * gates[:, 3 * n:]
        h = o * np.tanh(c, out=cache.tanh_c[k, :rows])
        if dac_spec is not None:
            h = dac_grid[to_code(h, dac_spec)]
        if not record or t + 1 == t_steps:
            h_seq[t, :rows] = h
        if t + 1 < t_steps:
            cache.inputs[(t + 1) % span, :rows, m:] = h
    if not record:
        return h_seq, None
    # a recorded forward kept each h as the next step's VMM input only
    h_seq[:-1] = cache.inputs[1:, :, m:]
    if adc is not None:
        # the LUT is out-quantizer(fn(ADC(a))): both quantizers backprop
        # straight-through, so the cache records the continuous pre-ADC
        # value for the fn' evaluation plus the ADC pass mask
        cache.adc_mask = ste_mask(cache.preact, adc)
    return h_seq, cache


def _live_rows(lengths, t_steps: int, batch: int) -> np.ndarray:
    """Rows still live at each step, for `run_cell`'s `lengths`."""
    lengths = np.asarray(lengths)
    if lengths.shape != (batch,):
        raise ValueError(f"need one length per row ({batch}), got shape {lengths.shape}")
    if np.any(lengths[1:] > lengths[:-1]):
        raise ValueError("lengths must be sorted non-increasing")
    if batch and not (lengths[-1] >= 1 and lengths[0] <= t_steps):
        raise ValueError(f"lengths must lie in [1, {t_steps}]")
    # lengths is sorted, so the rows with length > t are a prefix
    return (lengths[None, :] > np.arange(t_steps)[:, None]).sum(axis=1)


# Values of the gate-gradient buffer whose factors one pass of
# `lstm_backward` makes: as many steps as fit, at least one.  Passes over
# a whole sequence were measured slower on char_lm's 356x1024 array
# (sequence-long factor buffers leave the cache before their step reads
# them, and fresh ones cost page faults), while a pass per step costs
# word_lm's small steps a dozen numpy calls each.  256 KiB of float64
# holds one char_lm step or eight word_lm steps (its sentences have at
# most seven).
FACTOR_VALUES = 32768


def _factors(cache: SequenceCache, lo: int, hi: int, da_seq: np.ndarray,
             one_minus_s: np.ndarray, d_tanh_c: np.ndarray):
    """The factors of steps lo..hi-1 that do not depend on the recurrence,
    step t at index t of `da_seq` and t - lo of the others: s and 1 - s
    of sigmoid' = s (1 - s) on the f, i, o blocks, tanh' = 1 - th^2 on
    the c block and tanh'(c) = 1 - tanh(c)^2.  Ideal converters cached
    sigmoid/tanh of the pre-activations bit for bit; after an ADC the
    cached gates are LUT entries, so they are recomputed, and the ADC pass
    mask is folded into s and 1 - th^2: for m in {0, 1}, ((x s)(1 - s)) m
    equals (x (s m))(1 - s) bit for bit, signed zeros included, since s,
    1 - s and 1 - th^2 are >= 0.  The elementwise passes run on the
    contiguous buffers and write the strided blocks of `da_seq` once."""
    n, steps, mask = cache.hidden_size, slice(lo, hi), cache.adc_mask
    s, d_th = da_seq[steps, :, :3 * n], da_seq[steps, :, 3 * n:]
    # buf holds th^2 and 1 - th^2 on their way to d_th, then tanh'(c)
    oms, buf = one_minus_s[:hi - lo], d_tanh_c[:hi - lo]
    if mask is None:
        np.copyto(s, cache.gates[steps, :, :3 * n])
        np.subtract(1.0, s, out=oms)
        np.square(cache.gates[steps, :, 3 * n:], out=buf)
        np.subtract(1.0, buf, out=d_th)
    else:
        np.multiply(sigmoid(cache.preact[steps, :, :3 * n], out=oms),
                    mask[steps, :, :3 * n], out=s)
        np.subtract(1.0, oms, out=oms)
        np.square(np.tanh(cache.preact[steps, :, 3 * n:], out=buf), out=buf)
        np.subtract(1.0, buf, out=buf)
        np.multiply(buf, mask[steps, :, 3 * n:], out=d_th)
    np.square(cache.tanh_c[steps], out=buf)
    np.subtract(1.0, buf, out=buf)


def lstm_backward(cache: SequenceCache, d_h: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Backpropagate through the recorded sequence.

    `d_h[t]` is the upstream loss gradient into h_t, shape (B, n) per step.
    Returns the (m+n) x 4n gradient w.r.t. the (latent) concatenated
    weights, gate blocks in [f | i | o | c] order; quantizer nodes pass
    gradient through where the cache masks allow.
    """
    if cache.steps == 0:
        raise ValueError("cache holds no recorded steps")
    if len(d_h) != cache.steps:
        raise ValueError(f"need one upstream gradient per step ({cache.steps}), got {len(d_h)}")
    if cache.w_used is None:
        raise ValueError("cache is missing the weight matrix used in the forward pass")
    m, n = cache.input_size, cache.hidden_size
    w_hidden = cache.w_used[m:]
    d_h = np.asarray(d_h, dtype=np.float64)
    gates, c_seq = cache.gates, cache.c
    # each step's gate-input gradient goes into one buffer, so d_w is a
    # single GEMM over the stacked (T*B) rows after the recurrence; step
    # t's rows first hold its factors s m | (1 - th^2) m (see _factors),
    # made for `span` steps per pass
    da_seq = np.empty(gates.shape)
    span = max(1, FACTOR_VALUES // gates[0].size)
    block = (min(span, cache.steps), gates.shape[1])
    one_minus_s, d_tanh_c = np.empty(block + (3 * n,)), np.empty(block + (n,))
    products = np.empty(gates.shape[1:])
    dh_next = np.zeros(c_seq.shape[1:])
    dc_next = np.zeros_like(dh_next)

    for t in range(cache.steps - 1, -1, -1):
        if t == cache.steps - 1 or t % span == span - 1:
            _factors(cache, t - t % span, t + 1, da_seq, one_minus_s, d_tanh_c)
        dh = d_h[t] + dh_next
        g = gates[t]
        f, i, o, c_tilde = g[:, 0:n], g[:, n:2 * n], g[:, 2 * n:3 * n], g[:, 3 * n:]

        da, tanh_c = da_seq[t], cache.tanh_c[t]
        dc = dc_next + dh * o * d_tanh_c[t % span]
        np.multiply(dc, c_seq[t], out=products[:, 0:n])           # df
        np.multiply(dc, c_tilde, out=products[:, n:2 * n])        # di
        np.multiply(dh, tanh_c, out=products[:, 2 * n:3 * n])     # do
        np.multiply(dc, i, out=products[:, 3 * n:])               # dc_tilde
        dc_next = dc * f

        da *= products
        da[:, :3 * n] *= one_minus_s[t % span]

        if t > 0:
            # only the hidden slice of du feeds the recurrence
            dh_next = da @ w_hidden.T
            if cache.noise_eps is not None:
                # the read noise sigma |u_b| eps_b adds
                # sigma (da_b . eps_b) u_b / |u_b| to du_b, zero at u_b = 0
                u = cache.inputs[t]
                sq = np.einsum("ij,ij->i", u, u)
                gain = np.einsum("ij,ij->i", da, cache.noise_eps[t]) * cache.noise_scale[t]
                np.divide(gain, sq, out=gain, where=sq > 0)
                dh_next += gain[:, None] * u[:, m:]

    rows = cache.steps * da_seq.shape[1]
    d_w = cache.inputs.reshape(rows, -1).T @ da_seq.reshape(rows, -1)
    if cache.w_mask is not None:
        d_w *= cache.w_mask
    return d_w
