"""Full-precision LSTM cell mathematics and backpropagation through time.

The cell has no bias terms: gates come from sigmoid/tanh of
[x_t, h_{t-1}] @ W_* with the input concatenated before the previous
hidden state, the memory cell is c_t = f*c_{t-1} + i*c_tilde and the
hidden state is h_t = o*tanh(c_t).  The memory cell is never quantized.

The backward pass operates on a recorded `SequenceCache`, which both the
full-precision and the crossbar forward paths produce.  Quantizer nodes
backpropagate as clipped identity (straight-through): the cache carries
boolean pass masks for the ADC and the hidden-state DAC, and a weight
mask derived from the latent weights, all `None` in full-precision mode.
Local derivatives of the gate nonlinearities are evaluated at the
continuous pre-ADC values, i.e. the quantized activation unit is treated
as out-quantizer(fn(ADC(a))) with both quantizers backpropagating
straight through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LSTMParams",
    "LSTMState",
    "GateActivations",
    "OpCounter",
    "StepRecord",
    "SequenceCache",
    "lstm_step_ref",
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
    w_eff: np.ndarray | None = None      # per-step effective weights (noisy reads)


@dataclass
class SequenceCache:
    """Recorded forward pass over one (batched) sequence."""

    input_size: int
    hidden_size: int
    records: list[StepRecord] = field(default_factory=list)
    w_used: np.ndarray | None = None     # (m+n, 4n) weights seen by the VMM
    w_mask: np.ndarray | None = None     # STE pass mask from the latent weights

    @property
    def steps(self) -> int:
        return len(self.records)


def forward_sequence(params: LSTMParams, x_seq: np.ndarray,
                     h0: np.ndarray | None = None, c0: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, SequenceCache]:
    """Batched full-precision forward pass over a (T, B, m) input sequence.

    Returns the hidden states (T, B, n) and the recorded cache for
    lstm_backward.
    """
    x_seq = np.asarray(x_seq, dtype=np.float64)
    if x_seq.ndim != 3:
        raise ValueError(f"expected (T, B, m) input, got shape {x_seq.shape}")
    t_steps, batch, m = x_seq.shape
    if m != params.input_size:
        raise ValueError(f"input dim {m} does not match m={params.input_size}")
    n = params.hidden_size
    w = params.concat()

    h = np.zeros((batch, n)) if h0 is None else np.array(h0, dtype=np.float64)
    c = np.zeros((batch, n)) if c0 is None else np.array(c0, dtype=np.float64)
    cache = SequenceCache(input_size=m, hidden_size=n, w_used=w)
    h_seq = np.empty((t_steps, batch, n))

    for t in range(t_steps):
        u = np.concatenate([x_seq[t], h], axis=1)
        a = u @ w
        gates = np.concatenate([sigmoid(a[:, :3 * n]), np.tanh(a[:, 3 * n:])], axis=1)
        f, i, o = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:3 * n]
        c_tilde = gates[:, 3 * n:]
        c_new = f * c + i * c_tilde
        tanh_c = np.tanh(c_new)
        cache.records.append(StepRecord(
            inputs=u, preact=a, gates=gates, c_prev=c, c=c_new, tanh_c=tanh_c,
        ))
        h = o * tanh_c
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

    m, n = cache.input_size, cache.hidden_size
    last = cache.records[-1]
    # each step's gate-input gradient goes into one buffer, so d_w is a
    # single GEMM over the stacked (T*B) rows after the recurrence
    da_seq = np.empty((cache.steps,) + last.preact.shape)
    dh_next = np.zeros_like(last.c)
    dc_next = np.zeros_like(dh_next)

    for t in range(cache.steps - 1, -1, -1):
        rec = cache.records[t]
        w_used = rec.w_eff if rec.w_eff is not None else cache.w_used
        if w_used is None:
            raise ValueError("cache is missing the weight matrix used in the forward pass")
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
            dh_next = da @ w_used[m:].T

    inputs = np.concatenate([rec.inputs for rec in cache.records])
    d_w = inputs.T @ da_seq.reshape(inputs.shape[0], -1)
    if cache.w_mask is not None:
        d_w *= cache.w_mask
    return LSTMGrads(
        w_f=d_w[:, 0:n], w_i=d_w[:, n:2 * n], w_o=d_w[:, 2 * n:3 * n], w_c=d_w[:, 3 * n:],
    )
