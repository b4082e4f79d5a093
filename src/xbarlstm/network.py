"""Trainable LSTM with a full-precision linear softmax head.

The network keeps latent full-precision weights and runs every forward
through the one step loop `lstm.run_cell`; the three modes differ only in
the array and the stages they hand it.  The full-precision forward ('fp')
is the 32-bit baseline: latent weights, every stage off.  The calibration
forward reads the programmed array, snaps the inputs and recycled hidden
state to the DAC grid and keeps ideal sigmoid/tanh converters.  The
quantized forward mirrors the crossbar pipeline batch-wise: the same
snaps, per-gate ADCs, LUT activations on the ADC codes, and optional
weight and ADC read noise, all read from the one ADC bank `adc` that
`freeze_adc_ranges` builds from the ranges alone (`lstm.FusedConverter`).
Training forwards record a SequenceCache so lstm_backward computes
straight-through gradients against the latent weights; evaluation
forwards pass each row's length and record nothing.

The softmax head runs on the whole sequence: the logits are
`h_seq @ w_head` and backward hands `d_logits @ w_head.T` to
`lstm_backward` as one (T, B, n) array.  numpy's matmul makes one (B, n)
GEMM per step of such a stack, the products a per-step loop makes; only
the head's own gradient sums step by step, in time order.

The network keeps no calibration state: a forward hands its caller's
`on_preact` sink to `run_cell`, in any mode.  The ADC-range calibration
is such a sink, a caller-owned `RangeCollector`.  It counts the
|pre-activations| it is shown, up to a cap, but holds only each gate's
top tail: the values that can still be one of the two order statistics
that `np.percentile` interpolates (see `_TopTail`).  Its `ranges()` pad
the held tail with zeros to the count seen, so they are bit-identical to
a percentile over every sample, while a gate holds at most half a
megabyte at the 99.9th percentile (and everything at low percentiles).

Only the network turns the latent weights into the array a read sees:
`programmed_weights` snaps them to the device grid, and a recorded
forward keeps their STE mask for backward.  Training forwards program
the array every time, since every step changes the weights; an
evaluation split programs it once for all its forwards.  Nothing keeps
the programmed array beyond the call that asked for it, so writes to `w`
between calls are always seen.  Every array a forward or backward hands
out (the programmed array, the cache, the hidden states, the logits and
the gradients) is new; `training.train` lets go of one step's before
the next step's forward.

The batched matmuls here use BLAS; the single-vector crossbar ops in
`crossbar` accumulate row by row instead.  Same arithmetic, different
floating-point summation order.  Every sample's read in every time step
has weight noise of its own: one (B, 4n) standard-normal draw per step,
row b scaled by sigma |u_b| (see `lstm.run_cell`), which matches the
full-matrix draw of the single-vector `crossbar.vmm` in distribution.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .crossbar import CrossbarConfig, NoiseConfig
from .lstm import FusedConverter, SequenceCache, lstm_backward, run_cell
from .quantizer import quantize, ste_mask
from .seeding import derive_rng

__all__ = ["LSTMNetwork", "RangeCollector"]

# Which samples calibration counts: each gate block takes a whole step's
# samples while it has counted fewer than this, and its percentile is over
# exactly those.  Memory is bounded by `_TopTail`, not by this cap.
MAX_CALIB_SAMPLES = 16_000_000
PRUNE_FACTOR = 4  # a tail prunes once it holds this many times what it keeps


class _TopTail:
    """The largest values of a stream of float32 magnitudes, enough to read
    one percentile of the whole stream exactly.

    Values below `floor` are dropped on arrival.  Once more than
    PRUNE_FACTOR * keep are held, the floor rises to the keep-th largest
    held value and only the top `keep` stay, so after any prune at least
    `keep` held values are >= the floor >= every dropped value.  keep is
    need(N_max), where need(N) = N - floor((N - 1) p / 100) + 1 and
    N_max = 2 * MAX_CALIB_SAMPLES bounds the count: a step is counted only
    while fewer than the cap have been, and one step holds at most the
    cap plus one.

    Proof that `value` is exact.  Linear interpolation over the N sorted
    values reads positions lo = floor((N - 1) p / 100) and lo + 1, i.e.
    the (N - lo)-th and (N - lo - 1)-th largest; need(N) = N - lo + 1 adds
    one for rounding of the virtual index.  need(N) never falls as N grows
    and N <= N_max, so keep >= need(N).  A dropped value d has at least
    keep held values >= d, so the need(N) largest values of the stream are
    held, as a multiset.  Zeros in place of the dropped values sort at or
    below every magnitude, so the padded buffer has the same N, the same
    values at lo and lo + 1 and the same interpolation weight: numpy
    computes the same float.  NaN, which sorts last, is held.
    """

    def __init__(self, percentile: float):
        n_max = 2 * MAX_CALIB_SAMPLES
        self.percentile = percentile
        self.keep = n_max - math.floor((n_max - 1) * percentile / 100) + 1
        self.parts: list[np.ndarray] = []
        self.held = 0
        self.floor = 0.0

    def add(self, values: np.ndarray):
        if self.floor > 0:
            values = values[~(values < self.floor)]
        self.parts.append(values)
        self.held += values.size
        if self.held > PRUNE_FACTOR * self.keep:
            held = np.concatenate(self.parts)
            cut = held.size - self.keep
            held.partition(cut)
            self.floor = held[cut]
            self.parts = [held[cut:].copy()]
            self.held = self.keep

    def value(self, count: int) -> float:
        """The percentile of all `count` values the stream carried."""
        buf = np.zeros(count, dtype=np.float32)
        np.concatenate(self.parts, out=buf[count - self.held:])
        return float(np.percentile(buf, self.percentile, overwrite_input=True))


class RangeCollector:
    """The ADC-range calibration sink: pass it as a forward's `on_preact`,
    then `freeze_adc_ranges(collector.ranges())`.  It counts each gate's
    float32 |pre-activations|, a whole step while fewer than
    MAX_CALIB_SAMPLES per gate are counted (every gate sees the same
    samples, so one count serves all four), and holds each gate's tail.
    A step's (B, 4n) pre-activation gives the gate width n."""

    def __init__(self, percentile: float):
        if not 0 <= percentile <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {percentile!r}")
        self.tails = [_TopTail(percentile) for _ in range(4)]
        self.count = 0  # samples counted per gate block

    def __call__(self, a: np.ndarray):
        if a.shape[1] % 4:
            raise ValueError(f"a pre-activation of width {a.shape[1]} has no four gate blocks")
        n = a.shape[1] // 4
        if a.shape[0] * n > MAX_CALIB_SAMPLES + 1:
            raise ValueError(f"a calibration step of {a.shape[0] * n} samples per gate "
                             f"exceeds MAX_CALIB_SAMPLES + 1")
        if self.count < MAX_CALIB_SAMPLES:
            magnitudes = np.abs(a).astype(np.float32)
            for b, tail in enumerate(self.tails):
                tail.add(magnitudes[:, b * n:(b + 1) * n].ravel())
            self.count += a.shape[0] * n

    def ranges(self) -> list[float]:
        """Each gate's `percentile` of its counted magnitudes, at least 1e-6
        (exact: each gate pads its tail with zeros to the count)."""
        if not self.count:
            raise RuntimeError("no calibration samples collected")
        return [max(tail.value(self.count), 1e-6) for tail in self.tails]


class LSTMNetwork:
    """LSTM cell plus dense softmax head, trainable in either mode."""

    def __init__(self, input_size: int, hidden_size: int, output_size: int,
                 seed: int, crossbar: CrossbarConfig | None = None,
                 noise: NoiseConfig | None = None, init_scale: float | None = None):
        if crossbar is not None:
            if crossbar.rows != input_size + hidden_size or crossbar.cols != 4 * hidden_size:
                raise ValueError(
                    f"crossbar {crossbar.rows}x{crossbar.cols} does not fit an "
                    f"m={input_size}, n={hidden_size} cell "
                    f"({input_size + hidden_size}x{4 * hidden_size} needed)")
            # the largest |pre-activation| a read can sum must fit the float32
            # magnitudes calibration holds (e.g. 72 rows at weights 1e38 do not)
            w_abs, u_abs = (max(abs(s.v_min), abs(s.v_max))
                            for s in (crossbar.weight_spec, crossbar.dac_spec))
            if not crossbar.rows * w_abs * u_abs <= float(np.finfo(np.float32).max):
                raise ValueError(f"a read of {crossbar.rows} rows at weights up to {w_abs!r} "
                                 f"and inputs up to {u_abs!r} overflows float32")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.output_size = output_size
        self.crossbar = crossbar
        self.noise = noise if noise is not None else NoiseConfig()

        scale = init_scale if init_scale is not None else 1.0 / np.sqrt(input_size + hidden_size)
        rng_l = derive_rng(seed, "init-lstm")
        rng_h = derive_rng(seed, "init-head")
        self.w = rng_l.normal(0.0, scale, size=(input_size + hidden_size, 4 * hidden_size))
        if not np.all(np.isfinite(self.w)):  # e.g. init_scale = 1e308 overflows
            raise ValueError(f"init_scale {scale!r} draws non-finite initial weights")
        self.w_head = rng_h.normal(0.0, 1.0 / np.sqrt(hidden_size),
                                   size=(hidden_size, output_size))

        self.adc: FusedConverter | None = None  # the ADC bank, frozen by freeze_adc_ranges

    def freeze_adc_ranges(self, ranges: float | tuple | list):
        """Build the ADC bank `adc`, replacing any earlier one, with
        symmetric full-scale ranges +-r at the crossbar's ADC bits: one for
        every gate, or four in [f | i | o | c] order (such as a
        `RangeCollector`'s `ranges()`)."""
        if self.crossbar is None:
            raise RuntimeError("network has no crossbar configuration")
        self.adc = FusedConverter(ranges, self.crossbar.adc_spec.bits, self.hidden_size)

    @property
    def calibrated(self) -> bool:
        return self.adc is not None

    # --- forward ------------------------------------------------------------

    def forward_sequence(self, x_seq: np.ndarray, mode: str = "fp",
                         rng_weight_noise: np.random.Generator | None = None,
                         rng_adc_noise: np.random.Generator | None = None,
                         programmed: np.ndarray | None = None,
                         lengths: np.ndarray | None = None,
                         on_preact: Callable[[np.ndarray], None] | None = None,
                         ) -> tuple[np.ndarray, np.ndarray, SequenceCache | None]:
        """Run a (T, B, m) batch; returns (logits (T,B,V), h_seq (T,B,n), cache).

        mode 'fp': plain float math (the 32-bit baseline).
        mode 'calibrate': quantized weights and DAC grid but ideal converters,
            the forward a `RangeCollector` as `on_preact` calibrates on,
            since what enters the ADCs is a read of the *programmed* array.
        mode 'quantized': the full crossbar pipeline; `x_seq` must live in
            the DAC domain and is snapped to its grid on entry.
        `on_preact`, in any mode, goes to `run_cell` unchanged.

        A forward given each row's `lengths`, sorted non-increasing, is an
        evaluation forward: every step runs only the rows still inside
        their sequence, finished rows read zero hidden states, and no cache
        or STE mask is built (see `lstm.run_cell`).  With every length T,
        logits, hidden states and noise draws equal the recorded forward's.

        The forward reads `programmed` when given (an array programmed
        once for many forwards), else the latent weights in 'fp' mode and
        `programmed_weights()` in the others.  A recorded non-fp forward
        stores the latent weights' STE mask in its cache for backward.
        """
        if mode not in ("fp", "calibrate", "quantized"):
            raise ValueError(f"unknown forward mode {mode!r}")
        stages = {}
        if mode != "fp":
            if self.crossbar is None:
                raise RuntimeError(f"{mode} forward requires a crossbar configuration")
            cfg = self.crossbar
            stages = {"dac_spec": cfg.dac_spec}
        if mode == "quantized":
            if not self.calibrated:
                raise RuntimeError("ADC ranges are not frozen; calibrate first")
            noise = self.noise
            if noise.any_enabled and (rng_weight_noise is None or rng_adc_noise is None):
                raise ValueError("noise is enabled but noise rng streams were not provided")
            stages["adc"] = self.adc
            if noise.weight_noise_beta > 0.0:
                stages["weight_noise"] = (rng_weight_noise,
                                          noise.weight_noise_beta * cfg.weight_spec.full_range)
            if noise.adc_noise_enabled:
                stages["adc_noise"] = rng_adc_noise
        if programmed is None:
            programmed = self.w if mode == "fp" else self.programmed_weights()
        h_seq, cache = run_cell(x_seq, programmed, lengths=lengths, on_preact=on_preact,
                                **stages)
        if cache is not None and mode != "fp":
            cache.w_mask = ste_mask(self.w, cfg.weight_spec)
        # matmul over the (T, B, n) stack is one (B, n) GEMM per step: a
        # single (T*B, n) GEMM may block differently in BLAS and change the
        # logits in the last bits
        return h_seq @ self.w_head, h_seq, cache

    def programmed_weights(self) -> np.ndarray:
        """The LSTM array as a read pass sees it: a new array of the latent
        weights snapped to the device grid, which later writes to `w` do
        not change, or `w` itself without a crossbar."""
        if self.crossbar is None:
            return self.w
        return np.asarray(quantize(self.w, self.crossbar.weight_spec))

    # --- backward -----------------------------------------------------------

    def backward(self, cache: SequenceCache, h_seq: np.ndarray,
                 d_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of the loss w.r.t. the latent weights and the head,
        given d(loss)/d(logits) per step."""
        # d_head sums per step in time order, the order its results are
        # pinned to; d_h is one (B, V) GEMM per step, as the head is
        d_head = np.zeros_like(self.w_head)
        for t in range(cache.steps):
            d_head += h_seq[t].T @ d_logits[t]
        return {"w": lstm_backward(cache, d_logits @ self.w_head.T), "w_head": d_head}

    # --- parameter access ----------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "w_head": self.w_head}
