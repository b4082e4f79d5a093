"""Trainable LSTM with a full-precision linear softmax head.

The network keeps latent full-precision weights and runs every forward
through the one step loop `lstm.run_cell`; the three modes differ only in
the array and the stages they hand it.  The full-precision forward ('fp')
is the 32-bit baseline: latent weights, every stage off.  The calibration
forward reads the programmed array, snaps the inputs and recycled hidden
state to the DAC grid, keeps ideal sigmoid/tanh converters, and feeds the
pre-activations to the ADC-range collector.  The quantized forward
mirrors the crossbar pipeline batch-wise: the same snaps, per-gate ADCs
with ranges frozen from the calibration pass, LUT activations on the ADC
codes, and optional weight and ADC read noise.  Training forwards record
a SequenceCache so lstm_backward computes straight-through gradients
against the latent weights; evaluation forwards record nothing.

Only the network turns the latent weights into the array a read sees:
`programmed_weights` snaps them to the device grid, and a recorded
forward keeps their STE mask for backward.  Training forwards program
the array every time, since every step changes the weights; an
evaluation split programs it once for all its forwards.  Nothing keeps
the programmed array beyond the call that asked for it, so writes to `w`
between calls are always seen.

The batched matmuls here use BLAS; the single-vector crossbar ops in
`crossbar` accumulate row by row instead.  Same arithmetic, different
floating-point summation order.  Every sample's read in every time step
has weight noise of its own: one (B, 4n) standard-normal draw per step,
row b scaled by sigma |u_b| (see `lstm.run_cell`), which matches the
full-matrix draw of the single-vector `crossbar.vmm` in distribution.
"""

from __future__ import annotations

import numpy as np

from .crossbar import CrossbarConfig, NoiseConfig, gate_luts
from .hwcost import quantization_noise_v
from .lstm import SequenceCache, lstm_backward, run_cell
from .quantizer import QuantSpec, quantize, ste_mask
from .seeding import derive_rng

__all__ = ["LSTMNetwork"]

MAX_CALIB_SAMPLES = 16_000_000  # per gate block, float32


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
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.output_size = output_size
        self.crossbar = crossbar
        self.noise = noise if noise is not None else NoiseConfig()

        scale = init_scale if init_scale is not None else 1.0 / np.sqrt(input_size + hidden_size)
        rng_l = derive_rng(seed, "init-lstm")
        rng_h = derive_rng(seed, "init-head")
        self.w = rng_l.normal(0.0, scale, size=(input_size + hidden_size, 4 * hidden_size))
        self.w_head = rng_h.normal(0.0, 1.0 / np.sqrt(hidden_size),
                                   size=(hidden_size, output_size))

        self.gate_adc_specs: tuple[QuantSpec, ...] | None = None
        self.luts = None
        self._reset_calibration(collecting=False)

    # --- ADC range calibration ---------------------------------------------

    def begin_calibration(self):
        self._reset_calibration(collecting=True)

    def _reset_calibration(self, collecting: bool):
        self._collecting = collecting
        self._calib: list[list[np.ndarray]] = [[], [], [], []]
        self._calib_count = [0, 0, 0, 0]  # samples held per gate block

    def _record_calibration(self, a: np.ndarray):
        n = self.hidden_size
        for b in range(4):
            if self._calib_count[b] < MAX_CALIB_SAMPLES:
                block = np.abs(a[:, b * n:(b + 1) * n]).astype(np.float32).ravel()
                self._calib[b].append(block)
                self._calib_count[b] += block.size

    def freeze_adc_ranges(self, percentile: float = 99.9,
                          override: float | tuple | None = None):
        """Fix the per-gate ADC full-scale ranges (symmetric, +-range) either
        from the collected pre-activation magnitudes or from an override."""
        if self.crossbar is None:
            raise RuntimeError("network has no crossbar configuration")
        bits = self.crossbar.adc_spec.bits
        if override is not None:
            ranges = [float(r) for r in (override if np.ndim(override) else [override] * 4)]
        else:
            if not any(self._calib):
                raise RuntimeError("no calibration samples collected; run a "
                                   "calibration pass or pass an override")
            ranges = [max(float(np.percentile(np.concatenate(block), percentile)), 1e-6)
                      for block in self._calib]
        self.gate_adc_specs = tuple(QuantSpec.symmetric(bits, r) for r in ranges)
        self.luts = gate_luts(self.gate_adc_specs, bits)
        self._reset_calibration(collecting=False)

    @property
    def calibrated(self) -> bool:
        return self.gate_adc_specs is not None

    # --- forward ------------------------------------------------------------

    def forward_sequence(self, x_seq: np.ndarray, mode: str = "fp",
                         rng_weight_noise: np.random.Generator | None = None,
                         rng_adc_noise: np.random.Generator | None = None,
                         record: bool = True, programmed: np.ndarray | None = None,
                         ) -> tuple[np.ndarray, np.ndarray, SequenceCache | None]:
        """Run a (T, B, m) batch; returns (logits (T,B,V), h_seq (T,B,n), cache).

        mode 'fp': plain float math (the 32-bit baseline).
        mode 'calibrate': quantized weights and DAC grid but ideal converters;
            pre-activation magnitudes are collected for freeze_adc_ranges,
            since what enters the ADCs is a read of the *programmed* array.
        mode 'quantized': the full crossbar pipeline; `x_seq` must live in
            the DAC domain and is snapped to its grid on entry.

        `record=False` is for forwards that are never back-propagated
        (evaluation): no cache and no STE masks are built and the cache
        comes back as None.  Logits, hidden states and noise draws are the
        same either way.

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
        if mode == "calibrate" and self._collecting:
            stages["on_preact"] = self._record_calibration
        if mode == "quantized":
            if not self.calibrated:
                raise RuntimeError("ADC ranges are not frozen; calibrate first")
            noise = self.noise
            if noise.any_enabled and (rng_weight_noise is None or rng_adc_noise is None):
                raise ValueError("noise is enabled but noise rng streams were not provided")
            stages["adc"] = (self.gate_adc_specs, self.luts)
            if noise.weight_noise_beta > 0.0:
                stages["weight_noise"] = (rng_weight_noise,
                                          noise.weight_noise_beta * cfg.weight_spec.full_range)
            if noise.adc_noise_enabled:
                stages["adc_noise"] = (rng_adc_noise, np.concatenate([
                    np.full(self.hidden_size, quantization_noise_v(s.full_range, s.bits))
                    for s in self.gate_adc_specs]))
        if programmed is None:
            programmed = self.w if mode == "fp" else self.programmed_weights()
        h_seq, cache = run_cell(x_seq, programmed, record=record, **stages)
        if record and mode != "fp":
            cache.w_mask = ste_mask(self.w, cfg.weight_spec)
        return self._head(h_seq), h_seq, cache

    def programmed_weights(self) -> np.ndarray:
        """The LSTM array as a read pass sees it: a new array of the latent
        weights snapped to the device grid, which later writes to `w` do
        not change, or `w` itself without a crossbar."""
        if self.crossbar is None:
            return self.w
        return np.asarray(quantize(self.w, self.crossbar.weight_spec))

    def _head(self, h_seq: np.ndarray) -> np.ndarray:
        """Per-step logits of the dense softmax head."""
        # one (B, n) GEMM per step: a single (T*B, n) GEMM may block
        # differently in BLAS and change the logits in the last bits
        logits = np.empty(h_seq.shape[:2] + (self.output_size,))
        for t in range(h_seq.shape[0]):
            logits[t] = h_seq[t] @ self.w_head
        return logits

    # --- backward -----------------------------------------------------------

    def backward(self, cache: SequenceCache, h_seq: np.ndarray,
                 d_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of the loss w.r.t. the latent weights and the head,
        given d(loss)/d(logits) per step."""
        t_steps = len(cache.records)
        d_head = np.zeros_like(self.w_head)
        d_h = []
        for t in range(t_steps):
            d_head += h_seq[t].T @ d_logits[t]
            d_h.append(d_logits[t] @ self.w_head.T)
        grads = lstm_backward(cache, d_h)
        return {"w": grads.concat(), "w_head": d_head}

    # --- parameter access ----------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "w_head": self.w_head}

    def set_parameters(self, params: dict[str, np.ndarray]):
        self.w = np.array(params["w"], dtype=np.float64)
        self.w_head = np.array(params["w_head"], dtype=np.float64)
