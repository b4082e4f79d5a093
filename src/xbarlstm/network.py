"""Trainable LSTM with a full-precision linear softmax head.

The network keeps latent full-precision weights.  Its full-precision
forward is the 32-bit baseline; its quantized forward mirrors the
crossbar pipeline batch-wise: weights snapped to the device grid, inputs
and the recycled hidden state on the DAC grid, per-gate ADCs with ranges
frozen from a calibration pass, LUT activations on the ADC codes, and
optional read noise.  Training forwards record a SequenceCache so
lstm_backward computes straight-through gradients against the latent
weights; evaluation forwards record nothing.

The batched matmuls here use BLAS; the single-vector crossbar ops in
`crossbar` accumulate row by row instead.  Same arithmetic, different
floating-point summation order.  Per read cycle (one time step) the
weight-noise draw is shared across the batch; a fixed programming-noise
draw (`NoiseConfig.resample_per_read = False`) is modelled only by the
single-vector `crossbar.with_programming_noise`, so the network rejects it.
"""

from __future__ import annotations

import numpy as np

from .crossbar import CrossbarConfig, NoiseConfig, gate_luts
from .hwcost import quantization_noise_v
from .lstm import SequenceCache, StepRecord, sigmoid
from .quantizer import QuantSpec, from_code, quantize, ste_mask, to_code
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
        if self.noise.weight_noise_beta > 0.0 and not self.noise.resample_per_read:
            raise ValueError("weight noise with resample_per_read = False (one fixed "
                             "programming draw) is not supported by LSTMNetwork, "
                             "which redraws the weight noise on every read")

        scale = init_scale if init_scale is not None else 1.0 / np.sqrt(input_size + hidden_size)
        rng_l = derive_rng(seed, "init-lstm")
        rng_h = derive_rng(seed, "init-head")
        self.w = rng_l.normal(0.0, scale, size=(input_size + hidden_size, 4 * hidden_size))
        self.w_head = rng_h.normal(0.0, 1.0 / np.sqrt(hidden_size),
                                   size=(hidden_size, output_size))

        self.gate_adc_specs: tuple[QuantSpec, ...] | None = None
        self.luts = None
        self._collecting = False
        self._calib: list[list[np.ndarray]] = [[], [], [], []]

    # --- ADC range calibration ---------------------------------------------

    def begin_calibration(self):
        self._collecting = True
        self._calib = [[], [], [], []]

    def _record_calibration(self, a: np.ndarray):
        n = self.hidden_size
        for b in range(4):
            block = self._calib[b]
            if sum(arr.size for arr in block) < MAX_CALIB_SAMPLES:
                block.append(np.abs(a[:, b * n:(b + 1) * n]).astype(np.float32).ravel())

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
        self._collecting = False
        self._calib = [[], [], [], []]

    @property
    def calibrated(self) -> bool:
        return self.gate_adc_specs is not None

    # --- forward ------------------------------------------------------------

    def forward_sequence(self, x_seq: np.ndarray, mode: str = "fp",
                         rng_weight_noise: np.random.Generator | None = None,
                         rng_adc_noise: np.random.Generator | None = None,
                         record: bool = True,
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
        """
        if mode == "fp":
            return self._forward_fp(x_seq, record)
        if mode == "calibrate":
            return self._forward_calibrate(x_seq, record)
        if mode == "quantized":
            return self._forward_quantized(x_seq, rng_weight_noise, rng_adc_noise, record)
        raise ValueError(f"unknown forward mode {mode!r}")

    def _forward_fp(self, x_seq, record):
        t_steps, batch, m = x_seq.shape
        n = self.hidden_size
        cache = SequenceCache(input_size=m, hidden_size=n, w_used=self.w) if record else None
        h = np.zeros((batch, n))
        c = np.zeros((batch, n))
        h_seq = np.empty((t_steps, batch, n))
        for t in range(t_steps):
            u = np.concatenate([x_seq[t], h], axis=1)
            a = u @ self.w
            gates = np.concatenate([sigmoid(a[:, :3 * n]), np.tanh(a[:, 3 * n:])], axis=1)
            f, i, o = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:3 * n]
            c_new = f * c + i * gates[:, 3 * n:]
            tanh_c = np.tanh(c_new)
            if record:
                cache.records.append(StepRecord(
                    inputs=u, preact=a, gates=gates, c_prev=c, c=c_new, tanh_c=tanh_c))
            h = o * tanh_c
            c = c_new
            h_seq[t] = h
        return self._head(h_seq), h_seq, cache

    def _forward_calibrate(self, x_seq, record):
        """Quantized weights and DAC, ideal converters; collects |preact|."""
        if self.crossbar is None:
            raise RuntimeError("calibration forward requires a crossbar configuration")
        cfg = self.crossbar
        t_steps, batch, m = x_seq.shape
        n = self.hidden_size
        w_q = np.asarray(quantize(self.w, cfg.weight_spec))
        cache = SequenceCache(input_size=m, hidden_size=n, w_used=w_q,
                              w_mask=ste_mask(self.w, cfg.weight_spec)) if record else None
        x_q = np.asarray(quantize(x_seq, cfg.dac_spec))
        h = np.full((batch, n), from_code(to_code(0.0, cfg.dac_spec), cfg.dac_spec))
        c = np.zeros((batch, n))
        h_seq = np.empty((t_steps, batch, n))
        for t in range(t_steps):
            u = np.concatenate([x_q[t], h], axis=1)
            a = u @ w_q
            if self._collecting:
                self._record_calibration(a)
            gates = np.concatenate([sigmoid(a[:, :3 * n]), np.tanh(a[:, 3 * n:])], axis=1)
            f, i, o = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:3 * n]
            c_new = f * c + i * gates[:, 3 * n:]
            tanh_c = np.tanh(c_new)
            h_raw = o * tanh_c
            if record:
                cache.records.append(StepRecord(
                    inputs=u, preact=a, gates=gates, c_prev=c, c=c_new,
                    tanh_c=tanh_c, h_mask=ste_mask(h_raw, cfg.dac_spec)))
            h = np.asarray(quantize(h_raw, cfg.dac_spec))
            c = c_new
            h_seq[t] = h
        return self._head(h_seq), h_seq, cache

    def _forward_quantized(self, x_seq, rng_weight_noise, rng_adc_noise, record):
        if self.crossbar is None:
            raise RuntimeError("quantized forward requires a crossbar configuration")
        if not self.calibrated:
            raise RuntimeError("ADC ranges are not frozen; calibrate first")
        cfg = self.crossbar
        noise = self.noise
        t_steps, batch, m = x_seq.shape
        n = self.hidden_size

        w_q = np.asarray(quantize(self.w, cfg.weight_spec))
        per_step_noise = noise.weight_noise_beta > 0.0
        if noise.any_enabled and (rng_weight_noise is None or rng_adc_noise is None):
            raise ValueError("noise is enabled but noise rng streams were not provided")

        cache = SequenceCache(input_size=m, hidden_size=n,
                              w_used=None if per_step_noise else w_q,
                              w_mask=ste_mask(self.w, cfg.weight_spec)) if record else None
        x_q = np.asarray(quantize(x_seq, cfg.dac_spec))
        h = np.full((batch, n), from_code(to_code(0.0, cfg.dac_spec), cfg.dac_spec))
        c = np.zeros((batch, n))
        h_seq = np.empty((t_steps, batch, n))

        adc_sigma = np.concatenate([
            np.full(n, quantization_noise_v(s.full_range, s.bits))
            for s in self.gate_adc_specs]) if noise.adc_noise_enabled else None
        w_sigma = noise.weight_noise_beta * cfg.weight_spec.full_range

        for t in range(t_steps):
            u = np.concatenate([x_q[t], h], axis=1)
            if per_step_noise:
                # one read-noise draw per cycle, shared over the batch
                w_eff = rng_weight_noise.normal(0.0, w_sigma, size=w_q.shape)
                w_eff += w_q
            else:
                w_eff = w_q
            a = u @ w_eff
            if adc_sigma is not None:
                z = rng_adc_noise.normal(size=a.shape)
                z *= adc_sigma
                a += z

            # the LUT is out-quantizer(fn(ADC(a))): both quantizers backprop
            # straight-through, so the cache records the continuous pre-ADC
            # value for the fn' evaluation plus the ADC pass mask
            gates = np.empty_like(a)
            adc_mask = np.empty(a.shape, dtype=bool) if record else None
            for b, (spec, lut) in enumerate(zip(self.gate_adc_specs, self.luts)):
                blk = a[:, b * n:(b + 1) * n]
                if record:
                    adc_mask[:, b * n:(b + 1) * n] = ste_mask(blk, spec)
                gates[:, b * n:(b + 1) * n] = lut.entries[to_code(blk, spec)]

            f, i, o = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:3 * n]
            c_new = f * c + i * gates[:, 3 * n:]
            tanh_c = np.tanh(c_new)
            h_raw = o * tanh_c
            if record:
                cache.records.append(StepRecord(
                    inputs=u, preact=a, gates=gates, c_prev=c, c=c_new,
                    tanh_c=tanh_c, adc_mask=adc_mask, h_mask=ste_mask(h_raw, cfg.dac_spec),
                    w_eff=w_eff if per_step_noise else None))
            h = np.asarray(quantize(h_raw, cfg.dac_spec))
            c = c_new
            h_seq[t] = h
        return self._head(h_seq), h_seq, cache

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
        from .lstm import lstm_backward

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
