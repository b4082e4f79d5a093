"""Trainable network: straight-through gradients against a scalar
clipped-surrogate oracle, calibration, and equivalence with the
single-vector crossbar step.

The surrogate replaces every quantizer with a clipped identity, so its
exact gradient is what the STE backward should produce; at 16-bit grids
the quantized trajectory coincides with the surrogate trajectory to
~1e-5 and central finite differences on the surrogate pin the gradients.
"""

import math

import numpy as np
import pytest

from xbarlstm import network
from xbarlstm.crossbar import CrossbarConfig, NoiseConfig, program, quantized_lstm_step
from xbarlstm.lstm import LSTMParams, LSTMState, forward_sequence
from xbarlstm.network import LSTMNetwork, RangeCollector
from xbarlstm.quantizer import quantize
from xbarlstm.training import softmax_xent


def clip(x, lo, hi):
    return min(max(x, lo), hi)


def surrogate_loss(w_flat, w_head, x_seq, target, w_max, adc_ranges, m, n):
    """Scalar-loop clipped-surrogate forward: every quantizer acts as a
    clipped identity.  Loss is softmax cross-entropy on the last step."""
    w = [[clip(w_flat[r][c], -w_max, w_max) for c in range(4 * n)] for r in range(m + n)]
    h = [0.0] * n
    c_state = [0.0] * n
    for t in range(len(x_seq)):
        u = [clip(v, -1.0, 1.0) for v in x_seq[t]] + h
        a = [sum(u[r] * w[r][col] for r in range(m + n)) for col in range(4 * n)]
        f = [1 / (1 + math.exp(-clip(a[j], -adc_ranges[0], adc_ranges[0]))) for j in range(n)]
        i = [1 / (1 + math.exp(-clip(a[n + j], -adc_ranges[1], adc_ranges[1]))) for j in range(n)]
        o = [1 / (1 + math.exp(-clip(a[2 * n + j], -adc_ranges[2], adc_ranges[2]))) for j in range(n)]
        ct = [math.tanh(clip(a[3 * n + j], -adc_ranges[3], adc_ranges[3])) for j in range(n)]
        c_state = [f[j] * c_state[j] + i[j] * ct[j] for j in range(n)]
        h = [clip(o[j] * math.tanh(c_state[j]), -1.0, 1.0) for j in range(n)]
    logits = [sum(h[j] * w_head[j][k] for j in range(n)) for k in range(len(w_head[0]))]
    zmax = max(logits)
    lse = zmax + math.log(sum(math.exp(z - zmax) for z in logits))
    return lse - logits[target]


def build_quantized_net(m, n, out, seed, w_max, adc_range, bits=16):
    cfg = CrossbarConfig.for_lstm(m, n, weight_bits=bits, adc_bits=bits,
                                  dac_bits=bits, w_max=w_max)
    net = LSTMNetwork(m, n, out, seed=seed, crossbar=cfg)
    net.freeze_adc_ranges(adc_range)
    return net


def ste_grads(net, x_seq, target):
    logits, h_seq, cache = net.forward_sequence(x_seq, mode="quantized")
    t_steps, b = x_seq.shape[0], x_seq.shape[1]
    targets = np.zeros((t_steps, b), dtype=np.int64)
    targets[-1, 0] = target
    mask = np.zeros((t_steps, b))
    mask[-1, 0] = 1.0
    nll, _, _, d_logits = softmax_xent(logits, targets, mask)
    return nll, net.backward(cache, h_seq, d_logits)


def fd_surrogate(net, x_seq, target, adc_ranges, step=1e-5):
    m, n = net.input_size, net.hidden_size
    w_max = net.crossbar.weight_spec.v_max
    fd = np.zeros_like(net.w)
    for r in range(net.w.shape[0]):
        for c in range(net.w.shape[1]):
            orig = net.w[r, c]
            net.w[r, c] = orig + step
            up = surrogate_loss(net.w.tolist(), net.w_head.tolist(),
                                x_seq[:, 0, :].tolist(), target, w_max, adc_ranges, m, n)
            net.w[r, c] = orig - step
            down = surrogate_loss(net.w.tolist(), net.w_head.tolist(),
                                  x_seq[:, 0, :].tolist(), target, w_max, adc_ranges, m, n)
            net.w[r, c] = orig
            fd[r, c] = (up - down) / (2 * step)
    return fd


def max_rel_err(got, ref):
    return np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-12)


class TestSTEGradients:
    def test_toy_network_matches_surrogate_fd(self):
        # 4x4 toy LSTM, 16-bit grids; some latent weights pushed past the
        # clip range so the weight masks actually gate gradient flow
        m = n = 4
        rng = np.random.default_rng(71)
        net = build_quantized_net(m, n, out=3, seed=11, w_max=0.5, adc_range=2.5)
        net.w = rng.normal(0.0, 0.3, size=net.w.shape)
        net.w[0, 1] = 0.9   # clipped: its gradient must be exactly zero
        net.w[2, 3] = -0.8
        x_seq = rng.uniform(-0.9, 0.9, size=(2, 1, m))

        _, grads = ste_grads(net, x_seq, target=1)
        fd = fd_surrogate(net, x_seq, target=1, adc_ranges=[2.5] * 4)
        assert max_rel_err(grads["w"], fd) < 1e-4
        assert grads["w"][0, 1] == 0.0
        assert grads["w"][2, 3] == 0.0

    def test_4step_m3_matches_surrogate_fd(self):
        # the acceptance-size check: 4 steps, m = n = 3, inputs inside all
        # clip ranges
        m = n = 3
        rng = np.random.default_rng(73)
        net = build_quantized_net(m, n, out=4, seed=13, w_max=1.0, adc_range=4.0)
        net.w = rng.normal(0.0, 0.35, size=net.w.shape)
        x_seq = rng.uniform(-0.8, 0.8, size=(4, 1, m))

        _, grads = ste_grads(net, x_seq, target=2)
        fd = fd_surrogate(net, x_seq, target=2, adc_ranges=[4.0] * 4)
        assert max_rel_err(grads["w"], fd) < 1e-3

    def test_head_gradient_matches_fd(self):
        m = n = 3
        rng = np.random.default_rng(79)
        net = build_quantized_net(m, n, out=4, seed=17, w_max=1.0, adc_range=4.0)
        x_seq = rng.uniform(-0.8, 0.8, size=(3, 1, m))
        _, grads = ste_grads(net, x_seq, target=0)
        step = 1e-6
        fd = np.zeros_like(net.w_head)
        for r in range(net.w_head.shape[0]):
            for c in range(net.w_head.shape[1]):
                orig = net.w_head[r, c]
                vals = []
                for delta in (step, -step):
                    net.w_head[r, c] = orig + delta
                    nll, _ = ste_grads(net, x_seq, target=0)
                    vals.append(nll)
                net.w_head[r, c] = orig
                fd[r, c] = (vals[0] - vals[1]) / (2 * step)
        assert max_rel_err(grads["w_head"], fd) < 1e-4


class TestQuantizedForward:
    def test_matches_single_vector_crossbar_step(self):
        # batched trainer path and the Ohm's-law single-vector step agree to
        # float-summation-order differences
        m, n = 5, 4
        rng = np.random.default_rng(83)
        cfg = CrossbarConfig.for_lstm(m, n, weight_bits=6, adc_bits=6, dac_bits=6,
                                      w_max=0.8)
        net = LSTMNetwork(m, n, 3, seed=19, crossbar=cfg)
        net.freeze_adc_ranges((1.5, 2.0, 2.5, 3.0))
        x_seq = rng.uniform(-1, 1, size=(3, 1, m))
        _, h_seq, cache = net.forward_sequence(x_seq, mode="quantized")

        arr = program(np.asarray(quantize(net.w, cfg.weight_spec)), cfg)
        state = LSTMState(h=np.asarray(quantize(np.zeros(n), cfg.dac_spec)),
                          c=np.zeros(n))
        for t in range(3):
            state, gates = quantized_lstm_step(
                arr, x_seq[t, 0], state, cfg, gate_adc_specs=net.adc.specs)
            np.testing.assert_allclose(h_seq[t, 0], state.h, rtol=0, atol=1e-12)

    def test_requires_calibration(self):
        cfg = CrossbarConfig.for_lstm(3, 3, weight_bits=4, adc_bits=4, dac_bits=4)
        net = LSTMNetwork(3, 3, 2, seed=3, crossbar=cfg)
        with pytest.raises(RuntimeError):
            net.forward_sequence(np.zeros((2, 1, 3)), mode="quantized")

    def test_noise_requires_rngs(self):
        cfg = CrossbarConfig.for_lstm(3, 3, weight_bits=4, adc_bits=4, dac_bits=4)
        net = LSTMNetwork(3, 3, 2, seed=3, crossbar=cfg,
                          noise=NoiseConfig(weight_noise_beta=0.1))
        net.freeze_adc_ranges(2.0)
        with pytest.raises(ValueError):
            net.forward_sequence(np.zeros((2, 1, 3)), mode="quantized")

    def test_geometry_validation(self):
        cfg = CrossbarConfig.for_lstm(4, 4, weight_bits=4, adc_bits=4, dac_bits=4)
        with pytest.raises(ValueError):
            LSTMNetwork(3, 3, 2, seed=1, crossbar=cfg)


def _gate_blocks(cache, n):
    """Per gate, the float32 |pre-activation| block of every recorded step."""
    return [[np.abs(a[:, b * n:(b + 1) * n]).astype(np.float32).ravel()
             for a in cache.preact] for b in range(4)]


def _counted(blocks, cap):
    """The samples the collector counts: whole steps while fewer than `cap`."""
    kept, count = [], 0
    for block in blocks:
        if count >= cap:
            break
        kept.append(block)
        count += block.size
    return np.concatenate(kept)


def _expected_range(samples, percentile):
    return max(float(np.percentile(samples, percentile)), 1e-6)


class TestCalibration:
    def test_collector_stops_at_the_sample_cap(self, monkeypatch):
        # each step adds B*n = 32 samples per gate and a step counts while
        # fewer than the cap have, so a cap of 50 counts the first two steps
        # of five; at p >= 99 the tail keeps 2-3 values and prunes each step
        monkeypatch.setattr(network, "MAX_CALIB_SAMPLES", 50)
        m, n = 3, 4
        cfg = CrossbarConfig.for_lstm(m, n, weight_bits=6, adc_bits=6, dac_bits=6)
        x = np.random.default_rng(3).uniform(-1, 1, size=(5, 8, m))
        for p in (0, 50, 99, 99.9, 100):
            net = LSTMNetwork(m, n, 2, seed=29, crossbar=cfg)
            collector = RangeCollector(p)
            _, _, cache = net.forward_sequence(x, mode="calibrate", on_preact=collector)
            assert collector.count == 64
            assert all((tail.floor > 0) == (p >= 99) for tail in collector.tails)
            want = [_expected_range(_counted(blocks, 50), p)
                    for blocks in _gate_blocks(cache, n)]
            net.freeze_adc_ranges(collector.ranges())
            assert [spec.v_max for spec in net.adc.specs] == want

    def test_percentile_freeze(self, monkeypatch):
        # 8 forwards of 12 steps, 32 samples per gate each; the cap is met
        # in the sixth forward.  The held tail stays under its bound while
        # the count grows, and the frozen ranges equal the percentile over
        # every counted sample bit for bit.
        monkeypatch.setattr(network, "MAX_CALIB_SAMPLES", 2000)
        m = n = 4
        cfg = CrossbarConfig.for_lstm(m, n, weight_bits=6, adc_bits=6, dac_bits=6)
        net = LSTMNetwork(m, n, 2, seed=29, crossbar=cfg)
        rng = np.random.default_rng(31)
        collector = RangeCollector(99.9)
        bound = network.PRUNE_FACTOR * collector.tails[0].keep
        blocks = [[], [], [], []]
        for _ in range(8):
            _, _, cache = net.forward_sequence(rng.uniform(-1, 1, size=(12, 8, m)),
                                               mode="calibrate", on_preact=collector)
            for b, steps in enumerate(_gate_blocks(cache, n)):
                blocks[b] += steps
            assert all(0 < tail.held <= bound for tail in collector.tails)
        assert collector.count == 2016
        want = [_expected_range(_counted(steps, 2000), 99.9) for steps in blocks]
        net.freeze_adc_ranges(collector.ranges())
        assert net.calibrated
        assert [spec.v_max for spec in net.adc.specs] == want
        for spec in net.adc.specs:
            assert spec.bits == 6
            assert spec.v_max > 0
            assert spec.v_min == -spec.v_max

    def test_collector_rejects_what_it_cannot_freeze_exactly(self, monkeypatch):
        cfg = CrossbarConfig.for_lstm(3, 4, weight_bits=6, adc_bits=6, dac_bits=6)
        net = LSTMNetwork(3, 4, 2, seed=29, crossbar=cfg)
        for p in (-1, 100.5, math.nan):
            with pytest.raises(ValueError):
                RangeCollector(p)
        # one step of more than cap + 1 samples per gate would break the
        # count bound the tail's size rests on
        monkeypatch.setattr(network, "MAX_CALIB_SAMPLES", 30)
        with pytest.raises(ValueError):
            net.forward_sequence(np.zeros((1, 8, 3)), mode="calibrate",
                                 on_preact=RangeCollector(99.9))
        # the gate width is a quarter of the step's width
        with pytest.raises(ValueError, match="width 6"):
            RangeCollector(99.9)(np.zeros((2, 6)))

    def test_freeze_without_samples_errors(self):
        with pytest.raises(RuntimeError):
            RangeCollector(99.9).ranges()

    def test_collector_sees_every_mode(self):
        # the sink is the caller's: any forward hands it to run_cell, and a
        # quantized forward's pre-activations are its cache's, bit for bit
        net = build_quantized_net(3, 4, 2, seed=5, w_max=1.0, adc_range=2.0, bits=4)
        x = np.random.default_rng(6).uniform(-1, 1, size=(3, 2, 3))
        for mode in ("fp", "calibrate", "quantized"):
            seen = []
            _, _, cache = net.forward_sequence(x, mode=mode,
                                               on_preact=lambda a: seen.append(a.copy()))
            assert np.array_equal(np.stack(seen), cache.preact), mode

    def test_override_shapes(self):
        cfg = CrossbarConfig.for_lstm(3, 3, weight_bits=4, adc_bits=4, dac_bits=4)
        net = LSTMNetwork(3, 3, 2, seed=1, crossbar=cfg)
        net.freeze_adc_ranges((1.0, 2.0, 3.0, 4.0))
        assert [s.v_max for s in net.adc.specs] == [1.0, 2.0, 3.0, 4.0]
        for one in (2.5, (2.5,), np.float64(2.5)):
            net.freeze_adc_ranges(one)
            assert [s.v_max for s in net.adc.specs] == [2.5] * 4

    @pytest.mark.parametrize("count", [0, 2, 3, 5])
    def test_freeze_takes_one_range_or_four(self, count):
        # two ranges once built an 8-column bank for a 16-column array, and
        # five failed inside zip()
        cfg = CrossbarConfig.for_lstm(3, 4, weight_bits=4, adc_bits=4, dac_bits=4)
        net = LSTMNetwork(3, 4, 2, seed=1, crossbar=cfg)
        with pytest.raises(ValueError, match=f"one ADC range or four.*got {count}"):
            net.freeze_adc_ranges((1.5,) * count)
        assert net.adc is None

    @pytest.mark.parametrize("noise", [
        NoiseConfig(),
        NoiseConfig(weight_noise_beta=0.2, adc_noise_enabled=True),
    ])
    def test_refreeze_forwards_like_a_fresh_freeze(self, noise):
        # the bank frozen second replaces the first everywhere: converter,
        # LUTs and ADC-noise sigma
        cfg = CrossbarConfig.for_lstm(3, 3, weight_bits=4, adc_bits=4, dac_bits=4)
        x = np.random.default_rng(9).uniform(-1, 1, size=(5, 2, 3))
        outs = []
        for first in ((4.0, 4.0, 4.0, 4.0), None):
            net = LSTMNetwork(3, 3, 2, seed=1, crossbar=cfg, noise=noise)
            if first is not None:
                net.freeze_adc_ranges(first)
            net.freeze_adc_ranges((0.5, 1.0, 1.5, 2.0))
            outs.append(net.forward_sequence(
                x, mode="quantized", rng_weight_noise=np.random.default_rng(10),
                rng_adc_noise=np.random.default_rng(11)))
        (logits, h_seq, cache), (logits_f, h_seq_f, cache_f) = outs
        assert np.array_equal(logits, logits_f)
        assert np.array_equal(h_seq, h_seq_f)
        assert np.array_equal(cache.adc_mask, cache_f.adc_mask)
        assert not cache.adc_mask.all()  # the second ranges clip


class TestDeterminism:
    def test_non_finite_initial_weights_rejected(self):
        # normal(0, 1e308) overflows to +-inf
        with pytest.raises(ValueError, match="init_scale"):
            LSTMNetwork(3, 2, 2, seed=1, init_scale=1e308)

    @pytest.mark.parametrize("w_max, fits", [(6e37, True), (7e37, False), (1e307, False)])
    def test_reads_past_float32_rejected(self, w_max, fits):
        # a read sums 5 rows of +-w_max; calibration holds its magnitudes
        # in float32, whose largest value is about 3.4e38
        cfg = CrossbarConfig.for_lstm(3, 2, weight_bits=4, adc_bits=4, dac_bits=4,
                                      w_max=w_max)
        if fits:
            LSTMNetwork(3, 2, 2, seed=1, crossbar=cfg)
        else:
            with pytest.raises(ValueError, match="5 rows"):
                LSTMNetwork(3, 2, 2, seed=1, crossbar=cfg)

    def test_same_seed_same_init(self):
        a = LSTMNetwork(4, 4, 3, seed=42)
        b = LSTMNetwork(4, 4, 3, seed=42)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.w_head, b.w_head)
        c = LSTMNetwork(4, 4, 3, seed=43)
        assert not np.array_equal(a.w, c.w)

    def test_noisy_forward_reproducible(self):
        cfg = CrossbarConfig.for_lstm(3, 3, weight_bits=4, adc_bits=4, dac_bits=4)
        noise = NoiseConfig(adc_noise_enabled=True, weight_noise_beta=0.1)
        x = np.random.default_rng(5).uniform(-1, 1, size=(4, 2, 3))
        outs = []
        for _ in range(2):
            net = LSTMNetwork(3, 3, 2, seed=7, crossbar=cfg, noise=noise)
            net.freeze_adc_ranges(2.0)
            logits, _, _ = net.forward_sequence(
                x, mode="quantized",
                rng_weight_noise=np.random.default_rng(100),
                rng_adc_noise=np.random.default_rng(200))
            outs.append(logits)
        assert np.array_equal(outs[0], outs[1])


class TestRecordSwitch:
    """A packed evaluation forward, every length T, builds no cache yet
    gives the recorded forward's logits bit for bit, noise draws included."""

    def _pair(self, net, mode, x, noisy):
        outs = []
        for lengths in (None, np.full(x.shape[1], x.shape[0])):
            rngs = ({"rng_weight_noise": np.random.default_rng(61),
                     "rng_adc_noise": np.random.default_rng(62)} if noisy else {})
            outs.append(net.forward_sequence(x, mode=mode, lengths=lengths, **rngs))
        (logits, h_seq, cache), (logits_nr, h_seq_nr, cache_nr) = outs
        assert cache is not None and cache.steps == x.shape[0]
        # step t + 1 reads the hidden state step t returned, and the memory
        # cell starts from zero
        assert np.array_equal(cache.inputs[1:, :, net.input_size:], h_seq[:-1])
        assert not cache.c[0].any()
        assert cache_nr is None
        assert np.array_equal(logits, logits_nr)
        assert np.array_equal(h_seq, h_seq_nr)

    def test_fp(self):
        net = LSTMNetwork(5, 4, 3, seed=60)
        x = np.random.default_rng(63).normal(size=(6, 3, 5))
        self._pair(net, "fp", x, noisy=False)
        # the network's fp forward and lstm.forward_sequence share one loop
        h_ref, _ = forward_sequence(LSTMParams.from_concat(net.w), x)
        assert np.array_equal(net.forward_sequence(x, mode="fp")[1], h_ref)

    @pytest.mark.parametrize("noise", [
        NoiseConfig(),
        NoiseConfig(weight_noise_beta=0.2, adc_noise_enabled=True),
    ])
    def test_quantized(self, noise):
        cfg = CrossbarConfig.for_lstm(5, 4, weight_bits=4, adc_bits=4, dac_bits=4)
        net = LSTMNetwork(5, 4, 3, seed=64, crossbar=cfg, noise=noise)
        net.freeze_adc_ranges((1.0, 1.5, 2.0, 2.5))
        x = np.random.default_rng(65).uniform(-1, 1, size=(6, 3, 5))
        self._pair(net, "quantized", x, noisy=noise.any_enabled)


class TestProgrammedArray:
    """A recorded forward given `programmed_weights()` is the forward that
    programs the array itself, bit for bit, down to the gradients."""

    @pytest.mark.parametrize("noise", [
        NoiseConfig(),
        NoiseConfig(weight_noise_beta=0.2, adc_noise_enabled=True),
    ])
    def test_recorded_forward_reads_the_given_array(self, noise):
        cfg = CrossbarConfig.for_lstm(5, 4, weight_bits=4, adc_bits=4, dac_bits=4, w_max=0.5)
        net = LSTMNetwork(5, 4, 3, seed=69, crossbar=cfg, noise=noise)
        net.freeze_adc_ranges((1.0, 1.5, 2.0, 2.5))
        x = np.random.default_rng(70).uniform(-1, 1, size=(6, 3, 5))
        runs = []
        for programmed in (None, net.programmed_weights()):
            logits, h_seq, cache = net.forward_sequence(
                x, mode="quantized", rng_weight_noise=np.random.default_rng(71),
                rng_adc_noise=np.random.default_rng(72), programmed=programmed)
            d_logits = np.random.default_rng(73).normal(size=logits.shape)
            runs.append((logits, h_seq, cache, net.backward(cache, h_seq, d_logits)))
        (logits, h_seq, cache, grads), (logits_p, h_seq_p, cache_p, grads_p) = runs
        assert np.array_equal(logits, logits_p)
        assert np.array_equal(h_seq, h_seq_p)
        assert not cache.w_mask.all()  # some latent weights lie outside the grid
        assert np.array_equal(cache.w_mask, cache_p.w_mask)
        assert np.array_equal(cache.w_used, cache_p.w_used)
        assert np.array_equal(cache.adc_mask, cache_p.adc_mask)
        for key in grads:
            assert np.array_equal(grads[key], grads_p[key])
