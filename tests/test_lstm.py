"""Reference LSTM cell against a scalar-loop oracle, plus BPTT gradients
against central finite differences."""

import math

import numpy as np
import pytest

from xbarlstm.lstm import (
    GATE_ORDER,
    LSTMParams,
    LSTMState,
    OpCounter,
    SequenceCache,
    forward_sequence,
    lstm_backward,
    lstm_step_ref,
)


def oracle_step(params, x, h_prev, c_prev):
    """Scalar re-implementation of the cell with explicit python loops,
    no matrix library: the independent oracle."""
    m, n = params.input_size, params.hidden_size
    u = [float(v) for v in x] + [float(v) for v in h_prev]

    def mv(w):
        return [sum(u[r] * w[r][col] for r in range(m + n)) for col in range(n)]

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    f = [sig(z) for z in mv(params.w_f.tolist())]
    i = [sig(z) for z in mv(params.w_i.tolist())]
    o = [sig(z) for z in mv(params.w_o.tolist())]
    ct = [math.tanh(z) for z in mv(params.w_c.tolist())]
    c = [f[j] * float(c_prev[j]) + i[j] * ct[j] for j in range(n)]
    h = [o[j] * math.tanh(c[j]) for j in range(n)]
    return h, c, (f, i, o, ct)


def random_params(m, n, seed, scale=0.4):
    rng = np.random.default_rng(seed)
    return LSTMParams(*(rng.normal(0, scale, size=(m + n, n)) for _ in range(4)))


class TestStepRef:
    def test_matches_scalar_oracle(self):
        params = random_params(3, 2, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=3)
        state = LSTMState(h=rng.normal(size=2) * 0.5, c=rng.normal(size=2))
        new, gates = lstm_step_ref(params, x, state)
        h_ref, c_ref, (f, i, o, ct) = oracle_step(params, x, state.h, state.c)
        np.testing.assert_allclose(new.h, h_ref, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(new.c, c_ref, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(gates.f, f, rtol=1e-14)
        np.testing.assert_allclose(gates.i, i, rtol=1e-14)
        np.testing.assert_allclose(gates.o, o, rtol=1e-14)
        np.testing.assert_allclose(gates.c_tilde, ct, rtol=1e-14, atol=1e-15)

    def test_zero_weights(self):
        n = 4
        params = LSTMParams(*(np.zeros((3 + n, n)) for _ in range(4)))
        c_prev = np.array([0.2, -1.0, 3.0, 0.0])
        state = LSTMState(h=np.zeros(n), c=c_prev.copy())
        new, gates = lstm_step_ref(params, np.array([1.0, -2.0, 0.5]), state)
        np.testing.assert_array_equal(gates.f, 0.5)
        np.testing.assert_array_equal(gates.i, 0.5)
        np.testing.assert_array_equal(gates.o, 0.5)
        np.testing.assert_array_equal(gates.c_tilde, 0.0)
        np.testing.assert_allclose(new.c, 0.5 * c_prev)
        np.testing.assert_allclose(new.h, 0.5 * np.tanh(0.5 * c_prev))

    def test_zero_input_zero_state(self):
        params = random_params(3, 3, seed=9)
        state = LSTMState.zeros(3)
        new, gates = lstm_step_ref(params, np.zeros(3), state)
        np.testing.assert_array_equal(gates.f, 0.5)
        np.testing.assert_array_equal(gates.c_tilde, 0.0)
        np.testing.assert_array_equal(new.c, 0.0)
        np.testing.assert_array_equal(new.h, 0.0)

    def test_gate_ranges(self):
        # moderate magnitudes: at |preact| > ~37 sigmoid saturates to exactly
        # 1.0 in float64 and the open interval is no longer representable
        params = random_params(4, 5, seed=17, scale=1.0)
        rng = np.random.default_rng(18)
        state = LSTMState(h=rng.uniform(-1, 1, 5), c=rng.normal(size=5) * 3)
        new, gates = lstm_step_ref(params, rng.normal(size=4), state)
        for g in (gates.f, gates.i, gates.o):
            assert np.all((g > 0) & (g < 1))
        assert np.all((gates.c_tilde > -1) & (gates.c_tilde < 1))
        assert np.all(np.abs(new.h) < 1)

    def test_op_count(self):
        params = random_params(3, 2, seed=1)
        counter = OpCounter()
        lstm_step_ref(params, np.zeros(3), LSTMState.zeros(2), counter=counter)
        assert counter.vmm == 4
        assert counter.activations == 5
        assert counter.elementwise_mul == 3
        assert counter.elementwise_add == 1

    def test_deterministic(self):
        params = random_params(3, 2, seed=2)
        x = np.array([0.1, -0.2, 0.3])
        s = LSTMState(h=np.array([0.5, -0.5]), c=np.array([1.0, -1.0]))
        a, _ = lstm_step_ref(params, x, LSTMState(h=s.h.copy(), c=s.c.copy()))
        b, _ = lstm_step_ref(params, x, LSTMState(h=s.h.copy(), c=s.c.copy()))
        assert np.array_equal(a.h, b.h) and np.array_equal(a.c, b.c)

    def test_dimension_mismatch(self):
        params = random_params(3, 2, seed=3)
        with pytest.raises(ValueError):
            lstm_step_ref(params, np.zeros(4), LSTMState.zeros(2))
        with pytest.raises(ValueError):
            lstm_step_ref(params, np.zeros(3), LSTMState.zeros(3))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LSTMParams(np.zeros((5, 2)), np.zeros((5, 2)), np.zeros((5, 2)), np.zeros((4, 2)))
        bad = np.zeros((5, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            LSTMParams(bad, np.zeros((5, 2)), np.zeros((5, 2)), np.zeros((5, 2)))

    def test_gate_block_order(self):
        assert GATE_ORDER == ("f", "i", "o", "c")
        params = random_params(2, 2, seed=4)
        w = params.concat()
        round_trip = LSTMParams.from_concat(w)
        np.testing.assert_array_equal(round_trip.w_o, params.w_o)


def quadratic_loss_grads(params, x_seq, targets):
    """L = 0.5 * sum_t |h_t - tgt_t|^2; returns (loss, grads via BPTT)."""
    h_seq, cache = forward_sequence(params, x_seq)
    d_h = [h_seq[t] - targets[t] for t in range(len(targets))]
    loss = 0.5 * sum(float(np.sum(d**2)) for d in d_h)
    return loss, lstm_backward(cache, d_h)


def fd_loss(params, x_seq, targets):
    h_seq, _ = forward_sequence(params, x_seq)
    return 0.5 * float(sum(np.sum((h_seq[t] - targets[t])**2) for t in range(len(targets))))


def max_rel_err(got, ref):
    scale = max(np.max(np.abs(ref)), 1e-12)
    return np.max(np.abs(got - ref)) / scale


class TestBackward:
    def test_fp_gradients_match_finite_differences(self):
        # 4-step sequence on an m = n = 3 network, central differences h=1e-5
        m = n = 3
        t_steps = 4
        params = random_params(m, n, seed=21, scale=0.5)
        rng = np.random.default_rng(22)
        x_seq = rng.normal(size=(t_steps, 1, m)) * 0.8
        targets = rng.normal(size=(t_steps, 1, n)) * 0.5

        _, grads = quadratic_loss_grads(params, x_seq, targets)
        step = 1e-5
        for name in ("w_f", "w_i", "w_o", "w_c"):
            w = getattr(params, name)
            fd = np.zeros_like(w)
            for r in range(w.shape[0]):
                for col in range(w.shape[1]):
                    orig = w[r, col]
                    w[r, col] = orig + step
                    up = fd_loss(params, x_seq, targets)
                    w[r, col] = orig - step
                    down = fd_loss(params, x_seq, targets)
                    w[r, col] = orig
                    fd[r, col] = (up - down) / (2 * step)
            assert max_rel_err(getattr(grads, name), fd) < 1e-4

    def test_zero_upstream_gives_zero_grads(self):
        params = random_params(3, 3, seed=30)
        x_seq = np.random.default_rng(31).normal(size=(5, 2, 3))
        _, cache = forward_sequence(params, x_seq)
        grads = lstm_backward(cache, [np.zeros((2, 3))] * 5)
        for name in ("w_f", "w_i", "w_o", "w_c"):
            np.testing.assert_array_equal(getattr(grads, name), 0.0)

    def test_cache_mismatch_errors(self):
        params = random_params(3, 3, seed=33)
        x_seq = np.random.default_rng(34).normal(size=(4, 1, 3))
        _, cache = forward_sequence(params, x_seq)
        with pytest.raises(ValueError):
            lstm_backward(cache, [np.zeros((1, 3))] * 3)  # wrong step count
        empty = SequenceCache(input_size=3, hidden_size=3)
        with pytest.raises(ValueError):
            lstm_backward(empty, [])

    def test_missing_weights_in_cache(self):
        params = random_params(3, 3, seed=35)
        x_seq = np.random.default_rng(36).normal(size=(2, 1, 3))
        _, cache = forward_sequence(params, x_seq)
        cache.w_used = None
        with pytest.raises(ValueError):
            lstm_backward(cache, [np.zeros((1, 3))] * 2)


class TestForwardSequence:
    def test_matches_step_ref(self):
        params = random_params(3, 2, seed=40)
        rng = np.random.default_rng(41)
        x_seq = rng.normal(size=(5, 1, 3))
        h_seq, _ = forward_sequence(params, x_seq)
        state = LSTMState.zeros(2)
        for t in range(5):
            state, _ = lstm_step_ref(params, x_seq[t, 0], state)
            np.testing.assert_allclose(h_seq[t, 0], state.h, rtol=1e-12, atol=1e-15)

    def test_batched_equals_individual(self):
        params = random_params(3, 4, seed=42)
        rng = np.random.default_rng(43)
        x_seq = rng.normal(size=(4, 3, 3))
        h_all, _ = forward_sequence(params, x_seq)
        for b in range(3):
            h_one, _ = forward_sequence(params, x_seq[:, b:b + 1, :])
            np.testing.assert_allclose(h_all[:, b], h_one[:, 0], rtol=1e-12, atol=1e-16)


def per_step_backward(cache, d_h):
    """BPTT with d_w accumulated one step at a time and the full du
    computed every step: the straightforward form of lstm_backward."""
    m, n = cache.input_size, cache.hidden_size
    d_w = np.zeros((m + n, 4 * n))
    dh_next = np.zeros_like(cache.records[-1].c)
    dc_next = np.zeros_like(dh_next)
    for t in range(cache.steps - 1, -1, -1):
        rec = cache.records[t]
        dh = d_h[t] + dh_next
        if rec.h_mask is not None:
            dh = dh * rec.h_mask
        f, i, o, ct = (rec.gates[:, k * n:(k + 1) * n] for k in range(4))
        dc = dc_next + dh * o * (1.0 - rec.tanh_c**2)
        s = 1.0 / (1.0 + np.exp(-rec.preact[:, :3 * n]))
        th = np.tanh(rec.preact[:, 3 * n:])
        da = np.concatenate([
            np.concatenate([dc * rec.c_prev, dc * ct, dh * rec.tanh_c], axis=1) * s * (1 - s),
            dc * i * (1.0 - th**2)], axis=1)
        if rec.adc_mask is not None:
            da = da * rec.adc_mask
        d_w += rec.inputs.T @ da
        w_used = rec.w_eff if rec.w_eff is not None else cache.w_used
        dh_next = (da @ w_used.T)[:, m:]
        dc_next = dc * f
    if cache.w_mask is not None:
        d_w = d_w * cache.w_mask
    return d_w


class TestBackwardAgainstPerStep:
    """lstm_backward sums d_w in one GEMM over all steps; the per-step
    reference sums it step by step, so the two agree to rounding."""

    M, N, T, B = 5, 4, 6, 3

    def _check(self, cache, seed):
        rng = np.random.default_rng(seed)
        d_h = [rng.normal(size=(self.B, self.N)) for _ in range(self.T)]
        got = lstm_backward(cache, d_h).concat()
        ref = per_step_backward(cache, d_h)
        assert np.any(got != 0.0)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14 * np.max(np.abs(ref)))

    def _network(self, noise=None):
        from xbarlstm.crossbar import CrossbarConfig
        from xbarlstm.network import LSTMNetwork

        cfg = CrossbarConfig.for_lstm(self.M, self.N, weight_bits=4, adc_bits=4,
                                      dac_bits=4, w_max=0.8)
        net = LSTMNetwork(self.M, self.N, 3, seed=8, crossbar=cfg, noise=noise,
                          init_scale=0.6)
        net.freeze_adc_ranges(override=(1.0, 1.5, 2.0, 2.5))
        return net

    def _x(self, seed):
        return np.random.default_rng(seed).uniform(-1, 1, size=(self.T, self.B, self.M))

    def test_fp_cache(self):
        params = random_params(self.M, self.N, seed=50, scale=0.6)
        _, cache = forward_sequence(params, self._x(51))
        self._check(cache, seed=52)

    def test_quantized_mask_cache(self):
        _, _, cache = self._network().forward_sequence(self._x(53), mode="quantized")
        assert cache.w_mask is not None and cache.records[0].adc_mask is not None
        assert not cache.records[0].adc_mask.all()  # some ADC clipping is exercised
        self._check(cache, seed=54)

    def test_noisy_w_eff_cache(self):
        from xbarlstm.crossbar import NoiseConfig

        net = self._network(NoiseConfig(weight_noise_beta=0.2, adc_noise_enabled=True))
        _, _, cache = net.forward_sequence(
            self._x(55), mode="quantized", rng_weight_noise=np.random.default_rng(56),
            rng_adc_noise=np.random.default_rng(57))
        assert cache.w_used is None
        assert not np.array_equal(cache.records[0].w_eff, cache.records[1].w_eff)
        self._check(cache, seed=58)
