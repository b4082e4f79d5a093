"""Reference LSTM cell against a scalar-loop oracle, BPTT gradients
against central finite differences, per-sample weight read noise against
the full-matrix draw of the crossbar oracle, and the fused per-gate
ADC + LUT converter against the per-gate quantizer calls."""

import math
import warnings

import numpy as np
import pytest

from xbarlstm.crossbar import vmm
from xbarlstm.lstm import (
    GATE_ORDER,
    FusedConverter,
    gate_luts,
    LSTMParams,
    LSTMState,
    OpCounter,
    forward_sequence,
    lstm_backward,
    lstm_step_ref,
    run_cell,
)
from xbarlstm.quantizer import QuantSpec, quantize, sigmoid, ste_mask, to_code


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
    """L = 0.5 * sum_t |h_t - tgt_t|^2; returns (loss, per-gate grads via BPTT)."""
    h_seq, cache = forward_sequence(params, x_seq)
    d_h = [h_seq[t] - targets[t] for t in range(len(targets))]
    loss = 0.5 * sum(float(np.sum(d**2)) for d in d_h)
    return loss, LSTMParams.from_concat(lstm_backward(cache, d_h))


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
        assert grads.shape == (6, 12)
        np.testing.assert_array_equal(grads, 0.0)

    def test_cache_mismatch_errors(self):
        params = random_params(3, 3, seed=33)
        x_seq = np.random.default_rng(34).normal(size=(4, 1, 3))
        _, cache = forward_sequence(params, x_seq)
        with pytest.raises(ValueError):
            lstm_backward(cache, [np.zeros((1, 3))] * 3)  # wrong step count
        _, empty = forward_sequence(params, np.zeros((0, 1, 3)))
        assert empty.steps == 0
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

    @pytest.mark.parametrize("amplitude, covers", [(0.5, False), (1.0, True), (2.0, True)])
    def test_dac_range_must_cover_the_hidden_state(self, amplitude, covers):
        # |h| <= 1, so backward needs no DAC pass mask only if the DAC spans [-1, 1]
        w = random_params(3, 2, seed=44).concat()
        x_seq = np.random.default_rng(45).uniform(-1, 1, size=(3, 2, 3))
        dac = QuantSpec.symmetric(4, amplitude)
        if not covers:
            with pytest.raises(ValueError, match="DAC range"):
                run_cell(x_seq, w, dac_spec=dac)
            return
        h_seq, cache = run_cell(x_seq, w, dac_spec=dac)
        assert np.all(np.abs(h_seq) <= 1.0)
        assert np.all(np.isfinite(lstm_backward(cache, list(h_seq))))


def per_step_backward(cache, d_h):
    """BPTT with d_w accumulated one step at a time and the full du
    computed every step: the straightforward form of lstm_backward.  A
    noisy read a_b = u_b @ W + sigma |u_b| eps_b adds, row by row,
    sigma (da_b . eps_b) u_b / |u_b| to du_b (nothing at u_b = 0)."""
    m, n = cache.input_size, cache.hidden_size
    d_w = np.zeros((m + n, 4 * n))
    dh_next = np.zeros_like(cache.c[0])
    dc_next = np.zeros_like(dh_next)
    for t in range(cache.steps - 1, -1, -1):
        u, preact, tanh_c = cache.inputs[t], cache.preact[t], cache.tanh_c[t]
        dh = d_h[t] + dh_next
        f, i, o, ct = (cache.gates[t][:, k * n:(k + 1) * n] for k in range(4))
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        s = 1.0 / (1.0 + np.exp(-preact[:, :3 * n]))
        th = np.tanh(preact[:, 3 * n:])
        da = np.concatenate([
            np.concatenate([dc * cache.c[t], dc * ct, dh * tanh_c], axis=1) * s * (1 - s),
            dc * i * (1.0 - th**2)], axis=1)
        if cache.adc_mask is not None:
            da = da * cache.adc_mask[t]
        d_w += u.T @ da
        du = da @ cache.w_used.T
        if cache.noise_eps is not None:
            for b in range(du.shape[0]):
                norm = np.linalg.norm(u[b])
                if norm > 0:
                    sigma = cache.noise_scale[t, b] / norm
                    du[b] += sigma * np.dot(da[b], cache.noise_eps[t, b]) * u[b] / norm
        dh_next = du[:, m:]
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
        got = lstm_backward(cache, d_h)
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
        net.freeze_adc_ranges((1.0, 1.5, 2.0, 2.5))
        return net

    def _x(self, seed):
        return np.random.default_rng(seed).uniform(-1, 1, size=(self.T, self.B, self.M))

    def test_fp_cache(self):
        params = random_params(self.M, self.N, seed=50, scale=0.6)
        _, cache = forward_sequence(params, self._x(51))
        self._check(cache, seed=52)

    def test_quantized_mask_cache(self):
        _, _, cache = self._network().forward_sequence(self._x(53), mode="quantized")
        assert cache.w_mask is not None and cache.adc_mask is not None
        assert not cache.adc_mask.all()  # some ADC clipping is exercised
        self._check(cache, seed=54)

    def test_noisy_read_cache(self):
        from xbarlstm.crossbar import NoiseConfig

        net = self._network(NoiseConfig(weight_noise_beta=0.2, adc_noise_enabled=True))
        _, _, cache = net.forward_sequence(
            self._x(55), mode="quantized", rng_weight_noise=np.random.default_rng(56),
            rng_adc_noise=np.random.default_rng(57))
        rows, cols = self.M + self.N, 4 * self.N
        # the cache holds one array of the read's shape: the programmed one
        assert np.array_equal(cache.w_used, quantize(net.w, net.crossbar.weight_spec))
        for name, value in vars(cache).items():
            if name not in ("w_used", "w_mask"):
                assert np.shape(value)[-2:] != (rows, cols), name
        assert cache.noise_eps.shape == (self.T, self.B, cols)
        assert cache.noise_scale.shape == (self.T, self.B)
        eps = cache.noise_eps
        assert len({row.tobytes() for row in eps.reshape(-1, cols)}) == self.T * self.B
        self._check(cache, seed=58)


def loop_factor_backward(cache, d_h):
    """lstm_backward with every activation-derivative factor evaluated
    step by step and the ADC mask multiplied last: the form whose
    arithmetic the sequence-wide factors must keep bit for bit."""
    m, n = cache.input_size, cache.hidden_size
    w_hidden = cache.w_used[m:]
    da_seq = np.empty(cache.preact.shape)
    dh_next = np.zeros(cache.c.shape[1:])
    dc_next = np.zeros_like(dh_next)
    for t in range(cache.steps - 1, -1, -1):
        dh = np.asarray(d_h[t], dtype=np.float64) + dh_next
        g = cache.gates[t]
        f, i, o, c_tilde = g[:, 0:n], g[:, n:2 * n], g[:, 2 * n:3 * n], g[:, 3 * n:]
        da, tanh_c = da_seq[t], cache.tanh_c[t]
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        da[:, 0:n] = dc * cache.c[t]
        da[:, n:2 * n] = dc * c_tilde
        da[:, 2 * n:3 * n] = dh * tanh_c
        da[:, 3 * n:] = dc * i
        dc_next = dc * f
        if cache.adc_mask is None:
            s, th = g[:, :3 * n], g[:, 3 * n:]
        else:
            s = sigmoid(cache.preact[t][:, :3 * n])
            th = np.tanh(cache.preact[t][:, 3 * n:])
        da[:, :3 * n] *= s
        da[:, :3 * n] *= 1.0 - s
        da[:, 3 * n:] *= 1.0 - th**2
        if cache.adc_mask is not None:
            da *= cache.adc_mask[t]
        if t > 0:
            dh_next = da @ w_hidden.T
            if cache.noise_eps is not None:
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


class TestBackwardFactorsOutsideTheLoop:
    """lstm_backward makes sigmoid', tanh' and tanh'(c) outside its step
    loop, for as many steps per pass as FACTOR_VALUES holds, and folds the
    ADC mask into them; the gradient equals the step-by-step, mask-last
    form bit for bit, signed zeros included, at one pass per sequence,
    one per step and 4 + 2 steps."""

    M, N, T, B = 5, 4, 6, 3

    @pytest.fixture(autouse=True, params=[None, 1, 4], ids=["sequence", "step", "4+2-steps"])
    def steps_per_pass(self, request, monkeypatch):
        import xbarlstm.lstm

        if request.param is not None:
            monkeypatch.setattr(xbarlstm.lstm, "FACTOR_VALUES",
                                request.param * self.B * 4 * self.N)

    def _cache(self, noise=False, dac=None, adc=True):
        rng = np.random.default_rng(90)
        w = random_params(self.M, self.N, seed=91, scale=0.8).concat()
        x_seq = rng.uniform(-1, 1, size=(self.T, self.B, self.M))
        stages = {"dac_spec": dac}
        if adc:
            stages["adc"] = FusedConverter((1.0, 1.5, 2.0, 2.5), 4, self.N)
        if noise:
            stages.update(weight_noise=(np.random.default_rng(92), 0.2),
                          adc_noise=np.random.default_rng(93))
        return run_cell(x_seq, w, **stages)[1]

    def _check(self, cache, d_h=None):
        if d_h is None:
            d_h = np.random.default_rng(94).normal(size=(self.T, self.B, self.N))
            d_h[::2, 0] = 0.0  # zero upstream rows make signed zeros downstream
        got = lstm_backward(cache, d_h)
        want = loop_factor_backward(cache, d_h)
        assert got.tobytes() == want.tobytes()
        return got

    @pytest.mark.parametrize("dac", [None, QuantSpec.symmetric(4, 1.0)], ids=["fp", "calibrate"])
    def test_ideal_converters(self, dac):
        self._check(self._cache(dac=dac, adc=False))

    @pytest.mark.parametrize("noise", [False, True], ids=["clean", "noisy"])
    def test_adc_mask_as_recorded(self, noise):
        cache = self._cache(noise=noise, dac=QuantSpec.symmetric(4, 1.0))
        assert 0 < cache.adc_mask.sum() < cache.adc_mask.size
        self._check(cache)

    def test_all_blocked_mask(self):
        cache = self._cache()
        cache.adc_mask[...] = False
        assert not self._check(cache).any()

    def test_saturated_gates(self):
        # s == 1 (so 1 - s == +0), s near +0 and |tanh| == 1 at the pre-ADC values
        cache = self._cache()
        n = self.N
        cache.preact[1, :, 0] = 40.0
        cache.preact[2, :, n] = -700.0
        cache.preact[3, :, 3 * n] = 30.0
        cache.preact[4, :, 3 * n + 1] = -30.0
        assert sigmoid(np.float64(40.0)) == 1.0 and sigmoid(np.float64(-700.0)) < 1e-300
        assert np.tanh(30.0) == 1.0
        cache.adc_mask[1:3] = np.random.default_rng(95).random(cache.adc_mask[1:3].shape) < 0.5
        self._check(cache)


class TestAdcMaskAfterTheLoop:
    """A recorded quantized forward builds the ADC pass mask once from the
    cached pre-activations; it equals ste_mask of what each step's
    converter saw, noise included."""

    def test_equals_per_step_ste_mask(self):
        rng = np.random.default_rng(96)
        adc = FusedConverter((0.5, 0.75, 1.0, 1.25), 4, 3)
        w = random_params(4, 3, seed=97, scale=0.9).concat()
        seen = []
        _, cache = run_cell(rng.uniform(-1, 1, size=(7, 5, 4)), w, adc=adc,
                            weight_noise=(np.random.default_rng(98), 0.1),
                            adc_noise=np.random.default_rng(99),
                            on_preact=lambda a: seen.append(ste_mask(a, adc)),
                            dac_spec=QuantSpec.symmetric(4, 1.0))
        want = np.stack(seen)
        assert 0 < want.sum() < want.size
        assert cache.adc_mask.dtype == bool
        assert cache.adc_mask.tobytes() == want.tobytes()

    def test_h_seq_and_inputs_as_written_per_step(self):
        # h_seq[t] is the hidden state the next step reads, and each
        # step's input row holds x_t
        rng = np.random.default_rng(100)
        w = random_params(4, 3, seed=101).concat()
        x_seq = rng.uniform(-1, 1, size=(5, 2, 4))
        h_seq, cache = run_cell(x_seq, w)
        packed, _ = run_cell(x_seq, w, lengths=np.full(2, 5))
        assert h_seq.tobytes() == packed.tobytes()
        assert cache.inputs[:, :, :4].tobytes() == x_seq.tobytes()
        assert cache.inputs[1:, :, 4:].tobytes() == h_seq[:-1].tobytes()
        assert not cache.inputs[0, :, 4:].any()


class TestWeightReadNoise:
    """Per-sample weight read noise by local reparameterization: a step
    draws one (B, 4n) standard normal instead of a noise matrix."""

    def test_gradients_match_finite_differences_at_a_fixed_draw(self):
        # the criterion-4 check with weight noise on and no quantizers: a
        # fresh generator of one seed per forward fixes the draw, so the
        # loss is a smooth function of the weights
        m, n, t_steps, batch, sigma = 3, 3, 4, 2, 0.3
        rng = np.random.default_rng(60)
        w = rng.normal(0.0, 0.5, size=(m + n, 4 * n))
        x_seq = rng.normal(size=(t_steps, batch, m)) * 0.8
        targets = rng.normal(size=(t_steps, batch, n)) * 0.5

        def forward(weights):
            return run_cell(x_seq, weights, weight_noise=(np.random.default_rng(61), sigma))

        def loss(weights):
            h_seq, _ = forward(weights)
            return 0.5 * float(np.sum((h_seq - targets) ** 2))

        h_seq, cache = forward(w)
        grads = lstm_backward(cache, list(h_seq - targets))
        step = 1e-5
        fd = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            orig = w[idx]
            w[idx] = orig + step
            up = loss(w)
            w[idx] = orig - step
            down = loss(w)
            w[idx] = orig
            fd[idx] = (up - down) / (2 * step)
        assert max_rel_err(grads, fd) < 1e-7

    def test_zero_input_row_gets_no_noise_and_finite_gradients(self):
        m, n = 2, 2
        w = np.random.default_rng(62).normal(size=(m + n, 4 * n))
        x_seq = np.zeros((3, 2, m))
        x_seq[:, 1] = 0.5
        _, cache = run_cell(x_seq, w, weight_noise=(np.random.default_rng(63), 0.4))
        assert cache.noise_scale[0, 0] == 0.0 and cache.noise_scale[0, 1] > 0.0
        np.testing.assert_array_equal(cache.preact[0, 0], 0.0)
        grads = lstm_backward(cache, [np.ones((2, n))] * 3)
        assert np.all(np.isfinite(grads))


class TestReadNoiseAgainstCrossbarOracle:
    """The pre-activations `run_cell` feeds to `on_preact` (ADC noise off)
    against `crossbar.vmm`, which draws a full noise matrix on every read.
    Seeds, draw count and the 5-standard-error tolerance are fixed in
    advance; the per-column mean and variance of the two must agree, and
    two batch rows with the same input must be uncorrelated."""

    M, N, DRAWS, TOL = 3, 2, 4000, 5.0

    def _setup(self):
        from xbarlstm.crossbar import CrossbarConfig, NoiseConfig, program

        cfg = CrossbarConfig.for_lstm(self.M, self.N, weight_bits=4, adc_bits=8,
                                      dac_bits=4, adc_range=8.0)
        w = np.random.default_rng(70).normal(0.0, 0.6, size=(cfg.rows, cfg.cols))
        noise = NoiseConfig(weight_noise_beta=0.2)
        return cfg, w, program(w, cfg), noise, noise.weight_noise_beta * cfg.weight_spec.full_range

    def _run_cell_draws(self, cfg, w, sigma, x):
        """(DRAWS, B, 4n) noisy pre-activations of one step on input x (B, m)."""
        seen = []
        rng = np.random.default_rng(71)
        for _ in range(self.DRAWS):
            run_cell(x[None], quantize(w, cfg.weight_spec), dac_spec=cfg.dac_spec,
                     weight_noise=(rng, sigma), on_preact=lambda a: seen.append(a.copy()))
        return np.stack(seen)

    def _oracle_draws(self, cfg, arr, noise, x_row, seed):
        """(DRAWS, 4n) pre-ADC reads of the same step through crossbar.vmm."""
        h0 = np.zeros(self.N)  # run_cell's initial hidden state, DAC-snapped
        codes = to_code(np.concatenate([x_row, h0]), cfg.dac_spec)
        rng = np.random.default_rng(seed)
        return np.stack([vmm(arr, codes, cfg, noise=noise, rng=rng, return_pre_adc=True)[2]
                         for _ in range(self.DRAWS)])

    def _assert_same_distribution(self, got, want):
        k = self.DRAWS
        mean_g, mean_w = got.mean(axis=0), want.mean(axis=0)
        var_g, var_w = got.var(axis=0, ddof=1), want.var(axis=0, ddof=1)
        se_mean = np.sqrt(var_g / k + var_w / k)
        se_var = np.sqrt(2 * (var_g**2 + var_w**2) / (k - 1))
        assert np.all(np.abs(mean_g - mean_w) <= self.TOL * se_mean)
        assert np.all(np.abs(var_g - var_w) <= self.TOL * se_var)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_per_column_mean_and_variance_match_the_oracle(self, batch):
        cfg, w, arr, noise, sigma = self._setup()
        rng = np.random.default_rng(72)
        x = rng.uniform(-1, 1, size=(batch, self.M))
        if batch > 1:
            x[1] = x[0]  # rows 0 and 1 read the same input
        got = self._run_cell_draws(cfg, w, sigma, x)
        for b in range(batch):
            want = self._oracle_draws(cfg, arr, noise, x[b], seed=73 + b)
            self._assert_same_distribution(got[:, b], want)
        if batch > 1:
            r = [np.corrcoef(got[:, 0, j], got[:, 1, j])[0, 1] for j in range(4 * self.N)]
            assert np.max(np.abs(r)) <= self.TOL / np.sqrt(self.DRAWS)


def per_gate_converter(a, specs, luts, n):
    """The ADC + LUT stage one gate block at a time: the reference that
    FusedConverter must equal bit for bit."""
    gates = np.empty_like(a)
    mask = np.empty(a.shape, dtype=bool)
    for b, (spec, lut) in enumerate(zip(specs, luts)):
        blk = a[:, b * n:(b + 1) * n]
        gates[:, b * n:(b + 1) * n] = lut.entries[to_code(blk, spec)]
        mask[:, b * n:(b + 1) * n] = ste_mask(blk, spec)
    return gates, mask


def assert_fused_equals_per_gate(a, ranges, bits, n):
    specs = tuple(QuantSpec.symmetric(bits, r) for r in ranges)
    luts = gate_luts(specs, bits)
    converter = FusedConverter(ranges, bits, n)
    assert converter.specs == specs
    gates, mask = converter(a), ste_mask(a, converter)
    want_gates, want_mask = per_gate_converter(a, specs, luts, n)
    assert gates.tobytes() == want_gates.tobytes()
    assert np.array_equal(mask, want_mask)
    return gates, mask


class TestFusedConverter:
    N = 3

    @pytest.mark.parametrize("bits", [1, 4])
    def test_matches_per_gate_at_ties_grid_points_and_outside(self, bits):
        n, levels = self.N, 1 << bits
        # four different ranges whose steps are powers of two, so the
        # half-step midpoints are exact and exercise the round-half-up rule
        ranges = [step * (levels - 1) / 2 for step in (0.25, 0.5, 1.0, 2.0)]
        specs = tuple(QuantSpec.symmetric(bits, r) for r in ranges)
        halves = np.arange(-4, 2 * levels + 3)          # k half-steps above v_min
        a = np.empty((len(halves), 4 * n))
        for b, spec in enumerate(specs):
            col = spec.v_min + halves * (spec.step / 2)
            a[:, b * n:(b + 1) * n] = col[:, None]
        a[:, 1::n] += np.random.default_rng(60).normal(scale=0.1, size=a[:, 1::n].shape)
        gates, mask = assert_fused_equals_per_gate(a, ranges, bits, n)

        luts = gate_luts(specs, bits)
        for b, (spec, lut) in enumerate(zip(specs, luts)):
            col = b * n
            # a tie between codes k and k+1 rounds up to k+1
            tie = np.flatnonzero(halves == 1)[0]
            assert gates[tie, col] == lut.entries[1]
            # outside the range: clipped to the end codes, blocked in the mask
            assert gates[0, col] == lut.entries[0] and not mask[0, col]
            assert gates[-1, col] == lut.entries[-1] and not mask[-1, col]
            assert mask[np.flatnonzero(halves == 0)[0], col]            # v_min
            assert mask[np.flatnonzero(halves == 2 * (levels - 1))[0], col]  # v_max

    def test_values_near_the_float_limit_raise_no_warning(self):
        # unclipped, (a - v_min) / step would overflow to +-inf here
        ranges, n = (4.0, 1.0, 2.0, 3.0), 2
        a = np.tile([-1.7e308, 1.7e308], (2, 4 * n // 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gates, _ = assert_fused_equals_per_gate(a, ranges, 16, n)
        ends = [lut.entries[[0, -1]] for lut in FusedConverter(ranges, 16, n).luts]
        np.testing.assert_array_equal(gates[0], np.concatenate(ends))

    def test_non_finite_input_raises(self):
        converter = FusedConverter((1.0, 2.0, 3.0, 4.0), 4, 2)
        for bad in (np.nan, np.inf, -np.inf):
            a = np.zeros((2, 8))
            a[1, 5] = bad
            with pytest.raises(ValueError, match="finite"):
                converter(a)

    def test_property_matches_per_gate(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(
            bits=st.integers(1, 8),
            ranges=st.lists(st.floats(1e-3, 20.0), min_size=4, max_size=4),
            n=st.integers(1, 3),
            data=st.data())
        def check(bits, ranges, n, data):
            specs = tuple(QuantSpec.symmetric(bits, r) for r in ranges)
            size = 2 * 4 * n
            free = data.draw(st.lists(st.floats(-60.0, 60.0), min_size=size, max_size=size))
            halves = data.draw(st.lists(st.integers(-4, 2 * (1 << bits) + 2),
                                        min_size=size, max_size=size))
            on_half = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
            v_min = np.repeat([s.v_min for s in specs], n)
            step = np.repeat([s.step for s in specs], n)
            ties = v_min + np.reshape(halves, (2, 4 * n)) * (step / 2)
            a = np.where(np.reshape(on_half, (2, 4 * n)), ties, np.reshape(free, (2, 4 * n)))
            assert_fused_equals_per_gate(a, ranges, bits, n)

        check()


class TestPackedLengths:
    """run_cell with `lengths` steps only the rows whose sequence is still
    running: each row equals its own forward, rows past their length read
    zero, the noise draws cover the live rows only, and nothing is
    recorded."""

    M, N, T = 3, 4, 6
    LENGTHS = np.array([6, 6, 4, 3, 3, 1])

    def _run(self, lengths, **stages):
        w = random_params(self.M, self.N, seed=60, scale=0.6).concat()
        x_seq = np.random.default_rng(61).uniform(-1, 1, size=(self.T, len(lengths), self.M))
        h_seq, cache = run_cell(x_seq, w, lengths=lengths, **stages)
        assert cache is None
        return x_seq, w, h_seq

    def test_each_row_equals_its_own_forward(self):
        x_seq, w, h_seq = self._run(self.LENGTHS)
        for b, length in enumerate(self.LENGTHS):
            alone, _ = run_cell(x_seq[:length, b:b + 1], w)
            np.testing.assert_allclose(h_seq[:length, b], alone[:, 0], rtol=1e-12, atol=1e-16)
            assert not h_seq[length:, b].any()

    def test_full_lengths_are_bit_identical_to_none(self):
        dac = QuantSpec.symmetric(4, 1.0)
        x_seq, w, h_seq = self._run(np.full(4, self.T), dac_spec=dac)
        assert np.array_equal(h_seq, run_cell(x_seq, w, dac_spec=dac)[0])

    def test_noise_draws_cover_live_rows_only(self):
        rng_w, rng_a = np.random.default_rng(62), np.random.default_rng(63)
        adc = FusedConverter((2.0, 2.5, 3.0, 3.5), 4, self.N)
        self._run(self.LENGTHS, weight_noise=(rng_w, 0.1), adc_noise=rng_a, adc=adc)
        live = sum(int((self.LENGTHS > t).sum()) for t in range(self.T))
        for rng, seed in ((rng_w, 62), (rng_a, 63)):
            again = np.random.default_rng(seed)
            again.standard_normal(size=live * 4 * self.N)
            assert rng.random() == again.random()

    @pytest.mark.parametrize("lengths, match", [
        (np.array([6, 4, 6, 3, 3, 1]), "sorted"),
        (np.array([6, 6, 4, 3, 3, 0]), r"\[1, 6\]"),
        (np.array([7, 6, 4, 3, 3, 1]), r"\[1, 6\]"),
        (np.array([6, 6, 4]), "one length per row"),
    ], ids=["unsorted", "zero", "past-T", "wrong-count"])
    def test_bad_lengths_raise(self, lengths, match):
        w = random_params(self.M, self.N, seed=60).concat()
        with pytest.raises(ValueError, match=match):
            run_cell(np.zeros((self.T, 6, self.M)), w, lengths=lengths)


class TestAdcBank:
    """run_cell reads the ADC bank it is given and builds none; the ADC
    noise is the bank's."""

    M, N = 3, 2

    def test_adc_noise_without_adc_raises(self):
        w = random_params(self.M, self.N, seed=80).concat()
        with pytest.raises(ValueError, match="adc_noise"):
            run_cell(np.zeros((2, 1, self.M)), w, adc_noise=np.random.default_rng(81))

    def test_noise_sigma_is_each_gates_quantization_noise(self):
        from xbarlstm.hwcost import quantization_noise_v

        bank = FusedConverter((1.0, 1.5, 2.0, 2.5), 4, self.N)
        want = [quantization_noise_v(s.full_range, s.bits) for s in bank.specs]
        assert bank.noise_sigma.tolist() == np.repeat(want, self.N).tolist()
        assert len(bank.luts) == 4 and bank.luts[3].fn == "tanh"


class TestNoiseDraws:
    def test_read_noise_equals_normal_draws_bit_for_bit(self):
        """The draws land in the cache via standard_normal(out=...): the
        same values, sign bits and stream position as normal(0, 1)."""
        w = random_params(3, 4, seed=64).concat()
        x_seq = np.random.default_rng(65).uniform(-1, 1, size=(5, 3, 3))
        rng, ref = np.random.default_rng(66), np.random.default_rng(66)
        _, cache = run_cell(x_seq, w, weight_noise=(rng, 0.1))
        want = np.stack([ref.normal(size=(3, 16)) for _ in range(5)])
        assert np.array_equal(cache.noise_eps.view(np.int64), want.view(np.int64))
        assert rng.random() == ref.random()


class TestBackwardReusesIdealGates:
    """With ideal converters the cached gates are sigmoid/tanh of the
    pre-activations, so backward reads them; an all-pass ADC mask forces
    the recompute, and the two gradients are bit-identical."""

    @pytest.mark.parametrize("dac", [None, QuantSpec.symmetric(4, 1.0)], ids=["fp", "calibrate"])
    def test_equals_recompute_bit_for_bit(self, dac):
        params = random_params(5, 4, seed=67, scale=0.6)
        rng = np.random.default_rng(68)
        x_seq = rng.uniform(-1, 1, size=(6, 3, 5))
        _, cache = run_cell(x_seq, params.concat(), dac_spec=dac)
        d_h = rng.normal(size=(6, 3, 4))
        reused = lstm_backward(cache, d_h)
        cache.adc_mask = np.ones(cache.preact.shape, dtype=bool)
        assert np.array_equal(reused, lstm_backward(cache, d_h))


class TestHeldArraysStayPut:
    """Every array a forward or backward hands out is new, so a cache a
    caller holds does not change under a later call."""

    M, N, B = 5, 4, 3
    FIELDS = ("inputs", "preact", "gates", "c", "tanh_c", "adc_mask", "noise_eps",
              "noise_scale", "w_used", "w_mask")

    def _net(self):
        from xbarlstm.crossbar import CrossbarConfig, NoiseConfig
        from xbarlstm.network import LSTMNetwork

        cfg = CrossbarConfig.for_lstm(self.M, self.N, weight_bits=4, adc_bits=4,
                                      dac_bits=4, w_max=0.8)
        net = LSTMNetwork(self.M, self.N, 3, seed=8, crossbar=cfg, init_scale=0.6,
                          noise=NoiseConfig(weight_noise_beta=0.2, adc_noise_enabled=True))
        net.freeze_adc_ranges((1.0, 1.5, 2.0, 2.5))
        return net

    def _step(self, net, steps, seed) -> dict:
        """A quantized noisy forward and backward: every array they hand out."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=(steps, self.B, self.M))
        logits, h_seq, cache = net.forward_sequence(
            x, mode="quantized", rng_weight_noise=np.random.default_rng(seed + 1),
            rng_adc_noise=np.random.default_rng(seed + 2))
        grads = net.backward(cache, h_seq, rng.normal(size=logits.shape))
        return {"h_seq": h_seq, "d_w": grads["w"], **{k: getattr(cache, k) for k in self.FIELDS}}

    def test_held_cache_is_not_changed_by_later_calls(self):
        net = self._net()
        first = self._step(net, 6, seed=3)
        held = {key: a.copy() for key, a in first.items()}
        later = self._step(net, 6, seed=4)
        for key, a in first.items():
            assert a.tobytes() == held[key].tobytes(), key
            assert not np.shares_memory(a, later[key]), key
        # the full-precision path through run_cell directly
        params = random_params(self.M, self.N, seed=5)
        x = np.random.default_rng(6).uniform(-1, 1, size=(6, self.B, self.M))
        d_h = np.random.default_rng(7).normal(size=(6, self.B, self.N))
        h_seq, cache = run_cell(x, params.concat())
        d_w = lstm_backward(cache, d_h)
        held = [a.copy() for a in (h_seq, cache.preact, cache.gates, cache.c, d_w)]
        run_cell(x[::-1], params.concat())
        lstm_backward(cache, d_h[::-1])
        for a, b in zip((h_seq, cache.preact, cache.gates, cache.c, d_w), held):
            assert a.tobytes() == b.tobytes()
