"""Crossbar behavioral model: programming map, Ohm's-law VMM against a
scalar-loop oracle, noise statistics, and the quantized LSTM step."""

import numpy as np
import pytest

from xbarlstm.crossbar import (
    CrossbarConfig,
    NoiseConfig,
    column_currents,
    load_array,
    program,
    quantized_lstm_step,
    read_back,
    save_array,
    vmm,
)
from xbarlstm.lstm import LSTMParams, LSTMState, lstm_step_ref
from xbarlstm.quantizer import QuantSpec, from_code, quantize, to_code


def make_cfg(rows, cols, w_bits=4, adc_bits=12, dac_bits=12, w_max=1.0,
             adc_range=4.0, num_adcs=None, **kw):
    return CrossbarConfig(
        rows=rows, cols=cols,
        weight_spec=QuantSpec.symmetric(w_bits, w_max),
        dac_spec=QuantSpec.symmetric(dac_bits, 1.0),
        adc_spec=QuantSpec.symmetric(adc_bits, adc_range),
        num_adcs=num_adcs or cols, **kw,
    )


def oracle_vmm_pre(g, v, w_absmax, g_span):
    """Scalar loops: column currents then the weight-unit scaling."""
    rows = len(v)
    cols = len(g[0])
    out = []
    for j in range(cols):
        acc = 0.0
        for i in range(rows):
            acc += v[i] * g[i][j]
        out.append(acc * (w_absmax / g_span))
    return out


class TestProgram:
    def test_zero_weight_maps_to_zero_conductance(self):
        # grid must contain zero for this to be a pure linear-map statement:
        # [-2, 1] at 2 bits has levels {-2, -1, 0, 1}
        cfg = CrossbarConfig(rows=2, cols=2, num_adcs=2,
                             weight_spec=QuantSpec(2, -2.0, 1.0),
                             dac_spec=QuantSpec.symmetric(8, 1.0),
                             adc_spec=QuantSpec.symmetric(8, 4.0))
        arr = program(np.zeros((2, 2)), cfg)
        np.testing.assert_array_equal(arr.g_eff, 0.0)

    def test_endpoint_maps_to_full_span(self):
        cfg = make_cfg(2, 2, w_bits=4)
        arr = program(np.full((2, 2), 1.0), cfg)
        np.testing.assert_allclose(arr.g_eff, cfg.g_max - cfg.g_min)

    def test_round_trip_equals_quantized_weights(self):
        cfg = make_cfg(6, 8, w_bits=3)
        w = np.random.default_rng(7).uniform(-1.4, 1.4, size=(6, 8))
        arr = program(w, cfg)
        np.testing.assert_array_equal(read_back(arr), np.asarray(quantize(w, cfg.weight_spec)))

    def test_distinct_conductance_levels_bounded(self):
        cfg = make_cfg(16, 16, w_bits=3)
        arr = program(np.random.default_rng(8).normal(size=(16, 16)), cfg)
        assert len(np.unique(arr.g_eff)) <= cfg.weight_spec.levels
        assert np.max(np.abs(arr.g_eff)) <= cfg.g_max - cfg.g_min + 1e-18

    def test_shape_and_finite_validation(self):
        cfg = make_cfg(2, 2)
        with pytest.raises(ValueError):
            program(np.zeros((3, 2)), cfg)
        bad = np.zeros((2, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            program(bad, cfg)


class TestVMM:
    def test_ohms_law_1x1(self):
        # 1 V across 1 uS must read 1 uA
        cfg = CrossbarConfig(rows=1, cols=1, num_adcs=1,
                             weight_spec=QuantSpec.symmetric(4, 1.0),
                             dac_spec=QuantSpec.symmetric(12, 1.0),
                             adc_spec=QuantSpec.symmetric(16, 2.0),
                             g_min=0.0, g_max=1e-6)
        arr = program(np.array([[1.0]]), cfg)
        assert arr.g_eff[0, 0] == pytest.approx(1e-6)
        current = column_currents(arr.g_eff, np.array([1.0]))
        assert current[0] == pytest.approx(1e-6)
        _, val = vmm(arr, to_code(np.array([1.0]), cfg.dac_spec), cfg)
        assert val[0] == pytest.approx(1.0, abs=cfg.adc_spec.step)

    def test_matches_scalar_loop_oracle_exactly(self):
        rng = np.random.default_rng(11)
        for rows, cols in [(3, 4), (8, 8), (17, 12)]:
            cfg = make_cfg(rows, cols, w_bits=5, adc_bits=16, adc_range=8.0)
            arr = program(rng.normal(size=(rows, cols)), cfg)
            x = rng.uniform(-1, 1, rows)
            codes = to_code(x, cfg.dac_spec)
            _, _, pre = vmm(arr, codes, cfg, return_pre_adc=True)
            v = from_code(codes, cfg.dac_spec)
            expect = oracle_vmm_pre(arr.g_eff.tolist(), v.tolist(),
                                    arr.w_absmax, arr.g_span)
            assert pre.tolist() == expect  # bit-identical, same summation order

    def test_dense_grid_matches_quantized_matmul(self):
        # 12-bit everywhere: dequantized output within one ADC step of the
        # plain product of quantized weights and quantized inputs
        rng = np.random.default_rng(13)
        cfg = make_cfg(8, 8, w_bits=12, adc_bits=12, adc_range=8.0)
        w = rng.normal(0, 0.4, size=(8, 8))
        arr = program(w, cfg)
        x = rng.uniform(-1, 1, 8)
        codes = to_code(x, cfg.dac_spec)
        _, val = vmm(arr, codes, cfg)
        direct = np.asarray(quantize(x, cfg.dac_spec)) @ np.asarray(quantize(w, cfg.weight_spec))
        assert np.max(np.abs(val - direct)) <= cfg.adc_spec.step

    def test_linearity_pre_adc(self):
        rng = np.random.default_rng(17)
        cfg = make_cfg(10, 6, w_bits=6, adc_bits=16, dac_bits=16, adc_range=16.0)
        arr = program(rng.normal(size=(10, 6)), cfg)
        x = rng.uniform(-0.4, 0.4, 10)
        y = rng.uniform(-0.4, 0.4, 10)
        a, b = 0.5, 0.25  # exactly representable so DAC error cancels
        combo = np.asarray(quantize(a * np.asarray(quantize(x, cfg.dac_spec))
                                    + b * np.asarray(quantize(y, cfg.dac_spec)), cfg.dac_spec))
        _, _, pre_combo = vmm(arr, to_code(combo, cfg.dac_spec), cfg, return_pre_adc=True)
        _, _, pre_x = vmm(arr, to_code(x, cfg.dac_spec), cfg, return_pre_adc=True)
        _, _, pre_y = vmm(arr, to_code(y, cfg.dac_spec), cfg, return_pre_adc=True)
        np.testing.assert_allclose(pre_combo, a * pre_x + b * pre_y,
                                   rtol=1e-9, atol=2 * cfg.dac_spec.step)

    def test_input_validation(self):
        cfg = make_cfg(4, 4)
        arr = program(np.zeros((4, 4)), cfg)
        with pytest.raises(ValueError):
            vmm(arr, np.zeros(3, dtype=int), cfg)
        with pytest.raises(ValueError):
            vmm(arr, np.array([0, 0, 0, cfg.dac_spec.levels]), cfg)

    def test_rng_required_when_noise_enabled(self):
        cfg = make_cfg(2, 2)
        arr = program(np.zeros((2, 2)), cfg)
        noise = NoiseConfig(adc_noise_enabled=True)
        with pytest.raises(ValueError):
            vmm(arr, np.zeros(2, dtype=int), cfg, noise=noise, rng=None)


class TestNoise:
    def test_beta_range_enforced(self):
        with pytest.raises(ValueError):
            NoiseConfig(weight_noise_beta=0.25)
        NoiseConfig(weight_noise_beta=0.2)  # boundary allowed

    def test_weight_noise_std_per_read(self):
        # single-row array: pre-activation of column j is v * (w + z_j), so
        # with v = 1 and w = 0 the pre-ADC value is the injected noise itself
        cfg = make_cfg(1, 500, w_bits=4, adc_bits=16, adc_range=2.0, num_adcs=500)
        arr = program(np.zeros((1, 500)), cfg)
        noise = NoiseConfig(weight_noise_beta=0.1)
        rng = np.random.default_rng(29)
        codes = to_code(np.array([1.0]), cfg.dac_spec)
        samples = []
        for _ in range(200):
            _, _, pre = vmm(arr, codes, cfg, noise=noise, rng=rng, return_pre_adc=True)
            samples.append(pre)
        sigma_ref = 0.1 * cfg.weight_spec.full_range
        assert abs(np.concatenate(samples).std() / sigma_ref - 1) < 0.02

    def test_adc_noise_std(self):
        # zero array: the pre-ADC value is exactly the injected ADC noise
        cfg = make_cfg(1, 500, adc_bits=2, adc_range=1.0, num_adcs=500)
        arr = program(np.zeros((1, 500)), cfg)
        noise = NoiseConfig(adc_noise_enabled=True)
        rng = np.random.default_rng(31)
        codes = to_code(np.array([1.0]), cfg.dac_spec)
        samples = []
        for _ in range(200):
            _, _, pre = vmm(arr, codes, cfg, noise=noise, rng=rng, return_pre_adc=True)
            samples.append(pre)
        sigma_ref = 2.0 / (2**2 * np.sqrt(12.0))  # full range 2 V at 2 bits
        assert sigma_ref == pytest.approx(0.144, abs=0.001)
        assert abs(np.concatenate(samples).std() / sigma_ref - 1) < 0.02

    def test_seed_determinism(self):
        cfg = make_cfg(6, 8, adc_bits=6)
        arr = program(np.random.default_rng(37).normal(size=(6, 8)), cfg)
        noise = NoiseConfig(adc_noise_enabled=True, weight_noise_beta=0.1)
        codes = to_code(np.random.default_rng(38).uniform(-1, 1, 6), cfg.dac_spec)
        c1, v1 = vmm(arr, codes, cfg, noise=noise, rng=np.random.default_rng(99))
        c2, v2 = vmm(arr, codes, cfg, noise=noise, rng=np.random.default_rng(99))
        assert np.array_equal(c1, c2)
        assert np.array_equal(v1, v2)

    def test_beta_zero_identical_to_noiseless(self):
        cfg = make_cfg(4, 4)
        arr = program(np.random.default_rng(41).normal(size=(4, 4)), cfg)
        codes = to_code(np.random.default_rng(42).uniform(-1, 1, 4), cfg.dac_spec)
        _, clean = vmm(arr, codes, cfg)
        _, off = vmm(arr, codes, cfg, noise=NoiseConfig(), rng=np.random.default_rng(1))
        assert np.array_equal(clean, off)


class TestQuantizedStep:
    def test_har_geometry(self):
        cfg = CrossbarConfig.for_lstm(32, 32, weight_bits=4, adc_bits=4, dac_bits=4)
        assert (cfg.rows, cfg.cols) == (64, 128)
        assert cfg.mux_ratio * cfg.num_adcs == cfg.cols

    def test_matches_reference_at_12bit(self):
        rng = np.random.default_rng(45)
        m = n = 3
        for trial in range(20):
            # weights inside the grid range so the comparison sees grid
            # error only, not range clipping
            params = LSTMParams(*(rng.uniform(-0.9, 0.9, size=(m + n, n)) for _ in range(4)))
            cfg = CrossbarConfig.for_lstm(m, n, weight_bits=12, adc_bits=12,
                                          dac_bits=12, adc_range=4.0)
            arr = program(params.concat(), cfg)
            x = rng.uniform(-1, 1, m)
            h = np.asarray(quantize(rng.uniform(-0.9, 0.9, n), cfg.dac_spec))
            c = rng.normal(size=n)
            state_q, gates_q = quantized_lstm_step(arr, x, LSTMState(h=h.copy(), c=c.copy()), cfg)
            ref_in = LSTMState(h=h.copy(), c=c.copy())
            state_r, gates_r = lstm_step_ref(params, np.asarray(quantize(x, cfg.dac_spec)), ref_in)
            tol = 2 * max(cfg.weight_spec.step, cfg.dac_spec.step,
                          cfg.adc_spec.step, QuantSpec(12, -1.0, 1.0).step)
            for got, want in [(gates_q.f, gates_r.f), (gates_q.i, gates_r.i),
                              (gates_q.o, gates_r.o), (gates_q.c_tilde, gates_r.c_tilde)]:
                assert np.max(np.abs(got - want)) <= tol
            assert np.max(np.abs(state_q.c - state_r.c)) <= 4 * tol
            assert np.max(np.abs(state_q.h - state_r.h)) <= 4 * tol

    def test_zero_array_matches_zero_weight_reference(self):
        m = n = 4
        cfg = CrossbarConfig.for_lstm(m, n, weight_bits=4, adc_bits=4, dac_bits=4,
                                      adc_range=2.0)
        arr = program(np.zeros((cfg.rows, cfg.cols)), cfg)
        c_prev = np.array([0.5, -0.5, 1.0, 0.0])
        h = np.asarray(quantize(np.zeros(n), cfg.dac_spec))
        state, gates = quantized_lstm_step(arr, np.zeros(m), LSTMState(h=h, c=c_prev.copy()), cfg)
        # reference: f = i = o = 0.5, c_tilde = 0; LUT rounding and the ADC
        # snap of a zero pre-activation bound the deviation
        out_step = QuantSpec(4, 0.0, 1.0).step
        gate_tol = cfg.adc_spec.step / 2 * 0.25 + out_step / 2 + 1e-12
        for g in (gates.f, gates.i, gates.o):
            assert np.max(np.abs(g - 0.5)) <= gate_tol
        ct_tol = cfg.adc_spec.step / 2 + QuantSpec(4, -1.0, 1.0).step / 2 + 1e-12
        assert np.max(np.abs(gates.c_tilde)) <= ct_tol

    def test_gate_ranges_after_luts(self):
        rng = np.random.default_rng(51)
        cfg = CrossbarConfig.for_lstm(4, 4, weight_bits=2, adc_bits=2, dac_bits=2,
                                      adc_range=2.0)
        arr = program(rng.normal(size=(cfg.rows, cfg.cols)), cfg)
        h = np.asarray(quantize(rng.uniform(-1, 1, 4), cfg.dac_spec))
        state, gates = quantized_lstm_step(
            arr, rng.uniform(-1, 1, 4), LSTMState(h=h, c=rng.normal(size=4)), cfg)
        for g in (gates.f, gates.i, gates.o):
            assert np.all((g >= 0) & (g <= 1))
        assert np.all((gates.c_tilde >= -1) & (gates.c_tilde <= 1))
        assert np.all(np.abs(state.h) <= 1)

    def test_h_returned_on_dac_grid(self):
        rng = np.random.default_rng(53)
        cfg = CrossbarConfig.for_lstm(3, 3, weight_bits=4, adc_bits=4, dac_bits=3)
        arr = program(rng.normal(0, 0.4, size=(cfg.rows, cfg.cols)), cfg)
        h0 = np.asarray(quantize(rng.uniform(-1, 1, 3), cfg.dac_spec))
        state, _ = quantized_lstm_step(arr, rng.uniform(-1, 1, 3),
                                       LSTMState(h=h0, c=np.zeros(3)), cfg)
        np.testing.assert_array_equal(np.asarray(quantize(state.h, cfg.dac_spec)), state.h)


class TestDumpFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = make_cfg(5, 8, w_bits=3)
        arr = program(np.random.default_rng(61).normal(size=(5, 8)), cfg)
        path = tmp_path / "array.txt"
        save_array(arr, path)
        loaded = load_array(path)
        assert np.array_equal(loaded.source_codes, arr.source_codes)
        assert loaded.g_eff.tobytes() == arr.g_eff.tobytes()
        assert loaded.weight_spec == arr.weight_spec
        assert loaded.g_min == arr.g_min and loaded.g_max == arr.g_max

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not an array\n")
        with pytest.raises(ValueError):
            load_array(path)

    @pytest.mark.parametrize("edit, line", [
        (lambda lines: lines + [lines[-1]], 9),
        (lambda lines: lines[:1] + ["rows 3"] + lines[2:], 2),
        (lambda lines: lines[:1] + ["rows -1 cols 4"] + lines[2:], 2),
        (lambda lines: lines[:3] + [lines[3].rsplit(" ", 1)[0]] + lines[4:], 4),
        (lambda lines: lines[:-1], 8),
        (lambda lines: lines[:-1] + [lines[-1] + " 1"], 8),
        (lambda lines: lines[:-1] + ["x" + lines[-1][1:]], 8),
    ], ids=["extra-row", "rows-without-cols", "negative-rows", "short-weight-range", "missing-row",
            "long-row", "non-integer-code"])
    def test_malformed_dump_rejected(self, tmp_path, edit, line):
        cfg = make_cfg(3, 4, w_bits=3)
        arr = program(np.random.default_rng(62).normal(size=(3, 4)), cfg)
        path = tmp_path / "array.txt"
        save_array(arr, path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=f"^line {line}: "):
            load_array(path)


class TestConfigValidation:
    def test_mux_divisibility(self):
        with pytest.raises(ValueError):
            make_cfg(4, 6, num_adcs=4)

    def test_conductance_window(self):
        with pytest.raises(ValueError):
            CrossbarConfig(rows=2, cols=2, num_adcs=2,
                           weight_spec=QuantSpec.symmetric(4, 1.0),
                           dac_spec=QuantSpec.symmetric(4, 1.0),
                           adc_spec=QuantSpec.symmetric(4, 1.0),
                           g_min=2e-6, g_max=1e-6)

    def test_dac_within_drive_range(self):
        with pytest.raises(ValueError):
            CrossbarConfig(rows=2, cols=2, num_adcs=2,
                           weight_spec=QuantSpec.symmetric(4, 1.0),
                           dac_spec=QuantSpec.symmetric(4, 2.0),
                           adc_spec=QuantSpec.symmetric(4, 1.0),
                           v_read=1.0)
