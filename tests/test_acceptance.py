"""Acceptance suite: every criterion as one test, at its stated tolerance.

Trend criteria (criterion6/7/8/10) train real models over the fixed seed
set (1, 2, 3); all randomness is seed-derived so their numbers reproduce
exactly run to run, and a cell two tests share is trained once per
session (see trained_cells).  A summary line per criterion is printed at
the end of the session (see conftest), with each value a trend criterion
compares, its bound and the margin between them, as the test passed
them to `record_bound`, and the per-seed metrics of each cell whose mean
it took from `trained_mean` (see conftest).
"""

import numpy as np
import pytest

from xbarlstm.crossbar import (
    CrossbarConfig,
    NoiseConfig,
    program,
    quantized_lstm_step,
    vmm,
)
from xbarlstm.hwcost import (
    HwParams,
    adc_energy_per_sample,
    area,
    efficiencies,
    johnson_noise,
    power,
    quantization_noise_v,
    throughput,
    MM2,
)
from xbarlstm.lstm import LSTMParams, LSTMState, forward_sequence, lstm_backward, lstm_step_ref
from xbarlstm.quantizer import QuantSpec, quantize, to_code
from xbarlstm.experiment import _train_cell, run as run_config_file


# -- 1 ---------------------------------------------------------------------------

def test_criterion1_cost_model_exactness():
    """Default HwParams reproduce every published 'this work' figure within
    1%.  ADC power is exactly 10.24 mW, which the source prints as the
    one-significant-figure 0.01 W, so that entry is checked at printed
    precision."""
    p = HwParams()
    vmm_gops, overall = throughput(p)
    pw = power(p)
    ar = area(p)
    ce, ae = efficiencies(p)

    def within(value, ref, tol=0.01):
        assert abs(value - ref) / ref < tol, f"{value} vs {ref}"

    within(vmm_gops, 3645)
    within(overall, 3439)
    assert round(pw["adc"], 2) == 0.01
    within(pw["array"], 0.364)
    within(pw["total"], 1.136)
    within(ar["adc"] / MM2, 0.64)
    within(ar["array"] / MM2, 0.058)
    within(ar["total"] / MM2, 1.031)
    within(ce, 3027)
    within(ae, 3333)


# -- 2 ---------------------------------------------------------------------------

def test_criterion2_noise_formula_exactness():
    assert quantization_noise_v(2.0, 2) == pytest.approx(0.144, abs=0.001)
    assert abs(johnson_noise(1e3, 300.0, 1.0) - 4.07e-9) / 4.07e-9 < 0.02
    assert adc_energy_per_sample(12) == 64e-12
    assert adc_energy_per_sample(4) == 1e-12


# -- 3 ---------------------------------------------------------------------------

def test_criterion3_oracle_equivalence():
    """(a) noiseless VMM pre-activation equals a scalar-loop oracle exactly
    on 100 random instances up to 64x256; (b) the quantized step at 12-bit
    grids tracks the reference cell within 2 grid steps per gate."""
    rng = np.random.default_rng(2024)
    for trial in range(100):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 257))
        cfg = CrossbarConfig(
            rows=rows, cols=cols,
            weight_spec=QuantSpec.symmetric(int(rng.integers(1, 9)), 1.0),
            dac_spec=QuantSpec.symmetric(int(rng.integers(1, 9)), 1.0),
            adc_spec=QuantSpec.symmetric(16, 64.0))
        arr = program(rng.normal(size=(rows, cols)), cfg)
        codes = to_code(rng.uniform(-1, 1, rows), cfg.dac_spec)
        _, _, pre = vmm(arr, codes, cfg, return_pre_adc=True)

        v = (cfg.dac_spec.v_min + codes * cfg.dac_spec.step).tolist()
        g = arr.g_eff.tolist()
        scale = arr.w_absmax / arr.g_span
        for j in range(cols):
            acc = 0.0
            for i in range(rows):
                acc += v[i] * g[i][j]
            assert acc * scale == pre[j]  # bit-exact

    rng = np.random.default_rng(77)
    m = n = 3
    for trial in range(25):
        # weights inside the grid range: the check concerns accumulated grid
        # error, not range clipping
        params = LSTMParams(*(rng.uniform(-0.9, 0.9, size=(m + n, n)) for _ in range(4)))
        cfg = CrossbarConfig.for_lstm(m, n, weight_bits=12, adc_bits=12,
                                      dac_bits=12, adc_range=4.0)
        arr = program(params.concat(), cfg)
        x = rng.uniform(-1, 1, m)
        h = np.asarray(quantize(rng.uniform(-0.9, 0.9, n), cfg.dac_spec))
        c = rng.normal(size=n)
        state_q, gates_q = quantized_lstm_step(arr, x, LSTMState(h=h.copy(), c=c.copy()), cfg)
        state_r, gates_r = lstm_step_ref(params, np.asarray(quantize(x, cfg.dac_spec)),
                                         LSTMState(h=h.copy(), c=c.copy()))
        tol = 2 * max(cfg.weight_spec.step, cfg.dac_spec.step, cfg.adc_spec.step)
        for got, want in [(gates_q.f, gates_r.f), (gates_q.i, gates_r.i),
                          (gates_q.o, gates_r.o), (gates_q.c_tilde, gates_r.c_tilde)]:
            assert np.max(np.abs(got - want)) <= tol


# -- 4 ---------------------------------------------------------------------------

def test_criterion4_gradient_correctness():
    """FP BPTT gradients match central finite differences within 1e-4
    relative (max norm) on a 4-step m=n=3 network; STE-mode gradients match
    the clipped-surrogate finite differences within 1e-3."""
    from test_network import build_quantized_net, fd_surrogate, max_rel_err, ste_grads

    m = n = 3
    t_steps = 4
    rng = np.random.default_rng(41)
    params = LSTMParams(*(rng.normal(0, 0.5, size=(m + n, n)) for _ in range(4)))
    x_seq = rng.normal(size=(t_steps, 1, m)) * 0.8
    targets = rng.normal(size=(t_steps, 1, n)) * 0.5

    h_seq, cache = forward_sequence(params, x_seq)
    d_h = [h_seq[t] - targets[t] for t in range(t_steps)]
    grads = LSTMParams.from_concat(lstm_backward(cache, d_h))

    def loss(p):
        hs, _ = forward_sequence(p, x_seq)
        return 0.5 * float(sum(np.sum((hs[t] - targets[t]) ** 2) for t in range(t_steps)))

    step = 1e-5
    for name in ("w_f", "w_i", "w_o", "w_c"):
        w = getattr(params, name)
        fd = np.zeros_like(w)
        for r in range(w.shape[0]):
            for col in range(w.shape[1]):
                orig = w[r, col]
                w[r, col] = orig + step
                up = loss(params)
                w[r, col] = orig - step
                down = loss(params)
                w[r, col] = orig
                fd[r, col] = (up - down) / (2 * step)
        assert max_rel_err(getattr(grads, name), fd) < 1e-4

    net = build_quantized_net(m, n, out=4, seed=13, w_max=1.0, adc_range=4.0)
    net.w = rng.normal(0.0, 0.35, size=net.w.shape)
    x_seq_q = rng.uniform(-0.8, 0.8, size=(4, 1, m))
    _, ste = ste_grads(net, x_seq_q, target=2)
    fd_q = fd_surrogate(net, x_seq_q, target=2, adc_ranges=[4.0] * 4)
    assert max_rel_err(ste["w"], fd_q) < 1e-3


# -- 5 ---------------------------------------------------------------------------

def test_criterion5_quantizer_property_suite():
    """Idempotence, monotonicity, half-step error bound and 2^N cardinality
    over 10^4 random (x, spec) pairs."""
    rng = np.random.default_rng(99)
    specs = []
    for _ in range(100):
        bits = int(rng.integers(1, 17))
        lo = float(rng.uniform(-4, 2))
        specs.append(QuantSpec(bits, lo, lo + float(rng.uniform(0.05, 6))))

    for spec in specs:  # 100 specs x 100 points = 10^4 pairs
        xs = rng.uniform(spec.v_min - 2, spec.v_max + 2, size=100)
        q = np.asarray(quantize(xs, spec))
        assert np.array_equal(np.asarray(quantize(q, spec)), q)          # idempotent
        clipped = np.clip(xs, spec.v_min, spec.v_max)
        assert np.max(np.abs(q - clipped)) <= spec.step * 0.5 * (1 + 1e-12)
        order = np.argsort(xs)
        assert np.all(np.diff(q[order]) >= 0)                            # monotone
        # sweep spacing < one grid step, so every cell is hit
        dense = np.asarray(quantize(
            np.linspace(spec.v_min - spec.step, spec.v_max + spec.step,
                        8 * spec.levels), spec))
        assert len(np.unique(dense)) == spec.levels                      # cardinality


# -- 6 ---------------------------------------------------------------------------

def test_criterion6_char_corpus_bitwidth_trend(record_bound, trained_mean):
    """Bundled char corpus, 3-seed mean perplexity ratios against the FP
    baseline: 4b/4b <= 1.05, 2b/2b <= 1.10, 1b/1b >= 1.20."""
    fp = trained_mean("char_lm", None)
    r444 = trained_mean("char_lm", (4, 4, 4)) / fp
    r222 = trained_mean("char_lm", (2, 2, 2)) / fp
    r111 = trained_mean("char_lm", (1, 1, 1)) / fp
    record_bound("4b/4b ratio", r444, "<=", 1.05)
    record_bound("2b/2b ratio", r222, "<=", 1.10)
    record_bound("1b/1b ratio", r111, ">=", 1.20)
    assert r444 <= 1.05, f"4b/4b ratio {r444:.3f}"
    assert r222 <= 1.10, f"2b/2b ratio {r222:.3f}"
    assert r111 >= 1.20, f"1b/1b ratio {r111:.3f}"


# -- 7 ---------------------------------------------------------------------------

def test_criterion7_bit_asymmetry_trend(record_bound, trained_mean):
    """Word task, 3-seed means: 4-bit weights with 2-bit converters beat
    2-bit weights with 4-bit converters, and 1-bit weights with 2-bit
    converters are worse than 2-bit weights with 1-bit converters."""
    p422 = trained_mean("word_lm", (4, 2, 2))
    p244 = trained_mean("word_lm", (2, 4, 4))
    p122 = trained_mean("word_lm", (1, 2, 2))
    p211 = trained_mean("word_lm", (2, 1, 1))
    record_bound("422 vs 244 perplexity", p422, "<", p244)
    record_bound("122 vs 211 perplexity", p122, ">", p211)
    assert p422 < p244, f"422={p422:.2f} vs 244={p244:.2f}"
    assert p122 > p211, f"122={p122:.2f} vs 211={p211:.2f}"


# -- 8 ---------------------------------------------------------------------------

def test_criterion8_noise_robustness(record_bound, trained_mean):
    """Char corpus at 4b/4b: ADC quantization noise and beta = 0.2 weight
    noise each move the 3-seed mean metric by <= 5%; beta = 0 is
    bit-identical to the noiseless path."""
    clean = trained_mean("char_lm", (4, 4, 4))
    b02 = trained_mean("char_lm", (4, 4, 4), NoiseConfig(weight_noise_beta=0.2))
    adc = trained_mean("char_lm", (4, 4, 4), NoiseConfig(adc_noise_enabled=True))
    record_bound("beta=0.2 |delta| %", 100 * abs(b02 / clean - 1), "<=", 5.0)
    record_bound("adc noise |delta| %", 100 * abs(adc / clean - 1), "<=", 5.0)
    assert abs(b02 / clean - 1) <= 0.05, f"beta=0.2 delta {100*abs(b02/clean-1):.2f}%"
    assert abs(adc / clean - 1) <= 0.05, f"adc delta {100*abs(adc/clean-1):.2f}%"

    # bit-identity of the beta = 0 path, at reduced scale
    vals = [_train_cell("char_lm", {"bitwidths": (4, 4, 4), "epochs": 2, "noise": noise},
                        seed=1).perplexity
            for noise in (NoiseConfig(), NoiseConfig(weight_noise_beta=0.0))]
    assert vals[0] == vals[1]


# -- 9 ---------------------------------------------------------------------------

def test_criterion9_manifest_closure(tmp_path):
    """Re-running an experiment from its manifest yields byte-identical
    metrics.csv."""
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text("""
[experiment]
command = train
task = word_lm
seed = 12

[train]
weight_bits = 4
adc_bits = 4
dac_bits = 4
epochs = 3
hidden_size = 16
""")
    assert run_config_file(cfg_file, out_dir=tmp_path / "a") == 0
    assert run_config_file(tmp_path / "a" / "manifest.json", out_dir=tmp_path / "b") == 0
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b and len(a) > 0


# -- 10 --------------------------------------------------------------------------

def test_criterion10_synthetic_har(record_bound, trained_mean):
    """FP baseline reaches >= 95% validation accuracy; the 4b/4b model sits
    within 2 accuracy points of it on 3-seed means."""
    fp = trained_mean("har", None)
    q4 = trained_mean("har", (4, 4, 4))
    record_bound("fp accuracy", fp, ">=", 0.95)
    record_bound("4b/4b gap points", abs(fp - q4) * 100, "<=", 2.0)
    assert fp >= 0.95, f"FP accuracy {fp:.3f}"
    assert abs(fp - q4) * 100 <= 2.0, f"gap {100*abs(fp-q4):.2f} points"
