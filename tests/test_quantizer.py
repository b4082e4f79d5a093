"""Quantizer grid semantics, STE rule, and activation LUTs.

The independent oracle here enumerates all 2^N grid points and picks the
nearest one, breaking ties toward +inf, without reusing any library code.
"""

import math
import warnings

import numpy as np
import pytest

from xbarlstm.quantizer import (
    QuantSpec,
    build_lut,
    from_code,
    quantize,
    sigmoid,
    ste_backward,
    to_code,
)


def oracle_quantize(x: float, spec: QuantSpec) -> float:
    """Enumerate the grid, return the nearest point; ties round toward +inf."""
    pts = [spec.v_min + k * (spec.v_max - spec.v_min) / (2**spec.bits - 1) for k in range(2**spec.bits)]
    best = pts[0]
    best_d = abs(x - pts[0])
    for p in pts[1:]:
        d = abs(x - p)
        # '<=' prefers the later (larger) point on an exact tie
        if d <= best_d:
            best, best_d = p, d
    return best


SPECS = [
    QuantSpec(4, -1.0, 1.0),
    QuantSpec(1, -1.0, 1.0),
    QuantSpec(2, -1.0, 1.0),
    QuantSpec(3, 0.0, 1.0),
    QuantSpec(8, -0.7, 1.3),
    QuantSpec(12, -4.0, 4.0),
]


class TestQuantize:
    def test_zero_not_on_even_symmetric_grid(self):
        # 4 bits over [-1, 1]: step 2/15, zero sits exactly between -1/15 and
        # +1/15; the tie rounds up.
        spec = QuantSpec(4, -1.0, 1.0)
        assert quantize(0.0, spec) == pytest.approx(1.0 / 15.0, abs=1e-15)
        assert oracle_quantize(0.0, spec) == pytest.approx(1.0 / 15.0, abs=1e-15)

    def test_clips_to_endpoint(self):
        assert quantize(1.7, QuantSpec(2, -1.0, 1.0)) == 1.0
        assert quantize(-3.0, QuantSpec(2, -1.0, 1.0)) == -1.0

    def test_one_bit_is_binary_sign(self):
        spec = QuantSpec(1, -1.0, 1.0)
        for w, expect in [(0.3, 1.0), (-0.3, -1.0), (0.0, 1.0), (2.0, 1.0), (-9.0, -1.0)]:
            assert quantize(w, spec) == expect

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_enumeration_oracle(self, spec):
        rng = np.random.default_rng(123)
        xs = rng.uniform(spec.v_min - 1.0, spec.v_max + 1.0, size=500)
        for x in xs:
            assert quantize(float(x), spec) == pytest.approx(oracle_quantize(float(x), spec), abs=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            quantize(float("nan"), QuantSpec(4, -1.0, 1.0))

    def test_vectorized_matches_scalar(self):
        spec = QuantSpec(5, -2.0, 2.0)
        xs = np.linspace(-3, 3, 101)
        vec = quantize(xs, spec)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert quantize(float(x), spec) == v


class TestSpecValidation:
    def test_bits_bounds(self):
        with pytest.raises(ValueError):
            QuantSpec(0, -1.0, 1.0)
        with pytest.raises(ValueError):
            QuantSpec(17, -1.0, 1.0)

    def test_range_order(self):
        with pytest.raises(ValueError):
            QuantSpec(4, 1.0, -1.0)

    @pytest.mark.parametrize("bits, lo, hi", [
        (4, -1e308, 1e308),     # the range, so the step, overflows
        (16, 0.0, 1e-320),      # the step is a subnormal without precision
    ])
    def test_range_must_be_a_usable_float_grid(self, bits, lo, hi):
        # to_code clips to [v_min, v_max] before dividing by the step, so
        # v_max must land exactly on the top code
        with pytest.raises(ValueError, match="not a usable"):
            QuantSpec(bits, lo, hi)
        QuantSpec(bits, -1.7e308, 0.0)  # wide but finite: accepted

    def test_grid_contains_endpoints(self):
        for spec in SPECS:
            g = spec.grid()
            assert g.size == spec.levels
            assert g[0] == spec.v_min
            assert g[-1] == pytest.approx(spec.v_max, abs=1e-15)


class TestProperties:
    """Spec invariants checked over 10^4 random (x, spec) pairs."""

    def _random_pairs(self, n=10_000, seed=7):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            bits = int(rng.integers(1, 17))
            lo = float(rng.uniform(-4, 2))
            hi = lo + float(rng.uniform(0.05, 6))
            spec = QuantSpec(bits, lo, hi)
            x = float(rng.uniform(lo - 2, hi + 2))
            yield x, spec

    def test_idempotent(self):
        for x, spec in self._random_pairs():
            q = quantize(x, spec)
            assert quantize(q, spec) == q

    def test_bounded_error(self):
        for x, spec in self._random_pairs(seed=11):
            clipped = min(max(x, spec.v_min), spec.v_max)
            assert abs(quantize(x, spec) - clipped) <= spec.step * 0.5 * (1 + 1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            bits = int(rng.integers(1, 9))
            spec = QuantSpec(bits, -1.5, 2.5)
            xs = np.sort(rng.uniform(-3, 4, size=64))
            qs = quantize(xs, spec)
            assert np.all(np.diff(qs) >= 0)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 6, 8])
    def test_cardinality(self, bits):
        spec = QuantSpec(bits, -1.0, 1.0)
        xs = np.linspace(-1.5, 1.5, 64 * spec.levels)
        assert len(np.unique(quantize(xs, spec))) == spec.levels


class TestSTE:
    def test_pass_through_inside_range(self):
        spec = QuantSpec(4, -1.0, 1.0)
        assert ste_backward(0.7, 0.3, spec) == 0.7

    def test_blocked_outside_range(self):
        spec = QuantSpec(4, -1.0, 1.0)
        assert ste_backward(0.7, 1.5, spec) == 0.0
        assert ste_backward(0.7, -1.0001, spec) == 0.0

    def test_boundary_inclusive(self):
        spec = QuantSpec(4, -1.0, 1.0)
        assert ste_backward(2.0, 1.0, spec) == 2.0
        assert ste_backward(2.0, -1.0, spec) == 2.0

    def test_vectorized(self):
        spec = QuantSpec(4, -1.0, 1.0)
        g = np.array([1.0, 2.0, 3.0])
        x = np.array([0.0, 5.0, -0.5])
        np.testing.assert_array_equal(ste_backward(g, x, spec), [1.0, 0.0, 3.0])


class TestLUT:
    def test_sixteen_entries_at_4bit(self):
        lut = build_lut("tanh", QuantSpec(4, -2.0, 2.0), QuantSpec(4, -1.0, 1.0))
        assert lut.entries.shape == (16,)

    def test_sigmoid_entries_within_unit_interval(self):
        for in_bits, out_bits in [(1, 1), (2, 4), (4, 4), (8, 6)]:
            lut = build_lut("sigmoid", QuantSpec(in_bits, -3.0, 3.0), QuantSpec(out_bits, 0.0, 1.0))
            assert np.all(lut.entries >= 0.0)
            assert np.all(lut.entries <= 1.0)

    def test_monotone_nondecreasing(self):
        for fn, out in [("sigmoid", QuantSpec(4, 0.0, 1.0)), ("tanh", QuantSpec(4, -1.0, 1.0))]:
            lut = build_lut(fn, QuantSpec(6, -4.0, 4.0), out)
            assert np.all(np.diff(lut.entries) >= 0)

    def test_tanh_antisymmetric_up_to_ties(self):
        # Enumerate tanh over a symmetric input grid: entry for code k and the
        # mirror code should be opposite up to one output step (tie-breaking).
        in_spec = QuantSpec(4, -2.0, 2.0)
        out_spec = QuantSpec(4, -1.0, 1.0)
        lut = build_lut("tanh", in_spec, out_spec)
        mirrored = -lut.entries[::-1]
        assert np.max(np.abs(lut.entries - mirrored)) <= out_spec.step + 1e-12

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_sigmoid_entries_are_the_closed_form_bit_for_bit(self, bits):
        # build_lut tabulates the cell's own sigmoid; on every ADC code it
        # is 1 / (1 + exp(-x)) to the bit, before and after the output snap
        for amplitude in (0.37, 1.0, 4.5, 13.0):
            in_spec = QuantSpec.symmetric(bits, amplitude)
            x = from_code(np.arange(in_spec.levels), in_spec)
            closed = 1.0 / (1.0 + np.exp(-x))
            assert sigmoid(x).tobytes() == closed.tobytes()
            for out_bits in (bits, 16):
                out_spec = QuantSpec(out_bits, 0.0, 1.0)
                lut = build_lut("sigmoid", in_spec, out_spec)
                assert lut.entries.tobytes() == quantize(closed, out_spec).tobytes()

    def test_compose_equivalence_exact(self):
        in_spec = QuantSpec(5, -3.0, 3.0)
        out_spec = QuantSpec(5, -1.0, 1.0)
        lut = build_lut("tanh", in_spec, out_spec)
        for k in range(in_spec.levels):
            direct = quantize(math.tanh(from_code(k, in_spec)), out_spec)
            assert lut(k) == direct

    def test_unsupported_fn(self):
        with pytest.raises(ValueError):
            build_lut("relu", QuantSpec(4, -1.0, 1.0), QuantSpec(4, -1.0, 1.0))

    def test_apply_is_entry_lookup(self):
        lut = build_lut("sigmoid", QuantSpec(3, -2.0, 2.0), QuantSpec(3, 0.0, 1.0))
        codes = np.array([0, 3, 7])
        np.testing.assert_array_equal(lut(codes), lut.entries[codes])


class TestCodes:
    def test_roundtrip(self):
        spec = QuantSpec(6, -1.0, 1.0)
        codes = np.arange(spec.levels)
        np.testing.assert_array_equal(to_code(from_code(codes, spec), spec), codes)

    def test_bad_code_rejected(self):
        with pytest.raises(ValueError):
            from_code(np.array([16]), QuantSpec(4, -1.0, 1.0))
        with pytest.raises(ValueError):
            from_code(np.array([-1]), QuantSpec(4, -1.0, 1.0))


def ref_to_code(x, spec: QuantSpec) -> np.ndarray:
    """The code law as one expression, with np.clip.  Finite values far
    outside the range may overflow to +-inf on the way, which clips to
    the end codes."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.clip(np.floor((x - spec.v_min) / spec.step + 0.5), 0,
                       spec.levels - 1).astype(np.int64)


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# 1, 4 and 16 bits; the [-7.5, 7.5] 4-bit grid has step 1, so its
# half-step midpoints are exact ties in floating point
LAW_SPECS = [
    QuantSpec(1, -1.0, 1.0),
    QuantSpec(4, -0.7, 1.3),
    QuantSpec(4, -7.5, 7.5),
    QuantSpec(16, -4.0, 4.0),
]


def law_inputs(spec: QuantSpec) -> np.ndarray:
    """Grid points, half-step midpoints, values beyond the range and
    random values across it."""
    k = np.arange(spec.levels, dtype=np.float64)
    rng = np.random.default_rng(spec.levels)
    return np.concatenate([
        spec.v_min + k * spec.step,
        spec.v_min + (k[:-1] + 0.5) * spec.step,
        [spec.v_min - 3 * spec.step, spec.v_max + 2.5, -1e300, 1e300, -1.7e308, 1.7e308],
        rng.uniform(spec.v_min - 1.0, spec.v_max + 1.0, size=2000),
    ])


class TestCodeLaw:
    """to_code and quantize bit for bit against the reference formulas:
    the clipped floor((x - v_min)/step + 0.5) and from_code(to_code(x)).
    Values near the float limit overflow to inf in the reference formula
    and clip to the end code; to_code clips first and stays silent."""

    @pytest.mark.parametrize("spec", LAW_SPECS, ids=lambda s: f"{s.bits}bit-{s.v_min}")
    def test_arrays(self, spec):
        x = law_inputs(spec).reshape(-1, 1)
        x.setflags(write=False)  # a write into the input would raise
        before = x.copy()
        codes = to_code(x, spec)
        assert_bitwise(codes, ref_to_code(x, spec))
        assert_bitwise(quantize(x, spec), from_code(ref_to_code(x, spec), spec))
        assert_bitwise(x, before)

    @pytest.mark.parametrize("spec", LAW_SPECS, ids=lambda s: f"{s.bits}bit-{s.v_min}")
    def test_scalars(self, spec):
        for v in law_inputs(spec)[::97]:
            for x in (float(v), np.float64(v), np.array(v)):
                code = to_code(x, spec)
                assert isinstance(code, np.int64)
                assert code == ref_to_code(x, spec)
                q = quantize(x, spec)
                assert type(q) is float
                assert_bitwise(np.float64(q), from_code(ref_to_code(x, spec), spec))

    def test_values_near_the_float_limit_raise_no_warning(self):
        spec = QuantSpec(16, -4.0, 4.0)
        x = np.array([-1.7e308, -1e300, 1e300, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = to_code(x, spec)
            q = quantize(x, spec)
            scalar = to_code(1.7e308, spec)
        np.testing.assert_array_equal(codes, [0, 0, spec.levels - 1, spec.levels - 1])
        np.testing.assert_array_equal(q, [spec.v_min, spec.v_min, spec.v_max, spec.v_max])
        assert scalar == spec.levels - 1

    def test_exact_midpoint_ties_round_up(self):
        spec = QuantSpec(4, -7.5, 7.5)
        k = np.arange(spec.levels - 1)
        mid = spec.v_min + k + 0.5
        np.testing.assert_array_equal(to_code(mid, spec), k + 1)
        np.testing.assert_array_equal(quantize(mid, spec), spec.v_min + k + 1)

    def test_input_not_modified(self):
        spec = QuantSpec(4, -1.0, 1.0)
        x = np.linspace(-2.0, 2.0, 41)
        before = x.copy()
        to_code(x, spec)
        quantize(x, spec)
        assert_bitwise(x, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        spec = QuantSpec(4, -1.0, 1.0)
        x = np.zeros((3, 2))
        x[2, 1] = bad
        for value in (x, bad, np.array(bad)):
            with pytest.raises(ValueError, match="quantizer input must be finite"):
                to_code(value, spec)
            with pytest.raises(ValueError, match="quantizer input must be finite"):
                quantize(value, spec)

    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            bits=st.sampled_from([1, 4, 16]),
            lo=st.floats(-50.0, 50.0),
            width=st.floats(1e-3, 100.0),
            data=st.data())
        def check(bits, lo, width, data):
            spec = QuantSpec(bits, lo, lo + width)
            free = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                      min_size=1, max_size=12))
            halves = data.draw(st.lists(st.integers(-4, 2 * spec.levels + 2),
                                        min_size=1, max_size=12))
            x = np.array(free + [spec.v_min + h * (spec.step / 2) for h in halves])
            before = x.copy()
            assert_bitwise(to_code(x, spec), ref_to_code(x, spec))
            assert_bitwise(quantize(x, spec), from_code(ref_to_code(x, spec), spec))
            assert_bitwise(x, before)
            q = quantize(float(x[0]), spec)
            assert type(q) is float
            assert_bitwise(np.float64(q), from_code(ref_to_code(x[0], spec), spec))

        check()
