"""Cost-model arithmetic against the published benchmark figures.

The default HwParams must land on the published "this work" numbers.  The
ADC power is exactly 64 * 160 MS/s * 1 pJ = 10.24 mW, which the source
table prints as the one-significant-figure 0.01 W, so that entry is
checked at printed precision rather than 1%.
"""

import math

import pytest

from xbarlstm.hwcost import (
    COMPARISON_ROWS,
    HwParams,
    InfeasibleHardware,
    adc_energy_per_sample,
    adc_unit_area,
    area,
    cost_report,
    efficiencies,
    enob,
    johnson_noise,
    power,
    quantization_noise_v,
    render_comparison_tables,
    shot_noise,
    throughput,
    MM2,
)


def rel(x, ref):
    return abs(x - ref) / abs(ref)


class TestThroughput:
    def test_vmm_3645(self):
        vmm, _ = throughput(HwParams())
        assert rel(vmm, 3645) < 0.01

    def test_overall_3439(self):
        _, overall = throughput(HwParams())
        assert rel(overall, 3439) < 0.01

    def test_unit_case(self):
        p = HwParams(rows=1, cols=1, num_adcs=1, t_read=1.0)
        vmm, _ = throughput(p)
        assert vmm == pytest.approx(1e-9)

    def test_infeasible_adc_bandwidth(self):
        # 8 ADCs cannot digitize 1024 columns in 100 ns at 160 MS/s
        p = HwParams(num_adcs=8)
        with pytest.raises(InfeasibleHardware):
            throughput(p)

    def test_parallel_arrays_scale(self):
        v1, o1 = throughput(HwParams())
        v3, o3 = throughput(HwParams(parallel_arrays=3))
        assert v3 == pytest.approx(3 * v1)
        assert o3 == pytest.approx(3 * o1)


class TestAdcEnergy:
    def test_low_resolution_flat_1pj(self):
        assert adc_energy_per_sample(4) == pytest.approx(1e-12)

    def test_knee_continuity(self):
        assert adc_energy_per_sample(9) == pytest.approx(1e-12)

    def test_12bit_64pj(self):
        assert adc_energy_per_sample(12) == pytest.approx(64e-12)

    def test_quadruples_per_bit(self):
        assert adc_energy_per_sample(10) / adc_energy_per_sample(9) == pytest.approx(4.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            adc_energy_per_sample(0)


class TestPower:
    def test_adc_power_printed_as_001(self):
        adc_w = power(HwParams())["adc"]
        assert adc_w == pytest.approx(64 * 160e6 * 1e-12)  # 10.24 mW exact
        assert round(adc_w, 2) == 0.01                     # printed precision

    def test_array_power_0364(self):
        assert rel(power(HwParams())["array"], 0.364) < 0.01

    def test_total_1136(self):
        pw = power(HwParams())
        assert rel(pw["total"], 1.136) < 0.01
        assert pw["total"] == pytest.approx(pw["adc"] + pw["array"] + pw["residual"])

    def test_array_power_linear_in_cells(self):
        base = power(HwParams())["array"]
        double = power(HwParams(rows=712))["array"]
        assert double == pytest.approx(2 * base)


class TestArea:
    def test_adc_area_064(self):
        assert area(HwParams())["adc"] == pytest.approx(0.64 * MM2)

    def test_array_area_0058(self):
        assert rel(area(HwParams())["array"] / MM2, 0.058) < 0.01

    def test_total_1031(self):
        ar = area(HwParams())
        assert rel(ar["total"] / MM2, 1.031) < 0.01
        assert ar["total"] == pytest.approx(ar["adc"] + ar["array"] + ar["residual"])

    def test_12bit_unit_area_near_1mm2(self):
        assert rel(adc_unit_area(12) / MM2, 1.0) < 0.15

    def test_monotone_in_bits(self):
        areas = [area(HwParams(adc_bits=b))["adc"] for b in range(1, 14)]
        assert all(b >= a for a, b in zip(areas, areas[1:]))
        powers = [power(HwParams(adc_bits=b))["adc"] for b in range(1, 14)]
        assert all(b >= a for a, b in zip(powers, powers[1:]))


class TestEfficiencies:
    def test_3027_gops_per_w(self):
        ce, _ = efficiencies(HwParams())
        assert rel(ce, 3027) < 0.01

    def test_3333_gops_per_mm2(self):
        _, ae = efficiencies(HwParams())
        assert rel(ae, 3333) < 0.01

    def test_double_power_halves_efficiency(self):
        p1 = HwParams()
        extra = power(p1)["total"]  # residual bumped so total doubles
        p2 = HwParams(residual_power=p1.residual_power + extra)
        ce1, _ = efficiencies(p1)
        ce2, _ = efficiencies(p2)
        assert ce2 == pytest.approx(ce1 / 2)

    def test_headline_ratios_over_the_best_digital_row(self):
        # the abstract's 2.4x computing and 40x area efficiency are taken
        # against the best stored digital entries (3027/1278 and 3333/84)
        digital = COMPARISON_ROWS["digital"]
        best_ce = max(r["computing_efficiency"] for r in digital)
        best_ae = max(r["area_efficiency"] for r in digital if r["area_efficiency"] is not None)
        assert (best_ce, best_ae) == (1278, 84)
        ce, ae = efficiencies(HwParams())
        assert round(ce / best_ce, 1) == 2.4
        assert round(ae / best_ae) == 40


class TestNoiseFormulas:
    def test_2bit_pm1v_0144(self):
        assert quantization_noise_v(2.0, 2) == pytest.approx(0.144, abs=0.001)

    def test_monotone_to_zero_in_bits(self):
        vals = [quantization_noise_v(2.0, b) for b in range(1, 17)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4

    def test_linear_in_range(self):
        assert quantization_noise_v(4.0, 3) == pytest.approx(2 * quantization_noise_v(2.0, 3))

    def test_enob_inversion(self):
        assert enob(25.84) == pytest.approx(4.0)
        assert enob(6.02 * 9 + 1.76) == pytest.approx(9.0)

    def test_johnson_1k_300k_4nv(self):
        assert rel(johnson_noise(1e3, 300.0, 1.0), 4.07e-9) < 0.02

    def test_shot_zero_current(self):
        assert shot_noise(0.0, 1e6) == 0.0

    def test_shot_formula(self):
        assert shot_noise(1e-6, 1.0) == pytest.approx(math.sqrt(2 * 1.602176634e-19 * 1e-6))


class TestReport:
    def test_totals_are_sums_and_ratios(self):
        d = cost_report(HwParams())
        assert d["computing_efficiency_gops_per_w"] == pytest.approx(
            d["overall_throughput_gops"] / d["power_w"]["total"]
        )
        assert d["area_efficiency_gops_per_mm2"] == pytest.approx(
            d["overall_throughput_gops"] / d["area_mm2"]["total"]
        )

    def test_comparison_tables_include_reference_rows(self):
        text = render_comparison_tables(cost_report(HwParams()))
        for row in COMPARISON_ROWS["digital"] + COMPARISON_ROWS["nvm"]:
            assert row["name"] in text
        assert "This work" in text

    def test_comparison_csv(self):
        csv_text = render_comparison_tables(cost_report(HwParams()), fmt="csv")
        assert "name,technology" in csv_text
        assert "84,000" not in csv_text  # csv must not use thousands separators

    def test_validation(self):
        with pytest.raises(ValueError):
            HwParams(num_adcs=63)
        with pytest.raises(ValueError):
            HwParams(t_read=-1.0)
