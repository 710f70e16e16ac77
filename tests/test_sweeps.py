"""Sweep engine: figure reproduction, optimizer, determinism."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from afm_transducer.errors import ConfigError
from afm_transducer.output import render_csv
from afm_transducer.presets import get_preset
from afm_transducer.sweeps import (
    SweepSpec,
    SweepVariable,
    detuning_sweep,
    faraday_sweep,
    find_optimal_thickness,
    heterostructure_projection,
    thickness_sweep_with_cavity,
    thickness_sweep_without_cavity,
)


def loglog_slope(x, y):
    return np.polyfit(np.log(x), np.log(y), 1)[0]


@pytest.fixture(scope="module")
def faraday_result():
    return faraday_sweep()


@pytest.fixture(scope="module")
def thickness_cavity_result():
    return thickness_sweep_with_cavity()


@pytest.fixture(scope="module")
def thickness_nocavity_result():
    return thickness_sweep_without_cavity()


@pytest.fixture(scope="module")
def detuning_result():
    spec = SweepSpec(
        preset="mnf2-easyaxis-20GHz", variable=SweepVariable.PROBE_DETUNING,
        lo=-2e9, hi=2e9, count=201, scale="linear",
    )
    return detuning_sweep(spec)


@pytest.fixture(scope="module")
def hetero_result():
    return heterostructure_projection()



class TestFaradaySweep:
    def test_reference_endpoint(self, faraday_result):
        eta = faraday_result.column("eta")
        ratio = faraday_result.column("theta_f_ratio")
        assert ratio[-1] == pytest.approx(1.0)
        assert eta[-1] == pytest.approx(7.152058e-10, rel=1e-5, abs=0)

    def test_hundredth_endpoint(self, faraday_result):
        eta = faraday_result.column("eta")
        assert eta[0] == pytest.approx(7.152062e-14, rel=1e-5, abs=0)

    def test_quadratic_slope(self, faraday_result):
        slope = loglog_slope(faraday_result.column("theta_f_ratio"), faraday_result.column("eta"))
        assert slope == pytest.approx(2.0, abs=0.02)

    def test_rows_carry_provenance(self, faraday_result):
        assert faraday_result.provenance["preset"] == "mnf2-easyaxis-20GHz"
        assert faraday_result.provenance["configuration"] == "with-optical-cavity"
        assert all(row[0] == "mnf2-easyaxis-20GHz" for row in faraday_result.rows)

    def test_etas_physical(self, faraday_result):
        eta = faraday_result.column("eta")
        assert np.all((eta >= 0) & (eta <= 1))

    def test_deterministic_and_byte_identical(self, faraday_result):
        again = faraday_sweep()
        assert again.rows == faraday_result.rows
        payload1 = render_csv(faraday_result.columns, faraday_result.rows, faraday_result.provenance)
        payload2 = render_csv(again.columns, again.rows, again.provenance)
        assert payload1 == payload2


class TestThicknessWithCavity:
    def test_interior_maximum(self, thickness_cavity_result):
        eta = thickness_cavity_result.column("eta")
        peak = int(np.argmax(eta))
        assert 0 < peak < len(eta) - 1
        assert eta[0] < eta[peak] and eta[-1] < eta[peak]

    def test_cooperativity_product_constant(self, thickness_cavity_result):
        product = thickness_cavity_result.column("c_em_beta") * thickness_cavity_result.column("c_om_beta")
        spread = (product.max() - product.min()) / product.min()
        assert spread < 1e-10

    def test_peak_sits_at_cooperativity_crossing(self, thickness_cavity_result):
        d = thickness_cavity_result.column("thickness_mm")
        eta = thickness_cavity_result.column("eta")
        peak = int(np.argmax(eta))
        ratio = thickness_cavity_result.column("c_om_beta")[peak] / thickness_cavity_result.column("c_em_beta")[peak]
        # at the grid peak the crossing is matched within one grid step
        step = d[peak + 1] / d[peak]
        assert 1.0 / step**2 <= ratio <= step**2

    def test_deep_asymptotes_follow_squared_amplitude(self):
        # with the constant cooperativity product, eta = const/(1+C_om+C_em)^2,
        # so the efficiency rolls off with slope +-2 wherever one
        # cooperativity dominates; the +-1 slopes belong to the amplitude
        spec = SweepSpec(
            preset="mnf2-easyaxis-20GHz", variable=SweepVariable.THICKNESS,
            lo=1e-13, hi=1e6, count=191,
        )
        res = thickness_sweep_with_cavity(spec)
        d = res.column("thickness_mm")
        eta = res.column("eta")
        deep_small = res.column("c_om_beta") > 100.0
        deep_large = res.column("c_em_beta") > 100.0
        assert loglog_slope(d[deep_small], eta[deep_small]) == pytest.approx(2.0, abs=0.01)
        assert loglog_slope(d[deep_large], eta[deep_large]) == pytest.approx(-2.0, abs=0.01)
        amplitude = np.sqrt(eta)
        assert loglog_slope(d[deep_small], amplitude[deep_small]) == pytest.approx(1.0, abs=0.005)
        assert loglog_slope(d[deep_large], amplitude[deep_large]) == pytest.approx(-1.0, abs=0.005)


class TestThicknessWithoutCavity:
    def test_strictly_increasing(self, thickness_nocavity_result):
        eta = thickness_nocavity_result.column("eta")
        assert np.all(np.diff(eta) > 0)

    def test_reference_point(self, thickness_nocavity_result):
        d = thickness_nocavity_result.column("thickness_mm")
        eta = thickness_nocavity_result.column("eta")
        idx = int(np.argmin(np.abs(d - 1e-3)))
        assert d[idx] == pytest.approx(1e-3, rel=1e-9)
        assert eta[idx] == pytest.approx(9.4289e-20, rel=1e-4, abs=0)

    def test_halving_thickness_quarters_eta(self):
        spec = SweepSpec(
            preset="mnf2-nocavity-20GHz", variable=SweepVariable.THICKNESS,
            lo=5e-4, hi=1e-3, count=2,
        )
        res = thickness_sweep_without_cavity(spec)
        eta = res.column("eta")
        assert eta[1] / eta[0] == pytest.approx(4.0, rel=0.02)

    def test_quadratic_slope_in_small_cooperativity_regime(self, thickness_nocavity_result):
        d = thickness_nocavity_result.column("thickness_mm")
        eta = thickness_nocavity_result.column("eta")
        c_em = thickness_nocavity_result.column("c_em_beta")
        mask = c_em < 0.01
        slope = loglog_slope(d[mask], eta[mask])
        assert slope == pytest.approx(2.0, abs=0.02)

    def test_validity_flag_and_cap(self, thickness_nocavity_result):
        d = thickness_nocavity_result.column("thickness_mm")
        ok = thickness_nocavity_result.column("thin_sample_ok").astype(bool)
        cap = thickness_nocavity_result.provenance["thin_sample_cap_mm"]
        assert cap == pytest.approx(0.2387, rel=0.01)
        assert np.array_equal(ok, d <= cap * (1 + 1e-12))
        assert ok.any() and (~ok).any()


class TestOptimalThickness:
    def test_location_and_matching(self):
        best = find_optimal_thickness()
        # crossing of the pipeline cooperativities: 1.19388e-3 mm
        assert best.thickness * 1e3 == pytest.approx(1.193879e-3, rel=2e-3)
        assert 5e-7 <= best.thickness <= 5e-6  # 5e-4 .. 5e-3 mm
        assert best.cooperativity_ratio == pytest.approx(1.0, abs=0.01)
        assert best.log_eta_second_difference < 0.0

    def test_reproducible_to_three_figures(self):
        a = find_optimal_thickness()
        b = find_optimal_thickness()
        assert a.thickness == b.thickness  # deterministic algorithm

    def test_rate_rescaling_leaves_optimum(self):
        preset = get_preset("mnf2-easyaxis-20GHz")
        scaled = dataclasses.replace(
            preset,
            cavity=dataclasses.replace(
                preset.cavity,
                kappa_ee=preset.cavity.kappa_ee * 3.0,
                kappa_ei=preset.cavity.kappa_ei * 3.0,
                kappa_oe=preset.cavity.kappa_oe * 3.0,
                kappa_oi=preset.cavity.kappa_oi * 3.0,
            ),
            gamma_alpha=preset.gamma_alpha * 3.0,
            gamma_beta=preset.gamma_beta * 3.0,
        )
        base = find_optimal_thickness()
        moved = find_optimal_thickness(preset=scaled)
        assert moved.thickness == pytest.approx(base.thickness, rel=5e-3)

    def test_boundary_maximum_reported(self):
        with pytest.raises(ValueError, match="boundary"):
            find_optimal_thickness(lo_mm=10.0, hi_mm=100.0)

    def test_crossing_meets_fine_tolerance(self):
        best = find_optimal_thickness(rel_tol=1e-9)
        assert abs(best.cooperativity_ratio - 1.0) <= 1e-9

    @pytest.mark.parametrize("preset", ["mnf2-degenerate-250GHz", "mnf2-nocavity-20GHz"])
    def test_rejects_preset_without_lower_mode_crossing(self, preset):
        with pytest.raises(ConfigError):
            find_optimal_thickness(preset)


class TestDetuningSweep:
    def test_peak_at_lock_point(self, detuning_result):
        det = detuning_result.column("probe_detuning_hz")
        eta = detuning_result.column("eta")
        assert det[int(np.argmax(eta))] == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_about_resonance(self, detuning_result):
        eta = detuning_result.column("eta")
        assert np.allclose(eta, eta[::-1], rtol=1e-9)

    def test_far_tail_vanishes(self, detuning_result):
        eta = detuning_result.column("eta")
        assert eta[0] < 1e-3 * eta.max()

    def test_fwhm_metadata(self, detuning_result):
        fwhm = detuning_result.provenance["fwhm_hz"]
        assert fwhm is not None and 1e7 < fwhm < 2e9


class TestHeterostructure:
    def test_single_layer_baseline(self, hetero_result):
        eta = hetero_result.column("eta")
        n = hetero_result.column("n_layers")
        assert n[0] == 1
        assert eta[0] == pytest.approx(7.183430e-10, rel=1e-5, abs=0.0)

    def test_headline_projection(self, hetero_result):
        eta = hetero_result.column("eta")
        n = hetero_result.column("n_layers")
        idx = int(np.argwhere(n == 5000)[0][0])
        assert 3e-3 < eta[idx] < 3e-2

    def test_ten_layers_hundredfold(self, hetero_result):
        eta = hetero_result.column("eta")
        n = hetero_result.column("n_layers")
        idx = int(np.argwhere(n == 10)[0][0])
        assert eta[idx] / eta[0] == pytest.approx(100.0, rel=0.01)

    def test_rejects_bad_layer_count(self):
        with pytest.raises(ValueError):
            heterostructure_projection(n_layers=[0, 5])


class TestSpecValidation:
    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            SweepSpec(preset="x", variable=SweepVariable.THICKNESS, lo=1.0, hi=0.1, count=5)
        with pytest.raises(ValueError):
            SweepSpec(preset="x", variable=SweepVariable.THICKNESS, lo=0.1, hi=1.0, count=1)
        with pytest.raises(ValueError):
            SweepSpec(preset="x", variable=SweepVariable.THICKNESS, lo=-1.0, hi=1.0,
                      count=5, scale="log")

    def test_row_count_matches_request(self):
        spec = SweepSpec(
            preset="mnf2-easyaxis-20GHz", variable=SweepVariable.FARADAY_ANGLE,
            lo=0.1, hi=1.0, count=7,
        )
        assert len(faraday_sweep(spec)) == 7


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, run", [
    ("faraday_angle.csv", faraday_sweep),
    ("thickness_with_cavity.csv", thickness_sweep_with_cavity),
    ("thickness_no_cavity.csv", thickness_sweep_without_cavity),
    ("heterostructure.csv", heterostructure_projection),
    ("detuning_response.csv", lambda: detuning_sweep(SweepSpec(
        preset="mnf2-easyaxis-20GHz", variable=SweepVariable.PROBE_DETUNING,
        lo=-2e9, hi=2e9, count=401, scale="linear",
    ))),
])
def test_default_sweeps_match_goldens(name, run):
    # the CSVs scripts/reproduce_sweeps.py writes; a moved digit is a finding
    # to report, never a reason to regenerate the file
    result = run()
    payload = render_csv(result.columns, result.rows, result.provenance)
    assert payload == (GOLDEN / name).read_bytes()
