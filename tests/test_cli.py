"""Command-line surface: commands, exit codes, artifacts."""

import json
import math

import pytest

from afm_transducer.cli import main
from afm_transducer.config import _PARSERS
from afm_transducer.presets import get_preset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().split("\n") if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return rows


class TestEfficiencyCommand:
    def test_headline_value(self, capsys):
        code, out, _ = run_cli(capsys, "efficiency", "--preset", "mnf2-easyaxis-20GHz")
        assert code == 0
        row = parse_csv(out)[0]
        assert 3e-10 < float(row["eta"]) < 3e-9
        assert row["preset"] == "mnf2-easyaxis-20GHz"

    def test_config_file_with_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "preset = mnf2-easyaxis-20GHz\ncommand = efficiency\n"
            "gamma_beta_hz = 1e9\n"
        )
        code, out, _ = run_cli(capsys, "efficiency", "--config", str(cfg))
        assert code == 0
        # both cooperativities fall as 1/gamma, so tenfold linewidth
        # costs two orders of magnitude
        assert float(parse_csv(out)[0]["eta"]) == pytest.approx(7.15e-12, rel=0.01)

    def test_output_file_and_json(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "efficiency", "--preset", "mnf2-nocavity-20GHz",
            "--format", "json", "--output", str(out_path),
        )
        assert code == 0 and out == ""
        payload = json.loads(out_path.read_bytes())
        eta = payload["rows"][0][payload["columns"].index("eta")]
        assert 3e-20 < eta < 3e-19


class TestModesCommand:
    def test_zero_field_degenerate(self, capsys):
        code, out, _ = run_cli(capsys, "modes", "--preset", "mnf2-easyaxis-20GHz")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["omega_alpha_hz"] == row["omega_beta_hz"]
        assert float(row["omega_alpha_hz"]) == pytest.approx(1.6703e12, rel=1e-4)
        assert float(row["kappa_alpha_effective"]) == 0.5

    def test_spin_flop_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "modes", "--preset", "mnf2-easyaxis-20GHz", "--set", "b0_t=100",
        )
        assert code == 3
        error = json.loads(err)
        assert error["error"] == "SpinFlopError"


class TestCouplingsCommand:
    def test_pipeline_values(self, capsys):
        code, out, _ = run_cli(capsys, "couplings", "--preset", "mnf2-easyaxis-20GHz")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["g_beta_hz"]) == pytest.approx(3.35e6, rel=1e-3)
        assert float(row["zeta_beta_hz"]) == pytest.approx(40e3, rel=1e-9)


class TestSweepCommand:
    def test_faraday_endpoints(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "preset = mnf2-easyaxis-20GHz\ncommand = sweep\n"
            "sweep_variable = faraday-angle\nsweep_lo = 0.01\nsweep_hi = 1\n"
            "sweep_count = 41\n"
        )
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), "--output", str(out_path)
        )
        assert code == 0
        rows = parse_csv(out_path.read_text())
        assert len(rows) == 41
        assert 3e-14 < float(rows[0]["eta"]) < 3e-13
        assert 3e-10 < float(rows[-1]["eta"]) < 3e-9

    def test_nearly_lossless_detuning_warning(self, capsys, tmp_path):
        # every rate at 1 mHz leaves one point, on resonance, above cond 1e12
        rates = ("kappa_ee_hz", "kappa_ei_hz", "kappa_oe_hz", "kappa_oi_hz",
                 "gamma_alpha_hz", "gamma_beta_hz")
        argv = ["sweep", "--preset", "mnf2-easyaxis-20GHz", "--output", str(tmp_path / "d.csv")]
        for assignment in (
            "sweep_variable=probe-detuning", "sweep_lo=-2e9", "sweep_hi=2e9",
            "sweep_count=4001", "sweep_scale=linear", *(f"{k}=1 mHz" for k in rates),
        ):
            argv += ["--set", assignment]
        with pytest.warns(UserWarning) as caught:
            code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert [str(w.message) for w in caught] == [
            "linear system is ill-conditioned at 1 of 4001 points (worst cond ~ 2.30e+14 "
            "at point 2000 (omega = 1.25664e+11 rad/s)); results may lose precision"
        ]

    def test_rerun_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "preset = mnf2-nocavity-20GHz\ncommand = sweep\n"
            "sweep_variable = thickness\nsweep_lo = 1e-5\nsweep_hi = 1e-3\n"
            "sweep_count = 11\n"
        )
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(capsys, "sweep", "--config", str(cfg), "--output", str(first))[0] == 0
        assert run_cli(capsys, "sweep", "--config", str(cfg), "--output", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_sweep_without_block_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--preset", "mnf2-easyaxis-20GHz")
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"


class TestValidateCommand:
    @pytest.mark.parametrize("preset", [
        "mnf2-easyaxis-20GHz", "mnf2-degenerate-250GHz", "mnf2-nocavity-20GHz",
    ])
    def test_presets_pass(self, capsys, preset):
        code, out, _ = run_cli(capsys, "validate", "--preset", preset)
        assert code == 0
        assert all(row["passed"] == "true" for row in parse_csv(out))

    def test_invariant_failure_exits_4(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--preset", "mnf2-easyaxis-20GHz", "--set", "b0_t=100",
        )
        assert code == 4
        rows = parse_csv(out)
        failed = [r for r in rows if r["passed"] == "false"]
        assert any("spin-flop" in r["check"] for r in failed)


class TestErrorPaths:
    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "efficiency", "--preset", "bogus")
        assert code == 2
        assert "bogus" in json.loads(err)["message"]

    def test_config_error_carries_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("preset = mnf2-easyaxis-20GHz\ngamma_beta_hz = -1 GHz\n")
        code, _, err = run_cli(capsys, "efficiency", "--config", str(cfg))
        assert code == 2
        assert json.loads(err)["line"] == 2

    def test_missing_inputs(self, capsys):
        code, _, err = run_cli(capsys, "efficiency")
        assert code == 2
        assert "either --config or --preset" in json.loads(err)["message"]

    @pytest.mark.parametrize("key", ["gamma_alpha_hz", "gamma_beta_hz"])
    @pytest.mark.parametrize("preset", ["mnf2-easyaxis-20GHz", "mnf2-degenerate-250GHz",
                                        "mnf2-nocavity-20GHz"])
    @pytest.mark.parametrize("command", ["efficiency", "validate", "sweep"])
    def test_zero_magnon_linewidth_rejected(self, capsys, command, preset, key):
        argv = [command, "--preset", preset, "--set", f"{key}=0 MHz"]
        if command == "sweep":
            argv += ["--set", "sweep_variable=probe-detuning", "--set", "sweep_lo=-1e9",
                     "--set", "sweep_hi=1e9", "--set", "sweep_count=5"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ConfigError" and error["exit_code"] == 2
        assert error["message"] == f"frequency {key!r} must be > 0, got '0 MHz'"


OVERRIDE = "gamma_beta_hz=37 MHz"


def sweep_rows(capsys, preset, sets):
    argv = ["sweep", "--preset", preset]
    for assignment in sets:
        argv += ["--set", assignment]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return parse_csv(out)


class TestSweepOverrides:
    @pytest.mark.parametrize("preset, sweep_sets", [
        ("mnf2-easyaxis-20GHz", ["sweep_variable=faraday-angle", "sweep_lo=0.01",
                                 "sweep_hi=1", "sweep_count=7"]),
        ("mnf2-easyaxis-20GHz", ["sweep_variable=thickness", "sweep_lo=1e-6",
                                 "sweep_hi=10", "sweep_count=9"]),
        ("mnf2-nocavity-20GHz", ["sweep_variable=thickness", "sweep_lo=1e-6",
                                 "sweep_hi=1", "sweep_count=9"]),
        ("mnf2-easyaxis-20GHz", ["sweep_variable=layer-count", "sweep_lo=1",
                                 "sweep_hi=5000", "sweep_count=8"]),
    ])
    def test_rows_follow_resolved_rates(self, capsys, preset, sweep_sets):
        plain = sweep_rows(capsys, preset, sweep_sets)
        rows = sweep_rows(capsys, preset, sweep_sets + [OVERRIDE])
        assert len(rows) == len(plain)
        assert all(row["eta"] != old["eta"] for row, old in zip(rows, plain))
        cavity = get_preset(preset).cavity
        kappa_e = cavity.kappa_ee + cavity.kappa_ei
        gamma_beta = 2.0 * math.pi * 37e6
        for row in rows:
            g = 2.0 * math.pi * float(row["g_beta_hz"])
            expected = 4.0 * g * g / (kappa_e * gamma_beta)
            assert float(row["c_em_beta"]) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("assignment", [
        "n_cav=3e6", "g0_slope_mhz_per_sqrt_ghz=0.05", "cross_section_mm2=0.02",
        "spin_density_per_mm3=2e19", "kappa_mo_beta=0.3", "omega_exchange_hz=8 THz",
        "layer_count=7",
    ])
    def test_thickness_row_matches_efficiency(self, capsys, assignment):
        # the grid starts at the preset's own thickness, 0.1 mm
        preset = "mnf2-easyaxis-20GHz"
        sweep_sets = ["sweep_variable=thickness", "sweep_lo=0.1", "sweep_hi=1",
                      "sweep_count=3", "sweep_scale=linear"]
        row = sweep_rows(capsys, preset, sweep_sets + [assignment])[0]
        code, out, _ = run_cli(capsys, "efficiency", "--preset", preset, "--set", assignment)
        assert code == 0
        expected = parse_csv(out)[0]
        for column in ("eta", "c_em_beta", "c_om_beta"):
            want = float(expected[column])
            assert abs(float(row[column]) - want) <= 1e-12 * want, column

    def test_detuning_zero_matches_efficiency(self, capsys):
        preset = "mnf2-easyaxis-20GHz"
        sweep_sets = ["sweep_variable=probe-detuning", "sweep_lo=-1e9", "sweep_hi=1e9",
                      "sweep_count=5", "sweep_scale=linear"]
        plain = sweep_rows(capsys, preset, sweep_sets)
        rows = sweep_rows(capsys, preset, sweep_sets + [OVERRIDE])
        code, out, _ = run_cli(capsys, "efficiency", "--preset", preset, "--set", OVERRIDE)
        assert code == 0
        at_zero = [i for i, row in enumerate(rows) if float(row["probe_detuning_hz"]) == 0.0]
        assert len(at_zero) == 1
        assert rows[at_zero[0]]["eta"] == parse_csv(out)[0]["eta"]
        assert rows[at_zero[0]]["eta"] != plain[at_zero[0]]["eta"]


class TestSweepVariableConfiguration:
    @pytest.mark.parametrize("preset, variable, configuration", [
        ("mnf2-nocavity-20GHz", "faraday-angle", "without-optical-cavity"),
        ("mnf2-nocavity-20GHz", "layer-count", "without-optical-cavity"),
    ])
    def test_variable_rejected_on_configuration(self, capsys, preset, variable, configuration):
        code, out, err = run_cli(
            capsys, "sweep", "--preset", preset, "--set", f"sweep_variable={variable}",
            "--set", "sweep_lo=1", "--set", "sweep_hi=10", "--set", "sweep_count=3",
        )
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert variable in error["message"] and configuration in error["message"]

    @pytest.mark.parametrize("variable, key, value", [
        ("thickness", "thickness_mm", "0.2"),
        ("layer-count", "thickness_mm", "0.2"),
        ("layer-count", "layer_count", "3"),
    ])
    def test_swept_key_rejected(self, capsys, variable, key, value):
        code, out, err = run_cli(
            capsys, "sweep", "--preset", "mnf2-easyaxis-20GHz", "--set", f"sweep_variable={variable}",
            "--set", "sweep_lo=1", "--set", "sweep_hi=10", "--set", "sweep_count=3",
            "--set", f"{key}={value}",
        )
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert key in error["message"] and variable in error["message"]

    def test_thickness_rejected_on_pinned_couplings(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--preset", "mnf2-degenerate-250GHz", "--set", "sweep_variable=thickness",
            "--set", "sweep_lo=1e-3", "--set", "sweep_hi=1", "--set", "sweep_count=3",
        )
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert "thickness" in error["message"] and "mnf2-degenerate-250GHz" in error["message"]

    def test_layer_count_reports_requested_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--preset", "mnf2-easyaxis-20GHz", "--set", "sweep_variable=layer-count",
            "--set", "sweep_lo=1", "--set", "sweep_hi=5000", "--set", "sweep_count=15",
            "--set", "sweep_scale=log",
        )
        assert code == 0
        assert "# scale = log\n" in out and "# count = 15\n" in out


EASY = "mnf2-easyaxis-20GHz"
DEGENERATE = "mnf2-degenerate-250GHz"
# `sweep` runs only with a sweep block; each sweep_* probe overrides one entry of it
SWEEP_BLOCK = ("sweep_variable=thickness", "sweep_lo=1e-3", "sweep_hi=1", "sweep_count=5")

# key -> (command, preset, value, companion --set or None): a run on which the key acts
KEY_PROBES = {
    "omega_e_hz": ("efficiency", EASY, "21 GHz", None),
    "kappa_ee_hz": ("efficiency", EASY, "250 MHz", None),
    "kappa_ei_hz": ("efficiency", EASY, "250 MHz", None),
    "kappa_oe_hz": ("efficiency", EASY, "250 MHz", None),
    "kappa_oi_hz": ("efficiency", EASY, "250 MHz", None),
    "delta_omega_o_hz": ("efficiency", EASY, "-19 GHz", None),
    "n_cav": ("couplings", EASY, "3e6", None),
    "g0_slope_mhz_per_sqrt_ghz": ("couplings", EASY, "0.05", None),
    "omega_alpha_hz": ("efficiency", DEGENERATE, "249 GHz", None),
    "omega_beta_hz": ("efficiency", EASY, "19.9 GHz", None),
    "gamma_alpha_hz": ("efficiency", DEGENERATE, "500 MHz", None),
    "gamma_beta_hz": ("efficiency", EASY, "37 MHz", None),
    "omega_exchange_hz": ("modes", EASY, "8 THz", None),
    "omega_easyaxis_hz": ("modes", EASY, "0.2 THz", None),
    "omega_hardaxis_hz": ("validate", DEGENERATE, "0.01 THz", None),
    "gyro_hz_per_t": ("modes", EASY, "30 GHz", "b0_t=1"),
    "spin_density_per_mm3": ("couplings", EASY, "2e19", None),
    "asymmetry_k": ("modes", EASY, "0.01", None),
    "kappa_mo_alpha": ("couplings", EASY, "0.3", None),
    "kappa_mo_beta": ("couplings", EASY, "0.3", None),
    "thickness_mm": ("couplings", EASY, "0.01", None),
    "cross_section_mm2": ("couplings", EASY, "0.02", None),
    "layer_count": ("couplings", EASY, "7", None),
    "b0_t": ("modes", EASY, "1", None),
    "sweep_variable": ("sweep", EASY, "probe-detuning", None),
    "sweep_lo": ("sweep", EASY, "1e-2", None),
    "sweep_hi": ("sweep", EASY, "10", None),
    "sweep_count": ("sweep", EASY, "7", None),
    "sweep_scale": ("sweep", EASY, "linear", None),
}


class TestEveryKeyActs:
    @pytest.mark.parametrize("key", sorted(_PARSERS))
    def test_key_changes_output_or_is_rejected(self, capsys, key):
        assert key in KEY_PROBES, f"accepted key {key!r} has no run on which it acts"
        command, preset, value, companion = KEY_PROBES[key]
        sets = list(SWEEP_BLOCK) if command == "sweep" else []
        if companion:
            sets.append(companion)
        argv = [command, "--preset", preset]
        for assignment in sets:
            argv += ["--set", assignment]
        code, plain, err = run_cli(capsys, *argv)
        assert code == 0, err
        code, out, _ = run_cli(capsys, *argv, "--set", f"{key}={value}")
        assert code == 2 or (code == 0 and out != plain)
