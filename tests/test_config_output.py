"""Config parsing, preset resolution, deterministic emission."""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afm_transducer.config import (
    _PARSERS,
    _STRUCTURAL_KEYS,
    Command,
    load_config,
    resolve_preset,
)
from afm_transducer.constants import angular
from afm_transducer.errors import ConfigError
from afm_transducer.output import format_float, render_csv, render_json
from afm_transducer.presets import PRESET_NAMES, assemble, get_preset
from afm_transducer.sweeps import SweepVariable

README = Path(__file__).resolve().parent.parent / "README.md"


class TestFormatFloat:
    def test_zero_contract(self):
        assert format_float(0.0) == "0.000000000000e0"

    def test_small_positive(self):
        assert format_float(7e-10) == "7.000000000000e-10"

    def test_unit_value(self):
        assert format_float(1.0) == "1.000000000000e0"

    def test_negative_value(self):
        assert format_float(-2.5e9) == "-2.500000000000e9"

    def test_twelve_fractional_digits(self):
        s = format_float(1.2345678901234567e-3)
        mantissa = s.split("e")[0]
        assert len(mantissa.split(".")[1]) == 12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-1e30, max_value=1e30, allow_nan=False))
    def test_lowercase_and_parseable(self, x):
        s = format_float(x)
        assert "E" not in s and "+" not in s
        assert float(s) == pytest.approx(x, rel=1e-11, abs=1e-300)

    def test_non_finite_values_parse_back(self):
        assert [format_float(x) for x in (math.nan, math.inf, -math.inf)] == ["nan", "inf", "-inf"]
        assert math.isnan(float(format_float(math.nan)))
        assert float(format_float(-math.inf)) == -math.inf

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    def test_column_equals_value_by_value(self, values):
        # the exponent compaction over a joined column is the per-value rule
        def reference(x):
            mantissa, _, exponent = f"{x:.12e}".partition("e")
            sign = "-" if exponent.startswith("-") else ""
            return f"{mantissa}e{sign}{exponent.lstrip('+-').lstrip('0') or '0'}"

        rows = [(x,) for x in values]
        lines = render_csv(("x",), rows, {}).decode().split("\n")
        assert lines[1:-1] == [reference(x) for x in values]


class TestEmission:
    COLUMNS = ("name", "value", "flag")
    ROWS = (("a", 0.0, True), ("b", 7e-10, False))
    PROV = {"preset": "demo", "code_version": "0.1.0"}

    def test_csv_layout(self):
        payload = render_csv(self.COLUMNS, self.ROWS, self.PROV).decode()
        lines = payload.strip().split("\n")
        assert lines[0] == "# preset = demo"
        assert lines[2] == "name,value,flag"
        assert lines[3] == "a,0.000000000000e0,true"
        assert lines[4] == "b,7.000000000000e-10,false"

    def test_non_finite_cells(self):
        rows = (("a", math.nan, 1.0), ("b", math.inf, -math.inf))
        lines = render_csv(("name", "x", "y"), rows, {}).decode().strip().split("\n")
        assert lines[1:] == ["a,nan,1.000000000000e0", "b,inf,-inf"]

    def test_equal_values_of_other_types_render_apart(self):
        rows = ((True, 1, 1.0), (1, 1.0, True), (1.0, True, 1), (True, True, 1))
        lines = render_csv(("a", "b", "c"), rows, {}).decode().strip().split("\n")
        assert lines[1:] == [
            "true,1,1.000000000000e0",
            "1,1.000000000000e0,true",
            "1.000000000000e0,true,1",
            "true,true,1",
        ]

    def test_byte_identical_reruns(self):
        first = render_csv(self.COLUMNS, self.ROWS, self.PROV)
        second = render_csv(self.COLUMNS, self.ROWS, self.PROV)
        assert first == second

    def test_json_round_trip(self):
        payload = render_json(self.COLUMNS, self.ROWS, self.PROV)
        parsed = json.loads(payload)
        assert parsed["columns"] == list(self.COLUMNS)
        assert parsed["rows"] == [list(r) for r in self.ROWS]
        assert parsed["provenance"] == self.PROV
        assert render_json(parsed["columns"], parsed["rows"], parsed["provenance"]) == payload


class TestLoadConfig:
    def test_minimal(self):
        cfg = load_config("preset = mnf2-easyaxis-20GHz\ncommand = efficiency\n")
        assert cfg.command is Command.EFFICIENCY
        assert cfg.preset_name == "mnf2-easyaxis-20GHz"
        assert cfg.overrides == {}

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\npreset = yig-reference  # trailing\ncommand = modes\n"
        cfg = load_config(text)
        assert cfg.preset_name == "yig-reference"

    def test_unit_suffixes(self):
        text = (
            "preset = mnf2-easyaxis-20GHz\ncommand = efficiency\n"
            "omega_e_hz = 20 GHz\ngamma_beta_hz = 100 MHz\n"
            "omega_exchange_hz = 9.3 THz\nkappa_ee_hz = 25 mHz\n"
        )
        cfg = load_config(text)
        assert cfg.overrides["omega_e_hz"] == 2e10
        assert cfg.overrides["gamma_beta_hz"] == 1e8
        assert cfg.overrides["omega_exchange_hz"] == 9.3e12
        assert cfg.overrides["kappa_ee_hz"] == 0.025

    def test_negative_frequency_rejected_with_line(self):
        text = "preset = mnf2-easyaxis-20GHz\ncommand = modes\nomega_e_hz = -5 GHz\n"
        with pytest.raises(ConfigError) as err:
            load_config(text)
        assert err.value.line == 3
        assert "non-negative" in str(err.value)

    def test_signed_detuning_allowed(self):
        text = (
            "preset = mnf2-easyaxis-20GHz\ncommand = efficiency\n"
            "delta_omega_o_hz = -20 GHz\n"
        )
        cfg = load_config(text)
        assert cfg.overrides["delta_omega_o_hz"] == -2e10

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            load_config("preset = yig-reference\ncommand = modes\nbogus = 1\n")
        assert err.value.line == 3
        assert "unknown key" in str(err.value)

    def test_missing_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            load_config("command = modes\n")

    def test_missing_command(self):
        with pytest.raises(ConfigError, match="command"):
            load_config("preset = yig-reference\n")

    def test_bad_command_and_format(self):
        with pytest.raises(ConfigError, match="unknown command"):
            load_config("preset = yig-reference\ncommand = destroy\n")
        with pytest.raises(ConfigError, match="format"):
            load_config("preset = yig-reference\ncommand = modes\nformat = xml\n")

    def test_malformed_assignment(self):
        with pytest.raises(ConfigError) as err:
            load_config("preset mnf2\n")
        assert err.value.line == 1

    def test_cli_command_takes_precedence(self):
        cfg = load_config("preset = yig-reference\ncommand = modes\n",
                          command=Command.SWEEP)
        assert cfg.command is Command.SWEEP

    def test_set_overrides_and_provenance(self):
        cfg = load_config(
            "preset = mnf2-easyaxis-20GHz\ncommand = efficiency\ngamma_beta_hz = 1e8\n",
            extra_sets=["gamma_beta_hz=2e8", "n_cav=1e5"],
        )
        assert cfg.overrides["gamma_beta_hz"] == 2e8
        assert cfg.provenance["gamma_beta_hz"] == "--set"
        assert cfg.provenance["n_cav"] == "--set"

    def test_sweep_block(self):
        text = (
            "preset = mnf2-easyaxis-20GHz\ncommand = sweep\n"
            "sweep_variable = faraday-angle\nsweep_lo = 0.01\nsweep_hi = 1\n"
            "sweep_count = 21\nsweep_scale = log\n"
        )
        spec = load_config(text).sweep_spec()
        assert spec.count == 21 and spec.scale == "log"

    def test_sweep_block_missing_field(self):
        text = (
            "preset = mnf2-easyaxis-20GHz\ncommand = sweep\n"
            "sweep_variable = thickness\nsweep_lo = 1e-6\nsweep_hi = 1\n"
        )
        with pytest.raises(ConfigError, match="sweep_count"):
            load_config(text).sweep_spec()


class TestResolvePreset:
    def test_empty_override_returns_preset_verbatim(self):
        cfg = load_config("preset = mnf2-easyaxis-20GHz\ncommand = efficiency\n")
        resolved, origin = resolve_preset(cfg)
        assert resolved == get_preset("mnf2-easyaxis-20GHz")
        assert all(v.startswith("preset") for v in origin.values())

    def test_single_field_override(self):
        cfg = load_config(
            "preset = mnf2-easyaxis-20GHz\ncommand = efficiency\ngamma_beta_hz = 1e8\n"
        )
        resolved, origin = resolve_preset(cfg)
        reference = get_preset("mnf2-easyaxis-20GHz")
        assert resolved.gamma_beta == angular(1e8)
        assert origin["gamma_beta_hz"] == "line 3"
        # everything else identical
        assert resolved.cavity == reference.cavity
        assert resolved.material == reference.material
        assert resolved.geometry == reference.geometry
        assert resolved.omega_beta == reference.omega_beta

    def test_geometry_and_material_overrides(self):
        cfg = load_config(
            "preset = mnf2-nocavity-20GHz\ncommand = couplings\n"
            "thickness_mm = 0.002\nspin_density_per_mm3 = 2e19\nkappa_mo_beta = 0.3\n"
        )
        resolved, _ = resolve_preset(cfg)
        assert resolved.geometry.thickness == pytest.approx(2e-6)
        assert resolved.material.spin_density == pytest.approx(2e28)
        assert resolved.kappa_mo_override == (0.5, 0.3)

    def test_unknown_preset(self):
        cfg = load_config("preset = nonexistent\ncommand = modes\n")
        with pytest.raises(KeyError, match="nonexistent"):
            resolve_preset(cfg)


class TestPresetCatalog:
    def test_all_presets_load_and_assemble(self):
        assert set(PRESET_NAMES) == {
            "mnf2-easyaxis-20GHz", "mnf2-degenerate-250GHz",
            "mnf2-nocavity-20GHz", "yig-reference",
        }
        for name in PRESET_NAMES:
            assembled = assemble(get_preset(name))
            assert assembled.probe > 0
            assert assembled.system.kappa_e > 0

    def test_degenerate_preset_carries_quoted_couplings(self):
        assembled = assemble(get_preset("mnf2-degenerate-250GHz"))
        assert assembled.couplings.g_beta == pytest.approx(angular(10e6))
        assert assembled.couplings.zeta_alpha == pytest.approx(angular(50e3))
        assert assembled.couplings.zeta_beta == pytest.approx(angular(40e3))
        assert assembled.field_sources["g"] == "override"

    def test_nocavity_preset_uses_thickness_law(self):
        assembled = assemble(get_preset("mnf2-nocavity-20GHz"))
        assert assembled.field_sources["xi"] == "thickness-law"
        from afm_transducer.constants import ordinary

        assert ordinary(assembled.couplings.xi_beta) == pytest.approx(2.1e-7, rel=1e-9)


class TestReadmeSchema:
    """README's config-schema section lists exactly the keys and sweep variables accepted."""

    @pytest.fixture(scope="class")
    def section(self):
        text = README.read_text(encoding="utf-8")
        return re.split(r"\n#{2,3} ", text.split("### Config schema", 1)[1], maxsplit=1)[0]

    def test_key_lists_match_schema(self, section):
        keys = set()
        for paragraph in section.split("\n\n"):
            paragraph = " ".join(paragraph.split())
            # "Label: `key`, `key` (`option`, ...)": the key lists, options dropped
            if re.match(r"[A-Z][\w /]*: `", paragraph):
                keys.update(re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", paragraph)))
        assert keys == set(_PARSERS) | set(_STRUCTURAL_KEYS)

    def test_sweep_variables_match_schema(self, section):
        variables = {v.value for v in SweepVariable}
        table_rows = re.findall(r"^\| `([^`]+)` +\|", section, flags=re.M)
        assert sorted(table_rows) == sorted(variables)
        options = re.search(r"`sweep_variable` \(([^)]*)\)", " ".join(section.split()))
        assert set(re.findall(r"`([^`]+)`", options.group(1))) == variables
