import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rfsense.dataset
import rfsense.fieldmetrics
import rfsense.linkbudget
import rfsense.quantities
import rfsense.radar
import rfsense.radiometry
import rfsense.rydberg
from rfsense.cli import (
    OPERATION_MAP, build_parser, format_number, main, render_json, render_report,
)
from rfsense.errors import DomainError

GOLDEN_DIR = Path(__file__).parent / "golden"

BUDGET_ARGS = [
    "budget", "--tx-power", "20dbw", "--tx-gain", "45dbi",
    "--tx-feeder-loss", "2db", "--loss", "fsl=206.5db", "--loss", "atm=2db",
    "--loss", "rain=3db", "--loss", "other=1db", "--rx-gain", "50dbi",
    "--antenna-temp", "100", "--receiver-temp", "100",
    "--feeder-loss-linear", "1.5", "--data-rate", "1e8",
    "--distance", "3.6e7m", "--frequency", "20ghz",
]
RANGES_ARGS = ["dataset-ranges", "--format", "csv"]
ENHANCE_ARGS = [
    "enhance", "--f0", "8.4ghz", "--signal-bandwidth", "1mhz",
    "--rf-efficiency", "0.8", "--mode-volume", "1e-5", "--tsys", "20",
    "--diameter", "34m", "--rho2", "1", "--sensor-nef", "1e-7",
]
# The same cavity as ENHANCE_ARGS given by Q_L = f0/B = 8.4 GHz / 1 MHz.
ENHANCE_Q_LOADED_ARGS = ENHANCE_ARGS[:3] + ["--q-loaded", "8400"] + ENHANCE_ARGS[5:]
DERIVE_ARGS = ["dataset-derive"]
DERIVE_CSV_ARGS = ["dataset-derive", "--format", "csv"]
PLOTDATA_ARGS = [
    "dataset-plotdata", "--thermal-line", "2.4e-8", "--marker", "probe:5mhz:1e-8",
]


@pytest.fixture(autouse=True)
def clean_impedance_env(monkeypatch):
    monkeypatch.delenv("RFSENSE_ETA0_OHMS", raising=False)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNumberFormatting:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0"),
            (-0.0, "0"),
            (1.0, "1"),
            (123.456789, "123.457"),
            (0.001, "0.001"),
            (0.0009999, "9.99900e-04"),
            (999999.4, "999999"),
            (1e6, "1.00000e+06"),
            (6.301404134174183e-07, "6.30140e-07"),
            (-42.5, "-42.5"),
        ],
    )
    def test_fixed_formatting(self, value, expected):
        assert format_number(value) == expected


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "argv,golden",
        [
            (BUDGET_ARGS, "budget.json"),
            (RANGES_ARGS, "dataset_ranges.csv"),
            (ENHANCE_ARGS, "enhance.json"),
            (ENHANCE_Q_LOADED_ARGS, "enhance.json"),
            (DERIVE_ARGS, "dataset_derive.json"),
            (DERIVE_CSV_ARGS, "dataset_derive.csv"),
            (PLOTDATA_ARGS, "dataset_plotdata.json"),
        ],
        ids=["budget", "dataset-ranges", "enhance", "enhance-q-loaded", "dataset-derive",
             "dataset-derive-csv", "dataset-plotdata"],
    )
    def test_byte_identical_across_runs_and_matches_golden(self, capsys, argv, golden):
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()
        assert out1.encode() == (GOLDEN_DIR / golden).read_bytes()

    def test_help_matches_golden(self, capsys):
        parser = build_parser()
        chunks = [parser.format_help()]
        for name in OPERATION_MAP:
            code, out, _ = run(capsys, [name, "--help"])
            assert code == 0
            chunks.append(out)
        combined = ("\n" + "=" * 80 + "\n").join(chunks)
        assert combined.encode() == (GOLDEN_DIR / "help.txt").read_bytes()

    def test_every_flag_help_mentions_units_or_kind(self):
        # Numeric flags must state their unit (or explicit dimensionlessness).
        parser = build_parser()
        unit_words = (
            "kelvin", "unit suffix", "db", "watt", "m^2", "m^3", "bit/s",
            "v/m", "rad/s", "dimensionless", "linear", "factor", "count",
            "significant digits", "tolerance", "constant", "cosine",
            "efficiency", "coupling", "quality", "c*m", "e*a_0",
        )
        for action in parser._subparsers._group_actions[0].choices.values():
            for flag_action in action._actions:
                if flag_action.type is None:
                    continue  # paths, store_true, choices
                text = (flag_action.help or "").lower()
                assert any(word in text for word in unit_words), (
                    f"flag {flag_action.option_strings} lacks a unit in help: {text!r}"
                )


class TestBudgetCommand:
    def test_reference_report_values(self, capsys):
        code, out, _ = run(capsys, BUDGET_ARGS)
        assert code == 0
        report = json.loads(out)
        assert report["eirp_dbw"] == 63
        assert report["total_loss_db"] == 212.5
        assert report["system_temperature_k"] == 395
        assert abs(report["g_over_t_db_per_k"] - 24.03) < 0.01
        assert abs(report["c_over_n0_dbhz"] - 103.13) < 0.01
        assert abs(report["eb_over_n0_db"] - 23.13) < 0.01
        assert abs(report["margins_db"]["qpsk_fec_1_2"] - 19.13) < 0.01
        assert report["closes"]["qpsk_fec_1_2"] is True
        assert report["fsl_check"]["flagged"] is True
        assert abs(report["fsl_check"]["recomputed_db"] - 209.6) < 0.1

    def test_budget_from_json_document(self, capsys, tmp_path):
        document = {
            "tx_power_dbw": 20.0,
            "tx_gain_dbi": 45.0,
            "tx_feeder_loss_db": 2.0,
            "losses_db": {"fsl": 206.5, "atm": 2.0, "rain": 3.0, "other": 1.0},
            "rx_gain_dbi": 50.0,
            "antenna_temp_k": 100.0,
            "receiver_temp_k": 100.0,
            "feeder_loss_linear": 1.5,
            "data_rate_bps": 1e8,
        }
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(document))
        code, out, _ = run(capsys, ["budget", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        assert abs(report["eb_over_n0_db"] - 23.13) < 0.01

    def test_malformed_budget_document_is_schema_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"tx_power_dbw": 20.0}))
        code, _, err = run(capsys, ["budget", "--input", str(path)])
        assert code == 3
        assert err.startswith("schema-error:")
        assert "\n" not in err.strip()

    def test_missing_flags_is_domain_error(self, capsys):
        code, _, err = run(capsys, ["budget", "--tx-power", "20dbw"])
        assert code == 2
        assert err.startswith("domain-error:")

    def test_dbm_suffix_converts_to_dbw(self, capsys):
        args = list(BUDGET_ARGS)
        args[args.index("20dbw")] = "50dbm"
        code, out, _ = run(capsys, args)
        assert code == 0
        assert json.loads(out)["eirp_dbw"] == 63


class TestExitCodesAndValidation:
    def test_non_positive_bandwidth_names_the_flag(self, capsys):
        code, _, err = run(capsys, [
            "nedt", "--antenna-temp", "250", "--receiver-temp", "600",
            "--bandwidth", "0hz", "--integration-time", "15ms",
        ])
        assert code == 2
        assert err.startswith("domain-error:")
        assert "--bandwidth" in err

    @pytest.mark.parametrize("marker,cause", [
        ("p:0hz:1e-8", "marker 'p' bandwidth must be finite and > 0, got 0.0"),
        ("p:1e7hz:-1e-8", "marker 'p' field must be finite and > 0, got -1e-08"),
    ], ids=["zero-bandwidth", "negative-field"])
    def test_non_positive_marker_is_one_domain_error_line(self, capsys, marker, cause):
        # The library's marker check is the only one; the flag parser checks the shape.
        code, out, err = run(capsys, ["dataset-plotdata", f"--marker={marker}"])
        assert (code, out) == (2, "")
        assert err == f"domain-error: {cause}\n"

    def test_missing_unit_suffix_rejected(self, capsys):
        code, _, err = run(capsys, [
            "nedt", "--antenna-temp", "250", "--receiver-temp", "600",
            "--bandwidth", "1e9", "--integration-time", "15ms",
        ])
        assert code == 2

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run(capsys, ["nedt", "--frobnicate", "1"])
        assert code == 2
        assert err.startswith("rfsense nedt: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["nedt", "--bandwidth", "1ghz", "--integration-time", "1s", "--frobnicate", "1"],
        ["no-such-subcommand"],
        ["radar", "--tx-power", "1", "--tx-gain", "4000dbi", "--rx-gain", "1lin",
         "--frequency", "1ghz", "--sigma", "1", "--range", "1km"],
    ])
    def test_usage_error_is_one_stderr_line(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("rfsense") and err.count("\n") == 1
        assert "error: " in err

    def test_unknown_db_reference_rejected(self, capsys):
        args = list(BUDGET_ARGS)
        args[args.index("20dbw")] = "20dbi"
        code, _, _ = run(capsys, args)
        assert code == 2

    def test_dataset_schema_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("instrument,mission\nx,y\n")
        code, _, err = run(capsys, ["dataset-derive", "--input", str(path)])
        assert code == 3
        assert err.startswith("schema-error:")

    def test_missing_input_file_is_schema_error(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "dataset-derive", "--input", str(tmp_path / "nope.csv")
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "points,named",
        [
            (["nan:1e-11", "300:3e-11"], "antenna_temperature_k"),
            (["-inf:1e-11", "300:3e-11"], "antenna_temperature_k"),
            (["77:inf", "300:3e-11"], "output_power_w"),
            (["77:nan", "300:3e-11"], "output_power_w"),
            (["77:1.063e-11", "1e308:1.243e-11"], "floating-point range"),
            (["1e200:3e-11", "3e200:1e-11"], "slope is non-positive"),
        ],
        ids=["nan-temperature", "minus-inf-temperature", "inf-power", "nan-power",
             "receiver-temperature-overflow", "falling-power-at-1e200-k"],
    )
    def test_non_finite_or_extreme_calibration_point_is_domain_error(
        self, capsys, points, named
    ):
        argv = ["calibrate", "--bandwidth", "1ghz"] + [f"--point={p}" for p in points]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("domain-error:") and err.count("\n") == 1
        assert named in err

    def test_no_subcommand_exits_nonzero(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


def _old_render_json_value(value, indent: int) -> str:
    """The recursive renderer ``render_json`` replaced: the reference output."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {_old_render_json_value(v, indent + 1)}"
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{_old_render_json_value(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise DomainError(f"cannot serialize {type(value).__name__}")


_TEXT = st.text(st.one_of(
    st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\ud800\U0001f600'),
))
_FINITE = st.one_of(
    st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300), st.sampled_from([0.0, -0.0]),
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FINITE, _TEXT)
_UNRENDERABLE = st.sampled_from([math.nan, math.inf, -math.inf, b"x", frozenset(), 1j])


def _trees(leaves):
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(_TEXT, st.integers(), st.booleans(), st.floats()), children, max_size=4
        ),
    ), max_leaves=25)


class TestRenderJson:
    @settings(max_examples=150, deadline=None)
    @given(_trees(_SCALARS))
    @example({"1": None, 1: "a", "k": [{0: 1.5, "0": True}, (), {}]})
    # Equal, equal-hash keys whose str() differs: a key-order memo must not mix them up.
    @example([{1: 0}, {True: 0}, {1.0: 0}, {1: 0, "b": 0}, {True: 0, "b": 0}])
    def test_matches_the_recursive_renderer(self, payload):
        assert render_json(payload) == _old_render_json_value(payload, 0) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(_trees(st.one_of(_SCALARS, _UNRENDERABLE)), _UNRENDERABLE)
    def test_unrenderable_values_raise_the_same_error(self, tree, bad):
        payload = {"a": tree, "b": [tree, {"c": bad}]}
        with pytest.raises(DomainError) as expected:
            _old_render_json_value(payload, 0)
        with pytest.raises(DomainError) as actual:
            render_json(payload)
        assert str(actual.value) == str(expected.value)

    @pytest.mark.parametrize("record", [
        rfsense.dataset.Diagnostic(3, "probe", "bad cell"),
        rfsense.linkbudget.FslCheck(206.5, 207.0, 0.5, False),
    ])
    def test_a_record_is_not_rendered_as_a_container(self, record):
        with pytest.raises(DomainError) as caught:
            render_json({"x": [record]})
        assert str(caught.value) == f"cannot serialize {type(record).__name__}"
        # The text and CSV reports print a stray record as one cell, never item by item.
        assert render_report({"x": record}, "text") == f"x = {record}\n"
        assert render_report({"x": [record]}, "text") == f"x[0] = {record}\n"


class TestSubcommands:
    def test_nedt_forward(self, capsys):
        code, out, _ = run(capsys, [
            "nedt", "--antenna-temp", "250", "--receiver-temp", "600",
            "--bandwidth", "1ghz", "--integration-time", "15ms",
            "--gain-stability", "1.5e-5",
        ])
        assert code == 0
        report = json.loads(out)
        assert abs(report["nedt_k"] - 0.22) < 0.005
        assert report["system_temperature_k"] == 850

    def test_nedt_inverse(self, capsys):
        code, out, _ = run(capsys, [
            "nedt", "--nedt", "0.22", "--bandwidth", "1ghz",
            "--integration-time", "15ms",
        ])
        assert code == 0
        assert abs(json.loads(out)["system_temperature_k"] - 852.056) < 0.01

    def test_calibrate(self, capsys):
        k_b = 1.380649e-23
        gain, t_rx, bandwidth = 1e10, 600.0, 1e9

        def power(t_a):
            return gain * k_b * bandwidth * (t_a + t_rx)

        code, out, _ = run(capsys, [
            "calibrate", "--bandwidth", "1ghz",
            "--point", f"77:{power(77.0)!r}",
            "--point", f"300:{power(300.0)!r}",
        ])
        assert code == 0
        report = json.loads(out)
        assert abs(report["gain"] / gain - 1.0) < 1e-9
        assert abs(report["receiver_temperature_k"] - t_rx) < 1e-6

    def test_radar_chain(self, capsys):
        code, out, _ = run(capsys, [
            "radar", "--tx-power", "1e3w", "--tx-gain", "1e3lin",
            "--rx-gain", "1e3lin", "--wavelength", "0.03m",
            "--sigma", "1m2", "--range", "100km",
            "--tsys", "290", "--bandwidth", "1mhz",
        ])
        assert code == 0
        report = json.loads(out)
        assert abs(report["received_power_w"] / 4.5353720296686784e-18 - 1.0) < 1e-5
        assert abs(report["snr"] / 0.0011327436513849092 - 1.0) < 1e-5
        assert abs(report["range_resolution_m"] - 149.896229) < 1e-3

    def test_radar_nesz_mode(self, capsys):
        code, out, _ = run(capsys, [
            "radar", "--tx-power", "4.3e3w", "--tx-gain", "44.5dbi",
            "--rx-gain", "44.5dbi", "--frequency", "5.405ghz",
            "--sigma0", "0.05", "--cell-area", "20m2", "--range", "700km",
            "--tsys", "606", "--bandwidth", "100mhz",
            "--processing-gain", "5000",
        ])
        assert code == 0
        report = json.loads(out)
        assert report["nesz"] > 0
        # Values pass through 6-significant-digit formatting.
        assert abs(report["nesz"] * report["snr"] - 0.05) < 0.05 * 1e-4
        assert abs(report["nesz_at_unit_snr"] / report["nesz"] - 1.0) < 1e-4

    def test_nef_subcommand(self, capsys):
        code, out, _ = run(capsys, [
            "nef", "--tsys", "23", "--aperture", "2660m2", "--rho2", "1",
        ])
        assert code == 0
        report = json.loads(out)
        assert abs(report["nef_v_m_sqrthz"] / 6.706254405772384e-12 - 1.0) < 1e-5

    def test_nef_coherence_default_coupling(self, capsys):
        _, matched, _ = run(capsys, ["nef", "--tsys", "23", "--aperture", "2660m2"])
        _, single_pol, _ = run(capsys, [
            "nef", "--tsys", "23", "--aperture", "2660m2",
            "--coherence", "incoherent",
        ])
        ratio = (json.loads(single_pol)["nef_v_m_sqrthz"]
                 / json.loads(matched)["nef_v_m_sqrthz"])
        assert abs(ratio - math.sqrt(2.0)) < 1e-5
        assert json.loads(single_pol)["rho2"] == 0.5

    def test_convert_subcommand(self, capsys):
        code, out, _ = run(capsys, [
            "convert", "--db-to-linear", "3.0103", "--wavelength-of", "20ghz",
            "--noise-figure", "10db",
            "--nef", "7.9e-6", "--gain", "1.5lin", "--frequency", "96ghz",
            "--rho2", "0.5",
        ])
        assert code == 0
        report = json.loads(out)
        assert abs(report["linear_ratio"] - 2.0) < 1e-6
        assert abs(report["wavelength_m"] / 0.0149896229 - 1.0) < 1e-5
        assert report["receiver_temperature_k"] == 2610
        assert abs(report["system_temperature_k"] - 6983.78) < 0.01

    def test_rydberg_subcommand(self, capsys):
        code, out, _ = run(capsys, [
            "rydberg", "--dipole-ea0", "1000", "--atoms", "1e6",
            "--coherence-time", "10us", "--field", "0.01",
            "--probe-power", "1mw", "--probe-frequency", "384.349thz",
        ])
        assert code == 0
        report = json.loads(out)
        assert abs(report["qpn_nef_v_m_sqrthz"] / 2.471408310563018e-08 - 1.0) < 1e-5
        assert abs(report["rabi_rad_s"] / 803961.9 - 1.0) < 1e-4
        assert report["photon_shot_noise_w_sqrthz"] > 0

    def test_rydberg_stark_mode(self, capsys):
        code, out, _ = run(capsys, [
            "rydberg", "--rabi", "1e5", "--detuning", "1e7",
        ])
        assert code == 0
        assert abs(json.loads(out)["ac_stark_shift_rad_s"] - 250.0) < 1e-9

    def test_dataset_derive_reports_known_mismatches(self, capsys):
        code, out, _ = run(capsys, ["dataset-derive"])
        assert code == 0
        report = json.loads(out)
        assert report["record_count"] == 21
        mismatch_rows = {d["instrument"] for d in report["diagnostics"]}
        assert "Odin-SMR 557 GHz" in mismatch_rows
        assert "SMOS MIRAS element (single LICEF)" in mismatch_rows
        assert len(report["diagnostics"]) == 6

    def test_dataset_ranges_no_rounding(self, capsys):
        code, out, _ = run(capsys, ["dataset-ranges", "--no-rounding"])
        assert code == 0
        deep_space = json.loads(out)["ranges"][0]
        assert abs(deep_space["t_sys_max_k"] - 27.6) < 1e-9

    def test_dataset_plotdata(self, capsys):
        code, out, _ = run(capsys, [
            "dataset-plotdata", "--thermal-line", "2.4e-8",
            "--marker", "probe:5mhz:1e-8",
        ])
        assert code == 0
        document = json.loads(out)
        assert len(document["rectangles"]) == 11
        names = [m["name"] for m in document["markers"]]
        assert names == ["probe", "mw-optical-converter"]
        assert document["reference_lines"][0]["e_field"] == 2.4e-8

    def test_output_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ENHANCE_ARGS + ["--output", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_bytes() == (GOLDEN_DIR / "enhance.json").read_bytes()

    def test_csv_format_of_flat_report(self, capsys):
        code, out, _ = run(capsys, [
            "nef", "--tsys", "23", "--aperture", "2660m2", "--format", "csv",
        ])
        assert code == 0
        assert out.startswith("key,value\r\n")
        assert "nef_v_m_sqrthz" in out

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, [
            "nef", "--tsys", "23", "--aperture", "2660m2", "--format", "text",
        ])
        assert code == 0
        assert "nef_v_m_sqrthz = " in out


class TestOperationCoverage:
    MODULES = {
        "quantities": rfsense.quantities,
        "radiometry": rfsense.radiometry,
        "radar": rfsense.radar,
        "linkbudget": rfsense.linkbudget,
        "fieldmetrics": rfsense.fieldmetrics,
        "rydberg": rfsense.rydberg,
        "dataset": rfsense.dataset,
    }
    # Configuration accessors, not engine operations.
    NON_OPERATIONS = {"quantities.default_eta0"}

    def test_every_operation_reachable_from_exactly_one_subcommand(self):
        operations = set()
        for module_name, module in self.MODULES.items():
            for symbol in module.__all__:
                if inspect.isfunction(getattr(module, symbol)):
                    operations.add(f"{module_name}.{symbol}")
        operations -= self.NON_OPERATIONS

        mapped = [op for ops in OPERATION_MAP.values() for op in ops]
        assert len(mapped) == len(set(mapped)), "an operation is mapped twice"
        assert set(mapped) == operations

    def test_subcommand_names_match_parser(self):
        parser = build_parser()
        choices = parser._subparsers._group_actions[0].choices
        assert set(choices) == set(OPERATION_MAP)


def _non_finite_dataset(tmp_path) -> str:
    """The bundled table with ``f0_ghz=nan`` in row 2 and ``t_sys_k=inf`` in row 3."""
    lines = rfsense.dataset.bundled_dataset_path().read_text(encoding="utf-8").splitlines()
    assert ",coherent,8.4," in lines[1] and ",23,sum," in lines[2]
    lines[1] = lines[1].replace(",coherent,8.4,", ",coherent,nan,")
    lines[2] = lines[2].replace(",23,sum,", ",inf,sum,")
    path = tmp_path / "non-finite.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _zero_reported_field_dataset(tmp_path) -> str:
    """The bundled table with ``e_free_reported=0`` in row 3."""
    lines = rfsense.dataset.bundled_dataset_path().read_text(encoding="utf-8").splitlines()
    assert lines[2].endswith(",1.4e-11")
    lines[2] = lines[2].removesuffix("1.4e-11") + "0"
    path = tmp_path / "zero-reported-field.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _huge_gain_dataset(tmp_path) -> str:
    """The bundled table plus a gain-tagged row whose ``gain_dbi=4000`` overflows."""
    document = rfsense.dataset.bundled_dataset_path().read_text(encoding="utf-8")
    row = ("Huge gain,test,Test,coherent,8.4,1e6,RF,gain,,,,4000,5,measured,18,direct,,"
           "23,sum,,,1,ref,")
    path = tmp_path / "huge-gain.csv"
    path.write_text(document + row + "\n", encoding="utf-8")
    return str(path)


RADAR_ARGS = ["radar", "--tx-power", "1e3w", "--tx-gain", "1e3lin", "--rx-gain", "1e3lin",
              "--wavelength", "0.03m", "--sigma", "1m2"]


def _fresh_cli(argv, **env):
    """``python -m rfsense argv`` in a fresh interpreter, with extra ``env``."""
    src = Path(rfsense.dataset.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "rfsense", *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src), **env),
    )


class TestErrorContract:
    """Every argv ends in exit 0, 2 or 3, an error in one stderr line."""

    def test_non_finite_cells_become_row_diagnostics(self, capsys, tmp_path):
        path = _non_finite_dataset(tmp_path)
        code, out, err = run(capsys, ["dataset-derive", "--input", path])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["record_count"] == 19
        messages = [(d["row"], d["message"]) for d in report["diagnostics"]]
        assert (2, "f0_ghz must be finite, got 'nan'") in messages
        assert (3, "t_sys_k must be finite, got 'inf'") in messages
        code, out, err = run(capsys, ["dataset-ranges", "--input", path])
        assert (code, err) == (0, "")

    def test_overflowing_gain_cell_is_one_row_diagnostic(self, capsys, tmp_path):
        code, out, err = run(capsys, ["dataset-derive", "--input", _huge_gain_dataset(tmp_path)])
        assert (code, err) == (0, "")
        report = json.loads(out)
        bundled = rfsense.dataset.load_bundled_dataset().records
        assert [r["instrument"] for r in report["records"]] == [r.instrument for r in bundled]
        assert report["diagnostics"][0] == {
            "row": len(bundled) + 1, "instrument": "Huge gain",
            "message": "Huge gain: gain_dbi 4000 dBi overflows the linear gain",
        }

    @pytest.mark.parametrize("argv,code,named", [
        (["convert", "--db-to-linear", "4000"], 2, "domain-error: --db-to-linear"),
        (["convert", "--noise-figure", "4000db"], 2,
         "rfsense convert: error: argument --noise-figure:"),
        (["nef", "--tsys", "20", "--diameter", "34m", "--output", "{missing}"], 3,
         "schema-error: cannot write output:"),
        (["nedt", "--frobnicate", "1"], 2, "rfsense nedt: error:"),
        (["dataset-derive", "--input", "{nan_csv}"], 0, None),
        (["dataset-ranges", "--input", "{nan_csv}"], 0, None),
        (["nedt", "--antenna-temp", "1e400", "--receiver-temp", "600",
          "--bandwidth", "1ghz", "--integration-time", "15ms"], 2,
         "rfsense nedt: error: argument --antenna-temp:"),
        (["nef", "--tsys", "20", "--diameter", "1e400m"], 2,
         "rfsense nef: error: argument --diameter:"),
        (RADAR_ARGS + ["--range", "1e306km"], 2, "rfsense radar: error: argument --range:"),
        (["nedt", "--antenna-temp", "250", "--receiver-temp", "600",
          "--bandwidth", "1e300thz", "--integration-time", "15ms"], 2,
         "rfsense nedt: error: argument --bandwidth:"),
        (RADAR_ARGS + ["--range", "100km", "--system-loss", "4000db"], 2,
         "rfsense radar: error: argument --system-loss:"),
        (RADAR_ARGS + ["--range", "100km", "--propagation-loss", "4000db"], 2,
         "rfsense radar: error: argument --propagation-loss:"),
        (RADAR_ARGS + ["--range", "100km", "--system-loss=-3db"], 2,
         "domain-error: system loss must be >= 1\n"),
        (RADAR_ARGS + ["--range", "100km", "--propagation-loss=-3db"], 2,
         "domain-error: propagation loss must be >= 1\n"),
        (["dataset-plotdata", "--marker", "probe:1e7hz:nan"], 2,
         "domain-error: marker 'probe' field must be finite and > 0, got nan\n"),
        (["dataset-plotdata", "--marker=p:-1e7hz:1e-8"], 2,
         "domain-error: marker 'p' bandwidth must be finite and > 0, got -10000000.0\n"),
        (["dataset-plotdata", "--marker", "p:1e7hz:0"], 2,
         "domain-error: marker 'p' field must be finite and > 0, got 0.0\n"),
        (["dataset-derive", "--input", "{zero_field_csv}"], 0,
         "row 3 (ESA DSA-3 35 m): e_free_reported must be > 0"),
    ], ids=["db-overflow", "noise-figure-overflow", "unwritable-output", "unknown-flag",
            "nan-csv-derive", "nan-csv-ranges", "antenna-temp-overflow", "diameter-overflow",
            "range-overflow-after-scaling", "bandwidth-overflow-after-scaling",
            "system-loss-overflow", "propagation-loss-overflow", "negative-system-loss",
            "negative-propagation-loss", "nan-marker-field",
            "negative-marker-bandwidth", "zero-marker-field", "zero-reported-field"])
    def test_fresh_interpreter(self, tmp_path, argv, code, named):
        paths = {"missing": str(tmp_path / "missing" / "x"),
                 "nan_csv": _non_finite_dataset(tmp_path),
                 "zero_field_csv": _zero_reported_field_dataset(tmp_path)}
        child = _fresh_cli([a.format(**paths) for a in argv])
        self._check(child, code, named)

    @pytest.mark.parametrize("command", ["dataset-derive", "dataset-ranges", "dataset-plotdata"])
    def test_fresh_interpreter_invalid_eta0(self, command):
        child = _fresh_cli([command], RFSENSE_ETA0_OHMS="abc")
        self._check(child, 2, "domain-error: RFSENSE_ETA0_OHMS must be a number, got 'abc'")

    @staticmethod
    def _check(child, code, named):
        assert "Traceback" not in child.stderr
        assert child.returncode == code, child.stderr
        if code == 0:
            assert child.stderr == ""
            if named is not None:  # a row diagnostic of the report
                diagnostics = json.loads(child.stdout)["diagnostics"]
                assert named in [f"row {d['row']} ({d['instrument']}): {d['message']}"
                                 for d in diagnostics]
        else:
            assert child.stdout == ""
            assert child.stderr.startswith(named) and child.stderr.count("\n") == 1
