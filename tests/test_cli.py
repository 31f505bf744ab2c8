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
    OPERATION_MAP, SUBCOMMANDS, ReportTable, build_parser, format_number, main, render_json,
    render_report,
)
from rfsense.errors import DomainError, SchemaError

GOLDEN_DIR = Path(__file__).parent / "golden"

BUDGET_ARGS = [
    "budget", "--tx-power", "20dbw", "--tx-gain", "45dbi",
    "--tx-feeder-loss", "2db", "--loss", "fsl=206.5db", "--loss", "atm=2db",
    "--loss", "rain=3db", "--loss", "other=1db", "--rx-gain", "50dbi",
    "--antenna-temp", "100", "--receiver-temp", "100",
    "--feeder-loss-linear", "1.5", "--data-rate", "1e8",
    "--distance", "3.6e7m", "--frequency", "20ghz",
]
# The budget of BUDGET_ARGS without the geometry, as a flat JSON document.
BUDGET_DOCUMENT = {
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
DERIVE_TEXT_ARGS = ["dataset-derive", "--format", "text"]
RANGES_JSON_ARGS = ["dataset-ranges"]
PLOTDATA_ARGS = [
    "dataset-plotdata", "--thermal-line", "2.4e-8", "--marker", "probe:5mhz:1e-8",
]
# The README examples, and the gain-form and Q_e/Q_i inputs of the field chain.
NEDT_ARGS = ["nedt", "--antenna-temp", "250", "--receiver-temp", "600",
             "--bandwidth", "1ghz", "--integration-time", "15ms", "--gain-stability", "1.5e-5"]
NEDT_INVERSE_ARGS = ["nedt", "--nedt", "0.22", "--bandwidth", "1ghz", "--integration-time", "15ms"]
NEF_GAIN_ARGS = ["nef", "--tsys", "7000", "--gain", "1.5lin", "--frequency", "96ghz",
                 "--rho2", "0.5"]
CONVERT_ARGS = ["convert", "--db-to-linear", "3.0103", "--noise-figure", "10db",
                "--nef", "7.9e-6", "--gain", "1.5lin", "--frequency", "96ghz", "--rho2", "0.5"]
RYDBERG_ARGS = ["rydberg", "--dipole-ea0", "1000", "--sensor-nef", "1e-6", "--gain", "1.5lin",
                "--frequency", "10ghz", "--rabi", "8e5"]
# The same cavity again: Q_L = 1/(1/16800 + 1/16800) = 8400.
ENHANCE_Q_FACTORS_ARGS = (ENHANCE_ARGS[:3] + ["--q-external", "16800", "--q-internal", "16800"]
                          + ENHANCE_ARGS[5:])


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
            (DERIVE_TEXT_ARGS, "dataset_derive.txt"),
            (RANGES_JSON_ARGS, "dataset_ranges.json"),
            (NEDT_ARGS, "nedt.json"),
            (NEDT_INVERSE_ARGS, "nedt_inverse.json"),
            (NEF_GAIN_ARGS, "nef_gain.json"),
            (CONVERT_ARGS, "convert.json"),
            (RYDBERG_ARGS, "rydberg.json"),
            (ENHANCE_Q_FACTORS_ARGS, "enhance.json"),
        ],
        ids=["budget", "dataset-ranges", "enhance", "enhance-q-loaded", "dataset-derive",
             "dataset-derive-csv", "dataset-plotdata", "dataset-derive-text",
             "dataset-ranges-json", "nedt", "nedt-inverse", "nef-gain", "convert", "rydberg",
             "enhance-q-factors"],
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
        unit_words = (
            "kelvin", "unit suffix", "db", "watt", "m^2", "m^3", "bit/s",
            "v/m", "rad/s", "dimensionless", "linear", "factor", "count",
            "significant digits", "tolerance", "constant", "cosine",
            "efficiency", "coupling", "quality", "c*m", "e*a_0",
        )
        for _, _, flags in SUBCOMMANDS.values():
            for flag in flags:
                if not callable(flag.convert):
                    continue  # paths, switches, choices
                text = (flag.help or "").lower()
                assert any(word in text for word in unit_words), (
                    f"flag {flag.name} lacks a unit in help: {text!r}"
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
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(BUDGET_DOCUMENT))
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

    def test_out_of_range_value_is_one_domain_error_from_json_or_flags(self, capsys, tmp_path):
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(dict(BUDGET_DOCUMENT, data_rate_bps=-1e8)))
        args = list(BUDGET_ARGS)
        at = args.index("--data-rate")
        args[at:at + 2] = ["--data-rate=-1e8"]
        line = "domain-error: data rate must be > 0 bit/s\n"
        assert run(capsys, ["budget", "--input", str(path)]) == (2, "", line)
        assert run(capsys, args) == (2, "", line)

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


def _old_render_csv_table(columns, rows: list[dict]) -> str:
    """The CSV report ``render_report`` made of a table given as dicts: the reference."""
    def text(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return format_number(value) if isinstance(value, float) else str(value)

    def quote(cell):
        return '"' + cell.replace('"', '""') + '"' if any(c in cell for c in ',"\r\n') else cell

    lines = [list(columns)] + [[text(row.get(c)) for c in columns] for row in rows]
    return "".join(",".join(quote(cell) for cell in line) + "\r\n" for line in lines)


def _trees(leaves):
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(_TEXT, st.integers(), st.booleans(), st.floats()), children, max_size=4
        ),
    ), max_leaves=25)


# (columns, rows): distinct column names and rows of str, float, None, int and bool cells.
_TABLES = st.lists(_TEXT, min_size=1, max_size=5, unique=True).flatmap(lambda columns: st.tuples(
    st.just(tuple(columns)),
    st.lists(st.tuples(*[st.one_of(_TEXT, _FINITE, st.none(), st.integers(), st.booleans())]
                       * len(columns)), max_size=6),
))


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

    @settings(max_examples=150, deadline=None)
    @given(_TABLES)
    @example((("b", "a%s", "c"), [("x", 1.5, None), ("y,\"z\"", -0.0, 7)]))
    @example((("only",), [(None,), (True,)]))
    def test_a_table_renders_like_its_rows_as_dicts(self, spec):
        columns, rows = spec
        table = ReportTable(columns, rows)
        dicts = [dict(zip(columns, row)) for row in rows]
        for fmt in ("json", "text"):
            assert (render_report({"t": table, "n": len(rows)}, fmt, table)
                    == render_report({"t": dicts, "n": len(rows)}, fmt))
        assert render_report({"t": table}, "csv", table) == _old_render_csv_table(columns, dicts)

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

    # Beyond the 17 digits a float holds, rounding leaves every bound as it is.
    @pytest.mark.parametrize("figures", ["17", "29", "400"])
    def test_dataset_ranges_more_figures_than_a_float_holds(self, capsys, figures):
        unrounded = run(capsys, ["dataset-ranges", "--no-rounding"])
        assert run(capsys, ["dataset-ranges", "--sig-figs", figures]) == unrounded

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
        assert set(SUBCOMMANDS) == set(OPERATION_MAP)


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
            "message": "Huge gain: dB value must be <= 3082.55 dB",
        }

    # The first bundled row, DSN 70 m BWG, with its T_Rx from a noise figure or
    # its T_sys from an NEDT whose B*tau product underflows.
    @pytest.mark.parametrize("old,new,message", [
        (",18,direct,,23,sum,", ",,NF,4000,,sum,", "dB value must be <= 3082.55 dB"),
        (",4.0e8,RF,phys,2660,,,,5,measured,18,direct,,23,sum,,,",
         ",1e-300,RF,phys,2660,,,,5,measured,18,direct,,,NEDT,1,1e-300,",
         "bandwidth x integration time 1e-300 Hz x 1e-300 s is outside the float range"),
    ], ids=["noise-figure", "nedt-bandwidth-time"])
    def test_an_overflowing_derivation_is_one_row_diagnostic(
        self, capsys, tmp_path, old, new, message,
    ):
        lines = rfsense.dataset.bundled_dataset_path().read_text(encoding="utf-8").splitlines()
        assert lines[1].startswith("DSN 70 m BWG,") and lines[1].count(old) == 1
        lines[1] = lines[1].replace(old, new)
        path = tmp_path / "overflowing-row.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["dataset-derive", "--input", str(path)])
        assert (code, err) == (0, "")
        report = json.loads(out)
        bundled = rfsense.dataset.load_bundled_dataset().records
        assert [r["instrument"] for r in report["records"]] == [r.instrument for r in bundled[1:]]
        assert report["diagnostics"][0] == {
            "row": 1, "instrument": "DSN 70 m BWG", "message": f"DSN 70 m BWG: {message}",
        }

    @pytest.mark.parametrize("argv,code,named", [
        (["convert", "--db-to-linear", "4000"], 2,
         "domain-error: dB value must be <= 3082.55 dB\n"),
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


NEDT_REQUIRED = ["nedt", "--bandwidth", "1ghz", "--integration-time", "15ms"]
RADAR_REQUIRED = ["radar", "--tx-power", "1e3w", "--tx-gain", "1e3lin", "--rx-gain", "1e3lin",
                  "--range", "100km"]
RADAR_POINT = RADAR_REQUIRED + ["--frequency", "1ghz", "--sigma", "1m2"]
ENHANCE_REQUIRED = ["enhance", "--f0", "8.4ghz", "--rf-efficiency", "0.8",
                    "--mode-volume", "1e-5", "--tsys", "20"]
APERTURE_WAYS = ("give exactly one aperture description: --aperture, --diameter, "
                 "or --gain with --frequency")
Q_WAYS = "give exactly one of --q-loaded, --q-external with --q-internal, or --signal-bandwidth"


NEF_ARGS = ["nef", "--tsys", "20", "--diameter", "34m"]
SUBCOMMAND_CHOICES = ("'nedt', 'calibrate', 'radar', 'budget', 'nef', 'convert', 'enhance', "
                      "'rydberg', 'dataset-derive', 'dataset-ranges', 'dataset-plotdata'")


def _usage(command, flag, message):
    return f"rfsense {command}: error: argument {flag}: {message}"


BAD_TSYS = _usage("nef", "--tsys", "cannot parse quantity 'abc'")


class TestErrorLines:
    """Each CLI error path: the argv, its exit code and its exact stderr line."""

    @pytest.mark.parametrize("argv,line", [
        # Flag combinations the handlers refuse.
        (NEDT_REQUIRED, "--antenna-temp and --receiver-temp are required "
                        "(or use --nedt for the inverse)"),
        (RADAR_REQUIRED + ["--sigma", "1m2"], "one of --frequency or --wavelength is required"),
        (RADAR_POINT + ["--pulse-width", "1us"], "--pulse-width needs --bandwidth to form B*tau_p"),
        (RADAR_POINT + ["--sigma0", "0.05"], "give either --sigma or --sigma0, not both"),
        (RADAR_REQUIRED + ["--frequency", "1ghz", "--sigma0", "0.05"],
         "--sigma0 needs --cell-area"),
        (RADAR_REQUIRED + ["--frequency", "1ghz"],
         "a target is required: --sigma or --sigma0 with --cell-area"),
        (RADAR_POINT + ["--compare-tsys", "300"], "--compare-tsys needs --tsys"),
        (["budget", "--tx-power", "20dbw"], "missing required budget flag(s): --tx-gain, "
                                            "--rx-gain, --antenna-temp, --receiver-temp, --data-rate"),
        (["nef", "--tsys", "20"], APERTURE_WAYS),
        (["nef", "--tsys", "20", "--aperture", "1", "--diameter", "34m"], APERTURE_WAYS),
        (["nef", "--tsys", "20", "--gain", "1.5lin"], "--gain needs --frequency to form an aperture"),
        (["convert", "--db-to-linear", "4000"], "dB value must be <= 3082.55 dB"),
        (["convert", "--field", "0.01"], "--field needs --aperture for the power relation"),
        (["convert", "--nef", "7.9e-6", "--gain", "1.5lin"],
         "--nef needs --gain and --frequency (the inverse mapping is not unique without the "
         "coupling assumption)"),
        (["convert"], "nothing to convert: give at least one input flag"),
        (ENHANCE_REQUIRED + ["--aperture", "1"], Q_WAYS),
        (ENHANCE_REQUIRED + ["--aperture", "1", "--q-loaded", "8400", "--signal-bandwidth", "1mhz"],
         Q_WAYS),
        (ENHANCE_REQUIRED + ["--aperture", "1", "--q-external", "16800"],
         "--q-external and --q-internal must be given together"),
        (ENHANCE_REQUIRED + ["--q-loaded", "8400"], APERTURE_WAYS),
        (["rydberg", "--dipole", "8.5e-27", "--dipole-ea0", "1000"],
         "give either --dipole or --dipole-ea0, not both"),
        (["rydberg", "--atoms", "1e6"], "projection-noise floor needs --dipole (or --dipole-ea0), "
                                        "--atoms and --coherence-time"),
        (["rydberg", "--probe-power", "1mw"], "shot noise needs --probe-power and --probe-frequency"),
        (["rydberg", "--field", "0.01"], "--field needs a dipole moment"),
        (["rydberg", "--rabi", "8e5"], "--rabi needs a dipole moment (or --detuning for Stark)"),
        (["rydberg", "--sensor-nef", "1e-6", "--gain", "1.5lin"],
         "--sensor-nef needs --gain and --frequency"),
        (["rydberg"], "nothing to compute: give at least one input group"),
        # A plain negative number is a value, so the handler refuses it.
        (["nef", "--tsys", "-20", "--diameter", "34m"], "--tsys must be > 0"),
    ])
    def test_flag_combination_is_one_domain_error_line(self, capsys, argv, line):
        assert run(capsys, argv) == (2, "", f"domain-error: {line}\n")

    @pytest.mark.parametrize("argv,line", [
        (["budget", "--loss", "fsl"], _usage("budget", "--loss", "expected NAME=VALUEdb, got 'fsl'")),
        (["budget", "--loss", "=206.5db"], _usage("budget", "--loss", "empty name in '=206.5db'")),
        (["budget", "--tx-power", "20dbi"], _usage(
            "budget", "--tx-power", "dB value '20dbi' needs an explicit reference suffix (dbw/dbm)")),
        (["calibrate", "--bandwidth", "1ghz", "--point", "77"],
         _usage("calibrate", "--point", "expected TEMP_K:POWER_W, got '77'")),
        (["calibrate", "--bandwidth", "1ghz", "--point", "77:abc"],
         _usage("calibrate", "--point", "cannot parse point '77:abc'")),
        (["dataset-plotdata", "--marker", "probe"],
         _usage("dataset-plotdata", "--marker", "expected NAME:BANDWIDTH:E_FIELD, got 'probe'")),
        (["dataset-plotdata", "--marker", "probe:5mhz:abc"],
         _usage("dataset-plotdata", "--marker", "cannot parse field 'abc'")),
        (["nef", "--tsys", "20", "--gain", "1.5"],
         _usage("nef", "--gain", "gain '1.5' needs an explicit 'dbi' or 'lin' suffix")),
        (["nef", "--tsys", "20", "--gain", "4000dbi", "--frequency", "1ghz"],
         _usage("nef", "--gain", "dB value must be <= 3082.55 dB")),
        (["nef", "--tsys", "20", "--rho2", "1k"],
         _usage("nef", "--rho2", "value '1k' must be a plain number (got unit 'k')")),
        (["nedt", "--bandwidth", "1parsec", "--integration-time", "15ms"], _usage(
            "nedt", "--bandwidth", "unknown frequency unit 'parsec' (expected ghz/hz/khz/mhz/thz)")),
        (["nedt", "--bandwidth", "1e9", "--integration-time", "15ms"], _usage(
            "nedt", "--bandwidth", "frequency value '1e9' needs a unit suffix (ghz/hz/khz/mhz/thz)")),
        (["nedt", "--bandwidth", "lots", "--integration-time", "15ms"],
         _usage("nedt", "--bandwidth", "cannot parse quantity 'lots'")),
        (["nedt", "--bandwidth", "1e400hz", "--integration-time", "15ms"],
         _usage("nedt", "--bandwidth", "value '1e400hz' overflows the float range")),
        (["nedt", "--bandwidth", "1e308thz", "--integration-time", "15ms"],
         _usage("nedt", "--bandwidth", "frequency '1e308thz' overflows the float range")),
        (["radar", "--system-loss", "4000db"],
         _usage("radar", "--system-loss", "dB value must be <= 3082.55 dB")),
        # The grammar at its edges: prefixes, "=", "--", choices and switches.
        (["nef", "--tsys", "20", "--a", "1"],
         "rfsense nef: error: ambiguous option: --a could match --aperture, "
         "--aperture-efficiency"),
        (["nef", "--=x"], "rfsense nef: error: ambiguous option: --=x could match --help, "
                          "--format, --output, --tsys, --aperture, --diameter, "
                          "--aperture-efficiency, --gain, --frequency, --rho2, --coherence"),
        (["nef", "--tsys"], _usage("nef", "--tsys", "expected one argument")),
        # A value that starts with "-" but is not a plain negative number reads as a flag.
        (NEF_ARGS + ["--tsys", "-1e5"], _usage("nef", "--tsys", "expected one argument")),
        (["nef", "--diameter", "34m"],
         "rfsense nef: error: the following arguments are required: --tsys"),
        (NEF_ARGS + ["extra"], "rfsense: error: unrecognized arguments: extra"),
        (NEF_ARGS + ["--", "x"], "rfsense: error: unrecognized arguments: -- x"),
        (["--frob"] + NEF_ARGS, "rfsense: error: unrecognized arguments: --frob"),
        (["--"], "rfsense: error: unrecognized arguments: --"),
        (["bogus"], "rfsense: error: argument SUBCOMMAND: invalid choice: 'bogus' "
                    f"(choose from {SUBCOMMAND_CHOICES})"),
        (["--", "nef"], "rfsense: error: argument SUBCOMMAND: invalid choice: '--' "
                        f"(choose from {SUBCOMMAND_CHOICES})"),
        (NEF_ARGS + ["--format", "xml"], _usage(
            "nef", "--format", "invalid choice: 'xml' (choose from 'json', 'csv', 'text')")),
        (NEF_ARGS + ["--coherence", "partial"], _usage(
            "nef", "--coherence",
            "invalid choice: 'partial' (choose from 'coherent', 'incoherent')")),
        (["dataset-ranges", "--sig-figs", "2.5"],
         _usage("dataset-ranges", "--sig-figs", "invalid int value: '2.5'")),
        (["dataset-ranges", "--no-rounding=1"],
         _usage("dataset-ranges", "--no-rounding", "ignored explicit argument '1'")),
        (["-hx"], "rfsense: error: argument -h/--help: ignored explicit argument 'x'"),
        (["--help=x"], "rfsense: error: argument -h/--help: ignored explicit argument 'x'"),
        (["nef", "-h="], _usage("nef", "-h/--help", "ignored explicit argument ''")),
        # Bad values first, in argv order; then the missing required flags; then leftovers.
        (["nedt", "--frobnicate", "1"], "rfsense nedt: error: the following arguments are "
                                        "required: --bandwidth, --integration-time"),
        (["nef", "--no-such", "--tsys", "abc"], BAD_TSYS),
        (["nef", "--tsys", "abc", "--rho2", "1k"], BAD_TSYS),
        (["nef", "--tsys", "abc", "--help"], BAD_TSYS),
    ])
    def test_bad_flag_value_is_one_usage_line(self, capsys, argv, line):
        assert run(capsys, argv) == (2, "", f"{line}\n")

    @pytest.mark.parametrize("document,line", [
        (None, "cannot read budget file: [Errno 2] No such file or directory: '{path}'"),
        ("fsl=206.5", "budget file is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[]", "budget document must be a JSON object"),
        ('{"tx_power_dbw": "abc", "losses_db": {}}',
         "budget document has a malformed value: could not convert string to float: 'abc'"),
        ('{"tx_power_dbw": 1%s, "losses_db": {}}' % ("0" * 400),
         "budget document has a malformed value: int too large to convert to float"),
    ], ids=["unreadable", "not-json", "not-an-object", "malformed-value", "beyond-float-range"])
    def test_bad_budget_file_is_one_schema_error_line(self, capsys, tmp_path, document, line):
        path = tmp_path / "budget.json"
        if document is not None:
            path.write_text(document)
        code, out, err = run(capsys, ["budget", "--input", str(path)])
        assert (code, out, err) == (3, "", f"schema-error: {line.format(path=path)}\n")

    def test_unknown_report_format_is_a_schema_error(self):
        with pytest.raises(SchemaError, match=r"^unknown format 'xml'$"):
            render_report({"x": 1.0}, "xml")


    @pytest.mark.parametrize("argv,spelled_out", [
        (["nef", "--tsys", "20", "--diam", "34m", "--form", "csv"],
         NEF_ARGS + ["--format", "csv"]),
        (["nef", "--tsys=20", "--diameter=34m"], NEF_ARGS),
        (["nef", "--tsys", "5", "--diameter", "34m", "--tsys", "20"], NEF_ARGS),
        (NEF_ARGS + ["--coh", "incoherent"], NEF_ARGS + ["--coherence", "incoherent"]),
    ], ids=["unique-prefixes", "equals", "last-repeat-wins", "choice-prefix"])
    def test_accepted_spelling_prints_the_spelled_out_report(self, capsys, argv, spelled_out):
        expected = run(capsys, spelled_out)
        assert expected[0] == 0 and expected[2] == ""
        assert run(capsys, argv) == expected

    @pytest.mark.parametrize("argv,code,section", [
        ([], 2, 0), (["-h"], 0, 0), (["-hh"], 0, 0), (["--he"], 0, 0), (["nef", "-h"], 0, 5),
        (["nef", "--help", "--tsys", "abc"], 0, 5), (["dataset-plotdata", "--h"], 0, 11),
    ], ids=["no-arguments", "short", "short-twice", "prefix", "nef", "help-first",
            "subcommand-prefix"])
    def test_help_prints_its_golden_section(self, capsys, argv, code, section):
        sections = (GOLDEN_DIR / "help.txt").read_text(encoding="utf-8").split("\n" + "=" * 80
                                                                              + "\n")
        assert run(capsys, argv) == (code, sections[section], "")
