import csv
import gc
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfsense.errors import DomainError, SchemaError
from rfsense.fieldmetrics import default_polarisation_coupling
from rfsense.quantities import CODATA
from rfsense.dataset import (
    APERTURE_METHODS,
    BANDWIDTH_METHODS,
    COHERENCE_TAGS,
    COLUMNS,
    OPTIONAL_COLUMNS,
    REQUIRED_COLUMNS,
    T_A_FLAGS,
    T_RX_METHODS,
    T_SYS_METHODS,
    Diagnostic,
    InstrumentRecord,
    ParseResult,
    bundled_dataset_path,
    consistency_diagnostics,
    derive_record,
    derive_records,
    emit_plot_data,
    load_bundled_dataset,
    parse_instruments,
    round_to_sig_figs,
    serialize_instruments,
    synthesize_all,
    synthesize_ranges,
)

HEADER = ",".join(REQUIRED_COLUMNS)

# Frozen oracles (direct evaluation, CODATA impedance).
E_FREE_DSN = 6.706254405772384e-12
E_FREE_SPEKTR_R = 1.349245403150938e-10
APERTURE_45DBI_20GHZ = 0.565420500258143

# Rows of the bundled table whose quoted field value is internally
# inconsistent with the row's own (T_sys, A_e, rho^2) beyond 10%.
KNOWN_INCONSISTENT_ROWS = {
    "SMOS MIRAS element (single LICEF)",
    "Jason-2 Poseidon-3 (Ku)",
    "NOAA-19 AMSU-A ch.9",
    "Odin-SMR 557 GHz",
    "2.1 THz heterodyne spectrometer",
    "4.7 THz heterodyne spectrometer",
}


def make_record(**overrides):
    params = dict(
        instrument="synthetic",
        mission="test",
        category="test-category",
        coherence="coherent",
        f0_ghz=8.4,
        bandwidth_hz=4.0e8,
        bandwidth_method="RF",
        aperture_method="direct",
        a_e_m2=2660.0,
        a_phys_m2=None,
        eta_ap=None,
        gain_dbi=None,
        t_a_k=5.0,
        t_a_flag="measured",
        t_rx_k=18.0,
        t_rx_method="direct",
        nf_db=None,
        t_sys_k=23.0,
        t_sys_method="sum",
        nedt_k=None,
        tau_s=None,
        rho2=1.0,
        reference="ref",
    )
    params.update(overrides)
    return InstrumentRecord(**params)


class TestParse:
    def test_bundled_dataset_parses_cleanly(self):
        result = load_bundled_dataset()
        # The source table transcribed here carries 21 instrument rows.
        assert len(result.records) == 21
        assert result.diagnostics == ()

    def test_empty_document_with_header(self):
        result = parse_instruments(HEADER + "\n")
        assert result.records == ()
        assert result.diagnostics == ()

    def test_missing_column_is_schema_error(self):
        broken = HEADER.replace("t_sys_k,", "")
        with pytest.raises(SchemaError, match="t_sys_k"):
            parse_instruments(broken + "\n")

    def test_unknown_column_is_schema_error(self):
        with pytest.raises(SchemaError, match="surprise"):
            parse_instruments(HEADER + ",surprise\n")

    def test_gain_method_without_gain_is_diagnosed(self):
        row = ("needs-gain,m,cat,coherent,1.0,1e6,RF,gain,,,,,,,,,,100,sum,,,0.5,r")
        result = parse_instruments(HEADER + "\n" + row + "\n")
        assert result.records == ()
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].instrument == "needs-gain"
        assert "gain" in result.diagnostics[0].message

    def test_unparseable_numeric_is_diagnosed_not_fatal(self):
        good = "ok,m,cat,coherent,1.0,1e6,RF,direct,1.0,,,,,,,,,100,sum,,,0.5,r"
        bad = "broken,m,cat,coherent,not-a-number,1e6,RF,direct,1.0,,,,,,,,,100,sum,,,0.5,r"
        result = parse_instruments(HEADER + "\n" + good + "\n" + bad + "\n")
        assert len(result.records) == 1
        assert result.records[0].instrument == "ok"
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].instrument == "broken"

    def test_bad_method_tag_is_diagnosed(self):
        row = "x,m,cat,coherent,1.0,1e6,RF,magic,1.0,,,,,,,,,100,sum,,,0.5,r"
        result = parse_instruments(HEADER + "\n" + row + "\n")
        assert len(result.diagnostics) == 1

    @pytest.mark.parametrize(
        "column,text,message",
        [
            ("coherence", "laser",
             "coherence must be one of ('coherent', 'incoherent'), got 'laser'"),
            ("bandwidth_method", "guess",
             "bandwidth_method must be one of ('RF', 'noise', 'chirp'), got 'guess'"),
            ("f0_ghz", "0", "f0_ghz must be present and > 0"),
            ("bandwidth_hz", "-1", "bandwidth_hz must be present and > 0"),
            ("rho2", "1.5", "rho2 must be in (0, 1]"),
            ("a_e_m2", "", "aperture_method 'direct' needs a_e_m2"),
            ("e_free_reported", "0", "e_free_reported must be > 0"),
            ("e_free_reported", "-1e-9", "e_free_reported must be > 0"),
        ],
    )
    def test_rejected_row_diagnostic_message(self, column, text, message):
        good = "ok,m,cat,coherent,1.0,1e6,RF,direct,1.0,,,,,,,,,100,sum,,,0.5,r,"
        cells = dict(zip(COLUMNS, good.split(",")))
        cells[column] = text
        row = ",".join(cells[c] for c in COLUMNS)
        result = parse_instruments(",".join(COLUMNS) + "\n" + row + "\n")
        assert result.records == ()
        [diagnostic] = result.diagnostics
        assert (diagnostic.row, diagnostic.instrument, diagnostic.message) == (2, "ok", message)

    def test_round_trip_parse_serialize_parse(self):
        first = load_bundled_dataset().records
        again = parse_instruments(serialize_instruments(first)).records
        assert again == first

    @pytest.mark.parametrize(
        "column,text",
        [("f0_ghz", "nan"), ("t_sys_k", "inf"), ("a_e_m2", "-Infinity"),
         ("e_free_reported", "NaN"), ("rho2", "1e400")],
    )
    def test_non_finite_cell_is_a_row_diagnostic_naming_the_column(self, column, text):
        reader = csv.DictReader(io.StringIO(bundled_dataset_path().read_text(encoding="utf-8")))
        rows = list(reader)
        rows[4][column] = text
        document = io.StringIO()
        writer = csv.DictWriter(document, reader.fieldnames)
        writer.writeheader()
        writer.writerows(rows)
        result = parse_instruments(document.getvalue())
        assert len(result.records) == 20
        [diagnostic] = result.diagnostics
        assert (diagnostic.row, diagnostic.instrument) == (6, rows[4]["instrument"])
        assert diagnostic.message == f"{column} must be finite, got {text!r}"

    def test_padded_header_names_parse_like_plain_ones(self):
        header, _, body = bundled_dataset_path().read_text(encoding="utf-8").partition("\n")
        padded = ",".join(f" {name}\t" for name in header.split(","))
        result = parse_instruments(padded + "\n" + body)
        assert result.diagnostics == ()
        assert result.records == load_bundled_dataset().records
        assert len(result.records) == 21

    def test_empty_rho2_defaults_from_coherence(self):
        rows = (
            "coh,m,cat,coherent,1.0,1e6,RF,direct,1.0,,,,,,,,,100,sum,,,,r\n"
            "inc,m,cat,incoherent,1.0,1e6,RF,direct,1.0,,,,,,,,,100,sum,,,,r\n"
        )
        result = parse_instruments(HEADER + "\n" + rows)
        assert [r.rho2 for r in result.records] == [1.0, 0.5]


def _ref_parse_cell(row: dict, column: str) -> float | None:
    text = (row.get(column) or "").strip()
    if not text:
        return None
    value = float(text)  # ValueError propagates to the row handler
    if not math.isfinite(value):
        raise DomainError(f"{column} must be finite, got {text!r}")
    return value


def _ref_tag(text: str | None) -> str | None:
    text = (text or "").strip()
    return text or None


def _dictreader_parse_instruments(document: str) -> ParseResult:
    """The ``csv.DictReader`` parser ``parse_instruments`` replaced: the reference."""
    reader = csv.DictReader(io.StringIO(document))
    if reader.fieldnames is None:
        raise SchemaError("document has no header row")
    header = [name.strip() for name in reader.fieldnames]
    missing = [name for name in REQUIRED_COLUMNS if name not in header]
    if missing:
        raise SchemaError(f"missing required column(s): {', '.join(missing)}")
    unknown = [
        name for name in header
        if name not in REQUIRED_COLUMNS and name not in OPTIONAL_COLUMNS
    ]
    if unknown:
        raise SchemaError(f"unknown column(s): {', '.join(unknown)}")

    records: list[InstrumentRecord] = []
    diagnostics: list[Diagnostic] = []
    for row_number, row in enumerate(reader, start=2):
        name = (row.get("instrument") or "").strip()
        try:
            records.append(_ref_parse_row(row))
        except (DomainError, ValueError) as exc:
            diagnostics.append(Diagnostic(row_number, name or "<unnamed>", str(exc)))
    return ParseResult(tuple(records), tuple(diagnostics))


def _ref_parse_row(row: dict) -> InstrumentRecord:
    coherence = _ref_tag(row.get("coherence"))
    if coherence not in COHERENCE_TAGS:
        raise DomainError(f"coherence must be one of {COHERENCE_TAGS}, got {coherence!r}")
    bandwidth_method = _ref_tag(row.get("bandwidth_method"))
    if bandwidth_method not in BANDWIDTH_METHODS:
        raise DomainError(f"bandwidth_method must be one of {BANDWIDTH_METHODS}, got {bandwidth_method!r}")
    aperture_method = _ref_tag(row.get("aperture_method"))
    if aperture_method not in APERTURE_METHODS:
        raise DomainError(f"aperture_method must be one of {APERTURE_METHODS}, got {aperture_method!r}")
    t_sys_method = _ref_tag(row.get("t_sys_method"))
    if t_sys_method not in T_SYS_METHODS:
        raise DomainError(f"t_sys_method must be one of {T_SYS_METHODS}, got {t_sys_method!r}")

    f0_ghz = _ref_parse_cell(row, "f0_ghz")
    if f0_ghz is None or f0_ghz <= 0.0:
        raise DomainError("f0_ghz must be present and > 0")
    bandwidth_hz = _ref_parse_cell(row, "bandwidth_hz")
    if bandwidth_hz is None or bandwidth_hz <= 0.0:
        raise DomainError("bandwidth_hz must be present and > 0")
    rho2 = _ref_parse_cell(row, "rho2")
    if rho2 is None:
        rho2 = default_polarisation_coupling(coherence)
    if not 0.0 < rho2 <= 1.0:
        raise DomainError("rho2 must be in (0, 1]")

    a_e = _ref_parse_cell(row, "a_e_m2")
    a_phys = _ref_parse_cell(row, "a_phys_m2")
    eta_ap = _ref_parse_cell(row, "eta_ap")
    gain_dbi = _ref_parse_cell(row, "gain_dbi")
    if a_e is None:
        if aperture_method == "direct":
            raise DomainError("aperture_method 'direct' needs a_e_m2")
        if aperture_method == "phys" and a_phys is None:
            raise DomainError("aperture_method 'phys' needs a_phys_m2 (or a pre-derived a_e_m2)")
        if aperture_method == "gain" and gain_dbi is None:
            raise DomainError("aperture_method 'gain' needs gain_dbi (or a pre-derived a_e_m2)")

    t_a = _ref_parse_cell(row, "t_a_k")
    t_a_flag = _ref_tag(row.get("t_a_flag"))
    if t_a is not None and t_a_flag is None:
        t_a_flag = "measured"
    if t_a_flag is not None and t_a_flag not in T_A_FLAGS:
        raise DomainError(f"t_a_flag must be one of {T_A_FLAGS}, got {t_a_flag!r}")

    t_rx = _ref_parse_cell(row, "t_rx_k")
    nf_db = _ref_parse_cell(row, "nf_db")
    t_rx_method = _ref_tag(row.get("t_rx_method"))
    if t_rx_method is None and (t_rx is not None or nf_db is not None):
        t_rx_method = "NF" if (t_rx is None and nf_db is not None) else "direct"
    if t_rx_method is not None and t_rx_method not in T_RX_METHODS:
        raise DomainError(f"t_rx_method must be one of {T_RX_METHODS}, got {t_rx_method!r}")
    if t_rx_method == "NF" and t_rx is None and nf_db is None:
        raise DomainError("t_rx_method 'NF' needs nf_db (or a pre-derived t_rx_k)")

    t_sys = _ref_parse_cell(row, "t_sys_k")
    nedt_k = _ref_parse_cell(row, "nedt_k")
    tau_s = _ref_parse_cell(row, "tau_s")
    if t_sys is None:
        if t_sys_method == "NEDT" and (nedt_k is None or tau_s is None):
            raise DomainError("t_sys_method 'NEDT' needs nedt_k and tau_s (or a pre-derived t_sys_k)")
        if t_sys_method == "sum":
            t_rx_resolvable = t_rx is not None or nf_db is not None
            if t_a is None or not t_rx_resolvable:
                raise DomainError("t_sys_method 'sum' needs t_a_k and a resolvable t_rx")

    return InstrumentRecord(
        instrument=(row.get("instrument") or "").strip(),
        mission=(row.get("mission") or "").strip(),
        category=(row.get("category") or "").strip(),
        coherence=coherence,
        f0_ghz=f0_ghz,
        bandwidth_hz=bandwidth_hz,
        bandwidth_method=bandwidth_method,
        aperture_method=aperture_method,
        a_e_m2=a_e,
        a_phys_m2=a_phys,
        eta_ap=eta_ap,
        gain_dbi=gain_dbi,
        t_a_k=t_a,
        t_a_flag=t_a_flag,
        t_rx_k=t_rx,
        t_rx_method=t_rx_method,
        nf_db=nf_db,
        t_sys_k=t_sys,
        t_sys_method=t_sys_method,
        nedt_k=nedt_k,
        tau_s=tau_s,
        rho2=rho2,
        reference=(row.get("reference") or "").strip(),
        e_free_reported=_ref_parse_cell(row, "e_free_reported"),
    )

# Cells of a row that parses; each generated row overrides a few of them.
_GOOD_CELLS = dict(zip(COLUMNS, (
    "ok,m,cat,coherent,1.0,1e6,RF,direct,1.0,,,,5,,18,,,23,sum,,,0.5,r,6.7e-12".split(",")
)))
_NUMBERS = ["1.0", " 2.5 ", "1e6", "100", "0.5", "", "0", "-1", "abc", "nan", "inf", "1e400"]
_CELL_VALUES = {
    **{c: ["DSN 70 m", " padded\t", "a,b", "line\nbreak", 'say "hi"', ""]
       for c in ("instrument", "mission", "category", "reference")},
    "coherence": ["coherent", " incoherent ", "", "laser"],
    "bandwidth_method": ["RF", "noise", " chirp", "", "guess"],
    "aperture_method": ["direct", "phys", "gain ", "", "magic"],
    "t_a_flag": ["measured", "assumed", "coh-eq", "", "weird"],
    "t_rx_method": ["direct", " NF", "", "odd"],
    "t_sys_method": ["sum", "NEDT", "", "bogus"],
    "rho2": ["", "1", "0.5", "1.5", "nan"],
    # No value <= 0: the DictReader parser accepted those (see the message test).
    "e_free_reported": ["", "6.7e-12", " 1e-9 ", "abc", "inf", "NaN"],
}
# Text columns drawn more often, so quoted commas and line breaks show up.
_OVERRIDE = st.sampled_from(COLUMNS + ("instrument", "mission", "reference") * 4).flatmap(
    lambda c: st.tuples(st.just(c), st.sampled_from(_CELL_VALUES.get(c, _NUMBERS)))
)
_ROW = st.one_of(
    st.none(),  # a blank line
    st.tuples(st.lists(_OVERRIDE, max_size=3), st.integers(-3, 2)),  # length change
)
_DOCUMENT = st.tuples(
    st.booleans(),  # the optional column is present
    st.permutations(COLUMNS),  # column order
    st.booleans(),  # padded header names
    st.sampled_from([False, False, False, True]),  # a leading blank line
    st.lists(_ROW, max_size=12),
)


def _documents(spec) -> tuple[str, str]:
    """(document, the same with unpadded header names) from a ``_DOCUMENT`` draw."""
    optional, order, padded, leading_blank, rows = spec
    columns = [c for c in order if optional or c in REQUIRED_COLUMNS]
    body = io.StringIO()
    writer = csv.writer(body)
    for row in rows:
        if row is None:
            body.write("\n")
            continue
        overrides, change = row
        cells = {**_GOOD_CELLS, **dict(overrides)}
        line = [cells[c] for c in columns]
        writer.writerow(line[:change] if change < 0 else line + ["extra"] * change)
    lead = "\n" if leading_blank else ""
    plain = ",".join(columns)
    header = ",".join(f" {c} " for c in columns) if padded else plain
    return (lead + header + "\r\n" + body.getvalue(),
            lead + plain + "\r\n" + body.getvalue())


def _parse_or_error(parse, document):
    try:
        return parse(document)
    except SchemaError as exc:
        return f"SchemaError: {exc}"


class TestParserMatchesDictReader:
    @settings(max_examples=300, deadline=None)
    @given(_DOCUMENT)
    def test_same_records_and_diagnostics(self, spec):
        document, plain = _documents(spec)
        expected = _parse_or_error(_dictreader_parse_instruments, plain)
        # Padded header names are the one intended difference: they now parse
        # like plain ones, where the DictReader parser missed every cell.
        assert _parse_or_error(parse_instruments, document) == expected
        missed = _parse_or_error(_dictreader_parse_instruments, document)
        assert document == plain or isinstance(missed, str) or missed.records == ()


# Base rows with a cell the checks need left empty, so a check that runs too
# early fires instead of the bad cell's error.
_BASE_ROWS = [_GOOD_CELLS] + [{**_GOOD_CELLS, column: ""} for column in (
    "a_e_m2", "t_rx_k", "t_sys_k", "rho2",
)]


def test_each_bad_number_beside_each_other_cell_gets_the_reference_diagnostic():
    """Every numeric cell made bad, in rows that vary one other cell over its
    listed values: the first diagnostic still comes from the first failing check."""
    numeric = [c for c in COLUMNS if _CELL_VALUES.get(c, _NUMBERS) is _NUMBERS
               or c in ("rho2", "e_free_reported")]
    body = io.StringIO()
    writer = csv.writer(body)
    for base in _BASE_ROWS:
        for bad_column in numeric:
            for bad in ("abc", "inf"):
                for column in COLUMNS:
                    for value in _CELL_VALUES.get(column, _NUMBERS):
                        cells = {**base, column: value, bad_column: bad}
                        writer.writerow([cells[c] for c in COLUMNS])
    document = ",".join(COLUMNS) + "\r\n" + body.getvalue()
    expected = _dictreader_parse_instruments(document)
    assert len(expected.diagnostics) > 10_000
    assert parse_instruments(document) == expected


def test_rejected_rows_leave_no_reference_cycle():
    # A cycle through a rejected row's exception would keep the parser's
    # frames, and with them the whole document, alive until a full collection.
    cells = {**_GOOD_CELLS, "t_sys_k": "", "t_sys_method": "NEDT", "nedt_k": "1"}
    rows = [{**cells, "tau_s": "abc"}, {**cells, "tau_s": "inf"},
            {**cells, "tau_s": "abc", "coherence": "laser"}, {**cells, "tau_s": "1"}]
    document = HEADER + ",e_free_reported\n" + "".join(
        ",".join(row[c] for c in COLUMNS) + "\n" for row in rows)
    gc.collect()
    gc.disable()
    try:
        result = parse_instruments(document)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert [d.row for d in result.diagnostics] == [2, 3, 4] and len(result.records) == 1


class TestDerive:
    def test_dsn_row(self):
        records = load_bundled_dataset().records
        dsn = derive_record(next(r for r in records if r.instrument == "DSN 70 m BWG"))
        assert dsn.e_free_vm_sqrthz == pytest.approx(E_FREE_DSN, rel=1e-12)
        assert dsn.e_free_vm_sqrthz == pytest.approx(6.7e-12, rel=0.01)

    def test_spektr_r_row(self):
        records = load_bundled_dataset().records
        row = derive_record(next(r for r in records if r.instrument == "Spektr-R 10 m"))
        assert row.e_free_vm_sqrthz == pytest.approx(E_FREE_SPEKTR_R, rel=1e-12)
        # The table quotes 1.4e-10 for this row; recomputation agrees to ~4%.
        assert row.e_free_vm_sqrthz == pytest.approx(1.4e-10, rel=0.05)

    def test_gain_tagged_synthetic_row(self):
        record = make_record(
            aperture_method="gain", a_e_m2=None, gain_dbi=45.0, f0_ghz=20.0
        )
        derived = derive_record(record)
        assert derived.a_e_m2 == pytest.approx(APERTURE_45DBI_20GHZ, rel=1e-12)

    def test_overflowing_gain_is_that_rows_diagnostic(self):
        good = make_record(instrument="good")
        bad = make_record(instrument="huge-gain", aperture_method="gain", a_e_m2=None,
                          gain_dbi=4000.0)
        derived, diagnostics = derive_records([good, bad])
        assert derived == (derive_record(good),)
        assert diagnostics == (Diagnostic(
            2, "huge-gain", "huge-gain: dB value must be <= 3082.55 dB"),)

    @pytest.mark.parametrize("overrides,message", [
        (dict(t_rx_k=None, t_rx_method="NF", nf_db=4000.0, t_sys_k=None),
         "dB value must be <= 3082.55 dB"),
        (dict(t_sys_k=None, t_sys_method="NEDT", nedt_k=1.0, bandwidth_hz=1e-300, tau_s=1e-300),
         "bandwidth x integration time 1e-300 Hz x 1e-300 s is outside the float range"),
    ], ids=["noise-figure", "nedt-bandwidth-time"])
    def test_an_overflowing_derivation_is_that_rows_diagnostic(self, overrides, message):
        good = make_record(instrument="good")
        bad = make_record(instrument="overflow", **overrides)
        derived, diagnostics = derive_records([bad, good])
        assert derived == (derive_record(good),)
        assert diagnostics == (Diagnostic(1, "overflow", f"overflow: {message}"),)

    def test_phys_tagged_row_uses_default_efficiency(self):
        record = make_record(aperture_method="phys", a_e_m2=None, a_phys_m2=1000.0)
        assert derive_record(record).a_e_m2 == pytest.approx(650.0, rel=1e-12)

    def test_phys_tagged_row_honours_given_efficiency(self):
        record = make_record(
            aperture_method="phys", a_e_m2=None, a_phys_m2=1000.0, eta_ap=0.7
        )
        assert derive_record(record).a_e_m2 == pytest.approx(700.0, rel=1e-12)

    def test_noise_figure_rule(self):
        record = make_record(
            t_rx_k=None, t_rx_method="NF", nf_db=10.0, t_sys_k=None, t_a_k=100.0
        )
        derived = derive_record(record)
        assert derived.t_rx_k == pytest.approx(2610.0, rel=1e-12)
        assert derived.t_sys_k == pytest.approx(2710.0, rel=1e-12)

    def test_nedt_rule(self):
        record = make_record(
            t_sys_method="NEDT", t_sys_k=None, t_a_k=None, t_a_flag=None,
            t_rx_k=None, t_rx_method=None, nedt_k=1.0, tau_s=1.0,
            bandwidth_hz=1e6,
        )
        assert derive_record(record).t_sys_k == pytest.approx(1000.0, rel=1e-12)

    def test_idempotent(self):
        derived, diags = derive_records(load_bundled_dataset().records)
        assert diags == ()
        assert [derive_record(r) for r in derived] == list(derived)

    def test_error_carries_record_identity(self):
        record = make_record(
            instrument="broken-instrument", aperture_method="phys",
            a_e_m2=None, a_phys_m2=None,
        )
        with pytest.raises(DomainError, match="broken-instrument"):
            derive_record(record)

    def test_invalid_eta0_env_is_one_error_not_a_diagnostic_per_row(self, monkeypatch):
        records = load_bundled_dataset().records
        derived, _ = derive_records(records)
        ranges = synthesize_all(derived)
        monkeypatch.setenv("RFSENSE_ETA0_OHMS", "abc")
        message = "RFSENSE_ETA0_OHMS must be a number, got 'abc'"
        with pytest.raises(DomainError, match=message):
            derive_records(records)
        with pytest.raises(DomainError, match=message):
            synthesize_all(derived)
        # An explicit impedance never reads the environment.
        assert derive_records(records, eta_0=CODATA.eta_0) == (derived, ())
        assert synthesize_all(derived, eta_0=CODATA.eta_0) == ranges

    def test_sum_consistency_of_bundled_rows(self):
        # Every row with both T_A and T_Rx listed satisfies T_sys = T_A + T_Rx.
        for record in load_bundled_dataset().records:
            if record.t_a_k is not None and record.t_rx_k is not None:
                assert record.t_a_k + record.t_rx_k == pytest.approx(
                    record.t_sys_k, rel=1e-9
                )


class TestConsistencyDiagnostics:
    def test_exactly_the_known_rows_flag(self):
        derived, _ = derive_records(load_bundled_dataset().records)
        flagged = {d.instrument for d in consistency_diagnostics(derived)}
        assert flagged == KNOWN_INCONSISTENT_ROWS

    def test_all_other_rows_match_within_ten_percent(self):
        derived, _ = derive_records(load_bundled_dataset().records)
        for record in derived:
            if record.instrument in KNOWN_INCONSISTENT_ROWS:
                continue
            assert record.e_free_vm_sqrthz == pytest.approx(
                record.e_free_reported, rel=0.10
            )

    def test_tolerance_is_adjustable(self):
        derived, _ = derive_records(load_bundled_dataset().records)
        # At 100% tolerance only the grossly inconsistent limb-sounder row flags.
        loose = consistency_diagnostics(derived, rel_tol=1.0)
        assert [d.instrument for d in loose] == []

    @pytest.mark.parametrize("quoted", [0.0, -1.0, math.nan])
    def test_a_non_positive_quoted_field_is_a_row_diagnostic(self, quoted):
        derived, _ = derive_records(load_bundled_dataset().records)
        records = [derived[0], derived[1]._replace(e_free_reported=quoted)]
        assert consistency_diagnostics(records) == (
            Diagnostic(2, derived[1].instrument, "e_free_reported must be > 0"),
        )


class TestSynthesize:
    def test_deep_space_row_matches_published_table(self):
        derived, _ = derive_records(load_bundled_dataset().records)
        r = synthesize_ranges(derived, "Deep-space comm.")
        assert (r.t_sys_min_k, r.t_sys_max_k) == (18.0, 28.0)
        assert (r.a_e_min_m2, r.a_e_max_m2) == (500.0, 3200.0)
        assert (r.bandwidth_min_hz, r.bandwidth_max_hz) == (1.6e7, 4.8e8)
        assert (r.e_free_min, r.e_free_max) == (5.5e-12, 1.7e-11)
        assert r.members == 2

    def test_space_vlbi_row_matches_published_table(self):
        derived, _ = derive_records(load_bundled_dataset().records)
        r = synthesize_ranges(derived, "Space VLBI")
        assert (r.t_sys_min_k, r.t_sys_max_k) == (56.0, 100.0)
        assert (r.a_e_min_m2, r.a_e_max_m2) == (10.0, 48.0)
        assert (r.e_free_min, r.e_free_max) == (1.1e-10, 3.3e-10)

    def test_frequency_bounds_are_raw_extrema(self):
        derived, _ = derive_records(load_bundled_dataset().records)
        r = synthesize_ranges(derived, "Deep-space comm.")
        assert r.f0_min_hz == pytest.approx(8.4e9)
        assert r.f0_max_hz == pytest.approx(8.45e9)

    def test_single_record_category_degenerate_bounds(self):
        record = derive_record(make_record(category="solo"))
        r = synthesize_ranges([record], "solo", sig_figs=None)
        assert r.t_sys_min_k == pytest.approx(0.8 * 23.0, rel=1e-12)
        assert r.t_sys_max_k == pytest.approx(1.2 * 23.0, rel=1e-12)
        assert r.a_e_min_m2 == pytest.approx(0.8 * 2660.0, rel=1e-12)
        assert r.a_e_max_m2 == pytest.approx(1.2 * 2660.0, rel=1e-12)
        assert r.f0_min_hz == r.f0_max_hz == pytest.approx(8.4e9)

    def test_empty_category_rejected(self):
        with pytest.raises(DomainError) as caught:
            synthesize_ranges([derive_record(make_record())], "nope")
        assert str(caught.value) == "no records in category 'nope'"

    def test_underived_records_rejected(self):
        members = [
            make_record(instrument="raw-aperture", a_e_m2=None, aperture_method="phys",
                        a_phys_m2=10.0),
            derive_record(make_record(instrument="derived")),
            make_record(instrument="raw-field"),
            derive_record(make_record(instrument="raw-tsys"))._replace(t_sys_k=None),
        ]
        for synthesize in (lambda: synthesize_ranges(members, "test-category"),
                           lambda: synthesize_all(members)):
            with pytest.raises(DomainError) as caught:
                synthesize()
            assert str(caught.value) == (
                "records not fully derived in category 'test-category': "
                "raw-aperture, raw-field, raw-tsys"
            )

    def test_mixed_rho2_rejected_naming_offenders(self):
        a = derive_record(make_record(instrument="one", rho2=1.0))
        b = derive_record(make_record(instrument="two", rho2=0.5,
                                      coherence="incoherent"))
        c = derive_record(make_record(instrument="three", rho2=1.0))
        with pytest.raises(DomainError) as exc_info:
            synthesize_ranges([a, b, c], "test-category")
        assert str(exc_info.value) == (
            "mixed rho2 within category 'test-category': "
            "one (rho2=1), two (rho2=0.5), three (rho2=1)"
        )

    def test_permutation_invariance(self):
        derived, _ = derive_records(load_bundled_dataset().records)
        forward = synthesize_ranges(derived, "Limb sounder")
        backward = synthesize_ranges(list(reversed(derived)), "Limb sounder")
        assert forward == backward

    def test_synthesize_all_covers_every_category(self):
        derived, _ = derive_records(load_bundled_dataset().records)
        ranges = synthesize_all(derived)
        assert len(ranges) == 11
        assert sum(r.members for r in ranges) == len(derived)

    # Rows of the bundled table with rho2 = 1, re-categorised and shuffled;
    # a row may get its rho2 flipped (mixed-rho2 error) or its field erased
    # (not-derived error).
    COHERENT_ROWS = [
        r for r in derive_records(load_bundled_dataset().records)[0] if r.rho2 == 1.0
    ]
    TABLE_ROW = st.tuples(
        st.integers(0, len(COHERENT_ROWS) - 1),
        st.sampled_from("abcdef"),
        st.sampled_from([None] * 8 + ["rho2", "underived"]),
    )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(TABLE_ROW, max_size=30), st.sampled_from([2, None]))
    @example([(0, "a", None), (1, "b", None), (2, "a", "rho2")], 2)
    @example([(0, "a", None), (1, "b", "underived"), (2, "b", None)], None)
    def test_synthesize_all_equals_per_category_synthesis(self, rows, sig_figs):
        records = []
        for index, category, mutation in rows:
            record = self.COHERENT_ROWS[index]._replace(category=category)
            if mutation == "rho2":
                record = record._replace(rho2=0.5)
            elif mutation == "underived":
                record = record._replace(e_free_vm_sqrthz=None)
            records.append(record)

        def outcome(build):
            try:
                return build()
            except DomainError as exc:
                return str(exc)

        first_appearance = dict.fromkeys(r.category for r in records)
        expected = outcome(lambda: tuple(
            synthesize_ranges(records, category, sig_figs) for category in first_appearance
        ))
        assert outcome(lambda: synthesize_all(records, sig_figs)) == expected

    def test_envelope_property_on_bundled_categories(self):
        derived, _ = derive_records(load_bundled_dataset().records)
        for r in synthesize_all(derived, sig_figs=None):
            for record in derived:
                if record.category != r.category:
                    continue
                assert r.e_free_min <= record.e_free_vm_sqrthz <= r.e_free_max

    @settings(max_examples=250)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=1e5),
                st.floats(min_value=1e-4, max_value=1e4),
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from([1.0, 0.5]),
    )
    def test_envelope_property_randomized(self, members, rho2):
        coherence = "coherent" if rho2 == 1.0 else "incoherent"
        records = [
            derive_record(make_record(
                instrument=f"r{i}", category="random", rho2=rho2,
                coherence=coherence, t_sys_k=t, a_e_m2=a,
                t_a_k=None, t_a_flag=None, t_rx_k=None, t_rx_method=None,
            ))
            for i, (t, a) in enumerate(members)
        ]
        bounds = synthesize_ranges(records, "random", sig_figs=None)
        for record in records:
            assert bounds.e_free_min <= record.e_free_vm_sqrthz <= bounds.e_free_max


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (103.2, 100.0),
            (27.6, 28.0),
            (1.695e-11, 1.7e-11),
            (1152.0, 1200.0),
            (13200.0, 13000.0),
            (0.0, 0.0),
            (5.4776e-12, 5.5e-12),
            (-27.6, -28.0),
        ],
    )
    def test_two_significant_figures_half_up(self, value, expected):
        assert round_to_sig_figs(value, 2) == expected

    def test_half_up_tie(self):
        assert round_to_sig_figs(0.25, 1) == 0.3
        assert round_to_sig_figs(35.0, 1) == 40.0

    def test_invalid_figures_rejected(self):
        with pytest.raises(DomainError):
            round_to_sig_figs(1.0, 0)

    # A float has at most 17 significant digits, so from 17 figures on nothing rounds.
    @pytest.mark.parametrize("figures", range(1, 41))
    def test_any_number_of_figures_rounds(self, figures):
        for value in (0.1 + 0.2, -math.pi, 123456789.12345679, 5e-324, 1e300):
            rounded = round_to_sig_figs(value, figures)
            assert math.isfinite(rounded)
            if figures >= 17:
                assert rounded == value
            else:
                assert rounded == pytest.approx(value, rel=10.0 ** (1 - figures))


class TestPlotData:
    def _ranges(self):
        derived, _ = derive_records(load_bundled_dataset().records)
        return synthesize_all(derived)

    def test_one_rectangle_per_category(self):
        document = emit_plot_data(self._ranges())
        assert len(document["rectangles"]) == 11

    def test_empty_ranges_yield_markers_only(self):
        document = emit_plot_data([])
        assert document["rectangles"] == []
        assert len(document["markers"]) == 1  # the default converter marker

    def test_rectangle_corners_pass_through_bit_exact(self):
        ranges = self._ranges()
        document = emit_plot_data(ranges)
        for bounds, rect in zip(ranges, document["rectangles"]):
            assert rect["bw_min"] == bounds.bandwidth_min_hz
            assert rect["bw_max"] == bounds.bandwidth_max_hz
            assert rect["e_min"] == bounds.e_free_min
            assert rect["e_max"] == bounds.e_free_max
            assert rect["category"] == bounds.category

    def test_converter_marker_default(self):
        document = emit_plot_data([])
        marker = document["markers"][0]
        assert marker["name"] == "mw-optical-converter"
        assert marker["e_field"] == 4e-7
        assert marker["bandwidth"] == 1e7

    def test_converter_marker_bandwidth_is_caller_set(self):
        document = emit_plot_data([], converter_bandwidth_hz=2.5e7)
        assert document["markers"][0]["bandwidth"] == 2.5e7

    def test_converter_marker_can_be_disabled(self):
        document = emit_plot_data([], include_converter_marker=False)
        assert document["markers"] == []

    def test_extra_markers_kept_in_order(self):
        document = emit_plot_data(
            [], markers=[("a", 1e6, 1e-9), ("b", 2e6, 2e-9)],
            include_converter_marker=False,
        )
        assert [m["name"] for m in document["markers"]] == ["a", "b"]

    @pytest.mark.parametrize("marker, message", [
        (("p", -1e7, math.nan), "marker 'p' bandwidth must be finite and > 0, got -10000000.0"),
        (("p", 0.0, 1e-9), "marker 'p' bandwidth must be finite and > 0, got 0.0"),
        (("p", math.inf, 1e-9), "marker 'p' bandwidth must be finite and > 0, got inf"),
        (("q", 1e7, math.nan), "marker 'q' field must be finite and > 0, got nan"),
        (("q", 1e7, -4e-7), "marker 'q' field must be finite and > 0, got -4e-07"),
    ])
    def test_a_marker_off_the_plot_is_rejected_by_name(self, marker, message):
        with pytest.raises(DomainError) as caught:
            emit_plot_data([], markers=[("ok", 1e6, 1e-9), marker])
        assert str(caught.value) == message

    def test_thermal_reference_line_is_configurable(self):
        document = emit_plot_data([], thermal_reference_field=2.4e-8)
        assert document["reference_lines"] == [
            {"name": "thermal-290K", "e_field": 2.4e-8}
        ]
        assert "reference_lines" not in emit_plot_data([])
