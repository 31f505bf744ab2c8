"""The ``dataset-*`` subcommands over the instrument table, and the JSON text of their tables."""

from operator import attrgetter

from .cli import (_JSON_TEXT, Flag, ReportTable, _append_json, _key_order, frequency_flag,
                  plain_flag)
from .errors import SchemaError


def int_flag(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def marker_flag(text: str) -> tuple[str, float, float]:
    """NAME:BANDWIDTH:E_FIELD marker, e.g. ``probe:1e7hz:4e-7``."""
    parts = text.rsplit(":", 2)
    if len(parts) != 3 or not parts[0].strip():
        raise ValueError(f"expected NAME:BANDWIDTH:E_FIELD, got {text!r}")
    name, bw_raw, field_raw = parts
    bandwidth = frequency_flag(bw_raw)
    try:
        e_field = float(field_raw)
    except ValueError as exc:
        raise ValueError(f"cannot parse field {field_raw!r}") from exc
    return name.strip(), bandwidth, e_field


def _append_table(out: list, table: ReportTable, indent: int) -> None:
    """The table as a list of objects: one piece per row, its template filled in sorted key order."""
    if not table.rows:
        out.append("[]")
        return
    from json.encoder import encode_basestring_ascii  # C speed for the many string cells

    text_of = {**_JSON_TEXT, str: encode_basestring_ascii}
    pad = "  " * indent
    inner, field = pad + "  ", pad + "    "
    order = _key_order(tuple(map(str, table.columns)))
    template = "%s{" + ",".join(f"\n{field}{key.replace('%', '%%')}: %s" for _, key in order)
    template += f"\n{inner}}}" if order else "}"
    positions = [i for i, _ in order]
    separator = "[\n" + inner
    for row in table.rows:
        cells = [row[i] for i in positions]
        try:
            text = [text_of[type(cell)](cell) for cell in cells]
        except KeyError:  # a cell of another type: the row goes the general way
            text = ["".join(_append_json([], cell, indent + 2)) for cell in cells]
        out.append(template % (separator, *text))
        separator = ",\n" + inner
    out.append(f"\n{pad}]")


def _load_dataset(path: str | None):
    from . import dataset as ds

    if path is None:
        return ds.load_bundled_dataset()
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read dataset: {exc}") from exc
    return ds.parse_instruments(text)


_RECORD_COLUMNS = (
    "instrument", "mission", "category", "coherence", "f0_hz", "bandwidth_hz",
    "a_e_m2", "t_a_k", "t_rx_k", "t_sys_k", "rho2", "e_free_v_m_sqrthz",
    "e_free_reported", "aperture_method", "t_sys_method", "t_a_flag",
)
# One report row from an InstrumentRecord; column e_free_v_m_sqrthz is field e_free_vm_sqrthz.
_record_row = attrgetter(*[c.replace("_v_m_", "_vm_") for c in _RECORD_COLUMNS])


def _cmd_dataset_derive(args) -> dict:
    from . import dataset as ds

    parsed = _load_dataset(args.input)
    derived, derive_diags = ds.derive_records(parsed.records)
    mismatch_diags = ds.consistency_diagnostics(derived, rel_tol=args.mismatch_tolerance)
    diagnostics = (*parsed.diagnostics, *derive_diags, *mismatch_diags)
    return {
        "records": ReportTable(_RECORD_COLUMNS, list(map(_record_row, derived))),
        "record_count": len(derived),
        "diagnostics": ReportTable(ds.Diagnostic._fields, diagnostics),
    }


def _cmd_dataset_ranges(args) -> dict:
    from . import dataset as ds

    parsed = _load_dataset(args.input)
    derived, derive_diags = ds.derive_records(parsed.records)
    sig_figs = None if args.no_rounding else args.sig_figs
    ranges = ds.synthesize_all(derived, sig_figs=sig_figs)
    return {
        "ranges": ReportTable(ds.CategoryRange._fields, ranges),
        "category_count": len(ranges),
        "diagnostics": ReportTable(ds.Diagnostic._fields, (*parsed.diagnostics, *derive_diags)),
    }


def _cmd_dataset_plotdata(args) -> dict:
    from . import dataset as ds

    parsed = _load_dataset(args.input)
    derived, _ = ds.derive_records(parsed.records)
    ranges = ds.synthesize_all(derived)
    bandwidth = args.converter_bandwidth
    return ds.emit_plot_data(
        ranges,
        markers=tuple(args.marker or ()),
        include_converter_marker=not args.no_converter_marker,
        converter_bandwidth_hz=(
            ds.CONVERTER_MARKER_BANDWIDTH_HZ if bandwidth is None else bandwidth
        ),
        thermal_reference_field=args.thermal_line,
    )


_DATASET = Flag("--input", None, "PATH", "dataset CSV (default: the bundled instrument table)")

COMMANDS = {
    "dataset-derive": (_cmd_dataset_derive, (
        _DATASET,
        Flag("--mismatch-tolerance", plain_flag, "REL", "relative tolerance for quoted-vs-recomputed field diagnostics (default 0.10)", 0.10))),
    "dataset-ranges": (_cmd_dataset_ranges, (
        _DATASET,
        Flag("--sig-figs", int_flag, "N", "significant digits for rounded bounds (default 2)", 2),
        Flag("--no-rounding", None, None, "emit unrounded bounds (invariant-testing mode)", False, "switch"))),
    "dataset-plotdata": (_cmd_dataset_plotdata, (
        _DATASET,
        Flag("--marker", marker_flag, "NAME:FREQ:E", "extra point marker: name, bandwidth with unit suffix, field in V/m/sqrt(Hz) (repeatable)", kind="append"),
        Flag("--converter-bandwidth", frequency_flag, "FREQ", "bandwidth coordinate with unit suffix for the built-in converter marker (default 1e7hz)"),
        Flag("--no-converter-marker", None, None, "omit the built-in converter marker", False, "switch"),
        Flag("--thermal-line", plain_flag, "V_M_SQRTHZ", "include the 290 K thermal reference line at this field value in V/m/sqrt(Hz)"))),
}
