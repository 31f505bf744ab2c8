"""Instrument dataset pipeline: ingest the bundled spaceborne-receiver table,
resolve derived fields from their method tags, compute per-row equivalent
free-space fields, and synthesize per-category parameter ranges with
propagated engineering margins.

Dataset CSV schema (UTF-8, comma-separated, header required)::

    instrument, mission, category, coherence, f0_ghz, bandwidth_hz,
    bandwidth_method, aperture_method, a_e_m2, a_phys_m2, eta_ap, gain_dbi,
    t_a_k, t_a_flag, t_rx_k, t_rx_method, nf_db, t_sys_k, t_sys_method,
    nedt_k, tau_s, rho2, reference

Empty cells mean "not provided"; method tags constrain which cells must be
present.  An empty ``rho2`` cell takes the conventional value for the row's
coherence tag (1 coherent, 1/2 incoherent).  An optional trailing
``e_free_reported`` column carries the field value quoted by the dataset's
source for cross-checking; mismatches between it and the recomputed value
are surfaced as diagnostics, never silently corrected.

Parsing: column names and cells are stripped of surrounding whitespace, and
blank lines are skipped.  A parse diagnostic's ``row`` counts non-blank CSV
records with the header as row 1, so a quoted cell that spans lines is one
row; a diagnostic of :func:`derive_records` or :func:`consistency_diagnostics`
counts instead the 1-based position in the records it was given, which skips
the header and every row that failed to parse.  A short row reads its
missing cells as empty; cells beyond the header are ignored.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections import namedtuple
from collections.abc import Iterable, Sequence
from decimal import ROUND_HALF_UP, Decimal
from operator import attrgetter, itemgetter

# The pipeline uses none of these three.  They load here because the
# benchmark's tracer (bench/tracing.py, Recorder.install) wraps all six engine
# modules once it has imported rfsense.cli and rfsense.dataset, and fails on
# one that is not loaded.  Drop this import when the tracer imports them itself.
from . import linkbudget, radar, rydberg  # noqa: F401
from .errors import FLOAT_MAX, DomainError, SchemaError, require
from .fieldmetrics import (
    DEFAULT_APERTURE_EFFICIENCY,
    aperture_from_gain,
    default_polarisation_coupling,
    nef_from_aperture,
    trx_from_noise_figure,
)
from .quantities import ValidatedRecord, db_to_linear, resolve_eta0
from .radiometry import tsys_from_nedt

__all__ = [
    "CategoryRange",
    "Diagnostic",
    "InstrumentRecord",
    "ParseResult",
    "bundled_dataset_path",
    "consistency_diagnostics",
    "derive_record",
    "derive_records",
    "emit_plot_data",
    "load_bundled_dataset",
    "parse_instruments",
    "round_to_sig_figs",
    "serialize_instruments",
    "synthesize_all",
    "synthesize_ranges",
]

REQUIRED_COLUMNS = (
    "instrument", "mission", "category", "coherence", "f0_ghz",
    "bandwidth_hz", "bandwidth_method", "aperture_method", "a_e_m2",
    "a_phys_m2", "eta_ap", "gain_dbi", "t_a_k", "t_a_flag", "t_rx_k",
    "t_rx_method", "nf_db", "t_sys_k", "t_sys_method", "nedt_k", "tau_s",
    "rho2", "reference",
)
OPTIONAL_COLUMNS = ("e_free_reported",)
COLUMNS = REQUIRED_COLUMNS + OPTIONAL_COLUMNS

COHERENCE_TAGS = ("coherent", "incoherent")
BANDWIDTH_METHODS = ("RF", "noise", "chirp")
APERTURE_METHODS = ("direct", "phys", "gain")
T_A_FLAGS = ("measured", "assumed", "coh-eq")
T_RX_METHODS = ("direct", "NF")
T_SYS_METHODS = ("sum", "NEDT")

LOWER_MARGIN = 0.8
UPPER_MARGIN = 1.2

# Default coordinates of the microwave-to-optical converter marker on the
# bandwidth/field plane: inferred sensitivity 4 nV/cm/sqrt(Hz) expressed in
# V/m/sqrt(Hz); the bandwidth coordinate is representative and caller-set.
CONVERTER_MARKER_NAME = "mw-optical-converter"
CONVERTER_MARKER_NEF = 4e-7
CONVERTER_MARKER_BANDWIDTH_HZ = 1e7


class InstrumentRecord(namedtuple(
    "InstrumentRecord", COLUMNS + ("e_free_vm_sqrthz",), defaults=(None, None),
)):
    """One instrument row, raw values plus method/provenance tags.

    The fields are the :data:`COLUMNS` cells, parsed, then
    ``e_free_vm_sqrthz``, which :func:`derive_record` fills;
    ``e_free_reported`` is the source-quoted value kept for cross-checks.
    """

    __slots__ = ()

    @property
    def f0_hz(self) -> float:
        return self.f0_ghz * 1e9

    @property
    def is_derived(self) -> bool:
        return (
            self.a_e_m2 is not None
            and self.t_sys_k is not None
            and self.e_free_vm_sqrthz is not None
        )


class Diagnostic(namedtuple("Diagnostic", "row instrument message")):
    """A named, row-attributed problem found while processing the dataset."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"row {self.row} ({self.instrument}): {self.message}"


class ParseResult(namedtuple("ParseResult", "records diagnostics")):
    __slots__ = ()


class CategoryRange(ValidatedRecord, namedtuple(
    "CategoryRange",
    "category f0_min_hz f0_max_hz a_e_min_m2 a_e_max_m2 t_sys_min_k t_sys_max_k"
    " bandwidth_min_hz bandwidth_max_hz e_free_min e_free_max members",
)):
    """Synthesised parameter bounds for one receiver category.

    Frequency bounds are the raw extrema (no margin); temperature, aperture
    and bandwidth bounds carry the 0.8x/1.2x margins; the field bounds are
    recomputed from the perturbed temperature and aperture bounds so the
    physical coupling between parameters is preserved.
    """

    __slots__ = ()

    def _check(self):
        pairs = (
            (self.f0_min_hz, self.f0_max_hz),
            (self.a_e_min_m2, self.a_e_max_m2),
            (self.t_sys_min_k, self.t_sys_max_k),
            (self.bandwidth_min_hz, self.bandwidth_max_hz),
            (self.e_free_min, self.e_free_max),
        )
        for low, high in pairs:
            if low > high:
                raise DomainError(f"range bounds out of order: {low:g} > {high:g}")


def round_to_sig_figs(value: float, figures: int = 2) -> float:
    """Round to ``figures`` significant digits with half-up ties."""
    require("significant figures", figures, "", 1, False)
    if require("value", value, "", -FLOAT_MAX, False) == 0.0:
        return value
    exponent = math.floor(math.log10(abs(value)))
    # repr(value) has at most 17 significant digits, so more figures change nothing.
    quantum = Decimal(1).scaleb(exponent - min(figures, 17) + 1)
    rounded = float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))
    return require("rounded value", rounded, "", -FLOAT_MAX, False)


def _parse_cell(column: str, text: str) -> float | None:
    if not text:
        return None
    value = float(text)  # ValueError propagates to the row handler
    if not math.isfinite(value):
        raise DomainError(f"{column} must be finite, got {text!r}")
    return value


def parse_instruments(document: str) -> ParseResult:
    """Parse a dataset CSV document into instrument records.

    Malformed rows are collected into the diagnostics list rather than
    silently dropped; a missing required column raises :class:`SchemaError`
    naming the column.
    """
    reader = csv.reader(io.StringIO(document))
    header = next(reader, None)
    if header is None:
        raise SchemaError("document has no header row")
    names = [name.strip() for name in header]
    missing = [name for name in REQUIRED_COLUMNS if name not in names]
    if missing:
        raise SchemaError(f"missing required column(s): {', '.join(missing)}")
    unknown = [name for name in names if name not in COLUMNS]
    if unknown:
        raise SchemaError(f"unknown column(s): {', '.join(unknown)}")

    # Each row is read as exactly ``width`` cells plus one empty cell, which
    # stands in for an absent optional column.
    width = len(names)
    position = {name: index for index, name in enumerate(names)}
    cells = itemgetter(*[position.get(name, width) for name in COLUMNS])
    padding = [""] * width
    records: list[InstrumentRecord] = []
    diagnostics: list[Diagnostic] = []
    for row_number, row in enumerate(filter(None, reader), start=2):
        if len(row) != width:
            row = (row + padding)[:width]
        row.append("")
        values = [cell.strip() for cell in cells(row)]
        try:
            records.append(_parse_row(*values))
        except (DomainError, ValueError) as exc:
            diagnostics.append(Diagnostic(row_number, values[0] or "<unnamed>", str(exc)))
    return ParseResult(tuple(records), tuple(diagnostics))


def _parse_row(
    instrument, mission, category, coherence, f0_ghz, bandwidth_hz, bandwidth_method,
    aperture_method, a_e_m2, a_phys_m2, eta_ap, gain_dbi, t_a_k, t_a_flag, t_rx_k,
    t_rx_method, nf_db, t_sys_k, t_sys_method, nedt_k, tau_s, rho2, reference,
    e_free_reported,
) -> InstrumentRecord:
    """One record from the stripped cells of a row, in :data:`COLUMNS` order."""
    coherence = coherence or None
    if coherence not in COHERENCE_TAGS:
        raise DomainError(f"coherence must be one of {COHERENCE_TAGS}, got {coherence!r}")
    bandwidth_method = bandwidth_method or None
    if bandwidth_method not in BANDWIDTH_METHODS:
        raise DomainError(f"bandwidth_method must be one of {BANDWIDTH_METHODS}, got {bandwidth_method!r}")
    aperture_method = aperture_method or None
    if aperture_method not in APERTURE_METHODS:
        raise DomainError(f"aperture_method must be one of {APERTURE_METHODS}, got {aperture_method!r}")
    t_sys_method = t_sys_method or None
    if t_sys_method not in T_SYS_METHODS:
        raise DomainError(f"t_sys_method must be one of {T_SYS_METHODS}, got {t_sys_method!r}")

    f0_ghz = _parse_cell("f0_ghz", f0_ghz)
    if f0_ghz is None or f0_ghz <= 0.0:
        raise DomainError("f0_ghz must be present and > 0")
    bandwidth_hz = _parse_cell("bandwidth_hz", bandwidth_hz)
    if bandwidth_hz is None or bandwidth_hz <= 0.0:
        raise DomainError("bandwidth_hz must be present and > 0")
    rho2 = _parse_cell("rho2", rho2)
    if rho2 is None:
        rho2 = default_polarisation_coupling(coherence)
    require("rho2", rho2, "", 0.0, True, 1.0)

    a_e = _parse_cell("a_e_m2", a_e_m2)
    a_phys = _parse_cell("a_phys_m2", a_phys_m2)
    eta_ap = _parse_cell("eta_ap", eta_ap)
    gain_dbi = _parse_cell("gain_dbi", gain_dbi)
    if a_e is None:
        if aperture_method == "direct":
            raise DomainError("aperture_method 'direct' needs a_e_m2")
        if aperture_method == "phys" and a_phys is None:
            raise DomainError("aperture_method 'phys' needs a_phys_m2 (or a pre-derived a_e_m2)")
        if aperture_method == "gain" and gain_dbi is None:
            raise DomainError("aperture_method 'gain' needs gain_dbi (or a pre-derived a_e_m2)")

    t_a = _parse_cell("t_a_k", t_a_k)
    t_a_flag = t_a_flag or None
    if t_a is not None and t_a_flag is None:
        t_a_flag = "measured"
    if t_a_flag is not None and t_a_flag not in T_A_FLAGS:
        raise DomainError(f"t_a_flag must be one of {T_A_FLAGS}, got {t_a_flag!r}")

    t_rx = _parse_cell("t_rx_k", t_rx_k)
    nf_db = _parse_cell("nf_db", nf_db)
    t_rx_method = t_rx_method or None
    if t_rx_method is None and (t_rx is not None or nf_db is not None):
        t_rx_method = "NF" if (t_rx is None and nf_db is not None) else "direct"
    if t_rx_method is not None and t_rx_method not in T_RX_METHODS:
        raise DomainError(f"t_rx_method must be one of {T_RX_METHODS}, got {t_rx_method!r}")
    if t_rx_method == "NF" and t_rx is None and nf_db is None:
        raise DomainError("t_rx_method 'NF' needs nf_db (or a pre-derived t_rx_k)")

    t_sys = _parse_cell("t_sys_k", t_sys_k)
    nedt_k = _parse_cell("nedt_k", nedt_k)
    tau_s = _parse_cell("tau_s", tau_s)
    if t_sys is None:
        if t_sys_method == "NEDT" and (nedt_k is None or tau_s is None):
            raise DomainError("t_sys_method 'NEDT' needs nedt_k and tau_s (or a pre-derived t_sys_k)")
        if t_sys_method == "sum":
            t_rx_resolvable = t_rx is not None or nf_db is not None
            if t_a is None or not t_rx_resolvable:
                raise DomainError("t_sys_method 'sum' needs t_a_k and a resolvable t_rx")

    e_free_reported = _parse_cell("e_free_reported", e_free_reported)
    if e_free_reported is not None:
        require("e_free_reported", e_free_reported)

    return InstrumentRecord(
        instrument, mission, category, coherence, f0_ghz, bandwidth_hz, bandwidth_method,
        aperture_method, a_e, a_phys, eta_ap, gain_dbi, t_a, t_a_flag, t_rx, t_rx_method,
        nf_db, t_sys, t_sys_method, nedt_k, tau_s, rho2, reference, e_free_reported,
    )


def serialize_instruments(records: Iterable[InstrumentRecord]) -> str:
    """Serialize records back to the dataset CSV schema (RFC-4180)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(COLUMNS)
    # str(float) is its shortest round-tripping repr; None is an empty cell.
    cells = attrgetter(*COLUMNS)
    writer.writerows(["" if v is None else str(v) for v in cells(r)] for r in records)
    return out.getvalue()


def derive_record(record: InstrumentRecord, eta_0: float | None = None) -> InstrumentRecord:
    """Resolve the derived fields of one record.

    Fills the effective aperture via its method tag (direct value; physical
    area times aperture efficiency, default 0.65; or gain through
    A_e = G*lambda^2/(4*pi)), the receiver temperature via the noise-figure
    rule where tagged, the system temperature via the sum or NEDT rule, and
    the per-row equivalent free-space field.  Idempotent: deriving an
    already-derived record returns an equal record.
    """
    (instrument, mission, category, coherence, f0_ghz, bandwidth_hz, bandwidth_method,
     aperture_method, a_e, a_phys, eta_ap, gain_dbi, t_a, t_a_flag, t_rx, t_rx_method,
     nf_db, t_sys, t_sys_method, nedt_k, tau_s, rho2, reference, e_free_reported, _) = record
    try:
        if a_e is None:
            if aperture_method == "phys" and a_phys is not None:
                a_e = (DEFAULT_APERTURE_EFFICIENCY if eta_ap is None else eta_ap) * a_phys
            elif aperture_method == "gain" and gain_dbi is not None:
                a_e = aperture_from_gain(db_to_linear(gain_dbi), f0_ghz * 1e9)
            else:
                raise DomainError("no aperture value available")
        if t_rx is None and t_rx_method == "NF" and nf_db is not None:
            t_rx = trx_from_noise_figure(nf_db)
        if t_sys is None:
            if t_sys_method == "NEDT":
                if nedt_k is None or tau_s is None:
                    raise DomainError("NEDT rule needs nedt_k and tau_s")
                t_sys = tsys_from_nedt(nedt_k, bandwidth_hz, tau_s)
            else:
                if t_a is None or t_rx is None:
                    raise DomainError("cannot form T_sys = T_A + T_Rx: missing term")
                t_sys = t_a + t_rx
        e_free = nef_from_aperture(t_sys, a_e, rho2, eta_0)
    except DomainError as exc:
        raise DomainError(f"{instrument}: {exc}") from exc
    return InstrumentRecord(
        instrument, mission, category, coherence, f0_ghz, bandwidth_hz, bandwidth_method,
        aperture_method, a_e, a_phys, eta_ap, gain_dbi, t_a, t_a_flag, t_rx, t_rx_method,
        nf_db, t_sys, t_sys_method, nedt_k, tau_s, rho2, reference, e_free_reported, e_free,
    )


def derive_records(
    records: Iterable[InstrumentRecord],
    eta_0: float | None = None,
) -> tuple[tuple[InstrumentRecord, ...], tuple[Diagnostic, ...]]:
    """Derive every record, collecting failures as diagnostics.

    ``eta_0`` is resolved once, so an invalid ``RFSENSE_ETA0_OHMS`` raises
    one :class:`DomainError` instead of blaming every row.
    """
    eta_0 = resolve_eta0(eta_0)
    derived: list[InstrumentRecord] = []
    diagnostics: list[Diagnostic] = []
    for index, record in enumerate(records, start=1):
        try:
            derived.append(derive_record(record, eta_0))
        except DomainError as exc:
            diagnostics.append(Diagnostic(index, record.instrument, str(exc)))
    return tuple(derived), tuple(diagnostics)


def consistency_diagnostics(
    records: Iterable[InstrumentRecord],
    rel_tol: float = 0.10,
) -> tuple[Diagnostic, ...]:
    """Compare recomputed field values against source-quoted ones.

    The recomputation from each row's own (T_sys, A_e, rho^2) is the oracle;
    rows whose quoted value deviates by more than ``rel_tol`` relative are
    reported as dataset diagnostics.  These mark internal inconsistencies of
    the source table, not pipeline failures, and must stay visible.
    """
    require("rel_tol", rel_tol, "", 0.0, False)
    diagnostics: list[Diagnostic] = []
    for index, record in enumerate(records, start=1):
        # Two field reads into locals: faster here than unpacking all 25 fields.
        reported, computed = record.e_free_reported, record.e_free_vm_sqrthz
        if reported is None or computed is None:
            continue
        if not reported > 0.0:
            diagnostics.append(Diagnostic(index, record.instrument, "e_free_reported must be > 0"))
            continue
        relative = abs(computed - reported) / reported
        if relative > rel_tol:
            diagnostics.append(Diagnostic(
                index,
                record.instrument,
                f"quoted field {reported:.3g} V/m/sqrt(Hz) deviates from the value "
                f"recomputed from (T_sys, A_e, rho^2) = {computed:.3g} by "
                f"{relative * 100:.1f}% (> {rel_tol * 100:.0f}%)",
            ))
    return tuple(diagnostics)


def synthesize_ranges(
    records: Sequence[InstrumentRecord],
    category: str,
    sig_figs: int | None = 2,
    eta_0: float | None = None,
) -> CategoryRange:
    """Synthesize the parameter range of one category.

    Takes per-parameter extrema over the category's records, expands the
    temperature, aperture and bandwidth bounds by 0.8x/1.2x (frequency keeps
    its nominal extrema), recomputes the field bounds from the perturbed
    temperature/aperture bounds, and rounds everything except frequency to
    ``sig_figs`` significant digits (half-up).  Pass ``sig_figs=None`` to
    skip rounding.
    """
    return _synthesize(category, [r for r in records if r.category == category], sig_figs, eta_0)


def _synthesize(
    category: str,
    members: list[InstrumentRecord],
    sig_figs: int | None,
    eta_0: float | None,
) -> CategoryRange:
    if not members:
        raise DomainError(f"no records in category {category!r}")
    # One record whose every field is the tuple of the members' values.
    column = InstrumentRecord._make(zip(*members))
    if None in column.a_e_m2 or None in column.t_sys_k or None in column.e_free_vm_sqrthz:
        not_derived = [r.instrument for r in members if not r.is_derived]
        raise DomainError(
            f"records not fully derived in category {category!r}: " + ", ".join(not_derived)
        )
    rho2 = column.rho2[0]
    if len(set(column.rho2)) > 1:
        offenders = ", ".join(
            f"{name} (rho2={value:g})" for name, value in zip(column.instrument, column.rho2)
        )
        raise DomainError(f"mixed rho2 within category {category!r}: {offenders}")

    t_min = min(column.t_sys_k) * LOWER_MARGIN
    t_max = max(column.t_sys_k) * UPPER_MARGIN
    a_min = min(column.a_e_m2) * LOWER_MARGIN
    a_max = max(column.a_e_m2) * UPPER_MARGIN
    bw_min = min(column.bandwidth_hz) * LOWER_MARGIN
    bw_max = max(column.bandwidth_hz) * UPPER_MARGIN
    bounds = (a_min, a_max, t_min, t_max, bw_min, bw_max,
              nef_from_aperture(t_min, a_max, rho2, eta_0),
              nef_from_aperture(t_max, a_min, rho2, eta_0))
    if sig_figs is not None:
        bounds = [round_to_sig_figs(value, sig_figs) for value in bounds]
    # Scaling by 1e9 is monotonic, so the extrema of f0_hz are those of f0_ghz, scaled.
    return CategoryRange(
        category, min(column.f0_ghz) * 1e9, max(column.f0_ghz) * 1e9, *bounds, len(members)
    )


def synthesize_all(
    records: Sequence[InstrumentRecord],
    sig_figs: int | None = 2,
    eta_0: float | None = None,
) -> tuple[CategoryRange, ...]:
    """Synthesize every category, in first-appearance order.

    One pass groups the records by category, so the cost is linear in the
    number of records; each range equals ``synthesize_ranges(records,
    category, sig_figs, eta_0)``, and the first failing category raises.
    """
    eta_0 = resolve_eta0(eta_0)
    groups: dict[str, list[InstrumentRecord]] = {}
    for record in records:
        groups.setdefault(record.category, []).append(record)
    return tuple(
        _synthesize(category, members, sig_figs, eta_0)
        for category, members in groups.items()
    )


def emit_plot_data(
    ranges: Sequence[CategoryRange],
    markers: Sequence[tuple[str, float, float]] = (),
    include_converter_marker: bool = True,
    converter_bandwidth_hz: float = CONVERTER_MARKER_BANDWIDTH_HZ,
    thermal_reference_field: float | None = None,
) -> dict:
    """Build the bandwidth/field plot-data document.

    One rectangle per category (bandwidth span by field span, corner values
    passed through bit-exactly), plus named point markers.  The converter
    marker is included by default at its quoted sensitivity,
    ``CONVERTER_MARKER_NEF`` = 4e-7 V/m/sqrt(Hz), with a caller-supplied
    bandwidth coordinate.  The 290 K free-space thermal
    reference line has no closed form here and is therefore a configurable
    constant: supply ``thermal_reference_field`` to include it.
    """
    rectangles = [
        {
            "category": r.category,
            "bw_min": r.bandwidth_min_hz,
            "bw_max": r.bandwidth_max_hz,
            "e_min": r.e_free_min,
            "e_max": r.e_free_max,
        }
        for r in ranges
    ]
    marker_rows = []
    for name, bandwidth_hz, e_field in markers:
        require(f"marker {name!r} bandwidth", bandwidth_hz, verbose=True)
        require(f"marker {name!r} field", e_field, verbose=True)
        marker_rows.append({"name": name, "bandwidth": bandwidth_hz, "e_field": e_field})
    if include_converter_marker:
        require("converter marker bandwidth", converter_bandwidth_hz, verbose=True)
        marker_rows.append({
            "name": CONVERTER_MARKER_NAME,
            "bandwidth": converter_bandwidth_hz,
            "e_field": CONVERTER_MARKER_NEF,
        })
    document = {"rectangles": rectangles, "markers": marker_rows}
    if thermal_reference_field is not None:
        require("thermal reference field", thermal_reference_field)
        document["reference_lines"] = [
            {"name": "thermal-290K", "e_field": thermal_reference_field}
        ]
    return document


# The table ships next to this module.  Reading it by path, not through
# importlib.resources, keeps that package (and the typing module it imports)
# off the cold path of every dataset call.
_BUNDLED_CSV = os.path.join(os.path.dirname(__file__), "data", "instruments.csv")


def bundled_dataset_path():
    """Path of the dataset CSV shipped with the package, a ``pathlib.Path``."""
    from pathlib import Path

    return Path(_BUNDLED_CSV)


def load_bundled_dataset() -> ParseResult:
    """Parse the bundled instrument dataset."""
    with open(_BUNDLED_CSV, encoding="utf-8") as handle:
        return parse_instruments(handle.read())
