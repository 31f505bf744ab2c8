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

import csv
import os
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from operator import itemgetter

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
from .quantities import ValidatedRecord, db_to_linear, default_eta0
from .radiometry import tsys_from_nedt

__all__ = [
    "CategoryRange",
    "Diagnostic",
    "InstrumentRecord",
    "ParseResult",
    "consistency_diagnostics",
    "derive_record",
    "derive_records",
    "emit_plot_data",
    "load_bundled_dataset",
    "parse_instruments",
    "round_to_sig_figs",
    "synthesize_all",
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
# The largest f0_ghz whose frequency in Hz, f0_ghz * 1e9, is a finite float.
_F0_GHZ_MAX = FLOAT_MAX / 1e9

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

    def __new__(cls, category, f0_min_hz, f0_max_hz, a_e_min_m2, a_e_max_m2, t_sys_min_k,
                t_sys_max_k, bandwidth_min_hz, bandwidth_max_hz, e_free_min, e_free_max, members):
        pairs = (
            (f0_min_hz, f0_max_hz),
            (a_e_min_m2, a_e_max_m2),
            (t_sys_min_k, t_sys_max_k),
            (bandwidth_min_hz, bandwidth_max_hz),
            (e_free_min, e_free_max),
        )
        for low, high in pairs:
            if low > high:
                raise DomainError(f"range bounds out of order: {low:g} > {high:g}")
        return tuple.__new__(cls, (
            category, f0_min_hz, f0_max_hz, a_e_min_m2, a_e_max_m2, t_sys_min_k, t_sys_max_k,
            bandwidth_min_hz, bandwidth_max_hz, e_free_min, e_free_max, members,
        ))


def _check_figures(figures: int) -> None:
    if type(figures) is not int:  # a count of figures: 2.5, 2.0 and True are refused
        raise DomainError(f"significant figures must be an integer, got {figures!r}")
    if figures < 1:
        raise DomainError("significant figures must be >= 1")


def round_to_sig_figs(value: float, figures: int = 2) -> float:
    """Round to ``figures`` significant digits, half-up on the shortest decimal digits.

    The digits are those of ``repr(value)``, the shortest decimal that reads
    back as ``value``, and the exponent is that of their first digit.  A 5
    followed by nothing is a tie, which rounds away from zero: 0.25 rounds to
    0.3 at one figure although the float 0.25 holds it exactly, and 2.675 to
    2.68 at three although the float lies just below 2.675.  Any number of
    figures is allowed; a value whose digits already fit is returned as is.
    """
    _check_figures(figures)
    if not -FLOAT_MAX <= value <= FLOAT_MAX:
        require("value", value, "", -FLOAT_MAX, False)
    mantissa, _, exponent = repr(value).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("-0")
    if len(digits.rstrip("0")) <= figures:
        return value
    # value = int(digits) * 10**(exponent - len(fraction)); keep the first ``figures``.
    head = int(digits[:figures]) + (digits[figures] >= "5")
    shift = len(digits) - len(fraction) - figures + (int(exponent) if exponent else 0)
    rounded = float(f"{'-' if value < 0.0 else ''}{head}e{shift}")
    if not -FLOAT_MAX <= rounded <= FLOAT_MAX:
        require("rounded value", rounded, "", -FLOAT_MAX, False)
    return rounded


def _not_finite(column: str, text: str) -> DomainError:
    return DomainError(f"{column} must be finite, got {text!r}")


def _lines(document: str) -> Iterator[str]:
    r"""The ``"\n"``-terminated lines of ``document``, as ``io.StringIO`` splits them.

    Slicing the document, rather than copying it into a ``StringIO`` buffer
    of four bytes a character, keeps a large table resident once.
    ``str.splitlines`` would also split at ``\r``, ``\x0b``, ``\x85``,
    ``\u2028`` and the other line boundaries ``csv`` reads inside a line.
    """
    start = 0
    end = document.find("\n") + 1
    while end:
        yield document[start:end]
        start = end
        end = document.find("\n", start) + 1
    if start < len(document):
        yield document[start:]


def parse_instruments(document: str) -> ParseResult:
    """Parse a dataset CSV document into instrument records.

    Malformed rows are collected into the diagnostics list rather than
    silently dropped; a missing, unknown or repeated column raises
    :class:`SchemaError` naming the column.
    """
    reader = csv.reader(_lines(document))
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
    position = {name: index for index, name in enumerate(names)}  # a repeat's last
    repeated = dict.fromkeys(name for index, name in enumerate(names) if position[name] != index)
    if repeated:
        raise SchemaError(f"repeated column(s): {', '.join(repeated)}")

    # Each row is read as exactly ``width`` cells plus one empty cell, which
    # stands in for an absent optional column.
    width = len(names)
    cells = itemgetter(*[position.get(name, width) for name in COLUMNS])
    padding = [""] * width
    records: list[InstrumentRecord] = []
    diagnostics: list[Diagnostic] = []
    for row_number, row in enumerate(filter(None, reader), start=2):
        if len(row) != width:
            row = (row + padding)[:width]
        row.append("")
        try:
            records.append(_parse_row(*map(str.strip, cells(row))))
        except (DomainError, ValueError) as exc:
            name = cells(row)[0].strip() or "<unnamed>"
            diagnostics.append(Diagnostic(row_number, name, str(exc)))
    return ParseResult(tuple(records), tuple(diagnostics))


def _parse_row(
    instrument, mission, category, coherence, f0_text, bandwidth_text, bandwidth_method,
    aperture_method, a_e_text, a_phys_text, eta_ap_text, gain_text, t_a_text, t_a_flag,
    t_rx_text, t_rx_method, nf_text, t_sys_text, t_sys_method, nedt_text, tau_text,
    rho2_text, reference, e_free_text,
) -> InstrumentRecord:
    """One record from the stripped cells of a row, in :data:`COLUMNS` order.

    An empty cell reads as ``None``.  Each numeric cell is converted and
    checked finite in place, so the first failing check of a row, in this
    order, gives its diagnostic; ``float`` raises ``ValueError`` on a cell
    that is not a number.
    """
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

    f0_ghz = float(f0_text) if f0_text else None
    if f0_text and not -FLOAT_MAX <= f0_ghz <= FLOAT_MAX:
        raise _not_finite("f0_ghz", f0_text)
    if f0_ghz is None or f0_ghz <= 0.0:
        raise DomainError("f0_ghz must be present and > 0")
    if f0_ghz > _F0_GHZ_MAX:
        raise DomainError(f"f0_ghz must be <= {_F0_GHZ_MAX:g} GHz")
    bandwidth_hz = float(bandwidth_text) if bandwidth_text else None
    if bandwidth_text and not -FLOAT_MAX <= bandwidth_hz <= FLOAT_MAX:
        raise _not_finite("bandwidth_hz", bandwidth_text)
    if bandwidth_hz is None or bandwidth_hz <= 0.0:
        raise DomainError("bandwidth_hz must be present and > 0")
    rho2 = float(rho2_text) if rho2_text else None
    if rho2_text and not -FLOAT_MAX <= rho2 <= FLOAT_MAX:
        raise _not_finite("rho2", rho2_text)
    if rho2 is None:
        rho2 = default_polarisation_coupling(coherence)
    if not 0.0 < rho2 <= 1.0:
        require("rho2", rho2, "", 0.0, True, 1.0)

    a_e = float(a_e_text) if a_e_text else None
    if a_e_text and not -FLOAT_MAX <= a_e <= FLOAT_MAX:
        raise _not_finite("a_e_m2", a_e_text)
    a_phys = float(a_phys_text) if a_phys_text else None
    if a_phys_text and not -FLOAT_MAX <= a_phys <= FLOAT_MAX:
        raise _not_finite("a_phys_m2", a_phys_text)
    eta_ap = float(eta_ap_text) if eta_ap_text else None
    if eta_ap_text and not -FLOAT_MAX <= eta_ap <= FLOAT_MAX:
        raise _not_finite("eta_ap", eta_ap_text)
    gain_dbi = float(gain_text) if gain_text else None
    if gain_text and not -FLOAT_MAX <= gain_dbi <= FLOAT_MAX:
        raise _not_finite("gain_dbi", gain_text)
    if a_e is None:
        if aperture_method == "direct":
            raise DomainError("aperture_method 'direct' needs a_e_m2")
        if aperture_method == "phys" and a_phys is None:
            raise DomainError("aperture_method 'phys' needs a_phys_m2 (or a pre-derived a_e_m2)")
        if aperture_method == "gain" and gain_dbi is None:
            raise DomainError("aperture_method 'gain' needs gain_dbi (or a pre-derived a_e_m2)")

    t_a = float(t_a_text) if t_a_text else None
    if t_a_text and not -FLOAT_MAX <= t_a <= FLOAT_MAX:
        raise _not_finite("t_a_k", t_a_text)
    t_a_flag = t_a_flag or None
    if t_a is not None and t_a_flag is None:
        t_a_flag = "measured"
    if t_a_flag is not None and t_a_flag not in T_A_FLAGS:
        raise DomainError(f"t_a_flag must be one of {T_A_FLAGS}, got {t_a_flag!r}")

    t_rx = float(t_rx_text) if t_rx_text else None
    if t_rx_text and not -FLOAT_MAX <= t_rx <= FLOAT_MAX:
        raise _not_finite("t_rx_k", t_rx_text)
    nf_db = float(nf_text) if nf_text else None
    if nf_text and not -FLOAT_MAX <= nf_db <= FLOAT_MAX:
        raise _not_finite("nf_db", nf_text)
    t_rx_method = t_rx_method or None
    if t_rx_method is None and (t_rx is not None or nf_db is not None):
        t_rx_method = "NF" if (t_rx is None and nf_db is not None) else "direct"
    if t_rx_method is not None and t_rx_method not in T_RX_METHODS:
        raise DomainError(f"t_rx_method must be one of {T_RX_METHODS}, got {t_rx_method!r}")
    if t_rx_method == "NF" and t_rx is None and nf_db is None:
        raise DomainError("t_rx_method 'NF' needs nf_db (or a pre-derived t_rx_k)")

    t_sys = float(t_sys_text) if t_sys_text else None
    if t_sys_text and not -FLOAT_MAX <= t_sys <= FLOAT_MAX:
        raise _not_finite("t_sys_k", t_sys_text)
    nedt_k = float(nedt_text) if nedt_text else None
    if nedt_text and not -FLOAT_MAX <= nedt_k <= FLOAT_MAX:
        raise _not_finite("nedt_k", nedt_text)
    tau_s = float(tau_text) if tau_text else None
    if tau_text and not -FLOAT_MAX <= tau_s <= FLOAT_MAX:
        raise _not_finite("tau_s", tau_text)
    if t_sys is None:
        if t_sys_method == "NEDT" and (nedt_k is None or tau_s is None):
            raise DomainError("t_sys_method 'NEDT' needs nedt_k and tau_s (or a pre-derived t_sys_k)")
        if t_sys_method == "sum":
            # derive_record converts nf_db to T_Rx only under the NF method.
            t_rx_resolvable = t_rx is not None or (t_rx_method == "NF" and nf_db is not None)
            if t_a is None or not t_rx_resolvable:
                raise DomainError("t_sys_method 'sum' needs t_a_k and a resolvable t_rx")

    e_free_reported = float(e_free_text) if e_free_text else None
    if e_free_text and not -FLOAT_MAX <= e_free_reported <= FLOAT_MAX:
        raise _not_finite("e_free_reported", e_free_text)
    if e_free_reported is not None:
        if not 0.0 < e_free_reported <= FLOAT_MAX:
            require("e_free_reported", e_free_reported)

    return InstrumentRecord._make((
        instrument, mission, category, coherence, f0_ghz, bandwidth_hz, bandwidth_method,
        aperture_method, a_e, a_phys, eta_ap, gain_dbi, t_a, t_a_flag, t_rx, t_rx_method,
        nf_db, t_sys, t_sys_method, nedt_k, tau_s, rho2, reference, e_free_reported, None,
    ))


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
    return InstrumentRecord._make((
        instrument, mission, category, coherence, f0_ghz, bandwidth_hz, bandwidth_method,
        aperture_method, a_e, a_phys, eta_ap, gain_dbi, t_a, t_a_flag, t_rx, t_rx_method,
        nf_db, t_sys, t_sys_method, nedt_k, tau_s, rho2, reference, e_free_reported, e_free,
    ))


def derive_records(
    records: Iterable[InstrumentRecord],
) -> tuple[tuple[InstrumentRecord, ...], tuple[Diagnostic, ...]]:
    """Derive every record, collecting failures as diagnostics.

    The impedance is read once, so an invalid ``RFSENSE_ETA0_OHMS`` raises
    one :class:`DomainError` instead of blaming every row.
    """
    eta_0 = default_eta0()
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
    if not 0.0 <= rel_tol <= FLOAT_MAX:
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


# The name and unit of each CategoryRange bound, in field order.
_BOUND_NAMES = (
    ("minimum frequency", "Hz"), ("maximum frequency", "Hz"),
    ("minimum effective aperture", "m^2"), ("maximum effective aperture", "m^2"),
    ("minimum system temperature", "K"), ("maximum system temperature", "K"),
    ("minimum bandwidth", "Hz"), ("maximum bandwidth", "Hz"),
    ("minimum field", "V/m/sqrt(Hz)"), ("maximum field", "V/m/sqrt(Hz)"),
)


def _synthesize(
    category: str,
    members: list[InstrumentRecord],
    sig_figs: int | None,
    eta_0: float,
) -> CategoryRange:
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

    # The eight scaled bounds are checked in field order, before the NEF bounds
    # and the rounding, so one that leaves the float range is named with its
    # category; the name is formatted only then.  Scaling by 1e9 is monotonic,
    # so the extrema of f0_hz are those of f0_ghz, scaled.
    bounds = (
        min(column.f0_ghz) * 1e9, max(column.f0_ghz) * 1e9,
        min(column.a_e_m2) * LOWER_MARGIN, max(column.a_e_m2) * UPPER_MARGIN,
        min(column.t_sys_k) * LOWER_MARGIN, max(column.t_sys_k) * UPPER_MARGIN,
        min(column.bandwidth_hz) * LOWER_MARGIN, max(column.bandwidth_hz) * UPPER_MARGIN,
    )
    for value, (name, unit) in zip(bounds, _BOUND_NAMES):
        if not 0.0 < value <= FLOAT_MAX:
            require(f"category {category!r} {name}", value, unit)
    f0_min, f0_max, a_min, a_max, t_min, t_max, bw_min, bw_max = bounds
    bounds = (a_min, a_max, t_min, t_max, bw_min, bw_max,
              nef_from_aperture(t_min, a_max, rho2, eta_0),
              nef_from_aperture(t_max, a_min, rho2, eta_0))
    if sig_figs is not None:
        _check_figures(sig_figs)  # bad figures are named alone, without a category
        rounded = []
        # A finite bound can still round up past the largest float.
        for value, (name, _) in zip(bounds, _BOUND_NAMES[2:]):
            try:
                rounded.append(round_to_sig_figs(value, sig_figs))
            except DomainError as exc:
                raise DomainError(f"category {category!r} {name}: {exc}") from exc
        bounds = rounded
    return CategoryRange(category, f0_min, f0_max, *bounds, len(members))


def synthesize_all(
    records: Sequence[InstrumentRecord],
    sig_figs: int | None = 2,
) -> tuple[CategoryRange, ...]:
    """Synthesize the parameter range of every category, in first-appearance order.

    Takes per-parameter extrema over each category's records, expands the
    temperature, aperture and bandwidth bounds by 0.8x/1.2x (frequency keeps
    its nominal extrema), recomputes the field bounds from the perturbed
    temperature/aperture bounds, and rounds everything except frequency to
    ``sig_figs`` significant digits (half-up).  Pass ``sig_figs=None`` to
    skip rounding.  One pass groups the records by category, so the cost is
    linear in the number of records, and the first failing category raises.
    """
    eta_0 = default_eta0()
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
        if not (0.0 < bandwidth_hz <= FLOAT_MAX and 0.0 < e_field <= FLOAT_MAX):
            require(f"marker {name!r} bandwidth", bandwidth_hz, verbose=True)
            require(f"marker {name!r} field", e_field, verbose=True)
        marker_rows.append({"name": name, "bandwidth": bandwidth_hz, "e_field": e_field})
    if include_converter_marker:
        if not 0.0 < converter_bandwidth_hz <= FLOAT_MAX:
            require("converter marker bandwidth", converter_bandwidth_hz, verbose=True)
        marker_rows.append({
            "name": CONVERTER_MARKER_NAME,
            "bandwidth": converter_bandwidth_hz,
            "e_field": CONVERTER_MARKER_NEF,
        })
    document = {"rectangles": rectangles, "markers": marker_rows}
    if thermal_reference_field is not None:
        if not 0.0 < thermal_reference_field <= FLOAT_MAX:
            require("thermal reference field", thermal_reference_field)
        document["reference_lines"] = [
            {"name": "thermal-290K", "e_field": thermal_reference_field}
        ]
    return document


# The table ships next to this module.  Reading it by path, not through
# importlib.resources, keeps that package (and the typing module it imports)
# off the cold path of every dataset call.
_BUNDLED_CSV = os.path.join(os.path.dirname(__file__), "data", "instruments.csv")


def load_bundled_dataset() -> ParseResult:
    """Parse the bundled instrument dataset."""
    with open(_BUNDLED_CSV, encoding="utf-8") as handle:
        return parse_instruments(handle.read())
