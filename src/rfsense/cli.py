"""Command-line front end: every engine computation behind a subcommand.

Conventions at this boundary:

- Ambiguous numeric flags require a unit suffix (``--bandwidth 1e9hz``,
  ``--tx-power 20dbw``, ``--gain 1.5lin``); dB flags always carry their
  reference (dbw/dbm/dbi/db/dbhz) so a bare number can never be mistaken
  for the wrong scale.
- A flag is given as ``--flag value``, ``--flag=value`` or a unique prefix (``--diam 34m``).
- Reports are deterministic byte-for-byte: stable key order, numbers at six
  significant digits, scientific notation outside [1e-3, 1e6).
- Each handler imports the engine module it calls, so a cold call loads
  only the modules its ``OPERATION_MAP`` entry names (and what they
  import), besides this one, ``errors`` and ``quantities``.
- Exit codes: 0 success, 2 usage or domain error (one stderr line, e.g.
  ``domain-error: ...``), 3 schema/parse error or an unreadable input or
  unwritable output (one stderr line, ``schema-error: ...``).
"""

from __future__ import annotations

import json as _json_module
import math
import re
import sys
import types
from collections import namedtuple
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter

from .errors import DomainError, SchemaError, require
from .quantities import db_to_linear, frequency_to_wavelength, linear_to_db, power_from_field

__all__ = ["OPERATION_MAP", "build_parser", "format_number", "main", "render_json"]

# Subcommand -> engine operations it exposes.  Every public operation is
# listed under exactly one subcommand; a coverage test enforces this.
OPERATION_MAP: dict[str, tuple[str, ...]] = {
    "nedt": (
        "radiometry.nedt",
        "radiometry.radiometer_output_power",
        "radiometry.tsys_from_nedt",
    ),
    "calibrate": ("radiometry.calibrate_hot_cold",),
    "radar": (
        "radar.received_power",
        "radar.processed_received_power",
        "radar.processing_gain_from_pulse",
        "radar.noise_power",
        "radar.snr",
        "radar.nesz",
        "radar.nesz_at_unit_snr",
        "radar.range_resolution",
        "radar.max_range_ratio",
    ),
    "budget": (
        "linkbudget.eirp",
        "linkbudget.system_noise_temperature",
        "linkbudget.figure_of_merit",
        "linkbudget.free_space_loss",
        "linkbudget.total_loss",
        "linkbudget.c_over_n0",
        "linkbudget.eb_over_n0",
        "linkbudget.evaluate_link",
    ),
    "nef": (
        "fieldmetrics.sefd",
        "fieldmetrics.nef_from_aperture",
        "fieldmetrics.nef_from_gain",
        "fieldmetrics.aperture_from_gain",
        "fieldmetrics.aperture_from_diameter",
        "fieldmetrics.default_polarisation_coupling",
    ),
    "convert": (
        "quantities.db_to_linear",
        "quantities.linear_to_db",
        "quantities.frequency_to_wavelength",
        "quantities.power_from_field",
        "fieldmetrics.tsys_from_nef",
        "fieldmetrics.trx_from_noise_figure",
    ),
    "enhance": (
        "fieldmetrics.enhancement_factor_cavity",
        "fieldmetrics.local_field_requirement",
        "fieldmetrics.meets_classical_reference",
    ),
    "rydberg": (
        "rydberg.dipole_moment",
        "rydberg.qpn_nef",
        "rydberg.photon_shot_noise_nep",
        "rydberg.rabi_from_field",
        "rydberg.field_from_rabi",
        "rydberg.ac_stark_shift",
        "rydberg.compare_to_classical",
    ),
    "dataset-derive": (
        "dataset.parse_instruments",
        "dataset.serialize_instruments",
        "dataset.derive_record",
        "dataset.derive_records",
        "dataset.consistency_diagnostics",
        "dataset.load_bundled_dataset",
        "dataset.bundled_dataset_path",
    ),
    "dataset-ranges": (
        "dataset.synthesize_ranges",
        "dataset.synthesize_all",
        "dataset.round_to_sig_figs",
    ),
    "dataset-plotdata": ("dataset.emit_plot_data",),
}

# ---------------------------------------------------------------------------
# Flag value parsing (magnitude + unit suffix)

_QUANTITY_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([a-zA-Z][a-zA-Z0-9/^]*)?$"
)

_FREQUENCY = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12}
_TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
_DISTANCE = {"m": 1.0, "km": 1e3, "mm": 1e-3}
_TEMPERATURE = {"k": 1.0}
_AREA = {"m2": 1.0, "m^2": 1.0}
_VOLUME = {"m3": 1.0, "m^3": 1.0}
_POWER = {"w": 1.0, "mw": 1e-3, "uw": 1e-6, "nw": 1e-9}


def _split_quantity(text: str) -> tuple[float, str]:
    match = _QUANTITY_RE.match(text.strip())
    if match is None:
        raise ValueError(f"cannot parse quantity {text!r}")
    value = float(match.group(1))
    if not math.isfinite(value):
        raise ValueError(f"value {text!r} overflows the float range")
    return value, (match.group(2) or "").lower()


def _scaled(kind: str, table: dict[str, float], require_suffix: bool):
    def parse(text: str) -> float:
        value, suffix = _split_quantity(text)
        if not suffix:
            if require_suffix:
                units = "/".join(sorted(table))
                raise ValueError(f"{kind} value {text!r} needs a unit suffix ({units})")
            return value
        if suffix not in table:
            units = "/".join(sorted(table))
            raise ValueError(f"unknown {kind} unit {suffix!r} (expected {units})")
        value *= table[suffix]
        if not math.isfinite(value):
            raise ValueError(f"{kind} {text!r} overflows the float range")
        return value

    return parse


frequency_flag = _scaled("frequency", _FREQUENCY, require_suffix=True)
time_flag = _scaled("time", _TIME, require_suffix=True)
distance_flag = _scaled("distance", _DISTANCE, require_suffix=True)
temperature_flag = _scaled("temperature", _TEMPERATURE, require_suffix=False)
area_flag = _scaled("area", _AREA, require_suffix=False)
volume_flag = _scaled("volume", _VOLUME, require_suffix=False)
power_flag = _scaled("power", _POWER, require_suffix=False)


def plain_flag(text: str) -> float:
    value, suffix = _split_quantity(text)
    if suffix:
        raise ValueError(f"value {text!r} must be a plain number (got unit {suffix!r})")
    return value


def db_flag(*references: str):
    """Decibel flag parser requiring one of the given reference suffixes.

    ``dbm`` values are converted to dBW so the engine sees one reference.
    """

    def parse(text: str) -> float:
        value, suffix = _split_quantity(text)
        if suffix not in references:
            expected = "/".join(references)
            raise ValueError(f"dB value {text!r} needs an explicit reference suffix ({expected})")
        if suffix == "dbm":
            return value - 30.0
        return value

    return parse


def gain_flag(text: str) -> float:
    """Antenna/system gain: explicit 'dbi' or 'lin' suffix, returns linear."""
    value, suffix = _split_quantity(text)
    if suffix == "dbi":
        return db_to_linear(value)
    if suffix == "lin":
        return value
    raise ValueError(f"gain {text!r} needs an explicit 'dbi' or 'lin' suffix")


def ratio_db_flag(text: str) -> float:
    """Power ratio in dB (suffix 'db') that the handler turns into a linear
    factor, so its linear value must fit the float range."""
    value = db_flag("db")(text)
    db_to_linear(value)
    return value


def named_db_flag(text: str) -> tuple[str, float]:
    """NAME=VALUEdb pair, e.g. ``fsl=206.5db``."""
    if "=" not in text:
        raise ValueError(f"expected NAME=VALUEdb, got {text!r}")
    name, _, raw = text.partition("=")
    name = name.strip()
    if not name:
        raise ValueError(f"empty name in {text!r}")
    return name, db_flag("db")(raw)


def calibration_point_flag(text: str) -> tuple[float, float]:
    """TEMP:POWER pair in K and W, e.g. ``77:1.06e-11``."""
    if ":" not in text:
        raise ValueError(f"expected TEMP_K:POWER_W, got {text!r}")
    left, _, right = text.partition(":")
    try:
        return float(left), float(right)
    except ValueError as exc:
        raise ValueError(f"cannot parse point {text!r}") from exc


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


# ---------------------------------------------------------------------------
# Deterministic rendering

def format_number(x: float) -> str:
    """Fixed formatting: 6 significant digits; scientific outside [1e-3, 1e6)."""
    if 1e-3 <= abs(x) < 1e6 and x is not True:  # the common case; NaN fails, True is a bool
        return f"{x:.6g}"
    if isinstance(x, bool):
        return "true" if x else "false"
    if x != x or math.isinf(x):
        raise DomainError("cannot format a non-finite number")
    return "0" if x == 0 else f"{x:.5e}"


# Rows of scalar cells, each a tuple in ``columns`` order: renders like a list of
# one dict per row, and is the CSV report of a handler that returns it.
ReportTable = namedtuple("ReportTable", "columns rows")


@lru_cache(maxsize=256)
def _key_order(keys: tuple[str, ...]) -> tuple[tuple[int, str], ...]:
    """(position, quoted key) of each key, in sorted order; stable for equal keys."""
    return tuple((i, _quote(k)) for i, k in sorted(enumerate(keys), key=itemgetter(1)))


def _render_json_value(value, indent: int) -> str:
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if type(value) is ReportTable:
        return _render_table(value, indent)
    # Exact types: a record is a tuple subclass and must not render as a list.
    if type(value) not in (dict, list, tuple):
        raise DomainError(f"cannot serialize {type(value).__name__}")
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    pad = "  " * indent
    inner = pad + "  "
    if isinstance(value, dict):
        # Ordered by str(k), all the output uses, so keys 1, True and 1.0 stay apart.
        values = list(value.values())
        body = f",\n{inner}".join([
            f"{key}: {_render_json_value(values[i], indent + 1)}"
            for i, key in _key_order(tuple(map(str, value)))
        ])
        return f"{{\n{inner}{body}\n{pad}}}"
    body = f",\n{inner}".join([_render_json_value(v, indent + 1) for v in value])
    return f"[\n{inner}{body}\n{pad}]"


def _render_table(table: ReportTable, indent: int) -> str:
    """The table as a list of objects: every row fills one template in sorted key order."""
    if not table.rows:
        return "[]"
    pad = "  " * indent
    inner, field = pad + "  ", pad + "    "
    order = _key_order(tuple(map(str, table.columns)))
    template = "{" + ",".join(f"\n{field}{key.replace('%', '%%')}: %s" for _, key in order)
    template += f"\n{inner}}}" if order else "}"
    body = f",\n{inner}".join([
        template % tuple([_render_json_value(row[i], indent + 2) for i, _ in order])
        for row in table.rows
    ])
    return f"[\n{inner}{body}\n{pad}]"


def render_json(payload: dict) -> str:
    """Deterministic JSON: sorted keys, fixed numeric formatting."""
    return _render_json_value(payload, 0) + "\n"


def _flatten(items, prefix: str = "") -> list[tuple[str, object]]:
    """(path, value) of every leaf below the (key, value) pairs ``items``."""
    rows: list[tuple[str, object]] = []
    for key, value in items:
        path = f"{prefix}{key}"
        if type(value) is dict:
            rows.extend(_flatten(value.items(), path + "."))
        elif type(value) is ReportTable:
            for i, row in enumerate(value.rows):
                rows.extend(_flatten(zip(value.columns, row), f"{path}[{i}]."))
        elif type(value) in (list, tuple):
            for i, item in enumerate(value):
                if type(item) is dict:
                    rows.extend(_flatten(item.items(), f"{path}[{i}]."))
                else:
                    rows.append((f"{path}[{i}]", item))
        else:
            rows.append((path, value))
    return rows


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    return str(value)


def _render_csv_rows(rows: list) -> str:
    def quote(cell: str) -> str:
        if any(ch in cell for ch in ",\"\r\n"):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    return "".join(",".join(quote(c) for c in row) + "\r\n" for row in rows)


def render_report(payload: dict, fmt: str, table: ReportTable | None = None) -> str:
    if fmt == "json":
        return render_json(payload)
    if fmt == "csv":
        if table is None:
            table = ReportTable(("key", "value"), _flatten(payload.items()))
        return _render_csv_rows([table.columns, *[map(_cell_text, row) for row in table.rows]])
    if fmt == "text":
        return "".join(f"{k} = {_cell_text(v)}\n" for k, v in _flatten(payload.items()))
    raise SchemaError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (payload, the CSV report's table or None).

def _cmd_nedt(args) -> tuple[dict, None]:
    from . import radiometry as rm

    require("--bandwidth", args.bandwidth)
    require("--integration-time", args.integration_time)
    if args.nedt is not None:
        require("--nedt", args.nedt)
        t_sys = rm.tsys_from_nedt(
            args.nedt, args.bandwidth, args.integration_time, args.gain_stability
        )
        return {"system_temperature_k": t_sys, "nedt_k": args.nedt}, None

    if args.antenna_temp is None or args.receiver_temp is None:
        raise DomainError("--antenna-temp and --receiver-temp are required "
                          "(or use --nedt for the inverse)")
    model = rm.ReceiverNoiseModel(
        antenna_temperature_k=args.antenna_temp,
        receiver_temperature_k=args.receiver_temp,
        bandwidth_hz=args.bandwidth,
        integration_time_s=args.integration_time,
        gain_stability=args.gain_stability,
    )
    payload = {
        "nedt_k": rm.nedt(model),
        "system_temperature_k": model.system_temperature_k,
    }
    if args.gain is not None:
        payload["output_power_w"] = rm.radiometer_output_power(
            args.gain, args.antenna_temp, args.receiver_temp, args.bandwidth
        )
    return payload, None


def _cmd_calibrate(args) -> tuple[dict, None]:
    from . import radiometry as rm

    require("--bandwidth", args.bandwidth)
    points = [rm.CalibrationPoint(t, p) for t, p in args.point]
    result = rm.calibrate_hot_cold(points, args.bandwidth)
    payload = {
        "gain": result.gain,
        "gain_db": linear_to_db(result.gain),
        "receiver_temperature_k": result.receiver_temperature_k,
        "points_used": len(points),
        "warnings": list(result.warnings),
    }
    return payload, None


def _cmd_radar(args) -> tuple[dict, None]:
    from . import radar as rd

    if args.wavelength is not None:
        wavelength = args.wavelength
    elif args.frequency is not None:
        wavelength = frequency_to_wavelength(args.frequency)
    else:
        raise DomainError("one of --frequency or --wavelength is required")

    processing_gain = args.processing_gain
    payload: dict = {}
    if args.pulse_width is not None:
        if args.bandwidth is None:
            raise DomainError("--pulse-width needs --bandwidth to form B*tau_p")
        processing_gain = rd.processing_gain_from_pulse(args.bandwidth, args.pulse_width)
        payload["processing_gain"] = processing_gain

    if args.sigma is not None and args.sigma0 is not None:
        raise DomainError("give either --sigma or --sigma0, not both")
    if args.sigma is not None:
        target: rd.PointTarget | rd.ResolutionCell = rd.PointTarget(args.sigma)
    elif args.sigma0 is not None:
        if args.cell_area is None:
            raise DomainError("--sigma0 needs --cell-area")
        target = rd.ResolutionCell(args.sigma0, args.cell_area)
    else:
        raise DomainError("a target is required: --sigma or --sigma0 with --cell-area")

    scenario = rd.RadarScenario(
        transmit_power_w=args.tx_power,
        transmit_gain=args.tx_gain,
        receive_gain=args.rx_gain,
        wavelength_m=wavelength,
        target=target,
        range_m=args.range,
        system_loss=db_to_linear(args.system_loss),
        propagation_loss=db_to_linear(args.propagation_loss),
        processing_gain=processing_gain,
        system_temperature_k=args.tsys,
        bandwidth_hz=args.bandwidth,
    )

    if isinstance(target, rd.PointTarget):
        p_r = rd.received_power(scenario)
        payload["received_power_w"] = p_r
    else:
        p_r = rd.processed_received_power(scenario)
        payload["processed_received_power_w"] = p_r

    if args.tsys is not None and args.bandwidth is not None:
        p_n = rd.noise_power(args.tsys, args.bandwidth)
        payload["noise_power_w"] = p_n
        ratio = rd.snr(p_r, p_n)
        payload["snr"] = ratio
        if ratio > 0.0:
            payload["snr_db"] = linear_to_db(ratio)
        if isinstance(target, rd.ResolutionCell):
            payload["nesz"] = rd.nesz(target.sigma0, ratio)
            payload["nesz_at_unit_snr"] = rd.nesz_at_unit_snr(scenario)
    if args.bandwidth is not None:
        payload["range_resolution_m"] = rd.range_resolution(args.bandwidth)
    if args.compare_tsys is not None:
        if args.tsys is None:
            raise DomainError("--compare-tsys needs --tsys")
        payload["max_range_ratio"] = rd.max_range_ratio(args.tsys, args.compare_tsys)
    return payload, None


def _budget_fields_from_json(path: str) -> dict:
    """The ``LinkBudget`` fields of a flat JSON budget document."""
    from . import linkbudget as lb

    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = _json_module.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read budget file: {exc}") from exc
    except _json_module.JSONDecodeError as exc:
        raise SchemaError(f"budget file is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError("budget document must be a JSON object")
    try:
        losses = tuple(
            (str(name), float(value))
            for name, value in dict(document["losses_db"]).items()
        )
        thresholds = document.get("thresholds_db")
        return dict(
            transmit_power_dbw=float(document["tx_power_dbw"]),
            transmit_gain_dbi=float(document["tx_gain_dbi"]),
            transmit_feeder_loss_db=float(document.get("tx_feeder_loss_db", 0.0)),
            losses_db=losses,
            receive_gain_dbi=float(document["rx_gain_dbi"]),
            antenna_temperature_k=float(document["antenna_temp_k"]),
            receiver_temperature_k=float(document["receiver_temp_k"]),
            feeder_loss_linear=float(document.get("feeder_loss_linear", 1.0)),
            data_rate_bps=float(document["data_rate_bps"]),
            required_eb_n0_db=(
                tuple((str(k), float(v)) for k, v in dict(thresholds).items())
                if thresholds is not None else lb.DEFAULT_EBN0_THRESHOLDS_DB
            ),
            path_length_m=(
                float(document["distance_m"]) if "distance_m" in document else None
            ),
            frequency_hz=(
                float(document["frequency_hz"]) if "frequency_hz" in document else None
            ),
        )
    except KeyError as exc:
        raise SchemaError(f"budget document is missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: float(10**400)
        raise SchemaError(f"budget document has a malformed value: {exc}") from exc


def _cmd_budget(args) -> tuple[dict, None]:
    from . import linkbudget as lb

    if args.input is not None:
        fields = _budget_fields_from_json(args.input)
    else:
        required = {
            "--tx-power": args.tx_power,
            "--tx-gain": args.tx_gain,
            "--rx-gain": args.rx_gain,
            "--antenna-temp": args.antenna_temp,
            "--receiver-temp": args.receiver_temp,
            "--data-rate": args.data_rate,
        }
        missing = [flag for flag, value in required.items() if value is None]
        if missing:
            raise DomainError("missing required budget flag(s): " + ", ".join(missing))
        fields = dict(
            transmit_power_dbw=args.tx_power,
            transmit_gain_dbi=args.tx_gain,
            transmit_feeder_loss_db=args.tx_feeder_loss,
            losses_db=tuple(args.loss or ()),
            receive_gain_dbi=args.rx_gain,
            antenna_temperature_k=args.antenna_temp,
            receiver_temperature_k=args.receiver_temp,
            feeder_loss_linear=args.feeder_loss_linear,
            data_rate_bps=args.data_rate,
            required_eb_n0_db=(
                tuple(args.threshold) if args.threshold else lb.DEFAULT_EBN0_THRESHOLDS_DB
            ),
            path_length_m=args.distance,
            frequency_hz=args.frequency,
        )
    report = lb.evaluate_link(lb.LinkBudget(**fields))
    payload = report._asdict()
    # The CSV and text reports keep key order: fsl_check comes after closes.
    fsl_check = payload.pop("fsl_check")
    payload["margins_db"] = report.margins
    payload["closes"] = {name: report.closes(name) for name in payload["margins_db"]}
    if fsl_check is not None:
        payload["fsl_check"] = fsl_check._asdict()
    return payload, None


def _aperture_from_args(args) -> float:
    from . import fieldmetrics as fm

    ways = [
        args.aperture is not None,
        args.diameter is not None,
        args.gain is not None,
    ]
    if sum(ways) != 1:
        raise DomainError(
            "give exactly one aperture description: --aperture, --diameter, "
            "or --gain with --frequency"
        )
    if args.aperture is not None:
        return args.aperture
    if args.diameter is not None:
        eta = args.aperture_efficiency
        return fm.aperture_from_diameter(
            args.diameter, fm.DEFAULT_APERTURE_EFFICIENCY if eta is None else eta
        )
    if args.frequency is None:
        raise DomainError("--gain needs --frequency to form an aperture")
    return fm.aperture_from_gain(args.gain, args.frequency)


def _cmd_nef(args) -> tuple[dict, None]:
    from . import fieldmetrics as fm

    require("--tsys", args.tsys)
    aperture = _aperture_from_args(args)
    rho2 = args.rho2
    if rho2 is None:
        rho2 = fm.default_polarisation_coupling(args.coherence)
    payload = {
        "effective_aperture_m2": aperture,
        "rho2": rho2,
        "sefd_w_m2_hz": fm.sefd(args.tsys, aperture, rho2),
        "nef_v_m_sqrthz": fm.nef_from_aperture(args.tsys, aperture, rho2),
    }
    if args.gain is not None and args.frequency is not None:
        payload["nef_gain_form_v_m_sqrthz"] = fm.nef_from_gain(
            args.tsys, args.gain, args.frequency, rho2
        )
    return payload, None


def _cmd_convert(args) -> tuple[dict, None]:
    from . import fieldmetrics as fm

    payload: dict = {}
    if args.db_to_linear is not None:
        payload["linear_ratio"] = db_to_linear(args.db_to_linear)
    if args.linear_to_db is not None:
        payload["value_db"] = linear_to_db(args.linear_to_db)
    if args.wavelength_of is not None:
        payload["wavelength_m"] = frequency_to_wavelength(args.wavelength_of)
    if args.field is not None:
        if args.aperture is None:
            raise DomainError("--field needs --aperture for the power relation")
        payload["power_w"] = power_from_field(args.field, args.aperture)
    if args.noise_figure is not None:
        payload["receiver_temperature_k"] = fm.trx_from_noise_figure(args.noise_figure)
    if args.nef is not None:
        if args.gain is None or args.frequency is None:
            raise DomainError(
                "--nef needs --gain and --frequency (the inverse mapping is "
                "not unique without the coupling assumption)"
            )
        payload["system_temperature_k"] = fm.tsys_from_nef(
            args.nef, args.gain, args.frequency, args.rho2
        )
    if not payload:
        raise DomainError("nothing to convert: give at least one input flag")
    return payload, None


def _cmd_enhance(args) -> tuple[dict, None]:
    from . import fieldmetrics as fm

    q_ways = [
        args.q_loaded is not None,
        args.q_external is not None or args.q_internal is not None,
        args.signal_bandwidth is not None,
    ]
    if sum(q_ways) != 1:
        raise DomainError(
            "give exactly one of --q-loaded, --q-external with --q-internal, "
            "or --signal-bandwidth"
        )
    if args.q_loaded is not None:
        cavity = fm.CavityCoupling(
            args.f0, args.q_loaded, args.rf_efficiency, args.mode_volume
        )
    elif args.signal_bandwidth is not None:
        cavity = fm.CavityCoupling.from_bandwidth(
            args.f0, args.signal_bandwidth, args.rf_efficiency, args.mode_volume
        )
    else:
        if args.q_external is None or args.q_internal is None:
            raise DomainError("--q-external and --q-internal must be given together")
        cavity = fm.CavityCoupling.from_quality_factors(
            args.f0, args.q_external, args.q_internal,
            args.rf_efficiency, args.mode_volume,
        )

    require("--tsys", args.tsys)
    aperture = _aperture_from_args(args)
    reference = fm.ReceiverReference(
        system_temperature_k=args.tsys,
        effective_aperture_m2=aperture,
        rho2=args.rho2,
    )
    beta = fm.enhancement_factor_cavity(cavity, aperture)
    e_free = fm.nef_from_aperture(args.tsys, aperture, args.rho2)
    e_local = fm.local_field_requirement(reference, beta)
    payload = {
        "q_loaded": cavity.q_loaded,
        "cavity_linewidth_hz": cavity.linewidth_hz,
        "effective_aperture_m2": aperture,
        "e_free_v_m_sqrthz": e_free,
        "enhancement_factor": beta,
        "e_local_v_m_sqrthz": e_local,
    }
    if args.sensor_nef is not None:
        payload["sensor_nef_v_m_sqrthz"] = args.sensor_nef
        payload["meets_reference"] = fm.meets_classical_reference(args.sensor_nef, e_local)
    return payload, None


def _cmd_rydberg(args) -> tuple[dict, None]:
    from . import rydberg as ry

    payload: dict = {}
    dipole = args.dipole
    if args.dipole_ea0 is not None:
        if dipole is not None:
            raise DomainError("give either --dipole or --dipole-ea0, not both")
        dipole = ry.dipole_moment(args.dipole_ea0)
    if dipole is not None:
        payload["dipole_moment_cm"] = dipole

    if args.atoms is not None or args.coherence_time is not None:
        if dipole is None or args.atoms is None or args.coherence_time is None:
            raise DomainError(
                "projection-noise floor needs --dipole (or --dipole-ea0), "
                "--atoms and --coherence-time"
            )
        payload["qpn_nef_v_m_sqrthz"] = ry.qpn_nef(
            dipole, args.atoms, args.coherence_time, args.integration_time
        )
    if args.probe_power is not None or args.probe_frequency is not None:
        if args.probe_power is None or args.probe_frequency is None:
            raise DomainError("shot noise needs --probe-power and --probe-frequency")
        payload["photon_shot_noise_w_sqrthz"] = ry.photon_shot_noise_nep(
            args.probe_power, args.probe_frequency
        )
    if args.field is not None:
        if dipole is None:
            raise DomainError("--field needs a dipole moment")
        payload["rabi_rad_s"] = ry.rabi_from_field(args.field, dipole, args.alignment_cosine)
    if args.rabi is not None:
        if args.detuning is not None:
            payload["ac_stark_shift_rad_s"] = ry.ac_stark_shift(
                args.rabi, args.detuning, args.stark_constant
            )
        else:
            if dipole is None:
                raise DomainError("--rabi needs a dipole moment (or --detuning for Stark)")
            payload["field_v_m"] = ry.field_from_rabi(args.rabi, dipole, args.alignment_cosine)
    if args.sensor_nef is not None:
        if args.gain is None or args.frequency is None:
            raise DomainError("--sensor-nef needs --gain and --frequency")
        payload["equivalent_noise_temperature_k"] = ry.compare_to_classical(
            args.sensor_nef, args.gain, args.frequency, args.rho2
        )
    if not payload:
        raise DomainError("nothing to compute: give at least one input group")
    return payload, None


def _load_dataset(path: str | None) -> ds.ParseResult:
    from . import dataset as ds

    if path is None:
        return ds.load_bundled_dataset()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read dataset: {exc}") from exc
    return ds.parse_instruments(text)


_RECORD_COLUMNS = (
    "instrument", "mission", "category", "coherence", "f0_hz", "bandwidth_hz",
    "a_e_m2", "t_a_k", "t_rx_k", "t_sys_k", "rho2", "e_free_v_m_sqrthz",
    "e_free_reported", "aperture_method", "t_sys_method", "t_a_flag",
)
# One report row from an InstrumentRecord; column e_free_v_m_sqrthz is field e_free_vm_sqrthz.
_record_row = attrgetter(*[c.replace("_v_m_", "_vm_") for c in _RECORD_COLUMNS])


def _cmd_dataset_derive(args) -> tuple[dict, ReportTable]:
    from . import dataset as ds

    parsed = _load_dataset(args.input)
    derived, derive_diags = ds.derive_records(parsed.records)
    mismatch_diags = ds.consistency_diagnostics(derived, rel_tol=args.mismatch_tolerance)
    table = ReportTable(_RECORD_COLUMNS, list(map(_record_row, derived)))
    diagnostics = (*parsed.diagnostics, *derive_diags, *mismatch_diags)
    payload = {
        "records": table,
        "record_count": len(derived),
        "diagnostics": ReportTable(ds.Diagnostic._fields, diagnostics),
    }
    return payload, table


def _cmd_dataset_ranges(args) -> tuple[dict, ReportTable]:
    from . import dataset as ds

    parsed = _load_dataset(args.input)
    derived, derive_diags = ds.derive_records(parsed.records)
    sig_figs = None if args.no_rounding else args.sig_figs
    ranges = ds.synthesize_all(derived, sig_figs=sig_figs)
    table = ReportTable(ds.CategoryRange._fields, ranges)
    payload = {
        "ranges": table,
        "category_count": len(ranges),
        "diagnostics": ReportTable(ds.Diagnostic._fields, (*parsed.diagnostics, *derive_diags)),
    }
    return payload, table


def _cmd_dataset_plotdata(args) -> tuple[dict, None]:
    from . import dataset as ds

    parsed = _load_dataset(args.input)
    derived, _ = ds.derive_records(parsed.records)
    ranges = ds.synthesize_all(derived)
    bandwidth = args.converter_bandwidth
    document = ds.emit_plot_data(
        ranges,
        markers=tuple(args.marker or ()),
        include_converter_marker=not args.no_converter_marker,
        converter_bandwidth_hz=(
            ds.CONVERTER_MARKER_BANDWIDTH_HZ if bandwidth is None else bandwidth
        ),
        thermal_reference_field=args.thermal_line,
    )
    return document, None


# ---------------------------------------------------------------------------
# The command line as data: one row per flag drives parsing and --help

# kind: "" (one value), "required", "append", "required append" or "switch" (takes no
# value, stores True).  A tuple ``convert`` lists the choices of a string value.
Flag = namedtuple("Flag", "name convert metavar help default kind", defaults=(None, ""))

_HELP = Flag("-h/--help", None, None, "show this help message and exit", kind="switch")
_TOP = {"-h": _HELP, "--help": _HELP}  # the options before the subcommand
# Rows every subcommand has, ahead of its own.
_COMMON = (
    _HELP,
    Flag("--format", ("json", "csv", "text"), None, "report format (default: json)", "json"),
    Flag("--output", None, "PATH", "write the report to PATH instead of stdout"),
)
_BANDWIDTH = Flag("--bandwidth", frequency_flag, "FREQ", "detection bandwidth with unit suffix (hz/khz/mhz/ghz)", kind="required")
_APERTURE_EFFICIENCY = Flag("--aperture-efficiency", plain_flag, "ETA", "aperture efficiency used with --diameter (default 0.65)")
_RHO2 = Flag("--rho2", plain_flag, "RHO2", "polarisation power coupling in (0, 1] (default 1)", 1.0)
_DATASET = Flag("--input", None, "PATH", "dataset CSV (default: the bundled instrument table)")

# Subcommand -> (its line in the top-level help, handler, its own flag rows).
SUBCOMMANDS = {
    "nedt": ("radiometer sensitivity (NEDT) and output power", _cmd_nedt, (
        Flag("--antenna-temp", temperature_flag, "K", "antenna temperature T_A in kelvin"),
        Flag("--receiver-temp", temperature_flag, "K", "receiver noise temperature T_Rx in kelvin"),
        _BANDWIDTH,
        Flag("--integration-time", time_flag, "TIME", "integration time with unit suffix (s/ms/us)", kind="required"),
        Flag("--gain-stability", plain_flag, "X", "fractional gain fluctuation dG/G, dimensionless (default 0)", 0.0),
        Flag("--gain", plain_flag, "G", "linear receiver gain; adds the output-power estimate"),
        Flag("--nedt", temperature_flag, "K", "invert a known NEDT in kelvin to a system temperature"))),
    "calibrate": ("hot/cold calibration regression for (G, T_Rx)", _cmd_calibrate, (
        _BANDWIDTH,
        Flag("--point", calibration_point_flag, "T_K:P_W", "calibration load: temperature in kelvin and measured power in watts (repeatable, at least two)", kind="required append"))),
    "radar": ("radar received power, SNR, NESZ, and resolution", _cmd_radar, (
        Flag("--tx-power", power_flag, "P_W", "transmit power in watts (suffix w/mw optional)", kind="required"),
        Flag("--tx-gain", gain_flag, "GAIN", "transmit gain with explicit suffix: dbi or lin", kind="required"),
        Flag("--rx-gain", gain_flag, "GAIN", "receive gain with explicit suffix: dbi or lin", kind="required"),
        Flag("--frequency", frequency_flag, "FREQ", "carrier frequency with unit suffix (hz/mhz/ghz)"),
        Flag("--wavelength", distance_flag, "DIST", "carrier wavelength with unit suffix (m/mm)"),
        Flag("--sigma", area_flag, "M2", "point-target radar cross section in m^2"),
        Flag("--sigma0", plain_flag, "X", "normalised cross section (dimensionless), with --cell-area"),
        Flag("--cell-area", area_flag, "M2", "resolution cell area in m^2"),
        Flag("--range", distance_flag, "DIST", "slant range with unit suffix (m/km)", kind="required"),
        Flag("--system-loss", ratio_db_flag, "DB", "system loss in dB (suffix db required; default 0db)", 0.0),
        Flag("--propagation-loss", ratio_db_flag, "DB", "propagation loss in dB (suffix db required; default 0db)", 0.0),
        Flag("--processing-gain", plain_flag, "G", "linear processing gain (default 1)", 1.0),
        Flag("--pulse-width", time_flag, "TIME", "pulse width with unit suffix; with --bandwidth forms B*tau_p"),
        Flag("--tsys", temperature_flag, "K", "system noise temperature in kelvin"),
        Flag("--bandwidth", frequency_flag, "FREQ", "receiver bandwidth with unit suffix"),
        Flag("--compare-tsys", temperature_flag, "K", "second system temperature in kelvin for the max-range ratio"))),
    "budget": ("end-to-end communication link budget", _cmd_budget, (
        Flag("--input", None, "PATH", "flat JSON budget document instead of flags"),
        Flag("--tx-power", db_flag("dbw", "dbm"), "DBW", "transmit power with suffix dbw or dbm"),
        Flag("--tx-gain", db_flag("dbi"), "DBI", "transmit antenna gain with suffix dbi"),
        Flag("--tx-feeder-loss", db_flag("db"), "DB", "transmit feeder loss with suffix db (default 0db)", 0.0),
        Flag("--loss", named_db_flag, "NAME=DB", "propagation loss ledger entry, e.g. fsl=206.5db (repeatable)", kind="append"),
        Flag("--rx-gain", db_flag("dbi"), "DBI", "receive antenna gain with suffix dbi"),
        Flag("--antenna-temp", temperature_flag, "K", "receive antenna noise temperature in kelvin"),
        Flag("--receiver-temp", temperature_flag, "K", "receiver noise temperature in kelvin"),
        Flag("--feeder-loss-linear", plain_flag, "L", "receive feeder loss as a linear factor >= 1 (default 1)", 1.0),
        Flag("--data-rate", plain_flag, "BPS", "data rate in bit/s"),
        Flag("--threshold", named_db_flag, "NAME=DB", "required Eb/N0 threshold, e.g. qpsk=4db (repeatable; defaults to the built-in table)", kind="append"),
        Flag("--distance", distance_flag, "DIST", "path length with unit suffix (m/km); enables the FSL check"),
        Flag("--frequency", frequency_flag, "FREQ", "carrier frequency with unit suffix; enables the FSL check"))),
    "nef": ("equivalent free-space field and SEFD of a receiver", _cmd_nef, (
        Flag("--tsys", temperature_flag, "K", "system noise temperature in kelvin", kind="required"),
        Flag("--aperture", area_flag, "M2", "effective aperture in m^2"),
        Flag("--diameter", distance_flag, "DIST", "dish diameter with unit suffix (m); uses aperture efficiency"),
        _APERTURE_EFFICIENCY,
        Flag("--gain", gain_flag, "GAIN", "receiver gain with explicit suffix dbi or lin; needs --frequency"),
        Flag("--frequency", frequency_flag, "FREQ", "frequency with unit suffix, for the gain-based form"),
        Flag("--rho2", plain_flag, "RHO2", "polarisation power coupling in (0, 1]; defaults from --coherence"),
        Flag("--coherence", ("coherent", "incoherent"), None, "coherence class setting the default polarisation coupling factor (1 coherent, 0.5 incoherent)", "coherent"))),
    "convert": ("unit conversions and inverse field/temperature mapping", _cmd_convert, (
        Flag("--db-to-linear", plain_flag, "DB", "power dB value to convert to a linear ratio"),
        Flag("--linear-to-db", plain_flag, "X", "linear power ratio to convert to dB"),
        Flag("--wavelength-of", frequency_flag, "FREQ", "frequency with unit suffix to convert to wavelength in m"),
        Flag("--field", plain_flag, "V_M", "field amplitude in V/m for the power relation (needs --aperture)"),
        Flag("--aperture", area_flag, "M2", "aperture in m^2 for the power relation"),
        Flag("--noise-figure", ratio_db_flag, "DB", "noise figure with suffix db to convert to T_Rx in kelvin"),
        Flag("--nef", plain_flag, "V_M_SQRTHZ", "field sensitivity in V/m/sqrt(Hz) to map to a noise temperature"),
        Flag("--gain", gain_flag, "GAIN", "assumed gain with explicit suffix dbi or lin, for --nef"),
        Flag("--frequency", frequency_flag, "FREQ", "assumed frequency with unit suffix, for --nef"),
        _RHO2)),
    "enhance": ("cavity field-enhancement chain against a receiver reference", _cmd_enhance, (
        Flag("--f0", frequency_flag, "FREQ", "cavity centre frequency with unit suffix", kind="required"),
        Flag("--q-loaded", plain_flag, "Q", "loaded quality factor"),
        Flag("--q-external", plain_flag, "Q", "external quality factor (with --q-internal)"),
        Flag("--q-internal", plain_flag, "Q", "internal quality factor (with --q-external)"),
        Flag("--signal-bandwidth", frequency_flag, "FREQ", "admitted signal bandwidth with unit suffix; sets Q_L = f0/B"),
        Flag("--rf-efficiency", plain_flag, "ETA", "RF transfer efficiency into the cavity, in (0, 1]", kind="required"),
        Flag("--mode-volume", volume_flag, "M3", "electric-energy mode volume in m^3", kind="required"),
        Flag("--tsys", temperature_flag, "K", "reference system noise temperature in kelvin", kind="required"),
        Flag("--aperture", area_flag, "M2", "reference effective aperture in m^2"),
        Flag("--diameter", distance_flag, "DIST", "reference dish diameter with unit suffix (m)"),
        _APERTURE_EFFICIENCY,
        Flag("--gain", gain_flag, "GAIN", "reference gain with explicit suffix dbi or lin; needs --frequency"),
        Flag("--frequency", frequency_flag, "FREQ", "reference frequency with unit suffix, used with --gain"),
        _RHO2,
        Flag("--sensor-nef", plain_flag, "V_M_SQRTHZ", "sensor local NEF in V/m/sqrt(Hz) to compare against the chain"))),
    "rydberg": ("atomic-sensor noise floors and field calibration", _cmd_rydberg, (
        Flag("--dipole", plain_flag, "C_M", "transition dipole moment in C*m"),
        Flag("--dipole-ea0", plain_flag, "X", "transition dipole moment as a multiple of e*a_0"),
        Flag("--atoms", plain_flag, "N", "participating atom count"),
        Flag("--coherence-time", time_flag, "TIME", "coherence time with unit suffix (s/ms/us)"),
        Flag("--integration-time", time_flag, "TIME", "integration time with unit suffix; warns when below coherence"),
        Flag("--probe-power", power_flag, "P_W", "detected probe power in watts (suffix w/mw/uw optional)"),
        Flag("--probe-frequency", frequency_flag, "FREQ", "probe laser frequency with unit suffix"),
        Flag("--field", plain_flag, "V_M", "field amplitude in V/m to convert to a Rabi frequency"),
        Flag("--rabi", plain_flag, "RAD_S", "Rabi frequency in rad/s (field inverse, or Stark with --detuning)"),
        Flag("--alignment-cosine", plain_flag, "COS", "field/dipole alignment cosine in [-1, 1] (default 1)", 1.0),
        Flag("--detuning", plain_flag, "RAD_S", "detuning in rad/s for the AC-Stark shift"),
        Flag("--stark-constant", plain_flag, "K", "AC-Stark proportionality constant (default 1/4 convention)", 0.25),
        Flag("--sensor-nef", plain_flag, "V_M_SQRTHZ", "sensor NEF in V/m/sqrt(Hz) to map to a noise temperature"),
        Flag("--gain", gain_flag, "GAIN", "assumed coupling gain with explicit suffix dbi or lin"),
        Flag("--frequency", frequency_flag, "FREQ", "assumed carrier frequency with unit suffix"),
        _RHO2)),
    "dataset-derive": ("parse the instrument dataset and derive per-row fields", _cmd_dataset_derive, (
        _DATASET,
        Flag("--mismatch-tolerance", plain_flag, "REL", "relative tolerance for quoted-vs-recomputed field diagnostics (default 0.10)", 0.10))),
    "dataset-ranges": ("synthesize per-category parameter ranges", _cmd_dataset_ranges, (
        _DATASET,
        Flag("--sig-figs", int_flag, "N", "significant digits for rounded bounds (default 2)", 2),
        Flag("--no-rounding", None, None, "emit unrounded bounds (invariant-testing mode)", False, "switch"))),
    "dataset-plotdata": ("emit bandwidth/field plot data (rectangles and markers)", _cmd_dataset_plotdata, (
        _DATASET,
        Flag("--marker", marker_flag, "NAME:FREQ:E", "extra point marker: name, bandwidth with unit suffix, field in V/m/sqrt(Hz) (repeatable)", kind="append"),
        Flag("--converter-bandwidth", frequency_flag, "FREQ", "bandwidth coordinate with unit suffix for the built-in converter marker (default 1e7hz)"),
        Flag("--no-converter-marker", None, None, "omit the built-in converter marker", False, "switch"),
        Flag("--thermal-line", plain_flag, "V_M_SQRTHZ", "include the 290 K thermal reference line at this field value in V/m/sqrt(Hz)"))),
}


_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _fail(prog: str, message: str):
    sys.stderr.write(f"{prog}: error: {message}\n")
    raise SystemExit(2)


def _read_option(prog: str, token: str, options: dict):
    """None if ``token`` is a value, else (its row or None if unknown, option, attached value)."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return options[token], token, None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return options[name], name, value
    if token[1] == "-":  # a unique prefix of a long option, maybe with "=value"
        matches = [option for option in options if option.startswith(name)]
        value = value if eq else None
    else:  # a short option with its value attached: -hVALUE
        matches, value = [token[:2]] if token[:2] in options else [], token[2:]
    if len(matches) > 1:
        _fail(prog, f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return options[matches[0]], matches[0], value
    return None if _NEGATIVE_NUMBER.match(token) or " " in token else (None, token, None)


def _parse_flags(prog: str, rows: tuple, tokens: list[str]) -> tuple[dict, list[str]]:
    """The value of each row's flag by attribute name, and the tokens left over.

    Every token is read before any is converted, so an ambiguous prefix is reported
    first, then a bad value (in argv order), then the required flags that are missing.
    """
    options = {option: row for row in rows for option in row.name.split("/")}
    end = tokens.index("--") if "--" in tokens else len(tokens)  # later tokens are values
    found = [_read_option(prog, token, options) for token in tokens[:end]]
    found += [False] + [None] * (len(tokens) - end - 1)  # "--" itself is left over
    values = {row.name: row.default for row in rows if row is not _HELP}
    leftovers, seen, i = [], set(), 0
    while i < len(tokens):
        token, read, i = tokens[i], found[i], i + 1
        if not read or read[0] is None:  # a value, "--" or an unknown flag
            leftovers.append(token)
            continue
        row, option, value = read
        if row.kind == "switch":
            if value is not None:  # refused, except that -hh is -h twice
                left = value if option.startswith("--") else value.lstrip("h")
                if left or not value:
                    _fail(prog, f"argument {row.name}: ignored explicit argument {left!r}")
            if row is _HELP:
                sys.stdout.write(_help_page(prog, rows))
                raise SystemExit(0)
            value = True
        else:
            if value is None:
                if i == len(tokens) or found[i] is not None:
                    _fail(prog, f"argument {row.name}: expected one argument")
                value, i = tokens[i], i + 1
            if type(row.convert) is tuple and value not in row.convert:
                _fail(prog, f"argument {row.name}: invalid choice: {value!r} "
                            f"(choose from {', '.join(map(repr, row.convert))})")
            try:
                value = row.convert(value) if callable(row.convert) else value
            except ValueError as exc:
                _fail(prog, f"argument {row.name}: {exc}")
        if "append" in row.kind:
            value = [*(values[row.name] or ()), value]
        values[row.name] = value
        seen.add(row.name)
    missing = [row.name for row in rows if "required" in row.kind and row.name not in seen]
    if missing:
        _fail(prog, "the following arguments are required: " + ", ".join(missing))
    return {name[2:].replace("-", "_"): value for name, value in values.items()}, leftovers


def _parse_args(argv: list[str] | None = None) -> types.SimpleNamespace:
    """The options before the subcommand, then the subcommand's own flags."""
    argv = sys.argv[1:] if argv is None else list(argv)
    for i, token in enumerate(argv):
        # The subcommand is the first value, or a "--" that is not last.
        if (token == "--" and i + 1 < len(argv)) or _read_option("rfsense", token, _TOP) is None:
            break
    else:
        i = len(argv)
    leftovers = _parse_flags("rfsense", (_HELP,), argv[:i])[1]
    args = types.SimpleNamespace(command=None, handler=None)
    if i < len(argv):
        if argv[i] not in SUBCOMMANDS:
            _fail("rfsense", f"argument SUBCOMMAND: invalid choice: {argv[i]!r} "
                             f"(choose from {', '.join(map(repr, SUBCOMMANDS))})")
        _, handler, flags = SUBCOMMANDS[argv[i]]
        values, more = _parse_flags("rfsense " + argv[i], _COMMON + flags, argv[i + 1:])
        leftovers += more
        args = types.SimpleNamespace(command=argv[i], handler=handler, **values)
    if leftovers:
        _fail("rfsense", "unrecognized arguments: " + " ".join(leftovers))
    return args


def _help_page(prog: str, rows: tuple) -> str:
    """The --help page of ``prog``, in the layout of argparse before Python 3.13 at width 92."""
    import textwrap  # only a help page wraps text

    blocks, parts, entries = [], [], []
    for row in rows:
        metavar = "{%s}" % ",".join(row.convert) if type(row.convert) is tuple else row.metavar
        spelling = f"{row.name} {metavar}" if metavar else row.name.replace("/", ", ")
        text = spelling if metavar else row.name.split("/")[0]
        parts += text.split() if "required" in row.kind else [f"[{text}]"]
        entries.append((2, spelling, row.help))
    sections = [("options", entries)]
    if prog == "rfsense":  # the program's own page lists the subcommands
        parts += ["SUBCOMMAND", "..."]
        blocks = [textwrap.fill("Sensitivity figures of merit for RF/microwave receivers and "
                                "atomic field sensors.", 92)]
        sections.insert(0, ("positional arguments", [(2, "SUBCOMMAND", "")] + [
            (4, name, entry[0]) for name, entry in SUBCOMMANDS.items()]))
    line, lines = "usage: " + prog, []
    for part in parts:
        if len(line) + 1 + len(part) > 92:
            lines.append(line)
            line = " " * (len(prog) + 7)
        line += " " + part
    blocks.insert(0, "\n".join(lines + [line]))
    position = min(max(len(text) for _, entries in sections for _, text, _ in entries) + 4, 24)
    for title, entries in sections:
        block = [title + ":"]
        for indent, text, help_text in entries:
            head, wrapped = " " * indent + text, textwrap.wrap(help_text, 92 - position)
            if wrapped and len(head) + 2 <= position:
                head = head.ljust(position) + wrapped.pop(0)
            block += [head] + [" " * position + more for more in wrapped]
        blocks.append("\n".join(block))
    return "\n\n".join(blocks) + "\n"


def build_parser() -> types.SimpleNamespace:
    """The command line: ``parse_args(argv)`` and the program's ``format_help()``."""
    return types.SimpleNamespace(parse_args=_parse_args,
                                 format_help=lambda: _help_page("rfsense", (_HELP,)))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    if args.handler is None:
        sys.stdout.write(parser.format_help())
        return 2

    try:
        payload, table = args.handler(args)
        rendered = render_report(payload, args.format, table)
    except DomainError as exc:
        print(f"domain-error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema-error: {exc}", file=sys.stderr)
        return 3

    if args.output is None:
        sys.stdout.write(rendered)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(rendered)
    except OSError as exc:
        print(f"schema-error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
