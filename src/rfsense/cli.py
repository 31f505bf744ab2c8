"""Command-line front end: every engine computation behind a subcommand.

Conventions at this boundary:

- Ambiguous numeric flags require a unit suffix (``--bandwidth 1e9hz``,
  ``--tx-power 20dbw``, ``--gain 1.5lin``); dB flags always carry their
  reference (dbw/dbm/dbi/db/dbhz) so a bare number can never be mistaken
  for the wrong scale.
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

import argparse
import json as _json_module
import math
import re
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter

from .errors import DomainError, SchemaError, require
from .quantities import db_to_linear, frequency_to_wavelength, linear_to_db, power_from_field

__all__ = ["OPERATION_MAP", "build_parser", "format_number", "main", "render_json"]

# Subcommand -> engine operations it exposes.  Every public operation is
# reachable from exactly one subcommand; a coverage test enforces this.
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

_HELP_WIDTH = 92


def _formatter(prog: str) -> argparse.HelpFormatter:
    return argparse.HelpFormatter(prog, width=_HELP_WIDTH)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line (no usage block), exit 2.

    Subparsers inherit the class, so the rule holds for every subcommand.
    """

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


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
        raise argparse.ArgumentTypeError(f"cannot parse quantity {text!r}")
    value = float(match.group(1))
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value {text!r} overflows the float range")
    return value, (match.group(2) or "").lower()


def _to_linear(kind: str, text: str, value_db: float) -> float:
    try:
        return db_to_linear(value_db)
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(f"{kind} {text!r} overflows the float range") from exc


def _scaled(kind: str, table: dict[str, float], require_suffix: bool):
    def parse(text: str) -> float:
        value, suffix = _split_quantity(text)
        if not suffix:
            if require_suffix:
                units = "/".join(sorted(table))
                raise argparse.ArgumentTypeError(
                    f"{kind} value {text!r} needs a unit suffix ({units})"
                )
            return value
        if suffix not in table:
            units = "/".join(sorted(table))
            raise argparse.ArgumentTypeError(
                f"unknown {kind} unit {suffix!r} (expected {units})"
            )
        value *= table[suffix]
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{kind} {text!r} overflows the float range")
        return value

    parse.__name__ = kind
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
        raise argparse.ArgumentTypeError(
            f"value {text!r} must be a plain number (got unit {suffix!r})"
        )
    return value


def db_flag(*references: str):
    """Decibel flag parser requiring one of the given reference suffixes.

    ``dbm`` values are converted to dBW so the engine sees one reference.
    """

    def parse(text: str) -> float:
        value, suffix = _split_quantity(text)
        if suffix not in references:
            expected = "/".join(references)
            raise argparse.ArgumentTypeError(
                f"dB value {text!r} needs an explicit reference suffix ({expected})"
            )
        if suffix == "dbm":
            return value - 30.0
        return value

    parse.__name__ = "db_" + "_".join(references)
    return parse


def gain_flag(text: str) -> float:
    """Antenna/system gain: explicit 'dbi' or 'lin' suffix, returns linear."""
    value, suffix = _split_quantity(text)
    if suffix == "dbi":
        return _to_linear("gain", text, value)
    if suffix == "lin":
        return value
    raise argparse.ArgumentTypeError(
        f"gain {text!r} needs an explicit 'dbi' or 'lin' suffix"
    )


def ratio_db_flag(text: str) -> float:
    """Power ratio in dB (suffix 'db') that the handler turns into a linear
    factor, so its linear value must fit the float range."""
    value = db_flag("db")(text)
    _to_linear("dB value", text, value)
    return value


def named_db_flag(text: str) -> tuple[str, float]:
    """NAME=VALUEdb pair, e.g. ``fsl=206.5db``."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUEdb, got {text!r}")
    name, _, raw = text.partition("=")
    name = name.strip()
    if not name:
        raise argparse.ArgumentTypeError(f"empty name in {text!r}")
    return name, db_flag("db")(raw)


def calibration_point_flag(text: str) -> tuple[float, float]:
    """TEMP:POWER pair in K and W, e.g. ``77:1.06e-11``."""
    if ":" not in text:
        raise argparse.ArgumentTypeError(f"expected TEMP_K:POWER_W, got {text!r}")
    left, _, right = text.partition(":")
    try:
        return float(left), float(right)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse point {text!r}") from exc


def marker_flag(text: str) -> tuple[str, float, float]:
    """NAME:BANDWIDTH:E_FIELD marker, e.g. ``probe:1e7hz:4e-7``."""
    parts = text.rsplit(":", 2)
    if len(parts) != 3 or not parts[0].strip():
        raise argparse.ArgumentTypeError(f"expected NAME:BANDWIDTH:E_FIELD, got {text!r}")
    name, bw_raw, field_raw = parts
    bandwidth = frequency_flag(bw_raw)
    try:
        e_field = float(field_raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse field {field_raw!r}") from exc
    return name.strip(), bandwidth, e_field


# ---------------------------------------------------------------------------
# Deterministic rendering

def format_number(x: float) -> str:
    """Fixed formatting: 6 significant digits; scientific outside [1e-3, 1e6)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if x != x or math.isinf(x):
        raise DomainError("cannot format a non-finite number")
    if x == 0:
        return "0"
    if abs(x) < 1e-3 or abs(x) >= 1e6:
        return f"{x:.5e}"
    return f"{x:.6g}"


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


def render_json(payload: dict) -> str:
    """Deterministic JSON: sorted keys, fixed numeric formatting."""
    return _render_json_value(payload, 0) + "\n"


def _flatten(payload: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key, value in payload.items():
        path = f"{prefix}{key}"
        if type(value) is dict:
            rows.extend(_flatten(value, path + "."))
        elif type(value) in (list, tuple):
            for i, item in enumerate(value):
                if type(item) is dict:
                    rows.extend(_flatten(item, f"{path}[{i}]."))
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


def _render_csv_rows(rows: list[list[str]]) -> str:
    def quote(cell: str) -> str:
        if any(ch in cell for ch in ",\"\r\n"):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    return "".join(",".join(quote(c) for c in row) + "\r\n" for row in rows)


def render_report(payload: dict, fmt: str, table: list[dict] | None = None,
                  columns: list[str] | None = None) -> str:
    if fmt == "json":
        return render_json(payload)
    if fmt == "csv":
        if table is not None and columns is not None:
            rows = [columns] + [[_cell_text(r.get(c)) for c in columns] for r in table]
        else:
            rows = [["key", "value"]] + [
                [key, _cell_text(value)] for key, value in _flatten(payload)
            ]
        return _render_csv_rows(rows)
    if fmt == "text":
        return "".join(f"{k} = {_cell_text(v)}\n" for k, v in _flatten(payload))
    raise SchemaError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (payload, table, columns).

def _cmd_nedt(args) -> tuple[dict, None, None]:
    from . import radiometry as rm

    require("--bandwidth", args.bandwidth)
    require("--integration-time", args.integration_time)
    if args.nedt is not None:
        require("--nedt", args.nedt)
        t_sys = rm.tsys_from_nedt(
            args.nedt, args.bandwidth, args.integration_time, args.gain_stability
        )
        return {"system_temperature_k": t_sys, "nedt_k": args.nedt}, None, None

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
    return payload, None, None


def _cmd_calibrate(args) -> tuple[dict, None, None]:
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
    return payload, None, None


def _cmd_radar(args) -> tuple[dict, None, None]:
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
    return payload, None, None


def _budget_from_json(path: str) -> lb.LinkBudget:
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
        budget = lb.LinkBudget(
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
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"budget document has a malformed value: {exc}") from exc
    return budget


def _cmd_budget(args) -> tuple[dict, None, None]:
    from . import linkbudget as lb

    if args.input is not None:
        budget = _budget_from_json(args.input)
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
        thresholds = (
            tuple(args.threshold) if args.threshold else lb.DEFAULT_EBN0_THRESHOLDS_DB
        )
        budget = lb.LinkBudget(
            transmit_power_dbw=args.tx_power,
            transmit_gain_dbi=args.tx_gain,
            transmit_feeder_loss_db=args.tx_feeder_loss,
            losses_db=tuple(args.loss or ()),
            receive_gain_dbi=args.rx_gain,
            antenna_temperature_k=args.antenna_temp,
            receiver_temperature_k=args.receiver_temp,
            feeder_loss_linear=args.feeder_loss_linear,
            data_rate_bps=args.data_rate,
            required_eb_n0_db=thresholds,
            path_length_m=args.distance,
            frequency_hz=args.frequency,
        )
    report = lb.evaluate_link(budget)
    payload = report._asdict()
    # The CSV and text reports keep key order: fsl_check comes after closes.
    fsl_check = payload.pop("fsl_check")
    payload["margins_db"] = dict(report.margins_db)
    payload["closes"] = {name: margin >= 0.0 for name, margin in report.margins_db}
    if fsl_check is not None:
        payload["fsl_check"] = fsl_check._asdict()
    return payload, None, None


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


def _cmd_nef(args) -> tuple[dict, None, None]:
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
    return payload, None, None


def _cmd_convert(args) -> tuple[dict, None, None]:
    from . import fieldmetrics as fm

    payload: dict = {}
    if args.db_to_linear is not None:
        try:
            payload["linear_ratio"] = db_to_linear(args.db_to_linear)
        except OverflowError as exc:
            raise DomainError(
                f"--db-to-linear {args.db_to_linear:g} overflows the float range"
            ) from exc
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
    return payload, None, None


def _cmd_enhance(args) -> tuple[dict, None, None]:
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
    return payload, None, None


def _cmd_rydberg(args) -> tuple[dict, None, None]:
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
    return payload, None, None


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


_RECORD_COLUMNS = [
    "instrument", "mission", "category", "coherence", "f0_hz", "bandwidth_hz",
    "a_e_m2", "t_a_k", "t_rx_k", "t_sys_k", "rho2", "e_free_v_m_sqrthz",
    "e_free_reported", "aperture_method", "t_sys_method", "t_a_flag",
]
# Report column -> InstrumentRecord attribute, where the two names differ.
_RECORD_ATTRIBUTES = {"e_free_v_m_sqrthz": "e_free_vm_sqrthz"}


def _cmd_dataset_derive(args) -> tuple[dict, list[dict], list[str]]:
    from . import dataset as ds

    parsed = _load_dataset(args.input)
    derived, derive_diags = ds.derive_records(parsed.records)
    mismatch_diags = ds.consistency_diagnostics(derived, rel_tol=args.mismatch_tolerance)
    get = attrgetter(*[_RECORD_ATTRIBUTES.get(c, c) for c in _RECORD_COLUMNS])
    table = [dict(zip(_RECORD_COLUMNS, get(r))) for r in derived]
    payload = {
        "records": table,
        "record_count": len(table),
        "diagnostics": [
            d._asdict() for d in (*parsed.diagnostics, *derive_diags, *mismatch_diags)
        ],
    }
    return payload, table, _RECORD_COLUMNS


def _cmd_dataset_ranges(args) -> tuple[dict, list[dict], list[str]]:
    from . import dataset as ds

    parsed = _load_dataset(args.input)
    derived, derive_diags = ds.derive_records(parsed.records)
    sig_figs = None if args.no_rounding else args.sig_figs
    ranges = ds.synthesize_all(derived, sig_figs=sig_figs)
    table = [r._asdict() for r in ranges]
    payload = {
        "ranges": table,
        "category_count": len(table),
        "diagnostics": [d._asdict() for d in (*parsed.diagnostics, *derive_diags)],
    }
    return payload, table, list(ds.CategoryRange._fields)


def _cmd_dataset_plotdata(args) -> tuple[dict, None, None]:
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
    return document, None, None


# ---------------------------------------------------------------------------
# Parser construction

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json",
                        help="report format (default: json)")
    common.add_argument("--output", metavar="PATH", default=None,
                        help="write the report to PATH instead of stdout")

    parser = _Parser(
        prog="rfsense",
        description="Sensitivity figures of merit for RF/microwave receivers "
                    "and atomic field sensors.",
        formatter_class=_formatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    p = sub.add_parser("nedt", parents=[common], formatter_class=_formatter,
                       help="radiometer sensitivity (NEDT) and output power")
    p.add_argument("--antenna-temp", type=temperature_flag, metavar="K",
                   help="antenna temperature T_A in kelvin")
    p.add_argument("--receiver-temp", type=temperature_flag, metavar="K",
                   help="receiver noise temperature T_Rx in kelvin")
    p.add_argument("--bandwidth", type=frequency_flag, metavar="FREQ", required=True,
                   help="detection bandwidth with unit suffix (hz/khz/mhz/ghz)")
    p.add_argument("--integration-time", type=time_flag, metavar="TIME", required=True,
                   help="integration time with unit suffix (s/ms/us)")
    p.add_argument("--gain-stability", type=plain_flag, default=0.0, metavar="X",
                   help="fractional gain fluctuation dG/G, dimensionless (default 0)")
    p.add_argument("--gain", type=plain_flag, metavar="G",
                   help="linear receiver gain; adds the output-power estimate")
    p.add_argument("--nedt", type=temperature_flag, metavar="K",
                   help="invert a known NEDT in kelvin to a system temperature")
    p.set_defaults(handler=_cmd_nedt)

    p = sub.add_parser("calibrate", parents=[common], formatter_class=_formatter,
                       help="hot/cold calibration regression for (G, T_Rx)")
    p.add_argument("--bandwidth", type=frequency_flag, metavar="FREQ", required=True,
                   help="detection bandwidth with unit suffix (hz/khz/mhz/ghz)")
    p.add_argument("--point", type=calibration_point_flag, action="append",
                   required=True, metavar="T_K:P_W",
                   help="calibration load: temperature in kelvin and measured "
                        "power in watts (repeatable, at least two)")
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("radar", parents=[common], formatter_class=_formatter,
                       help="radar received power, SNR, NESZ, and resolution")
    p.add_argument("--tx-power", type=power_flag, required=True, metavar="P_W",
                   help="transmit power in watts (suffix w/mw optional)")
    p.add_argument("--tx-gain", type=gain_flag, required=True, metavar="GAIN",
                   help="transmit gain with explicit suffix: dbi or lin")
    p.add_argument("--rx-gain", type=gain_flag, required=True, metavar="GAIN",
                   help="receive gain with explicit suffix: dbi or lin")
    p.add_argument("--frequency", type=frequency_flag, metavar="FREQ",
                   help="carrier frequency with unit suffix (hz/mhz/ghz)")
    p.add_argument("--wavelength", type=distance_flag, metavar="DIST",
                   help="carrier wavelength with unit suffix (m/mm)")
    p.add_argument("--sigma", type=area_flag, metavar="M2",
                   help="point-target radar cross section in m^2")
    p.add_argument("--sigma0", type=plain_flag, metavar="X",
                   help="normalised cross section (dimensionless), with --cell-area")
    p.add_argument("--cell-area", type=area_flag, metavar="M2",
                   help="resolution cell area in m^2")
    p.add_argument("--range", type=distance_flag, required=True, metavar="DIST",
                   help="slant range with unit suffix (m/km)")
    p.add_argument("--system-loss", type=ratio_db_flag, default=0.0, metavar="DB",
                   help="system loss in dB (suffix db required; default 0db)")
    p.add_argument("--propagation-loss", type=ratio_db_flag, default=0.0, metavar="DB",
                   help="propagation loss in dB (suffix db required; default 0db)")
    p.add_argument("--processing-gain", type=plain_flag, default=1.0, metavar="G",
                   help="linear processing gain (default 1)")
    p.add_argument("--pulse-width", type=time_flag, metavar="TIME",
                   help="pulse width with unit suffix; with --bandwidth forms B*tau_p")
    p.add_argument("--tsys", type=temperature_flag, metavar="K",
                   help="system noise temperature in kelvin")
    p.add_argument("--bandwidth", type=frequency_flag, metavar="FREQ",
                   help="receiver bandwidth with unit suffix")
    p.add_argument("--compare-tsys", type=temperature_flag, metavar="K",
                   help="second system temperature in kelvin for the max-range ratio")
    p.set_defaults(handler=_cmd_radar)

    p = sub.add_parser("budget", parents=[common], formatter_class=_formatter,
                       help="end-to-end communication link budget")
    p.add_argument("--input", metavar="PATH",
                   help="flat JSON budget document instead of flags")
    p.add_argument("--tx-power", type=db_flag("dbw", "dbm"), metavar="DBW",
                   help="transmit power with suffix dbw or dbm")
    p.add_argument("--tx-gain", type=db_flag("dbi"), metavar="DBI",
                   help="transmit antenna gain with suffix dbi")
    p.add_argument("--tx-feeder-loss", type=db_flag("db"), default=0.0, metavar="DB",
                   help="transmit feeder loss with suffix db (default 0db)")
    p.add_argument("--loss", type=named_db_flag, action="append", metavar="NAME=DB",
                   help="propagation loss ledger entry, e.g. fsl=206.5db (repeatable)")
    p.add_argument("--rx-gain", type=db_flag("dbi"), metavar="DBI",
                   help="receive antenna gain with suffix dbi")
    p.add_argument("--antenna-temp", type=temperature_flag, metavar="K",
                   help="receive antenna noise temperature in kelvin")
    p.add_argument("--receiver-temp", type=temperature_flag, metavar="K",
                   help="receiver noise temperature in kelvin")
    p.add_argument("--feeder-loss-linear", type=plain_flag, default=1.0, metavar="L",
                   help="receive feeder loss as a linear factor >= 1 (default 1)")
    p.add_argument("--data-rate", type=plain_flag, metavar="BPS",
                   help="data rate in bit/s")
    p.add_argument("--threshold", type=named_db_flag, action="append", metavar="NAME=DB",
                   help="required Eb/N0 threshold, e.g. qpsk=4db "
                        "(repeatable; defaults to the built-in table)")
    p.add_argument("--distance", type=distance_flag, metavar="DIST",
                   help="path length with unit suffix (m/km); enables the FSL check")
    p.add_argument("--frequency", type=frequency_flag, metavar="FREQ",
                   help="carrier frequency with unit suffix; enables the FSL check")
    p.set_defaults(handler=_cmd_budget)

    p = sub.add_parser("nef", parents=[common], formatter_class=_formatter,
                       help="equivalent free-space field and SEFD of a receiver")
    p.add_argument("--tsys", type=temperature_flag, required=True, metavar="K",
                   help="system noise temperature in kelvin")
    p.add_argument("--aperture", type=area_flag, metavar="M2",
                   help="effective aperture in m^2")
    p.add_argument("--diameter", type=distance_flag, metavar="DIST",
                   help="dish diameter with unit suffix (m); uses aperture efficiency")
    p.add_argument("--aperture-efficiency", type=plain_flag, metavar="ETA",
                   help="aperture efficiency used with --diameter (default 0.65)")
    p.add_argument("--gain", type=gain_flag, metavar="GAIN",
                   help="receiver gain with explicit suffix dbi or lin; needs --frequency")
    p.add_argument("--frequency", type=frequency_flag, metavar="FREQ",
                   help="frequency with unit suffix, for the gain-based form")
    p.add_argument("--rho2", type=plain_flag, default=None, metavar="RHO2",
                   help="polarisation power coupling in (0, 1]; defaults from --coherence")
    p.add_argument("--coherence", choices=("coherent", "incoherent"),
                   default="coherent",
                   help="coherence class setting the default polarisation "
                        "coupling factor (1 coherent, 0.5 incoherent)")
    p.set_defaults(handler=_cmd_nef)

    p = sub.add_parser("convert", parents=[common], formatter_class=_formatter,
                       help="unit conversions and inverse field/temperature mapping")
    p.add_argument("--db-to-linear", type=plain_flag, metavar="DB",
                   help="power dB value to convert to a linear ratio")
    p.add_argument("--linear-to-db", type=plain_flag, metavar="X",
                   help="linear power ratio to convert to dB")
    p.add_argument("--wavelength-of", type=frequency_flag, metavar="FREQ",
                   help="frequency with unit suffix to convert to wavelength in m")
    p.add_argument("--field", type=plain_flag, metavar="V_M",
                   help="field amplitude in V/m for the power relation (needs --aperture)")
    p.add_argument("--aperture", type=area_flag, metavar="M2",
                   help="aperture in m^2 for the power relation")
    p.add_argument("--noise-figure", type=ratio_db_flag, metavar="DB",
                   help="noise figure with suffix db to convert to T_Rx in kelvin")
    p.add_argument("--nef", type=plain_flag, metavar="V_M_SQRTHZ",
                   help="field sensitivity in V/m/sqrt(Hz) to map to a noise temperature")
    p.add_argument("--gain", type=gain_flag, metavar="GAIN",
                   help="assumed gain with explicit suffix dbi or lin, for --nef")
    p.add_argument("--frequency", type=frequency_flag, metavar="FREQ",
                   help="assumed frequency with unit suffix, for --nef")
    p.add_argument("--rho2", type=plain_flag, default=1.0, metavar="RHO2",
                   help="polarisation power coupling in (0, 1] (default 1)")
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("enhance", parents=[common], formatter_class=_formatter,
                       help="cavity field-enhancement chain against a receiver reference")
    p.add_argument("--f0", type=frequency_flag, required=True, metavar="FREQ",
                   help="cavity centre frequency with unit suffix")
    p.add_argument("--q-loaded", type=plain_flag, metavar="Q",
                   help="loaded quality factor")
    p.add_argument("--q-external", type=plain_flag, metavar="Q",
                   help="external quality factor (with --q-internal)")
    p.add_argument("--q-internal", type=plain_flag, metavar="Q",
                   help="internal quality factor (with --q-external)")
    p.add_argument("--signal-bandwidth", type=frequency_flag, metavar="FREQ",
                   help="admitted signal bandwidth with unit suffix; sets Q_L = f0/B")
    p.add_argument("--rf-efficiency", type=plain_flag, required=True, metavar="ETA",
                   help="RF transfer efficiency into the cavity, in (0, 1]")
    p.add_argument("--mode-volume", type=volume_flag, required=True, metavar="M3",
                   help="electric-energy mode volume in m^3")
    p.add_argument("--tsys", type=temperature_flag, required=True, metavar="K",
                   help="reference system noise temperature in kelvin")
    p.add_argument("--aperture", type=area_flag, metavar="M2",
                   help="reference effective aperture in m^2")
    p.add_argument("--diameter", type=distance_flag, metavar="DIST",
                   help="reference dish diameter with unit suffix (m)")
    p.add_argument("--aperture-efficiency", type=plain_flag, metavar="ETA",
                   help="aperture efficiency used with --diameter (default 0.65)")
    p.add_argument("--gain", type=gain_flag, metavar="GAIN",
                   help="reference gain with explicit suffix dbi or lin; needs --frequency")
    p.add_argument("--frequency", type=frequency_flag, metavar="FREQ",
                   help="reference frequency with unit suffix, used with --gain")
    p.add_argument("--rho2", type=plain_flag, default=1.0, metavar="RHO2",
                   help="polarisation power coupling in (0, 1] (default 1)")
    p.add_argument("--sensor-nef", type=plain_flag, metavar="V_M_SQRTHZ",
                   help="sensor local NEF in V/m/sqrt(Hz) to compare against the chain")
    p.set_defaults(handler=_cmd_enhance)

    p = sub.add_parser("rydberg", parents=[common], formatter_class=_formatter,
                       help="atomic-sensor noise floors and field calibration")
    p.add_argument("--dipole", type=plain_flag, metavar="C_M",
                   help="transition dipole moment in C*m")
    p.add_argument("--dipole-ea0", type=plain_flag, metavar="X",
                   help="transition dipole moment as a multiple of e*a_0")
    p.add_argument("--atoms", type=plain_flag, metavar="N",
                   help="participating atom count")
    p.add_argument("--coherence-time", type=time_flag, metavar="TIME",
                   help="coherence time with unit suffix (s/ms/us)")
    p.add_argument("--integration-time", type=time_flag, metavar="TIME",
                   help="integration time with unit suffix; warns when below coherence")
    p.add_argument("--probe-power", type=power_flag, metavar="P_W",
                   help="detected probe power in watts (suffix w/mw/uw optional)")
    p.add_argument("--probe-frequency", type=frequency_flag, metavar="FREQ",
                   help="probe laser frequency with unit suffix")
    p.add_argument("--field", type=plain_flag, metavar="V_M",
                   help="field amplitude in V/m to convert to a Rabi frequency")
    p.add_argument("--rabi", type=plain_flag, metavar="RAD_S",
                   help="Rabi frequency in rad/s (field inverse, or Stark with --detuning)")
    p.add_argument("--alignment-cosine", type=plain_flag, default=1.0, metavar="COS",
                   help="field/dipole alignment cosine in [-1, 1] (default 1)")
    p.add_argument("--detuning", type=plain_flag, metavar="RAD_S",
                   help="detuning in rad/s for the AC-Stark shift")
    p.add_argument("--stark-constant", type=plain_flag, default=0.25, metavar="K",
                   help="AC-Stark proportionality constant (default 1/4 convention)")
    p.add_argument("--sensor-nef", type=plain_flag, metavar="V_M_SQRTHZ",
                   help="sensor NEF in V/m/sqrt(Hz) to map to a noise temperature")
    p.add_argument("--gain", type=gain_flag, metavar="GAIN",
                   help="assumed coupling gain with explicit suffix dbi or lin")
    p.add_argument("--frequency", type=frequency_flag, metavar="FREQ",
                   help="assumed carrier frequency with unit suffix")
    p.add_argument("--rho2", type=plain_flag, default=1.0, metavar="RHO2",
                   help="polarisation power coupling in (0, 1] (default 1)")
    p.set_defaults(handler=_cmd_rydberg)

    p = sub.add_parser("dataset-derive", parents=[common], formatter_class=_formatter,
                       help="parse the instrument dataset and derive per-row fields")
    p.add_argument("--input", metavar="PATH",
                   help="dataset CSV (default: the bundled instrument table)")
    p.add_argument("--mismatch-tolerance", type=plain_flag, default=0.10, metavar="REL",
                   help="relative tolerance for quoted-vs-recomputed field "
                        "diagnostics (default 0.10)")
    p.set_defaults(handler=_cmd_dataset_derive)

    p = sub.add_parser("dataset-ranges", parents=[common], formatter_class=_formatter,
                       help="synthesize per-category parameter ranges")
    p.add_argument("--input", metavar="PATH",
                   help="dataset CSV (default: the bundled instrument table)")
    p.add_argument("--sig-figs", type=int, default=2, metavar="N",
                   help="significant digits for rounded bounds (default 2)")
    p.add_argument("--no-rounding", action="store_true",
                   help="emit unrounded bounds (invariant-testing mode)")
    p.set_defaults(handler=_cmd_dataset_ranges)

    p = sub.add_parser("dataset-plotdata", parents=[common], formatter_class=_formatter,
                       help="emit bandwidth/field plot data (rectangles and markers)")
    p.add_argument("--input", metavar="PATH",
                   help="dataset CSV (default: the bundled instrument table)")
    p.add_argument("--marker", type=marker_flag, action="append",
                   metavar="NAME:FREQ:E",
                   help="extra point marker: name, bandwidth with unit suffix, "
                        "field in V/m/sqrt(Hz) (repeatable)")
    p.add_argument("--converter-bandwidth", type=frequency_flag, metavar="FREQ",
                   help="bandwidth coordinate with unit suffix for the built-in "
                        "converter marker (default 1e7hz)")
    p.add_argument("--no-converter-marker", action="store_true",
                   help="omit the built-in converter marker")
    p.add_argument("--thermal-line", type=plain_flag, metavar="V_M_SQRTHZ",
                   help="include the 290 K thermal reference line at this field "
                        "value in V/m/sqrt(Hz)")
    p.set_defaults(handler=_cmd_dataset_plotdata)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return 2

    try:
        payload, table, columns = args.handler(args)
        rendered = render_report(payload, args.format, table, columns)
    except DomainError as exc:
        print(f"domain-error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema-error: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, ZeroDivisionError):
        # Also a division by a product of inputs that underflowed to zero.
        print(f"domain-error: {args.command}: a result overflows the float range",
              file=sys.stderr)
        return 2

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
