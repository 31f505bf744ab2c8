"""The ``budget`` subcommand: an end-to-end link budget from flags or a JSON document."""

from .cli import Flag, db_flag, distance_flag, frequency_flag, plain_flag, temperature_flag
from .errors import DomainError, SchemaError


def named_db_flag(text: str) -> tuple[str, float]:
    """NAME=VALUEdb pair, e.g. ``fsl=206.5db``."""
    if "=" not in text:
        raise ValueError(f"expected NAME=VALUEdb, got {text!r}")
    name, _, raw = text.partition("=")
    name = name.strip()
    if not name:
        raise ValueError(f"empty name in {text!r}")
    return name, db_flag("db")(raw)


# Budget document key -> the LinkBudget field it sets; losses_db and thresholds_db
# are objects of name: dB pairs.
_BUDGET_KEYS = {
    "losses_db": "losses_db", "tx_power_dbw": "transmit_power_dbw",
    "tx_gain_dbi": "transmit_gain_dbi", "rx_gain_dbi": "receive_gain_dbi",
    "antenna_temp_k": "antenna_temperature_k", "receiver_temp_k": "receiver_temperature_k",
    "data_rate_bps": "data_rate_bps", "tx_feeder_loss_db": "transmit_feeder_loss_db",
    "feeder_loss_linear": "feeder_loss_linear", "thresholds_db": "required_eb_n0_db",
    "distance_m": "path_length_m", "frequency_hz": "frequency_hz",
}
_REQUIRED_BUDGET_KEYS = ("losses_db", "tx_power_dbw", "tx_gain_dbi", "rx_gain_dbi",
                         "antenna_temp_k", "receiver_temp_k", "data_rate_bps")


def _budget_fields_from_json(path: str) -> dict:
    """The ``LinkBudget`` fields of a flat JSON budget document."""
    import json  # the only JSON input, so no other call loads the json package

    def unique(pairs: list) -> dict:  # a JSON object, each of its keys given once
        document = {}
        for key, value in pairs:
            if key in document:
                raise SchemaError(f"budget document repeats key {key!r}")
            document[key] = value
        return document

    def number(value) -> float:  # a JSON number: float() would also take "45" and true
        kind = {str: "string", bool: "boolean", type(None): "null"}.get(type(value))
        if kind:
            raise ValueError(f"could not convert {kind} to float: {value!r}")
        return float(value)

    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            document = json.load(handle, object_pairs_hook=unique)
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read budget file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"budget file is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError("budget document must be a JSON object")
    fields = {"transmit_feeder_loss_db": 0.0, "feeder_loss_linear": 1.0}  # LinkBudget has the rest
    for key, value in document.items():
        if key not in _BUDGET_KEYS:
            raise SchemaError(f"budget document has unknown key {key!r}")
        ledger = key in ("losses_db", "thresholds_db")
        if ledger and type(value) is not dict:
            raise SchemaError(f"budget document key {key!r} must be a JSON object")
        try:
            fields[_BUDGET_KEYS[key]] = (
                tuple((name, number(v)) for name, v in value.items()) if ledger else number(value)
            )
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: float(10**400)
            raise SchemaError(f"budget document has a malformed value: {exc}") from exc
    missing = [key for key in _REQUIRED_BUDGET_KEYS if key not in document]
    if missing:
        raise SchemaError(f"budget document is missing key {missing[0]!r}")
    return fields


def _cmd_budget(args) -> dict:
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
    return payload


COMMANDS = {
    "budget": (_cmd_budget, (
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
}
