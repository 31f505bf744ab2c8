"""The ``nedt`` and ``calibrate`` subcommands: radiometer sensitivity and calibration."""

from .cli import Flag, frequency_flag, plain_flag, temperature_flag, time_flag
from .errors import FLOAT_MAX, DomainError, require


def calibration_point_flag(text: str) -> tuple[float, float]:
    """TEMP:POWER pair in K and W, e.g. ``77:1.06e-11``."""
    if ":" not in text:
        raise ValueError(f"expected TEMP_K:POWER_W, got {text!r}")
    left, _, right = text.partition(":")
    try:
        return float(left), float(right)
    except ValueError as exc:
        raise ValueError(f"cannot parse point {text!r}") from exc


def _cmd_nedt(args) -> dict:
    from . import radiometry as rm

    if not (0.0 < args.bandwidth <= FLOAT_MAX and 0.0 < args.integration_time <= FLOAT_MAX):
        require("--bandwidth", args.bandwidth)
        require("--integration-time", args.integration_time)
    if args.nedt is not None:
        if not 0.0 < args.nedt <= FLOAT_MAX:
            require("--nedt", args.nedt)
        t_sys = rm.tsys_from_nedt(
            args.nedt, args.bandwidth, args.integration_time, args.gain_stability
        )
        return {"system_temperature_k": t_sys, "nedt_k": args.nedt}

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
    return payload


def _cmd_calibrate(args) -> dict:
    from . import radiometry as rm
    from .quantities import linear_to_db

    if not 0.0 < args.bandwidth <= FLOAT_MAX:
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
    return payload


_BANDWIDTH = Flag("--bandwidth", frequency_flag, "FREQ", "detection bandwidth with unit suffix (hz/khz/mhz/ghz)", kind="required")

COMMANDS = {
    "nedt": (_cmd_nedt, (
        Flag("--antenna-temp", temperature_flag, "K", "antenna temperature T_A in kelvin"),
        Flag("--receiver-temp", temperature_flag, "K", "receiver noise temperature T_Rx in kelvin"),
        _BANDWIDTH,
        Flag("--integration-time", time_flag, "TIME", "integration time with unit suffix (s/ms/us)", kind="required"),
        Flag("--gain-stability", plain_flag, "X", "fractional gain fluctuation dG/G, dimensionless (default 0)", 0.0),
        Flag("--gain", plain_flag, "G", "linear receiver gain; adds the output-power estimate"),
        Flag("--nedt", temperature_flag, "K", "invert a known NEDT in kelvin to a system temperature"))),
    "calibrate": (_cmd_calibrate, (
        _BANDWIDTH,
        Flag("--point", calibration_point_flag, "T_K:P_W", "calibration load: temperature in kelvin and measured power in watts (repeatable, at least two)", kind="required append"))),
}
