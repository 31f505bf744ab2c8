"""The ``radar`` subcommand: received power, SNR, NESZ and resolution."""

from .cli import (Flag, area_flag, distance_flag, frequency_flag, gain_flag, plain_flag,
                  power_flag, ratio_db_flag, temperature_flag, time_flag)
from .errors import DomainError


def _cmd_radar(args) -> dict:
    from . import radar as rd
    from .quantities import db_to_linear, frequency_to_wavelength, linear_to_db

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
            if ratio > 0.0:  # sigma0 / SNR has no value at an SNR of 0
                payload["nesz"] = rd.nesz(target.sigma0, ratio)
            payload["nesz_at_unit_snr"] = rd.nesz_at_unit_snr(scenario)
    if args.bandwidth is not None:
        payload["range_resolution_m"] = rd.range_resolution(args.bandwidth)
    if args.compare_tsys is not None:
        if args.tsys is None:
            raise DomainError("--compare-tsys needs --tsys")
        payload["max_range_ratio"] = rd.max_range_ratio(args.tsys, args.compare_tsys)
    return payload


COMMANDS = {
    "radar": (_cmd_radar, (
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
}
