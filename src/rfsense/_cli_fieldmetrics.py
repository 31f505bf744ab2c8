"""The ``nef``, ``convert`` and ``enhance`` subcommands: fields, conversions and cavities."""

from .cli import (_RHO2, Flag, area_flag, distance_flag, frequency_flag, gain_flag, plain_flag,
                  ratio_db_flag, temperature_flag, volume_flag)
from .errors import FLOAT_MAX, DomainError, require


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


def _cmd_nef(args) -> dict:
    from . import fieldmetrics as fm

    if not 0.0 < args.tsys <= FLOAT_MAX:
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
    return payload


def _cmd_convert(args) -> dict:
    from . import fieldmetrics as fm
    from .quantities import db_to_linear, frequency_to_wavelength, linear_to_db, power_from_field

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
    return payload


def _cmd_enhance(args) -> dict:
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

    if not 0.0 < args.tsys <= FLOAT_MAX:
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
    if beta < 1.0:
        payload["warnings"] = [f"enhancement factor {beta:g} < 1 attenuates the field"]
    return payload


_APERTURE_EFFICIENCY = Flag("--aperture-efficiency", plain_flag, "ETA", "aperture efficiency used with --diameter (default 0.65)")

COMMANDS = {
    "nef": (_cmd_nef, (
        Flag("--tsys", temperature_flag, "K", "system noise temperature in kelvin", kind="required"),
        Flag("--aperture", area_flag, "M2", "effective aperture in m^2"),
        Flag("--diameter", distance_flag, "DIST", "dish diameter with unit suffix (m); uses aperture efficiency"),
        _APERTURE_EFFICIENCY,
        Flag("--gain", gain_flag, "GAIN", "receiver gain with explicit suffix dbi or lin; needs --frequency"),
        Flag("--frequency", frequency_flag, "FREQ", "frequency with unit suffix, for the gain-based form"),
        Flag("--rho2", plain_flag, "RHO2", "polarisation power coupling in (0, 1]; defaults from --coherence"),
        Flag("--coherence", ("coherent", "incoherent"), None, "coherence class setting the default polarisation coupling factor (1 coherent, 0.5 incoherent)", "coherent"))),
    "convert": (_cmd_convert, (
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
    "enhance": (_cmd_enhance, (
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
}
