"""The ``rydberg`` subcommand: atomic-sensor noise floors and field calibration."""

from .cli import _RHO2, Flag, frequency_flag, gain_flag, plain_flag, power_flag, time_flag
from .errors import FLOAT_MAX, DomainError, require


def _cmd_rydberg(args) -> dict:
    from . import rydberg as ry

    payload: dict = {}
    warnings = []
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
        payload["qpn_nef_v_m_sqrthz"] = ry.qpn_nef(dipole, args.atoms, args.coherence_time)
        if args.integration_time is not None and args.integration_time < args.coherence_time:
            warnings.append("integration time is below the coherence time; the projection-noise "
                            "expression assumes integration over at least one coherence time")
    if args.integration_time is not None:
        if not 0.0 < args.integration_time <= FLOAT_MAX:
            require("integration time", args.integration_time, "s")
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
    if warnings:
        payload["warnings"] = warnings
    return payload


COMMANDS = {
    "rydberg": (_cmd_rydberg, (
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
}
