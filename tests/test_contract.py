"""The error contract of every public operation, at the engine and at the CLI.

Engine: from one valid baseline call, which must return finite numbers, each
float parameter in turn takes NaN, +-inf and a value just outside its
documented bound, and the call must raise a ``DomainError`` that names that
parameter.  Each float parameter also takes finite values at the edges of the
float range, and the call must return finite numbers (non-zero where the
result is checked > 0) or raise a ``DomainError`` that names the parameter or
the result that left the float range.  An operation that reads the free-space
impedance from ``RFSENSE_ETA0_OHMS`` gets the bad values through that
variable, and must raise a ``DomainError`` that names it, and its result must
follow a valid value of it.  The operations are the functions that the
engine modules name in their ``__all__``, so a new public operation fails
here until it has a baseline.  A record-typed argument
(``ReceiverNoiseModel``, ``RadarScenario``, ...) contributes its float
fields as parameters; an ``InstrumentRecord`` is a parsed table row whose
cells the parser validates, so its fields are not varied.

CLI: every subcommand, driven in-process with generated flag values, ends in
exit 0, 2 or 3 with at most one stderr line.
"""

import contextlib
import gc
import importlib
import inspect
import io
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsense import dataset as ds
from rfsense import fieldmetrics as fm
from rfsense import linkbudget as lb
from rfsense import quantities as q
from rfsense import radar as rd
from rfsense import radiometry as rm
from rfsense import rydberg as ry
from rfsense._cli_dataset import int_flag
from rfsense.cli import SUBCOMMANDS, main
from rfsense.errors import DomainError, SingularFitError

ABOVE_ONE = math.nextafter(1.0, 2.0)
# Values just outside each documented bound.
OUTSIDE = {
    ">0": (0.0, -0.0),
    ">=0": (-1e-300,),
    ">=1": (math.nextafter(1.0, 0.0),),
    "(0,1]": (0.0, ABOVE_ONE),
    "[-1,1]": (-ABOVE_ONE, ABOVE_ONE),
    "finite": (),
}
# Parameters whose message names the quantity in other words.
NAMED_AS = {
    "x": "dB value",
    "rho2": "rho^2",
    "multiple_of_e_a0": "multiple of e*a_0",
    "q_loaded": "loaded quality factor",
    "g_over_t_db": "G/T",
    "c_over_n0_dbhz": "C/N0",
    "sensor_nef": "NEF",  # compare_to_classical passes it on to tsys_from_nef
}
# Finite values at the edges of the float range: huge, tiny, subnormal.
EXTREME_FINITE = (1e300, -1e300, 1e-300, 1e-320, 5e-324)
# What the result checks call the results they hold to the float range, and the
# "dB value" of db_to_linear, whose upper bound a noise figure or a gain meets.
RESULT_QUANTITIES = {
    "AC Stark shift", "NEDT", "NEF", "NESZ", "Rabi frequency", "SNR", "collected power",
    "dB value", "dipole moment", "effective aperture", "enhancement factor",
    "field amplitude", "linear ratio", "local field requirement",
    "processed received power", "processing gain", "projection-noise NEF",
    "range resolution", "received power", "system temperature", "wavelength",
}
# Operations whose result is checked > 0: every other result may be 0, because it
# is signed, a truth value, or zero for a zero input (T >= 0, E >= 0, sigma >= 0).
POSITIVE_RESULTS = {
    "fieldmetrics.aperture_from_diameter", "fieldmetrics.aperture_from_gain",
    "fieldmetrics.enhancement_factor_cavity", "fieldmetrics.local_field_requirement",
    "fieldmetrics.nef_from_aperture", "fieldmetrics.nef_from_gain",
    "fieldmetrics.tsys_from_nef", "quantities.db_to_linear",
    "quantities.frequency_to_wavelength", "radar.max_range_ratio",
    "radar.processing_gain_from_pulse", "radar.range_resolution",
    "radiometry.tsys_from_nedt", "rydberg.compare_to_classical", "rydberg.dipole_moment",
    "rydberg.qpn_nef",
}
UNIT_WORDS = {"k", "hz", "s", "m", "m2", "m3", "w", "cm", "db", "dbw", "dbi", "dbhz", "bps",
              "v", "per", "sqrt", "rad"}

BUNDLED_CSV = Path(ds.__file__).parent / "data" / "instruments.csv"
BUNDLED = ds.load_bundled_dataset().records
DERIVED = ds.derive_records(BUNDLED)[0]
EIRP = dict(transmit_power_dbw=(20.0, "finite"), transmit_gain_dbi=(45.0, "finite"))
TEMPERATURES = dict(antenna_temperature_k=(250.0, ">=0"), receiver_temperature_k=(600.0, ">=0"))
SCENARIO = dict(
    transmit_power_w=(1e3, ">0"), transmit_gain=(1e3, ">0"), receive_gain=(1e3, ">0"),
    wavelength_m=(0.03, ">0"), range_m=(1e5, ">0"), system_loss=(2.0, ">=1"),
    propagation_loss=(1.5, ">=1"), processing_gain=(10.0, ">=1"),
    system_temperature_k=(290.0, ">=0"), bandwidth_hz=(1e6, ">0"),
)
CELL = dict(sigma0=(0.05, ">=0"), cell_area_m2=(20.0, ">0"))
APERTURE_FORM = dict(system_temperature_k=(23.0, ">0"), effective_aperture_m2=(2660.0, ">0"),
                     rho2=(1.0, "(0,1]"))
GAIN_FORM = dict(gain=(1.5, ">0"), frequency_hz=(96e9, ">0"), rho2=(0.5, "(0,1]"))
ETA_0 = dict(eta_0=(376.73, ">0"))
CAVITY = dict(frequency_hz=(8.4e9, ">0"), q_loaded=(8400.0, ">0"),
              rf_efficiency=(0.8, "(0,1]"), mode_volume_m3=(1e-5, ">0"))
DIPOLE = dict(dipole_moment_cm=(8.5e-27, ">0"), alignment_cosine=(0.5, "[-1,1]"))


def _radar(operation, target_type):
    """``operation`` on a scenario built from keywords, the target's fields among them."""
    def call(**kwargs):
        target = target_type(*[kwargs.pop(name) for name in target_type._fields])
        return operation(rd.RadarScenario(target=target, **kwargs))
    return call


def _budget(fsl, atm, qpsk, **fields):
    budget = lb.LinkBudget(losses_db=(("fsl", fsl), ("atm", atm)),
                           required_eb_n0_db=(("qpsk", qpsk),), **fields)
    return lb.evaluate_link(budget)


def _cavity(effective_aperture_m2, **fields):
    return fm.enhancement_factor_cavity(fm.CavityCoupling(**fields), effective_aperture_m2)


def _reference(enhancement, **fields):
    return fm.local_field_requirement(fm.ReceiverReference(**fields), enhancement)


def _calibrate(antenna_temperature_k, output_power_w, bandwidth_hz):
    points = [rm.CalibrationPoint(antenna_temperature_k, output_power_w),
              rm.CalibrationPoint(300.0, 1.24e-10)]
    return rm.calibrate_hot_cold(points, bandwidth_hz)


# Operation -> (call taking the parameters as keywords, {parameter: (valid value, bound)}).
BASELINES = {
    "radiometry.nedt": (
        lambda **k: rm.nedt(rm.ReceiverNoiseModel(**k)),
        dict(TEMPERATURES, bandwidth_hz=(1e9, ">0"), integration_time_s=(15e-3, ">0"),
             gain_stability=(1.5e-5, ">=0")),
    ),
    "radiometry.radiometer_output_power": (
        rm.radiometer_output_power,
        dict(TEMPERATURES, gain=(1e10, ">0"), bandwidth_hz=(1e9, ">0")),
    ),
    "radiometry.tsys_from_nedt": (
        rm.tsys_from_nedt,
        dict(nedt_k=(0.22, ">0"), bandwidth_hz=(1e9, ">0"), integration_time_s=(15e-3, ">0"),
             gain_stability=(1.5e-5, ">=0")),
    ),
    "radiometry.calibrate_hot_cold": (
        _calibrate,
        dict(antenna_temperature_k=(77.0, ">=0"), output_power_w=(9.35e-11, ">=0"),
             bandwidth_hz=(1e9, ">0")),
    ),
    "radar.received_power": (
        _radar(rd.received_power, rd.PointTarget), dict(SCENARIO, cross_section_m2=(1.0, ">=0")),
    ),
    "radar.processed_received_power": (
        _radar(rd.processed_received_power, rd.ResolutionCell), dict(SCENARIO, **CELL),
    ),
    "radar.nesz_at_unit_snr": (
        _radar(rd.nesz_at_unit_snr, rd.ResolutionCell), dict(SCENARIO, **CELL),
    ),
    "radar.processing_gain_from_pulse": (
        rd.processing_gain_from_pulse, dict(bandwidth_hz=(1e8, ">0"), pulse_width_s=(1e-5, ">0")),
    ),
    "radar.noise_power": (
        rd.noise_power, dict(system_temperature_k=(290.0, ">=0"), bandwidth_hz=(1e6, ">0")),
    ),
    "radar.snr": (rd.snr, dict(received_power_w=(4e-15, ">=0"), noise_power_w=(4e-13, ">0"))),
    "radar.nesz": (rd.nesz, dict(sigma0=(0.05, ">=0"), snr_linear=(2.0, ">0"))),
    "radar.range_resolution": (rd.range_resolution, dict(bandwidth_hz=(1e8, ">0"))),
    "radar.max_range_ratio": (
        rd.max_range_ratio,
        dict(system_temperature_1_k=(290.0, ">0"), system_temperature_2_k=(145.0, ">0")),
    ),
    "linkbudget.eirp": (lb.eirp, dict(EIRP, feeder_loss_db=(2.0, "finite"))),
    "linkbudget.system_noise_temperature": (
        lb.system_noise_temperature,
        dict(TEMPERATURES, feeder_loss_linear=(1.5, ">=1")),
    ),
    "linkbudget.figure_of_merit": (
        lb.figure_of_merit,
        dict(receive_gain_dbi=(50.0, "finite"), system_temperature_k=(395.0, ">0")),
    ),
    "linkbudget.free_space_loss": (
        lb.free_space_loss, dict(distance_m=(3.6e7, ">0"), frequency_hz=(20e9, ">0")),
    ),
    "linkbudget.total_loss": (
        lambda fsl, atm: lb.total_loss((("fsl", fsl), ("atm", atm))),
        dict(fsl=(206.5, ">=0"), atm=(2.0, ">=0")),
    ),
    "linkbudget.c_over_n0": (
        lb.c_over_n0,
        dict(eirp_dbw=(63.0, "finite"), loss_db=(212.5, "finite"), g_over_t_db=(24.0, "finite")),
    ),
    "linkbudget.eb_over_n0": (
        lb.eb_over_n0, dict(c_over_n0_dbhz=(103.0, "finite"), data_rate_bps=(1e8, ">0")),
    ),
    "linkbudget.evaluate_link": (
        _budget,
        dict(EIRP, **TEMPERATURES, transmit_feeder_loss_db=(2.0, ">=0"), fsl=(206.5, ">=0"),
             atm=(2.0, ">=0"), receive_gain_dbi=(50.0, "finite"),
             feeder_loss_linear=(1.5, ">=1"), data_rate_bps=(1e8, ">0"), qpsk=(4.0, "finite"),
             path_length_m=(3.6e7, ">0"), frequency_hz=(20e9, ">0")),
    ),
    "fieldmetrics.sefd": (
        fm.sefd,
        dict(system_temperature_k=(500.0, ">=0"), effective_aperture_m2=(18.4, ">0"),
             rho2=(0.5, "(0,1]")),
    ),
    "fieldmetrics.nef_from_aperture": (fm.nef_from_aperture, dict(APERTURE_FORM, **ETA_0)),
    "fieldmetrics.nef_from_gain": (
        fm.nef_from_gain, dict(GAIN_FORM, system_temperature_k=(7000.0, ">0")),
    ),
    "fieldmetrics.tsys_from_nef": (
        fm.tsys_from_nef, dict(GAIN_FORM, nef_v_per_m_sqrt_hz=(7.9e-6, ">0")),
    ),
    "fieldmetrics.aperture_from_gain": (
        fm.aperture_from_gain, dict(gain=(1.5, ">0"), frequency_hz=(96e9, ">0")),
    ),
    "fieldmetrics.aperture_from_diameter": (
        fm.aperture_from_diameter,
        dict(diameter_m=(34.0, ">0"), aperture_efficiency=(0.65, "(0,1]")),
    ),
    "fieldmetrics.default_polarisation_coupling": (
        lambda: fm.default_polarisation_coupling("incoherent"), {},
    ),
    "fieldmetrics.trx_from_noise_figure": (
        fm.trx_from_noise_figure, dict(noise_figure_db=(10.0, ">=0")),
    ),
    "fieldmetrics.enhancement_factor_cavity": (
        _cavity, dict(CAVITY, effective_aperture_m2=(590.0, ">0")),
    ),
    "fieldmetrics.local_field_requirement": (
        _reference, dict(APERTURE_FORM, enhancement=(4.7e4, ">0")),
    ),
    "fieldmetrics.meets_classical_reference": (
        fm.meets_classical_reference,
        dict(sensor_local_nef=(1e-7, ">0"), local_field_requirement_value=(6.3e-7, ">0")),
    ),
    "quantities.db_to_linear": (q.db_to_linear, dict(x=(3.0, "finite"))),
    "quantities.linear_to_db": (q.linear_to_db, dict(ratio=(2.0, ">0"))),
    "quantities.frequency_to_wavelength": (
        q.frequency_to_wavelength, dict(frequency_hz=(20e9, ">0")),
    ),
    "quantities.power_from_field": (
        q.power_from_field,
        dict(field_v_per_m=(0.01, ">=0"), aperture_m2=(1.0, ">0")),
    ),
    "rydberg.dipole_moment": (ry.dipole_moment, dict(multiple_of_e_a0=(1000.0, ">0"))),
    "rydberg.qpn_nef": (
        ry.qpn_nef,
        dict(dipole_moment_cm=(8.5e-27, ">0"), atom_count=(1e6, ">0"),
             coherence_time_s=(1e-5, ">0")),
    ),
    "rydberg.photon_shot_noise_nep": (
        ry.photon_shot_noise_nep,
        dict(probe_power_w=(1e-3, ">=0"), probe_frequency_hz=(384e12, ">0")),
    ),
    "rydberg.rabi_from_field": (ry.rabi_from_field, dict(DIPOLE, field_v_per_m=(0.01, ">=0"))),
    "rydberg.field_from_rabi": (ry.field_from_rabi, dict(DIPOLE, rabi_rad_per_s=(8e5, ">=0"))),
    "rydberg.ac_stark_shift": (
        ry.ac_stark_shift,
        dict(rabi_rad_per_s=(1e5, "finite"), detuning_rad_per_s=(-1e7, "finite"),
             proportionality=(0.25, "finite")),
    ),
    "rydberg.compare_to_classical": (
        ry.compare_to_classical, dict(GAIN_FORM, sensor_nef=(7.9e-6, ">0")),
    ),
    "dataset.parse_instruments": (
        lambda: ds.parse_instruments(BUNDLED_CSV.read_text(encoding="utf-8")), {},
    ),
    "dataset.derive_record": (lambda eta_0: ds.derive_record(BUNDLED[0], eta_0), ETA_0),
    "dataset.derive_records": (lambda: ds.derive_records(BUNDLED), {}),
    "dataset.consistency_diagnostics": (
        lambda rel_tol: ds.consistency_diagnostics(DERIVED, rel_tol), dict(rel_tol=(0.1, ">=0")),
    ),
    "dataset.load_bundled_dataset": (ds.load_bundled_dataset, {}),
    "dataset.synthesize_all": (lambda: ds.synthesize_all(DERIVED, 2), {}),
    "dataset.round_to_sig_figs": (ds.round_to_sig_figs, dict(value=(0.0123, "finite"))),
    "dataset.emit_plot_data": (
        lambda probe_bandwidth, probe_field, **k: ds.emit_plot_data(
            ds.synthesize_all(DERIVED), (("probe", probe_bandwidth, probe_field),), True, **k),
        dict(probe_bandwidth=(5e6, ">0"), probe_field=(1e-8, ">0"),
             converter_bandwidth_hz=(1e7, ">0"),
             thermal_reference_field=(2.4e-8, ">0")),
    ),
}
# The engine modules by name, and their public operations: each function an
# ``__all__`` names, less the configuration accessors.
ENGINES = {"quantities": q, "radiometry": rm, "radar": rd, "linkbudget": lb,
           "fieldmetrics": fm, "rydberg": ry, "dataset": ds}
NON_OPERATIONS = {"quantities.default_eta0"}
OPERATIONS = sorted(
    f"{name}.{symbol}" for name, module in ENGINES.items() for symbol in module.__all__
    if inspect.isfunction(getattr(module, symbol)) and f"{name}.{symbol}" not in NON_OPERATIONS
)


def _finite(result) -> bool:
    """True when every number in ``result``, a value or nested container, is finite."""
    if isinstance(result, (int, float)):
        return math.isfinite(result)
    if isinstance(result, dict):
        return all(map(_finite, result.values()))
    if isinstance(result, (tuple, list)):
        return all(map(_finite, result))
    return True


def _phrase(parameter: str) -> str:
    words = [w for w in parameter.split("_") if w not in UNIT_WORDS]
    return NAMED_AS.get(parameter, " ".join(words))


def _names(message: str, parameter: str) -> bool:
    """The message names the parameter, or every word of its phrase, in any order."""
    text = message.lower()
    return parameter in text or all(w in text for w in _phrase(parameter).lower().split())


@pytest.mark.parametrize("operation", OPERATIONS)
def test_baseline_call_returns_finite_numbers(operation):
    assert operation in BASELINES, f"{operation} needs a baseline in BASELINES"
    call, parameters = BASELINES[operation]
    assert _finite(call(**{name: value for name, (value, _) in parameters.items()}))


def test_every_baseline_is_a_listed_operation():
    assert set(BASELINES) <= set(OPERATIONS)


@pytest.mark.parametrize("operation, parameter", [
    (operation, parameter)
    for operation in OPERATIONS if operation in BASELINES
    for parameter in BASELINES[operation][1]
])
def test_bad_value_is_a_domain_error_naming_the_parameter(operation, parameter):
    call, parameters = BASELINES[operation]
    valid = {name: value for name, (value, _) in parameters.items()}
    for bad in (math.nan, math.inf, -math.inf) + OUTSIDE[parameters[parameter][1]]:
        with pytest.raises(DomainError) as caught:
            call(**{**valid, parameter: bad})
        assert _names(str(caught.value), parameter), (bad, str(caught.value))


# Operations that read the free-space impedance from RFSENSE_ETA0_OHMS (through
# quantities.default_eta0) instead of taking it as an argument; nef_from_aperture
# reads it when its eta_0 argument is left out.
IMPEDANCE_READERS = (
    "dataset.derive_records", "dataset.synthesize_all",
    "fieldmetrics.enhancement_factor_cavity", "fieldmetrics.local_field_requirement",
    "fieldmetrics.nef_from_aperture", "fieldmetrics.nef_from_gain",
    "fieldmetrics.tsys_from_nef", "quantities.power_from_field",
    "rydberg.compare_to_classical",
)


def _baseline_without_eta0(operation):
    call, parameters = BASELINES[operation]
    valid = {name: value for name, (value, _) in parameters.items() if name != "eta_0"}
    return lambda: call(**valid)


@pytest.mark.parametrize("operation", IMPEDANCE_READERS)
def test_bad_impedance_in_the_environment_is_a_domain_error_naming_it(operation, monkeypatch):
    call = _baseline_without_eta0(operation)
    for bad in ("nan", "inf", "-inf", "0", "-0", "-1", "abc", ""):
        monkeypatch.setenv(q.ETA0_ENV_VAR, bad)
        with pytest.raises(DomainError) as caught:
            call()
        assert q.ETA0_ENV_VAR in str(caught.value), (bad, str(caught.value))


@pytest.mark.parametrize("operation", IMPEDANCE_READERS)
def test_result_follows_the_impedance_in_the_environment(operation, monkeypatch):
    call = _baseline_without_eta0(operation)
    monkeypatch.delenv(q.ETA0_ENV_VAR, raising=False)
    unset = call()
    monkeypatch.setenv(q.ETA0_ENV_VAR, repr(q.ETA_0))
    assert call() == unset
    monkeypatch.setenv(q.ETA0_ENV_VAR, repr(4.0 * q.ETA_0))
    assert call() != unset


@pytest.mark.parametrize("operation", sorted(BASELINES))
def test_extreme_finite_value_gives_finite_numbers_or_a_named_domain_error(operation):
    call, parameters = BASELINES[operation]
    valid = {name: value for name, (value, _) in parameters.items()}
    for parameter in parameters:
        for extreme in EXTREME_FINITE:
            case = (parameter, extreme)
            try:
                result = call(**{**valid, parameter: extreme})
            except SingularFitError:  # a calibration fit the extreme point makes degenerate
                continue
            except DomainError as exc:
                # A dataset row's message starts with "<instrument>: ".
                subject = str(exc).split(": ")[-1].partition(" must be ")[0]
                assert _names(str(exc), parameter) or subject in RESULT_QUANTITIES, (case, exc)
                continue
            assert _finite(result), (case, result)
            assert operation not in POSITIVE_RESULTS or result > 0.0, (case, result)


# Each subcommand's flags: (text before the number, a valid number, text after it).
CLI_FLAGS = {
    "nedt": {"--antenna-temp": ("", 250, ""), "--receiver-temp": ("", 600, ""),
             "--bandwidth": ("", 1, "ghz"), "--integration-time": ("", 15, "ms"),
             "--gain-stability": ("", 1.5e-5, ""), "--gain": ("", 1e10, "")},
    "calibrate": {"--bandwidth": ("", 1, "ghz"), "--point": ("", 77, ":1.06e-11")},
    "radar": {"--tx-power": ("", 4.3e3, "w"), "--tx-gain": ("", 44.5, "dbi"),
              "--rx-gain": ("", 44.5, "dbi"), "--frequency": ("", 5.405, "ghz"),
              "--sigma0": ("", 0.05, ""), "--cell-area": ("", 20, "m2"),
              "--range": ("", 700, "km"), "--tsys": ("", 606, ""),
              "--bandwidth": ("", 100, "mhz"), "--processing-gain": ("", 5000, ""),
              "--compare-tsys": ("", 300, ""), "--system-loss": ("", 1, "db"),
              "--propagation-loss": ("", 0.5, "db")},
    "budget": {"--tx-power": ("", 20, "dbw"), "--tx-gain": ("", 45, "dbi"),
               "--tx-feeder-loss": ("", 2, "db"), "--threshold": ("qpsk=", 4, "db"),
               "--loss": ("fsl=", 206.5, "db"), "--rx-gain": ("", 50, "dbi"),
               "--antenna-temp": ("", 100, ""), "--receiver-temp": ("", 100, ""),
               "--feeder-loss-linear": ("", 1.5, ""), "--data-rate": ("", 1e8, ""),
               "--distance": ("", 3.6e7, "m"), "--frequency": ("", 20, "ghz")},
    "nef": {"--tsys": ("", 23, ""), "--aperture": ("", 2660, "m2"), "--rho2": ("", 1, "")},
    "convert": {"--db-to-linear": ("", 3, ""), "--linear-to-db": ("", 2, ""),
                "--wavelength-of": ("", 20, "ghz"), "--field": ("", 0.01, ""),
                "--aperture": ("", 1, "m2"), "--noise-figure": ("", 10, "db"),
                "--nef": ("", 7.9e-6, ""), "--gain": ("", 1.5, "lin"),
                "--frequency": ("", 96, "ghz"), "--rho2": ("", 0.5, "")},
    "enhance": {"--f0": ("", 8.4, "ghz"), "--signal-bandwidth": ("", 1, "mhz"),
                "--rf-efficiency": ("", 0.8, ""), "--mode-volume": ("", 1e-5, ""),
                "--tsys": ("", 20, ""), "--diameter": ("", 34, "m"), "--rho2": ("", 1, ""),
                "--aperture-efficiency": ("", 0.65, ""),
                "--sensor-nef": ("", 1e-7, "")},
    "rydberg": {"--dipole-ea0": ("", 1000, ""), "--atoms": ("", 1e6, ""),
                "--coherence-time": ("", 10, "us"), "--integration-time": ("", 1, "ms"),
                "--field": ("", 0.01, ""),
                "--rabi": ("", 8e5, ""), "--rho2": ("", 0.5, ""),
                "--probe-power": ("", 1, "mw"), "--probe-frequency": ("", 384.349, "thz"),
                "--alignment-cosine": ("", 0.5, ""), "--sensor-nef": ("", 1e-6, ""),
                "--gain": ("", 1.5, "lin"), "--frequency": ("", 10, "ghz")},
    "dataset-derive": {"--mismatch-tolerance": ("", 0.1, "")},
    "dataset-ranges": {"--sig-figs": ("", 2, "")},
    "dataset-plotdata": {"--marker": ("probe:5mhz:", 1e-8, ""),
                         "--converter-bandwidth": ("", 1, "mhz"),
                         "--thermal-line": ("", 2.4e-8, "")},
}
# Numeric flags that CLI_FLAGS leaves out, each an alternative to a flag it gives: the
# handler refuses the two together or lets one of them win, so one call drives one.
ALTERNATIVE_FLAGS = {
    "nedt": {"--nedt"},
    "radar": {"--wavelength", "--sigma", "--pulse-width"},
    "nef": {"--diameter", "--aperture-efficiency", "--gain", "--frequency"},
    "enhance": {"--q-loaded", "--q-external", "--q-internal", "--aperture", "--gain",
                "--frequency"},
    "rydberg": {"--dipole", "--detuning", "--stark-constant"},
}
# Arguments every call of the subcommand also gets: a calibration needs two points.
CLI_FIXED = {"calibrate": ["--point=300:1.243e-11"]}
EXTREMES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-320, -1e-320, 1e308, -1e308, 1.0, -1.0,
     1e300, -1e300, 5e-324]
)


def _cli(command, changed):
    """argv, exit code, stdout and stderr of ``command`` with the ``changed`` flag values.

    ``main`` pauses the cyclic collector, so a call that made a reference cycle would
    keep it until the call ends. The call runs with the collector off, which ``main``
    must leave off, and no garbage cycle may be left behind. With the collector off,
    every object the call makes stays in the youngest generation, so collecting that
    generation alone finds such a cycle; a full collection would also walk every
    object of the test session, twice a call.
    """
    argv = [command] + CLI_FIXED.get(command, [])
    for flag, (before, value, after) in CLI_FLAGS[command].items():
        argv.append(f"{flag}={before}{changed.get(flag, value)!r}{after}")
    out, err = io.StringIO(), io.StringIO()
    gc.collect(0)
    gc.disable()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert not gc.isenabled(), argv
        assert gc.collect(0) == 0, argv
    finally:
        gc.enable()
    return argv, code, out.getvalue(), err.getvalue()


def test_cli_flags_cover_every_subcommand():
    assert set(CLI_FLAGS) == set(SUBCOMMANDS)


def _rows(command):
    """The flag rows of ``command``, from the COMMANDS table of its family module."""
    return importlib.import_module("rfsense." + SUBCOMMANDS[command][1]).COMMANDS[command][1]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_cli_flags_are_table_rows_and_every_numeric_row_is_driven_or_excused(command):
    rows = _rows(command)
    assert set(CLI_FLAGS[command]) <= {row.name for row in rows}
    numeric = {row.name for row in rows if callable(row.convert)}
    assert numeric - set(CLI_FLAGS[command]) == ALTERNATIVE_FLAGS.get(command, set())


@pytest.mark.parametrize("command", sorted(CLI_FLAGS))
def test_cli_baseline_succeeds(command):
    argv, code, out, err = _cli(command, {})
    assert (code, err) == (0, ""), argv
    assert out


@pytest.mark.parametrize("command, changed", [
    ("nedt", {"--bandwidth": 1e-320, "--integration-time": 1e-320}),
    ("radar", {"--range": 1e-320}),
])
def test_inputs_whose_product_underflows_are_one_domain_error_line(command, changed):
    _, code, out, err = _cli(command, changed)
    cause = {
        "nedt": "bandwidth x integration time 9.99989e-312 Hz x 9.88131e-324 s"
                " is outside the float range",
        "radar": "processed received power must be finite and >= 0 W, got inf",
    }[command]
    assert (code, out, err) == (2, "", f"domain-error: {cause}\n")


@pytest.mark.parametrize("command", sorted(CLI_FLAGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cli_ends_in_a_contract_exit_code_with_one_stderr_line(command, data):
    flags = data.draw(st.lists(st.sampled_from(sorted(CLI_FLAGS[command])),
                               max_size=3, unique=True))
    # An integer flag refuses every float repr, so it gets integers.
    integers = {row.name for row in _rows(command) if row.convert is int_flag}
    changed = {flag: data.draw(st.integers() if flag in integers
                               else st.one_of(EXTREMES, st.floats())) for flag in flags}
    argv, code, out, err = _cli(command, changed)
    assert code in (0, 2, 3), (argv, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, argv
    if code == 0:
        assert out and not err, argv
    else:
        assert not out and re.match(r"(domain-error|schema-error|rfsense)", err), argv
