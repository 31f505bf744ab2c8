"""Acceptance gate: every release criterion, one test each, with a printed
pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
execute; without ``-s`` pytest shows them for failing criteria.
"""

import math
import random
from pathlib import Path

import pytest

from rfsense.cli import main as cli_main
from rfsense.dataset import (
    consistency_diagnostics,
    derive_records,
    load_bundled_dataset,
    synthesize_all,
)
from rfsense.fieldmetrics import (
    CavityCoupling,
    ReceiverReference,
    aperture_from_diameter,
    aperture_from_gain,
    enhancement_factor_cavity,
    local_field_requirement,
    nef_from_aperture,
    nef_from_gain,
    tsys_from_nef,
)
from rfsense.linkbudget import LinkBudget, evaluate_link, free_space_loss
from rfsense.quantities import BOLTZMANN, PLANCK, db_to_linear, linear_to_db
from rfsense.radiometry import (
    CalibrationPoint,
    ReceiverNoiseModel,
    calibrate_hot_cold,
    nedt,
)
from rfsense.rydberg import ATOMIC_DIPOLE_UNIT, field_from_rabi, qpn_nef, rabi_from_field

GOLDEN_DIR = Path(__file__).parent / "golden"

# Rows of the bundled instrument table whose quoted field value is known to
# be internally inconsistent with the row's own (T_sys, A_e, rho^2).
KNOWN_INCONSISTENT_ROWS = {
    "SMOS MIRAS element (single LICEF)",
    "Jason-2 Poseidon-3 (Ku)",
    "NOAA-19 AMSU-A ch.9",
    "Odin-SMR 557 GHz",
    "2.1 THz heterodyne spectrometer",
    "4.7 THz heterodyne spectrometer",
}

# Published category ranges the synthesis must reproduce:
# (t_min, t_max, a_min, a_max, bw_min, bw_max, e_min, e_max).
EXPECTED_RANGES = {
    "Deep-space comm.": (18, 28, 500, 3200, 1.6e7, 4.8e8, 5.5e-12, 1.7e-11),
    "Space VLBI": (56, 100, 10, 48, 1.3e7, 1.3e8, 1.1e-10, 3.3e-10),
    "L-band radiometer": (400, 1200, 2.6, 22, 1.9e7, 3.0e7, 4.3e-10, 2.2e-9),
    "L-band interferometer": (370, 550, 0.013, 0.019, 2.2e7, 3.2e7, 1.4e-8, 2.1e-8),
    "GNSS-RO": (130, 190, 0.058, 0.086, 1.6e7, 2.4e7, 2.8e-9, 4.2e-9),
    "Altimeter": (300, 730, 0.59, 0.89, 2.6e8, 3.8e8, 1.3e-9, 2.5e-9),
    "SAR": (480, 1100, 1.7, 7.9, 8.0e7, 3.6e8, 5.7e-10, 1.8e-9),
    "60 GHz radiometer": (960, 13000, 0.0063, 0.021, 6.4e6, 3.7e8, 2.2e-8, 1.5e-7),
    "183 GHz radiometer": (3300, 5000, 0.0048, 0.0072, 8.0e8, 1.2e9, 6.9e-8, 1.0e-7),
    "Limb sounder": (600, 30000, 0.058, 0.79, 8.0e5, 3.0e6, 2.8e-9, 7.4e-8),
    "CMB radiometer": (23, 38, 0.58, 1.4, 3.2e9, 1.7e10, 4.2e-10, 8.3e-10),
}

EXACT_CATEGORIES = ("Deep-space comm.", "Space VLBI")


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def within_one_second_digit(value: float, target: float) -> bool:
    """|value - target| no larger than one unit in target's 2nd significant digit."""
    if target == 0.0:
        return value == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(target))) - 1)
    return abs(value - target) <= unit * (1.0 + 1e-9)


@pytest.fixture(autouse=True)
def clean_impedance_env(monkeypatch):
    monkeypatch.delenv("RFSENSE_ETA0_OHMS", raising=False)


def run_cli(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr().out
    assert code == 0, f"CLI exited {code} for {argv}"
    return out


def test_criterion_01_radiometer_channel():
    model = ReceiverNoiseModel(250.0, 600.0, 1000e6, 15e-3, 1.5e-5)
    value = nedt(model)
    no_gain_term = nedt(ReceiverNoiseModel(250.0, 600.0, 1000e6, 15e-3, 0.0))
    ok = abs(value - 0.22) <= 0.005 and abs(no_gain_term - 0.22) <= 0.005
    report(1, "183 GHz radiometer channel NEDT = 0.22 K within 0.005 K", ok,
           f"got {value:.4f} K")


def ka_band_reference_budget():
    return LinkBudget(
        transmit_power_dbw=20.0,
        transmit_gain_dbi=45.0,
        transmit_feeder_loss_db=2.0,
        losses_db=(("fsl", 206.5), ("atm", 2.0), ("rain", 3.0), ("other", 1.0)),
        receive_gain_dbi=50.0,
        antenna_temperature_k=100.0,
        receiver_temperature_k=100.0,
        feeder_loss_linear=1.5,
        data_rate_bps=1e8,
        path_length_m=3.6e7,
        frequency_hz=20e9,
    )


def test_criterion_02_link_budget_chain():
    link = evaluate_link(ka_band_reference_budget())
    checks = [
        abs(link.eirp_dbw - 63.0) <= 1e-9,
        abs(link.total_loss_db - 212.5) <= 1e-9,
        abs(link.system_temperature_k - 395.0) <= 0.5,
        abs(link.g_over_t_db_per_k - 24.03) <= 0.01,
        abs(link.c_over_n0_dbhz - 103.13) <= 0.01,
        abs(link.eb_over_n0_db - 23.13) <= 0.01,
        abs(link.margins["qpsk_fec_1_2"] - 19.13) <= 0.01,
    ]
    report(2, "link budget chain reproduces 63 / 212.5 / 395 / 24.03 / "
              "103.13 / 23.13 and QPSK margin 19.13", all(checks),
           f"Eb/N0 = {link.eb_over_n0_db:.4f} dB")


def test_criterion_03_free_space_loss_diagnostic():
    fsl = free_space_loss(3.6e7, 20e9)
    link = evaluate_link(ka_band_reference_budget())
    check = link.fsl_check
    ok = (
        abs(fsl - 209.6) <= 0.1
        and check is not None
        and check.flagged
        and check.difference_db >= 3.0
    )
    report(3, "recomputed free-space loss is 209.6 dB and the >=3 dB "
              "disagreement with the 206.5 dB ledger entry is flagged", ok,
           f"recomputed {fsl:.2f} dB, difference {check.difference_db:.2f} dB")


def test_criterion_04_x_band_enhancement_chain():
    aperture = aperture_from_diameter(34.0, 0.65)
    cavity = CavityCoupling.from_bandwidth(8.4e9, 1e6, 0.8, 1e-5)
    e_free = nef_from_aperture(20.0, aperture, 1.0)
    beta = enhancement_factor_cavity(cavity, aperture)
    e_local = local_field_requirement(
        ReceiverReference(20.0, effective_aperture_m2=aperture), beta
    )
    ok = (
        abs(aperture - 590.0) <= 5.0
        and within(e_free, 1.3e-11, 0.05)
        and within(beta, 4.7e4, 0.02)
        and within(e_local, 6.2e-7, 0.05)
    )
    report(4, "X-band chain: E_free 1.3e-11 (5%), enhancement 4.7e4 (2%), "
              "E_local 6.2e-7 (5%) from a 34 m dish at 0.65 efficiency", ok,
           f"E_free {e_free:.3e}, beta {beta:.3e}, E_local {e_local:.3e}")


def test_criterion_05_ka_band_enhancement_chain():
    cavity = CavityCoupling.from_bandwidth(32e9, 2e6, 0.7, 2e-6)
    e_free = nef_from_aperture(70.0, 500.0, 1.0)
    beta = enhancement_factor_cavity(cavity, 500.0)
    e_local = local_field_requirement(
        ReceiverReference(70.0, effective_aperture_m2=500.0), beta
    )
    ok = (
        within(e_free, 2.7e-11, 0.05)
        and within(beta, 6.5e4, 0.02)
        and within(e_local, 1.7e-6, 0.05)
    )
    report(5, "Ka-band chain: E_free 2.7e-11 (5%), enhancement 6.5e4 (2%), "
              "E_local 1.7e-6 (5%)", ok,
           f"E_free {e_free:.3e}, beta {beta:.3e}, E_local {e_local:.3e}")


def test_criterion_06_instrument_table_recomputation():
    # The bundled table transcribes the published instrument set (21 rows in
    # the source text).  Recomputing each row's field value from its own
    # (T_sys, A_e, rho^2) must agree with the quoted column for every row
    # except the six known internal inconsistencies, and each of those six
    # must surface as a named diagnostic rather than being suppressed.
    records = load_bundled_dataset().records
    derived, derive_diags = derive_records(records)
    assert derive_diags == ()
    mismatches = consistency_diagnostics(derived, rel_tol=0.10)
    flagged = {d.instrument for d in mismatches}
    matching = len(derived) - len(flagged)
    ok = (
        len(derived) == 21
        and flagged == KNOWN_INCONSISTENT_ROWS
        and matching >= len(derived) - 6
        and all(d.instrument and d.message for d in mismatches)
    )
    report(6, "per-row field recomputation matches the quoted values except "
              "for the six known inconsistencies, each emitted as a named "
              "diagnostic", ok,
           f"{matching} of {len(derived)} rows match; flagged: "
           + ", ".join(sorted(flagged)))


def test_criterion_07_category_range_synthesis():
    derived, _ = derive_records(load_bundled_dataset().records)
    ranges = {r.category: r for r in synthesize_all(derived)}
    problems = []
    for category, expected in EXPECTED_RANGES.items():
        t_min, t_max, a_min, a_max, bw_min, bw_max, e_min, e_max = expected
        r = ranges[category]
        actual = (
            r.t_sys_min_k, r.t_sys_max_k, r.a_e_min_m2, r.a_e_max_m2,
            r.bandwidth_min_hz, r.bandwidth_max_hz, r.e_free_min, r.e_free_max,
        )
        if category in EXACT_CATEGORIES:
            if actual != expected:
                problems.append(f"{category}: {actual} != {expected}")
        else:
            for got, want in zip(actual[:6], expected[:6]):
                if not within_one_second_digit(got, want):
                    problems.append(f"{category}: {got:g} vs {want:g}")
            # Field bounds: disagreements beyond the digit tolerance would be
            # dataset diagnostics; with this table none occur.
            for got, want in zip(actual[6:], expected[6:]):
                if not within_one_second_digit(got, want):
                    problems.append(f"{category} field bound: {got:g} vs {want:g}")
    report(7, "range synthesis reproduces the published category table "
              "(deep-space and space-VLBI rows exactly)", not problems,
           "; ".join(problems) if problems else "all 11 categories reproduced")


def test_criterion_08_field_to_temperature_conversion():
    value = tsys_from_nef(7.9e-6, 1.5, 96e9, 0.5)
    ok = within(value, 7000.0, 0.10)
    report(8, "7.9e-6 V/m/sqrt(Hz) at G=1.5, 96 GHz, rho^2=1/2 maps to "
              "7000 K within 10%", ok, f"got {value:.1f} K")


def test_criterion_09_randomized_property_suites():
    rng = random.Random(20260810)
    cases = 200
    failures = []

    for _ in range(cases):
        x = rng.uniform(-300.0, 300.0)
        if abs(linear_to_db(db_to_linear(x)) - x) > 1e-12:
            failures.append(f"dB round trip at {x}")
            break

    for _ in range(cases):
        t_sys = rng.uniform(1.0, 1e5)
        gain = 10.0 ** rng.uniform(-3.0, 8.0)
        f = 10.0 ** rng.uniform(6.0, 13.0)
        rho2 = rng.choice([1.0, 0.5])
        via_gain = nef_from_gain(t_sys, gain, f, rho2)
        via_aperture = nef_from_aperture(t_sys, aperture_from_gain(gain, f), rho2)
        if abs(via_gain / via_aperture - 1.0) > 1e-12:
            failures.append("gain/aperture route disagreement")
            break

    k_b = BOLTZMANN
    for _ in range(cases):
        gain = 10.0 ** rng.uniform(3.0, 12.0)
        t_rx = rng.uniform(0.1, 1e4)
        bandwidth = 10.0 ** rng.uniform(4.0, 10.0)
        loads = rng.sample(range(1, 1001), rng.randint(2, 6))
        while max(loads) - min(loads) < 50:  # well-separated hot/cold loads
            loads = rng.sample(range(1, 1001), rng.randint(2, 6))
        points = [
            CalibrationPoint(t, gain * k_b * bandwidth * (t + t_rx)) for t in loads
        ]
        result = calibrate_hot_cold(points, bandwidth)
        if (abs(result.gain / gain - 1.0) > 1e-9
                or abs(result.receiver_temperature_k - t_rx) > 1e-9 * t_rx):
            failures.append("hot/cold recovery miss")
            break

    h = PLANCK
    for _ in range(cases):
        d = rng.uniform(1.0, 1e5) * ATOMIC_DIPOLE_UNIT
        atoms = 10.0 ** rng.uniform(0.0, 12.0)
        tau = 10.0 ** rng.uniform(-9.0, 3.0)
        identity = qpn_nef(d, atoms, tau) * math.sqrt(atoms * tau) * d / h
        if abs(identity - 1.0) > 1e-12:
            failures.append("projection-noise identity miss")
            break

    for _ in range(cases):
        rho2 = rng.choice([1.0, 0.5])
        members = [
            (rng.uniform(1.0, 1e5), 10.0 ** rng.uniform(-4.0, 4.0))
            for _ in range(rng.randint(1, 8))
        ]
        e_min_bound = nef_from_aperture(
            0.8 * min(t for t, _ in members), 1.2 * max(a for _, a in members), rho2
        )
        e_max_bound = nef_from_aperture(
            1.2 * max(t for t, _ in members), 0.8 * min(a for _, a in members), rho2
        )
        for t, a in members:
            e = nef_from_aperture(t, a, rho2)
            if not e_min_bound <= e <= e_max_bound:
                failures.append("envelope violation")
                break

    for _ in range(cases):
        field = 10.0 ** rng.uniform(-9.0, 3.0)
        d = rng.uniform(1.0, 1e5) * ATOMIC_DIPOLE_UNIT
        if abs(field_from_rabi(rabi_from_field(field, d), d) / field - 1.0) > 1e-12:
            failures.append("Rabi/field round trip miss")
            break

    report(9, f"six randomized property suites, {cases} cases each "
              "(dB round trip, NEF route agreement, calibration recovery, "
              "projection-noise identity, range envelope, Rabi round trip)",
           not failures, "; ".join(failures) if failures else "all held")


def test_criterion_10_cli_determinism(capsys):
    budget_args = [
        "budget", "--tx-power", "20dbw", "--tx-gain", "45dbi",
        "--tx-feeder-loss", "2db", "--loss", "fsl=206.5db", "--loss", "atm=2db",
        "--loss", "rain=3db", "--loss", "other=1db", "--rx-gain", "50dbi",
        "--antenna-temp", "100", "--receiver-temp", "100",
        "--feeder-loss-linear", "1.5", "--data-rate", "1e8",
        "--distance", "3.6e7m", "--frequency", "20ghz",
    ]
    ranges_args = ["dataset-ranges", "--format", "csv"]
    enhance_args = [
        "enhance", "--f0", "8.4ghz", "--signal-bandwidth", "1mhz",
        "--rf-efficiency", "0.8", "--mode-volume", "1e-5", "--tsys", "20",
        "--diameter", "34m", "--rho2", "1", "--sensor-nef", "1e-7",
    ]
    goldens = {
        "budget": (budget_args, "budget.json"),
        "dataset-ranges": (ranges_args, "dataset_ranges.csv"),
        "enhance": (enhance_args, "enhance.json"),
    }
    problems = []
    for name, (argv, golden) in goldens.items():
        first = run_cli(capsys, argv).encode()
        second = run_cli(capsys, argv).encode()
        if first != second:
            problems.append(f"{name} differs between consecutive runs")
        if first != (GOLDEN_DIR / golden).read_bytes():
            problems.append(f"{name} differs from its golden file")
    report(10, "budget, dataset-ranges, and enhance reports are byte-identical "
               "across consecutive runs and match their golden files",
           not problems, "; ".join(problems) if problems else "3 commands checked")
