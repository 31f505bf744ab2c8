"""Workload ``engine-sweep``: in-process parameter sweeps over the engine.

One op is a batch of 1000 seeded scenarios, 125 for each engine subcommand
(nedt, calibrate, radar, budget, nef, convert, enhance, rydberg), and each
scenario calls that subcommand's engine operations as library code would.
Every batch holds the same mix: one scenario per subcommand that must raise
``DomainError``, and calibrations of 2-3 points (hot/cold) alongside four
sweeps of 256, 1024, 2048 and 4096 points.  A pool of batches is cycled.
"""

from __future__ import annotations

import math
import random
import time

from rfsense import fieldmetrics as fm
from rfsense import linkbudget as lb
from rfsense import quantities as q
from rfsense import radar as rd
from rfsense import radiometry as rm
from rfsense import rydberg as ry
from rfsense.errors import DomainError

from common import Op, closed_loop, in_process_metrics
from tracing import Recorder

SETUP_CODE = "import rfsense"
SCENARIOS_PER_FAMILY = 125
SWEEP_POINTS = (256, 1024, 2048, 4096)
POOL_BATCHES = 8
CHECK_SHARE = 0.1

BOLTZMANN = 1.380649e-23
LIGHT_SPEED = 299792458.0


def _u(rng, low, high):
    return rng.uniform(low, high)


def _calibration(rng, points: int, bad: bool):
    gain = 10 ** _u(rng, 4, 7)
    bandwidth = _u(rng, 1e8, 2e9)
    trx = _u(rng, 50, 1500)
    if bad:
        temps = (77.0, 77.0)
    elif points == 2:
        temps = (_u(rng, 60, 90), _u(rng, 280, 320))
    elif points == 3:
        temps = (_u(rng, 60, 90), _u(rng, 150, 200), _u(rng, 280, 320))
    else:
        temps = tuple(50.0 + 300.0 * i / (points - 1) + _u(rng, -0.5, 0.5) for i in range(points))
    noise = 0.0 if points == 2 else 1e-3
    powers = tuple(
        gain * BOLTZMANN * bandwidth * (t + trx) * (1.0 + _u(rng, -noise, noise)) for t in temps
    )
    return temps, powers, bandwidth


def _scenario(family: str, rng: random.Random, bad: bool, points: int = 2):
    u = lambda low, high: _u(rng, low, high)  # noqa: E731
    if family == "nedt":
        return (u(50, 300), u(100, 1200), u(1e7, 4e9), u(1e-3, 0.1), u(0, 1e-4), u(1e5, 1e8), bad)
    if family == "calibrate":
        return _calibration(rng, points, bad) + (bad,)
    if family == "radar":
        cell = (u(0.01, 0.2), u(5, 50)) if rng.random() < 0.5 else None
        return (u(1e2, 5e3), u(1e2, 1e5), u(1e2, 1e5), u(0.01, 0.3), u(0.1, 10), u(1e4, 1e6),
                u(100, 1000), u(1e6, 3e8), u(1e-6, 1e-4), u(100, 1000), cell, bad)
    if family == "budget":
        losses = (("fsl", u(150, 220)), ("atm", u(0, 3)), ("rain", u(0, 5)))
        return (u(0, 30), u(20, 60), u(0, 3), losses, u(20, 70), u(10, 300), u(30, 500),
                u(1, 2), u(1e5, 1e9), u(1e6, 4e8), u(1e9, 4e10), bad)
    if family == "nef":
        return (u(10, 1000), u(0.5, 70), u(0.4, 0.8), u(1e2, 1e7), u(1e9, 1e11),
                rng.choice(("coherent", "incoherent")), bad)
    if family == "convert":
        return (u(-30, 60), u(1e-3, 1e6), u(1e8, 1e12), u(1e-9, 1e-3), u(0.01, 1000), u(0, 12),
                u(1e-9, 1e-5), u(1, 1e6), u(1e9, 1e11), u(0.5, 1), bad)
    if family == "enhance":
        return (u(1e9, 2e10), u(1e5, 1e7), u(0.5, 1), u(1e-6, 1e-4), u(10, 100), u(100, 3000),
                u(1e-8, 1e-6), bad)
    if family == "rydberg":
        return (u(100, 5000), u(1e4, 1e8), u(1e-6, 1e-4), u(1e-4, 1e-2), u(3e14, 4e14),
                u(1e-4, 1), u(1e5, 1e8), u(1e6, 1e9), u(1e-8, 1e-5), u(1, 1e6), u(1e9, 1e11), bad)
    raise ValueError(family)


def _run_nedt(p):
    ta, trx, bw, tau, g, gain, bad = p
    model = rm.ReceiverNoiseModel(ta, trx, bw, tau, g)
    nedt = rm.nedt(model)
    return (nedt, rm.radiometer_output_power(gain, ta, trx, bw),
            rm.tsys_from_nedt(-nedt if bad else nedt, bw, tau, g))


def _run_calibrate(p):
    temps, powers, bandwidth, _ = p
    points = [rm.CalibrationPoint(t, w) for t, w in zip(temps, powers)]
    result = rm.calibrate_hot_cold(points, bandwidth)
    return (result.gain, result.receiver_temperature_k)


def _run_radar(p):
    pt, gt, gr, lam, sigma, rng_m, tsys, bw, tau, tsys2, cell, bad = p
    gain = rd.processing_gain_from_pulse(bw, tau) if bw * tau >= 1.0 else 1.0
    target = rd.ResolutionCell(*cell) if cell else rd.PointTarget(sigma)
    scenario = rd.RadarScenario(pt, gt, gr, lam, target, rng_m, q.db_to_linear(1.0),
                                1.0, gain, tsys, bw)
    noise = rd.noise_power(-tsys if bad else tsys, bw)
    if cell:
        power = rd.processed_received_power(scenario)
        ratio = rd.snr(power, noise)
        extra = (rd.nesz(cell[0], ratio), rd.nesz_at_unit_snr(scenario))
    else:
        power = rd.received_power(scenario)
        ratio = rd.snr(power, noise)
        extra = ()
    return (power, ratio, rd.range_resolution(bw), rd.max_range_ratio(tsys, tsys2)) + extra


def _run_budget(p):
    ptx, gtx, lfeed, losses, grx, ta, trx, lf, rate, d, f, bad = p
    fsl = lb.free_space_loss(-d if bad else d, f)
    eirp = lb.eirp(ptx, gtx, lfeed)
    tsys = lb.system_noise_temperature(ta, trx, lf)
    g_over_t = lb.figure_of_merit(grx, tsys)
    loss = lb.total_loss(losses)
    cn0 = lb.c_over_n0(eirp, loss, g_over_t)
    ebn0 = lb.eb_over_n0(cn0, rate)
    budget = lb.LinkBudget(ptx, gtx, lfeed, losses, grx, ta, trx, lf, rate,
                           path_length_m=d, frequency_hz=f)
    report = lb.evaluate_link(budget)
    return (fsl, ebn0, report.eb_over_n0_db, report.fsl_check.difference_db)


def _run_nef(p):
    tsys, diameter, eff, gain, f, coherence, bad = p
    rho2 = fm.default_polarisation_coupling(coherence)
    aperture = fm.aperture_from_diameter(-diameter if bad else diameter, eff)
    return (fm.sefd(tsys, aperture, rho2), fm.nef_from_aperture(tsys, aperture, rho2),
            fm.nef_from_gain(tsys, gain, f, rho2), fm.aperture_from_gain(gain, f))


def _run_convert(p):
    db, lin, f, field, aperture, nf, nef, gain, f2, rho2, bad = p
    return (q.db_to_linear(db), q.linear_to_db(lin), q.frequency_to_wavelength(-f if bad else f),
            q.power_from_field(field, aperture), fm.trx_from_noise_figure(nf),
            fm.tsys_from_nef(nef, gain, f2, rho2))


def _run_enhance(p):
    f0, sbw, eff, volume, tsys, aperture, sensor, bad = p
    cavity = fm.CavityCoupling.from_bandwidth(f0, sbw, eff, volume)
    reference = fm.ReceiverReference(system_temperature_k=tsys, effective_aperture_m2=aperture)
    beta = fm.enhancement_factor_cavity(cavity, -aperture if bad else aperture)
    local = fm.local_field_requirement(reference, beta)
    return (beta, local, fm.meets_classical_reference(sensor, local))


def _run_rydberg(p):
    ea0, atoms, tcoh, probe, fprobe, field, rabi, detuning, sensor, gain, f, bad = p
    dipole = ry.dipole_moment(ea0)
    return (ry.qpn_nef(dipole, atoms, tcoh),
            ry.photon_shot_noise_nep(-probe if bad else probe, fprobe),
            ry.rabi_from_field(field, dipole), ry.field_from_rabi(rabi, dipole),
            ry.ac_stark_shift(rabi, detuning), ry.compare_to_classical(sensor, gain, f))


FAMILIES = {
    "nedt": _run_nedt, "calibrate": _run_calibrate, "radar": _run_radar,
    "budget": _run_budget, "nef": _run_nef, "convert": _run_convert,
    "enhance": _run_enhance, "rydberg": _run_rydberg,
}
DOMAIN_ERROR = "domain-error"


def make_batch(rng: random.Random) -> list[tuple[str, tuple]]:
    batch = []
    for family in FAMILIES:
        if family == "calibrate":
            sizes = list(SWEEP_POINTS) + [2 + i % 2 for i in range(SCENARIOS_PER_FAMILY - 5)]
            batch += [(family, _scenario(family, rng, False, n)) for n in sizes]
        else:
            batch += [(family, _scenario(family, rng, False))
                      for _ in range(SCENARIOS_PER_FAMILY - 1)]
        batch.append((family, _scenario(family, rng, True)))
    rng.shuffle(batch)
    return batch


def make_pool(seed: int) -> list[list[tuple[str, tuple]]]:
    rng = random.Random(seed)
    return [make_batch(rng) for _ in range(POOL_BATCHES)]


def run_batch(batch) -> list:
    results = []
    for family, params in batch:
        try:
            results.append(FAMILIES[family](params))
        except DomainError:
            results.append(DOMAIN_ERROR)
    return results


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def check_batch(batch, results, subset) -> str | None:
    """Closed-form spot checks on ``subset``; every scenario's error outcome."""
    for index, ((family, params), result) in enumerate(zip(batch, results)):
        if (result == DOMAIN_ERROR) != params[-1]:
            return f"{family} scenario {index}: domain error {'missing' if params[-1] else 'raised'}"
    for index in subset:
        (family, params), result = batch[index], results[index]
        if family == "nedt":
            ta, trx, bw, tau, g = params[:5]
            if not _close(result[0], (ta + trx) * math.sqrt(1.0 / (bw * tau) + g * g)):
                return f"nedt scenario {index}: {result[0]!r} disagrees with the radiometer formula"
        elif family == "budget":
            d, f = params[9], params[10]
            want = 20.0 * math.log10(4.0 * math.pi * d * f / LIGHT_SPEED)
            if not _close(result[0], want):
                return f"budget scenario {index}: FSL {result[0]!r} != {want!r}"
        elif family == "calibrate" and len(params[0]) == 2:
            (t1, t2), (p1, p2), bw = params[:3]
            slope = (p2 - p1) / (t2 - t1)
            gain, trx = slope / (BOLTZMANN * bw), p1 / slope - t1
            if not (_close(result[0], gain) and math.isclose(result[1], trx, abs_tol=1e-9 * t2)):
                return f"calibrate scenario {index}: 2-point fit is not exact interpolation"
    return None


def check_subsets(pool, seed: int) -> list[list[int]]:
    rng = random.Random(seed ^ 0x5EED)
    return [
        sorted(i for i, (family, params) in enumerate(batch)
               if not params[-1] and rng.random() < CHECK_SHARE
               and (family in ("nedt", "budget") or family == "calibrate" and len(params[0]) == 2))
        for batch in pool
    ]


def run(seed: int, seconds: float, trace: bool, workdir):
    pool = make_pool(seed)
    subsets = check_subsets(pool, seed)
    recorder = Recorder()

    def run_op(index: int, traced: bool, failures: list[str]) -> Op:
        recorder.enable(traced)
        start = time.perf_counter()
        try:
            results = run_batch(pool[index])
        except Exception as exc:  # an unexpected exception is a failed op, not a crash
            failures.append(f"batch {index}: {type(exc).__name__}: {exc}")
            return Op(index, time.perf_counter() - start, False, traced)
        elapsed = time.perf_counter() - start
        problem = check_batch(pool[index], results, subsets[index])
        if problem:
            failures.append(problem)
        return Op(index, elapsed, problem is None, traced)

    cycles = iter(lambda: range(POOL_BATCHES), None)
    try:
        loop = closed_loop(cycles, run_op, seconds, trace)
    finally:
        recorder.uninstall()
    return loop, in_process_metrics(loop, trace), recorder.layer_metrics(), {}
