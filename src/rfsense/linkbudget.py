"""End-to-end satellite communication link budget in dB arithmetic.

This module is the one place where the engine works in decibels: a link
budget is by construction a ledger of dB gains and losses, and keeping the
chain in dB makes the closure identities exact.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import FLOAT_MAX, DomainError, require
from .quantities import CODATA, ValidatedRecord

__all__ = [
    "BOLTZMANN_DB",
    "DEFAULT_EBN0_THRESHOLDS_DB",
    "FSL_FLAG_THRESHOLD_DB",
    "FslCheck",
    "LinkBudget",
    "LinkReport",
    "c_over_n0",
    "eb_over_n0",
    "eirp",
    "evaluate_link",
    "figure_of_merit",
    "free_space_loss",
    "system_noise_temperature",
    "total_loss",
]

# -10*log10(k_B) rounded to the engineering value used in C/N0 chains.
BOLTZMANN_DB = 228.6

# Indicative required Eb/N0 per modulation/coding scheme, dB.  Overridable
# per budget; these are relative-comparison thresholds, not modem specs.
DEFAULT_EBN0_THRESHOLDS_DB: tuple[tuple[str, float], ...] = (
    ("bpsk_fec_1_2", 3.0),
    ("qpsk_fec_1_2", 4.0),
    ("8psk_fec_3_4", 7.5),
    ("16qam_fec_3_4", 11.0),
)

# Ledger entry names recognised as the free-space-loss term for the
# recomputation diagnostic.
_FSL_NAMES = frozenset({"fsl", "l_fsl", "free_space", "free_space_loss"})

# Ledger-vs-geometry free-space-loss disagreement, in dB, above which the
# diagnostic is flagged.
FSL_FLAG_THRESHOLD_DB = 0.5


def eirp(transmit_power_dbw: float, transmit_gain_dbi: float, feeder_loss_db: float) -> float:
    """Effective isotropic radiated power: ``P_T + G_T - L_FTx`` in dBW."""
    require("transmit power", transmit_power_dbw, "dBW", -FLOAT_MAX, False)
    require("transmit gain", transmit_gain_dbi, "dBi", -FLOAT_MAX, False)
    require("feeder loss", feeder_loss_db, "dB", -FLOAT_MAX, False)
    eirp_dbw = transmit_power_dbw + transmit_gain_dbi - feeder_loss_db
    return require("EIRP", eirp_dbw, "dBW", -FLOAT_MAX, False)


def system_noise_temperature(
    antenna_temperature_k: float,
    receiver_temperature_k: float,
    feeder_loss_linear: float,
) -> float:
    """Receive-chain system noise temperature at the antenna reference plane.

    T_sys = T_a + (L_F - 1)*T_0 + L_F*T_R: the feeder at physical temperature
    T_0 = 290 K (``CODATA.reference_temperature``) contributes (L_F - 1)*T_0
    and also scales the downstream receiver noise by its loss.  (The
    receiver-reference alternative, which divides by L_F instead, is
    deliberately not used.)
    """
    require("antenna temperature", antenna_temperature_k, "K", 0.0, False)
    require("receiver temperature", receiver_temperature_k, "K", 0.0, False)
    require("linear feeder loss", feeder_loss_linear, "", 1.0, False)
    t_sys = (
        antenna_temperature_k
        + (feeder_loss_linear - 1.0) * CODATA.reference_temperature
        + feeder_loss_linear * receiver_temperature_k
    )
    return require("system temperature", t_sys, "K", 0.0, False)


def figure_of_merit(receive_gain_dbi: float, system_temperature_k: float) -> float:
    """Receiver figure of merit ``G/T = G_R - 10*log10(T_sys)`` in dB/K."""
    require("receive gain", receive_gain_dbi, "dBi", -FLOAT_MAX, False)
    require("system temperature", system_temperature_k, "K")
    return receive_gain_dbi - 10.0 * math.log10(system_temperature_k)


def free_space_loss(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss ``20*log10(4*pi*d/lambda)`` in dB."""
    require("distance", distance_m, "m")
    require("frequency", frequency_hz, "Hz")
    # A sum of logarithms: the product 4*pi*d*f/c underflows to 0 for tiny inputs.
    return 20.0 * (math.log10(4.0 * math.pi) + math.log10(distance_m)
                   + math.log10(frequency_hz) - math.log10(CODATA.light_speed))


def total_loss(ledger: "list[tuple[str, float]] | tuple[tuple[str, float], ...]") -> float:
    """Arithmetic dB sum of an ordered ledger of named losses."""
    sum_db = 0.0
    for name, value in ledger:
        sum_db += require(f"loss {name!r}", value, "dB", 0.0, False)
    return require("total loss", sum_db, "dB", 0.0, False)


def c_over_n0(eirp_dbw: float, loss_db: float, g_over_t_db: float) -> float:
    """Carrier-to-noise spectral density: EIRP - L + G/T + 228.6, in dBHz."""
    require("EIRP", eirp_dbw, "dBW", -FLOAT_MAX, False)
    require("loss", loss_db, "dB", -FLOAT_MAX, False)
    require("G/T", g_over_t_db, "dB/K", -FLOAT_MAX, False)
    cn0 = eirp_dbw - loss_db + g_over_t_db + BOLTZMANN_DB
    return require("C/N0", cn0, "dBHz", -FLOAT_MAX, False)


def eb_over_n0(c_over_n0_dbhz: float, data_rate_bps: float) -> float:
    """Energy per bit to noise density: ``C/N0 - 10*log10(R)`` in dB."""
    require("C/N0", c_over_n0_dbhz, "dBHz", -FLOAT_MAX, False)
    require("data rate", data_rate_bps, "bit/s")
    return c_over_n0_dbhz - 10.0 * math.log10(data_rate_bps)


class LinkBudget(ValidatedRecord, namedtuple(
    "LinkBudget",
    "transmit_power_dbw transmit_gain_dbi transmit_feeder_loss_db losses_db receive_gain_dbi"
    " antenna_temperature_k receiver_temperature_k feeder_loss_linear data_rate_bps"
    " required_eb_n0_db path_length_m frequency_hz",
    defaults=(DEFAULT_EBN0_THRESHOLDS_DB, None, None),
)):
    """Inputs of a one-way communication link.

    ``losses_db`` is an ordered ledger of named dB losses.  The free-space
    term is an independent ledger entry, never silently recomputed from
    geometry: when ``path_length_m`` and ``frequency_hz`` are also given, the
    evaluated report carries the recomputed value alongside the ledger value
    and flags any disagreement instead of replacing it.
    """

    __slots__ = ()

    def _check(self):
        require("transmit power", self.transmit_power_dbw, "dBW", -FLOAT_MAX, False)
        require("transmit gain", self.transmit_gain_dbi, "dBi", -FLOAT_MAX, False)
        require("transmit feeder loss", self.transmit_feeder_loss_db, "dB", 0.0, False)
        for name, value in self.losses_db:
            require(f"loss {name!r}", value, "dB", 0.0, False)
        require("receive gain", self.receive_gain_dbi, "dBi", -FLOAT_MAX, False)
        require("antenna temperature", self.antenna_temperature_k, "K", 0.0, False)
        require("receiver temperature", self.receiver_temperature_k, "K", 0.0, False)
        require("linear feeder loss", self.feeder_loss_linear, "", 1.0, False)
        require("data rate", self.data_rate_bps, "bit/s")
        for name, value in self.required_eb_n0_db:
            require(f"Eb/N0 threshold {name!r}", value, "dB", -FLOAT_MAX, False)
        if self.path_length_m is not None:
            require("path length", self.path_length_m, "m")
        if self.frequency_hz is not None:
            require("frequency", self.frequency_hz, "Hz")


class FslCheck(namedtuple("FslCheck", "ledger_db recomputed_db difference_db flagged")):
    """Ledger vs. recomputed free-space loss diagnostic."""

    __slots__ = ()


class LinkReport(namedtuple(
    "LinkReport",
    "eirp_dbw total_loss_db system_temperature_k g_over_t_db_per_k c_over_n0_dbhz"
    " eb_over_n0_db margins_db fsl_check",
    defaults=(None,),
)):
    """Derived link figures; every field is recomputable from the budget alone."""

    __slots__ = ()

    def closes(self, modulation: str) -> bool:
        """True when the stated modulation has non-negative margin."""
        margin = self.margins.get(modulation)
        if margin is None:
            raise DomainError(f"no threshold named {modulation!r} in this report")
        return margin >= 0.0

    @property
    def margins(self) -> dict[str, float]:
        return dict(self.margins_db)


def evaluate_link(budget: LinkBudget) -> LinkReport:
    """Evaluate a budget end to end and check its free-space-loss entry.

    The disagreement flag is raised when the ledger FSL and the value
    recomputed from (distance, frequency) differ by more than
    ``FSL_FLAG_THRESHOLD_DB``, 0.5 dB.
    """
    eirp_dbw = eirp(
        budget.transmit_power_dbw,
        budget.transmit_gain_dbi,
        budget.transmit_feeder_loss_db,
    )
    loss_db = total_loss(budget.losses_db)
    t_sys = system_noise_temperature(
        budget.antenna_temperature_k,
        budget.receiver_temperature_k,
        budget.feeder_loss_linear,
    )
    g_over_t = figure_of_merit(budget.receive_gain_dbi, t_sys)
    cn0 = c_over_n0(eirp_dbw, loss_db, g_over_t)
    ebn0 = eb_over_n0(cn0, budget.data_rate_bps)
    margins = tuple(
        (name, require(f"margin {name!r}", ebn0 - required, "dB", -FLOAT_MAX, False))
        for name, required in budget.required_eb_n0_db
    )

    fsl_check = None
    if budget.path_length_m is not None and budget.frequency_hz is not None:
        ledger_fsl = next(
            (value for name, value in budget.losses_db if name.lower() in _FSL_NAMES),
            None,
        )
        if ledger_fsl is not None:
            recomputed = free_space_loss(budget.path_length_m, budget.frequency_hz)
            difference = recomputed - ledger_fsl
            fsl_check = FslCheck(
                ledger_db=ledger_fsl,
                recomputed_db=recomputed,
                difference_db=difference,
                flagged=abs(difference) > FSL_FLAG_THRESHOLD_DB,
            )

    return LinkReport(
        eirp_dbw=eirp_dbw,
        total_loss_db=loss_db,
        system_temperature_k=t_sys,
        g_over_t_db_per_k=g_over_t,
        c_over_n0_dbhz=cn0,
        eb_over_n0_db=ebn0,
        margins_db=margins,
        fsl_check=fsl_check,
    )
