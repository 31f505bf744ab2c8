import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsense.errors import DomainError
from rfsense.linkbudget import (
    DEFAULT_EBN0_THRESHOLDS_DB,
    FSL_FLAG_THRESHOLD_DB,
    LinkBudget,
    c_over_n0,
    eb_over_n0,
    eirp,
    evaluate_link,
    figure_of_merit,
    free_space_loss,
    system_noise_temperature,
    total_loss,
)

# Frozen oracles.
G_OVER_T_REFERENCE = 24.034029043735398    # 50 - 10*log10(395)
C_N0_REFERENCE = 103.1340290437354         # 63 - 212.5 + G/T + 228.6
EB_N0_REFERENCE = 23.134029043735396       # C/N0 - 80
FSL_GEO_20GHZ = 209.59443315050873         # 20*log10(4*pi*3.6e7/(c/20e9))
DOUBLING_STEP_DB = 6.020599913279624       # 20*log10(2)


def ka_band_budget(**overrides):
    params = dict(
        transmit_power_dbw=20.0,
        transmit_gain_dbi=45.0,
        transmit_feeder_loss_db=2.0,
        losses_db=(("fsl", 206.5), ("atm", 2.0), ("rain", 3.0), ("other", 1.0)),
        receive_gain_dbi=50.0,
        antenna_temperature_k=100.0,
        receiver_temperature_k=100.0,
        feeder_loss_linear=1.5,
        data_rate_bps=1e8,
    )
    params.update(overrides)
    return LinkBudget(**params)


class TestEirp:
    def test_reference_chain(self):
        assert eirp(20.0, 45.0, 2.0) == 63.0

    def test_zero(self):
        assert eirp(0.0, 0.0, 0.0) == 0.0

    def test_direct_sum(self):
        assert eirp(10.0, 40.0, 3.0) == 47.0

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            eirp(float("nan"), 45.0, 2.0)


class TestSystemNoiseTemperature:
    def test_reference_chain(self):
        assert system_noise_temperature(100.0, 100.0, 1.5) == pytest.approx(395.0)

    def test_lossless_feeder_reduces_to_sum(self):
        assert system_noise_temperature(123.0, 45.0, 1.0) == pytest.approx(168.0)

    def test_pure_feeder_contribution(self):
        assert system_noise_temperature(0.0, 0.0, 2.0) == pytest.approx(290.0)

    def test_feeder_loss_below_one_rejected(self):
        with pytest.raises(DomainError):
            system_noise_temperature(100.0, 100.0, 0.9)

    @settings(max_examples=200)
    @given(
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=1.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_monotone_in_each_input(self, t_a, t_r, l_f, delta):
        base = system_noise_temperature(t_a, t_r, l_f)
        assert system_noise_temperature(t_a + delta, t_r, l_f) >= base
        assert system_noise_temperature(t_a, t_r + delta, l_f) >= base
        assert system_noise_temperature(t_a, t_r, l_f + delta / 100.0) >= base


class TestFigureOfMerit:
    def test_reference_chain(self):
        assert figure_of_merit(50.0, 395.0) == pytest.approx(G_OVER_T_REFERENCE, rel=1e-12)

    def test_unit_temperature(self):
        assert figure_of_merit(0.0, 1.0) == 0.0

    def test_direct(self):
        assert figure_of_merit(45.0, 100.0) == pytest.approx(25.0, rel=1e-12)

    def test_non_positive_temperature_rejected(self):
        with pytest.raises(DomainError):
            figure_of_merit(50.0, 0.0)


class TestFreeSpaceLoss:
    def test_unit_argument(self):
        f = 20e9
        wavelength = 299792458.0 / f
        assert free_space_loss(wavelength / (4.0 * math.pi), f) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_geo_at_20ghz(self):
        assert free_space_loss(3.6e7, 20e9) == pytest.approx(FSL_GEO_20GHZ, rel=1e-12)

    def test_doubling_distance(self):
        assert free_space_loss(2e6, 20e9) - free_space_loss(1e6, 20e9) == pytest.approx(
            DOUBLING_STEP_DB, rel=1e-9
        )

    def test_non_positive_rejected(self):
        with pytest.raises(DomainError):
            free_space_loss(0.0, 20e9)
        with pytest.raises(DomainError):
            free_space_loss(3.6e7, 0.0)

    @pytest.mark.parametrize("d, f", [(3.6e7, 1e-311), (1e-320, 1e-320), (1e308, 1e308)])
    def test_extreme_inputs_give_a_finite_loss(self, d, f):
        # 4*pi*d/lambda underflows to 0 or overflows for these; its logarithm does not.
        assert math.isfinite(free_space_loss(d, f))

    @settings(max_examples=200)
    @given(
        st.floats(min_value=1.0, max_value=1e9),
        st.floats(min_value=1e6, max_value=1e12),
    )
    def test_doubling_property(self, d, f):
        assert free_space_loss(2.0 * d, f) - free_space_loss(d, f) == pytest.approx(
            DOUBLING_STEP_DB, abs=1e-6
        )


class TestTotalLoss:
    def test_reference_ledger(self):
        ledger = [("fsl", 206.5), ("atm", 2.0), ("rain", 3.0), ("other", 1.0)]
        assert total_loss(ledger) == pytest.approx(212.5)

    def test_empty_ledger(self):
        assert total_loss([]) == 0.0

    def test_three_ones(self):
        assert total_loss([("a", 1.0), ("b", 1.0), ("c", 1.0)]) == 3.0

    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            total_loss([("oops", -1.0)])


class TestLedgerEntryMessages:
    # The ledger, threshold and margin loops test each bound inline and build
    # the entry's name only to raise: these pin the messages they raise.
    @pytest.mark.parametrize("value,message", [
        (math.nan, "loss 'rain' must be finite and >= 0 dB, got nan"),
        (math.inf, "loss 'rain' must be finite and >= 0 dB, got inf"),
        (-1.0, "loss 'rain' must be >= 0 dB"),
    ])
    def test_bad_loss_is_named_by_the_budget_and_the_sum(self, value, message):
        ledger = (("fsl", 206.5), ("rain", value), ("atm", -1.0))
        with pytest.raises(DomainError) as built:
            ka_band_budget(losses_db=ledger)
        with pytest.raises(DomainError) as summed:
            total_loss(ledger)
        assert str(built.value) == str(summed.value) == message

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_threshold_is_named(self, value):
        with pytest.raises(DomainError) as caught:
            ka_band_budget(required_eb_n0_db=(("bpsk", 3.0), ("qpsk", value), ("x", math.nan)))
        assert str(caught.value) == f"Eb/N0 threshold 'qpsk' must be finite, got {value!r}"

    def test_margin_beyond_the_float_range_is_named(self):
        budget = ka_band_budget(transmit_power_dbw=1.7e308,
                                required_eb_n0_db=(("ok", 4.0), ("x", -1.7e308)))
        with pytest.raises(DomainError) as caught:
            evaluate_link(budget)
        assert str(caught.value) == "margin 'x' must be finite, got inf"


class TestCn0AndEbn0:
    def test_reference_chain(self):
        assert c_over_n0(63.0, 212.5, G_OVER_T_REFERENCE) == pytest.approx(
            C_N0_REFERENCE, rel=1e-12
        )

    def test_constant_term_alone(self):
        assert c_over_n0(0.0, 0.0, 0.0) == 228.6

    def test_direct_sum(self):
        assert c_over_n0(50.0, 200.0, 20.0) == pytest.approx(98.6, rel=1e-12)

    def test_ebn0_reference(self):
        assert eb_over_n0(C_N0_REFERENCE, 1e8) == pytest.approx(EB_N0_REFERENCE, rel=1e-12)

    def test_unit_rate(self):
        assert eb_over_n0(77.7, 1.0) == 77.7

    def test_direct(self):
        assert eb_over_n0(100.0, 1e6) == pytest.approx(40.0, rel=1e-12)

    def test_non_positive_rate_rejected(self):
        with pytest.raises(DomainError):
            eb_over_n0(100.0, 0.0)


class TestEvaluateLink:
    def test_reference_budget_reproduces_every_row(self):
        report = evaluate_link(ka_band_budget())
        assert report.eirp_dbw == pytest.approx(63.0, abs=1e-12)
        assert report.total_loss_db == pytest.approx(212.5, abs=1e-12)
        assert report.system_temperature_k == pytest.approx(395.0, abs=1e-9)
        assert report.g_over_t_db_per_k == pytest.approx(24.03, abs=0.01)
        assert report.c_over_n0_dbhz == pytest.approx(103.13, abs=0.01)
        assert report.eb_over_n0_db == pytest.approx(23.13, abs=0.01)

    def test_qpsk_margin_and_closure(self):
        report = evaluate_link(ka_band_budget())
        assert report.margins["qpsk_fec_1_2"] == pytest.approx(19.13, abs=0.01)
        assert report.closes("qpsk_fec_1_2")

    def test_hypothetical_high_threshold_does_not_close(self):
        budget = ka_band_budget(required_eb_n0_db=(("demanding", 25.0),))
        report = evaluate_link(budget)
        assert report.margins["demanding"] == pytest.approx(-1.87, abs=0.01)
        assert not report.closes("demanding")

    def test_a_repeated_threshold_name_closes_by_its_reported_margin(self):
        # The last entry of a name wins, in ``margins`` and ``closes`` alike.
        budget = ka_band_budget(required_eb_n0_db=(("qpsk", 4.0), ("qpsk", 25.0)))
        report = evaluate_link(budget)
        assert report.margins["qpsk"] == pytest.approx(-1.87, abs=0.01)
        assert not report.closes("qpsk")

    def test_unknown_modulation_rejected(self):
        with pytest.raises(DomainError):
            evaluate_link(ka_band_budget()).closes("nonexistent")

    def test_default_threshold_table(self):
        assert dict(DEFAULT_EBN0_THRESHOLDS_DB) == {
            "bpsk_fec_1_2": 3.0,
            "qpsk_fec_1_2": 4.0,
            "8psk_fec_3_4": 7.5,
            "16qam_fec_3_4": 11.0,
        }

    def test_fsl_disagreement_flagged(self):
        budget = ka_band_budget(path_length_m=3.6e7, frequency_hz=20e9)
        report = evaluate_link(budget)
        assert report.fsl_check is not None
        assert report.fsl_check.ledger_db == 206.5
        assert report.fsl_check.recomputed_db == pytest.approx(209.6, abs=0.1)
        assert report.fsl_check.difference_db >= 3.0
        assert report.fsl_check.flagged

    def test_consistent_fsl_not_flagged(self):
        recomputed = free_space_loss(3.6e7, 20e9)
        budget = ka_band_budget(
            losses_db=(("fsl", recomputed), ("atm", 2.0)),
            path_length_m=3.6e7,
            frequency_hz=20e9,
        )
        report = evaluate_link(budget)
        assert report.fsl_check is not None
        assert not report.fsl_check.flagged

    @pytest.mark.parametrize("offset_db, flagged", [(0.4, False), (-0.6, True)])
    def test_fsl_flag_threshold_is_half_a_db(self, offset_db, flagged):
        budget = ka_band_budget(
            losses_db=(("fsl", FSL_GEO_20GHZ + offset_db), ("atm", 2.0)),
            path_length_m=3.6e7,
            frequency_hz=20e9,
        )
        assert FSL_FLAG_THRESHOLD_DB == 0.5
        assert evaluate_link(budget).fsl_check.flagged is flagged

    def test_no_fsl_check_without_geometry(self):
        assert evaluate_link(ka_band_budget()).fsl_check is None

    def test_ledger_value_never_replaced(self):
        budget = ka_band_budget(path_length_m=3.6e7, frequency_hz=20e9)
        report = evaluate_link(budget)
        # The total still uses the ledger entry, not the recomputed FSL.
        assert report.total_loss_db == pytest.approx(212.5, abs=1e-12)

    @settings(max_examples=250)
    @given(
        st.floats(min_value=-20.0, max_value=40.0),
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.lists(st.floats(min_value=0.0, max_value=250.0), min_size=0, max_size=5),
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=1.0, max_value=3.0),
        st.floats(min_value=1.0, max_value=1e10),
    )
    def test_chain_identity(self, p_t, g_t, l_ftx, losses, g_r, t_a, t_r, l_f, rate):
        budget = LinkBudget(
            transmit_power_dbw=p_t,
            transmit_gain_dbi=g_t,
            transmit_feeder_loss_db=l_ftx,
            losses_db=tuple((f"l{i}", v) for i, v in enumerate(losses)),
            receive_gain_dbi=g_r,
            antenna_temperature_k=t_a,
            receiver_temperature_k=t_r,
            feeder_loss_linear=l_f,
            data_rate_bps=rate,
        )
        report = evaluate_link(budget)
        assert report.c_over_n0_dbhz == pytest.approx(
            report.eirp_dbw - report.total_loss_db + report.g_over_t_db_per_k + 228.6,
            abs=1e-9,
        )
        assert report.eb_over_n0_db + 10.0 * math.log10(rate) == pytest.approx(
            report.c_over_n0_dbhz, abs=1e-9
        )
        # Deterministic and total over valid budgets.
        assert evaluate_link(budget) == report
