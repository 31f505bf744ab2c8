import math
import os
from decimal import Decimal, localcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsense.errors import DomainError
from rfsense.quantities import (
    BOLTZMANN,
    ETA0_ENV_VAR,
    ETA_0,
    LIGHT_SPEED,
    PLANCK,
    REDUCED_PLANCK,
    REFERENCE_TEMPERATURE,
    VACUUM_PERMITTIVITY,
    _scaled_ratio,
    db_to_linear,
    default_eta0,
    frequency_to_wavelength,
    linear_to_db,
    power_from_field,
)

# Frozen oracles: direct evaluation of the defining expressions.
TWO_FROM_DB = 2.0000000199681045          # 10**(3.0103/10)
INV_BOLTZMANN_RATIO = 7.244359600749891e22  # 10**(228.6/10)
LAMBDA_20GHZ = 0.0149896229               # c / 20e9
LAMBDA_L_BAND = 0.21216734465675868       # c / 1.413e9
POWER_UNIT_FIELD = 0.0013272093639924965  # 1 / (2 * 376.730313668)


class TestDbConversion:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == 1.0

    def test_three_db_is_two(self):
        assert db_to_linear(3.0103) == pytest.approx(TWO_FROM_DB, rel=1e-12)

    def test_boltzmann_constant_in_db(self):
        # 228.6 dB is the 1/k_B term used in link budgets.
        assert db_to_linear(228.6) == pytest.approx(INV_BOLTZMANN_RATIO, rel=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            db_to_linear(bad)

    def test_linear_to_db_rejects_non_positive(self):
        with pytest.raises(DomainError):
            linear_to_db(0.0)
        with pytest.raises(DomainError):
            linear_to_db(-1.0)

    @settings(max_examples=250)
    @given(st.floats(min_value=-300.0, max_value=300.0))
    def test_round_trip_within_1e12_db(self, x):
        assert abs(linear_to_db(db_to_linear(x)) - x) <= 1e-12

    @settings(max_examples=250)
    @given(st.floats(min_value=1e-30, max_value=1e30))
    def test_inverse_round_trip_relative(self, ratio):
        again = db_to_linear(linear_to_db(ratio))
        assert again == pytest.approx(ratio, rel=1e-12)


class TestWavelength:
    def test_identity_at_c(self):
        assert frequency_to_wavelength(299792458.0) == 1.0

    def test_20_ghz(self):
        assert frequency_to_wavelength(20e9) == pytest.approx(LAMBDA_20GHZ, rel=1e-9)

    def test_l_band(self):
        assert frequency_to_wavelength(1.413e9) == pytest.approx(LAMBDA_L_BAND, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(DomainError):
            frequency_to_wavelength(bad)

    @settings(max_examples=200)
    @given(st.floats(min_value=1e3, max_value=1e15))
    def test_product_recovers_light_speed(self, f):
        assert frequency_to_wavelength(f) * f == pytest.approx(
            LIGHT_SPEED, rel=1e-15
        )


class TestPowerFromField:
    def test_zero_field(self):
        assert power_from_field(0.0, 1.0) == 0.0

    def test_unit_field_unit_aperture(self):
        assert power_from_field(1.0, 1.0) == pytest.approx(POWER_UNIT_FIELD, rel=1e-12)

    def test_quadratic_in_field(self):
        assert power_from_field(2.0, 1.0) == pytest.approx(
            4.0 * power_from_field(1.0, 1.0), rel=1e-12
        )

    def test_non_positive_aperture_rejected(self):
        with pytest.raises(DomainError):
            power_from_field(1.0, 0.0)

    # A*E*E underflows or overflows where the power does not: one root per factor.
    @pytest.mark.parametrize("field,aperture,expected", [
        (1e200, 1e-300, 1.3272093639924966e97),
        (1e5, 1e300, 1.3272093639924967e307),
    ])
    def test_power_whose_product_leaves_the_float_range(self, field, aperture, expected):
        with localcontext() as context:
            context.prec = 60
            reference = Decimal(aperture) * Decimal(field) * Decimal(field) / (2 * Decimal(ETA_0))
        assert float(reference) == pytest.approx(expected, rel=1e-15)
        assert power_from_field(field, aperture) == pytest.approx(float(reference), rel=1e-12)

    def test_power_beyond_the_float_range_is_named(self):
        with pytest.raises(DomainError) as caught:
            power_from_field(1e300, 1e300)
        assert str(caught.value) == "collected power must be finite and >= 0 W, got inf"

    @settings(max_examples=250)
    @given(
        st.floats(min_value=1e-9, max_value=1e6),
        st.floats(min_value=1e-9, max_value=1e6),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_homogeneity(self, e, a, s):
        base = power_from_field(e, a)
        assert power_from_field(s * e, a) == pytest.approx(s**2 * base, rel=1e-9)
        assert power_from_field(e, s * a) == pytest.approx(s * base, rel=1e-9)


def _set_item():
    os.environ[ETA0_ENV_VAR] = "377"


def _del_item():
    del os.environ[ETA0_ENV_VAR]


def _update():
    os.environ.update({ETA0_ENV_VAR: "377"})


def _pop():
    os.environ.pop(ETA0_ENV_VAR)


def _setdefault():
    os.environ.setdefault(ETA0_ENV_VAR, "377")


_PATCH_DICT = mock.patch.dict(os.environ, {ETA0_ENV_VAR: "377"})

# Each way to set the variable to 377 in os.environ, and to remove it again.
IN_PLACE_EDITS = {
    "item-assignment-and-del": (_set_item, _del_item),
    "update-and-pop": (_update, _pop),
    "setdefault-and-del": (_setdefault, _del_item),
    "item-assignment-and-pop": (_set_item, _pop),
    "patch-dict": (_PATCH_DICT.start, _PATCH_DICT.stop),
}


class TestConstantsConfig:
    @pytest.mark.parametrize("edit", sorted(IN_PLACE_EDITS))
    def test_each_in_place_change_to_the_environment_reaches_the_next_call(
        self, monkeypatch, edit
    ):
        monkeypatch.delenv(ETA0_ENV_VAR, raising=False)
        set_it, remove_it = IN_PLACE_EDITS[edit]
        assert default_eta0() == ETA_0
        set_it()
        try:
            assert default_eta0() == 377.0
        finally:
            remove_it()
        assert default_eta0() == ETA_0

    def test_default_is_codata(self, monkeypatch):
        monkeypatch.delenv("RFSENSE_ETA0_OHMS", raising=False)
        assert default_eta0() == 376.730313668

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("RFSENSE_ETA0_OHMS", "377")
        assert default_eta0() == 377.0

    def test_env_override_flows_into_field_metrics(self, monkeypatch):
        from rfsense.fieldmetrics import nef_from_aperture

        monkeypatch.setenv("RFSENSE_ETA0_OHMS", "377")
        overridden = nef_from_aperture(23.0, 2660.0, 1.0)
        monkeypatch.delenv("RFSENSE_ETA0_OHMS")
        default = nef_from_aperture(23.0, 2660.0, 1.0)
        assert overridden == pytest.approx(default * math.sqrt(377.0 / 376.730313668), rel=1e-12)

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("RFSENSE_ETA0_OHMS", "not-a-number")
        with pytest.raises(DomainError):
            default_eta0()

    def test_constants_values(self):
        assert BOLTZMANN == 1.380649e-23
        assert PLANCK == 6.62607015e-34
        assert LIGHT_SPEED == 299792458.0
        assert ETA_0 == 376.730313668
        assert VACUUM_PERMITTIVITY == 8.8541878128e-12
        assert REFERENCE_TEMPERATURE == 290.0
        assert REDUCED_PLANCK == 6.62607015e-34 / (2.0 * math.pi)


class TestScaledRatio:
    def test_a_result_beyond_the_float_range_is_an_infinity_of_its_sign(self):
        assert _scaled_ratio((1e300, 1e300), (1.0,)) == math.inf
        assert _scaled_ratio((-1e300, 1e300), (1.0,)) == -math.inf
        assert _scaled_ratio((1e300,), (-1e-300,)) == -math.inf

    def test_a_zero_numerator_is_a_zero_of_its_sign(self):
        assert math.copysign(1.0, _scaled_ratio((0.0, 1e300, 1e300), (1.0,))) == 1.0
        assert math.copysign(1.0, _scaled_ratio((-0.0, 1e300, 1e300), (1.0,))) == -1.0
