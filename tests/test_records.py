import inspect
import math
import sys

import pytest

# With rydberg, every engine module and dataset is imported here, so every
# subclass of ValidatedRecord is defined.
from rfsense import errors, rydberg  # noqa: F401
from rfsense.dataset import CategoryRange
from rfsense.errors import DomainError
from rfsense.fieldmetrics import CavityCoupling, ReceiverReference
from rfsense.linkbudget import LinkBudget
from rfsense.quantities import ValidatedRecord
from rfsense.radar import PointTarget, RadarScenario, ResolutionCell
from rfsense.radiometry import CalibrationPoint, ReceiverNoiseModel

BUDGET = LinkBudget(20.0, 45.0, 2.0, (("fsl", 206.5),), 50.0, 100.0, 100.0, 1.5, 1e8)

# (valid record, invalid change, message of the DomainError it raises)
VALIDATED = [
    (ReceiverNoiseModel(250.0, 600.0, 1e9, 15e-3), {"bandwidth_hz": -1},
     "bandwidth must be > 0 Hz"),
    (CalibrationPoint(77.0, 1e-11), {"output_power_w": -1.0},
     "calibration point output_power_w must be >= 0 W"),
    (PointTarget(1.0), {"cross_section_m2": -1.0},
     "radar cross section must be >= 0 m^2"),
    (ResolutionCell(1.0, 10.0), {"cell_area_m2": 0.0},
     "resolution cell area must be > 0 m^2"),
    (RadarScenario(1.0, 10.0, 10.0, 0.03, PointTarget(1.0), 1e3), {"system_loss": 0.5},
     "system loss must be >= 1"),
    (ReceiverReference(20.0, 10.0), {"rho2": 2.0},
     "polarisation coupling rho^2 must be in (0, 1]"),
    (CavityCoupling(1e10, 1e4, 0.5, 1e-6), {"q_loaded": 0.0},
     "loaded quality factor must be > 0"),
    (BUDGET, {"data_rate_bps": 0.0}, "data rate must be > 0 bit/s"),
    (CategoryRange("c", 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1),
     {"f0_min_hz": 3.0}, "range bounds out of order: 3 > 2"),
]
# Non-finite fields, which sign checks such as ``x <= 0.0`` used to let through.
NON_FINITE = [
    (ReceiverNoiseModel(250.0, 600.0, 1e9, 15e-3), {"bandwidth_hz": math.nan},
     "bandwidth must be finite and > 0 Hz, got nan"),
    (ReceiverNoiseModel(250.0, 600.0, 1e9, 15e-3), {"bandwidth_hz": math.inf},
     "bandwidth must be finite and > 0 Hz, got inf"),
    (ReceiverReference(20.0, 10.0), {"system_temperature_k": math.nan},
     "system temperature must be finite and > 0 K, got nan"),
    (PointTarget(1.0), {"cross_section_m2": math.nan},
     "radar cross section must be finite and >= 0 m^2, got nan"),
    (RadarScenario(1.0, 10.0, 10.0, 0.03, PointTarget(1.0), 1e3), {"range_m": math.inf},
     "range must be finite and > 0 m, got inf"),
    (CavityCoupling(1e10, 1e4, 0.5, 1e-6), {"mode_volume_m3": math.nan},
     "mode volume must be finite and > 0 m^3, got nan"),
    (BUDGET, {"data_rate_bps": math.nan}, "data rate must be finite and > 0 bit/s, got nan"),
    *[(CalibrationPoint(77.0, 1e-11), {field: value},
       f"calibration point {field} must be finite and >= 0 {unit}, got {value!r}")
      for field, unit in (("antenna_temperature_k", "K"), ("output_power_w", "W"))
      for value in (math.nan, math.inf)],
]


@pytest.mark.parametrize(
    "record, change, message", VALIDATED + NON_FINITE,
    ids=[type(r).__name__ for r, _, _ in VALIDATED]
    + [f"{type(r).__name__}-{name}-{value}" for r, c, _ in NON_FINITE for name, value in c.items()],
)
def test_replace_validates_like_the_constructor(record, change, message):
    with pytest.raises(DomainError) as built:
        type(record)(**{**record._asdict(), **change})
    with pytest.raises(DomainError) as replaced:
        record._replace(**change)
    assert str(replaced.value) == str(built.value) == message
    # A valid change still gives a record of the same type.
    assert type(record._replace()) is type(record)
    assert record._replace() == record


# CalibrationPoint tests its bound inline and calls ``require`` only to raise,
# in field order, so the temperature is the field named when both are bad.
@pytest.mark.parametrize("temperature,power", [
    (math.nan, math.nan), (-1.0, math.inf), (math.inf, -1.0), (-1.0, -1.0),
])
def test_calibration_point_with_both_fields_bad_names_the_temperature(temperature, power):
    with pytest.raises(DomainError) as caught:
        CalibrationPoint(temperature, power)
    assert str(caught.value).startswith("calibration point antenna_temperature_k must be ")


def test_every_validated_record_has_a_replace_case():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    covered = {type(record) for record, _, _ in VALIDATED}
    assert set(subclasses(ValidatedRecord)) <= covered


# Each record is built one way, by its own ``__new__``: its parameters are its
# fields in order, and its signature is the one owner of the defaults.
@pytest.mark.parametrize("record", [r for r, _, _ in VALIDATED],
                         ids=[type(r).__name__ for r, _, _ in VALIDATED])
def test_each_record_new_takes_its_fields_with_their_defaults(record):
    cls = type(record)
    assert "__new__" in vars(cls)
    parameters = list(inspect.signature(cls.__new__).parameters.values())[1:]
    assert tuple(parameter.name for parameter in parameters) == cls._fields
    assert {parameter.kind for parameter in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    defaults = tuple(p.default for p in parameters if p.default is not p.empty)
    required = len(parameters) - len(defaults)
    assert cls._field_defaults == {}
    assert cls(*record[:required])[required:] == defaults


@pytest.mark.parametrize("record, change", [(r, c) for r, c, _ in VALIDATED],
                         ids=[type(r).__name__ for r, _, _ in VALIDATED])
def test_a_valid_construction_makes_no_require_call(record, change, monkeypatch):
    names = []

    def counting(*args, **kwargs):
        names.append(args[0])
        return errors.require(*args, **kwargs)

    module = sys.modules[type(record).__module__]
    monkeypatch.setattr(module, "require", counting)
    type(record)(*record)
    type(record)(**record._asdict())
    record._replace()
    assert names == []
    # The wrapper sees the bound that fails, so the count above is not vacuous.
    # CategoryRange's order test raises its DomainError without ``require``.
    with pytest.raises(DomainError):
        record._replace(**change)
    assert names or type(record) is CategoryRange
