import math

import pytest

# With rydberg, every engine module and dataset is imported here, so every
# subclass of ValidatedRecord is defined.
from rfsense import rydberg  # noqa: F401
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
    (CavityCoupling(1e10, 1e4, 0.5, 1e-6), {"q_external": 1e4},
     "give both or neither of Q_e and Q_i"),
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


def test_every_validated_record_has_a_replace_case():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    covered = {type(record) for record, _, _ in VALIDATED}
    assert set(subclasses(ValidatedRecord)) <= covered
