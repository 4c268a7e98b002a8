"""Online statistics used by the PLANET layer and the experiment harness."""

from repro.stats.ewma import EwmaRate
from repro.stats.histogram import LatencyCdf
from repro.stats.calibration import CalibrationBins

__all__ = [
    "EwmaRate",
    "LatencyCdf",
    "CalibrationBins",
]
