"""Online statistics used by the PLANET layer and the experiment harness."""

from repro.stats.ewma import EwmaEstimator, EwmaRate
from repro.stats.quantiles import P2Quantile, QuantileSketch
from repro.stats.reservoir import ReservoirSample
from repro.stats.histogram import Histogram, LatencyCdf
from repro.stats.bootstrap import ConfidenceInterval, bootstrap_ci, mean_ci, percentile_ci
from repro.stats.calibration import CalibrationBins

__all__ = [
    "EwmaEstimator",
    "EwmaRate",
    "P2Quantile",
    "QuantileSketch",
    "ReservoirSample",
    "Histogram",
    "LatencyCdf",
    "CalibrationBins",
    "ConfidenceInterval",
    "bootstrap_ci",
    "percentile_ci",
    "mean_ci",
]
