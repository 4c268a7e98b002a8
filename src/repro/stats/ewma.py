"""Exponentially weighted estimators.

The commit-likelihood model tracks per-record conflict behaviour with EWMA
rates: recent outcomes dominate so the predictor adapts when a record heats
up or cools down, which is what makes the prediction useful during load
spikes.
"""

from __future__ import annotations


class EwmaRate:
    """EWMA estimate of the probability of a binary event.

    ``update(True)`` moves the estimate toward 1, ``update(False)`` toward 0.
    With no observations the rate falls back to a configurable prior, and the
    estimate is *shrunk* toward the prior while the sample count is small —
    a pseudo-count Bayesian smoothing that prevents one early conflict from
    predicting certain doom for a record.
    """

    def __init__(self, alpha: float = 0.1, prior: float = 0.0, prior_strength: float = 5.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= prior <= 1.0:
            raise ValueError("prior must be a probability")
        if prior_strength < 0:
            raise ValueError("prior_strength must be >= 0")
        self.alpha = alpha
        self.prior = prior
        self.prior_strength = prior_strength
        self._raw = prior
        self.count = 0

    def update(self, event: bool) -> None:
        sample = 1.0 if event else 0.0
        if self.count == 0:
            self._raw = sample
        else:
            self._raw = self.alpha * sample + (1.0 - self.alpha) * self._raw
        self.count += 1

    @property
    def rate(self) -> float:
        if self.count == 0:
            return self.prior
        weight = self.count / (self.count + self.prior_strength)
        return weight * self._raw + (1.0 - weight) * self.prior
