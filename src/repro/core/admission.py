"""Likelihood-driven admission control.

Under high contention an optimistic engine wastes wide-area round trips on
transactions that are doomed to abort.  PLANET reuses the commit-likelihood
machinery *before submission*: if the prior likelihood of a transaction
(driven by the conflict rates and current in-flight contention of the
records it writes) falls below a threshold, the transaction is rejected
immediately — a cheap local abort instead of an expensive distributed one —
which raises goodput for everyone else.

Policies:

* ``NONE`` — admit everything (plain PLANET / the engines' native behaviour);
* ``LIKELIHOOD`` — reject when prior commit likelihood < ``threshold``;
* ``RANDOM`` — reject a fixed fraction uniformly at random.  This is the
  A3 ablation control: it sheds the same load without using the prediction,
  isolating how much of the goodput win comes from *which* transactions are
  shed rather than how many;
* ``DELAY`` — instead of rejecting outright, hold a low-likelihood
  transaction back with jittered exponential backoff and re-evaluate: hot
  records cool down as their in-flight writers decide, so many held
  transactions become admittable a round trip later.  Gives up into a
  rejection after ``max_delays`` attempts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence


class AdmissionPolicy(enum.Enum):
    NONE = "none"
    LIKELIHOOD = "likelihood"
    RANDOM = "random"
    DELAY = "delay"


class AdmissionAction(enum.Enum):
    ADMIT = "admit"
    REJECT = "reject"
    DELAY = "delay"


@dataclass
class AdmissionDecision:
    action: AdmissionAction
    prior_likelihood: float
    policy: AdmissionPolicy
    delay_ms: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.action is AdmissionAction.ADMIT


def check_admission_settings(
    threshold: float, random_reject_rate: float, delay_ms: float, max_delays: int
) -> None:
    """The admission knobs' ranges, named as :class:`PlanetConfig` names them.

    Checked by the controller and, so a bad ``--set`` dies up front, by
    ``PlanetConfig`` itself.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"admission_threshold must be in [0, 1], got {threshold}")
    if not 0.0 <= random_reject_rate < 1.0:
        raise ValueError(f"random_reject_rate must be in [0, 1), got {random_reject_rate}")
    if delay_ms <= 0:
        raise ValueError(f"admission_delay_ms must be positive, got {delay_ms}")
    if max_delays < 1:
        raise ValueError(f"admission_max_delays must be >= 1, got {max_delays}")


class AdmissionController:
    def __init__(
        self,
        policy: AdmissionPolicy = AdmissionPolicy.NONE,
        threshold: float = 0.3,
        random_reject_rate: float = 0.0,
        delay_ms: float = 100.0,
        max_delays: int = 3,
        rng: Optional[Random] = None,
    ) -> None:
        check_admission_settings(threshold, random_reject_rate, delay_ms, max_delays)
        self.policy = policy
        self.threshold = threshold
        self.random_reject_rate = random_reject_rate
        self.delay_ms = delay_ms
        self.max_delays = max_delays
        self._rng = rng if rng is not None else Random(0)
        self.admitted_count = 0
        self.rejected_count = 0
        self.delayed_count = 0

    def decide(self, prior_likelihood: float, previous_delays: int = 0) -> AdmissionDecision:
        """Decide for one (re)submission attempt.

        ``previous_delays`` is how often this transaction was already held
        back; the DELAY policy backs off (jittered) and gives up into a
        rejection after ``max_delays`` attempts.
        """
        if self.policy is AdmissionPolicy.NONE:
            action = AdmissionAction.ADMIT
        elif self.policy is AdmissionPolicy.LIKELIHOOD:
            action = (
                AdmissionAction.ADMIT
                if prior_likelihood >= self.threshold
                else AdmissionAction.REJECT
            )
        elif self.policy is AdmissionPolicy.RANDOM:
            action = (
                AdmissionAction.ADMIT
                if self._rng.random() >= self.random_reject_rate
                else AdmissionAction.REJECT
            )
        else:  # DELAY: hold doomed transactions until the record cools down
            if prior_likelihood >= self.threshold:
                action = AdmissionAction.ADMIT
            elif previous_delays < self.max_delays:
                action = AdmissionAction.DELAY
            else:
                action = AdmissionAction.REJECT

        delay_ms = 0.0
        if action is AdmissionAction.ADMIT:
            self.admitted_count += 1
        elif action is AdmissionAction.REJECT:
            self.rejected_count += 1
        else:
            self.delayed_count += 1
            backoff = self.delay_ms * (2 ** previous_delays)
            delay_ms = backoff * self._rng.uniform(0.5, 1.5)
        return AdmissionDecision(
            action=action,
            prior_likelihood=prior_likelihood,
            policy=self.policy,
            delay_ms=delay_ms,
        )

    @property
    def reject_rate(self) -> float:
        total = self.admitted_count + self.rejected_count
        return self.rejected_count / total if total else 0.0
