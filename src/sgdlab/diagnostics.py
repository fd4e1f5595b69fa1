"""Coefficient-of-variation estimation from minibatch costs, and momentum roll-off policies.

The CV (sample std of the per-sample costs divided by their sample mean) gauges
how deterministic the cost currently looks; policies map it to a momentum
coefficient that only ever decreases as the CV rises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, InsufficientDataError

POLICY_KINDS = ("constant", "cv_threshold", "cv_linear")


class CvEstimate(NamedTuple):
    """Sample mean/std of minibatch costs and their ratio.

    cv is NaN (and valid is False) when the mean is nonpositive; costs are
    nonnegative by construction everywhere in this package, so that is a
    defensive path only. std_cost uses the unbiased (k-1) denominator.
    """

    mean_cost: float
    std_cost: float
    cv: float
    k: int

    @property
    def valid(self) -> bool:
        return self.mean_cost > 0.0 and math.isfinite(self.cv)


def estimate_cv(costs) -> CvEstimate:
    """CV of a list of k >= 2 per-sample costs; flags (never raises) on mean <= 0."""
    c = np.asarray(costs, dtype=float).reshape(-1)
    n = c.shape[0]
    if n < 2:
        raise InsufficientDataError(f"CV estimation needs at least 2 costs, got {n}")
    # the add.reduce passes np.mean and np.std(ddof=1) make, called directly:
    # the same summation order, so the same bits (np.dot and math.fsum sum in
    # other orders)
    mean = float(np.add.reduce(c)) / n
    d = c - mean
    std = math.sqrt(float(np.add.reduce(d * d)) / (n - 1))
    cv = std / mean if mean > 0.0 else float("nan")
    return CvEstimate(mean_cost=mean, std_cost=std, cv=cv, k=n)


@dataclass(frozen=True)
class RolloffPolicy:
    """Maps a CV estimate to a momentum coefficient in [0, beta_max].

    kinds:
      constant     -- beta_max always (CV ignored)
      cv_threshold -- beta_max while cv < cv_high, else 0 (closed on the high side)
      cv_linear    -- beta_max up to cv_low, linear ramp down to 0 at cv_high
    """

    kind: str = "cv_linear"
    beta_max: float = 0.9
    cv_low: float = 0.1
    cv_high: float = 1.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ConfigurationError(
                f"unknown roll-off policy {self.kind!r}; expected one of {POLICY_KINDS}")
        if not 0.0 <= self.beta_max < 1.0:
            raise ConfigurationError(f"beta_max must be in [0, 1), got {self.beta_max}")
        if not 0.0 <= self.cv_low < self.cv_high:  # False for NaN too
            raise ConfigurationError(
                f"need 0 <= cv_low < cv_high, got cv_low={self.cv_low} cv_high={self.cv_high}")

    def beta(self, cv: Optional[float]) -> float:
        """Momentum for a CV value; None (no valid estimate) falls back to plain SGD."""
        if self.kind == "constant":
            return self.beta_max
        if cv is None or not np.isfinite(cv):
            return 0.0
        if self.kind == "cv_threshold":
            return self.beta_max if cv < self.cv_high else 0.0
        if cv <= self.cv_low:
            return self.beta_max
        if cv >= self.cv_high:
            return 0.0
        # rounding can put the ramp's first values just above beta_max
        return min(self.beta_max,
                   self.beta_max * (self.cv_high - cv) / (self.cv_high - self.cv_low))


def smooth_cv(history: Sequence[CvEstimate], window: int) -> float:
    """Median of the valid CV values among the last `window` estimates.

    The raw per-minibatch estimates are heavy-tailed; the median keeps one
    outlier batch from flipping the roll-off schedule.
    """
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    recent = history[-window:] if window < len(history) else history
    # CvEstimate.valid, inline: this runs once per entry per smoothing
    values = sorted(e.cv for e in recent if e.mean_cost > 0.0 and math.isfinite(e.cv))
    if not values:
        raise InsufficientDataError("no valid CV estimate in the smoothing window")
    # np.median's value: valid CVs are finite, so no NaN handling is needed
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return float((values[mid - 1] + values[mid]) / 2.0)
