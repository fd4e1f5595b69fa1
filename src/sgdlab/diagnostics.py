"""Coefficient-of-variation estimation from minibatch costs, and momentum roll-off policies.

The CV (sample std of the per-sample costs divided by their sample mean) gauges
how deterministic the cost currently looks; policies map it to a momentum
coefficient that only ever decreases as the CV rises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import ConfigurationError, InsufficientDataError

POLICY_KINDS = ("constant", "cv_threshold", "cv_linear")


def estimate_cv(costs, *, overwrite_costs: bool = False) -> Optional[float]:
    """CV of k >= 2 per-sample costs, or None when it is not a valid CV: a
    mean <= 0 (costs are nonnegative everywhere in this package, so that is a
    defensive path only) or a ratio that is not finite. The std uses the
    unbiased (k-1) denominator.

    With `overwrite_costs`, the deviations are formed in the costs' own memory
    where they are a float array, so no copy of them is made and the caller's
    costs are left overwritten. The estimate has the same bits either way."""
    c = np.asarray(costs, dtype=float)
    c = c if c.ndim == 1 else c.reshape(-1)  # a reshape costs ~0.3 us, even of 1-D
    n = c.shape[0]
    if n < 2:
        raise InsufficientDataError(f"CV estimation needs at least 2 costs, got {n}")
    # the add.reduce passes np.mean and np.std(ddof=1) make, called directly:
    # the same summation order, so the same bits (np.dot and math.fsum sum in
    # other orders); d is squared in place, as np.std does, to spare a
    # temporary the size of the costs
    mean = float(np.add.reduce(c)) / n
    if not mean > 0.0:
        return None
    d = np.subtract(c, mean, out=c) if overwrite_costs else c - mean
    cv = math.sqrt(float(np.add.reduce(np.multiply(d, d, out=d))) / (n - 1)) / mean
    return cv if math.isfinite(cv) else None


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
        if cv is None or not math.isfinite(cv):
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


def smooth_cv(history: Iterable[Optional[float]]) -> Optional[float]:
    """Median of the CV values in `history` that are not None (the estimates
    that were valid), or None when there is none. The caller bounds the
    window, e.g. with a deque's maxlen.

    The raw per-minibatch estimates are heavy-tailed; the median keeps one
    outlier batch from flipping the roll-off schedule.
    """
    values = [cv for cv in history if cv is not None]  # quicker than sorted(generator)
    if not values:
        return None
    values.sort()
    # np.median's value: valid CVs are finite, so no NaN handling is needed
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return float((values[mid - 1] + values[mid]) / 2.0)
