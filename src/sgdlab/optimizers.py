"""Optimizer steps: plain SGD, heavy-ball momentum SGD and the secant method,
with the learning-rate schedule and the policy that ends a hybrid run's secant
phase.

The steps are pure arithmetic on (state, inputs): they check nothing, since
the config, `AlphaSchedule` and `RolloffPolicy` validated every setting they
receive, and nothing here owns an RNG. The run loop in `harness` draws the
samples, evaluates the gradients, calls these steps and reports an iterate
that left the finite floats as a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError

Array = np.ndarray


def step_momentum(theta: Array, v: Array, g: Array, alpha: float,
                  beta: float) -> tuple[Array, Array]:
    """One heavy-ball momentum update from the mean gradient g, with v zero
    at the start:

        v' = beta * v + g
        theta' = theta - alpha * v'
    """
    v = beta * v + g
    return theta - alpha * v, v


def step_sgd(theta: Array, g: Array, alpha: float) -> Array:
    """Plain stochastic gradient step on the mean gradient g; bit-identical to
    momentum with beta=0, v=0. A rate that underflowed to 0 leaves theta as is."""
    return theta - alpha * g


def step_secant(theta_prev2: Array, theta_prev1: Array, grad_prev2: Array,
                grad_prev1: Array) -> Array:
    """One secant update from sampled gradients, element by element:

        theta' = theta_prev1 - g1 * (theta_prev1 - theta_prev2) / (g1 - g2)

    Degenerate elements (equal iterates, or exactly equal sampled gradients
    at distinct iterates) keep theta_prev1; an element that overflows comes
    back non-finite. Floats are stepped as 0-d arrays.
    """
    t2, t1, g2 = theta_prev2, theta_prev1, grad_prev2
    g1 = np.asarray(grad_prev1, dtype=float)
    # np.where drops kept elements' x / 0; inf - inf gradients give a NaN step
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = g1 - g2
        keep = (t1 == t2) | (denom == 0.0)
        return np.where(keep, t1, t1 - g1 * (t1 - t2) / denom)


@dataclass(frozen=True)
class AlphaSchedule:
    """Learning-rate schedule: constant, or value / i for 1-based iteration i."""

    kind: str = "constant"
    value: float = 0.1

    def __post_init__(self):
        if self.kind not in ("constant", "inverse_t"):
            raise ConfigurationError(
                f"unknown learning-rate schedule {self.kind!r}; "
                "expected 'constant' or 'inverse_t'")
        if not self.value > 0.0:
            raise ConfigurationError(f"schedule value must be positive, got {self.value}")

    def alpha(self, iteration: int) -> float:
        if iteration < 1:
            raise ConfigurationError(f"iteration index is 1-based, got {iteration}")
        if self.kind == "constant":
            return self.value
        return self.value / iteration


@dataclass(frozen=True)
class SwitchPolicy:
    """When the hybrid run leaves the secant phase for SGD.

    abs_theta: switch once |theta| <= threshold.
    cv:        switch once the CV estimate from the trailing `cv_buffer`
               per-iterate costs reaches the threshold (the CV rises as
               |theta| shrinks toward unit scale, so a rising CV marks the
               end of the "poor" regime).
    """

    kind: str = "abs_theta"
    threshold: float = 1.0

    def __post_init__(self):
        if self.kind not in ("abs_theta", "cv"):
            raise ConfigurationError(
                f"unknown switch policy {self.kind!r}; expected 'abs_theta' or 'cv'")
        if not np.isfinite(self.threshold):
            raise ConfigurationError(f"switch threshold must be finite, got {self.threshold}")

    def fires(self, theta: float, cv: Optional[float]) -> bool:
        if self.kind == "abs_theta":
            return abs(theta) <= self.threshold
        return cv is not None and cv >= self.threshold
