"""Optimizer steps: plain SGD, momentum SGD and the scalar secant method, with
the learning-rate schedule and the policy that ends a hybrid run's secant phase.

All steps are pure functions of (state, inputs) and nothing here owns an RNG;
the run loop in `harness` draws the samples, evaluates the gradients and
calls these steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError

Array = np.ndarray


@dataclass(frozen=True)
class StepSettings:
    """Per-step learning rate alpha > 0 and momentum beta in [0, 1)."""

    learning_rate: float
    momentum: float = 0.0

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(
                f"momentum must be in [0, 1), got {self.momentum}")


def step_momentum(theta: Array, v: Array, g: Array,
                  settings: StepSettings) -> tuple[Array, Array]:
    """One momentum update from the mean gradient g, with v zero at the start:

        v' = beta * v + g
        theta' = theta - alpha * v'
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != v.shape or theta.shape != g.shape:
        raise ConfigurationError(
            f"dimension mismatch: theta {theta.shape}, v {v.shape}, "
            f"gradient {g.shape}")
    v = settings.momentum * v + g
    return theta - settings.learning_rate * v, v


def step_sgd(theta: Array, g: Array, learning_rate: float) -> Array:
    """Plain stochastic gradient step on the mean gradient g; bit-identical to
    momentum with beta=0, v=0."""
    if not learning_rate > 0.0:
        raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != g.shape:
        raise ConfigurationError(
            f"dimension mismatch: theta {theta.shape}, gradient {g.shape}")
    return theta - learning_rate * g


@dataclass(frozen=True)
class SecantState:
    """The two previous scalar iterates plus the sampled gradient at the older one.

    The sampled gradient at theta_prev1 is drawn fresh each iteration and passed
    to step_secant directly; after the step it becomes grad_prev2. The fields
    may also be arrays of one shape, each element an independent scalar run.
    """

    theta_prev2: Union[float, Array]
    theta_prev1: Union[float, Array]
    grad_prev2: Union[float, Array]

    def __post_init__(self):
        if not np.isfinite([self.theta_prev2, self.theta_prev1]).all():
            raise ConfigurationError("secant state requires finite iterates")


def _secant_point(t2, t1, g1, denom):
    """t1 - g1 * (t1 - t2) / denom, for floats or element by element on arrays."""
    return t1 - g1 * (t1 - t2) / denom


def step_secant(state: SecantState, grad_at_prev1: Union[float, Array]
                ) -> tuple[Union[float, Array], SecantState]:
    """One secant update from sampled gradients:

        theta' = theta_prev1 - g1 * (theta_prev1 - theta_prev2) / (g1 - g2)

    Degenerate cases (equal iterates, or exactly equal sampled gradients at
    distinct iterates) return theta_prev1 unchanged. A state of arrays steps
    every element with the same arithmetic a scalar state would use.
    """
    t2, t1, g2 = state.theta_prev2, state.theta_prev1, state.grad_prev2
    if isinstance(t1, np.ndarray):
        g1 = np.asarray(grad_at_prev1, dtype=float)
        denom = g1 - g2
        keep = (t1 == t2) | (denom == 0.0)
        # kept elements may divide by zero; np.where discards those values
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            theta_new = np.where(keep, t1, _secant_point(t2, t1, g1, denom))
    else:
        g1 = float(grad_at_prev1)
        denom = g1 - g2
        if t1 == t2 or denom == 0.0:
            theta_new = t1
        else:
            theta_new = _secant_point(t2, t1, g1, denom)
    return theta_new, SecantState(theta_prev2=t1, theta_prev1=theta_new, grad_prev2=g1)


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
