"""Optimizer steps: plain SGD, momentum SGD, the scalar secant method, and the
secant-then-SGD hybrid schedule.

All steps are pure functions of (state, inputs); nothing here owns an RNG
except run_hybrid, which spends one fresh sample per secant/SGD iteration
from the generator it is handed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import estimate_cv
from .errors import ConfigurationError
from .problems import Minibatch, Problem, SampleStream

Array = np.ndarray

DIVERGENCE_LIMIT = 1e12  # |theta| beyond this is reported as a run failure


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


@dataclass(frozen=True)
class MomentumState:
    """Stored auxiliary vector v (zero at iteration 0) and the iteration counter."""

    v: Array
    iteration: int = 0

    @staticmethod
    def initial(dim: int) -> "MomentumState":
        return MomentumState(v=np.zeros(dim), iteration=0)


def step_momentum(theta: Array, state: MomentumState, batch: Minibatch,
                  settings: StepSettings) -> tuple[Array, MomentumState]:
    """One momentum update:

        v' = beta * v + mean_gradient
        theta' = theta - alpha * v'
    """
    theta = np.asarray(theta, dtype=float)
    g = batch.mean_gradient
    if theta.shape != state.v.shape or theta.shape != g.shape:
        raise ConfigurationError(
            f"dimension mismatch: theta {theta.shape}, v {state.v.shape}, "
            f"gradient {g.shape}")
    v = settings.momentum * state.v + g
    return theta - settings.learning_rate * v, MomentumState(v=v, iteration=state.iteration + 1)


def step_sgd(theta: Array, batch: Minibatch, learning_rate: float) -> Array:
    """Plain stochastic gradient step; bit-identical to momentum with beta=0, v=0."""
    if not learning_rate > 0.0:
        raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
    theta = np.asarray(theta, dtype=float)
    g = batch.mean_gradient
    if theta.shape != g.shape:
        raise ConfigurationError(
            f"dimension mismatch: theta {theta.shape}, gradient {g.shape}")
    return theta - learning_rate * g


@dataclass(frozen=True)
class SecantState:
    """The two previous scalar iterates plus the sampled gradient at the older one.

    The sampled gradient at theta_prev1 is drawn fresh each iteration and passed
    to step_secant directly; after the step it becomes grad_prev2.
    """

    theta_prev2: float
    theta_prev1: float
    grad_prev2: float

    def __post_init__(self):
        if not (math.isfinite(self.theta_prev2) and math.isfinite(self.theta_prev1)):
            raise ConfigurationError("secant state requires finite iterates")


def step_secant(state: SecantState, grad_at_prev1: float) -> tuple[float, SecantState]:
    """One secant update from sampled gradients:

        theta' = theta_prev1 - g1 * (theta_prev1 - theta_prev2) / (g1 - g2)

    Degenerate cases (equal iterates, or exactly equal sampled gradients at
    distinct iterates) return theta_prev1 unchanged.
    """
    t2, t1, g2 = state.theta_prev2, state.theta_prev1, state.grad_prev2
    g1 = float(grad_at_prev1)
    denom = g1 - g2
    if t1 == t2 or denom == 0.0:
        theta_new = t1
    else:
        theta_new = t1 - g1 * (t1 - t2) / denom
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
    cv:        switch once the CV estimate from the trailing per-iterate costs
               reaches the threshold (the CV rises as |theta| shrinks toward
               unit scale, so a rising CV marks the end of the "poor" regime).
    """

    kind: str = "abs_theta"
    threshold: float = 1.0
    window: int = 20

    def __post_init__(self):
        if self.kind not in ("abs_theta", "cv"):
            raise ConfigurationError(
                f"unknown switch policy {self.kind!r}; expected 'abs_theta' or 'cv'")
        if self.window < 2:
            raise ConfigurationError(f"cv switch window must be >= 2, got {self.window}")
        if not np.isfinite(self.threshold):
            raise ConfigurationError(f"switch threshold must be finite, got {self.threshold}")

    def fires(self, theta: float, cv: Optional[float]) -> bool:
        if self.kind == "abs_theta":
            return abs(theta) <= self.threshold
        return cv is not None and cv >= self.threshold


@dataclass(frozen=True)
class HybridRun:
    """Every iterate visited, the cumulative sample count when it became
    current, and where (if anywhere) the SGD phase took over."""

    iterates: Array
    samples: Array
    switch_index: Optional[int]
    diverged: bool = False


def run_hybrid(problem: Problem, theta0: float, switch_policy: SwitchPolicy,
               sgd_schedule: AlphaSchedule, rng: np.random.Generator,
               max_iterations: int) -> HybridRun:
    """Secant steps until the switch policy fires, then single-sample SGD.

    Scalar problems only. The secant phase consumes one fresh sample per
    iteration (plus one for the gradient at theta0); the SGD phase restarts
    its schedule index at 1. The second secant start point is theta0 / 2
    (or 1.0 when theta0 == 0), so the initial bracket is wide for poor starts.
    Samples come from a `SampleStream` sized to what the run can spend, so
    a run that does not diverge leaves `rng` where one draw per sample would.
    """
    if problem.dim != 1:
        raise ConfigurationError(
            f"hybrid/secant runs need a scalar problem, got dim {problem.dim}")
    if max_iterations < 0:
        raise ConfigurationError(f"max_iterations must be >= 0, got {max_iterations}")
    theta = float(theta0)
    if not math.isfinite(theta):
        raise ConfigurationError("theta0 must be finite")

    iterates = [theta]
    samples = [0]
    cv_switch = switch_policy.kind == "cv"
    cost_window: list[float] = []  # trailing costs, kept for the cv switch only
    switch_index: Optional[int] = None
    diverged = False

    # no sample is spent before the secant start, so no CV exists yet
    start = theta
    in_sgd = switch_policy.fires(start, None)
    if in_sgd:
        switch_index = 0
    else:
        theta = start / 2.0 if start != 0.0 else 1.0
        iterates.append(theta)
        samples.append(0)
        in_sgd = switch_policy.fires(theta, None)
        if in_sgd:
            switch_index = 1
    stream = SampleStream(problem, rng, 1, max_iterations + (not in_sgd))

    def sampled_gradient(at: float) -> float:
        costs, grad = problem.evaluate(np.array([at]), stream.draw())
        if cv_switch:
            cost_window.append(float(costs[0]))
            del cost_window[:-switch_policy.window]
        return float(grad[0])

    def trailing_cv() -> Optional[float]:
        if len(cost_window) < 2:
            return None
        est = estimate_cv(cost_window)
        return est.cv if est.valid else None

    n_samples = 0
    state: Optional[SecantState] = None
    if not in_sgd:
        state = SecantState(theta_prev2=start, theta_prev1=theta,
                            grad_prev2=sampled_gradient(start))
        n_samples = 1

    sgd_iter = 0
    for _ in range(max_iterations):
        g = sampled_gradient(theta)
        n_samples += 1
        if in_sgd:
            sgd_iter += 1
            # step_sgd's update, on the scalar
            theta = theta - sgd_schedule.alpha(sgd_iter) * g
        else:
            theta, state = step_secant(state, g)
        iterates.append(theta)
        samples.append(n_samples)
        if not math.isfinite(theta) or abs(theta) > DIVERGENCE_LIMIT:
            diverged = True
            break
        if not in_sgd and switch_policy.fires(theta, trailing_cv()):
            in_sgd = True
            switch_index = len(iterates) - 1

    return HybridRun(
        iterates=np.array(iterates),
        samples=np.array(samples),
        switch_index=switch_index,
        diverged=diverged,
    )
