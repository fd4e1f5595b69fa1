"""Config-driven experiment runner with deterministic CSV traces.

A run is fully specified by a flat YAML config (problem, start point,
optimizer, schedules, sizes, seed); two runs of the same config produce
byte-identical trace files. Finite-set problems are swept in shuffled
epochs; infinite-sample problems draw fresh minibatches, with `epoch_size`
samples counting as one epoch for the trace's epoch column.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np
import yaml

from .diagnostics import RolloffPolicy, estimate_cv, smooth_cv
from .errors import ConfigurationError, TraceFormatError
from .optimizers import AlphaSchedule, SwitchPolicy, step_momentum, step_secant, step_sgd
from .problems import (LeastSquaresProblem, LogisticBlobsProblem, Problem,
                       RademacherProblem, SampleStream, _as_theta)
# The run loop calls Problem.evaluate; these stay bound here because
# perfbench's tracer wraps them at this module.
from .problems import draw_minibatch, evaluate_minibatch  # noqa: F401

DIVERGENCE_LIMIT = 1e12  # |theta| beyond this is reported as a run failure

TRACE_HEADER = "epoch,iteration,true_risk,est_risk,cv_raw,cv_smoothed,alpha,beta,accuracy,theta_norm"

PROBLEM_NAMES = ("rademacher", "least_squares", "logistic")
OPTIMIZER_NAMES = ("sgd", "momentum", "secant", "hybrid")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; see README for the full key-by-key schema."""

    problem: str = "rademacher"
    dim: int = 10                      # feature dim (least_squares, logistic)
    condition_number: float = 100.0    # least_squares
    noise_std: float = 0.0             # least_squares
    n_classes: int = 4                 # logistic
    separation: float = 3.0            # logistic
    test_per_class: int = 500          # logistic held-out set size per class
    problem_seed: int = 0

    theta0: Optional[object] = None    # scalar (broadcast) or list matching dim
    theta0_scale: Optional[float] = None  # poor start: scale * random unit vector

    optimizer: str = "sgd"
    k: int = 1
    alpha: Optional[float] = None      # constant value, or coefficient for inverse_t
    alpha_schedule: str = "constant"
    beta: Optional[float] = None       # constant momentum
    beta_policy: Optional[str] = None  # constant | cv_threshold | cv_linear
    beta_max: float = 0.9
    cv_low: float = 0.1
    cv_high: float = 1.0
    cv_window: int = 10                # smoothing window (in CV estimates)
    cv_buffer: int = 100               # trailing cost window for k < 2

    switch_kind: str = "abs_theta"     # hybrid only
    switch_threshold: float = 1.0

    epochs: int = 1
    train_size: Optional[int] = None   # finite-set mode when present
    epoch_size: int = 1000             # samples per epoch in infinite mode
    eval_every: int = 1
    risk_threshold: Optional[float] = None  # summary: iterations to this risk gap
    seed: int = 0

    def __post_init__(self):
        """Coerce the numeric keys by their annotations, then validate: a
        config is checked whenever one is built, `dataclasses.replace` included."""
        for f in fields(self):
            value, is_int = getattr(self, f.name), f.type in ("int", "Optional[int]")
            if f.type not in ("int", "Optional[int]", "float", "Optional[float]") or (
                    value is None and f.type.startswith("Optional")):
                continue
            try:
                # int() and float() would read True as 1 and cut 2.7 to 2
                if isinstance(value, bool) or (is_int and isinstance(value, float)
                                               and not value.is_integer()):
                    raise ValueError(f"expected {'an integer' if is_int else 'a number'}, "
                                     f"got {value!r}")
                value = int(value) if is_int else float(value)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad value for config key {f.name!r}: {exc}") from exc
            if not (is_int or math.isfinite(value)):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
            object.__setattr__(self, f.name, value)
        self.validate()

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config must be a mapping, got {type(raw).__name__}")
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
        return ExperimentConfig(**raw)

    def validate(self) -> None:
        """Raise ConfigurationError for any invalid key; the problem is built
        to check the keys that depend on it."""
        if self.problem not in PROBLEM_NAMES:
            raise ConfigurationError(
                f"unknown problem {self.problem!r}; expected one of {PROBLEM_NAMES}")
        if self.optimizer not in OPTIMIZER_NAMES:
            raise ConfigurationError(
                f"unknown optimizer {self.optimizer!r}; expected one of {OPTIMIZER_NAMES}")
        for name in ("k", "epochs", "eval_every", "epoch_size", "cv_window"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.cv_buffer < 2:
            raise ConfigurationError(f"cv_buffer must be >= 2, got {self.cv_buffer}")
        if self.train_size is not None and self.train_size < 1:
            raise ConfigurationError(f"train_size must be >= 1, got {self.train_size}")
        if self.eval_every > self.total_iterations():
            raise ConfigurationError(
                f"eval_every ({self.eval_every}) exceeds the run's "
                f"{self.total_iterations()} iterations; the trace would be empty")
        if (self.theta0 is None) == (self.theta0_scale is None):
            raise ConfigurationError("exactly one of theta0 / theta0_scale is required")

        if self.optimizer in ("sgd", "momentum", "hybrid"):
            if self.alpha is None or not self.alpha > 0.0:
                raise ConfigurationError(
                    f"optimizer {self.optimizer!r} needs a positive alpha")
        if self.optimizer != "momentum" and (self.beta is not None or self.beta_policy is not None):
            raise ConfigurationError(
                f"{self.optimizer} takes no momentum settings; use optimizer: momentum")
        if self.optimizer == "momentum":
            if self.beta is None and self.beta_policy is None:
                raise ConfigurationError("momentum needs 'beta' or 'beta_policy'")
            if self.beta is not None and self.beta_policy is not None:
                raise ConfigurationError("give either 'beta' or 'beta_policy', not both")
            if self.beta is not None and not 0.0 <= self.beta < 1.0:
                raise ConfigurationError(f"beta must be in [0, 1), got {self.beta}")
        if self.optimizer in ("secant", "hybrid"):
            if self.k != 1:
                raise ConfigurationError("secant/hybrid consume one sample per "
                                         f"iteration; k must be 1, got {self.k}")
            if self.train_size is not None:
                raise ConfigurationError(
                    "secant/hybrid draw fresh samples; train_size is not supported")
        # constructing these validates their own fields
        self.make_alpha_schedule()
        self.make_rolloff_policy()
        self.make_switch_policy()
        problem = build_problem(self)
        if self.optimizer in ("secant", "hybrid") and problem.dim != 1:
            raise ConfigurationError(
                f"secant/hybrid need a scalar problem, got dim {problem.dim}")
        if self.theta0 is not None:
            n = self.theta0_values().shape[0]
            if n not in (1, problem.dim):
                raise ConfigurationError(
                    f"theta0 has {n} entries, problem needs {problem.dim}")

    def total_iterations(self) -> int:
        """ceil(epochs * epoch_size / k) fresh minibatches, or epochs passes of
        ceil(train_size / k) minibatches over a finite train set."""
        if self.train_size is not None:
            return self.epochs * math.ceil(self.train_size / self.k)
        return math.ceil(self.epochs * self.epoch_size / self.k)

    def theta0_values(self) -> np.ndarray:
        """theta0 as a 1-D float array (one entry broadcasts to every dim)."""
        try:
            if any(isinstance(v, (bool, np.bool_))
                   for v in np.asarray(self.theta0, dtype=object).flat):
                raise TypeError("float() would read a boolean as a number")
            values = np.atleast_1d(np.asarray(self.theta0, dtype=float))
            if values.ndim != 1:
                raise ValueError("a nested list is not a parameter vector")
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"theta0 must be a number or a list of numbers, got {self.theta0!r}") from exc
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("theta0 has non-finite entries")
        return values

    def make_alpha_schedule(self) -> Optional[AlphaSchedule]:
        if self.alpha is None:
            return None
        return AlphaSchedule(kind=self.alpha_schedule, value=self.alpha)

    def make_rolloff_policy(self) -> Optional[RolloffPolicy]:
        """The momentum optimizer's policy; a constant `beta` is the constant
        roll-off policy, so the run loop has one momentum source."""
        if self.optimizer != "momentum":
            return None
        if self.beta is not None:
            return RolloffPolicy("constant", beta_max=self.beta)
        return RolloffPolicy(kind=self.beta_policy, beta_max=self.beta_max,
                             cv_low=self.cv_low, cv_high=self.cv_high)

    def make_switch_policy(self) -> Optional[SwitchPolicy]:
        if self.optimizer != "hybrid":
            return None
        return SwitchPolicy(kind=self.switch_kind, threshold=self.switch_threshold)


def load_config(path) -> ExperimentConfig:
    """Parse a flat YAML mapping into a validated ExperimentConfig."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{path}: invalid YAML: {exc}") from exc
    if raw is None:
        raise ConfigurationError(f"empty config file: {path}")
    return ExperimentConfig.from_dict(raw)


def build_problem(config: ExperimentConfig) -> Problem:
    if config.problem == "rademacher":
        return RademacherProblem()
    if config.problem == "least_squares":
        return LeastSquaresProblem(config.dim, config.condition_number,
                                   config.noise_std, config.problem_seed)
    return LogisticBlobsProblem(config.dim, config.n_classes, config.separation,
                                config.problem_seed, config.test_per_class)


def initial_theta(config: ExperimentConfig, problem: Problem,
                  rng: np.random.Generator) -> np.ndarray:
    """Start point: explicit value(s), or scale * random unit vector (consumes rng)."""
    if config.theta0 is not None:
        arr = config.theta0_values()  # validate() checked its length
        return np.full(problem.dim, arr[0]) if arr.shape[0] == 1 else arr
    direction = rng.standard_normal(problem.dim)
    return config.theta0_scale * direction / np.linalg.norm(direction)


class TraceRecord(NamedTuple):
    epoch: int
    iteration: int
    true_risk: Optional[float]
    est_risk: float
    cv_raw: Optional[float]
    cv_smoothed: Optional[float]
    alpha: float
    beta: float
    accuracy: Optional[float]
    theta_norm: float


@dataclass
class RunSummary:
    final_risk: Optional[float]
    best_risk: Optional[float]
    samples: int
    iterations: int
    diverged: bool
    final_theta: np.ndarray
    final_accuracy: Optional[float] = None
    iters_to_threshold: Optional[int] = None


class _CvTracker:
    """Raw, windowed, and smoothed CV bookkeeping for one run.

    For k >= 2 the raw estimate comes from the current minibatch; for k = 1
    it comes from a trailing buffer of recent per-sample costs. Estimates are
    only computed when the roll-off policy or the cv switch needs them or a
    trace record is due, so plain runs stay cheap; the smoothing window is
    over the computed estimates, and only that window is kept.

    The k = 1 buffer is an array of twice the buffer size in which cost i is
    written at i % size and i % size + size, so the last n costs are always
    one contiguous slice in arrival order.
    """

    def __init__(self, k: int, window: int, buffer_size: int):
        self.size = buffer_size
        self.ring = np.empty(2 * buffer_size) if k < 2 else None
        self.seen = 0
        self.history: deque[Optional[float]] = deque(maxlen=window)
        self._costs: Optional[np.ndarray] = None

    def observe(self, costs: np.ndarray) -> None:
        if self.ring is not None:
            i = self.seen % self.size
            self.ring[i] = self.ring[i + self.size] = costs[0]
            self.seen += 1
        else:
            self._costs = costs

    def trailing_costs(self) -> np.ndarray:
        """The last min(seen, buffer size) costs, oldest first (k = 1)."""
        n = min(self.seen, self.size)
        start = (self.seen - n) % self.size
        return self.ring[start:start + n]

    def compute(self) -> tuple[Optional[float], Optional[float]]:
        """(raw cv, smoothed cv) for the current state; None where unavailable."""
        costs = self.trailing_costs() if self.ring is not None else self._costs
        if costs.shape[0] < 2:
            # too few costs seen yet, or a short final minibatch of a
            # shuffled epoch
            return None, smooth_cv(self.history)
        raw = estimate_cv(costs)
        self.history.append(raw)
        return raw, smooth_cv(self.history)


def _max_abs(theta: np.ndarray):
    """np.abs(theta).max(), NaN included, without max's Python-level wrapper."""
    return np.maximum.reduce(np.abs(theta))


def _run_loop(problem: Problem, theta: np.ndarray, rng: np.random.Generator,
              schedule: Optional[AlphaSchedule], n_iterations: int, *, k: int = 1,
              policy: Optional[RolloffPolicy] = None,
              secant: bool = False, switch: Optional[SwitchPolicy] = None,
              cv_every: Optional[int] = None, cv_window: int = 10, cv_buffer: int = 100,
              next_samples=None):
    """The one run loop, behind `run_experiment` and `run_hybrid`.

    With `secant`, secant steps until `switch` fires (never when it is None),
    then SGD on `schedule` with its index restarted at 1; heavy-ball momentum
    when a roll-off `policy` is given, a constant `beta` being the constant
    policy. Secant steps run on the 1-element arrays the loop holds, the same
    array code that verification uses. CV estimates are computed when
    the policy, the cv switch or every `cv_every`-th iteration needs one.
    Samples come from `next_samples()`, by default a `SampleStream` sized to
    the run. Yields (iteration, theta, samples consumed, costs, risk, cv_raw,
    cv_smoothed, alpha, beta, in_secant, diverged) per iterate; theta0 and the
    secant phase's free second point come first, as iteration 0. `in_secant`
    is the next step's phase; a diverged iterate is the last one yielded.
    """
    true_risk = problem.true_risk
    tracker = _CvTracker(k, cv_window, cv_buffer)
    policy_driven = policy is not None and policy.kind != "constant"
    cv_switch = switch is not None and switch.kind == "cv"
    v = np.zeros(problem.dim)
    samples = 0
    sgd_iter = 0

    # the switch is checked on theta0 and on the free second start point
    # before any sample is spent, so an immediate switch is a pure SGD run
    in_secant = secant and not (switch is not None and switch.fires(float(theta[0]), None))
    yield 0, theta, 0, None, None, None, None, 0.0, 0.0, in_secant, False
    if in_secant:
        start = theta
        second = float(start[0]) / 2.0 if start[0] != 0.0 else 1.0
        theta = np.array([second])
        in_secant = switch is None or not switch.fires(second, None)
        yield 0, theta, 0, None, None, None, None, 0.0, 0.0, in_secant, False
    if next_samples is None:
        # a secant phase first spends one sample on the gradient at theta0
        next_samples = SampleStream(problem, rng, k, n_iterations + int(in_secant)).draw
    if in_secant:
        init_costs, init_grad = problem.evaluate(start, next_samples())
        samples += 1
        tracker.observe(init_costs)
        prev_theta, prev_grad = start, init_grad

    for iteration in range(1, n_iterations + 1):
        costs, grad = problem.evaluate(theta, next_samples())
        samples += costs.shape[0]
        tracker.observe(costs)
        cv_due = (cv_switch if in_secant else policy_driven) or (
            cv_every is not None and iteration % cv_every == 0)
        cv_raw, cv_smoothed = tracker.compute() if cv_due else (None, None)
        if in_secant:
            alpha_i = beta_i = 0.0
            theta, prev_theta, prev_grad = step_secant(prev_theta, theta, prev_grad, grad), theta, grad
        else:
            sgd_iter += 1
            alpha_i = schedule.alpha(sgd_iter)
            if policy is not None:
                beta_i = policy.beta(cv_smoothed)
                theta, v = step_momentum(theta, v, grad, alpha_i, beta_i)
            else:
                beta_i = 0.0
                theta = step_sgd(theta, grad, alpha_i)

        # --- divergence guard, one rule for both phases ---
        # an overflowed step leaves inf or NaN in theta, and both fail <= limit;
        # the risk oracle only sees iterates within the limit, whose squares are finite
        risk = None
        diverged = not float(_max_abs(theta)) <= DIVERGENCE_LIMIT
        if true_risk is not None and not diverged:
            risk = float(true_risk(theta))
            diverged = not math.isfinite(risk)
        if in_secant and switch is not None and not diverged:
            in_secant = not switch.fires(float(theta[0]), cv_raw if cv_switch else None)
        yield (iteration, theta, samples, costs, risk, cv_raw, cv_smoothed,
               alpha_i, beta_i, in_secant, diverged)
        if diverged:
            return


# a diverging run overflows on its way out (its costs, their CV) and the guard
# reports it, so each consumer of the run loop keeps numpy quiet, once per run
@np.errstate(over="ignore", invalid="ignore")
def run_experiment(config: ExperimentConfig) -> tuple[list[TraceRecord], RunSummary]:
    """Run one seeded experiment, returning its trace records and summary.

    RNG draw order (all from one PCG64 stream seeded by config.seed):
    start direction (theta0_scale mode only), then the finite train set
    (finite mode), then per-epoch shuffles / per-iteration fresh draws.
    Fresh samples are drawn in blocks where that yields the same samples
    (rademacher, noiseless least squares; see `Problem.block_draws`) and once
    per minibatch otherwise; the draw order and the traces are the same
    either way. theta is validated once, with the config; the loop evaluates
    the problem on it directly.
    """
    problem = build_problem(config)
    rng = np.random.default_rng(config.seed)
    theta = initial_theta(config, problem, rng)
    eval_every = config.eval_every

    next_samples = None
    if config.train_size is not None:
        train_size = epoch_denom = config.train_size
        train = problem.sample(rng, train_size)

        def epoch_batches():
            for _ in range(config.epochs):
                perm = rng.permutation(train_size)
                for start in range(0, train_size, config.k):
                    yield problem.subset(train, perm[start:start + config.k])

        next_samples = epoch_batches().__next__
    else:
        epoch_denom = config.epoch_size

    has_test_set = isinstance(problem, LogisticBlobsProblem)
    min_risk = problem.min_risk if problem.min_risk is not None else 0.0
    records: list[TraceRecord] = []
    best_risk: Optional[float] = None
    final_accuracy: Optional[float] = None
    iters_to_threshold: Optional[int] = None
    last_record_epoch: Optional[int] = None

    run = _run_loop(
        problem, theta, rng, config.make_alpha_schedule(), config.total_iterations(),
        k=config.k, policy=config.make_rolloff_policy(),
        secant=config.optimizer in ("secant", "hybrid"),
        switch=config.make_switch_policy(), cv_every=eval_every,
        cv_window=config.cv_window, cv_buffer=config.cv_buffer,
        next_samples=next_samples)
    for (iteration, theta, samples_consumed, costs, risk, cv_raw, cv_smoothed,
         alpha_i, beta_i, _, diverged) in run:
        if iteration == 0 or diverged:
            continue
        record_due = iteration % eval_every == 0

        # --- tracking ---
        # add.reduce / n is what np.mean computes, without its wrappers
        mean_cost = (float(np.add.reduce(costs)) / costs.shape[0]
                     if risk is None or record_due else None)
        tracked = risk if risk is not None else mean_cost
        if best_risk is None or tracked < best_risk:
            best_risk = tracked
        if (config.risk_threshold is not None and iters_to_threshold is None
                and tracked - min_risk <= config.risk_threshold):
            iters_to_threshold = iteration

        # --- record ---
        if record_due:
            epoch = samples_consumed // epoch_denom
            est_risk = mean_cost
            accuracy = None
            if has_test_set and (last_record_epoch is None or epoch > last_record_epoch):
                est_risk, accuracy = problem.test_metrics(theta)
                final_accuracy = accuracy
            records.append(TraceRecord(
                epoch=int(epoch),
                iteration=iteration,
                true_risk=risk,
                est_risk=est_risk,
                cv_raw=cv_raw,
                cv_smoothed=cv_smoothed,
                alpha=float(alpha_i),
                beta=float(beta_i),
                accuracy=accuracy,
                # what np.linalg.norm computes for a 1-D array
                theta_norm=math.sqrt(float(theta.dot(theta))),
            ))
            last_record_epoch = epoch

    final_risk = records[-1].true_risk if records and records[-1].true_risk is not None else None
    if final_risk is None and records:
        final_risk = records[-1].est_risk
    summary = RunSummary(
        final_risk=final_risk,
        best_risk=best_risk,
        samples=samples_consumed,
        iterations=iteration,
        diverged=diverged,
        final_theta=theta,
        final_accuracy=final_accuracy,
        iters_to_threshold=iters_to_threshold,
    )
    return records, summary


@dataclass(frozen=True)
class HybridRun:
    """Every iterate visited, the cumulative sample count when it became
    current, and where (if anywhere) the SGD phase took over."""

    iterates: np.ndarray
    samples: np.ndarray
    switch_index: Optional[int]
    diverged: bool = False


@np.errstate(over="ignore", invalid="ignore")
def run_hybrid(problem: Problem, theta0: float, switch_policy: SwitchPolicy,
               sgd_schedule: AlphaSchedule, rng: np.random.Generator,
               max_iterations: int, stop_radius: Optional[float] = None) -> HybridRun:
    """Secant steps until the switch policy fires, then single-sample SGD: the
    `hybrid` optimizer's run loop, returning every iterate.

    Scalar problems only. The secant phase consumes one fresh sample per
    iteration (plus one for the gradient at theta0); the SGD phase restarts
    its schedule index at 1. The second secant start point is theta0 / 2
    (or 1.0 when theta0 == 0), so the initial bracket is wide for poor starts;
    a switch that fires on theta0 makes the run pure SGD. The cv switch
    reads the CV of the trailing 100 costs, the `cv_buffer` default. A run
    that does not diverge leaves `rng` where one draw per sample would. With
    `stop_radius` the run ends at its first iterate with |theta| <=
    stop_radius, theta0 included, and draws one sample per step, never one
    it does not use.
    """
    if problem.dim != 1:
        raise ConfigurationError("hybrid/secant runs need a scalar problem")
    if max_iterations < 0:
        raise ConfigurationError(f"max_iterations must be >= 0, got {max_iterations}")
    per_step = None if stop_radius is None else (lambda: problem.sample(rng, 1))
    log = []  # (iterate, samples consumed, in the secant phase after it)
    for _, theta, n, *_, in_secant, diverged in _run_loop(
            problem, _as_theta(theta0, problem.dim), rng, sgd_schedule, max_iterations,
            secant=True, switch=switch_policy, next_samples=per_step):
        log.append((float(theta[0]), n, in_secant))
        if stop_radius is not None and abs(log[-1][0]) <= stop_radius:
            break
    iterates, samples, phases = zip(*log)
    return HybridRun(iterates=np.array(iterates), samples=np.array(samples),
                     switch_index=next((i for i, s in enumerate(phases) if not s), None),
                     diverged=diverged)


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_trace(records: Sequence[TraceRecord], path) -> None:
    """Write records as CSV with the fixed header; floats carry 17 significant
    digits so write-then-read round-trips exactly."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(TRACE_HEADER + "\n")
            for r in records:  # a record iterates its fields in header order
                fh.write(",".join(map(_fmt, r)) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trace {path}: {exc}") from exc


def read_trace(path) -> list[TraceRecord]:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read trace {path}: {exc}") from exc
    if not lines:
        raise TraceFormatError(f"{path}: empty trace file")
    header = lines[0]
    if header != TRACE_HEADER:
        have = header.split(",")
        missing = [c for c in TRACE_HEADER.split(",") if c not in have]
        if missing:
            raise TraceFormatError(f"{path}: missing column(s) {', '.join(missing)}")
        raise TraceFormatError(f"{path}: unexpected header {header!r}")
    records = []
    opt = lambda s: None if s == "" else float(s)
    # one parser per field, in header order
    parsers = (int, int, opt, float, opt, opt, float, float, opt, float)
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 10:
            raise TraceFormatError(f"{path}:{lineno}: expected 10 fields, got {len(parts)}")
        try:
            records.append(TraceRecord(*[parse(p) for parse, p in zip(parsers, parts)]))
        except ValueError as exc:
            raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
    return records


# ---------------------------------------------------------------------------
# A/B grids over momentum and learning rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridCell:
    momentum: float
    learning_rate: float
    n_seeds: int
    n_diverged: int
    median_final_risk: Optional[float]
    median_best_risk: Optional[float]
    median_iters_to_threshold: Optional[float]


GRID_HEADER = ("momentum,learning_rate,n_seeds,n_diverged,"
               "median_final_risk,median_best_risk,median_iters_to_threshold")


def run_grid(base: ExperimentConfig, momenta: Sequence[float],
             learning_rates: Sequence[float], seeds: Sequence[int],
             out_dir) -> list[GridCell]:
    """Cartesian product of (momentum, learning_rate) x seeds.

    Each run is the base config with optimizer=momentum, constant schedules,
    and the given seed; one trace file per run, named by the `:g` forms of its
    momentum and rate and by its seed, plus a summary CSV of per-cell medians
    over seeds. Every run's config is built, and so checked, before the first
    run, and axis values that would share a trace name are rejected. Diverged
    runs are counted and excluded from medians; the grid keeps going.
    """
    if not momenta or not learning_rates or not seeds:
        raise ConfigurationError("grid axes and seeds must be non-empty")
    runs = [(mom, lr, [replace(base, optimizer="momentum", beta=mom, beta_policy=None,
                               alpha=lr, alpha_schedule="constant", seed=seed)
                       for seed in seeds])
            for mom in momenta for lr in learning_rates]
    for axis, labels in (("momenta", [f"{m:g}" for m in momenta]),
                         ("learning rates", [f"{lr:g}" for lr in learning_rates]),
                         ("seeds", [cfg.seed for cfg in runs[0][2]])):
        if len(set(labels)) < len(labels):
            raise ConfigurationError(f"grid {axis} {labels} would share trace file names")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    for mom, lr, configs in runs:
        finals, bests, reach, n_div = [], [], [], 0
        for cfg in configs:
            records, summary = run_experiment(cfg)
            write_trace(records, out_dir / f"trace_mom{mom:g}_lr{lr:g}_seed{cfg.seed}.csv")
            if summary.diverged:
                n_div += 1
                continue
            if summary.final_risk is not None:
                finals.append(summary.final_risk)
            if summary.best_risk is not None:
                bests.append(summary.best_risk)
            if summary.iters_to_threshold is not None:
                reach.append(summary.iters_to_threshold)
        med = lambda xs: float(np.median(xs)) if xs else None
        cells.append(GridCell(
            momentum=float(mom), learning_rate=float(lr),
            n_seeds=len(seeds), n_diverged=n_div,
            median_final_risk=med(finals), median_best_risk=med(bests),
            median_iters_to_threshold=med(reach),
        ))
    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(GRID_HEADER + "\n")
        for c in cells:
            fh.write(",".join([
                _fmt(c.momentum), _fmt(c.learning_rate), _fmt(c.n_seeds),
                _fmt(c.n_diverged), _fmt(c.median_final_risk),
                _fmt(c.median_best_risk), _fmt(c.median_iters_to_threshold),
            ]) + "\n")
    return cells
