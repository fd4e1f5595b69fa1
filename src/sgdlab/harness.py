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
from typing import Optional, Sequence

import numpy as np
import yaml

from .diagnostics import CvEstimate, RolloffPolicy, estimate_cv, smooth_cv
from .errors import ConfigurationError, InsufficientDataError, TraceFormatError
from .optimizers import (AlphaSchedule, MomentumState, SecantState, StepSettings,
                         SwitchPolicy, DIVERGENCE_LIMIT, step_momentum, step_secant,
                         step_sgd)
from .problems import (LeastSquaresProblem, LogisticBlobsProblem, Minibatch,
                       Problem, RademacherProblem)
# The run loop calls Problem.evaluate; these stay bound here because
# perfbench's tracer wraps them at this module.
from .problems import draw_minibatch, evaluate_minibatch  # noqa: F401

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

    _INT_KEYS = ("dim", "n_classes", "test_per_class", "problem_seed", "k",
                 "cv_window", "cv_buffer", "epochs", "epoch_size", "eval_every",
                 "seed", "train_size")
    _FLOAT_KEYS = ("condition_number", "noise_std", "separation", "theta0_scale",
                   "alpha", "beta", "beta_max", "cv_low", "cv_high",
                   "switch_threshold", "risk_threshold")

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config must be a mapping, got {type(raw).__name__}")
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
        coerced = dict(raw)
        try:
            for key in ExperimentConfig._INT_KEYS:
                if coerced.get(key) is not None:
                    coerced[key] = int(coerced[key])
            for key in ExperimentConfig._FLOAT_KEYS:
                if coerced.get(key) is not None:
                    coerced[key] = float(coerced[key])
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad value for config key {key!r}: {exc}") from exc
        config = ExperimentConfig(**coerced)
        config.validate()
        return config

    def validate(self) -> None:
        if self.problem not in PROBLEM_NAMES:
            raise ConfigurationError(
                f"unknown problem {self.problem!r}; expected one of {PROBLEM_NAMES}")
        if self.optimizer not in OPTIMIZER_NAMES:
            raise ConfigurationError(
                f"unknown optimizer {self.optimizer!r}; expected one of {OPTIMIZER_NAMES}")
        for name in ("k", "epochs", "eval_every", "epoch_size", "cv_window"):
            if int(getattr(self, name)) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.cv_buffer < 2:
            raise ConfigurationError(f"cv_buffer must be >= 2, got {self.cv_buffer}")
        if self.train_size is not None and int(self.train_size) < 1:
            raise ConfigurationError(f"train_size must be >= 1, got {self.train_size}")
        if (self.theta0 is None) == (self.theta0_scale is None):
            raise ConfigurationError("exactly one of theta0 / theta0_scale is required")
        if self.theta0 is not None:
            self.theta0_values()
        for name in self._FLOAT_KEYS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")

        if self.optimizer in ("sgd", "momentum", "hybrid"):
            if self.alpha is None or not float(self.alpha) > 0.0:
                raise ConfigurationError(
                    f"optimizer {self.optimizer!r} needs a positive alpha")
        if self.optimizer == "sgd" and (self.beta or self.beta_policy):
            raise ConfigurationError(
                "sgd takes no momentum settings; use optimizer: momentum")
        if self.optimizer == "momentum":
            if self.beta is None and self.beta_policy is None:
                raise ConfigurationError("momentum needs 'beta' or 'beta_policy'")
            if self.beta is not None and self.beta_policy is not None:
                raise ConfigurationError("give either 'beta' or 'beta_policy', not both")
            if self.beta is not None and not 0.0 <= float(self.beta) < 1.0:
                raise ConfigurationError(f"beta must be in [0, 1), got {self.beta}")
        if self.optimizer in ("secant", "hybrid"):
            if self.problem != "rademacher" and self.dim != 1:
                raise ConfigurationError(
                    "secant/hybrid need a scalar problem (dim 1)")
            if self.k != 1:
                raise ConfigurationError("secant/hybrid consume one sample per "
                                         f"iteration; k must be 1, got {self.k}")
            if self.train_size is not None:
                raise ConfigurationError(
                    "secant/hybrid draw fresh samples; train_size is not supported")
        # constructing these validates their own fields
        self.make_alpha_schedule()
        self.make_rolloff_policy()
        if self.optimizer == "hybrid":
            SwitchPolicy(kind=self.switch_kind, threshold=float(self.switch_threshold))

    def theta0_values(self) -> np.ndarray:
        """theta0 as a flat float array (one entry broadcasts to every dim)."""
        try:
            values = np.asarray(self.theta0, dtype=float).reshape(-1)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"theta0 must be a number or a list of numbers, got {self.theta0!r}") from exc
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("theta0 has non-finite entries")
        return values

    def make_alpha_schedule(self) -> Optional[AlphaSchedule]:
        if self.alpha is None:
            return None
        return AlphaSchedule(kind=self.alpha_schedule, value=float(self.alpha))

    def make_rolloff_policy(self) -> Optional[RolloffPolicy]:
        if self.beta_policy is None:
            return None
        return RolloffPolicy(kind=self.beta_policy, beta_max=float(self.beta_max),
                             cv_low=float(self.cv_low), cv_high=float(self.cv_high))


def load_config(path) -> ExperimentConfig:
    """Parse a flat YAML mapping into a validated ExperimentConfig."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
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
        arr = config.theta0_values()
        if arr.shape[0] == 1:
            arr = np.full(problem.dim, arr[0])
        if arr.shape[0] != problem.dim:
            raise ConfigurationError(
                f"theta0 has {arr.shape[0]} entries, problem needs {problem.dim}")
        return arr
    direction = rng.standard_normal(problem.dim)
    return float(config.theta0_scale) * direction / np.linalg.norm(direction)


@dataclass(frozen=True)
class TraceRecord:
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
    only computed when the roll-off policy needs them or a trace record is
    due, so plain runs stay cheap; the smoothing window is over the computed
    estimates, and only that window is kept.
    """

    def __init__(self, k: int, window: int, buffer_size: int):
        self.k = k
        self.window = window
        self.buffer = deque(maxlen=buffer_size) if k < 2 else None
        self.history: deque[CvEstimate] = deque(maxlen=window)
        self._costs: Optional[np.ndarray] = None

    def observe(self, costs: np.ndarray) -> None:
        if self.buffer is not None:
            self.buffer.extend(costs.tolist())
        else:
            self._costs = costs

    def compute(self) -> tuple[Optional[float], Optional[float]]:
        """(raw cv, smoothed cv) for the current state; None where unavailable."""
        if self.buffer is not None:
            if len(self.buffer) < 2:
                return None, self._smoothed()
            est = estimate_cv(np.array(self.buffer))
        elif self._costs.shape[0] < 2:
            # short final minibatch of a shuffled epoch
            return None, self._smoothed()
        else:
            est = estimate_cv(self._costs)
        self.history.append(est)
        raw = est.cv if est.valid else None
        return raw, self._smoothed()

    def _smoothed(self) -> Optional[float]:
        try:
            return smooth_cv(self.history, self.window)
        except InsufficientDataError:
            return None


# Most sample coordinates (k * dim per minibatch) one block draw may hold, so
# a run's memory stays flat in dim.
BLOCK_COORDINATES = 2 ** 16


class _SampleStream:
    """A run's fresh minibatches of k samples, in the run's RNG draw order.

    Where `problem.block_draws` holds, one `sample` call draws a block of
    minibatches and each is taken from it in turn: at most BLOCK_COORDINATES
    coordinates, and never more minibatches than the run still needs. Other
    problems draw once per minibatch. Both give the same samples.
    """

    def __init__(self, problem: Problem, rng: np.random.Generator, k: int,
                 n_batches: int):
        self.problem, self.rng, self.k = problem, rng, k
        self.batches_left = n_batches
        self.per_block = (max(1, BLOCK_COORDINATES // (k * problem.dim))
                          if problem.block_draws else 1)
        self.block = None
        self.start = self.stop = 0

    def draw(self):
        if self.per_block == 1:
            return self.problem.sample(self.rng, self.k)
        if self.start == self.stop:
            n = min(self.per_block, self.batches_left)
            self.batches_left -= n
            self.block = self.problem.sample(self.rng, n * self.k)
            self.start, self.stop = 0, n * self.k
        start = self.start
        self.start += self.k
        return self.problem.take(self.block, start, self.start)


def run_experiment(config: ExperimentConfig) -> tuple[list[TraceRecord], RunSummary]:
    """Run one seeded experiment, returning its trace records and summary.

    RNG draw order (all from one PCG64 stream seeded by config.seed):
    start direction (theta0_scale mode only), then the finite train set
    (finite mode), then per-epoch shuffles / per-iteration fresh draws.
    Fresh samples are drawn in blocks where that yields the same samples
    (rademacher, noiseless least squares; see `Problem.block_draws`) and once
    per minibatch otherwise; the draw order and the traces are the same
    either way. theta is validated once, on entry (`initial_theta`,
    `SecantState`); the loop evaluates the problem on it directly.
    """
    config.validate()
    problem = build_problem(config)
    if config.optimizer in ("secant", "hybrid") and problem.dim != 1:
        raise ConfigurationError("secant/hybrid need a scalar problem")
    rng = np.random.default_rng(config.seed)
    theta = initial_theta(config, problem, rng)

    alpha_sched = config.make_alpha_schedule()
    policy = config.make_rolloff_policy()
    policy_driven = policy is not None and policy.kind != "constant"
    momentum = config.optimizer == "momentum"
    k = int(config.k)
    eval_every = int(config.eval_every)

    finite = config.train_size is not None
    if finite:
        train_size = int(config.train_size)
        train = problem.sample(rng, train_size)
        batches_per_epoch = math.ceil(train_size / k)
        total_iterations = int(config.epochs) * batches_per_epoch
        epoch_denom = train_size
    else:
        total_iterations = math.ceil(int(config.epochs) * int(config.epoch_size) / k)
        epoch_denom = int(config.epoch_size)

    has_test_set = isinstance(problem, LogisticBlobsProblem)
    evaluate = problem.evaluate
    oracle_risk = problem.oracle.true_risk
    min_risk = problem.oracle.min_risk if problem.oracle.min_risk is not None else 0.0

    tracker = _CvTracker(k, int(config.cv_window), int(config.cv_buffer))
    mom_state = MomentumState.initial(problem.dim)
    records: list[TraceRecord] = []
    samples_consumed = 0
    diverged = False
    best_risk: Optional[float] = None
    final_accuracy: Optional[float] = None
    iters_to_threshold: Optional[int] = None
    last_record_epoch: Optional[int] = None
    sgd_iter = 0  # schedule index; restarts when hybrid leaves the secant phase

    # secant bookkeeping; init mirrors optimizers.run_hybrid: the switch is
    # checked on theta0 and on the free second start point before any sample
    # is spent, so an immediate switch reproduces a pure SGD run exactly.
    in_secant = config.optimizer in ("secant", "hybrid")
    switch = (SwitchPolicy(kind=config.switch_kind, threshold=float(config.switch_threshold))
              if config.optimizer == "hybrid" else None)
    cv_switch = switch is not None and switch.kind == "cv"
    secant_state: Optional[SecantState] = None
    if in_secant:
        current = float(theta[0])
        if switch is not None and switch.fires(current, None):
            in_secant = False
        else:
            second = current / 2.0 if current != 0.0 else 1.0
            theta = np.array([second])
            if switch is not None and switch.fires(second, None):
                in_secant = False

    # a secant phase first spends one sample on the gradient at theta0
    stream = (None if finite
              else _SampleStream(problem, rng, k, total_iterations + int(in_secant)))
    if in_secant:
        init_costs, init_grad = evaluate(np.array([current]), stream.draw())
        samples_consumed += 1
        tracker.observe(init_costs)
        secant_state = SecantState(theta_prev2=current, theta_prev1=second,
                                   grad_prev2=float(init_grad[0]))

    def epoch_batches():
        for _ in range(int(config.epochs)):
            perm = rng.permutation(train_size)
            for start in range(0, train_size, k):
                yield problem.subset(train, perm[start:start + k])

    next_samples = epoch_batches().__next__ if finite else stream.draw

    for iteration in range(1, total_iterations + 1):
        record_due = iteration % eval_every == 0
        # --- step ---
        if in_secant:
            # theta is [secant_state.theta_prev1]
            costs, grad = evaluate(theta, next_samples())
            samples_consumed += 1
            theta_scalar, secant_state = step_secant(secant_state, float(grad[0]))
            theta = np.array([theta_scalar])
            alpha_i, beta_i = 0.0, 0.0
            tracker.observe(costs)
            cv_raw, cv_smoothed = (tracker.compute() if cv_switch or record_due
                                   else (None, None))
        else:
            samples = next_samples()
            costs, grad = evaluate(theta, samples)
            batch = Minibatch(samples=samples, costs=costs, mean_gradient=grad)
            samples_consumed += costs.shape[0]
            tracker.observe(costs)
            cv_raw, cv_smoothed = (tracker.compute() if policy_driven or record_due
                                   else (None, None))
            sgd_iter += 1
            alpha_i = alpha_sched.alpha(sgd_iter)
            if momentum:
                beta_i = (policy.beta(cv_smoothed) if policy is not None
                          else float(config.beta))
                theta, mom_state = step_momentum(
                    theta, mom_state, batch, StepSettings(alpha_i, beta_i))
            else:
                beta_i = 0.0
                theta = step_sgd(theta, batch, alpha_i)

        # --- divergence guard ---
        # the max is NaN when theta holds one, and NaN <= limit is False
        risk = float(oracle_risk(theta)) if oracle_risk is not None else None
        if not (float(np.abs(theta).max()) <= DIVERGENCE_LIMIT
                and (risk is None or math.isfinite(risk))):
            diverged = True
            break

        # --- hybrid switch ---
        if in_secant and switch is not None:
            cv_for_switch = cv_raw if cv_switch else None
            if switch.fires(float(theta[0]), cv_for_switch):
                in_secant = False

        # --- tracking ---
        tracked = risk if risk is not None else float(np.mean(costs))
        if best_risk is None or tracked < best_risk:
            best_risk = tracked
        if (config.risk_threshold is not None and iters_to_threshold is None
                and tracked - min_risk <= float(config.risk_threshold)):
            iters_to_threshold = iteration

        # --- record ---
        if record_due:
            epoch = samples_consumed // epoch_denom
            est_risk = float(np.mean(costs))
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
                theta_norm=float(np.linalg.norm(theta)),
            ))
            last_record_epoch = epoch

    final_risk = records[-1].true_risk if records and records[-1].true_risk is not None else None
    if final_risk is None and records:
        final_risk = records[-1].est_risk
    summary = RunSummary(
        final_risk=final_risk,
        best_risk=best_risk,
        samples=samples_consumed,
        iterations=iteration if total_iterations else 0,
        diverged=diverged,
        final_theta=theta,
        final_accuracy=final_accuracy,
        iters_to_threshold=iters_to_threshold,
    )
    return records, summary


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
            for r in records:
                fh.write(",".join([
                    _fmt(r.epoch), _fmt(r.iteration), _fmt(r.true_risk),
                    _fmt(r.est_risk), _fmt(r.cv_raw), _fmt(r.cv_smoothed),
                    _fmt(r.alpha), _fmt(r.beta), _fmt(r.accuracy),
                    _fmt(r.theta_norm),
                ]) + "\n")
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
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 10:
            raise TraceFormatError(f"{path}:{lineno}: expected 10 fields, got {len(parts)}")
        opt = lambda s: None if s == "" else float(s)
        records.append(TraceRecord(
            epoch=int(parts[0]), iteration=int(parts[1]),
            true_risk=opt(parts[2]), est_risk=float(parts[3]),
            cv_raw=opt(parts[4]), cv_smoothed=opt(parts[5]),
            alpha=float(parts[6]), beta=float(parts[7]),
            accuracy=opt(parts[8]), theta_norm=float(parts[9]),
        ))
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
    and the given seed; one trace file per run plus a summary CSV of per-cell
    medians over seeds. Diverged runs are counted and excluded from medians;
    the grid keeps going.
    """
    if not momenta or not learning_rates or not seeds:
        raise ConfigurationError("grid axes and seeds must be non-empty")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    for mom in momenta:
        for lr in learning_rates:
            finals, bests, reach, n_div = [], [], [], 0
            for seed in seeds:
                cfg = replace(base, optimizer="momentum", beta=float(mom),
                              beta_policy=None, alpha=float(lr),
                              alpha_schedule="constant", seed=int(seed))
                records, summary = run_experiment(cfg)
                write_trace(records, out_dir / f"trace_mom{mom:g}_lr{lr:g}_seed{seed}.csv")
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
