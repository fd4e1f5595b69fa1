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
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np
import yaml

from .diagnostics import RolloffPolicy, estimate_cv, smooth_cv
from .errors import ConfigurationError, TraceFormatError
from .optimizers import AlphaSchedule, SwitchPolicy, step_momentum, step_secant, step_sgd
from .problems import (BOUNDS, LeastSquaresProblem, LogisticBlobsProblem, Problem,
                       RademacherProblem, check_bounds, minibatches, too_large)
# The run loop calls Problem.evaluate; these stay bound here because
# perfbench's tracer wraps them at this module.
from .problems import draw_minibatch, evaluate_minibatch  # noqa: F401

DIVERGENCE_LIMIT = 1e12  # |theta| beyond this is reported as a run failure

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
            except (TypeError, ValueError, OverflowError) as exc:  # 10**400 overflows float()
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
        unknown = sorted(map(str, set(raw) - known))  # YAML keys need not be strings
        if unknown:
            raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
        return ExperimentConfig(**raw)

    def validate(self) -> None:
        """Raise ConfigurationError for any invalid key, building nothing: every
        problem's keys meet `BOUNDS` whatever the problem, and `problem_size`
        gives the parameter count and a too-large build's numpy error."""
        if self.problem not in PROBLEM_NAMES:
            raise ConfigurationError(
                f"unknown problem {self.problem!r}; expected one of {PROBLEM_NAMES}")
        if self.optimizer not in OPTIMIZER_NAMES:
            raise ConfigurationError(
                f"unknown optimizer {self.optimizer!r}; expected one of {OPTIMIZER_NAMES}")
        check_bounds(**{key: getattr(self, key) for key in BOUNDS})
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
        elif self.alpha is not None:
            raise ConfigurationError("secant takes no learning rate; use optimizer: hybrid")
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
        self.run_parts()  # checks the keys of the parts the optimizer ignores too
        dim, largest = problem_size(self)
        with too_large(f"{self.problem} problem is too large to build"):
            np.empty(largest)  # numpy's size errors, and no page is touched
        if self.optimizer in ("secant", "hybrid") and dim != 1:
            raise ConfigurationError(f"secant/hybrid need a scalar problem, got dim {dim}")
        if self.theta0 is not None:
            n = self.theta0_values().shape[0]
            if n not in (1, dim):
                raise ConfigurationError(f"theta0 has {n} entries, problem needs {dim}")

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
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(  # not its repr: a 4,301-digit int has none
                f"theta0 must be a number or a list of numbers: {exc}") from exc
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("theta0 has non-finite entries")
        return values

    def run_parts(self) -> tuple[Optional[AlphaSchedule], Optional[RolloffPolicy],
                                 Optional[SwitchPolicy]]:
        """(alpha schedule, roll-off policy, switch policy), None for a part the
        optimizer does not take. All three are built, so their keys are checked
        (a missing alpha at a placeholder value); a constant `beta` is the
        constant roll-off policy at `beta_max = beta`: one momentum source."""
        schedule = AlphaSchedule(self.alpha_schedule, 1.0 if self.alpha is None else self.alpha)
        policy = RolloffPolicy("constant" if self.beta_policy is None else self.beta_policy,
                               self.beta_max, self.cv_low, self.cv_high)
        if self.beta is not None:
            policy = replace(policy, beta_max=self.beta)
        switch = SwitchPolicy(self.switch_kind, self.switch_threshold)
        return (None if self.alpha is None else schedule,
                policy if self.optimizer == "momentum" else None,
                switch if self.optimizer == "hybrid" else None)


def load_config(path) -> ExperimentConfig:
    """Parse a flat YAML mapping into a validated ExperimentConfig; a repeated
    top-level key, which YAML forbids and PyYAML lets the last one win, is an error."""
    with open(path, "rb") as fh:  # PyYAML decodes: undecodable text is a YAMLError
        try:
            # what yaml.safe_load runs, keeping the node; it reads a first chunk
            loader = yaml.SafeLoader(fh)
            node = loader.get_single_node()
            # the keys as written, before building the mapping folds in `<<` merges
            pairs = node.value if isinstance(node, yaml.MappingNode) else []
            keys = [loader.construct_object(key) for key, _ in pairs
                    if key.tag != "tag:yaml.org,2002:merge"]
            raw = None if node is None else loader.construct_document(node)
        # PyYAML's int() and date constructors raise ValueError (4301+ digits, month 13)
        except (yaml.YAMLError, ValueError) as exc:
            raise ConfigurationError(f"{path}: invalid YAML: {exc}") from exc
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ConfigurationError(f"{path}: config key {key!r} is given more than once")
    if raw is None:
        raise ConfigurationError(f"empty config file: {path}")
    return ExperimentConfig.from_dict(raw)


def build_problem(config: ExperimentConfig) -> Problem:
    """The config's problem; one too large for numpy to build is a config error."""
    with too_large(f"{config.problem} problem is too large to build"):
        if config.problem == "rademacher":
            return RademacherProblem()
        if config.problem == "least_squares":
            return LeastSquaresProblem(config.dim, config.condition_number,
                                       config.noise_std, config.problem_seed)
        return LogisticBlobsProblem(config.dim, config.n_classes, config.separation,
                                    config.problem_seed, config.test_per_class)


def problem_size(config: ExperimentConfig) -> tuple[int, tuple]:
    """(parameter count, shape of the largest array) of build_problem(config),
    in closed form: the held-out set is logistic's largest array."""
    d, n = config.dim, config.n_classes
    return {"rademacher": (1, ()), "least_squares": (d, (d,)),
            "logistic": (n * (d + 1), (n * config.test_per_class, d))}[config.problem]


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

    @property
    def risk(self) -> float:
        """true_risk where the record carries it, est_risk otherwise."""
        return self.true_risk if self.true_risk is not None else self.est_risk


TRACE_HEADER = ",".join(TraceRecord._fields)


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
    one contiguous slice in arrival order, written through a memoryview (the
    same 8 bytes at half numpy's per-item cost). A run binds `push` (k = 1) or
    `observe` once; bound on the tracker, the choice would be a reference
    cycle that holds each run's ring until a garbage collection.
    """

    def __init__(self, k: int, window: int, buffer_size: int):
        self.size = buffer_size
        with too_large(f"cv_buffer = {buffer_size} is too large to hold"):
            self.ring = np.empty(2 * buffer_size) if k < 2 else None
        self.seen = 0
        with too_large(f"cv_window = {window} is too large to hold"):
            self.history: deque[Optional[float]] = deque(maxlen=window)
        self._costs: Optional[np.ndarray] = None
        self._cells = memoryview(self.ring) if k < 2 else None

    def observe(self, costs) -> None:
        """Take a minibatch's costs (k >= 2)."""
        self._costs = costs

    def push(self, cost) -> None:
        """Take one cost into the ring (k = 1): a float where a float iterate
        met a float sample, a (1,) array otherwise."""
        i, cells = self.seen % self.size, self._cells
        cells[i] = cells[i + self.size] = cost if cost.__class__ is float else cost[0]
        self.seen += 1

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


def _magnitude(theta: np.ndarray) -> float:
    """The largest |entry| of an array iterate (`abs` serves a float one);
    NaN where theta holds a NaN, which fails the guard's `<=` as inf does."""
    return float(np.abs(theta).max())


def _run_loop(config: ExperimentConfig, problem: Problem, rng: np.random.Generator,
              every_iterate: bool = False):
    """The one run loop: `config`'s run on `problem`, drawing from `rng`.

    It takes the run's parts, length and start point from the config (the
    start direction is the first draw in `theta0_scale` mode). `secant` and
    `hybrid` run secant steps until the switch fires (a `secant` run's never
    does), then SGD with the schedule's index restarted at 1; heavy-ball
    momentum runs on the config's roll-off policy, a constant `beta` being the
    constant policy. A `float_iterate` problem's iterate is a Python float;
    other problems keep their array, whatever its size. The secant phase
    still steps through the one array `step_secant`, the code verification
    uses, and a float iterate takes `float()` of its 0-d result. Samples come
    from `minibatches` sized to the run, over the finite train set where the
    config has one. What each iteration calls is bound once per run; the
    steps and CV functions are looked up in this module on each call, where
    perfbench's tracer wraps them.

    The loop reduces: it keeps the best true risk (inf while there is none)
    and the first iteration whose gap to `problem.min_risk` is within
    `risk_threshold`. It yields (iteration, theta, samples consumed, costs,
    risk, cv_raw, cv_smoothed, alpha, beta, best risk, threshold iteration,
    diverged): by default only every `eval_every`-th iterate, with a CV
    estimate, the last one and a diverged one; with `every_iterate`, every
    iterate, theta0 and the secant phase's free second point first, as
    iteration 0. The policy and the cv switch compute the CV estimates they
    need. A secant step yields alpha 0; a diverged iterate is last.
    """
    schedule, policy, switch = config.run_parts()
    n_iterations, k, eval_every = config.total_iterations(), config.k, config.eval_every
    theta = initial_theta(config, problem, rng)
    true_risk, min_risk = problem.true_risk, problem.min_risk or 0.0
    tracker = _CvTracker(k, config.cv_window, config.cv_buffer)
    policy_driven = policy is not None and policy.kind != "constant"
    cv_switch = switch is not None and switch.kind == "cv"
    as_float = problem.float_iterate
    if as_float:
        theta = float(theta[0])
    evaluate, alpha = problem.evaluate, schedule and schedule.alpha
    observe = tracker.push if k < 2 else tracker.observe
    magnitude, limit, isfinite = abs if as_float else _magnitude, DIVERGENCE_LIMIT, math.isfinite
    risk_threshold, best, reach = config.risk_threshold, math.inf, None
    v = 0.0  # beta * 0.0 + g is 0.0 + g, as it was with a zero array
    samples = sgd_iter = 0

    # the switch is checked on theta0 and on the free second start point
    # before any sample is spent, so an immediate switch is a pure SGD run
    in_secant = config.optimizer in ("secant", "hybrid") and not (
        switch is not None and switch.fires(theta, None))
    if every_iterate:
        yield 0, theta, 0, None, None, None, None, 0.0, 0.0, best, None, False
    if in_secant:
        start = theta
        theta = start / 2.0 if start != 0.0 else (1.0 if as_float else np.ones(1))
        in_secant = switch is None or not switch.fires(theta, None)
        if every_iterate:
            yield 0, theta, 0, None, None, None, None, 0.0, 0.0, best, None, False
    # a secant phase first spends one sample on the gradient at theta0
    next_samples = minibatches(problem, rng, k, n_iterations + int(in_secant),
                               config.train_size).__next__
    if in_secant:
        init_costs, init_grad = evaluate(start, next_samples())
        samples += 1
        observe(init_costs)
        prev_theta, prev_grad = start, init_grad

    for iteration in range(1, n_iterations + 1):
        costs, grad = evaluate(theta, next_samples())
        samples += 1 if costs.__class__ is float else costs.shape[0]
        observe(costs)
        due = not every_iterate and iteration % eval_every == 0
        cv_raw, cv_smoothed = (tracker.compute() if due or (
            cv_switch if in_secant else policy_driven) else (None, None))
        if in_secant:
            alpha_i = beta_i = 0.0
            step = step_secant(prev_theta, theta, prev_grad, grad)
            theta, prev_theta, prev_grad = float(step) if as_float else step, theta, grad
        else:
            sgd_iter += 1
            alpha_i = alpha(sgd_iter)
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
        diverged = not magnitude(theta) <= limit
        if true_risk is not None and not diverged:
            risk = true_risk(theta)
            diverged = not isfinite(risk)
            # a first gap within the threshold is a new best: x - min_risk is monotone
            if risk < best:
                best = risk
                if (reach is None and risk_threshold is not None
                        and risk - min_risk <= risk_threshold):
                    reach = iteration
        if in_secant and switch is not None and not diverged:
            in_secant = not switch.fires(theta, cv_raw if cv_switch else None)
        if due or diverged or every_iterate or iteration == n_iterations:
            yield (iteration, theta, samples, costs, risk, cv_raw, cv_smoothed,
                   alpha_i, beta_i, best, reach, diverged)
            if diverged:
                return


# a diverging run overflows on its way out (its costs, their CV) and the guard
# reports it, so each consumer of the run loop keeps numpy quiet, once per run
@np.errstate(over="ignore", invalid="ignore")
def run_experiment(config: ExperimentConfig) -> tuple[list[TraceRecord], RunSummary]:
    """Run one seeded experiment, returning its trace records and summary.

    RNG draw order (all from one PCG64 stream seeded by config.seed): start
    direction (theta0_scale mode only), then the samples, all drawn in
    `problems.minibatches`: the finite train set and per-epoch shuffles
    (finite mode), or per-iteration fresh draws. theta is validated once,
    with the config. Where `problem.test_metrics` is declared, the first
    record of each epoch carries the held-out cost and accuracy.
    """
    problem = build_problem(config)
    eval_every, test_metrics = config.eval_every, problem.test_metrics
    epoch_denom = config.epoch_size if config.train_size is None else config.train_size
    records: list[TraceRecord] = []
    last_record_epoch = -1  # epochs count from 0

    run = _run_loop(config, problem, np.random.default_rng(config.seed))
    for (iteration, theta, samples_consumed, costs, risk, cv_raw, cv_smoothed,
         alpha_i, beta_i, best_risk, iters_to_threshold, diverged) in run:
        if diverged or iteration % eval_every:  # the last iterate is not always a record
            continue
        epoch = samples_consumed // epoch_denom
        # add.reduce / n is what np.mean computes, without its wrappers
        est_risk = (costs if isinstance(costs, float)
                    else float(np.add.reduce(costs)) / costs.shape[0])
        accuracy = None
        if test_metrics is not None and epoch > last_record_epoch:
            est_risk, accuracy = test_metrics(theta)
        if diverged := not math.isfinite(est_risk):  # its costs overflowed: no record
            break
        records.append(TraceRecord(  # positional: keywords cost twice as much
            int(epoch), iteration, risk, est_risk, cv_raw, cv_smoothed,
            float(alpha_i), float(beta_i), accuracy,
            # theta_norm: what np.linalg.norm computes for a 1-D array,
            # whose dot of one entry is its square
            math.sqrt(theta * theta if isinstance(theta, float)
                      else float(theta.dot(theta)))))
        last_record_epoch = epoch

    held_out = [r for r in records if r.accuracy is not None]
    if problem.true_risk is None:  # the held-out cost, at the records that evaluate it
        best_risk = min((r.est_risk for r in held_out), default=math.inf)
        iters_to_threshold = next(
            (r.iteration for r in held_out if config.risk_threshold is not None
             and r.est_risk - (problem.min_risk or 0.0) <= config.risk_threshold), None)
    summary = RunSummary(
        final_risk=records[-1].risk if records else None,
        best_risk=best_risk if best_risk < math.inf else None,
        samples=samples_consumed,
        iterations=iteration,
        diverged=diverged,
        final_theta=np.atleast_1d(theta),
        final_accuracy=held_out[-1].accuracy if held_out else None,
        iters_to_threshold=iters_to_threshold,
    )
    return records, summary


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)  # a trace holds a few type patterns
def _row_template(types: tuple) -> str:
    """`%` template of a CSV line with fields of these types: None prints
    nothing (`%.0s`), an int its digits, anything else 17 significant digits."""
    return ",".join("%.0s" if t is type(None) else "%d" if issubclass(t, (int, np.integer))
                    else "%.17g" for t in types) + "\n"


def _csv_line(row: tuple) -> str:
    """A trace record or grid cell as one CSV line, its fields in header order."""
    return _row_template(tuple(map(type, row))) % row


def write_trace(records: Sequence[TraceRecord], path) -> None:
    """Write records as CSV with the fixed header; floats carry 17 significant
    digits so write-then-read round-trips exactly."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(TRACE_HEADER + "\n")
            fh.writelines(map(_csv_line, records))
    except OSError as exc:
        raise OSError(f"cannot write trace {path}: {exc}") from exc


def read_trace(path) -> list[TraceRecord]:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read trace {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8 text: {exc}") from exc
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

    def num(s: str) -> float:  # sgdlab never writes a non-finite value
        if math.isfinite(x := float(s)):
            return x
        raise ValueError(f"non-finite value {s!r}")
    opt = lambda s: None if s == "" else num(s)
    # one parser per field, in header order
    parsers = (int, int, opt, num, opt, opt, num, num, opt, num)
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

class GridCell(NamedTuple):
    momentum: float
    learning_rate: float
    n_seeds: int
    n_diverged: int
    median_final_risk: Optional[float]
    median_best_risk: Optional[float]
    median_iters_to_threshold: Optional[float]


GRID_HEADER = ",".join(GridCell._fields)


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
    cells = []
    for mom, lr, configs in runs:
        finals, bests, reach, n_div = [], [], [], 0
        for cfg in configs:
            records, summary = run_experiment(cfg)
            out_dir.mkdir(parents=True, exist_ok=True)  # a failed first run leaves none
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
        fh.writelines(map(_csv_line, cells))
    return cells
