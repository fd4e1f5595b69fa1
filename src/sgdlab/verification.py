"""Brute-force and Monte Carlo oracles for the analytically known claims.

Each check compares an empirical statistic against a closed form with an
explicit tolerance (a 3-4 sigma band where the statistic is random), under a
fixed master seed so reports are deterministic. The scalar quadratic problem's
secant algebra is cross-checked against its explicit closed-form update, which
is kept here as an oracle and never used as the implementation path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .harness import run_hybrid
from .optimizers import AlphaSchedule, SwitchPolicy, step_secant
from .problems import RademacherProblem

DEFAULT_SEED = 20240817

# Long-run secant trials stepped together; bounds the draws held at once.
LONG_RUN_BLOCK = 128


def claim_passes(statistic: float, expected: float, tolerance: float,
                 comparison: str) -> bool:
    """Pure pass/fail rule: 'within' |s-e|<=t, 'at_least' s>=e-t, 'below' s<e-t."""
    if comparison == "within":
        return abs(statistic - expected) <= tolerance
    if comparison == "at_least":
        return statistic >= expected - tolerance
    if comparison == "below":
        return statistic < expected - tolerance
    raise ValueError(f"unknown comparison {comparison!r}")


@dataclass(frozen=True)
class OracleReport:
    claim_id: str
    statistic: float
    expected: float
    tolerance: float
    comparison: str
    n: int
    passed: bool
    note: str = ""

    @staticmethod
    def make(claim_id: str, statistic: float, expected: float, tolerance: float,
             comparison: str, n: int, note: str = "") -> "OracleReport":
        return OracleReport(
            claim_id=claim_id, statistic=float(statistic), expected=float(expected),
            tolerance=float(tolerance), comparison=comparison, n=int(n),
            passed=claim_passes(float(statistic), float(expected),
                                float(tolerance), comparison),
            note=note,
        )


def explicit_secant_update(theta_prev2, theta_prev1, x_prev2, x_prev1):
    """Closed-form secant update for the scalar quadratic cost (theta - x)^2:

        (t1*x2 - t2*x1) / (t1 - x1 - t2 + x2)

    with the same degenerate convention as the generic step (return t1).
    Takes floats, or arrays element by element.
    """
    denom = theta_prev1 - x_prev1 - theta_prev2 + x_prev2
    keep = (theta_prev1 == theta_prev2) | (denom == 0.0)
    if np.ndim(keep) == 0 and keep:
        return theta_prev1
    # kept array elements may divide by zero; np.where discards those values
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        update = (theta_prev1 * x_prev2 - theta_prev2 * x_prev1) / denom
    return np.where(keep, theta_prev1, update) if np.ndim(keep) else update


def verify_cv_formula(thetas: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 10.0),
                      n: int = 10 ** 6, seed: int = DEFAULT_SEED) -> list[OracleReport]:
    """Empirical std/mean of the cost over n +/-1 draws vs 2|theta|/(theta^2+1).

    Tolerance is a 4-sigma delta-method band: the sample std of a symmetric
    two-point cost concentrates at O(1/n), so the estimator noise is dominated
    by the sample mean and SE(cv_hat) ~ cv^2 / sqrt(n).
    """
    rng = np.random.default_rng(seed)
    problem = RademacherProblem()
    reports = []
    for theta in thetas:
        xs = problem.sample(rng, n)
        costs = (theta - xs) ** 2
        mean = costs.mean()
        std = costs.std(ddof=1)
        statistic = std / mean
        expected = problem.true_cv(np.array([theta]))
        tolerance = 4.0 * expected ** 2 / np.sqrt(n)
        reports.append(OracleReport.make(
            f"cv_formula_theta_{theta:g}", statistic, expected, tolerance,
            "within", n))
    return reports


def verify_cv_asymptote(thetas: Sequence[float] = (1e2, 1e4, 1e6),
                        tolerance: float = 1e-3) -> list[OracleReport]:
    """cv(theta) * |theta| / 2 -> 1 for large |theta|."""
    return [
        OracleReport.make(
            f"cv_asymptote_theta_{theta:g}",
            RademacherProblem().true_cv(np.array([theta])) * abs(theta) / 2.0,
            1.0, tolerance, "within", 1)
        for theta in thetas
    ]


def secant_one_step_trials(rng: np.random.Generator, n_trials: int,
                           start_span: float) -> tuple[np.ndarray, np.ndarray]:
    """One secant step per trial from random distinct starts in
    [-start_span, start_span) with a fresh +/-1 sample at each start: the
    generic step's iterates and the explicit closed form's, as arrays.

    The draws are made trial by trial, in the order a one-trial-at-a-time
    loop makes them; the step itself runs on all trials at once.
    """
    starts = np.empty((n_trials, 2))
    signs = np.empty((n_trials, 2))
    for i in range(n_trials):
        starts[i] = rng.uniform(-start_span, start_span, size=2)
        while starts[i, 1] == starts[i, 0]:
            starts[i, 1] = rng.uniform(-start_span, start_span)
        signs[i] = rng.integers(0, 2, size=2)
    t2, t1 = starts.T
    x2, x1 = (signs * 2.0 - 1.0).T
    theta_new = step_secant(t2, t1, 2.0 * (t2 - x2), 2.0 * (t1 - x1))
    return theta_new, explicit_secant_update(t2, t1, x2, x1)


def secant_long_run_finals(rng: np.random.Generator, n_trials: int, n_steps: int,
                           start_span: float) -> np.ndarray:
    """|theta| after n_steps secant iterations per trial, each trial from random
    starts in [-start_span, start_span) with a fresh +/-1 sample per gradient.

    Trials draw in trial order, as a one-trial-at-a-time loop would, and are
    stepped together in blocks of `LONG_RUN_BLOCK`.
    """
    finals = np.empty(n_trials)
    for lo in range(0, n_trials, LONG_RUN_BLOCK):
        n = min(LONG_RUN_BLOCK, n_trials - lo)
        starts = np.empty((n, 2))
        draws = np.empty((n, n_steps + 1), dtype=np.int64)
        for j in range(n):
            starts[j] = rng.uniform(-start_span, start_span, size=2)
            # One sized call equals as many scalar draws: the bit generator
            # keeps the spare 32-bit half of its last output for the next
            # trial either way.
            draws[j] = rng.integers(0, 2, size=n_steps + 1)
        t2, t1 = starts.T
        xs = (draws.T * 2 - 1).astype(float)  # row s: every trial's sample s
        prev, theta, prev_g = t2, t1, 2.0 * (t2 - xs[0])
        for x in xs[1:]:
            g = 2.0 * (theta - x)
            theta, prev, prev_g = step_secant(prev, theta, prev_g, g), theta, g
        finals[lo:lo + n] = np.abs(theta)
    return finals


def verify_secant_absorption(n_trials: int = 10 ** 4, seed: int = DEFAULT_SEED,
                             start_span: float = 10.0,
                             long_run_trials: int = 10 ** 3,
                             long_run_steps: int = 100) -> list[OracleReport]:
    """Two operationalizations of the secant method's unit-magnitude stall.

    One-step: from random distinct starts with fresh +/-1 samples at each,
    |theta_new| = 1 (to 1e-9) must occur with frequency >= 1/2 minus a 3-sigma
    binomial band; the generic gradient-based step is cross-checked against
    the explicit closed form on every trial. Long-run: the median |theta|
    after `long_run_steps` iterations stays at or above 0.5.
    """
    rng = np.random.default_rng(seed)
    theta_new, explicit = secant_one_step_trials(rng, n_trials, start_span)
    # fmax skips NaN, as a running max() over the trials would
    max_dev = float(np.fmax.reduce(np.abs(theta_new - explicit)
                                   / np.maximum(1.0, np.abs(explicit)), initial=0.0))
    hits = int(np.count_nonzero(np.abs(np.abs(theta_new) - 1.0) <= 1e-9))
    band = 3.0 * np.sqrt(0.25 / n_trials)
    one_step = OracleReport.make(
        "secant_absorption_one_step", hits / n_trials, 0.5, band, "at_least",
        n_trials, note=f"max scaled |generic - explicit| = {max_dev:.3g}")

    finals = secant_long_run_finals(rng, long_run_trials, long_run_steps, start_span)
    long_run = OracleReport.make(
        "secant_absorption_long_run", float(np.median(finals)), 0.5, 0.0,
        "at_least", long_run_trials,
        note=f"{long_run_steps} iterations per trial")
    return [one_step, long_run]


def verify_minibatch_scaling(theta: float = 2.0, ks: Sequence[int] = (1, 10, 100),
                             m: int = 10 ** 4, seed: int = DEFAULT_SEED) -> list[OracleReport]:
    """Std across m minibatches of the minibatch mean cost vs sigma(theta)/sqrt(k),
    within 5% relative."""
    rng = np.random.default_rng(seed)
    problem = RademacherProblem()
    sigma = 2.0 * abs(theta)
    reports = []
    for k in ks:
        xs = problem.sample(rng, m * k).reshape(m, k)
        means = ((theta - xs) ** 2).mean(axis=1)
        statistic = float(means.std(ddof=1))
        expected = sigma / np.sqrt(k)
        reports.append(OracleReport.make(
            f"minibatch_scaling_k_{k}", statistic, expected, 0.05 * expected,
            "within", m))
    return reports


def _samples_to_unit_ball(theta0: float, rng: np.random.Generator,
                          switch_threshold: float, max_iterations: int,
                          coefficient: float) -> Optional[int]:
    """Samples a hybrid run with a 1/t SGD rate spends before |theta| <= 1;
    None when it runs out of iterations or diverges to a finite |theta|
    first. A run that overflowed has no count."""
    run = run_hybrid(RademacherProblem(), theta0,
                     SwitchPolicy(kind="abs_theta", threshold=switch_threshold),
                     AlphaSchedule(kind="inverse_t", value=coefficient), rng,
                     max_iterations, stop_radius=1.0)
    if run.diverged and not math.isfinite(run.iterates[-1]):
        raise ConfigurationError("parameter vector has non-finite entries")
    return int(run.samples[-1]) if abs(run.iterates[-1]) <= 1.0 else None


def sgd_samples_to_unit_ball(theta0: float, rng: np.random.Generator,
                             max_samples: int = 10 ** 5,
                             coefficient: float = 0.5) -> Optional[int]:
    """Samples a 1/t-rate SGD run needs before |theta| <= 1, single-sample batches.

    It is a hybrid run whose switch fires on any finite theta0, so the secant
    phase is skipped from the start.
    """
    return _samples_to_unit_ball(theta0, rng, np.finfo(float).max, max_samples,
                                 coefficient)


def hybrid_samples_to_unit_ball(theta0: float, rng: np.random.Generator,
                                max_iterations: int = 200,
                                coefficient: float = 0.5) -> Optional[int]:
    """Samples the secant-then-SGD strategy needs before |theta| <= 1.

    Reaching the unit ball coincides with the |theta| <= 1 switch firing, so a
    couple hundred iterations is a generous cap for any poor start.
    """
    return _samples_to_unit_ball(theta0, rng, 1.0, max_iterations, coefficient)


def verify_hybrid_advantage(theta0: float = 1e4, n_seeds: int = 100,
                            seed: int = DEFAULT_SEED) -> OracleReport:
    """Median samples-to-reach |theta| <= 1: hybrid (secant then SGD) over pure
    SGD with the 1/(2i) rate, reported as a ratio; the stated pass bar is
    ratio < 1.

    With the exactly quadratic scalar cost, alpha_1 = 1/2 makes the first SGD
    update theta0 - (theta0 - x) = x, which has unit magnitude, so pure SGD
    reaches the ball after a single sample from any start and the bar is not
    attainable by any strategy that spends a sample; the report is expected
    to fail and records both medians.
    """
    if abs(theta0) < 100.0:
        raise ValueError(f"theta0 should be a poor start (|theta0| >= 100), got {theta0}")
    streams = np.random.SeedSequence(seed).spawn(n_seeds)
    cap = 10 ** 5
    hybrid_counts = np.empty(n_seeds)
    sgd_counts = np.empty(n_seeds)
    for i, stream in enumerate(streams):
        child_h, child_s = stream.spawn(2)
        reached_h = hybrid_samples_to_unit_ball(theta0, np.random.default_rng(child_h))
        reached_s = sgd_samples_to_unit_ball(theta0, np.random.default_rng(child_s))
        hybrid_counts[i] = cap if reached_h is None else reached_h
        sgd_counts[i] = cap if reached_s is None else reached_s
    med_h = float(np.median(hybrid_counts))
    med_s = float(np.median(sgd_counts))
    ratio = med_h / med_s
    return OracleReport.make(
        "hybrid_advantage_ratio", ratio, 1.0, 0.0, "below", n_seeds,
        note=f"median samples: hybrid {med_h:g}, sgd {med_s:g}")


def run_all(seed: int = DEFAULT_SEED, quick: bool = False) -> list[OracleReport]:
    """Every claim check at its default sample sizes (reduced when quick)."""
    scale = 10 if quick else 1
    reports = []
    reports += verify_cv_formula(n=10 ** 6 // scale, seed=seed)
    reports += verify_cv_asymptote()
    reports += verify_secant_absorption(
        n_trials=10 ** 4 // scale, long_run_trials=10 ** 3 // scale, seed=seed)
    reports += verify_minibatch_scaling(m=10 ** 4 // scale, seed=seed)
    reports.append(verify_hybrid_advantage(n_seeds=100 // scale, seed=seed))
    return reports


REPORT_HEADER = "claim_id,statistic,expected,tolerance,n,pass"


def write_report(reports: Sequence[OracleReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(REPORT_HEADER + "\n")
        for r in reports:
            fh.write(f"{r.claim_id},{r.statistic:.17g},{r.expected:.17g},"
                     f"{r.tolerance:.17g},{r.n},{'true' if r.passed else 'false'}\n")


def format_report(report: OracleReport) -> str:
    status = "[ ok ]" if report.passed else "[FAIL]"
    line = (f"{status} {report.claim_id}: statistic={report.statistic:.6g} "
            f"expected={report.expected:.6g} ({report.comparison}, "
            f"tol={report.tolerance:.3g}, n={report.n})")
    if report.note:
        line += f" -- {report.note}"
    return line


def run_and_print(seed: int = DEFAULT_SEED, quick: bool = False,
                  out_path=None) -> list[OracleReport]:
    start = time.perf_counter()
    reports = run_all(seed=seed, quick=quick)
    for report in reports:
        print(format_report(report))
    n_fail = sum(not r.passed for r in reports)
    elapsed = time.perf_counter() - start
    print(f"{len(reports) - n_fail}/{len(reports)} claims passed "
          f"in {elapsed:.1f} s (seed {seed})")
    if out_path is not None:
        write_report(reports, out_path)
        print(f"report written to {out_path}")
    return reports
