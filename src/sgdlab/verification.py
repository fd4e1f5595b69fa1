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
from .optimizers import AlphaSchedule, SecantState, SwitchPolicy, run_hybrid, step_secant
from .problems import RademacherProblem

DEFAULT_SEED = 20240817

COMPARISONS = ("within", "at_least", "below")


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


def explicit_secant_update(theta_prev2: float, theta_prev1: float,
                           x_prev2: float, x_prev1: float) -> float:
    """Closed-form secant update for the scalar quadratic cost (theta - x)^2:

        (t1*x2 - t2*x1) / (t1 - x1 - t2 + x2)

    with the same degenerate convention as the generic step (return t1).
    """
    denom = theta_prev1 - x_prev1 - theta_prev2 + x_prev2
    if theta_prev1 == theta_prev2 or denom == 0.0:
        return theta_prev1
    return (theta_prev1 * x_prev2 - theta_prev2 * x_prev1) / denom


def _rademacher_cv(theta: float) -> float:
    return 2.0 * abs(theta) / (theta * theta + 1.0)


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
        expected = _rademacher_cv(theta)
        tolerance = 4.0 * expected ** 2 / np.sqrt(n)
        reports.append(OracleReport.make(
            f"cv_formula_theta_{theta:g}", statistic, expected, tolerance,
            "within", n))
    return reports


def verify_cv_asymptote(thetas: Sequence[float] = (1e2, 1e4, 1e6),
                        tolerance: float = 1e-3) -> list[OracleReport]:
    """cv(theta) * |theta| / 2 -> 1 for large |theta|."""
    oracle = RademacherProblem().oracle
    return [
        OracleReport.make(
            f"cv_asymptote_theta_{theta:g}",
            oracle.true_cv(np.array([theta])) * abs(theta) / 2.0,
            1.0, tolerance, "within", 1)
        for theta in thetas
    ]


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
    hits = 0
    max_dev = 0.0
    for _ in range(n_trials):
        t2, t1 = rng.uniform(-start_span, start_span, size=2)
        while t1 == t2:
            t1 = rng.uniform(-start_span, start_span)
        x2, x1 = rng.integers(0, 2, size=2) * 2.0 - 1.0
        state = SecantState(theta_prev2=t2, theta_prev1=t1,
                            grad_prev2=2.0 * (t2 - x2))
        theta_new, _ = step_secant(state, 2.0 * (t1 - x1))
        explicit = explicit_secant_update(t2, t1, x2, x1)
        max_dev = max(max_dev,
                      abs(theta_new - explicit) / max(1.0, abs(explicit)))
        if abs(abs(theta_new) - 1.0) <= 1e-9:
            hits += 1
    band = 3.0 * np.sqrt(0.25 / n_trials)
    one_step = OracleReport.make(
        "secant_absorption_one_step", hits / n_trials, 0.5, band, "at_least",
        n_trials, note=f"max scaled |generic - explicit| = {max_dev:.3g}")

    finals = np.empty(long_run_trials)
    for trial in range(long_run_trials):
        t2, t1 = rng.uniform(-start_span, start_span, size=2)
        state = SecantState(theta_prev2=t2, theta_prev1=t1,
                            grad_prev2=2.0 * (t2 - float(rng.integers(0, 2) * 2 - 1)))
        theta = t1
        for _ in range(long_run_steps):
            x = float(rng.integers(0, 2) * 2 - 1)
            theta, state = step_secant(state, 2.0 * (state.theta_prev1 - x))
        finals[trial] = abs(theta)
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


def sgd_samples_to_unit_ball(theta0: float, rng: np.random.Generator,
                             max_samples: int = 10 ** 5,
                             coefficient: float = 0.5) -> Optional[int]:
    """Samples a 1/t-rate SGD run needs before |theta| <= 1, single-sample batches.

    The run stops as soon as it reaches the ball, so it draws one sample per
    step rather than a block it might not spend.
    """
    problem = RademacherProblem()
    schedule = AlphaSchedule(kind="inverse_t", value=coefficient)
    theta = float(theta0)
    for i in range(1, max_samples + 1):
        if not math.isfinite(theta):
            raise ConfigurationError("parameter vector has non-finite entries")
        _, grad = problem.evaluate(np.array([theta]), problem.sample(rng, 1))
        # step_sgd's update, on the scalar
        theta = theta - schedule.alpha(i) * float(grad[0])
        if abs(theta) <= 1.0:
            return i
    return None


def hybrid_samples_to_unit_ball(theta0: float, rng: np.random.Generator,
                                max_iterations: int = 200,
                                coefficient: float = 0.5) -> Optional[int]:
    """Samples the secant-then-SGD strategy needs before |theta| <= 1.

    Reaching the unit ball coincides with the |theta| <= 1 switch firing, so a
    couple hundred iterations is a generous cap for any poor start.
    """
    run = run_hybrid(RademacherProblem(), theta0,
                     SwitchPolicy(kind="abs_theta", threshold=1.0),
                     AlphaSchedule(kind="inverse_t", value=coefficient),
                     rng, max_iterations)
    inside = np.abs(run.iterates) <= 1.0
    if not inside.any():
        return None
    return int(run.samples[int(np.argmax(inside))])


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
