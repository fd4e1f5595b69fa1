"""Brute-force and Monte Carlo oracles for the analytically known claims.

Each check compares an empirical statistic against a closed form with an
explicit tolerance (a 3-4 sigma band where the statistic is random), under a
fixed master seed so reports are deterministic. The scalar quadratic problem's
secant algebra is cross-checked against its explicit closed-form update, which
is kept here as an oracle and never used as the implementation path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .diagnostics import estimate_cv
from .errors import ConfigurationError
from .harness import ExperimentConfig, _run_loop, build_problem
from .optimizers import step_secant
from .problems import BLOCK_COORDINATES, RademacherProblem

DEFAULT_SEED = 20240817

# Secant trials start uniformly in [-START_SPAN, START_SPAN).
START_SPAN = 10.0

# A hybrid run reaches the unit ball when its |theta| <= 1 switch fires, so
# SECANT_CAP iterations is a generous cap from any poor start; pure SGD gets
# UNIT_BALL_CAP samples. A run past its cap never reached the unit ball.
SECANT_CAP = 200
UNIT_BALL_CAP = 10 ** 5


@dataclass(frozen=True)
class OracleReport:
    claim_id: str
    statistic: float
    expected: float
    tolerance: float
    comparison: str
    n: int
    note: str = ""

    @property
    def passed(self) -> bool:
        """'within' |s-e|<=t, 'at_least' s>=e-t, 'below' s<e-t."""
        s, e, t = self.statistic, self.expected, self.tolerance
        if self.comparison == "within":
            return abs(s - e) <= t
        if self.comparison == "at_least":
            return s >= e - t
        if self.comparison == "below":
            return s < e - t
        raise ValueError(f"unknown comparison {self.comparison!r}")


def explicit_secant_update(theta_prev2, theta_prev1, x_prev2, x_prev1):
    """Closed-form secant update for the scalar quadratic cost (theta - x)^2:

        (t1*x2 - t2*x1) / (t1 - x1 - t2 + x2)

    with the same degenerate convention as the generic step (return t1),
    element by element. Floats come back as 0-d arrays.
    """
    # an array denom turns a float x / 0 into an inf that np.where drops
    denom = np.asarray(theta_prev1 - x_prev1 - theta_prev2 + x_prev2)
    keep = (theta_prev1 == theta_prev2) | (denom == 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        update = (theta_prev1 * x_prev2 - theta_prev2 * x_prev1) / denom
    return np.where(keep, theta_prev1, update)


def verify_cv_formula(thetas: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 10.0),
                      n: int = 10 ** 6, seed: int = DEFAULT_SEED) -> list[OracleReport]:
    """`estimate_cv` of the cost over n +/-1 draws vs 2|theta|/(theta^2+1).

    Tolerance is a 4-sigma delta-method band: the sample std of a symmetric
    two-point cost concentrates at O(1/n), so the estimator noise is dominated
    by the sample mean and SE(cv_hat) ~ cv^2 / sqrt(n).

    The costs are drawn in blocks of BLOCK_COORDINATES into one buffer that
    every theta refills, with the samples and bits of one n-sized draw, and
    the estimate forms its deviations in that buffer. A theta without an
    estimate (costs or their spread overflow, or it is NaN) is a ValueError.
    """
    rng = np.random.default_rng(seed)
    problem = RademacherProblem()
    costs = np.empty(n)
    reports = []
    for theta in thetas:
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, BLOCK_COORDINATES):
                part = costs[start:start + BLOCK_COORDINATES]
                np.subtract(theta, problem.sample(rng, part.shape[0]), out=part)
                np.multiply(part, part, out=part)
            statistic = estimate_cv(costs, overwrite_costs=True)
        if statistic is None:
            raise ValueError(f"no CV estimate at theta={theta:g}: its costs or their spread "
                             "are not finite")
        expected = problem.true_cv(theta)
        tolerance = float(4.0 * expected ** 2 / np.sqrt(n))
        reports.append(OracleReport(
            f"cv_formula_theta_{theta:g}", statistic, expected, tolerance,
            "within", n))
    return reports


def verify_cv_asymptote(thetas: Sequence[float] = (1e2, 1e4, 1e6),
                        tolerance: float = 1e-3) -> list[OracleReport]:
    """cv(theta) * |theta| / 2 -> 1 for large |theta|."""
    return [
        OracleReport(
            f"cv_asymptote_theta_{theta:g}",
            RademacherProblem().true_cv(theta) * abs(theta) / 2.0,
            1.0, tolerance, "within", 1)
        for theta in thetas
    ]


def secant_trials(rng: np.random.Generator, n_trials: int,
                  n_steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n_steps secant iterations for each of n_trials random distinct starts
    in [-START_SPAN, START_SPAN), with a fresh +/-1 sample per gradient.

    Returns the start pairs (2, n_trials), the samples (n_steps + 1, n_trials)
    and the last iterates. Trials draw in trial order, the values and generator
    state of one sized sign call per trial; steps run on all trials at once.
    """
    starts = np.empty((n_trials, 2))
    draws = np.empty((n_trials, n_steps + 1), dtype=np.int64)
    for i in range(n_trials):
        t2, t1 = rng.uniform(-START_SPAN, START_SPAN, size=2).tolist()
        while t1 == t2:
            t1 = rng.uniform(-START_SPAN, START_SPAN)
        starts[i] = t2, t1
        # A sign takes one 32-bit half of an output and the generator keeps
        # the spare half, so n scalar calls draw the values and leave the state
        # of one sized call of n; two scalar calls cost half a sized call of two.
        draws[i] = ((rng.integers(0, 2), rng.integers(0, 2)) if n_steps == 1
                    else rng.integers(0, 2, size=n_steps + 1))
    t2, t1 = starts.T
    xs = (draws.T * 2 - 1).astype(float)  # row s: every trial's sample s
    prev, theta, prev_g = t2, t1, 2.0 * (t2 - xs[0])
    for x in xs[1:]:
        g = 2.0 * (theta - x)
        theta, prev, prev_g = step_secant(prev, theta, prev_g, g), theta, g
    return starts.T, xs, theta


def verify_secant_absorption(n_trials: int = 10 ** 4, seed: int = DEFAULT_SEED,
                             long_run_trials: int = 10 ** 3,
                             long_run_steps: int = 100) -> list[OracleReport]:
    """Two operationalizations of the secant method's unit-magnitude stall.

    One-step: from random distinct starts with fresh +/-1 samples at each,
    |theta_new| = 1 (to 1e-9) must occur with frequency >= 1/2 minus a 3-sigma
    binomial band; the generic gradient-based step is cross-checked against
    the explicit closed form on every trial. Long-run: the median |theta|
    after `long_run_steps` iterations stays at or above 0.5.
    """
    for name, size in (("n_trials", n_trials), ("long_run_trials", long_run_trials),
                       ("long_run_steps", long_run_steps)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    rng = np.random.default_rng(seed)
    (t2, t1), xs, theta_new = secant_trials(rng, n_trials, 1)
    explicit = explicit_secant_update(t2, t1, xs[0], xs[1])
    # fmax skips NaN, as a running max() over the trials would
    max_dev = float(np.fmax.reduce(np.abs(theta_new - explicit)
                                   / np.maximum(1.0, np.abs(explicit)), initial=0.0))
    hits = int(np.count_nonzero(np.abs(np.abs(theta_new) - 1.0) <= 1e-9))
    band = float(3.0 * np.sqrt(0.25 / n_trials))
    one_step = OracleReport(
        "secant_absorption_one_step", hits / n_trials, 0.5, band, "at_least",
        n_trials, note=f"max scaled |generic - explicit| = {max_dev:.3g}")

    finals = np.abs(secant_trials(rng, long_run_trials, long_run_steps)[2])
    long_run = OracleReport(
        "secant_absorption_long_run", float(np.median(finals)), 0.5, 0.0,
        "at_least", long_run_trials,
        note=f"{long_run_steps} iterations per trial")
    return [one_step, long_run]


def verify_minibatch_scaling(theta: float = 2.0, ks: Sequence[int] = (1, 10, 100),
                             m: int = 10 ** 4, seed: int = DEFAULT_SEED) -> list[OracleReport]:
    """Std across m minibatches of the minibatch mean cost vs sigma(theta)/sqrt(k),
    within 5% relative. The minibatches are drawn as whole rows, as many as
    fit in BLOCK_COORDINATES (at least one) at a time: a row's mean does not
    depend on the other rows, so this is one m * k draw's statistic."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if any(k < 1 for k in ks):
        raise ValueError(f"each k must be >= 1, got {min(ks)}")
    rng = np.random.default_rng(seed)
    problem = RademacherProblem()
    sigma = 2.0 * abs(theta)
    reports = []
    for k in ks:
        rows = max(1, BLOCK_COORDINATES // k)
        means = np.empty(m)
        for start in range(0, m, rows):
            xs = problem.sample(rng, min(rows, m - start) * k).reshape(-1, k)
            means[start:start + rows] = ((theta - xs) ** 2).mean(axis=1)
        statistic = float(means.std(ddof=1))
        expected = float(sigma / np.sqrt(k))
        reports.append(OracleReport(
            f"minibatch_scaling_k_{k}", statistic, expected, 0.05 * expected,
            "within", m))
    return reports


# a diverging run overflows on its way out, and the guard ends it
@np.errstate(over="ignore", invalid="ignore")
def run_hybrid(config: ExperimentConfig, rng: np.random.Generator) -> Optional[int]:
    """Samples a scalar config's run spends before its first iterate with
    |theta| <= 1 (theta0 and a secant phase's free second point at 0), or
    None; a diverged NaN or huge iterate fails the `<=`. Named for the
    hybrid because perfbench times verify's unit-ball runs by wrapping it
    (`optimizers.run_hybrid`)."""
    for _, theta, samples, *_ in _run_loop(config, build_problem(config), rng,
                                           every_iterate=True):
        if abs(theta) <= 1.0:
            return samples
    return None


def unit_ball_counts(theta0: float, n_seeds: int, seed: int = DEFAULT_SEED,
                     coefficient: float = 0.5) -> tuple[list[Optional[int]], list[Optional[int]]]:
    """Per-seed (hybrid, pure SGD) unit-ball counts of c/i-rate runs from
    theta0, None for a run past its cap or diverged. Seed i's runs draw from
    the two children of SeedSequence(seed)'s i-th child, so the first counts
    do not depend on n_seeds."""
    if n_seeds < 0:
        raise ValueError(f"n_seeds must be >= 0, got {n_seeds}")
    configs = [ExperimentConfig(theta0=theta0, optimizer=optimizer, alpha=coefficient,
                                alpha_schedule="inverse_t", epoch_size=cap)
               for optimizer, cap in (("hybrid", SECANT_CAP), ("sgd", UNIT_BALL_CAP))]
    hybrid, sgd = [], []
    for stream in np.random.SeedSequence(seed).spawn(n_seeds):
        for counts, config, child in zip((hybrid, sgd), configs, stream.spawn(2)):
            counts.append(run_hybrid(config, np.random.default_rng(child)))
    return hybrid, sgd


def verify_hybrid_advantage(theta0: float = 1e4, n_seeds: int = 100,
                            seed: int = DEFAULT_SEED) -> OracleReport:
    """Median samples-to-reach |theta| <= 1: hybrid (secant then SGD) over pure
    SGD with the 1/(2i) rate, reported as a ratio; the stated pass bar is
    ratio < 1. A run with no count counts at UNIT_BALL_CAP samples.

    With the exactly quadratic scalar cost, alpha_1 = 1/2 makes the first SGD
    update theta0 - (theta0 - x) = x, which has unit magnitude, so pure SGD
    reaches the ball after a single sample from any start and the bar is not
    attainable by any strategy that spends a sample; the report is expected
    to fail and records both medians.
    """
    if abs(theta0) < 100.0:
        raise ValueError(f"theta0 should be a poor start (|theta0| >= 100), got {theta0}")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    med_h, med_s = (float(np.median([UNIT_BALL_CAP if n is None else n for n in counts]))
                    for counts in unit_ball_counts(theta0, n_seeds, seed))
    return OracleReport(
        "hybrid_advantage_ratio", med_h / med_s, 1.0, 0.0, "below", n_seeds,
        note=f"median samples: hybrid {med_h:g}, sgd {med_s:g}")


def run_all(seed: int = DEFAULT_SEED, quick: bool = False) -> list[OracleReport]:
    """Every claim check at its default sample sizes (reduced when quick)."""
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
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
