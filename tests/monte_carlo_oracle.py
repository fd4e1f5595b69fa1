"""One-draw references for `verify_cv_formula` and `verify_minibatch_scaling`.

Both claims used to draw each statistic's samples in one `sample` call and
reduce them in one pass; they now draw and reduce in blocks of at most
`BLOCK_COORDINATES` coordinates. The one-draw versions are kept here
verbatim, apart from also returning the generator they drew from, and
equivalence tests require the block versions to match them exactly, the
generator's state after the last draw included.
"""

import numpy as np

from sgdlab.diagnostics import estimate_cv
from sgdlab.problems import RademacherProblem
from sgdlab.verification import OracleReport


def reference_cv_formula(thetas, n, seed):
    """(reports, generator) of the one-draw CV claim."""
    rng = np.random.default_rng(seed)
    problem = RademacherProblem()
    reports = []
    for theta in thetas:
        xs = problem.sample(rng, n)
        statistic = estimate_cv((theta - xs) ** 2)
        expected = problem.true_cv(theta)
        tolerance = float(4.0 * expected ** 2 / np.sqrt(n))
        reports.append(OracleReport(
            f"cv_formula_theta_{theta:g}", statistic, expected, tolerance,
            "within", n))
    return reports, rng


def reference_minibatch_scaling(theta, ks, m, seed):
    """(reports, generator) of the one-draw minibatch-scaling claim."""
    rng = np.random.default_rng(seed)
    problem = RademacherProblem()
    sigma = 2.0 * abs(theta)
    reports = []
    for k in ks:
        xs = problem.sample(rng, m * k).reshape(m, k)
        means = ((theta - xs) ** 2).mean(axis=1)
        statistic = float(means.std(ddof=1))
        expected = float(sigma / np.sqrt(k))
        reports.append(OracleReport(
            f"minibatch_scaling_k_{k}", statistic, expected, 0.05 * expected,
            "within", m))
    return reports, rng
