"""Per-trial reference for `verify_secant_absorption`.

The trial loop below is the scalar one-trial-at-a-time version the array
implementation replaced, kept verbatim apart from also returning every
one-step iterate and every long-run final |theta|, and from passing the two
iterates and two gradients to `step_secant` directly. Equivalence tests
require the array version to match it exactly.
"""

import numpy as np

from sgdlab.optimizers import step_secant
from sgdlab.verification import OracleReport, explicit_secant_update


def reference_secant_absorption(n_trials, seed, start_span=10.0,
                                long_run_trials=10 ** 3, long_run_steps=100):
    """(reports, one-step iterates, long-run finals) of the per-trial loop."""
    rng = np.random.default_rng(seed)
    hits = 0
    max_dev = 0.0
    one_step_thetas = []
    for _ in range(n_trials):
        t2, t1 = rng.uniform(-start_span, start_span, size=2)
        while t1 == t2:
            t1 = rng.uniform(-start_span, start_span)
        x2, x1 = rng.integers(0, 2, size=2) * 2.0 - 1.0
        theta_new = step_secant(t2, t1, 2.0 * (t2 - x2), 2.0 * (t1 - x1))
        one_step_thetas.append(theta_new)
        explicit = explicit_secant_update(t2, t1, x2, x1)
        max_dev = max(max_dev,
                      abs(theta_new - explicit) / max(1.0, abs(explicit)))
        if abs(abs(theta_new) - 1.0) <= 1e-9:
            hits += 1
    band = 3.0 * np.sqrt(0.25 / n_trials)
    one_step = OracleReport(
        "secant_absorption_one_step", hits / n_trials, 0.5, band, "at_least",
        n_trials, note=f"max scaled |generic - explicit| = {max_dev:.3g}")

    finals = np.empty(long_run_trials)
    for trial in range(long_run_trials):
        t2, t1 = rng.uniform(-start_span, start_span, size=2)
        prev, theta = t2, t1
        prev_g = 2.0 * (t2 - float(rng.integers(0, 2) * 2 - 1))
        for _ in range(long_run_steps):
            x = float(rng.integers(0, 2) * 2 - 1)
            g = 2.0 * (theta - x)
            theta, prev, prev_g = step_secant(prev, theta, prev_g, g), theta, g
        finals[trial] = abs(theta)
    long_run = OracleReport(
        "secant_absorption_long_run", float(np.median(finals)), 0.5, 0.0,
        "at_least", long_run_trials,
        note=f"{long_run_steps} iterations per trial")
    return [one_step, long_run], np.array(one_step_thetas), finals
