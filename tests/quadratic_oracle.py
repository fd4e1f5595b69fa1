"""Independent lockstep grid-search oracle for deterministic quadratic runs.

Iterates every (alpha, beta) cell of a heavy-ball recurrence on a diagonal
quadratic simultaneously (beta=0 cells are plain gradient descent) and records
the first iteration at which each cell's risk gap crosses the target. Kept
separate from the optimizer step functions so tuned-iteration claims are
checked against an independent route. `risk_gradient` gives the exact
gradient of a least-squares problem's risk for runs on the risk itself.
"""

import numpy as np


def quadratic_iters_to_gap(eigenvalues, alphas, betas, gap_target, cap):
    """First-reach iteration per (alpha, beta) cell; cap+1 when never reached.
    Diverging cells are frozen out and never counted as reaching."""
    cells = [(a, b) for a in alphas for b in betas]
    lam = np.asarray(eigenvalues)
    A = np.array([c[0] for c in cells])[:, None]
    B = np.array([c[1] for c in cells])[:, None]
    delta = np.ones((len(cells), lam.size))
    v = np.zeros_like(delta)
    reached = np.full(len(cells), cap + 1)
    dead = np.zeros(len(cells), dtype=bool)
    for it in range(1, cap + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            v = B * v + 2.0 * lam * delta
            delta = delta - A * v
            gap = np.einsum("j,ij->i", lam, delta * delta)
        blown = ~np.isfinite(gap) | (gap > 1e30)
        if blown.any():
            dead |= blown
            delta[dead] = 0.0
            v[dead] = 0.0
        hit = (gap <= gap_target) & (reached > cap) & ~dead
        reached = np.where(hit, it, reached)
        if (dead | (reached <= cap)).all():
            break
    return cells, reached


def risk_gradient(problem, theta):
    """Exact gradient of a LeastSquaresProblem's risk: 2 * eigenvalues * (theta - w_star)."""
    delta = np.asarray(theta, dtype=float).reshape(-1) - problem.w_star
    return 2.0 * problem.eigenvalues * delta
