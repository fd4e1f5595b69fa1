"""Stochastic objectives: per-sample costs, gradients, sampling, and closed-form oracles.

A problem models a nonnegative cost c(theta, x) over i.i.d. samples x, with the
risk e(theta) = E[c(theta, X)] as the true objective. Sampling is vectorized;
every random draw goes through an explicitly passed numpy Generator (PCG64),
so runs are reproducible from a 64-bit seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .errors import ConfigurationError

Array = np.ndarray


@dataclass(frozen=True)
class Minibatch:
    """k samples drawn in one iteration, with their per-sample costs and the
    mean gradient, both evaluated at the theta current when they were drawn."""

    samples: Any
    costs: Array
    mean_gradient: Array


class Problem:
    """Base for stochastic objectives. Immutable after construction; sampling
    requires a caller-owned Generator, so parallel runs use independent streams."""

    name: str = "problem"
    dim: int = 1
    true_risk = None  # a method true_risk(theta) where the risk has a closed form
    min_risk: Optional[float] = None  # the risk's minimum, where known
    # True when one sample(rng, m * k) call returns exactly the samples of m
    # successive sample(rng, k) calls, so a run may draw its fresh samples in
    # blocks without changing them. False for problems that interleave two
    # draws per call.
    block_draws: bool = False

    def sample(self, rng: np.random.Generator, n: int):
        """Draw n i.i.d. samples; returns a problem-specific batch payload."""
        raise NotImplementedError

    def evaluate(self, theta: Array, samples) -> tuple[Array, Array]:
        """(per-sample costs, shape (n,); mean gradient, shape (dim,)) at a
        validated theta, sharing the work the two have in common."""
        raise NotImplementedError

    def costs(self, theta: Array, samples) -> Array:
        """Per-sample costs c(theta, x_j), shape (n,)."""
        return self.evaluate(theta, samples)[0]

    def mean_gradient(self, theta: Array, samples) -> Array:
        """Arithmetic mean of the per-sample gradients at theta, shape (dim,)."""
        return self.evaluate(theta, samples)[1]

    def subset(self, samples, idx):
        """Select samples by integer index array / slice (for epoch shuffling)."""
        raise NotImplementedError

    def take(self, block, start: int, stop: int):
        """Samples start:stop of a block one `sample` call drew, exactly as a
        `sample` call for only those samples returns them (`block_draws` only)."""
        return self.subset(block, slice(start, stop))


def _as_theta(theta, dim: int) -> Array:
    t = np.asarray(theta, dtype=float).reshape(-1)
    if t.shape != (dim,):
        raise ConfigurationError(f"parameter vector has shape {t.shape}, expected ({dim},)")
    if not np.all(np.isfinite(t)):
        raise ConfigurationError("parameter vector has non-finite entries")
    return t


def draw_minibatch(problem: Problem, theta, k: int, rng: np.random.Generator) -> Minibatch:
    """Draw k fresh i.i.d. samples and evaluate costs and mean gradient at theta."""
    if k < 1:
        raise ConfigurationError(f"minibatch size must be >= 1, got {k}")
    samples = problem.sample(rng, int(k))
    return evaluate_minibatch(problem, theta, samples)


def evaluate_minibatch(problem: Problem, theta, samples) -> Minibatch:
    """Build a Minibatch from pre-drawn samples at a checked theta."""
    costs, mean_gradient = problem.evaluate(_as_theta(theta, problem.dim), samples)
    return Minibatch(samples=samples, costs=costs, mean_gradient=mean_gradient)


# Most sample coordinates (k * dim per minibatch) one block draw may hold, so
# a run's memory stays flat in dim.
BLOCK_COORDINATES = 2 ** 16


class SampleStream:
    """A run's fresh minibatches of k samples, in the run's RNG draw order.

    Where `problem.block_draws` holds, one `sample` call draws a block of
    minibatches and each is taken from it in turn: at most BLOCK_COORDINATES
    coordinates, and never more minibatches than the run still needs. Other
    problems draw once per minibatch. Both give the same samples, and a run
    that takes all `n_batches` leaves the generator where per-call draws do.
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


# ---------------------------------------------------------------------------
# Scalar quadratic cost on a symmetric +/-1 sample ("Rademacher" problem).
#
#   c(theta, x) = (theta - x)^2,  x in {+1, -1} equiprobable
#   e(theta)    = theta^2 + 1
#   sigma(theta)= 2|theta|
#   CV(theta)   = 2|theta| / (theta^2 + 1)
# ---------------------------------------------------------------------------

def _scalar(theta) -> float:
    t = np.asarray(theta, dtype=float).reshape(-1)
    if t.shape[0] != 1:
        raise ConfigurationError(f"expected a scalar parameter, got shape {t.shape}")
    return float(t[0])


class RademacherProblem(Problem):
    """Scalar squared-distance cost to a random +/-1 target."""

    name = "rademacher"
    dim = 1
    block_draws = True  # one integers() fill, consumed in draw order
    min_risk = 1.0

    def true_risk(self, theta: Array) -> float:
        # the run loop only passes checked (1,) arrays, so no re-check
        return float(theta[0]) ** 2 + 1.0

    def true_cv(self, theta) -> float:
        return 2.0 * abs(_scalar(theta)) / (_scalar(theta) ** 2 + 1.0)

    def sample(self, rng: np.random.Generator, n: int) -> Array:
        return rng.integers(0, 2, size=n) * 2.0 - 1.0  # int64 * float is float64

    def evaluate(self, theta: Array, samples: Array) -> tuple[Array, Array]:
        d = theta - samples  # the (1,) theta broadcasts against the (k,) samples
        if d.shape[0] == 1:
            # exact: add.reduce of one value is 0.0 + it, which is it unless it
            # is -0.0, and theta - (+/-1) never is; dividing by 1 changes nothing
            return d * d, 2.0 * d
        # add.reduce is what .sum() and np.mean call, without their wrappers
        return d * d, np.array([float(np.add.reduce(2.0 * d)) / d.shape[0]])

    # costs and mean_gradient repeat Problem's, here and on LeastSquaresProblem,
    # because perfbench's tracer wraps them on each class
    def costs(self, theta: Array, samples: Array) -> Array:
        return self.evaluate(theta, samples)[0]

    def mean_gradient(self, theta: Array, samples: Array) -> Array:
        return self.evaluate(theta, samples)[1]

    def subset(self, samples: Array, idx) -> Array:
        return samples[idx]

    def take(self, block: Array, start: int, stop: int) -> Array:
        return block[start:stop]


# ---------------------------------------------------------------------------
# Linear least squares on Gaussian features: an exactly conditioned,
# multi-dimensional quadratic testbed.
# ---------------------------------------------------------------------------

class LeastSquaresProblem(Problem):
    """Squared residual of a linear model on Gaussian features.

    Features have diagonal covariance diag(eigenvalues) with eigenvalues
    log-spaced between 1 and condition_number, so the risk is the quadratic

        e(theta) = sum_j eigenvalues_j (theta_j - w_star_j)^2 + noise_std^2

    with an exactly known condition number and minimizer.
    """

    name = "least_squares"

    def __init__(self, dim: int, condition_number: float, noise_std: float, seed: int):
        if dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {dim}")
        if condition_number < 1.0:
            raise ConfigurationError(
                f"condition_number must be >= 1, got {condition_number}")
        if noise_std < 0.0:
            raise ConfigurationError(f"noise_std must be >= 0, got {noise_std}")
        self.dim = int(dim)
        self.condition_number = float(condition_number)
        self.noise_std = float(noise_std)
        self.eigenvalues = np.geomspace(1.0, self.condition_number, self.dim)
        rng = np.random.default_rng(seed)
        self.w_star = rng.standard_normal(self.dim)
        self._feature_scale = np.sqrt(self.eigenvalues)
        self.min_risk = self.noise_std ** 2

    def true_risk(self, theta: Array) -> float:
        delta = np.asarray(theta, dtype=float).reshape(-1) - self.w_star
        return float(np.dot(self.eigenvalues, delta * delta) + self.noise_std ** 2)

    def risk_gradient(self, theta) -> Array:
        """Exact gradient of the risk: 2 * eigenvalues * (theta - w_star)."""
        delta = np.asarray(theta, dtype=float).reshape(-1) - self.w_star
        return 2.0 * self.eigenvalues * delta

    @property
    def block_draws(self) -> bool:
        # noiseless samples are one standard_normal fill; noise interleaves
        # a second draw after each call's features
        return self.noise_std == 0.0

    def sample(self, rng: np.random.Generator, n: int):
        features = rng.standard_normal((n, self.dim)) * self._feature_scale
        targets = features @ self.w_star
        if self.noise_std > 0.0:
            targets = targets + self.noise_std * rng.standard_normal(n)
        return features, targets

    def evaluate(self, theta: Array, samples) -> tuple[Array, Array]:
        features, targets = samples
        r = features @ theta - targets
        return r * r, (2.0 / r.shape[0]) * (features.T @ r)

    def costs(self, theta: Array, samples) -> Array:
        return self.evaluate(theta, samples)[0]

    def mean_gradient(self, theta: Array, samples) -> Array:
        return self.evaluate(theta, samples)[1]

    def take(self, block, start: int, stop: int):
        # BLAS may sum a row's dot product in a different order inside a
        # taller matrix, so the targets come from these rows alone
        features = block[0][start:stop]
        return features, features @ self.w_star

    def subset(self, samples, idx):
        features, targets = samples
        return features[idx], targets[idx]


# ---------------------------------------------------------------------------
# Linear-softmax classification on class-conditional Gaussian blobs.
# ---------------------------------------------------------------------------

class LogisticBlobsProblem(Problem):
    """Multinomial logistic regression on Gaussian blobs.

    Samples are (features, label) with features drawn from a unit-covariance
    Gaussian centered at the label's mean; class means sit at distance
    `separation` from the origin. The cost is the negative log of the
    probability the linear-softmax model assigns to the correct class.

    Parameters are a flat vector of length n_classes * (n_features + 1):
    the weight matrix (n_classes, n_features) row-major, then the biases.
    A fixed held-out test set (test_per_class per class) is generated at
    construction for accuracy and test-risk curves.
    """

    name = "logistic"

    def __init__(self, dim: int, n_classes: int, separation: float, seed: int,
                 test_per_class: int = 500):
        if dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {dim}")
        if n_classes < 2:
            raise ConfigurationError(f"n_classes must be >= 2, got {n_classes}")
        if separation < 0.0:
            raise ConfigurationError(f"separation must be >= 0, got {separation}")
        if test_per_class < 1:
            raise ConfigurationError(f"test_per_class must be >= 1, got {test_per_class}")
        self.n_features = int(dim)
        self.n_classes = int(n_classes)
        self.separation = float(separation)
        self.dim = self.n_classes * (self.n_features + 1)
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((self.n_classes, self.n_features))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        self.class_means = self.separation * raw / norms
        test_labels = np.repeat(np.arange(self.n_classes), test_per_class)
        test_features = (self.class_means[test_labels]
                         + rng.standard_normal((test_labels.shape[0], self.n_features)))
        self._test_set = (test_features, test_labels)

    def _unpack(self, theta: Array):
        nw = self.n_classes * self.n_features
        weights = theta[:nw].reshape(self.n_classes, self.n_features)
        biases = theta[nw:]
        return weights, biases

    def _log_probs(self, theta: Array, features: Array) -> Array:
        weights, biases = self._unpack(theta)
        logits = features @ weights.T + biases
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def sample(self, rng: np.random.Generator, n: int):
        labels = rng.integers(0, self.n_classes, size=n)
        features = self.class_means[labels] + rng.standard_normal((n, self.n_features))
        return features, labels

    def evaluate(self, theta: Array, samples) -> tuple[Array, Array]:
        features, labels = samples
        n = labels.shape[0]
        rows = np.arange(n)
        lp = self._log_probs(theta, features)
        costs = -lp[rows, labels]
        probs = np.exp(lp)
        probs[rows, labels] -= 1.0
        grad_w = probs.T @ features / n
        grad_b = probs.mean(axis=0)
        return costs, np.concatenate([grad_w.ravel(), grad_b])

    def subset(self, samples, idx):
        features, labels = samples
        return features[idx], labels[idx]

    def test_metrics(self, theta) -> tuple[float, float]:
        """(mean test cost, test accuracy) on the fixed held-out set."""
        t = _as_theta(theta, self.dim)
        features, labels = self._test_set
        lp = self._log_probs(t, features)
        mean_cost = float(-lp[np.arange(labels.shape[0]), labels].mean())
        accuracy = float((lp.argmax(axis=1) == labels).mean())
        return mean_cost, accuracy
