"""Stochastic objectives: per-sample costs, gradients, sampling, and closed-form oracles.

A problem models a nonnegative cost c(theta, x) over i.i.d. samples x, with the
risk e(theta) = E[c(theta, X)] as the true objective. Sampling is vectorized;
every random draw goes through an explicitly passed numpy Generator (PCG64),
so runs are reproducible from a 64-bit seed.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from queue import SimpleQueue
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

    dim: int = 1
    true_risk = None  # a method true_risk(theta) where the risk has a closed form
    test_metrics = None  # a method test_metrics(theta) -> (held-out cost, accuracy)
    min_risk: Optional[float] = None  # the risk's minimum, where known
    # True when a run draws its fresh samples in blocks of m minibatches, the
    # samples of m successive sample(rng, k) calls: rademacher slices one
    # sample(rng, m * k) call with `subset`; noiseless least squares fills a
    # block with standard normal rows and makes minibatches of them by `finish`.
    block_draws: bool = False
    # where a block is one standard_normal fill, a method finish(normals) ->
    # the samples that `sample` makes of these standard normal (n, dim) rows
    finish = None
    # True when the run loop holds the iterate as a Python float instead of a
    # (1,) array: the same IEEE double operations in the same order, without
    # numpy's per-call cost. Such a problem's evaluate and true_risk take a
    # float theta, and its one-sample fresh minibatches are floats.
    float_iterate: bool = False

    def sample(self, rng: np.random.Generator, n: int):
        """Draw n i.i.d. samples; returns a problem-specific batch payload."""
        raise NotImplementedError

    def evaluate(self, theta: Array, samples) -> tuple[Array, Array]:
        """(per-sample costs, shape (n,); mean gradient, shape (dim,)) at a
        validated theta, sharing the work the two have in common. A
        `float_iterate` problem also takes a float theta: one float sample
        gives a float cost and gradient, an array of samples a cost array and
        a float mean gradient."""
        raise NotImplementedError

    def costs(self, theta: Array, samples) -> Array:
        """Per-sample costs c(theta, x_j), shape (n,)."""
        return self.evaluate(theta, samples)[0]

    def mean_gradient(self, theta: Array, samples) -> Array:
        """Arithmetic mean of the per-sample gradients at theta, shape (dim,)."""
        return self.evaluate(theta, samples)[1]

    def subset(self, samples, idx):
        """Select samples by integer index array (epoch shuffles) or slice
        (block draws); this one serves a (features, targets) payload."""
        features, targets = samples
        return features[idx], targets[idx]


def _as_theta(theta, dim: int) -> Array:
    t = np.asarray(theta, dtype=float).reshape(-1)
    if t.shape != (dim,):
        raise ConfigurationError(f"parameter vector has shape {t.shape}, expected ({dim},)")
    if not np.all(np.isfinite(t)):
        raise ConfigurationError("parameter vector has non-finite entries")
    return t


def draw_minibatch(problem: Problem, theta, k: int, rng: np.random.Generator) -> Minibatch:
    """Draw k fresh i.i.d. samples and evaluate costs and mean gradient at theta."""
    check_bounds(k=k)
    samples = problem.sample(rng, int(k))
    return evaluate_minibatch(problem, theta, samples)


def evaluate_minibatch(problem: Problem, theta, samples) -> Minibatch:
    """Build a Minibatch from pre-drawn samples at a checked theta."""
    costs, mean_gradient = problem.evaluate(_as_theta(theta, problem.dim), samples)
    return Minibatch(samples=samples, costs=costs, mean_gradient=mean_gradient)


@contextmanager
def too_large(what: str):
    """numpy failing to allocate or size an array the config asked for is a
    ConfigurationError: `what` says which key, then numpy's reason."""
    try:
        yield
    except ConfigurationError:
        raise  # a ValueError itself, with its own message
    except (MemoryError, OverflowError, ValueError) as exc:
        raise ConfigurationError(f"{what}: {exc}") from exc


# Every numeric config key's lower bound: the problem keys, then the run keys.
BOUNDS = dict(dim=1, condition_number=1, noise_std=0, n_classes=2, separation=0,
              test_per_class=1, k=1, epochs=1, eval_every=1, epoch_size=1, cv_window=1,
              train_size=1, cv_buffer=2, seed=0, problem_seed=0, risk_threshold=0)


def check_bounds(**values) -> None:
    """ConfigurationError for the first key below its BOUNDS entry; None passes."""
    for key, value in values.items():
        if value is not None and value < BOUNDS[key]:
            raise ConfigurationError(f"{key} must be >= {BOUNDS[key]}, got {value}")


# Most sample coordinates (k * dim per minibatch) one block draw may hold, so
# a run's memory stays flat in dim. verification's CV and minibatch claims
# draw their Monte Carlo samples in blocks of at most as many too.
BLOCK_COORDINATES = 2 ** 16


def _block_sizes(cap: int, n_batches: int):
    """Minibatches per block: 1, 2, 4, ... up to `cap`, n_batches in all."""
    drawn = 0
    while drawn < n_batches:
        n = min(drawn + 1, cap, n_batches - drawn)
        drawn += n
        yield n


def minibatches(problem: Problem, rng: np.random.Generator, k: int, n_batches: int,
                train_size: Optional[int] = None):
    """A run's minibatches of k samples, in the run's RNG draw order: the one
    place a run draws, shuffles and slices samples.

    With `train_size`, the finite train set is drawn first; each epoch then
    draws one permutation and yields the set k samples at a time, the last
    minibatch short where k does not divide train_size.

    Otherwise every minibatch is fresh. Where `problem.block_draws` holds,
    blocks of 1, 2, 4, ... minibatches are drawn (at most BLOCK_COORDINATES
    coordinates, never more than the run still needs) and read in turn:
    - rademacher slices one `sample` call per block with `problem.subset`
      (floats, one `tolist()` per block, for one-sample minibatches); a run
      that stops early has drawn under twice the samples it spent plus one;
    - noiseless least squares: a worker thread fills each block with one
      standard_normal call, the next one while this one is read, and
      `problem.finish` makes each k rows a minibatch; a run that stops early
      has drawn what it spent plus at most two blocks. The worker ends with
      the generator, and a fill's error is raised here.
    Other problems draw once per minibatch. All give the same samples, and a
    run that takes all `n_batches` leaves the generator where per-call draws
    do. A draw too large for numpy is a config error on train_size or k.
    """
    if train_size is not None:
        with too_large(f"train_size = {train_size} is too large to draw"):
            train = problem.sample(rng, train_size)
        while True:
            perm = rng.permutation(train_size)
            for start in range(0, train_size, k):
                yield problem.subset(train, perm[start:start + k])
    cap = BLOCK_COORDINATES // (k * problem.dim) if problem.block_draws else 0
    # only a draw allocates here, and only the first, of k samples, can be too large
    with too_large(f"k = {k} is too large to draw a minibatch"):
        while cap < 2:  # a block of one minibatch is a per-call draw
            yield problem.sample(rng, k)
        sizes = _block_sizes(cap, n_batches)
        if problem.finish is not None:
            yield from _filled_ahead(problem, rng, k, cap, sizes)
        else:
            for n in sizes:
                block = problem.sample(rng, n * k)
                if k == 1 and problem.float_iterate:
                    yield from block.tolist()
                    continue
                for start in range(0, n * k, k):
                    yield problem.subset(block, slice(start, start + k))


def _filled_ahead(problem: Problem, rng: np.random.Generator, k: int, cap: int, sizes):
    """`minibatches` of noiseless least squares: blocks of `sizes` minibatches,
    each one standard_normal fill by a worker, the next while one is read."""
    buffers = np.empty((2, cap * k, problem.dim))
    todo, taken, filled = SimpleQueue(), SimpleQueue(), SimpleQueue()

    def work():  # fills the buffers it is handed, in turn, until it is handed None
        while (out := todo.get()) is not None:
            taken.put(None)  # the reader waits for this, so the worker had the GIL at once
            try:  # the one call a block costs; numpy releases the GIL in it
                filled.put(rng.standard_normal(out=out))
            except BaseException as exc:  # raised again by the reading thread
                filled.put(exc)

    # a daemon: a stream still open does not hold up exit
    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    try:
        n, which = next(sizes, 0), 0
        todo.put(buffers[0, :n * k])  # nothing to overlap the first block with
        taken.get()
        while n:
            block = filled.get()
            if isinstance(block, BaseException):
                raise block
            n, which = next(sizes, 0), 1 - which
            if n:  # the next block fills while this one is read
                todo.put(buffers[which, :n * k])
                taken.get()
            for start in range(0, block.shape[0], k):
                yield problem.finish(block[start:start + k])
    finally:
        todo.put(None)
        worker.join()


# ---------------------------------------------------------------------------
# Scalar quadratic cost on a symmetric +/-1 sample ("Rademacher" problem).
#
#   c(theta, x) = (theta - x)^2,  x in {+1, -1} equiprobable
#   e(theta)    = theta^2 + 1
#   sigma(theta)= 2|theta|
#   CV(theta)   = 2|theta| / (theta^2 + 1)
# ---------------------------------------------------------------------------

class RademacherProblem(Problem):
    """Scalar squared-distance cost to a random +/-1 target."""

    block_draws = True  # one integers() fill, consumed in draw order
    float_iterate = True
    min_risk = 1.0

    def true_risk(self, theta) -> float:
        # the run loop passes its float iterate, or a checked (1,) array on
        # the array route, so no re-check
        t = theta if isinstance(theta, float) else float(theta[0])
        return t * t + 1.0  # t ** 2 is libm pow, not always the rounded square

    def true_cv(self, theta: float) -> float:
        return 2.0 * abs(theta) / self.true_risk(theta)

    def sample(self, rng: np.random.Generator, n: int) -> Array:
        return rng.integers(0, 2, size=n) * 2.0 - 1.0  # int64 * float is float64

    def evaluate(self, theta, samples):
        d = theta - samples  # a float theta or a (1,) one broadcasts against (k,) samples
        if isinstance(d, float):  # a float iterate and one float sample
            return d * d, 2.0 * d
        # add.reduce is what .sum() and np.mean call
        mean = float(np.add.reduce(2.0 * d)) / d.shape[0]
        return d * d, mean if isinstance(theta, float) else np.array([mean])

    # bound here and on LeastSquaresProblem because perfbench's tracer wraps
    # them in each class's __dict__
    costs, mean_gradient = Problem.costs, Problem.mean_gradient

    def subset(self, samples: Array, idx) -> Array:
        return samples[idx]


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

    def __init__(self, dim: int, condition_number: float, noise_std: float, seed: int):
        check_bounds(dim=dim, condition_number=condition_number, noise_std=noise_std)
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

    @property
    def block_draws(self) -> bool:
        # noiseless samples are one standard_normal fill; noise interleaves a
        # second draw after each call's features
        return self.noise_std == 0.0

    def finish(self, normals: Array):
        # a fresh features array, so the rows may be refilled; the targets of
        # these rows alone, as per-call draws: a taller gemv may round otherwise
        features = normals * self._feature_scale
        return features, features @ self.w_star

    def sample(self, rng: np.random.Generator, n: int):
        features, targets = self.finish(rng.standard_normal((n, self.dim)))
        if self.noise_std > 0.0:
            targets = targets + self.noise_std * rng.standard_normal(n)
        return features, targets

    def evaluate(self, theta: Array, samples) -> tuple[Array, Array]:
        features, targets = samples
        r = features @ theta - targets
        return r * r, (2.0 / r.shape[0]) * (features.T @ r)

    costs, mean_gradient = Problem.costs, Problem.mean_gradient


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

    def __init__(self, dim: int, n_classes: int, separation: float, seed: int,
                 test_per_class: int = 500):
        check_bounds(dim=dim, n_classes=n_classes, separation=separation,
                     test_per_class=test_per_class)
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

    def _log_probs(self, theta: Array, features: Array) -> Array:
        nw = self.n_classes * self.n_features  # the weights, row-major, then the biases
        logits = features @ theta[:nw].reshape(self.n_classes, self.n_features).T + theta[nw:]
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

    def test_metrics(self, theta) -> tuple[float, float]:
        """(mean test cost, test accuracy) on the fixed held-out set."""
        t = _as_theta(theta, self.dim)
        features, labels = self._test_set
        lp = self._log_probs(t, features)
        mean_cost = float(-lp[np.arange(labels.shape[0]), labels].mean())
        accuracy = float((lp.argmax(axis=1) == labels).mean())
        return mean_cost, accuracy
