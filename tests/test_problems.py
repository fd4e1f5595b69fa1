"""Problem-level oracle checks: closed forms, gradients vs finite differences,
sampling statistics, and minibatch contracts."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from quadratic_oracle import risk_gradient
from sgdlab.errors import ConfigurationError
from sgdlab.problems import (LeastSquaresProblem, LogisticBlobsProblem,
                             RademacherProblem, draw_minibatch,
                             evaluate_minibatch)


def fd_mean_gradient(problem, theta, samples, h=1e-5):
    """Central finite difference of the mean cost; the independent gradient oracle."""
    theta = np.asarray(theta, dtype=float)
    fd = np.zeros_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        up = problem.costs(theta + e, samples).mean()
        down = problem.costs(theta - e, samples).mean()
        fd[j] = (up - down) / (2.0 * h)
    return fd


def rademacher_evaluate(theta, x):
    """(cost, gradient) of one sample x at a scalar theta, from Problem.evaluate."""
    costs, grad = RademacherProblem().evaluate(np.array([theta]), np.array([x]))
    return costs[0], grad[0]


class TestRademacher:
    def test_sample_values_and_mean(self):
        rng = np.random.default_rng(123)
        xs = RademacherProblem().sample(rng, 10 ** 6)
        assert np.all(np.abs(xs) == 1.0)
        assert abs(xs.mean()) <= 0.004  # 3 sigma band at n = 1e6

    def test_sample_deterministic_by_seed_and_index(self):
        sample = RademacherProblem().sample
        a = [sample(np.random.default_rng(7), 1)[0] for _ in range(1)]
        b = [sample(np.random.default_rng(7), 1)[0] for _ in range(1)]
        assert a == b
        rng1, rng2 = np.random.default_rng(99), np.random.default_rng(99)
        draws1 = [sample(rng1, 1)[0] for _ in range(50)]
        draws2 = [sample(rng2, 1)[0] for _ in range(50)]
        assert draws1 == draws2

    @pytest.mark.parametrize("theta,x,expected", [
        (1.0, 1.0, 0.0),
        (0.0, -1.0, 1.0),
        (3.0, 1.0, 4.0),
    ])
    def test_cost_values(self, theta, x, expected):
        assert rademacher_evaluate(theta, x)[0] == expected

    @pytest.mark.parametrize("theta,x,expected", [
        (1.0, 1.0, 0.0),
        (0.0, -1.0, 2.0),
    ])
    def test_grad_values(self, theta, x, expected):
        assert rademacher_evaluate(theta, x)[1] == expected

    def test_grad_matches_finite_difference(self):
        h = 1e-5
        fd = (rademacher_evaluate(0.7 + h, 1.0)[0]
              - rademacher_evaluate(0.7 - h, 1.0)[0]) / (2 * h)
        assert abs(fd - rademacher_evaluate(0.7, 1.0)[1]) < 1e-6

    @settings(max_examples=300, deadline=None)
    @given(theta=st.floats(-1e150, 1e150),
           samples=arrays(np.float64, st.integers(1, 300),
                          elements=st.sampled_from([-1.0, 1.0])))
    @example(theta=-0.0, samples=np.array([1.0]))
    @example(theta=-0.0, samples=np.array([-1.0]))
    @example(theta=1.0, samples=np.array([1.0]))
    @example(theta=-1.0, samples=np.array([-1.0, -1.0]))
    def test_evaluate_bit_identical_to_reference_formulas(self, theta, samples):
        # the formulas evaluate used before its broadcast, add.reduce and
        # k = 1 shortcuts
        th = np.array([theta])
        costs, grad = RademacherProblem().evaluate(th, samples)
        d = th[0] - samples
        assert costs.tobytes() == (d * d).tobytes()
        assert grad.tobytes() == np.array(
            [float((2.0 * d).sum()) / samples.shape[0]]).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_float_theta_bit_identical_to_array_theta(self, k):
        # the run loop's float iterate: a cost array and a float mean gradient
        # for array samples, a float cost and gradient for one float sample
        problem = RademacherProblem()
        samples = problem.sample(np.random.default_rng(k), k)
        costs, grad = problem.evaluate(np.array([-2.5]), samples)
        f_costs, f_grad = problem.evaluate(-2.5, samples)
        assert type(f_grad) is float
        assert f_costs.tobytes() == costs.tobytes() and [f_grad] == grad.tolist()
        if k == 1:
            cost, g = problem.evaluate(-2.5, float(samples[0]))
            assert type(cost) is type(g) is float
            assert [cost, g] == costs.tolist() + grad.tolist()
        assert problem.true_risk(-2.5) == problem.true_risk(np.array([-2.5])) == 7.25

    def test_oracle_closed_forms(self):
        p = RademacherProblem()
        assert p.true_cv(0.0) == 0.0
        assert p.true_cv(1.0) == 1.0
        assert abs(p.true_cv(10.0) - 20.0 / 101.0) < 1e-15
        assert abs(p.true_risk(np.zeros(1)) - p.min_risk) < 1e-12

    def test_risk_is_the_rounded_square(self):
        # x ** 2 goes to libm pow, which rounds this square 1 ulp off on some
        # CPUs and libcs; x * x is the correctly rounded product everywhere
        x, p = -5553.341962716594, RademacherProblem()
        assert p.true_risk(x) == p.true_risk(np.array([x])) == x * x + 1.0
        assert p.true_cv(x) == 2.0 * abs(x) / (x * x + 1.0)

    @pytest.mark.parametrize("theta", [0.1, 1.0, 10.0])
    def test_empirical_mean_cost(self, theta):
        rng = np.random.default_rng(int(theta * 1000) + 1)
        problem = RademacherProblem()
        n = 10 ** 6
        costs = problem.costs(np.array([theta]), problem.sample(rng, n))
        sigma = 2.0 * abs(theta)
        assert abs(costs.mean() - (theta ** 2 + 1.0)) <= 4.0 * sigma / np.sqrt(n)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 10.0])
    def test_empirical_std_cost(self, theta):
        rng = np.random.default_rng(int(theta * 7) + 2)
        problem = RademacherProblem()
        costs = problem.costs(np.array([theta]), problem.sample(rng, 10 ** 6))
        assert abs(costs.std(ddof=1) - 2.0 * abs(theta)) <= 0.01 * 2.0 * abs(theta)

    def test_deviation_has_zero_mean(self):
        # mean of c(theta, x) - e(theta) within the 4 sigma Monte Carlo band of 0
        rng = np.random.default_rng(5)
        problem = RademacherProblem()
        theta = np.array([2.0])
        n = 10 ** 6
        costs = problem.costs(theta, problem.sample(rng, n))
        deviation = costs - problem.true_risk(theta)
        assert abs(deviation.mean()) <= 4.0 * (2.0 * 2.0) / np.sqrt(n)


class TestLeastSquares:
    def test_rejects_bad_condition_number(self):
        with pytest.raises(ConfigurationError):
            LeastSquaresProblem(4, 0.5, 0.0, seed=0)

    def test_eigenvalues_log_spaced(self):
        p = LeastSquaresProblem(5, 100.0, 0.0, seed=0)
        assert p.eigenvalues[0] == 1.0
        assert p.eigenvalues[-1] == pytest.approx(100.0)
        ratios = p.eigenvalues[1:] / p.eigenvalues[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_interpolation_at_minimizer(self):
        p = LeastSquaresProblem(6, 50.0, 0.0, seed=3)
        rng = np.random.default_rng(4)
        costs = p.costs(p.w_star, p.sample(rng, 1000))
        assert np.all(costs == 0.0)

    def test_risk_at_minimizer_matches_monte_carlo(self):
        noise = 0.1
        p = LeastSquaresProblem(10, 1000.0, noise, seed=1)
        assert p.true_risk(p.w_star) == pytest.approx(noise ** 2)
        rng = np.random.default_rng(2)
        n = 10 ** 6
        costs = p.costs(p.w_star, p.sample(rng, n))
        # cost at the minimizer is noise^2 * chi^2_1: std = sqrt(2) * noise^2
        band = 4.0 * np.sqrt(2.0) * noise ** 2 / np.sqrt(n)
        assert abs(costs.mean() - noise ** 2) <= band

    def test_deviation_has_zero_mean(self):
        p = LeastSquaresProblem(4, 20.0, 0.3, seed=9)
        rng = np.random.default_rng(10)
        theta = p.w_star + 0.5
        n = 10 ** 6
        costs = p.costs(theta, p.sample(rng, n))
        risk = p.true_risk(theta)
        band = 4.0 * np.sqrt(2.0) * risk / np.sqrt(n)  # chi-square cost std
        assert abs(costs.mean() - risk) <= band

    def test_gradient_matches_finite_differences(self):
        p = LeastSquaresProblem(8, 100.0, 0.2, seed=5)
        rng = np.random.default_rng(6)
        samples = p.sample(rng, 40)
        for trial in range(5):
            theta = np.random.default_rng(trial).standard_normal(p.dim)
            g = p.mean_gradient(theta, samples)
            fd = fd_mean_gradient(p, theta, samples)
            assert np.linalg.norm(fd - g) <= 1e-6 * max(np.linalg.norm(g), 1e-12)

    def test_risk_gradient_matches_risk(self):
        p = LeastSquaresProblem(5, 10.0, 0.0, seed=2)
        theta = np.linspace(-1, 1, 5)
        h = 1e-6
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            fd = (p.true_risk(theta + e) - p.true_risk(theta - e)) / (2 * h)
            assert fd == pytest.approx(risk_gradient(p, theta)[j], rel=1e-6, abs=1e-8)


class TestLogistic:
    def test_rejects_bad_class_count(self):
        with pytest.raises(ConfigurationError):
            LogisticBlobsProblem(4, 1, 1.0, seed=0)

    def test_uniform_model_cost(self):
        p = LogisticBlobsProblem(6, 5, 2.0, seed=1)
        rng = np.random.default_rng(2)
        costs = p.costs(np.zeros(p.dim), p.sample(rng, 200))
        assert np.allclose(costs, np.log(5), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        p = LogisticBlobsProblem(7, 3, 2.5, seed=3)
        rng = np.random.default_rng(4)
        samples = p.sample(rng, 30)
        for trial in range(5):
            theta = 0.4 * np.random.default_rng(100 + trial).standard_normal(p.dim)
            g = p.mean_gradient(theta, samples)
            fd = fd_mean_gradient(p, theta, samples)
            assert np.linalg.norm(fd - g) <= 1e-6 * max(np.linalg.norm(g), 1e-12)

    def test_zero_separation_gives_chance_accuracy(self):
        from sgdlab.harness import ExperimentConfig, run_experiment
        cfg = ExperimentConfig.from_dict(dict(
            problem="logistic", dim=6, n_classes=4, separation=0.0, problem_seed=5,
            theta0=0.0, optimizer="momentum", beta=0.5, k=20, alpha=0.05,
            epochs=3, train_size=600, eval_every=10, seed=6))
        _, summary = run_experiment(cfg)
        n_test = 4 * 500
        band = 3.0 * np.sqrt(0.25 * 0.75 / n_test)
        assert abs(summary.final_accuracy - 0.25) <= band

    def test_test_set_is_fixed(self):
        p1 = LogisticBlobsProblem(5, 3, 2.0, seed=11)
        p2 = LogisticBlobsProblem(5, 3, 2.0, seed=11)
        theta = np.random.default_rng(0).standard_normal(p1.dim)
        assert p1.test_metrics(theta) == p2.test_metrics(theta)


MAKE_PROBLEMS = [
    lambda: RademacherProblem(),
    lambda: LeastSquaresProblem(5, 30.0, 0.2, seed=7),
    lambda: LogisticBlobsProblem(4, 3, 2.0, seed=8),
]


def separate_costs_and_gradient(problem, theta, samples):
    """Costs and mean gradient computed in two passes, as each problem did
    before `evaluate` fused them; the reference for bit-identity."""
    if isinstance(problem, RademacherProblem):
        return ((theta[0] - samples) ** 2,
                np.array([float(np.mean(2.0 * (theta[0] - samples)))]))
    if isinstance(problem, LeastSquaresProblem):
        features, targets = samples
        r = features @ theta - targets
        costs = r * r
        r = features @ theta - targets
        return costs, (2.0 / r.shape[0]) * (features.T @ r)
    features, labels = samples
    n = labels.shape[0]
    costs = -problem._log_probs(theta, features)[np.arange(n), labels]
    probs = np.exp(problem._log_probs(theta, features))
    probs[np.arange(n), labels] -= 1.0
    return costs, np.concatenate([(probs.T @ features / n).ravel(), probs.mean(axis=0)])


class TestMinibatch:
    def test_k1_mean_gradient_is_single_gradient(self):
        p = RademacherProblem()
        rng = np.random.default_rng(1)
        batch = draw_minibatch(p, [2.0], 1, rng)
        x = batch.samples[0]
        assert batch.mean_gradient[0] == 2.0 * (2.0 - x)

    def test_large_batch_cost_statistics(self):
        p = RademacherProblem()
        rng = np.random.default_rng(2)
        k = 10 ** 6
        batch = draw_minibatch(p, [2.0], k, rng)
        assert batch.costs.shape[0] == k
        assert abs(batch.costs.mean() - 5.0) <= 4.0 * 4.0 / np.sqrt(k)
        assert abs(batch.costs.std(ddof=1) - 4.0) <= 0.01 * 4.0

    @pytest.mark.parametrize("theta,message", [
        ([5.0, 1.0], r"parameter vector has shape \(2,\), expected \(1,\)"),
        ([float("nan")], "parameter vector has non-finite entries"),
    ])
    def test_bad_theta_is_a_config_error(self, theta, message):
        p = RademacherProblem()
        with pytest.raises(ConfigurationError, match=message):
            evaluate_minibatch(p, theta, p.sample(np.random.default_rng(0), 3))

    def test_reproducible_given_seed(self):
        p = LeastSquaresProblem(4, 10.0, 0.1, seed=0)
        b1 = draw_minibatch(p, np.zeros(4), 16, np.random.default_rng(33))
        b2 = draw_minibatch(p, np.zeros(4), 16, np.random.default_rng(33))
        assert np.array_equal(b1.costs, b2.costs)
        assert np.array_equal(b1.mean_gradient, b2.mean_gradient)
        assert np.array_equal(b1.samples[0], b2.samples[0])

    @pytest.mark.parametrize("make", MAKE_PROBLEMS)
    def test_mean_gradient_matches_per_sample_loop(self, make):
        problem = make()
        rng = np.random.default_rng(9)
        theta = 0.3 * np.random.default_rng(10).standard_normal(problem.dim)
        samples = problem.sample(rng, 13)
        batch = evaluate_minibatch(problem, theta, samples)
        acc = np.zeros(problem.dim)
        for i in range(13):
            single = problem.subset(samples, np.array([i]))
            acc += problem.mean_gradient(theta, single)
        loop_mean = acc / 13
        rel = np.linalg.norm(loop_mean - batch.mean_gradient) / max(
            np.linalg.norm(loop_mean), 1e-300)
        assert rel <= 1e-12
        assert batch.costs.shape == (13,)

    @pytest.mark.parametrize("k", [1, 13, 1000])
    @pytest.mark.parametrize("make", MAKE_PROBLEMS)
    def test_evaluate_bit_identical_to_separate_passes(self, make, k):
        problem = make()
        theta = 0.3 * np.random.default_rng(11).standard_normal(problem.dim)
        samples = problem.sample(np.random.default_rng(12), k)
        costs, grad = problem.evaluate(theta, samples)
        ref_costs, ref_grad = separate_costs_and_gradient(problem, theta, samples)
        assert costs.shape == (k,) and grad.shape == (problem.dim,)
        assert np.array_equal(costs, ref_costs)
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(problem.costs(theta, samples), costs)
        assert np.array_equal(problem.mean_gradient(theta, samples), grad)
        batch = evaluate_minibatch(problem, theta, samples)
        assert np.array_equal(batch.costs, costs)
        assert np.array_equal(batch.mean_gradient, grad)

    def test_block_draws_only_where_draws_do_not_interleave(self):
        # noisy least squares draws noise after each call's features, and
        # logistic draws labels before them
        assert RademacherProblem().block_draws
        assert LeastSquaresProblem(3, 10.0, 0.0, seed=0).block_draws
        assert not LeastSquaresProblem(3, 10.0, 0.1, seed=0).block_draws
        assert not LogisticBlobsProblem(3, 2, 1.0, seed=0).block_draws
