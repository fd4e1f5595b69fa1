"""CV estimator and roll-off policy checks."""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sgdlab.diagnostics import POLICY_KINDS, RolloffPolicy, estimate_cv, smooth_cv
from sgdlab.errors import ConfigurationError, InsufficientDataError
from sgdlab.problems import RademacherProblem


class TestEstimateCv:
    def test_zero_variance(self):
        assert estimate_cv([5.0, 5.0, 5.0, 5.0]) == 0.0

    def test_needs_two_costs(self):
        with pytest.raises(InsufficientDataError):
            estimate_cv([1.0])

    def test_nonpositive_mean_flags_invalid(self):
        assert estimate_cv([-1.0, 1.0]) is None
        assert estimate_cv([0.0, 0.0]) is None

    def test_non_finite_ratio_is_none(self):
        # the squared deviations overflow: the std, and so the ratio, is inf
        with np.errstate(over="ignore"):
            assert estimate_cv([1.7e308, 1e300]) is None

    def test_uses_unbiased_std(self):
        costs = [1.0, 2.0, 4.0]
        assert estimate_cv(costs) == pytest.approx(np.std(costs, ddof=1) / np.mean(costs))

    @settings(max_examples=300, deadline=None)
    @given(c=arrays(np.float64, st.integers(2, 300),
                    elements=st.one_of(st.sampled_from([0.0, 1.0, 4.0]),
                                       st.floats(0.0, 1e6), st.floats(-1e3, 1e3))))
    def test_bit_identical_to_numpy_mean_and_std(self, c):
        # lengths 2-300 cross numpy's 8-wide unrolled and 128-element pairwise
        # summation blocks; few distinct values give zeros and ties
        cv = estimate_cv(c)
        mean, std = float(np.mean(c)), float(np.std(c, ddof=1))
        if mean > 0.0:
            assert cv.hex() == (std / mean).hex()
        else:
            assert cv is None

    @pytest.mark.parametrize("theta,expected", [(1.0, 1.0), (10.0, 20.0 / 101.0)])
    def test_matches_closed_form_on_large_batch(self, theta, expected):
        rng = np.random.default_rng(int(theta) + 40)
        problem = RademacherProblem()
        k = 10 ** 4
        cv = estimate_cv(problem.costs(np.array([theta]), problem.sample(rng, k)))
        # delta-method band: SE(cv_hat) ~ cv^2 / sqrt(k) for this cost
        assert abs(cv - expected) <= 4.0 * expected ** 2 / np.sqrt(k)

    @pytest.mark.parametrize("theta", [0.5, 2.0, 10.0])
    def test_mean_estimate_consistent_over_many_batches(self, theta):
        rng = np.random.default_rng(int(theta * 3) + 50)
        problem = RademacherProblem()
        m, k = 10 ** 4, 100
        xs = problem.sample(rng, m * k).reshape(m, k)
        costs = (theta - xs) ** 2
        cvs = costs.std(axis=1, ddof=1) / costs.mean(axis=1)
        truth = 2.0 * abs(theta) / (theta ** 2 + 1.0)
        assert abs(cvs.mean() - truth) <= 0.05 * truth

    def test_minibatch_mean_std_scales_as_sqrt_k(self):
        theta = 2.0
        rng = np.random.default_rng(60)
        problem = RademacherProblem()
        m = 10 ** 4
        stds = {}
        for k in (1, 10, 100):
            xs = problem.sample(rng, m * k).reshape(m, k)
            stds[k] = ((theta - xs) ** 2).mean(axis=1).std(ddof=1)
        for k in (10, 100):
            ratio = stds[k] / stds[1]
            assert abs(ratio - 1.0 / np.sqrt(k)) <= 0.05 / np.sqrt(k)


class TestRolloffPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RolloffPolicy(kind="bogus")
        with pytest.raises(ConfigurationError):
            RolloffPolicy(beta_max=1.0)
        with pytest.raises(ConfigurationError):
            RolloffPolicy(cv_low=2.0, cv_high=1.0)

    def test_linear_boundaries_and_midpoint(self):
        policy = RolloffPolicy(kind="cv_linear", beta_max=0.9, cv_low=0.1, cv_high=1.0)
        assert policy.beta(0.1) == 0.9
        assert policy.beta((0.1 + 1.0) / 2) == pytest.approx(0.45)
        assert policy.beta(1.0) == 0.0
        assert policy.beta(5.0) == 0.0

    def test_threshold_closed_on_high_side(self):
        policy = RolloffPolicy(kind="cv_threshold", beta_max=0.8, cv_high=1.0)
        assert policy.beta(0.999) == 0.8
        assert policy.beta(1.0) == 0.0

    def test_constant_ignores_cv(self):
        policy = RolloffPolicy(kind="constant", beta_max=0.7)
        assert policy.beta(0.0) == 0.7
        assert policy.beta(100.0) == 0.7
        assert policy.beta(None) == 0.7

    def test_invalid_estimate_falls_back_to_sgd(self):
        cv = estimate_cv([-1.0, 1.0])
        for kind in ("cv_threshold", "cv_linear"):
            assert RolloffPolicy(kind=kind).beta(cv) == 0.0

    @pytest.mark.parametrize("kind", ["constant", "cv_threshold", "cv_linear"])
    def test_monotone_and_bounded(self, kind):
        policy = RolloffPolicy(kind=kind, beta_max=0.9, cv_low=0.2, cv_high=1.5)
        rng = np.random.default_rng(70)
        cvs = np.sort(rng.uniform(0.0, 3.0, size=200))
        betas = [policy.beta(c) for c in cvs]
        assert all(0.0 <= b <= 0.9 for b in betas)
        assert all(b1 >= b2 for b1, b2 in zip(betas, betas[1:]))

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(POLICY_KINDS),
           beta_max=st.floats(0.0, 1.0, exclude_max=True),
           bounds=st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)).filter(
               lambda b: b[0] < b[1]),
           cvs=st.lists(st.floats(0.0, 2e3), min_size=2, max_size=20))
    @example(kind="cv_linear", beta_max=0.9, bounds=(0.1, 1.0), cvs=[0.1, 0.55, 1.0])
    # 0.1 * 3.0 / 3.0 rounds to 0.10000000000000002: the ramp starts above beta_max
    @example(kind="cv_linear", beta_max=0.1, bounds=(0.0, 3.0), cvs=[0.0, 1e-300])
    def test_beta_never_rises_as_cv_rises(self, kind, beta_max, bounds, cvs):
        policy = RolloffPolicy(kind=kind, beta_max=beta_max, cv_low=bounds[0],
                               cv_high=bounds[1])
        betas = [policy.beta(cv) for cv in sorted(cvs)]
        assert all(0.0 <= b <= beta_max for b in betas)
        assert all(b1 >= b2 for b1, b2 in zip(betas, betas[1:]))


class TestSmoothCv:
    """History entries are raw CVs, None where the estimate was invalid; the
    window is the history's maxlen, as in the run loop's tracker."""

    def test_window_one_returns_last(self):
        assert smooth_cv(deque([0.3, 0.7], maxlen=1)) == 0.7

    def test_median_robust_to_outlier(self):
        assert smooth_cv(deque([0.1, 100.0, 0.12], maxlen=3)) == 0.12

    def test_constant_history(self):
        for window in (1, 3, 7, 50):
            assert smooth_cv(deque([0.4] * 7, maxlen=window)) == 0.4

    def test_skips_invalid_estimates(self):
        assert smooth_cv(deque([0.2, None], maxlen=2)) == 0.2

    def test_no_valid_history_raises(self):
        assert smooth_cv(deque([None, None], maxlen=5)) is None
        assert smooth_cv(deque([], maxlen=3)) is None

    @settings(max_examples=300, deadline=None)
    @given(cvs=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                  st.floats(0.0, 1e3, allow_nan=False),
                                  st.none()), min_size=1, max_size=40),
           window=st.integers(1, 50))
    @example(cvs=[0.3, 0.1, 0.2, 0.4], window=4)  # even count
    @example(cvs=[0.3, 0.1, 0.2], window=3)       # odd count
    def test_equals_numpy_median(self, cvs, window):
        # None stands for an invalid estimate, which the median skips
        history = deque(cvs, maxlen=window)
        valid = [cv for cv in cvs[-window:] if cv is not None]
        if not valid:
            assert smooth_cv(history) is None
        else:
            assert smooth_cv(history).hex() == float(np.median(valid)).hex()
