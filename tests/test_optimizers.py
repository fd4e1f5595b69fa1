"""Step-function contracts: hand-evaluated updates, the SGD/momentum
equivalence, secant algebra, and hybrid scheduling."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sgdlab.errors import ConfigurationError
from sgdlab.harness import ExperimentConfig, _run_loop
from sgdlab.optimizers import (AlphaSchedule, SwitchPolicy, step_momentum,
                               step_secant, step_sgd)
from sgdlab.problems import RademacherProblem, draw_minibatch


class TestMomentumStep:
    def test_hand_evaluated_update(self):
        # theta=2, single sample x=1: gradient 2(2-1)=2; alpha=0.1, beta=0.9, v=0
        theta = np.array([2.0])
        new_theta, new_v = step_momentum(theta, np.zeros(1), np.array([2.0]),
                                         0.1, 0.9)
        assert new_v[0] == 2.0
        assert new_theta[0] == pytest.approx(1.8)

    def test_beta_zero_collapses_to_sgd(self):
        theta = np.array([1.0, -2.0])
        g = np.array([0.5, 0.25])
        new_theta, _ = step_momentum(theta, np.zeros(2), g, 0.2, 0.0)
        assert np.array_equal(new_theta, theta - 0.2 * g)

    def test_zero_gradient_fixed_point(self):
        theta = np.array([3.0])
        new_theta, _ = step_momentum(theta, np.zeros(1), np.array([0.0]),
                                     0.5, 0.9)
        assert new_theta[0] == 3.0


class TestSgdStep:
    def test_hand_evaluated_update(self):
        # theta=2, x=1, alpha=0.25: theta' = 2 - 0.25 * 2 = 1.5
        new_theta = step_sgd(np.array([2.0]), np.array([2.0]), 0.25)
        assert new_theta[0] == 1.5

    def test_vanishing_learning_rate_keeps_theta(self):
        theta = np.array([2.0])
        new_theta = step_sgd(theta, np.array([2.0]), 1e-300)
        assert new_theta[0] == theta[0]

    def test_bit_identical_to_momentum_beta_zero_over_run(self):
        problem = RademacherProblem()
        rng_a, rng_b = np.random.default_rng(44), np.random.default_rng(44)
        theta_a = np.array([3.0])
        theta_b = np.array([3.0])
        v = np.zeros(1)
        for _ in range(100):
            batch_a = draw_minibatch(problem, theta_a, 2, rng_a)
            batch_b = draw_minibatch(problem, theta_b, 2, rng_b)
            theta_a = step_sgd(theta_a, batch_a.mean_gradient, 0.05)
            theta_b, v = step_momentum(theta_b, v, batch_b.mean_gradient,
                                       0.05, 0.0)
            assert theta_a.tobytes() == theta_b.tobytes()


class TestSecantStep:
    def test_deterministic_limit_one_step_exact(self):
        # both samples forced to 0: gradients 2*theta; lands on the minimizer
        theta_new = step_secant(5.0, 3.0, 2.0 * 5.0, 2.0 * 3.0)
        assert theta_new == 0.0

    def test_hand_evaluated_equal_samples(self):
        # thetas (4, 2), both samples 1: explicit form gives (2*1 - 4*1)/(2-1-4+1) = 1
        theta_new = step_secant(4.0, 2.0, 2.0 * (4.0 - 1.0), 2.0 * (2.0 - 1.0))
        assert theta_new == 1.0

    def test_equal_iterates_stay_fixed(self):
        theta_new = step_secant(2.5, 2.5, 1.0, 7.0)
        assert theta_new == 2.5

    def test_zero_gradient_difference_stays_fixed(self):
        theta_new = step_secant(1.0, 4.0, 3.0, 3.0)
        assert theta_new == 4.0

    def test_one_step_exactness_random_starts(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            t2, t1 = rng.uniform(-50.0, 50.0, size=2)
            if t1 == t2:
                continue
            theta_new = step_secant(t2, t1, 2.0 * t2, 2.0 * t1)
            assert abs(theta_new) <= 1e-12

    def test_generic_agrees_with_explicit_form(self):
        # nondegenerate: denominator bounded away from 0 so the update itself
        # is O(10) and 1e-12 absolute agreement is meaningful
        from sgdlab.verification import explicit_secant_update
        rng = np.random.default_rng(56)
        checked = 0
        while checked < 10 ** 4:
            t2, t1 = rng.uniform(-10.0, 10.0, size=2)
            x2, x1 = rng.integers(0, 2, size=2) * 2.0 - 1.0
            denom = t1 - x1 - t2 + x2
            if t1 == t2 or abs(denom) < 0.5:
                continue
            theta_new = step_secant(t2, t1, 2.0 * (t2 - x2), 2.0 * (t1 - x1))
            assert abs(theta_new - explicit_secant_update(t2, t1, x2, x1)) <= 1e-12
            checked += 1


# few distinct values make equal iterates, equal gradients and +/-0.0 pairs
# common; huge finite iterates overflow the update to a non-finite value
ITERATES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(
    allow_nan=False, allow_infinity=False)
GRADIENTS = st.sampled_from([0.0, -0.0, 2.0, -2.0]) | st.floats()


def scalar_secant_step(t2, t1, g2, g1):
    """theta' of one secant step in plain float arithmetic: the reference the
    array step must match."""
    denom = g1 - g2
    return t1 if t1 == t2 or denom == 0.0 else t1 - g1 * (t1 - t2) / denom


class TestArraySecantStep:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(ITERATES, ITERATES, GRADIENTS, GRADIENTS),
                         min_size=1, max_size=12))
    @example(rows=[(2.5, 2.5, 1.0, 7.0), (1.0, 4.0, 3.0, 3.0), (-0.0, 0.0, 2.0, -2.0),
                   (4.0, 2.0, 0.0, -0.0), (5.0, 3.0, 10.0, 6.0)])
    @example(rows=[(1.0, 2.0, 0.0, 1.0), (-1e308, 1e308, 1.0, 2.0)])
    def test_equals_scalar_step_elementwise(self, rows):
        """An array step moves each element exactly as the scalar float
        formula would where that is finite, and returns a non-finite element,
        without raising, where the scalar step overflows."""
        t2, t1, g2, g1 = (np.array(column) for column in zip(*rows))
        theta = step_secant(t2, t1, g2, g1)
        for th, row in zip(theta, rows):
            expected = scalar_secant_step(*row)
            if math.isfinite(expected):
                # tobytes tells -0.0 from 0.0
                assert th.tobytes() == np.float64(expected).tobytes()
            else:
                assert not np.isfinite(th)


def hybrid_run(theta0, threshold, rng, n_iterations, switch_kind="abs_theta"):
    """A `hybrid` config's run of n_iterations at the 1/(2i) rate, read from the
    run loop: (iterates, samples spent at each, index of the first SGD iterate
    or None, diverged). theta0 and the free second point come first, at 0
    samples; a secant step yields rate 0, an SGD step its rate."""
    config = ExperimentConfig(theta0=theta0, optimizer="hybrid", switch_kind=switch_kind,
                              switch_threshold=threshold, alpha=0.5,
                              alpha_schedule="inverse_t", epoch_size=n_iterations)
    steps = list(_run_loop(config, RademacherProblem(), rng, every_iterate=True))
    iterates = np.array([step[1] for step in steps])
    first_sgd = next((i for i, step in enumerate(steps) if step[7] > 0.0), None)
    return iterates, [step[2] for step in steps], first_sgd, steps[-1][-1]


class TestHybrid:
    def test_switch_threshold_must_be_finite(self):
        with pytest.raises(ConfigurationError, match="switch threshold must be finite, got nan"):
            SwitchPolicy("abs_theta", float("nan"))

    def test_never_firing_switch_is_pure_secant(self):
        problem = RademacherProblem()
        iterates, _, first_sgd, _ = hybrid_run(200.0, 0.0, np.random.default_rng(77), 50)
        assert first_sgd is None
        # replay the samples as a bare secant recursion
        rng = np.random.default_rng(77)
        theta = 200.0
        second = 100.0
        prev, prev_g = theta, 2.0 * (theta - problem.sample(rng, 1)[0])
        theta = second
        expect = [prev, theta]
        for _ in range(50):
            g = 2.0 * (theta - problem.sample(rng, 1)[0])
            theta, prev, prev_g = step_secant(prev, theta, prev_g, g), theta, g
            expect.append(theta)
        assert np.array_equal(iterates, np.array(expect))

    def test_immediate_switch_is_pure_sgd(self):
        problem = RademacherProblem()
        iterates, _, first_sgd, _ = hybrid_run(0.5, 1.0, np.random.default_rng(78), 30)
        assert first_sgd == 1  # theta0 has no free second point after it
        rng = np.random.default_rng(78)
        theta = np.array([0.5])
        expect = [0.5]
        for i in range(1, 31):
            batch = draw_minibatch(problem, theta, 1, rng)
            theta = step_sgd(theta, batch.mean_gradient, 0.5 / i)
            expect.append(float(theta[0]))
        assert np.array_equal(iterates, np.array(expect))

    def test_secant_phase_short_from_poor_start(self):
        # from theta0=100, the |theta| <= 1 switch fires within 3 secant steps
        # in the median (iterates[0] is theta0, iterates[1] the free half point)
        lengths = []
        for seed in range(1000):
            _, _, first_sgd, _ = hybrid_run(100.0, 1.0, np.random.default_rng(1000 + seed), 60)
            assert first_sgd is not None and first_sgd >= 3
            lengths.append(first_sgd - 2)  # number of secant steps taken
        assert np.median(lengths) <= 3

    def test_sample_accounting(self):
        iterates, samples, _, diverged = hybrid_run(1000.0, 1.0, np.random.default_rng(79), 20)
        # theta0 and the free second point cost nothing; first secant iterate
        # costs the init gradient plus one fresh sample
        assert samples[0] == 0 and samples[1] == 0 and samples[2] == 2
        assert np.all(np.diff(samples) >= 0)
        assert not diverged
        assert np.all(np.isfinite(iterates))

    def test_cv_switch_policy_fires(self):
        _, _, first_sgd, _ = hybrid_run(500.0, 0.5, np.random.default_rng(80), 400,
                                        switch_kind="cv")
        assert first_sgd is not None


class TestAlphaSchedule:
    def test_constant_and_inverse_t(self):
        assert AlphaSchedule("constant", 0.3).alpha(17) == 0.3
        sched = AlphaSchedule("inverse_t", 0.5)
        assert sched.alpha(1) == 0.5
        assert sched.alpha(10) == 0.05

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AlphaSchedule("bogus", 0.1)
        with pytest.raises(ConfigurationError):
            AlphaSchedule("constant", 0.0)
        with pytest.raises(ConfigurationError):
            AlphaSchedule("constant", 0.1).alpha(0)


from quadratic_oracle import quadratic_iters_to_gap


class TestDeterministicAcceleration:
    def _tuned_iters(self, kappa, dim=10):
        lam = np.geomspace(1.0, kappa, dim)
        _, gd = quadratic_iters_to_gap(
            lam, np.geomspace(1e-5, 1.0 / kappa, 20), [0.0], 1e-6, cap=60000)
        _, hb = quadratic_iters_to_gap(
            lam, np.geomspace(1e-4, 4.0 / kappa, 12),
            [0.8, 0.85, 0.9, 0.92, 0.95, 0.97], 1e-6, cap=8000)
        return int(gd.min()), int(hb.min())

    def test_momentum_beats_gd_and_gap_grows_with_conditioning(self):
        gd_100, hb_100 = self._tuned_iters(100.0)
        gd_1000, hb_1000 = self._tuned_iters(1000.0)
        assert hb_100 < gd_100
        assert hb_1000 < gd_1000
        assert gd_1000 / hb_1000 > gd_100 / hb_100
