"""Verification-oracle mechanics: pass rules, determinism, report format, and
the closed-form cross-checks at reduced sample sizes."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from monte_carlo_oracle import reference_cv_formula, reference_minibatch_scaling
from secant_absorption_oracle import reference_secant_absorption
from sgdlab.errors import ConfigurationError
from sgdlab.harness import ExperimentConfig
from sgdlab.problems import BLOCK_COORDINATES
from sgdlab.verification import (DEFAULT_SEED, OracleReport, REPORT_HEADER, SECANT_CAP,
                                 START_SPAN, UNIT_BALL_CAP, explicit_secant_update,
                                 format_report, run_hybrid, secant_trials, unit_ball_counts,
                                 verify_cv_asymptote, verify_cv_formula,
                                 verify_hybrid_advantage,
                                 verify_minibatch_scaling,
                                 verify_secant_absorption, write_report)


def unit_ball_run(theta0, rng, optimizer="hybrid", coefficient=0.5):
    """The unit-ball count of the `hybrid` or `sgd` config unit_ball_counts runs."""
    cap = SECANT_CAP if optimizer == "hybrid" else UNIT_BALL_CAP
    return run_hybrid(ExperimentConfig(theta0=theta0, optimizer=optimizer, alpha=coefficient,
                                       alpha_schedule="inverse_t", epoch_size=cap), rng)


class TestClaimPasses:
    def test_within(self):
        assert OracleReport("x", 1.01, 1.0, 0.02, "within", 1).passed
        assert not OracleReport("x", 1.03, 1.0, 0.02, "within", 1).passed

    def test_at_least(self):
        assert OracleReport("x", 0.49, 0.5, 0.015, "at_least", 1).passed
        assert not OracleReport("x", 0.47, 0.5, 0.015, "at_least", 1).passed

    def test_below_is_strict(self):
        assert OracleReport("x", 0.99, 1.0, 0.0, "below", 1).passed
        assert not OracleReport("x", 1.0, 1.0, 0.0, "below", 1).passed

    def test_unknown_comparison(self):
        with pytest.raises(ValueError):
            OracleReport("x", 1.0, 1.0, 0.0, "near", 1).passed


class TestExplicitSecant:
    def test_equal_samples_equal_to_that_sample(self):
        assert explicit_secant_update(4.0, 2.0, 1.0, 1.0) == 1.0
        assert explicit_secant_update(4.0, 2.0, -1.0, -1.0) == -1.0

    def test_zero_samples_reach_zero(self):
        assert explicit_secant_update(5.0, 3.0, 0.0, 0.0) == 0.0

    def test_degenerate_keeps_previous(self):
        assert explicit_secant_update(2.0, 2.0, 1.0, -1.0) == 2.0
        # denominator exactly zero with distinct thetas
        assert explicit_secant_update(4.0, 2.0, 1.0, -1.0) == 2.0

    def test_floats_come_back_as_0d_arrays(self):
        # the exactly zero denominator included: no ZeroDivisionError
        for args in [(4.0, 2.0, 1.0, 1.0), (4.0, 2.0, 1.0, -1.0), (2.0, 2.0, 1.0, -1.0)]:
            got = explicit_secant_update(*args)
            assert isinstance(got, np.ndarray) and got.shape == ()

    def test_arrays_match_scalars_elementwise(self):
        cases = [(4.0, 2.0, 1.0, 1.0), (5.0, 3.0, 0.0, 0.0), (2.0, 2.0, 1.0, -1.0),
                 (4.0, 2.0, 1.0, -1.0), (-3.5, 7.25, 1.0, -1.0), (-0.0, 0.0, 1.0, 1.0)]
        got = explicit_secant_update(*(np.array(c) for c in zip(*cases)))
        expected = np.array([explicit_secant_update(*c) for c in cases])
        assert got.tobytes() == expected.tobytes()


class TestCvFormula:
    def test_all_pass_at_reduced_n(self):
        reports = verify_cv_formula(n=10 ** 5, seed=1)
        assert all(r.passed for r in reports)

    def test_theta_zero_is_exact(self):
        report = verify_cv_formula(thetas=(0.0,), n=10 ** 4, seed=2)[0]
        assert report.statistic == 0.0 and report.expected == 0.0
        assert report.passed

    # costs that overflow, a spread that overflows, and NaN costs: none gives
    # a statistic for the report to judge, and numpy stays quiet
    @pytest.mark.parametrize("theta", [1e200, 1e153, float("nan")])
    def test_theta_without_an_estimate_is_a_value_error(self, theta):
        with pytest.raises(ValueError, match=re.escape(f"no CV estimate at theta={theta:g}:")):
            verify_cv_formula(thetas=(0.5, theta), n=1000)

    def test_deterministic_given_seed(self):
        a = verify_cv_formula(n=10 ** 4, seed=3)
        b = verify_cv_formula(n=10 ** 4, seed=3)
        assert a == b

    def test_asymptote(self):
        assert all(r.passed for r in verify_cv_asymptote())


def sized_call_draws(rng, n_trials, n_steps):
    """`secant_trials`' start pairs and samples, drawn trial by trial with one
    sized `integers` call for each trial's signs."""
    starts, xs = np.empty((2, n_trials)), np.empty((n_steps + 1, n_trials))
    for i in range(n_trials):
        starts[:, i] = rng.uniform(-START_SPAN, START_SPAN, size=2)
        while starts[1, i] == starts[0, i]:
            starts[1, i] = rng.uniform(-START_SPAN, START_SPAN)
        xs[:, i] = rng.integers(0, 2, size=n_steps + 1) * 2 - 1
    return starts, xs


def assert_same_draws(got, want):
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def drawn_with(monkeypatch, claim, **kwargs):
    """A claim's reports and the one generator it drew them from."""
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(default_rng(seed)) or made[-1])
    reports = claim(**kwargs)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    (rng,) = made
    return reports, rng


def assert_same_draws_and_reports(got, want):
    """Every report field bit for bit, and the generator where the one-draw
    reference left it: same state, same next draw."""
    (reports, rng), (ref_reports, ref_rng) = got, want
    assert repr(reports) == repr(ref_reports)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.integers(0, 2) == ref_rng.integers(0, 2)


def traced_peak(claim, **kwargs) -> int:
    """Peak bytes tracemalloc saw while the claim ran; numpy reports its
    array allocations to it."""
    tracemalloc.start()
    try:
        claim(**kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockDraws:
    """The claims draw and reduce in blocks of at most BLOCK_COORDINATES
    coordinates, and give the one-draw reference's bits."""

    # below one block, one block exactly, and a short last block
    @pytest.mark.parametrize("n", [1000, BLOCK_COORDINATES, 2 * BLOCK_COORDINATES + 123])
    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 1])
    def test_cv_formula_equals_one_draw(self, monkeypatch, n, seed):
        thetas = (0.1, 0.3, 1.0, 2.0, 10.0)
        assert_same_draws_and_reports(
            drawn_with(monkeypatch, verify_cv_formula, thetas=thetas, n=n, seed=seed),
            reference_cv_formula(thetas, n, seed))

    # (ks, m): k = 1 and k = 3 with m not a multiple of the rows per block
    # (65536 and 21845), m below one block's rows, and a k whose one row
    # is over the cap
    @pytest.mark.parametrize("ks,m", [((1, 3, 10, 100), 70001), ((3,), 5),
                                      ((BLOCK_COORDINATES + 1,), 3)])
    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 1])
    def test_minibatch_scaling_equals_one_draw(self, monkeypatch, ks, m, seed):
        # a theta whose costs are not integers, so the row sums round
        theta = 0.3
        assert_same_draws_and_reports(
            drawn_with(monkeypatch, verify_minibatch_scaling, theta=theta, ks=ks, m=m,
                       seed=seed),
            reference_minibatch_scaling(theta, ks, m, seed))

    def test_cv_formula_holds_one_cost_buffer(self):
        # the one-draw version peaked at three n-sized arrays, a separate
        # deviation array at two
        n = 10 ** 6
        assert traced_peak(verify_cv_formula, n=n) <= 8 * n + 2 * 10 ** 6

    def test_minibatch_scaling_holds_one_block(self):
        # the one-draw version peaked at 16.9 MB, two arrays of m * k = 10^6
        assert traced_peak(verify_minibatch_scaling, m=10 ** 4) <= 3 * 10 ** 6


class TestSecantAbsorption:
    def test_passes_at_reduced_n(self):
        one_step, long_run = verify_secant_absorption(
            n_trials=2000, long_run_trials=200, seed=4)
        assert one_step.passed and long_run.passed
        assert one_step.statistic == pytest.approx(0.5, abs=0.05)
        assert long_run.statistic >= 0.5

    # (n_trials, long_run_trials, long_run_steps): odd trial counts, and
    # long_run_steps + 1 draws per long run of both parities
    @pytest.mark.parametrize("sizes", [(10 ** 4, 10 ** 3, 100), (1000, 101, 100),
                                       (999, 37, 7), (10, 5, 1)])
    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2])
    def test_array_trials_equal_per_trial_loop(self, seed, sizes):
        n_trials, long_run_trials, long_run_steps = sizes
        reports, one_step, finals = reference_secant_absorption(
            n_trials, seed, long_run_trials=long_run_trials,
            long_run_steps=long_run_steps)
        rng, sized = np.random.default_rng(seed), np.random.default_rng(seed)
        starts, xs, theta_new = secant_trials(rng, n_trials, 1)
        assert np.array_equal(theta_new, one_step)
        # one-step trials draw their signs in scalar calls, longer ones in one
        # sized call; both draw the values and leave the generator state of a
        # sized call per trial
        assert_same_draws((starts, xs), sized_call_draws(sized, n_trials, 1))
        assert rng.bit_generator.state == sized.bit_generator.state
        starts, xs, theta = secant_trials(rng, long_run_trials, long_run_steps)
        assert np.array_equal(np.abs(theta), finals)
        assert_same_draws((starts, xs),
                          sized_call_draws(sized, long_run_trials, long_run_steps))
        assert rng.bit_generator.state == sized.bit_generator.state
        # the hit count is the one-step statistic times n_trials
        assert verify_secant_absorption(
            n_trials, seed, long_run_trials=long_run_trials,
            long_run_steps=long_run_steps) == reports

    def test_equal_starts_are_redrawn_like_the_per_trial_loop(self, monkeypatch):
        # equal uniform starts have probability ~2^-53, so force the first
        # trial's pair to tie and check both versions redraw it the same way
        default_rng = np.random.default_rng
        redraws = []

        class TiedFirstStart:
            def __init__(self, seed):
                self.rng = default_rng(seed)
                self.tied = False

            def uniform(self, low, high, size=None):
                values = self.rng.uniform(low, high, size)
                if size is None:
                    redraws.append(values)
                elif not self.tied:
                    self.tied = True
                    values[1] = values[0]
                return values

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", TiedFirstStart)
        # seed 4's first trial draws distinct signs, so the order of the
        # redrawn pair matters
        _, one_step, _ = reference_secant_absorption(20, 4, long_run_trials=1)
        theta_new = secant_trials(np.random.default_rng(4), 20, 1)[2]
        assert np.array_equal(theta_new, one_step)
        assert len(redraws) == 2

    def test_long_run_trials_redraw_equal_starts(self):
        # the per-trial reference keeps a tied long-run start; secant_trials
        # redraws it whatever the number of steps
        class TiedFirstStart:
            def __init__(self):
                self.rng = np.random.default_rng(6)
                self.calls = []

            def uniform(self, low, high, size=None):
                self.calls.append(size)
                values = self.rng.uniform(low, high, size)
                if len(self.calls) == 1:
                    values[1] = values[0]
                return values

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

        rng = TiedFirstStart()
        (t2, t1), xs, _ = secant_trials(rng, 3, 5)
        assert rng.calls == [2, None, 2, 2]
        assert np.all(t2 != t1) and xs.shape == (6, 3)

    @pytest.mark.parametrize("sizes,message", [
        (dict(n_trials=0), "n_trials must be >= 1, got 0"),
        (dict(long_run_trials=0), "long_run_trials must be >= 1, got 0"),
        # zero steps would judge the uniform starts, not the secant method
        (dict(long_run_steps=0), "long_run_steps must be >= 1, got 0"),
        (dict(long_run_steps=-1), "long_run_steps must be >= 1, got -1"),
    ])
    def test_rejects_no_trials(self, sizes, message):
        # no trials give no frequency and no median to judge
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_secant_absorption(**sizes)

    def test_same_sign_frequency_is_half(self):
        rng = np.random.default_rng(5)
        n = 10 ** 4
        pairs = rng.integers(0, 2, size=(n, 2))
        freq = float((pairs[:, 0] == pairs[:, 1]).mean())
        assert abs(freq - 0.5) <= 0.015  # 3 sigma binomial band


class TestMinibatchScaling:
    def test_passes_and_k1_matches_per_sample_std(self):
        reports = verify_minibatch_scaling(theta=2.0, ks=(1,), m=5000, seed=6)
        assert reports[0].passed
        # k=1 statistic is by construction the per-sample std of the same draws
        rng = np.random.default_rng(6)
        xs = rng.integers(0, 2, size=5000).astype(float) * 2.0 - 1.0
        assert reports[0].statistic == pytest.approx(
            float(((2.0 - xs) ** 2).std(ddof=1)), abs=0.0)

    def test_full_ladder(self):
        reports = verify_minibatch_scaling(m=3000, seed=7)
        assert [r.passed for r in reports] == [True, True, True]

    @pytest.mark.parametrize("m", [1, 0])
    def test_rejects_fewer_than_two_minibatches(self, m):
        # the std across minibatches needs two of them
        with pytest.raises(ValueError, match=f"^m must be >= 2, got {m}$"):
            verify_minibatch_scaling(m=m)

    def test_rejects_empty_minibatches(self):
        with pytest.raises(ValueError, match="^each k must be >= 1, got 0$"):
            verify_minibatch_scaling(ks=(1, 0), m=10)


class TestHybridAdvantage:
    def test_sgd_first_step_lands_on_sample(self):
        # alpha_1 = 1/2 and gradient 2(theta - x) make step one land exactly
        # on x, so |theta| reaches 1 after a single sample from any start
        for seed in range(20):
            reached = unit_ball_run(1e4, np.random.default_rng(seed), "sgd")
            assert reached == 1

    def test_half_integer_coefficient_lands_at_sample_2c(self):
        # with coefficient c = m/2, alpha_m = 1/2 is Newton-exact, so step m
        # lands exactly on that sample whatever the start; the hybrid-advantage
        # acceptance criterion excludes these rates as comparators
        for m in (1, 2, 3, 4):
            for seed in range(20):
                reached = unit_ball_run(1e4, np.random.default_rng(seed), "sgd", m / 2)
                assert reached == m, f"coefficient {m / 2}, seed {seed}"

    @pytest.mark.parametrize("theta0,coefficient", [
        (float("nan"), 0.5),
        (1e150, 1e160),  # the first step overflows to -inf
    ])
    def test_sgd_run_rejects_non_finite_iterate(self, theta0, coefficient):
        # a non-finite start is a config error; a finite start that overflows
        # is a diverged run, which has no count
        rng = np.random.default_rng(0)
        if math.isfinite(theta0):
            assert unit_ball_run(theta0, rng, "sgd", coefficient) is None
        else:
            with pytest.raises(ConfigurationError, match="non-finite"):
                unit_ball_run(theta0, rng, "sgd", coefficient)

    def test_hybrid_run_that_overflows_has_no_count(self):
        # the start is finite; the secant steps from it overflow
        assert unit_ball_run(1e308, np.random.default_rng(0)) is None

    def test_hybrid_needs_at_least_two_samples(self):
        for seed in range(20):
            reached = unit_ball_run(1e4, np.random.default_rng(seed))
            assert reached is not None and reached >= 2

    def test_report_records_honest_medians(self):
        report = verify_hybrid_advantage(theta0=1e4, n_seeds=30, seed=8)
        assert "sgd 1" in report.note
        assert report.statistic >= 2.0
        assert not report.passed  # the stated bar (ratio < 1) is unattainable

    def test_rejects_good_starts(self):
        with pytest.raises(ValueError):
            verify_hybrid_advantage(theta0=1.0, n_seeds=2)

    def test_unit_ball_counts_of_no_seeds(self):
        # numpy's spawn raises OverflowError on a negative count
        assert unit_ball_counts(1e4, 0) == ([], [])
        with pytest.raises(ValueError, match="^n_seeds must be >= 0, got -1$"):
            unit_ball_counts(1e4, -1)

    def test_unit_ball_run_takes_a_scalar_start(self):
        with pytest.raises(ConfigurationError, match="theta0 has 2 entries, problem needs 1"):
            unit_ball_run([5.0, 1.0], np.random.default_rng(0))

    @pytest.mark.parametrize("theta0", [
        pytest.param(10 ** 5000, id="int-5001-digits"),  # float() overflows; no repr
        pytest.param(True, id="bool"),  # float() would read it as 1.0
    ])
    def test_unit_ball_counts_check_their_start(self, theta0):
        # the two configs are built, and so checked, before any seed runs
        for n_seeds in (0, 1):
            with pytest.raises(ConfigurationError, match="theta0 must be a number"):
                unit_ball_counts(theta0, n_seeds)

    def test_sgd_comparator_outlasts_the_secant_cap(self):
        # at c = 0.45 pure SGD needs thousands of samples from 1e4: the
        # comparator's cap is UNIT_BALL_CAP, and only the hybrid's is SECANT_CAP
        hybrid, sgd = unit_ball_counts(1e4, 10, coefficient=0.45)
        assert all(n is not None and n <= SECANT_CAP for n in hybrid)
        assert all(n is not None and SECANT_CAP < n < UNIT_BALL_CAP for n in sgd)

    def test_rejects_no_seeds(self):
        # the medians of no runs are NaN, which no claim can be judged on
        with pytest.raises(ValueError, match="^n_seeds must be >= 1, got 0$"):
            verify_hybrid_advantage(n_seeds=0)


class TestFullSuite:
    def test_quick_run_has_one_known_red_claim(self):
        from sgdlab.verification import run_all
        reports = run_all(quick=True)
        failed = {r.claim_id for r in reports if not r.passed}
        # the hybrid-vs-Newton-exact-SGD bar is unattainable on this problem;
        # everything else must be green
        assert failed == {"hybrid_advantage_ratio"}
        assert len(reports) == 14

    def test_reports_hold_python_scalars(self):
        from sgdlab.verification import run_all
        for r in run_all(quick=True):
            assert type(r.passed) is bool, r.claim_id
            assert type(r.n) is int, r.claim_id
            for value in (r.statistic, r.expected, r.tolerance):
                assert type(value) is float, r.claim_id

    def test_deterministic(self):
        from sgdlab.verification import run_all
        assert run_all(quick=True, seed=123) == run_all(quick=True, seed=123)


class TestReportOutput:
    def test_csv_header_and_round_trip(self, tmp_path):
        reports = verify_cv_formula(thetas=(1.0,), n=10 ** 4, seed=9)
        path = tmp_path / "report.csv"
        write_report(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == REPORT_HEADER == "claim_id,statistic,expected,tolerance,n,pass"
        fields = lines[1].split(",")
        assert fields[0] == "cv_formula_theta_1"
        assert float(fields[1]) == reports[0].statistic
        assert fields[5] == "true"

    def test_format_report_lines(self):
        ok = OracleReport("demo", 1.0, 1.0, 0.1, "within", 5)
        bad = OracleReport("demo2", 2.0, 1.0, 0.1, "within", 5, note="n")
        assert format_report(ok).startswith("[ ok ]")
        assert format_report(bad).startswith("[FAIL]")
