"""Verification-oracle mechanics: pass rules, determinism, report format, and
the closed-form cross-checks at reduced sample sizes."""

import numpy as np
import pytest

from sgdlab.errors import ConfigurationError
from sgdlab.verification import (OracleReport, REPORT_HEADER, claim_passes,
                                 explicit_secant_update, format_report,
                                 sgd_samples_to_unit_ball,
                                 hybrid_samples_to_unit_ball,
                                 verify_cv_asymptote, verify_cv_formula,
                                 verify_hybrid_advantage,
                                 verify_minibatch_scaling,
                                 verify_secant_absorption, write_report)


class TestClaimPasses:
    def test_within(self):
        assert claim_passes(1.01, 1.0, 0.02, "within")
        assert not claim_passes(1.03, 1.0, 0.02, "within")

    def test_at_least(self):
        assert claim_passes(0.49, 0.5, 0.015, "at_least")
        assert not claim_passes(0.47, 0.5, 0.015, "at_least")

    def test_below_is_strict(self):
        assert claim_passes(0.99, 1.0, 0.0, "below")
        assert not claim_passes(1.0, 1.0, 0.0, "below")

    def test_unknown_comparison(self):
        with pytest.raises(ValueError):
            claim_passes(1.0, 1.0, 0.0, "near")

    def test_report_pass_is_pure_function_of_fields(self):
        r = OracleReport.make("x", 0.5, 0.5, 0.0, "at_least", 10)
        assert r.passed == claim_passes(r.statistic, r.expected, r.tolerance,
                                        r.comparison)


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


class TestCvFormula:
    def test_all_pass_at_reduced_n(self):
        reports = verify_cv_formula(n=10 ** 5, seed=1)
        assert all(r.passed for r in reports)

    def test_theta_zero_is_exact(self):
        report = verify_cv_formula(thetas=(0.0,), n=10 ** 4, seed=2)[0]
        assert report.statistic == 0.0 and report.expected == 0.0
        assert report.passed

    def test_deterministic_given_seed(self):
        a = verify_cv_formula(n=10 ** 4, seed=3)
        b = verify_cv_formula(n=10 ** 4, seed=3)
        assert a == b

    def test_asymptote(self):
        assert all(r.passed for r in verify_cv_asymptote())


class TestSecantAbsorption:
    def test_passes_at_reduced_n(self):
        one_step, long_run = verify_secant_absorption(
            n_trials=2000, long_run_trials=200, seed=4)
        assert one_step.passed and long_run.passed
        assert one_step.statistic == pytest.approx(0.5, abs=0.05)
        assert long_run.statistic >= 0.5

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


class TestHybridAdvantage:
    def test_sgd_first_step_lands_on_sample(self):
        # alpha_1 = 1/2 and gradient 2(theta - x) make step one land exactly
        # on x, so |theta| reaches 1 after a single sample from any start
        for seed in range(20):
            reached = sgd_samples_to_unit_ball(1e4, np.random.default_rng(seed))
            assert reached == 1

    def test_half_integer_coefficient_lands_at_sample_2c(self):
        # with coefficient c = m/2, alpha_m = 1/2 is Newton-exact, so step m
        # lands exactly on that sample whatever the start; the hybrid-advantage
        # acceptance criterion excludes these rates as comparators
        for m in (1, 2, 3, 4):
            for seed in range(20):
                reached = sgd_samples_to_unit_ball(
                    1e4, np.random.default_rng(seed), coefficient=m / 2)
                assert reached == m, f"coefficient {m / 2}, seed {seed}"

    @pytest.mark.parametrize("theta0,coefficient", [
        (float("nan"), 0.5),
        (1e150, 1e160),  # the first step overflows to -inf
    ])
    def test_sgd_run_rejects_non_finite_iterate(self, theta0, coefficient):
        with pytest.raises(ConfigurationError, match="non-finite"), \
                np.errstate(over="ignore"):
            sgd_samples_to_unit_ball(theta0, np.random.default_rng(0),
                                     coefficient=coefficient)

    def test_hybrid_needs_at_least_two_samples(self):
        for seed in range(20):
            reached = hybrid_samples_to_unit_ball(1e4, np.random.default_rng(seed))
            assert reached is not None and reached >= 2

    def test_report_records_honest_medians(self):
        report = verify_hybrid_advantage(theta0=1e4, n_seeds=30, seed=8)
        assert "sgd 1" in report.note
        assert report.statistic >= 2.0
        assert not report.passed  # the stated bar (ratio < 1) is unattainable

    def test_rejects_good_starts(self):
        with pytest.raises(ValueError):
            verify_hybrid_advantage(theta0=1.0, n_seeds=2)


class TestFullSuite:
    def test_quick_run_has_one_known_red_claim(self):
        from sgdlab.verification import run_all
        reports = run_all(quick=True)
        failed = {r.claim_id for r in reports if not r.passed}
        # the hybrid-vs-Newton-exact-SGD bar is unattainable on this problem;
        # everything else must be green
        assert failed == {"hybrid_advantage_ratio"}
        assert len(reports) == 14

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
        ok = OracleReport.make("demo", 1.0, 1.0, 0.1, "within", 5)
        bad = OracleReport.make("demo2", 2.0, 1.0, 0.1, "within", 5, note="n")
        assert format_report(ok).startswith("[ ok ]")
        assert format_report(bad).startswith("[FAIL]")
