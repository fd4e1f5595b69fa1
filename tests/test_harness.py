"""Harness contracts: config validation, epoch accounting, determinism,
trace round-trips, grids, and the CLI exit codes."""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sgdlab.cli import main as cli_main
from sgdlab.errors import ConfigurationError
from sgdlab.diagnostics import estimate_cv
from sgdlab.harness import (TRACE_HEADER, ExperimentConfig, _CvTracker,
                            build_problem, load_config, read_trace,
                            run_experiment, run_grid, write_trace)
from sgdlab.optimizers import AlphaSchedule, SwitchPolicy, run_hybrid
from sgdlab.problems import (BLOCK_COORDINATES, LeastSquaresProblem,
                             RademacherProblem, SampleStream)


def make_config(**overrides):
    base = dict(problem="rademacher", theta0=2.0, optimizer="sgd", k=1,
                alpha=0.1, epochs=1, epoch_size=200, eval_every=1, seed=0)
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def run_to_file(config, path):
    records, summary = run_experiment(config)
    write_trace(records, path)
    return records, summary


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            ExperimentConfig.from_dict(dict(problem="rademacher", theta0=1.0,
                                            optimizer="sgd", alpha=0.1, bogus=3))

    @pytest.mark.parametrize("overrides,message", [
        (dict(problem="nope"), "unknown problem"),
        (dict(optimizer="adam"), "unknown optimizer"),
        (dict(alpha=None), "positive alpha"),
        (dict(theta0=None), "theta0"),
        (dict(theta0_scale=5.0), "exactly one of theta0"),
        (dict(optimizer="momentum"), "beta"),
        (dict(beta=0.5), "sgd takes no momentum"),
        (dict(k=0), "k must be >= 1"),
        (dict(optimizer="secant", k=2, alpha=None), "k must be 1"),
        (dict(optimizer="hybrid", train_size=100), "train_size is not supported"),
        (dict(theta0="abc"), "theta0 must be a number"),
        (dict(theta0=[1.0, float("nan")]), "theta0 has non-finite"),
        (dict(cv_low=float("nan")), "cv_low must be finite"),
        (dict(optimizer="momentum", beta_policy="cv_linear", cv_high=float("nan")),
         "cv_high must be finite"),
        (dict(optimizer="hybrid", alpha_schedule="inverse_t",
              switch_threshold=float("nan")), "switch_threshold must be finite"),
        (dict(problem="least_squares", dim=2, condition_number=float("nan")),
         "condition_number must be finite"),
        # epoch_size 100 at k = 1: 100 iterations
        (dict(eval_every=101), "exceeds the run's 100 iterations"),
        # finite mode: 2 epochs of ceil(10 / 3) = 4 minibatches
        (dict(problem="least_squares", dim=2, train_size=10, k=3, epochs=2,
              eval_every=9), "exceeds the run's 8 iterations"),
    ])
    def test_bad_configs(self, overrides, message):
        base = dict(problem="rademacher", theta0=2.0, optimizer="sgd", k=1,
                    alpha=0.1, epochs=1, epoch_size=100, eval_every=1, seed=0)
        base.update(overrides)
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig.from_dict(base)

    def test_secant_needs_scalar_problem(self):
        with pytest.raises(ConfigurationError, match="scalar"):
            ExperimentConfig.from_dict(dict(
                problem="least_squares", dim=3, theta0=1.0, optimizer="secant",
                k=1, epochs=1, epoch_size=50, seed=0))

    def test_theta0_dimension_check(self):
        cfg = ExperimentConfig.from_dict(dict(
            problem="least_squares", dim=4, condition_number=10.0,
            theta0=[1.0, 2.0], optimizer="sgd", alpha=0.01,
            epochs=1, epoch_size=50, seed=0))
        with pytest.raises(ConfigurationError, match="entries"):
            run_experiment(cfg)

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("problem: rademacher\ntheta0: 2.0\noptimizer: sgd\n"
                        "alpha: 0.1\nepochs: 1\nepoch_size: 50\nseed: 4\n")
        cfg = load_config(path)
        assert cfg.problem == "rademacher" and cfg.seed == 4


class TestEpochAccounting:
    def test_k_equal_train_size_is_one_iteration_per_epoch(self):
        cfg = ExperimentConfig.from_dict(dict(
            problem="logistic", dim=4, n_classes=2, separation=2.0, problem_seed=0,
            theta0=0.0, optimizer="sgd", k=50, alpha=0.05,
            epochs=3, train_size=50, eval_every=1, seed=1))
        records, summary = run_experiment(cfg)
        assert len(records) == 3
        assert [r.iteration for r in records] == [1, 2, 3]
        assert [r.epoch for r in records] == [1, 2, 3]
        assert summary.samples == 150

    def test_short_final_minibatch_is_processed(self):
        # train 10, k 3: batches of 3,3,3,1; exactly 10 samples per epoch
        cfg = ExperimentConfig.from_dict(dict(
            problem="logistic", dim=3, n_classes=2, separation=2.0, problem_seed=0,
            theta0=0.0, optimizer="sgd", k=3, alpha=0.05,
            epochs=2, train_size=10, eval_every=1, seed=2))
        records, summary = run_experiment(cfg)
        assert len(records) == 8
        assert summary.samples == 20
        # epoch column is floor(samples_consumed / train_size)
        assert [r.epoch for r in records] == [0, 0, 0, 1, 1, 1, 1, 2]

    def test_infinite_mode_epoch_column(self):
        cfg = make_config(epochs=2, epoch_size=10, k=4, eval_every=1)
        records, _ = run_experiment(cfg)
        assert [r.epoch for r in records] == [0, 0, 1, 1, 2]
        assert records[-1].iteration == 5


class TestDeterminismAndRoundTrip:
    def test_repeated_runs_byte_identical(self, tmp_path):
        cfg = make_config(epochs=2, epoch_size=300, seed=11)
        run_to_file(cfg, tmp_path / "a.csv")
        run_to_file(cfg, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_momentum_beta0_matches_sgd_trace(self, tmp_path):
        sgd = make_config(seed=12)
        mom = ExperimentConfig.from_dict(dict(
            problem="rademacher", theta0=2.0, optimizer="momentum", beta=0.0,
            k=1, alpha=0.1, epochs=1, epoch_size=200, eval_every=1, seed=12))
        run_to_file(sgd, tmp_path / "sgd.csv")
        run_to_file(mom, tmp_path / "mom.csv")
        assert (tmp_path / "sgd.csv").read_bytes() == (tmp_path / "mom.csv").read_bytes()

    def test_write_read_round_trip_exact(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(
            problem="logistic", dim=5, n_classes=3, separation=2.0, problem_seed=3,
            theta0=0.0, optimizer="momentum", beta_policy="cv_linear", k=10,
            alpha=0.05, epochs=2, train_size=100, eval_every=2, seed=13))
        records, _ = run_experiment(cfg)
        path = tmp_path / "t.csv"
        write_trace(records, path)
        assert read_trace(path) == records

    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trace([], path)
        assert path.read_text() == TRACE_HEADER + "\n"
        assert read_trace(path) == []

    def test_header_is_pinned(self):
        assert TRACE_HEADER == ("epoch,iteration,true_risk,est_risk,cv_raw,"
                                "cv_smoothed,alpha,beta,accuracy,theta_norm")


class TestRobbinsMonroRun:
    def test_inverse_t_run_approaches_minimum(self):
        # alpha_i = 1/(2i) from theta0=5: risk-to-1 and median final |theta| < 0.2
        # after 1e4 samples over 100 seeds
        finals = []
        for seed in range(100):
            cfg = ExperimentConfig.from_dict(dict(
                problem="rademacher", theta0=5.0, optimizer="sgd", k=1,
                alpha=0.5, alpha_schedule="inverse_t", epochs=10,
                epoch_size=1000, eval_every=2000, seed=seed))
            records, summary = run_experiment(cfg)
            finals.append(abs(summary.final_theta[0]))
            if seed == 0:
                risks = [r.true_risk for r in records]
                assert all(r >= 1.0 for r in risks)
                assert risks[-1] < risks[0]
        assert np.median(finals) < 0.2

    def test_divergent_run_is_flagged_and_truncated(self):
        cfg = ExperimentConfig.from_dict(dict(
            problem="least_squares", dim=6, condition_number=100.0,
            problem_seed=1, theta0_scale=10.0, optimizer="sgd", k=2,
            alpha=5.0, epochs=1, epoch_size=2000, eval_every=1, seed=3))
        records, summary = run_experiment(cfg)
        assert summary.diverged
        assert summary.iterations < 1000
        assert len(records) < 1000
        for r in records:
            assert np.isfinite(r.theta_norm)


class TestCvTracker:
    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(2, 30),
           costs=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 4.0]),
                                    st.floats(0.0, 1e6)), max_size=100))
    @example(size=3, costs=[4.0, 0.0, 1.0, 4.0, 4.0, 0.0, 2.5, 1.0, 9.0, 0.0])
    def test_trailing_costs_equal_bounded_deque(self, size, costs):
        # checked after every cost: below, at and past the buffer size, and
        # across each wrap of the doubled array
        tracker = _CvTracker(1, 10, size)
        window = deque(maxlen=size)
        for cost in costs:
            tracker.observe(np.array([cost]))
            window.append(cost)
            view, want = tracker.trailing_costs(), np.array(window)
            assert view.tobytes() == want.tobytes()
            want_raw = None
            if len(window) >= 2:
                est = estimate_cv(want)
                want_raw = est.cv if est.valid else None
            assert tracker.compute()[0] == want_raw


class TestSampleStream:
    """Block-drawn fresh samples equal per-call draws, sample for sample."""

    @pytest.mark.parametrize("make,k,n_batches", [
        # k = 7 does not divide the 2^16-sample block; 9363 batches need one
        # full block (9362 batches) and one batch of a second
        pytest.param(lambda: RademacherProblem(), 7, 9363, id="rademacher-k7"),
        pytest.param(lambda: RademacherProblem(), 1, 70000, id="rademacher-k1"),
        # k * dim = 7000: blocks of 9 batches, and a short last one
        pytest.param(lambda: LeastSquaresProblem(1000, 10.0, 0.0, 3), 7, 40,
                     id="least_squares-dim1000-k7"),
        # k * dim = 90000 exceeds the cap: one batch per draw
        pytest.param(lambda: LeastSquaresProblem(3000, 10.0, 0.0, 4), 30, 3,
                     id="least_squares-dim3000-k30"),
    ])
    def test_blocks_match_per_call_draws(self, make, k, n_batches):
        problem = make()
        assert problem.block_draws
        per_block = max(1, BLOCK_COORDINATES // (k * problem.dim))
        sample_calls = []
        draw = problem.sample
        problem.sample = lambda rng, n: sample_calls.append(n) or draw(rng, n)
        rng_block, rng_call = np.random.default_rng(5), np.random.default_rng(5)
        stream = SampleStream(problem, rng_block, k, n_batches)
        for _ in range(n_batches):
            got, want = stream.draw(), draw(rng_call, k)
            if isinstance(want, tuple):
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
            else:
                assert np.array_equal(got, want)
        assert all(n * problem.dim <= max(BLOCK_COORDINATES, k * problem.dim)
                   for n in sample_calls)
        assert len(sample_calls) == -(-n_batches // per_block)
        # no sample drawn beyond the last batch
        assert rng_block.bit_generator.state == rng_call.bit_generator.state

    @pytest.mark.parametrize("raw,diverges", [
        pytest.param(dict(problem="rademacher", theta0=3.0, optimizer="sgd", k=7,
                          alpha=0.1, epochs=3, epoch_size=100, eval_every=2, seed=1),
                     False, id="rademacher-k7"),
        pytest.param(dict(problem="rademacher", theta0=3.0, optimizer="sgd", k=2,
                          alpha=5.0, epochs=1, epoch_size=300, eval_every=1, seed=2),
                     True, id="rademacher-ends-mid-block"),
        pytest.param(dict(problem="rademacher", theta0=1e4, optimizer="hybrid", k=1,
                          alpha=0.5, alpha_schedule="inverse_t", epochs=1,
                          epoch_size=200, eval_every=1, seed=3),
                     False, id="rademacher-hybrid"),
        pytest.param(dict(problem="least_squares", dim=1000, condition_number=10.0,
                          theta0_scale=3.0, optimizer="momentum", beta=0.5, k=7,
                          alpha=1e-4, epochs=1, epoch_size=300, eval_every=4, seed=4),
                     False, id="least_squares-dim1000-k7"),
        pytest.param(dict(problem="least_squares", dim=3000, condition_number=10.0,
                          theta0_scale=3.0, optimizer="sgd", k=30, alpha=1e-4,
                          epochs=1, epoch_size=120, eval_every=1, seed=5),
                     False, id="least_squares-dim3000-k30"),
    ])
    def test_run_identical_with_block_draws_off(self, raw, diverges, monkeypatch):
        config = ExperimentConfig.from_dict(raw)
        records, summary = run_experiment(config)
        assert summary.diverged == diverges
        monkeypatch.setattr(type(build_problem(config)), "block_draws", False)
        records_off, summary_off = run_experiment(config)
        assert records == records_off
        assert np.array_equal(summary.final_theta, summary_off.final_theta)
        assert (summary.samples, summary.iterations, summary.diverged) == (
            summary_off.samples, summary_off.iterations, summary_off.diverged)


class TestHybridRun:
    def test_hybrid_switches_and_uses_schedule(self):
        cfg = ExperimentConfig.from_dict(dict(
            problem="rademacher", theta0=10000.0, optimizer="hybrid",
            switch_kind="abs_theta", switch_threshold=1.0, k=1, alpha=0.5,
            alpha_schedule="inverse_t", epochs=1, epoch_size=300,
            eval_every=1, seed=9))
        records, summary = run_experiment(cfg)
        assert not summary.diverged
        alphas = [r.alpha for r in records]
        # secant rows carry alpha 0; the SGD phase restarts the 1/(2i) schedule
        first_sgd = next(i for i, a in enumerate(alphas) if a > 0)
        assert all(a == 0.0 for a in alphas[:first_sgd])
        assert alphas[first_sgd] == 0.5
        assert abs(summary.final_theta[0]) < 1.0

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("switch_kind,threshold", [
        ("abs_theta", 1.0),
        ("abs_theta", 0.0),  # never fires: a 300-step secant phase
        ("cv", 0.9),
        ("cv", 5.0),
    ])
    def test_matches_run_hybrid(self, switch_kind, threshold, seed):
        # run_hybrid and the harness's hybrid loop implement one algorithm;
        # with equal CV windows they visit the same iterates
        config = ExperimentConfig.from_dict(dict(
            problem="rademacher", theta0=500.0, optimizer="hybrid",
            switch_kind=switch_kind, switch_threshold=threshold, k=1, alpha=0.5,
            alpha_schedule="inverse_t", epochs=1, epoch_size=300, eval_every=1,
            cv_buffer=20, seed=seed))
        records, summary = run_experiment(config)
        rng = np.random.default_rng(seed)
        run = run_hybrid(RademacherProblem(), 500.0,
                         SwitchPolicy(kind=switch_kind, threshold=threshold, window=20),
                         AlphaSchedule(kind="inverse_t", value=0.5), rng, 300)
        assert not run.diverged and not summary.diverged
        # iterates[0] is theta0 and iterates[1] the free second point
        assert np.array_equal(np.abs(run.iterates[2:]), [r.theta_norm for r in records])
        assert run.iterates[-1] == summary.final_theta[0]
        secant_rows = sum(r.alpha == 0.0 for r in records)
        assert secant_rows == (len(records) if run.switch_index is None
                               else run.switch_index - 1)
        # the generator ends where one draw per sample would leave it
        rng_call = np.random.default_rng(seed)
        for _ in range(int(run.samples[-1])):
            RademacherProblem().sample(rng_call, 1)
        assert rng.bit_generator.state == rng_call.bit_generator.state


class TestGrid:
    def _base(self, **overrides):
        raw = dict(
            problem="least_squares", dim=8, condition_number=1000.0,
            noise_std=0.0, problem_seed=1, theta0_scale=10.0,
            optimizer="momentum", beta=0.9, k=10, alpha=0.001,
            epochs=2, epoch_size=1000, eval_every=20,
            risk_threshold=1e-4, seed=5)
        raw.update(overrides)
        return ExperimentConfig.from_dict(raw)

    def test_single_cell_grid_matches_run_experiment(self, tmp_path):
        base = self._base()
        cells = run_grid(base, [0.9], [0.001], [5], tmp_path)
        assert len(cells) == 1
        _, summary = run_experiment(base)
        assert cells[0].median_final_risk == pytest.approx(summary.final_risk)
        trace = tmp_path / "trace_mom0.9_lr0.001_seed5.csv"
        assert trace.exists()
        assert (tmp_path / "summary.csv").exists()

    def test_momentum_cell_reaches_threshold_faster(self, tmp_path):
        # k=200 makes the minibatch gradient effectively deterministic (the
        # regime where acceleration is safe); budget sized so plain GD also
        # reaches the 1e-4 gap
        base = self._base(k=200, epochs=8, epoch_size=200000, eval_every=1000)
        cells = run_grid(base, [0.0, 0.9], [0.0008], [1, 2, 3], tmp_path)
        by_mom = {c.momentum: c for c in cells}
        plain = by_mom[0.0].median_iters_to_threshold
        accel = by_mom[0.9].median_iters_to_threshold
        assert accel is not None and plain is not None
        assert accel < plain

    def test_summary_medians_invariant_under_seed_permutation(self, tmp_path):
        cells_a = run_grid(self._base(), [0.5], [0.001], [1, 2, 3], tmp_path / "a")
        cells_b = run_grid(self._base(), [0.5], [0.001], [3, 1, 2], tmp_path / "b")
        assert cells_a[0].median_final_risk == cells_b[0].median_final_risk
        assert cells_a[0].median_best_risk == cells_b[0].median_best_risk


class TestCli:
    def test_run_ok_and_deterministic(self, tmp_path, capsys):
        code = cli_main(["run", "configs/rademacher_rm.yaml", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "diverged=False" in out

    def test_run_bad_config_exits_1(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: nope\ntheta0: 1.0\noptimizer: sgd\nalpha: 0.1\n")
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1

    def test_run_unparsable_theta0_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: rademacher\ntheta0: abc\noptimizer: sgd\nalpha: 0.1\n")
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1
        assert "theta0 must be a number" in capsys.readouterr().err

    def test_run_eval_every_beyond_iterations_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: rademacher\ntheta0: 1.0\noptimizer: sgd\nalpha: 0.1\n"
                       "epochs: 1\nepoch_size: 50\neval_every: 51\n")
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1
        assert "eval_every (51) exceeds" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_run_missing_file_exits_3(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "absent.yaml")]) == 3

    def test_run_divergent_exits_2(self, tmp_path):
        cfg = tmp_path / "div.yaml"
        cfg.write_text(
            "problem: least_squares\ndim: 6\ncondition_number: 100.0\n"
            "problem_seed: 1\ntheta0_scale: 10.0\noptimizer: sgd\nk: 2\n"
            "alpha: 5.0\nepochs: 1\nepoch_size: 500\neval_every: 1\nseed: 3\n")
        assert cli_main(["run", str(cfg), "--out", str(tmp_path)]) == 2

    def test_grid_cli(self, tmp_path, capsys):
        code = cli_main(["grid", "configs/least_squares_poor_start.yaml",
                         "--momenta", "0.0", "0.9", "--learning-rates", "0.001",
                         "--seeds", "1", "2", "--out", str(tmp_path / "g")])
        assert code == 0
        assert (tmp_path / "g" / "summary.csv").exists()
        assert len(list((tmp_path / "g").glob("trace_*.csv"))) == 4

    def test_verify_cli_quick_reports_known_red(self, tmp_path, capsys):
        # every claim is green except the hybrid-advantage bar, so the
        # documented exit code for failed claims (2) is expected
        code = cli_main(["verify", "--quick", "--out",
                         str(tmp_path / "report.csv")])
        assert code == 2
        out = capsys.readouterr().out
        assert "13/14 claims passed" in out
        assert (tmp_path / "report.csv").exists()
