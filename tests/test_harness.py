"""Harness contracts: config validation, epoch accounting, determinism,
trace round-trips, grids, and the CLI exit codes."""

import dataclasses
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sgdlab.cli import main as cli_main
from sgdlab.errors import ConfigurationError, TraceFormatError
from sgdlab.diagnostics import estimate_cv
from sgdlab.harness import (TRACE_HEADER, ExperimentConfig, TraceRecord, _CvTracker,
                            _max_abs, build_problem, load_config, read_trace,
                            run_experiment, run_grid, run_hybrid, write_trace)
from sgdlab.optimizers import AlphaSchedule, SwitchPolicy
from sgdlab.problems import (BLOCK_COORDINATES, LeastSquaresProblem,
                             RademacherProblem, SampleStream)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
        # an empty held-out set made NaN accuracy; a negative one a ValueError
        (dict(problem="logistic", dim=2, test_per_class=0), "test_per_class must be >= 1"),
        (dict(problem="logistic", dim=2, test_per_class=-3), "test_per_class must be >= 1"),
        # logistic parameters number n_classes * (dim + 1) = 8, not dim
        (dict(problem="logistic", dim=1, optimizer="secant", alpha=None),
         "scalar problem, got dim 8"),
        (dict(problem="least_squares", dim=4, theta0=[1.0, 2.0]),
         "theta0 has 2 entries, problem needs 4"),
        (dict(optimizer="hybrid", alpha_schedule="inverse_t", beta_policy="cv_linear"),
         "hybrid takes no momentum"),
        # integer keys neither truncate nor read booleans as numbers
        (dict(epochs=2.7), "config key 'epochs': expected an integer, got 2.7"),
        (dict(seed=3.9), "config key 'seed': expected an integer, got 3.9"),
        (dict(k=True), "config key 'k': expected an integer, got True"),
        (dict(epoch_size=float("inf")), "config key 'epoch_size': expected an integer"),
        (dict(alpha=True), "config key 'alpha': expected a number, got True"),
        (dict(optimizer="momentum", beta=False), "config key 'beta': expected a number"),
        # falsy momentum settings are still momentum settings
        (dict(beta=0.0, beta_policy=""), "sgd takes no momentum"),
        (dict(optimizer="secant", alpha=None, beta=0.0, beta_policy=""),
         "secant takes no momentum"),
        (dict(optimizer="hybrid", alpha_schedule="inverse_t", beta=0.0, beta_policy=""),
         "hybrid takes no momentum"),
        # float() would read a boolean theta0 as 1.0
        (dict(theta0=True), "theta0 must be a number"),
        (dict(theta0=[True]), "theta0 must be a number"),
        (dict(theta0=[1.0, True]), "theta0 must be a number"),
        # a nested list is not flattened into a parameter vector
        (dict(theta0=[[1.0]]), "theta0 must be a number"),
        (dict(problem="least_squares", dim=2, theta0=[[1.0, 2.0]]),
         "theta0 must be a number"),
        # only the Optional keys take None
        (dict(k=None), "config key 'k'"),
        (dict(beta_max=None), "config key 'beta_max'"),
    ])
    def test_bad_configs(self, overrides, message):
        base = dict(problem="rademacher", theta0=2.0, optimizer="sgd", k=1,
                    alpha=0.1, epochs=1, epoch_size=100, eval_every=1, seed=0)
        base.update(overrides)
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig.from_dict(base)

    @pytest.mark.parametrize("changes,message", [
        (dict(epochs=2.7), "config key 'epochs': expected an integer, got 2.7"),
        (dict(optimizer="momentum", beta=1.5), "beta must be in"),
        (dict(theta0=None), "exactly one of theta0"),
    ])
    def test_every_built_config_is_checked(self, changes, message):
        # replace() and direct construction check a config as from_dict does
        with pytest.raises(ConfigurationError, match=message):
            dataclasses.replace(make_config(), **changes)
        fields = {**dataclasses.asdict(make_config()), **changes}
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig(**fields)

    def test_direct_construction_coerces_numeric_keys(self):
        cfg = ExperimentConfig(theta0=2.0, alpha=1, epochs=2.0, epoch_size=10)
        assert (cfg.alpha, cfg.epochs) == (1.0, 2)
        assert (type(cfg.alpha), type(cfg.epochs)) == (float, int)

    def test_secant_needs_scalar_problem(self):
        with pytest.raises(ConfigurationError, match="scalar"):
            ExperimentConfig.from_dict(dict(
                problem="least_squares", dim=3, theta0=1.0, optimizer="secant",
                k=1, epochs=1, epoch_size=50, seed=0))

    def test_theta0_dimension_check(self):
        # checked when the config loads, not when the run starts
        with pytest.raises(ConfigurationError, match="entries"):
            ExperimentConfig.from_dict(dict(
                problem="least_squares", dim=4, condition_number=10.0,
                theta0=[1.0, 2.0], optimizer="sgd", alpha=0.01,
                epochs=1, epoch_size=50, seed=0))

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("problem: rademacher\ntheta0: 2.0\noptimizer: sgd\n"
                        "alpha: 0.1\nepochs: 1\nepoch_size: 50\nseed: 4\n")
        cfg = load_config(path)
        assert cfg.problem == "rademacher" and cfg.seed == 4

    def test_integral_float_int_key_loads(self, tmp_path):
        # YAML 1.1 reads 1.0e5 (no exponent sign) as a string; 1.0e+5 is a float
        path = tmp_path / "c.yaml"
        path.write_text("problem: rademacher\ntheta0: 2.0\noptimizer: sgd\n"
                        "alpha: 0.1\nepochs: 1.0\nepoch_size: 1.0e+5\nseed: 4\n")
        cfg = load_config(path)
        assert (cfg.epochs, cfg.epoch_size) == (1, 100000)
        assert type(cfg.epoch_size) is int
        assert make_config(epoch_size=1.0e5).epoch_size == 100000

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")),
                             ids=lambda p: p.stem)
    def test_checked_in_config_round_trips_through_asdict(self, path):
        config = load_config(path)
        assert ExperimentConfig.from_dict(dataclasses.asdict(config)) == config

    @settings(max_examples=60, deadline=None)
    @given(optimizer=st.sampled_from([
               dict(optimizer="sgd"), dict(optimizer="momentum", beta=0.5),
               dict(optimizer="momentum", beta_policy="cv_threshold", cv_high=2.0),
               dict(optimizer="hybrid", switch_kind="cv", switch_threshold=0.5)]),
           start=st.sampled_from(["theta0", "theta0_scale"]),
           theta=st.floats(-1e6, 1e6), alpha=st.floats(1e-300, 1e3),
           schedule=st.sampled_from(["constant", "inverse_t"]),
           epochs=st.integers(1, 5), epoch_size=st.integers(1, 10 ** 6),
           seed=st.integers(0, 2 ** 63), cv_window=st.integers(1, 50),
           cv_buffer=st.integers(2, 500), risk=st.none() | st.floats(0.0, 10.0))
    def test_valid_variant_round_trips_through_asdict(self, optimizer, start, theta,
                                                      alpha, schedule, epochs,
                                                      epoch_size, seed, cv_window,
                                                      cv_buffer, risk):
        config = ExperimentConfig.from_dict(dict(
            problem="rademacher", **{start: theta}, **optimizer, alpha=alpha,
            alpha_schedule=schedule, epochs=epochs, epoch_size=epoch_size,
            eval_every=1, seed=seed, cv_window=cv_window, cv_buffer=cv_buffer,
            risk_threshold=risk))
        assert ExperimentConfig.from_dict(dataclasses.asdict(config)) == config


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

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(st.builds(
        TraceRecord,
        epoch=st.integers(0, 10 ** 6), iteration=st.integers(0, 10 ** 9),
        true_risk=st.none() | st.floats(allow_nan=False, allow_infinity=False),
        est_risk=st.floats(allow_nan=False, allow_infinity=False),
        cv_raw=st.none() | st.floats(allow_nan=False, allow_infinity=False),
        cv_smoothed=st.none() | st.floats(allow_nan=False, allow_infinity=False),
        alpha=st.floats(allow_nan=False, allow_infinity=False),
        beta=st.floats(allow_nan=False, allow_infinity=False),
        accuracy=st.none() | st.floats(allow_nan=False, allow_infinity=False),
        theta_norm=st.floats(allow_nan=False, allow_infinity=False)), max_size=5))
    def test_write_read_round_trip_any_finite_floats(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        write_trace(records, path)
        # repr tells -0.0 from 0.0 and shows every digit
        assert repr(read_trace(path)) == repr(records)

    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trace([], path)
        assert path.read_text() == TRACE_HEADER + "\n"
        assert read_trace(path) == []

    @pytest.mark.parametrize("row,message", [
        ("0,1,abc,1.0,,,0.1,0,,2.0", "could not convert string to float: 'abc'"),
        ("0.5,1,1.0,1.0,,,0.1,0,,2.0", "invalid literal for int"),
    ])
    def test_malformed_field_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"{TRACE_HEADER}\n0,1,1.0,1.0,,,0.1,0,,2.0\n{row}\n")
        with pytest.raises(TraceFormatError, match=f"bad.csv:3: {message}"):
            read_trace(path)

    def test_header_is_pinned(self):
        assert TRACE_HEADER == ("epoch,iteration,true_risk,est_risk,cv_raw,"
                                "cv_smoothed,alpha,beta,accuracy,theta_norm")

    def test_record_is_an_immutable_tuple_in_header_order(self):
        record = TraceRecord(epoch=0, iteration=1, true_risk=2.0, est_risk=2.5,
                             cv_raw=None, cv_smoothed=None, alpha=0.5, beta=-0.0,
                             accuracy=None, theta_norm=1.0)
        assert TraceRecord._fields == tuple(TRACE_HEADER.split(","))
        assert repr(record) == (
            "TraceRecord(epoch=0, iteration=1, true_risk=2.0, est_risk=2.5, cv_raw=None, "
            "cv_smoothed=None, alpha=0.5, beta=-0.0, accuracy=None, theta_norm=1.0)")
        assert record == (0, 1, 2.0, 2.5, None, None, 0.5, -0.0, None, 1.0)
        with pytest.raises(AttributeError):
            record.alpha = 1.0


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

    @pytest.mark.parametrize("optimizer", ["optimizer: sgd", "optimizer: momentum\nbeta: 0.5"])
    def test_rate_underflowing_to_zero_runs_to_completion(self, tmp_path, optimizer):
        # 5e-324 / i is 0.0 from i = 2 on: those steps leave theta unchanged
        cfg = tmp_path / "underflow.yaml"
        cfg.write_text(f"problem: rademacher\ntheta0: 2.0\n{optimizer}\n"
                       "alpha: 5.0e-324\nalpha_schedule: inverse_t\n"
                       "epochs: 1\nepoch_size: 50\n")
        assert cli_main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        records = read_trace(tmp_path / "underflow.trace.csv")
        assert [r.iteration for r in records] == list(range(1, 51))
        assert records[0].alpha == 5e-324 and records[-1].alpha == 0.0
        assert records[-1].theta_norm == 2.0

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


class TestDivergenceGuard:
    @settings(max_examples=300, deadline=None)
    @given(theta=arrays(np.float64, st.integers(1, 20), elements=st.one_of(
        st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e12, -1e12]),
        st.floats(allow_nan=True, allow_infinity=True))))
    @example(theta=np.array([-0.0]))
    @example(theta=np.array([np.nan, 1.0, np.inf]))
    def test_max_abs_bit_identical_to_abs_max(self, theta):
        assert np.asarray(_max_abs(theta)).tobytes() == np.abs(theta).max().tobytes()


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
            want_raw = estimate_cv(want) if len(window) >= 2 else None
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

    def test_secant_overflow_is_a_divergence(self):
        # the second start point is 5e307 and the gradient at theta0
        # overflows, so the first secant step is not finite
        # the guard reports the overflow; numpy warns about none of it
        errors = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run = run_hybrid(RademacherProblem(), 1e308, SwitchPolicy("abs_theta", 0.0),
                             AlphaSchedule(kind="inverse_t", value=0.5),
                             np.random.default_rng(0), 50)
            records, summary = run_experiment(make_config(theta0=1.0e308,
                                                          optimizer="secant", alpha=None))
        assert run.diverged
        assert np.isnan(run.iterates[-1]) and len(run.iterates) == 3
        assert summary.diverged and summary.iterations == 1 and records == []
        assert np.geterr() == errors  # the runs restore numpy's error state

    def test_stop_radius_checks_every_iterate_and_draws_per_step(self):
        problem, schedule = RademacherProblem(), AlphaSchedule(kind="inverse_t", value=0.5)
        # theta0 inside the ball: the run ends before drawing anything
        rng = np.random.default_rng(3)
        run = run_hybrid(problem, 0.5, SwitchPolicy("abs_theta", 1.0), schedule, rng, 50,
                         stop_radius=1.0)
        assert run.iterates.tolist() == [0.5] and run.samples.tolist() == [0]
        assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state
        # the free second point 1.5 / 2 is inside
        run = run_hybrid(problem, 1.5, SwitchPolicy("abs_theta", 0.0), schedule,
                         np.random.default_rng(3), 50, stop_radius=1.0)
        assert run.iterates.tolist() == [1.5, 0.75] and run.samples.tolist() == [0, 0]
        # from a poor start the run ends at its first iterate inside, having
        # drawn only the samples it spent
        rng = np.random.default_rng(4)
        run = run_hybrid(problem, 1e4, SwitchPolicy("abs_theta", 0.0), schedule, rng, 200,
                         stop_radius=1.0)
        assert abs(run.iterates[-1]) <= 1.0 and np.all(np.abs(run.iterates[:-1]) > 1.0)
        rng_call = np.random.default_rng(4)
        for _ in range(int(run.samples[-1])):
            problem.sample(rng_call, 1)
        assert rng.bit_generator.state == rng_call.bit_generator.state

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("switch_kind,threshold", [
        ("abs_theta", 1.0),
        ("abs_theta", 0.0),  # never fires: a 300-step secant phase
        ("cv", 0.9),
        ("cv", 5.0),
    ])
    def test_matches_run_hybrid(self, switch_kind, threshold, seed):
        # run_hybrid and run_experiment's hybrid optimizer share one loop;
        # at the default cv_buffer they visit the same iterates
        config = ExperimentConfig.from_dict(dict(
            problem="rademacher", theta0=500.0, optimizer="hybrid",
            switch_kind=switch_kind, switch_threshold=threshold, k=1, alpha=0.5,
            alpha_schedule="inverse_t", epochs=1, epoch_size=300, eval_every=1,
            seed=seed))
        records, summary = run_experiment(config)
        rng = np.random.default_rng(seed)
        run = run_hybrid(RademacherProblem(), 500.0,
                         SwitchPolicy(kind=switch_kind, threshold=threshold),
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

    @pytest.mark.parametrize("momenta,rates,seeds", [
        ([0.9000001, 0.9000002], [2e-4], [0]),  # both print as 0.9
        ([0.5], [1e-3, 1.0000001e-3], [0]),
        ([0.5], [1e-3], [3, 3]),
    ])
    def test_values_sharing_a_trace_name_are_rejected(self, tmp_path, momenta, rates,
                                                      seeds):
        with pytest.raises(ConfigurationError, match="would share trace file names"):
            run_grid(self._base(), momenta, rates, seeds, tmp_path / "g")
        assert not (tmp_path / "g").exists()

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

    def test_run_negative_test_set_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: logistic\ndim: 2\ntheta0: 0.0\noptimizer: sgd\n"
                       "alpha: 0.1\ntest_per_class: -3\n")
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1
        assert "test_per_class must be >= 1" in capsys.readouterr().err

    def test_run_secant_overflow_exits_2(self, tmp_path):
        cfg = tmp_path / "overflow.yaml"
        cfg.write_text("problem: rademacher\ntheta0: 1.0e308\noptimizer: secant\n"
                       "epochs: 1\nepoch_size: 50\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_main(["run", str(cfg), "--out", str(tmp_path)]) == 2

    def test_run_risk_overflow_exits_2(self, tmp_path):
        # theta jumps from 2 to about -6e200 in one step; its risk theta^2 + 1
        # overflows, so the guard must flag it before asking the oracle
        cfg = tmp_path / "jump.yaml"
        cfg.write_text("problem: rademacher\ntheta0: 2.0\noptimizer: sgd\n"
                       "alpha: 1.0e200\nepochs: 1\nepoch_size: 50\n")
        assert cli_main(["run", str(cfg), "--out", str(tmp_path)]) == 2

    def test_run_invalid_yaml_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: [rademacher\ntheta0: 1.0\n")
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: invalid YAML")
        assert "Traceback" not in err

    def test_plot_malformed_trace_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{TRACE_HEADER}\n0,1,abc,1.0,,,0.1,0,,2.0\n")
        assert cli_main(["plot", str(bad), "--out", str(tmp_path / "figs")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: could not convert")
        assert "Traceback" not in err

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

    def test_grid_bad_momentum_exits_1_before_any_trace(self, tmp_path, capsys):
        code = cli_main(["grid", "configs/least_squares_poor_start.yaml",
                         "--momenta", "0.5", "1.5", "--out", str(tmp_path / "g")])
        assert code == 1
        assert "beta must be in" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_verify_cli_quick_reports_known_red(self, tmp_path, capsys):
        # every claim is green except the hybrid-advantage bar, so the
        # documented exit code for failed claims (2) is expected
        code = cli_main(["verify", "--quick", "--out",
                         str(tmp_path / "report.csv")])
        assert code == 2
        out = capsys.readouterr().out
        assert "13/14 claims passed" in out
        assert (tmp_path / "report.csv").exists()
