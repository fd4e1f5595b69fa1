"""Harness contracts: config validation, epoch accounting, determinism,
trace round-trips, grids, and the CLI exit codes."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from bisect import bisect_right
from collections import deque
from functools import partial
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sgdlab.cli import main as cli_main
from sgdlab.errors import ConfigurationError, TraceFormatError
from sgdlab.diagnostics import RolloffPolicy, estimate_cv, smooth_cv
from sgdlab import harness, problems
from sgdlab.harness import (TRACE_HEADER, ExperimentConfig, TraceRecord, _CvTracker,
                            _run_loop, build_problem, load_config, problem_size, read_trace,
                            run_experiment, run_grid, write_trace)
from sgdlab.optimizers import AlphaSchedule, SwitchPolicy
from sgdlab.problems import (BLOCK_COORDINATES, LeastSquaresProblem,
                             RademacherProblem, minibatches)
from sgdlab.verification import SECANT_CAP, run_hybrid

from test_verification import unit_ball_run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def batch_parts(batch):
    """rademacher's sample array, or least squares' (features, targets)."""
    return (batch,) if isinstance(batch, np.ndarray) else batch


def make_config(**overrides):
    base = dict(problem="rademacher", theta0=2.0, optimizer="sgd", k=1,
                alpha=0.1, epochs=1, epoch_size=200, eval_every=1, seed=0)
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def run_to_file(config, path):
    records, summary = run_experiment(config)
    write_trace(records, path)
    return records, summary


def case(number, overrides, message):
    """A `test_bad_configs` case. Its id is its number and message, written
    here, so a case added anywhere in the list renames no other; the numbers
    are the list positions the ids were first taken from."""
    return pytest.param(overrides, message, id=f"overrides{number}-{message}")


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            ExperimentConfig.from_dict(dict(problem="rademacher", theta0=1.0,
                                            optimizer="sgd", alpha=0.1, bogus=3))
        # YAML keys need not be strings: `1: 2`, `null: 3`, `yes: 1`
        for extra, names in (({1: 2}, "1"), ({None: 3}, "None"), ({True: 1}, "True"),
                             ({1: 2, None: 3, "bogus": 4}, "1, None, bogus")):
            with pytest.raises(ConfigurationError, match=f"^unknown config keys: {names}$"):
                ExperimentConfig.from_dict(dict(problem="rademacher", theta0=1.0,
                                                optimizer="sgd", alpha=0.1) | extra)

    @pytest.mark.parametrize("overrides,message", [
        case(0, dict(problem="nope"), "unknown problem"),
        case(1, dict(optimizer="adam"), "unknown optimizer"),
        case(2, dict(alpha=None), "positive alpha"),
        case(3, dict(theta0=None), "theta0"),
        case(4, dict(theta0_scale=5.0), "exactly one of theta0"),
        case(5, dict(optimizer="momentum"), "beta"),
        case(6, dict(beta=0.5), "sgd takes no momentum"),
        case(7, dict(k=0), "k must be >= 1"),
        case(8, dict(optimizer="secant", k=2, alpha=None), "k must be 1"),
        case(9, dict(optimizer="hybrid", train_size=100), "train_size is not supported"),
        case(10, dict(theta0="abc"), "theta0 must be a number"),
        case(11, dict(theta0=[1.0, float("nan")]), "theta0 has non-finite"),
        case(12, dict(cv_low=float("nan")), "cv_low must be finite"),
        case(13, dict(optimizer="momentum", beta_policy="cv_linear", cv_high=float("nan")),
                 "cv_high must be finite"),
        case(14, dict(optimizer="hybrid", alpha_schedule="inverse_t",
                      switch_threshold=float("nan")), "switch_threshold must be finite"),
        case(15, dict(problem="least_squares", dim=2, condition_number=float("nan")),
                 "condition_number must be finite"),
        # epoch_size 100 at k = 1: 100 iterations
        case(16, dict(eval_every=101), "exceeds the run's 100 iterations"),
        # finite mode: 2 epochs of ceil(10 / 3) = 4 minibatches
        case(17, dict(problem="least_squares", dim=2, train_size=10, k=3, epochs=2,
                      eval_every=9), "exceeds the run's 8 iterations"),
        # an empty held-out set made NaN accuracy; a negative one a ValueError
        case(18, dict(problem="logistic", dim=2, test_per_class=0),
                 "test_per_class must be >= 1"),
        case(19, dict(problem="logistic", dim=2, test_per_class=-3),
                 "test_per_class must be >= 1"),
        # logistic parameters number n_classes * (dim + 1) = 8, not dim
        case(20, dict(problem="logistic", dim=1, optimizer="secant", alpha=None),
                 "scalar problem, got dim 8"),
        case(21, dict(problem="least_squares", dim=4, theta0=[1.0, 2.0]),
                 "theta0 has 2 entries, problem needs 4"),
        case(22, dict(optimizer="hybrid", alpha_schedule="inverse_t", beta_policy="cv_linear"),
                 "hybrid takes no momentum"),
        # integer keys neither truncate nor read booleans as numbers
        case(23, dict(epochs=2.7), "config key 'epochs': expected an integer, got 2.7"),
        case(24, dict(seed=3.9), "config key 'seed': expected an integer, got 3.9"),
        case(25, dict(k=True), "config key 'k': expected an integer, got True"),
        case(26, dict(epoch_size=float("inf")), "config key 'epoch_size': expected an integer"),
        case(27, dict(alpha=True), "config key 'alpha': expected a number, got True"),
        case(28, dict(optimizer="momentum", beta=False), "config key 'beta': expected a number"),
        # falsy momentum settings are still momentum settings
        case(29, dict(beta=0.0, beta_policy=""), "sgd takes no momentum"),
        case(30, dict(optimizer="secant", alpha=None, beta=0.0, beta_policy=""),
                 "secant takes no momentum"),
        case(31, dict(optimizer="hybrid", alpha_schedule="inverse_t", beta=0.0, beta_policy=""),
                 "hybrid takes no momentum"),
        # float() would read a boolean theta0 as 1.0
        case(32, dict(theta0=True), "theta0 must be a number"),
        case(33, dict(theta0=[True]), "theta0 must be a number"),
        case(34, dict(theta0=[1.0, True]), "theta0 must be a number"),
        # a nested list is not flattened into a parameter vector
        case(35, dict(theta0=[[1.0]]), "theta0 must be a number"),
        case(36, dict(problem="least_squares", dim=2, theta0=[[1.0, 2.0]]),
                 "theta0 must be a number"),
        # only the Optional keys take None
        case(37, dict(k=None), "config key 'k'"),
        case(38, dict(beta_max=None), "config key 'beta_max'"),
        # numpy's generators take no negative seed
        case(39, dict(seed=-1), "^seed must be >= 0, got -1$"),
        case(40, dict(problem="least_squares", dim=2, problem_seed=-3),
                 "^problem_seed must be >= 0, got -3$"),
        # too large for numpy to build (every size here is >= 2^47 bytes, so
        # none is ever allocated): a MemoryError, or numpy's size ValueError
        case(41, dict(problem="least_squares", dim=10 ** 16),
                 "^least_squares problem is too large to build: Unable to allocate"),
        case(42, dict(problem="logistic", test_per_class=10 ** 16),
                 "^logistic problem is too large to build: Unable to allocate"),
        case(43, dict(problem="logistic", n_classes=10 ** 20),
                 "^logistic problem is too large to build: Maximum allowed dimension"),
        # a secant run has no learning rate to apply the alpha to
        case(44, dict(optimizer="secant", alpha=0.5, alpha_schedule="inverse_t"),
                 "secant takes no learning rate"),
        # schedule, roll-off and switch keys are checked where the optimizer
        # ignores them too
        case(45, dict(switch_kind="bogus"), "unknown switch policy 'bogus'"),
        case(46, dict(optimizer="secant", alpha=None, alpha_schedule="bogus"),
                 "unknown learning-rate schedule 'bogus'"),
        case(47, dict(beta_max=5.0), r"beta_max must be in \[0, 1\), got 5.0"),
        case(48, dict(cv_low=3.0, cv_high=1.0), "need 0 <= cv_low < cv_high"),
        case(67, dict(cv_low=1.0, cv_high=1.0), "need 0 <= cv_low < cv_high"),
        # every problem key is checked, whatever the problem
        case(49, dict(dim=0), "^dim must be >= 1, got 0$"),
        case(50, dict(condition_number=-5), r"^condition_number must be >= 1, got -5\.0$"),
        case(51, dict(noise_std=-1), r"^noise_std must be >= 0, got -1\.0$"),
        case(52, dict(n_classes=1), "^n_classes must be >= 2, got 1$"),
        case(53, dict(separation=-1), r"^separation must be >= 0, got -1\.0$"),
        case(54, dict(test_per_class=0), "^test_per_class must be >= 1, got 0$"),
        case(55, dict(problem="least_squares", dim=2, n_classes=1),
                 "^n_classes must be >= 2, got 1$"),
        case(56, dict(problem="logistic", dim=2, noise_std=-1),
                 r"^noise_std must be >= 0, got -1\.0$"),
        # the risk gap is never negative, so a negative threshold is never met
        case(57, dict(risk_threshold=-1.0), r"^risk_threshold must be >= 0, got -1\.0$"),
        # a constant beta and a roll-off policy contradict each other
        case(58, dict(optimizer="momentum", beta=0.5, beta_policy="cv_linear"),
                 "give either 'beta' or 'beta_policy', not both"),
        # an integer too large for a float names its key: float() overflows
        case(59, dict(alpha=10 ** 400), "config key 'alpha': int too large to convert to float"),
        case(60, dict(optimizer="momentum", beta=10 ** 400), "config key 'beta': int too large"),
        case(61, dict(cv_high=10 ** 400), "config key 'cv_high': int too large"),
        case(62, dict(switch_threshold=10 ** 400), "config key 'switch_threshold': int too large"),
        case(63, dict(theta0=None, theta0_scale=10 ** 400),
                 "config key 'theta0_scale': int too large"),
        case(64, dict(theta0=10 ** 400), "theta0 must be a number"),
        case(65, dict(theta0=[1.0, 10 ** 400]), "theta0 must be a number"),
        # Python reprs no int of more than 4,300 digits, so the message must not
        case(66, dict(theta0=10 ** 5000),
                 "theta0 must be a number or a list of numbers: int too large"),
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

    @pytest.mark.parametrize("text,message", [
        ("", "^empty config file: "),
        ("# a comment only\n", "^empty config file: "),
        ("- problem: rademacher\n- theta0: 2.0\n", "^config must be a mapping, got list$"),
    ])
    def test_empty_or_non_mapping_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=message):
            load_config(path)

    def test_repeated_key_rejected(self, tmp_path):
        # PyYAML keeps the last of repeated keys; YAML forbids repeats
        path = tmp_path / "c.yaml"
        path.write_text("problem: rademacher\ntheta0: 2.0\noptimizer: sgd\n"
                        "alpha: 0.1\nalpha: 5.0\n")
        with pytest.raises(ConfigurationError,
                           match=f"^{re.escape(str(path))}: config key 'alpha' is given more than once$"):
            load_config(path)
        # a key merged in with `<<` may be overridden, as YAML's merge key allows
        path.write_text("<<: {problem: rademacher, alpha: 5.0}\ntheta0: 2.0\n"
                        "optimizer: sgd\nalpha: 0.1\n")
        assert load_config(path).alpha == 0.1

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")),
                             ids=lambda p: p.stem)
    def test_load_builds_nothing_and_a_run_builds_once(self, path, monkeypatch):
        built = []
        monkeypatch.setattr(harness, "build_problem",
                            lambda cfg: built.append(cfg) or build_problem(cfg))
        config = load_config(path)
        config = dataclasses.replace(config, epochs=1, epoch_size=config.k,
                                     eval_every=1, train_size=None)
        assert built == []
        run_experiment(config)
        assert built == [config]

    def test_grid_builds_each_problem_once(self, tmp_path, monkeypatch):
        base = dataclasses.replace(load_config(CONFIG_DIR / "least_squares_poor_start.yaml"),
                                   epochs=1, epoch_size=600, eval_every=1)
        built = []
        monkeypatch.setattr(harness, "build_problem",
                            lambda cfg: built.append(cfg) or build_problem(cfg))
        run_grid(base, [0.0, 0.5, 0.9], [1e-4, 3e-4, 1e-3], [0], tmp_path)
        assert len(built) == 9

    @pytest.mark.parametrize("config", [
        *[load_config(p) for p in sorted(CONFIG_DIR.glob("*.yaml"))],
        make_config(),
        make_config(problem="least_squares", dim=3),
        make_config(problem="least_squares", dim=1, condition_number=1.0, noise_std=0.5),
        make_config(problem="logistic", dim=3, n_classes=5, test_per_class=7),
        make_config(problem="logistic", dim=1, n_classes=2, test_per_class=1),
    ], ids=lambda c: f"{c.problem}-{c.dim}-{c.n_classes}-{c.test_per_class}")
    def test_problem_size_is_what_the_build_holds(self, config):
        problem = build_problem(config)
        arrays = [a for v in vars(problem).values()
                  for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
        largest = max(arrays, key=lambda a: a.size, default=np.empty(()))
        assert problem_size(config) == (problem.dim, largest.shape)

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



class TestRunParts:
    """`ExperimentConfig.run_parts`: the schedule, roll-off policy and switch
    an optimizer takes, each equal to the part built directly from its keys."""

    @pytest.mark.parametrize("overrides,takes", [
        (dict(optimizer="sgd"), (True, False, False)),
        (dict(optimizer="momentum", beta=0.5), (True, True, False)),
        (dict(optimizer="momentum", beta_policy="cv_linear"), (True, True, False)),
        (dict(optimizer="secant", alpha=None), (False, False, False)),
        (dict(optimizer="hybrid"), (True, False, True)),
    ])
    def test_parts_the_optimizer_does_not_take_are_none(self, overrides, takes):
        parts = make_config(**overrides).run_parts()
        assert tuple(part is not None for part in parts) == takes

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.95])
    def test_constant_beta_is_the_constant_policy_at_beta(self, beta):
        # the config's beta_max (0.9 by default) plays no part
        _, policy, _ = make_config(optimizer="momentum", beta=beta).run_parts()
        assert policy == RolloffPolicy("constant", beta_max=beta)
        assert policy.beta(None) == policy.beta(5.0) == beta

    @pytest.mark.parametrize("overrides,parts", [
        (dict(optimizer="momentum", alpha=0.3, alpha_schedule="inverse_t",
              beta_policy="cv_threshold", beta_max=0.8, cv_low=0.2, cv_high=1.5),
         (AlphaSchedule("inverse_t", 0.3), RolloffPolicy("cv_threshold", 0.8, 0.2, 1.5),
          None)),
        (dict(optimizer="momentum", alpha=0.05, beta_policy="cv_linear", beta_max=0.6),
         (AlphaSchedule("constant", 0.05), RolloffPolicy("cv_linear", 0.6), None)),
        (dict(optimizer="hybrid", alpha=2.0, alpha_schedule="inverse_t",
              switch_kind="cv", switch_threshold=0.7),
         (AlphaSchedule("inverse_t", 2.0), None, SwitchPolicy("cv", 0.7))),
        (dict(optimizer="hybrid", switch_threshold=3.0),
         (AlphaSchedule("constant", 0.1), None, SwitchPolicy("abs_theta", 3.0))),
        (dict(optimizer="secant", alpha=None, switch_kind="cv"), (None, None, None)),
    ])
    def test_parts_equal_direct_construction(self, overrides, parts):
        assert make_config(**overrides).run_parts() == parts


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

    def test_declared_test_metrics_fill_each_epochs_first_record(self, monkeypatch):
        # run_experiment reads the declaration, not the problem's class
        monkeypatch.setattr(RademacherProblem, "test_metrics", lambda self, theta: (0.5, 0.25))
        records, _ = run_experiment(make_config(epochs=2, epoch_size=10, k=4))
        assert [(r.epoch, r.accuracy) for r in records] == [
            (0, 0.25), (0, None), (1, 0.25), (1, None), (2, 0.25)]
        assert [r.est_risk for r in records if r.accuracy is not None] == [0.5] * 3

    def test_infinite_mode_epoch_column(self):
        cfg = make_config(epochs=2, epoch_size=10, k=4, eval_every=1)
        records, _ = run_experiment(cfg)
        assert [r.epoch for r in records] == [0, 0, 1, 1, 2]
        assert records[-1].iteration == 5


def _reference_field(value) -> str:
    """A trace field as one call per field formats it: empty for None, an
    int's digits, 17 significant digits of anything else."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


# any float, NaN and the infinities included, plus the edge values by name
_TRACE_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf])


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

    @settings(max_examples=300, deadline=None)
    @given(records=st.lists(st.builds(
        TraceRecord,
        epoch=st.integers(0, 10 ** 6) | st.integers(0, 10 ** 6).map(np.int64),
        iteration=st.integers(0, 10 ** 9),
        true_risk=st.none() | _TRACE_FLOATS, est_risk=_TRACE_FLOATS,
        cv_raw=st.none() | _TRACE_FLOATS, cv_smoothed=st.none() | _TRACE_FLOATS,
        alpha=_TRACE_FLOATS, beta=_TRACE_FLOATS,
        accuracy=st.none() | _TRACE_FLOATS, theta_norm=_TRACE_FLOATS), max_size=6))
    @example(records=[
        TraceRecord(0, 1, None, -0.0, None, None, 5e-324, 1.7976931348623157e308, None, 0.0),
        TraceRecord(2, 3, math.nan, math.inf, -math.inf, 0.5, -0.0, 0.25, 1.0, math.nan)])
    def test_trace_lines_are_the_per_field_format(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        write_trace(records, path)
        expected = [",".join(map(_reference_field, r)) for r in records]
        assert path.read_text(encoding="utf-8").split("\n") == [TRACE_HEADER, *expected, ""]
        if all(v is None or math.isfinite(v) for r in records for v in r):
            # repr tells -0.0 from 0.0; an np.int64 epoch reads back as an int
            assert repr(read_trace(path)) == repr([r._replace(epoch=int(r.epoch))
                                                   for r in records])
        else:
            with pytest.raises(TraceFormatError, match="non-finite value"):
                read_trace(path)

    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trace([], path)
        assert path.read_text() == TRACE_HEADER + "\n"
        assert read_trace(path) == []

    @pytest.mark.parametrize("row,message", [
        ("0,1,abc,1.0,,,0.1,0,,2.0", "could not convert string to float: 'abc'"),
        ("0.5,1,1.0,1.0,,,0.1,0,,2.0", "invalid literal for int"),
        ("0,1,1.0,1.0,,,0.1,0,2.0", "expected 10 fields, got 9"),
        ("0,1,1.0,1.0,,,0.1,0,,2.0,", "expected 10 fields, got 11"),
    ])
    def test_malformed_field_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"{TRACE_HEADER}\n0,1,1.0,1.0,,,0.1,0,,2.0\n{row}\n")
        with pytest.raises(TraceFormatError, match=f"bad.csv:3: {message}"):
            read_trace(path)

    def test_unreadable_trace_files_are_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="bad.csv: empty trace file$"):
            read_trace(path)
        # every column present, in another order
        columns = TRACE_HEADER.split(",")
        path.write_text(",".join(columns[1:] + columns[:1]) + "\n")
        with pytest.raises(TraceFormatError, match="bad.csv: unexpected header 'iteration,"):
            read_trace(path)
        with pytest.raises(OSError, match=f"^cannot read trace {re.escape(str(tmp_path))}: "):
            read_trace(tmp_path)

    def test_trace_into_missing_directory_is_an_os_error(self, tmp_path):
        path = tmp_path / "absent" / "t.csv"
        with pytest.raises(OSError, match=f"^cannot write trace {re.escape(str(path))}: "):
            write_trace([], path)
        assert not (tmp_path / "absent").exists()

    def test_non_utf8_trace_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(f"{TRACE_HEADER}\n0,1,1.0,1.0,,,0.1,0,,2.0\xe9\n".encode("latin-1"))
        with pytest.raises(TraceFormatError, match="bad.csv: not UTF-8 text: .*0xe9"):
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


class TestCvTracker:
    # any float64, the k = 1 route's edge values pinned
    EDGE_COSTS = (-0.0, 5e-324, 2.2e-308, 1e308, math.inf, -math.inf, math.nan)

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(2, 30),
           costs=st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 1.0, 4.0]),
                                              st.sampled_from(EDGE_COSTS),
                                              st.floats(0.0, 1e6), st.floats()),
                                    st.booleans()), max_size=100))
    @example(size=3, costs=[(c, False) for c in (4.0, 0.0, 1.0, 4.0, 4.0, 0.0, 2.5, 1.0,
                                                  9.0, 0.0)])
    @example(size=2, costs=[(c, i % 2 == 0) for i, c in enumerate(EDGE_COSTS * 2)])
    def test_trailing_costs_equal_bounded_deque(self, size, costs):
        # checked after every cost: below, at and past the buffer size, and
        # across each wrap of the doubled array; a cost comes as a Python
        # float (a float iterate met a float sample) or as a (1,) array, and
        # bytes are compared, since NaN != NaN
        tracker = _CvTracker(1, 10, size)
        window = deque(maxlen=size)
        for cost, as_float in costs:
            tracker.push(cost if as_float else np.array([cost]))
            window.append(cost)
            view, want = tracker.trailing_costs(), np.array(window)
            assert view.tobytes() == want.tobytes()
            with np.errstate(all="ignore"):  # inf - inf in the CV's deviations
                want_raw = estimate_cv(want) if len(window) >= 2 else None
                assert tracker.compute()[0] == want_raw


class TestSampleStream:
    """Block-drawn fresh samples equal per-call draws, sample for sample."""

    class Recorder:
        """A Generator's draws, delegated, with the sample rows of each call."""

        def __init__(self, rng, fail_at=None):
            self.rng, self.rows, self.fail_at = rng, [], fail_at

        def integers(self, low, high, size):
            self.rows.append(size)
            return self.rng.integers(low, high, size=size)

        def standard_normal(self, size=None, out=None):
            self.rows.append(size[0] if out is None else out.shape[0])
            if len(self.rows) == self.fail_at:
                raise MemoryError("no room for the block")
            return self.rng.standard_normal(size, out=out)

    @pytest.mark.parametrize("make,k,n_batches,blocks", [
        # blocks of 1, 2, 4, ... batches: 13 blocks hold 8191 batches, the
        # last 1172 stay under the cap (k = 7 does not divide 2^16: 9362)
        pytest.param(RademacherProblem, 7, 9363, [2 ** i for i in range(13)] + [1172],
                     id="rademacher-k7"),
        pytest.param(RademacherProblem, 1, 70000, [2 ** i for i in range(16)] + [4465],
                     id="rademacher-k1"),
        # 2^16 // 7000: the cap is 9 batches, then a short last block
        pytest.param(RademacherProblem, 7000, 40, [1, 2, 4, 8, 9, 9, 7],
                     id="rademacher-k7000"),
        # 2^16 // 40000: the cap is 1, so one batch per draw
        pytest.param(RademacherProblem, 40000, 3, [1, 1, 1], id="rademacher-k40000"),
    ] + [pytest.param(partial(LeastSquaresProblem, dim, 1000.0, 0.0, seed=3), k, n_batches,
                      blocks, id=f"least_squares-{name}-threaded")
         for dim, k, n_batches, blocks, name in (
             # 2^16 // 2000: the cap is 32 batches, then a short last block
             (10, 200, 100, [1, 2, 4, 8, 16, 32, 32, 5], "k200"),
             # 2^16 // 70 = 936: the cap is not a multiple of 2 ** i
             (10, 7, 2000, [2 ** i for i in range(10)] + [936, 41], "k7"),
             # k * dim = 40000 is over 2^15: the cap is 1, so one batch per draw
             (1000, 40, 3, [1, 1, 1], "k40-dim1000"))])
    def test_blocks_match_per_call_draws(self, make, k, n_batches, blocks):
        problem, threads = make(), threading.enumerate()
        assert problem.block_draws and sum(blocks) == n_batches
        rng_block, rng_call = self.Recorder(np.random.default_rng(5)), np.random.default_rng(5)
        stream, ends = minibatches(problem, rng_block, k, n_batches), list(accumulate(blocks))
        for i in range(n_batches):
            got, want = next(stream), problem.sample(rng_call, k)
            # the worker fills at most one block ahead: batch i is in block
            # bisect_right(ends, i), counted from 0
            assert len(rng_block.rows) <= bisect_right(ends, i) + 2
            if i == 0:  # a worker fills noiseless least squares' blocks of 2 or more
                workers = problem.finish is not None and max(blocks) > 1
                assert len(threading.enumerate()) == len(threads) + workers
            if k == 1:
                # a float-iterate problem's one-sample minibatch is the float
                assert type(got) is float and [got] == want.tolist()
            else:
                assert ([g.tobytes() for g in batch_parts(got)]
                        == [w.tobytes() for w in batch_parts(want)])
        assert all(n * problem.dim <= max(BLOCK_COORDINATES, k * problem.dim)
                   for n in rng_block.rows)
        assert rng_block.rows == [n * k for n in blocks]
        # no sample drawn beyond the last batch, and no thread left running
        assert rng_block.rng.bit_generator.state == rng_call.bit_generator.state
        stream.close()
        assert threading.enumerate() == threads

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
        # 40 batches of 7000 draw in blocks of [1, 2, 4, 8, 9, 9, 7]: 9 is the cap
        pytest.param(dict(problem="rademacher", theta0=3.0, optimizer="momentum", beta=0.5,
                          k=7000, alpha=0.1, epochs=1, epoch_size=280000, eval_every=3,
                          seed=4),
                     False, id="rademacher-k7000"),
    ] + [pytest.param(dict(problem="least_squares", dim=10, condition_number=1000.0,
                           noise_std=0.0, theta0_scale=3.0, epochs=1, epoch_size=20000,
                           eval_every=7, **run), diverges, id=f"least_squares-{name}-threaded")
         for run, diverges, name in (
             # 100 batches of 200 in blocks of [1, 2, 4, 8, 16, 32, 32, 5]
             (dict(optimizer="momentum", beta=0.5, k=200, alpha=2e-4, seed=5), False, "k200"),
             # above the 1e-3 stability limit: diverges at iteration 19, in the
             # block of batches 16-31, while the next block fills
             (dict(optimizer="sgd", k=20, alpha=3e-3, seed=6), True, "ends-mid-block"))])
    def test_run_identical_with_block_draws_off(self, raw, diverges, monkeypatch):
        config, threads = ExperimentConfig.from_dict(raw), threading.enumerate()
        records, summary = run_experiment(config)
        assert summary.diverged == diverges
        assert threading.enumerate() == threads
        monkeypatch.setattr(type(build_problem(config)), "block_draws", False)
        records_off, summary_off = run_experiment(config)
        assert records == records_off
        assert np.array_equal(summary.final_theta, summary_off.final_theta)
        assert (summary.samples, summary.iterations, summary.diverged) == (
            summary_off.samples, summary_off.iterations, summary_off.diverged)

    def test_stream_leaves_no_thread(self):
        # k * dim = 200: blocks of 1, 2, 4, ... batches, up to 327
        problem, threads = LeastSquaresProblem(10, 1000.0, 0.0, seed=3), threading.enumerate()
        for stop in ("close", "drop"):
            stream = minibatches(problem, np.random.default_rng(5), 20, 1000)
            for _ in range(5):  # mid-block: batches 3-6 are the third block
                next(stream)
            assert len(threading.enumerate()) == len(threads) + 1
            if stop == "close":
                stream.close()
            else:
                del stream
            assert threading.enumerate() == threads

    def test_streams_side_by_side_under_preemption(self):
        # four workers on at most two CPUs, the GIL switching every 10 us:
        # k * dim = 10000, so each stream hands its worker 52 blocks of up to 6
        problem, threads = LeastSquaresProblem(20, 1000.0, 0.0, seed=3), threading.enumerate()
        rngs = [np.random.default_rng(seed) for seed in range(4)]
        refs = [np.random.default_rng(seed) for seed in range(4)]
        streams = [minibatches(problem, rng, 500, 300) for rng in rngs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(300):
                for stream, ref in zip(streams, refs):
                    got, want = next(stream), problem.sample(ref, 500)
                    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        finally:
            sys.setswitchinterval(interval)
            for stream in streams:
                stream.close()
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in refs]
        assert threading.enumerate() == threads

    def test_open_stream_does_not_hold_up_exit(self):
        # a stream left open, say by a traceback that keeps its frame, still
        # has its worker waiting for the next block when the interpreter exits
        code = ("import numpy as np\nfrom sgdlab import problems\n"
                "problem = problems.LeastSquaresProblem(10, 1000.0, 0.0, seed=3)\n"
                "stream = problems.minibatches(problem, np.random.default_rng(5), 20, 1000)\n"
                "next(stream)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(problems.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
        assert done.returncode == 0

    @pytest.mark.parametrize("fail_at,read", [(1, 0), (3, 3)],
                             ids=["first-block-threaded", "third-block-threaded"])
    def test_fill_error_is_a_config_error(self, fail_at, read):
        # the worker fills every block: the first before batch 0 is read, the
        # third (batches 3-6) while batch 1 is read; each fill's error is
        # raised where the reader reaches its block
        problem, threads = LeastSquaresProblem(10, 1000.0, 0.0, seed=3), threading.enumerate()
        rng = self.Recorder(np.random.default_rng(5), fail_at=fail_at)
        stream = minibatches(problem, rng, 20, 1000)
        for _ in range(read):
            next(stream)
        with pytest.raises(ConfigurationError,
                           match="k = 20 is too large to draw a minibatch: no room for the block"):
            next(stream)
        assert threading.enumerate() == threads

    @pytest.mark.parametrize("k,epoch_sizes", [(5, [5, 5]), (3, [3, 3, 3, 1])],
                             ids=["k-divides", "short-last-minibatch"])
    @pytest.mark.parametrize("problem", [
        RademacherProblem(), LeastSquaresProblem(3, 10.0, 0.1, seed=2)],
        ids=["rademacher", "least_squares"])
    def test_finite_set_equals_epoch_loop(self, problem, k, epoch_sizes):
        def epoch_batches(rng, train_size, epochs):
            """The finite-set epochs run_experiment drew before minibatches did."""
            train = problem.sample(rng, train_size)
            for _ in range(epochs):
                perm = rng.permutation(train_size)
                for start in range(0, train_size, k):
                    yield problem.subset(train, perm[start:start + k])

        n_batches = 3 * len(epoch_sizes)
        rng, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
        stream = minibatches(problem, rng, k, n_batches, train_size=10)
        got = [next(stream) for _ in range(n_batches)]
        want = list(epoch_batches(rng_ref, 10, 3))
        assert [len(batch_parts(batch)[-1]) for batch in got] == epoch_sizes * 3
        assert len(want) == n_batches
        for batch, ref in zip(got, want):
            assert ([p.tobytes() for p in batch_parts(batch)]
                    == [p.tobytes() for p in batch_parts(ref)])
        assert rng.bit_generator.state == rng_ref.bit_generator.state


class TestRunStart:
    """What a run does before its first sample moves it: the secant phase's
    free second point, and momentum's velocity, which starts at zero."""

    @pytest.mark.parametrize("problem,theta0,second", [
        ("rademacher", 0.0, 1.0), ("rademacher", 3.0, 1.5),
        ("least_squares", 0.0, [1.0]), ("least_squares", 3.0, [1.5])],
        ids=["rademacher-from-0", "rademacher-from-3", "least_squares-from-0",
             "least_squares-from-3"])
    def test_secant_free_second_point(self, problem, theta0, second):
        # theta0 / 2, or 1 from theta0 = 0: a float on rademacher's float
        # route, a (1,) array on the array route, both before any sample
        config = make_config(problem=problem, dim=1, theta0=theta0, optimizer="secant",
                             alpha=None, epoch_size=3)
        steps = _run_loop(config, build_problem(config), np.random.default_rng(0),
                          every_iterate=True)
        (_, start, *_), (iteration, point, samples, *_) = next(steps), next(steps)
        steps.close()
        assert np.asarray(start).tolist() == (theta0 if problem == "rademacher" else [theta0])
        assert type(point) is (float if problem == "rademacher" else np.ndarray)
        assert np.asarray(point).tolist() == second and iteration == samples == 0

    @pytest.mark.parametrize("overrides", [
        dict(problem="rademacher"),
        dict(problem="least_squares", dim=3, theta0=[2.0, -1.0, 0.5], k=4)],
        ids=["rademacher", "least_squares"])
    def test_momentum_first_iterate_is_sgds(self, overrides):
        # v starts at zero, so beta * v adds nothing to the first step
        iterates = []
        for optimizer in (dict(optimizer="sgd"), dict(optimizer="momentum", beta=0.5)):
            config = make_config(**overrides, **optimizer, epoch_size=40)
            steps = _run_loop(config, build_problem(config), np.random.default_rng(7),
                              every_iterate=True)
            next(steps)  # theta0
            iterates.append(np.asarray(next(steps)[1]).tobytes())
            steps.close()
        assert iterates[0] == iterates[1]


class TestRunReductions:
    """What the run loop keeps across iterations (the threshold iteration),
    when it estimates the CV, and the last iterate it reports."""

    @pytest.mark.parametrize("overrides,first", [
        # alpha_1 = 0.5 steps theta to the sample, +/-1: a gap of exactly 1.0
        pytest.param(dict(theta0=5.0, alpha=0.5, alpha_schedule="inverse_t",
                          risk_threshold=1.0), 1, id="rademacher-exact-hit"),
        # min_risk 0.0: the risk falls through 1.046 at 6 to 0.183 at 9
        pytest.param(dict(problem="least_squares", dim=3, condition_number=10.0, k=4,
                          alpha=0.05, epoch_size=400, risk_threshold=0.2), 9,
                     id="least_squares-noiseless")])
    def test_threshold_iteration_is_the_first_within_the_gap(self, overrides, first):
        # the first iteration within the threshold, so this kills:
        # - `min_risk or 0.0` -> `and 0.0` (rademacher's min_risk is 1.0),
        #   and -> `or 1.0` (noiseless least squares' is 0.0);
        # - `reach is None and` -> `or`, which moves it to a later best;
        # - the gap's `-` -> `+`, and its `<=` -> `<`, which misses the exact hit
        config = make_config(**overrides)
        records, summary = run_experiment(config)
        min_risk = build_problem(config).min_risk or 0.0
        within = [r.iteration for r in records
                  if r.true_risk - min_risk <= config.risk_threshold]
        assert summary.iters_to_threshold == within[0] == first

    @pytest.mark.parametrize("optimizer,calls", [
        (dict(optimizer="momentum", beta_policy="cv_linear"), 60),
        (dict(optimizer="momentum", beta=0.5), 20),
        (dict(optimizer="sgd"), 20)], ids=["cv_linear", "constant-beta", "sgd"])
    def test_cv_is_estimated_where_the_run_reads_it(self, optimizer, calls, monkeypatch):
        # 60 iterations of k = 4, 20 of them records: a CV-driven policy
        # estimates every iteration, other runs only at records; kills
        # `policy_driven` inverted and `due`'s `and` -> `or`
        counted = []

        def counting(costs, **keywords):
            counted.append(costs.shape[0])
            return estimate_cv(costs, **keywords)

        monkeypatch.setattr(harness, "estimate_cv", counting)
        run_experiment(make_config(k=4, epoch_size=240, eval_every=3, **optimizer))
        assert counted == [4] * calls

    def test_smoothed_cv_is_the_median_of_record_estimates(self):
        # kills `due`'s `and` -> `or`, which smooths over every iteration's estimate
        records, _ = run_experiment(make_config(k=4, epoch_size=240, eval_every=3,
                                                cv_window=5))
        raws = [r.cv_raw for r in records]
        assert len(records) == 20 and None not in raws
        for i, record in enumerate(records):
            assert record.cv_smoothed == smooth_cv(raws[max(0, i - 4):i + 1])

    def test_summary_reports_the_last_iterate_off_the_record_grid(self):
        # 50 iterations, a record every 7th: the run still yields iteration 50
        # and its theta; kills `iteration == n_iterations` -> `!=`
        config = make_config(problem="least_squares", dim=3, condition_number=10.0, k=4,
                             alpha=0.05, epoch_size=200, eval_every=7)
        records, summary = run_experiment(config)
        *_, (iteration, theta, *_) = _run_loop(config, build_problem(config),
                                               np.random.default_rng(config.seed),
                                               every_iterate=True)
        assert records[-1].iteration == 49 and summary.iterations == iteration == 50
        assert summary.final_theta.tobytes() == theta.tobytes()


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
        never = make_config(theta0=1e308, optimizer="hybrid", switch_threshold=0.0,
                            alpha=0.5, alpha_schedule="inverse_t", epoch_size=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(over="ignore", invalid="ignore"):  # as each consumer keeps it
                steps = list(_run_loop(never, RademacherProblem(), np.random.default_rng(0),
                                       every_iterate=True))
            count = run_hybrid(never, np.random.default_rng(0))
            records, summary = run_experiment(make_config(theta0=1.0e308,
                                                          optimizer="secant", alpha=None))
        # theta0, the free second point, then the NaN step that ends the run
        assert [step[0] for step in steps] == [0, 0, 1] and steps[-1][-1]
        assert np.isnan(steps[-1][1]) and count is None
        assert summary.diverged and summary.iterations == 1 and records == []
        assert np.geterr() == errors  # the runs restore numpy's error state

    def test_stop_radius_checks_every_iterate(self):
        # verification's unit-ball runs stop at their first iterate with
        # |theta| <= 1, theta0 and the free second point included at 0 samples
        # theta0 inside the ball: the run ends before drawing anything
        for optimizer in ("hybrid", "sgd"):
            rng = np.random.default_rng(3)
            assert unit_ball_run(0.5, rng, optimizer) == 0
            assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state
        # the free second point 1.5 / 2 is inside
        rng = np.random.default_rng(3)
        assert unit_ball_run(1.5, rng) == 0
        assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state
        # from a poor start: the samples spent at the first iterate inside of
        # the run that goes on to its cap
        config = make_config(theta0=1e4, optimizer="hybrid", alpha=0.5,
                             alpha_schedule="inverse_t", epoch_size=SECANT_CAP)
        steps = list(_run_loop(config, RademacherProblem(), np.random.default_rng(4),
                               every_iterate=True))
        spent = unit_ball_run(1e4, np.random.default_rng(4))
        assert spent == next(n for _, theta, n, *_ in steps if abs(theta) <= 1.0) >= 2

    @pytest.mark.parametrize("optimizer", ["sgd", "hybrid"])
    @pytest.mark.parametrize("coefficient", [0.45, 1.25])
    def test_stop_radius_run_draws_float_samples_in_blocks(self, optimizer, coefficient,
                                                           monkeypatch):
        drawn, seen = [], []
        draw, evaluate = RademacherProblem.sample, RademacherProblem.evaluate
        monkeypatch.setattr(RademacherProblem, "sample",
                            lambda self, rng, n: drawn.append(n) or draw(self, rng, n))
        monkeypatch.setattr(RademacherProblem, "evaluate",
                            lambda self, theta, x: seen.append(type(x))
                            or evaluate(self, theta, x))
        spent = unit_ball_run(1e4, np.random.default_rng(6), optimizer, coefficient)
        assert spent > 1
        # the float route, and never twice the samples spent
        assert seen == [float] * spent and sum(drawn) < 2 * spent + 1

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("switch_kind,threshold", [
        ("abs_theta", 1.0),
        ("abs_theta", 0.0),  # never fires: a 300-step secant phase
        ("cv", 0.9),
        ("cv", 5.0),
    ])
    def test_matches_run_hybrid(self, switch_kind, threshold, seed):
        # run_experiment's hybrid optimizer and verification's run_hybrid read
        # the one run loop: at the default cv_buffer the loop visits the
        # records' iterates, and run_hybrid counts the samples spent at the
        # first of them inside the unit ball
        config = ExperimentConfig.from_dict(dict(
            problem="rademacher", theta0=500.0, optimizer="hybrid",
            switch_kind=switch_kind, switch_threshold=threshold, k=1, alpha=0.5,
            alpha_schedule="inverse_t", epochs=1, epoch_size=300, eval_every=1,
            seed=seed))
        records, summary = run_experiment(config)
        rng = np.random.default_rng(seed)
        steps = list(_run_loop(config, RademacherProblem(), rng, every_iterate=True))
        assert not steps[-1][-1] and not summary.diverged
        # steps[0] is theta0 and steps[1] the free second point; secant rows
        # carry alpha 0
        assert [abs(step[1]) for step in steps[2:]] == [r.theta_norm for r in records]
        assert [step[7] for step in steps[2:]] == [r.alpha for r in records]
        assert steps[-1][1] == summary.final_theta[0]
        assert run_hybrid(config, np.random.default_rng(seed)) == next(
            (n for _, theta, n, *_ in steps if abs(theta) <= 1.0), None)
        # the generator ends where one draw per sample would
        rng_call = np.random.default_rng(seed)
        for _ in range(steps[-1][2]):
            RademacherProblem().sample(rng_call, 1)
        assert rng.bit_generator.state == rng_call.bit_generator.state


def _rademacher(**overrides):
    return ExperimentConfig.from_dict({**dict(
        problem="rademacher", theta0=5.0, optimizer="sgd", k=1, alpha=0.5,
        alpha_schedule="inverse_t", epochs=2, epoch_size=500, eval_every=1,
        seed=11), **overrides})


def _iterate_types(problem, secant=False):
    config = _rademacher(optimizer="hybrid" if secant else "sgd", theta0=40.0, epochs=1,
                         epoch_size=20)
    return {type(step[1]) for step in _run_loop(config, problem, np.random.default_rng(0),
                                                every_iterate=True)}


class TestFloatIterate:
    """A `float_iterate` problem's run on Python floats matches, bit for bit,
    the same run on (1,) arrays, which patching the declaration off forces."""

    def test_route_follows_the_declaration(self, monkeypatch):
        for secant in (False, True):
            assert _iterate_types(RademacherProblem(), secant) == {float}
            assert _iterate_types(LeastSquaresProblem(1, 1.0, 0.0, 0), secant) == {np.ndarray}
        monkeypatch.setattr(RademacherProblem, "float_iterate", False)
        assert _iterate_types(RademacherProblem()) == {np.ndarray}

    @pytest.mark.parametrize("config,diverges", [
        pytest.param(_rademacher(), False, id="sgd-k1"),
        pytest.param(_rademacher(k=7, theta0=3.0, alpha=0.1, alpha_schedule="constant",
                                 epoch_size=700, eval_every=2), False, id="sgd-k7"),
        pytest.param(_rademacher(optimizer="momentum", beta_policy="cv_linear", k=100,
                                 theta0=50.0, alpha=0.05, alpha_schedule="constant",
                                 epoch_size=10000), False, id="momentum-cv_linear-k100"),
        pytest.param(_rademacher(optimizer="hybrid", theta0=1e4, switch_threshold=1.0),
                     False, id="hybrid-abs_theta"),
        pytest.param(_rademacher(optimizer="hybrid", theta0=1e4, switch_kind="cv",
                                 switch_threshold=0.5, eval_every=3),
                     False, id="hybrid-cv"),
        pytest.param(_rademacher(train_size=50, epochs=3, alpha=0.05,
                                 alpha_schedule="constant"), False, id="finite-k1"),
        # 52 = 17 * 3 + 1: each epoch ends on a one-sample minibatch
        pytest.param(_rademacher(optimizer="momentum", beta=0.5, train_size=52, epochs=3,
                                 k=3, alpha=0.05, alpha_schedule="constant"),
                     False, id="finite-k3"),
        pytest.param(_rademacher(optimizer="momentum", beta=0.9, alpha=5.0,
                                 alpha_schedule="constant"), True, id="momentum-diverges"),
        pytest.param(_rademacher(optimizer="secant", theta0=1.0e308, alpha=None),
                     True, id="secant-overflow"),
    ])
    def test_run_experiment_identical_on_arrays(self, config, diverges, monkeypatch):
        records, summary = run_experiment(config)
        assert summary.diverged == diverges
        monkeypatch.setattr(RademacherProblem, "float_iterate", False)
        records_off, summary_off = run_experiment(config)
        # repr tells -0.0 from 0.0, and a NaN equals itself
        assert repr(records) == repr(records_off)
        assert summary.final_theta.shape == summary_off.final_theta.shape == (1,)
        assert summary.final_theta.tobytes() == summary_off.final_theta.tobytes()
        assert repr(dataclasses.replace(summary, final_theta=None)) == repr(
            dataclasses.replace(summary_off, final_theta=None))

    @pytest.mark.parametrize("theta0,switch", [
        pytest.param(1e4, ("abs_theta", 1.0), id="hybrid-stop_radius"),
        # the switch fires on theta0: pure SGD, one draw per step
        pytest.param(1e4, ("abs_theta", 2e4), id="sgd-stop_radius"),
        pytest.param(500.0, ("cv", 0.9), id="hybrid-cv"),
        pytest.param(1e308, ("abs_theta", 0.0), id="secant-overflow"),
    ])
    def test_run_hybrid_identical_on_arrays(self, theta0, switch, monkeypatch):
        # verification's unit-ball count and where it leaves the generator
        config = make_config(theta0=theta0, optimizer="hybrid", switch_kind=switch[0],
                             switch_threshold=switch[1], alpha=0.45,
                             alpha_schedule="inverse_t", epoch_size=2000)

        def run():
            rng = np.random.default_rng(17)
            return run_hybrid(config, rng), rng.bit_generator.state

        floats = run()
        monkeypatch.setattr(RademacherProblem, "float_iterate", False)
        assert run() == floats


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

    @pytest.mark.parametrize("momenta,rates,seeds", [
        ([], [1e-3], [0]), ([0.5], [], [0]), ([0.5], [1e-3], []),
    ])
    def test_empty_axis_is_rejected(self, tmp_path, momenta, rates, seeds):
        with pytest.raises(ConfigurationError, match="grid axes and seeds must be non-empty"):
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

    def test_run_prints_accuracy_and_threshold_iteration(self, tmp_path, capsys):
        cfg = tmp_path / "logistic.yaml"
        cfg.write_text("problem: logistic\ndim: 2\nn_classes: 3\nproblem_seed: 1\n"
                       "theta0: 0.0\noptimizer: sgd\nk: 10\nalpha: 0.1\nepochs: 2\n"
                       "train_size: 100\neval_every: 5\nrisk_threshold: 2.0\nseed: 0\n")
        assert cli_main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        _, summary = run_experiment(load_config(cfg))
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:] == [f"final_accuracy={summary.final_accuracy:.4f}",
                             f"iterations_to_risk_threshold={summary.iters_to_threshold}"]

    def test_plot_good_trace_exits_0(self, tmp_path, capsys):
        assert cli_main(["run", "configs/rademacher_rm.yaml", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        figs = tmp_path / "figs"
        assert cli_main(["plot", str(tmp_path / "rademacher_rm.trace.csv"),
                         "--out", str(figs)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "accuracy.svg skipped: no accuracy values in any trace",
            f"wrote {figs / 'risk.svg'}", f"wrote {figs / 'cv_scatter.svg'}"]

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

    def test_run_problem_too_large_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: least_squares\ndim: 10000000000000000\ntheta0: 0.0\n"
                       "optimizer: sgd\nalpha: 0.1\n")
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: least_squares problem is too large to build")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("keys,message", [
        # every size is >= 2^47 bytes, so nothing is ever allocated
        pytest.param("k: 10000000000000000\nepoch_size: 10000000000000000\n",
                     "k = 10000000000000000 is too large to draw a minibatch: "
                     "Unable to allocate", id="k-1e16"),
        pytest.param("k: 100000000000000000000\n",
                     "k = 100000000000000000000 is too large to draw a minibatch: "
                     "Maximum allowed", id="k-1e20"),
        pytest.param("train_size: 10000000000000000\n",
                     "train_size = 10000000000000000 is too large to draw: "
                     "Unable to allocate", id="train_size-1e16"),
        pytest.param("train_size: 100000000000000000000\n",
                     "train_size = 100000000000000000000 is too large to draw: "
                     "Maximum allowed", id="train_size-1e20"),
    ])
    def test_run_draw_too_large_exits_1(self, tmp_path, capsys, keys, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: rademacher\ntheta0: 2.0\noptimizer: sgd\nalpha: 0.1\n" + keys)
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("keys,message", [
        # every size is >= 2^47 bytes, so nothing is ever allocated
        pytest.param("cv_buffer: 10000000000000000\n",
                     "cv_buffer = 10000000000000000 is too large to hold: "
                     "Unable to allocate", id="cv_buffer-1e16"),
        pytest.param("cv_buffer: 100000000000000000000\n",
                     "cv_buffer = 100000000000000000000 is too large to hold: "
                     "Maximum allowed", id="cv_buffer-1e20"),
        pytest.param("cv_window: 100000000000000000000\n",
                     "cv_window = 100000000000000000000 is too large to hold: "
                     "Python int too large", id="cv_window-1e20"),
    ])
    def test_run_cv_state_too_large_exits_1(self, tmp_path, capsys, keys, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: rademacher\ntheta0: 2.0\noptimizer: sgd\nalpha: 0.1\n" + keys)
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

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

    @pytest.mark.parametrize("line,message", [
        ("1: 2", "unknown config keys: 1"),
        ("null: 3", "unknown config keys: None"),
        ("yes: 1", "unknown config keys: True"),
        ("alpha: 5.0", "config key 'alpha' is given more than once"),
        ("risk_threshold: -1.0", "risk_threshold must be >= 0, got -1.0"),
    ])
    def test_run_bad_key_exits_1(self, tmp_path, capsys, line, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"problem: rademacher\ntheta0: 1.0\noptimizer: sgd\nalpha: 0.1\n{line}\n")
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.rstrip().endswith(message)
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("line,message", [
        # a float key given an integer that float() cannot hold
        pytest.param("cv_high: 1" + "0" * 400,
                     "bad value for config key 'cv_high': int too large to convert to float",
                     id="float-key-401-digits"),
        # PyYAML's own int() refuses 4301 digits and more, its dates a month 13
        pytest.param("seed: 1" + "0" * 5000, "integer string conversion", id="int-5001-digits"),
        pytest.param("seed: 2024-13-01", "month must be in 1..12", id="date-month-13"),
    ])
    def test_run_unconvertible_number_exits_1(self, tmp_path, capsys, line, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"problem: rademacher\ntheta0: 1.0\noptimizer: sgd\nalpha: 0.1\n{line}\n")
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_run_invalid_yaml_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: [rademacher\ntheta0: 1.0\n")
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: invalid YAML")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        pytest.param(b"\x00problem: rademacher\n", id="nul-first-byte"),
        pytest.param("# caf\u00e9\nproblem: rademacher\n".encode("latin-1"), id="latin-1"),
    ])
    def test_run_undecodable_config_exits_1(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(text + b"theta0: 1.0\noptimizer: sgd\nalpha: 0.1\n")
        assert cli_main(["run", str(bad), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: invalid YAML: ") and err.count("error:") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_plot_non_utf8_trace_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(f"{TRACE_HEADER}\n0,1,2.0,1.0,,,0.1,0,,2.0\xe9\n".encode("latin-1"))
        assert cli_main(["plot", str(bad), "--out", str(tmp_path / "figs")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text: ") and err.count("\n") == 1
        assert not (tmp_path / "figs").exists()

    def test_plot_malformed_trace_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{TRACE_HEADER}\n0,1,abc,1.0,,,0.1,0,,2.0\n")
        assert cli_main(["plot", str(bad), "--out", str(tmp_path / "figs")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: could not convert")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_plot_non_finite_trace_exits_1(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{TRACE_HEADER}\n0,1,2.0,1.0,,,0.1,0,,2.0\n"
                       f"0,2,{value},1.0,,,0.1,0,,2.0\n")
        assert cli_main(["plot", str(bad), "--out", str(tmp_path / "figs")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}:3: non-finite value {value!r}\n"
        assert not (tmp_path / "figs").exists()

    def test_run_overflowing_costs_exits_2_and_its_trace_reads_back(self, tmp_path, capsys):
        # noise 1e154 squares to about 1e308, so a minibatch's costs sum to
        # inf while theta and its true risk stay finite: the first record's
        # est_risk would not be finite, so the run diverges there, unrecorded
        cfg = tmp_path / "noisy.yaml"
        cfg.write_text("problem: least_squares\ndim: 2\ncondition_number: 1.0\n"
                       "noise_std: 1.0e154\ntheta0: 0.0\noptimizer: sgd\nk: 50\n"
                       "alpha: 1.0e-200\nepoch_size: 500\neval_every: 5\n")
        assert cli_main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "iterations=5 samples=250 final_risk=None" in capsys.readouterr().out
        trace = tmp_path / "noisy.trace.csv"
        assert read_trace(trace) == []
        assert cli_main(["plot", str(trace), "--out", str(tmp_path / "figs")]) == 0

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

    def test_grid_draw_too_large_exits_1_before_any_trace(self, tmp_path, capsys):
        # the config loads; the first run fails when it draws its first minibatch
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: rademacher\ntheta0: 2.0\noptimizer: sgd\nalpha: 0.1\n"
                       "k: 10000000000000000\nepoch_size: 10000000000000000\n")
        code = cli_main(["grid", str(bad), "--momenta", "0.5", "--learning-rates", "0.1",
                         "--seeds", "0", "--out", str(tmp_path / "g")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: k = 10000000000000000 is too large to draw a minibatch")
        assert not (tmp_path / "g").exists()

    def test_grid_negative_seed_exits_1_before_any_trace(self, tmp_path, capsys):
        code = cli_main(["grid", "configs/least_squares_poor_start.yaml",
                         "--seeds", "0", "-1", "--out", str(tmp_path / "g")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "g").exists()

    def test_verify_negative_seed_exits_1_before_any_report(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = cli_main(["verify", "--quick", "--seed", "-1", "--out", str(report)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert captured.out == ""
        assert not report.exists()

    def test_verify_cli_quick_reports_known_red(self, tmp_path, capsys):
        # every claim is green except the hybrid-advantage bar, so the
        # documented exit code for failed claims (2) is expected
        code = cli_main(["verify", "--quick", "--out",
                         str(tmp_path / "report.csv")])
        assert code == 2
        out = capsys.readouterr().out
        assert "13/14 claims passed" in out
        assert (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["bogus"],
        ["grid", "configs/least_squares_poor_start.yaml", "--momenta", "x"],
    ], ids=["run-without-config", "unknown-command", "momenta-not-a-number"])
    def test_usage_errors_exit_1(self, argv, capsys):
        # a bad command line is a configuration error; argparse's usage line stays
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: sgdlab")
        assert "\nerror: sgdlab" in captured.err
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sgdlab run")

    def test_grid_with_a_diverged_run_exits_2(self, tmp_path, capsys):
        # 0.01 is above least_squares_poor_start's stability limit of 1e-3, 8e-4 below
        out = tmp_path / "g"
        code = cli_main(["grid", "configs/least_squares_poor_start.yaml", "--momenta", "0",
                         "--learning-rates", "0.01", "0.0008", "--seeds", "1",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "1 of 2 runs diverged\n"
        assert len(list(out.glob("trace_*.csv"))) == 2
        rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()]
        assert [(float(row[1]), int(row[3])) for row in rows[1:]] == [(0.01, 1), (0.0008, 0)]

    def test_python_m_sgdlab_runs_the_cli(self, tmp_path):
        root = CONFIG_DIR.parent
        done = subprocess.run(
            [sys.executable, "-m", "sgdlab", "run", "configs/rademacher_rm.yaml",
             "--out", str(tmp_path / "m")],
            cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert cli_main(["run", "configs/rademacher_rm.yaml", "--out", str(tmp_path / "c")]) == 0
        trace = "rademacher_rm.trace.csv"
        assert (tmp_path / "m" / trace).read_bytes() == (tmp_path / "c" / trace).read_bytes()
