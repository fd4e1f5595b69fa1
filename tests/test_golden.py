"""Golden outputs: the SHA-256 of the trace each checked-in config writes,
of a noisy and a noiseless least-squares trace, of cv-switch hybrid traces,
of a small grid's summary.csv, of the `sgdlab verify --quick` and full
`sgdlab verify` reports and of the per-seed samples-to-unit-ball counts, and
the default-size secant-absorption claims.

A change that alters any output byte (draw order, evaluation order, float
formatting, CV bookkeeping) fails here. Re-pin only with a stated reason.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from sgdlab.cli import main as cli_main
from sgdlab.harness import (ExperimentConfig, load_config, run_experiment, run_grid,
                            write_trace)
from sgdlab.verification import (DEFAULT_SEED, hybrid_samples_to_unit_ball,
                                 sgd_samples_to_unit_ball, verify_secant_absorption)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "least_squares_poor_start": "729b4d7ad264e78dc39354f3b65f325c3d369ebba75f5205eedce97d165b4b73",
    "logistic_k1": "94a3962444d3ea2ce5270da4ed413104e64ac61401236f8cb573a4139f38cb7e",
    "logistic_k100": "bd9bf32fe1eb39ff7de9f7b6ebb7d4c4cc14dd1cdbd797775d6d7eedc074c8f5",
    "rademacher_hybrid": "cee88a68187ac55cb23ab49a5ea21ae65042927912dc85e8eb356c4885b6a4a3",
    "rademacher_momentum_rolloff": "50855d21b0bdd7205875ec8c2d4ee97072bc42be18df5db4cd4d1f8185a4976d",
    "rademacher_rm": "03f00a2f51932383e6411a6f18aeb31d3d80307b92bd644937cc18d6bd18af2c",
}

# Noisy least squares draws features, then noise, on every call: this pins
# that interleaved per-call path.
NOISY_LEAST_SQUARES = dict(
    problem="least_squares", dim=5, condition_number=10.0, noise_std=0.5,
    problem_seed=2, theta0_scale=3.0, optimizer="momentum", beta=0.5, k=4,
    alpha=0.01, epochs=2, epoch_size=400, eval_every=5, seed=21)
NOISY_LEAST_SQUARES_SHA256 = "f1eb47ad647c10a2b8e381ee3f80c0dd86a1d7771ddc7d9f0fee54585d3f0b2a"

# Noiseless least squares with k * dim = 7000, recorded when its fresh samples
# were drawn in blocks of up to 9 minibatches: a row's targets summed inside a
# taller matrix may round differently, so this pins per-call draws to the
# samples and traces the blocks gave.
NOISELESS_LEAST_SQUARES = dict(
    problem="least_squares", dim=1000, condition_number=10.0, noise_std=0.0,
    theta0_scale=3.0, optimizer="momentum", beta=0.5, k=7, alpha=1e-4, epochs=1,
    epoch_size=300, eval_every=4, seed=4)
NOISELESS_LEAST_SQUARES_SHA256 = "51d3661cfab8dc10a8f9c0d95fb6e4086d6f60a1df7e8acf387b8efd2437af6a"


# Hybrid runs whose switch reads the trailing-cost CV, at the default
# cv_buffer; the checked-in hybrid config switches on |theta| instead.
# Threshold 0.9 fires after 2 secant steps, 5.0 after 37. Recorded before
# run_experiment's hybrid loop and run_hybrid's became one.
CV_HYBRID = dict(
    problem="rademacher", theta0=10000.0, optimizer="hybrid", switch_kind="cv",
    k=1, alpha=0.5, alpha_schedule="inverse_t", epochs=1, epoch_size=500,
    eval_every=1)
CV_HYBRID_SHA256 = {
    (0.9, 0): "8855081e950a7ca797e831c4fcf325703297f94cb7c7940d0a7f5f9d18d590e1",
    (0.9, 1): "cfe0b16a6e9647c7731eb0401ff51278de5fd26006a416439cd65f9951b5e1c0",
    (0.9, 2): "9ba61ef6df134604ac511c6869ed1b1669ee1a9795f9b5d90cc3fec1749301e8",
    (5.0, 0): "19273ac1d015184c3336bc35dfe7b5a227fcacb8c1da92bab870bf60d494953b",
    (5.0, 1): "2481321fb2acfc20590262d496d13c7d43c941c1bc2a3a6b957ffd8a1048301a",
    (5.0, 2): "e30af9de21eefe7bc5d01defaf6229b2d3573d18b83d01aebb8d5fa953434651",
}

# Per-seed samples to |theta| <= 1 from theta0 = 1e4 over the first 20 of
# acceptance criterion 7's streams, as the SHA-256 of the repr of the count
# list: (hybrid, pure SGD) at each 1/t coefficient c. The hybrid reaches the
# ball in its secant phase, so its counts do not depend on c. Recorded from
# the two hand-written loops these counts ran on before the harness loop.
UNIT_BALL_SEEDS = 20
HYBRID_COUNTS_SHA256 = "21977cba5a491d561c2da887dab1332f4aa0e489077638f488cbb60e6adacc39"
UNIT_BALL_COUNTS_SHA256 = {
    0.5: (HYBRID_COUNTS_SHA256,
          "c4d2dce18fe96ce034d9a7ad851d1d0075fba70b4d42aea11e66624a08fbf15d"),
    0.45: (HYBRID_COUNTS_SHA256,
           "98b3fcd50c0108c27a0aa2ac0f1d5f1440c04dd586bad7576cf6b9e1d2f11418"),
    0.75: (HYBRID_COUNTS_SHA256,
           "3f67242afcf5b8e8d31eedb4a16cda7791801870fad35249dece4ac73129fc1c"),
    1.25: (HYBRID_COUNTS_SHA256,
           "1f8b2723821dfead7a64cdc3ab57b8870028ef6bdd3810c54785209148d0b4e0"),
}

# A 2x2x2 grid (momenta x learning rates x seeds) on a small noiseless
# least-squares base: per-cell medians, divergence counts and the
# iterations-to-threshold column of summary.csv.
GRID_BASE = dict(
    problem="least_squares", dim=5, condition_number=10.0, noise_std=0.0,
    problem_seed=3, theta0_scale=5.0, optimizer="momentum", beta=0.5, k=8,
    alpha=0.01, epochs=1, epoch_size=800, eval_every=10, risk_threshold=1e-2,
    seed=0)
GRID_SUMMARY_SHA256 = "5d26f723aa55d7777002027bc91c6914037e6ac194b9b1bb724b527f019f0e09"

# `sgdlab verify --quick` report: every claim's statistic to 17 digits, so
# run_hybrid, the secant steps and the per-step SGD runs are all pinned.
VERIFY_QUICK_SHA256 = "fc5b7e8e6f5adecb5dbdf1a090cab6805f6c68983bac6eea76bc027a4c5e0ad3"

# The full `sgdlab verify` report, at the default sizes and master seed.
VERIFY_FULL_SHA256 = "a8b858d65a8b8a3f3987fbb996fff751599d4d1ff3a04b9ca75dadba876f73cb"

# Default-size `verify_secant_absorption` (10^4 one-step trials, 10^3 long
# runs of 100 steps): (statistic, n, passed) of the one-step and long-run
# reports, recorded from the per-trial loop before the trials ran as arrays.
SECANT_ABSORPTION_FULL = {
    DEFAULT_SEED: [(0.5115, 10000, True), (1.0, 1000, True)],
    1: [(0.5035, 10000, True), (1.0, 1000, True)],
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def trace_sha256(config, path):
    records, _ = run_experiment(config)
    write_trace(records, path)
    return sha256(path)


def test_every_config_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.yaml")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_config_trace_hash(name, tmp_path):
    config = load_config(CONFIGS / f"{name}.yaml")
    assert trace_sha256(config, tmp_path / "trace.csv") == GOLDEN[name]


def test_noisy_least_squares_trace_hash(tmp_path):
    config = ExperimentConfig.from_dict(NOISY_LEAST_SQUARES)
    assert trace_sha256(config, tmp_path / "trace.csv") == NOISY_LEAST_SQUARES_SHA256


def test_noiseless_least_squares_trace_hash(tmp_path):
    config = ExperimentConfig.from_dict(NOISELESS_LEAST_SQUARES)
    assert trace_sha256(config, tmp_path / "trace.csv") == NOISELESS_LEAST_SQUARES_SHA256


@pytest.mark.parametrize("threshold,seed", sorted(CV_HYBRID_SHA256))
def test_cv_switch_hybrid_trace_hash(threshold, seed, tmp_path):
    config = ExperimentConfig.from_dict(
        {**CV_HYBRID, "switch_threshold": threshold, "seed": seed})
    assert trace_sha256(config, tmp_path / "trace.csv") == CV_HYBRID_SHA256[threshold, seed]


@pytest.mark.parametrize("coefficient", sorted(UNIT_BALL_COUNTS_SHA256))
def test_unit_ball_counts_hash(coefficient):
    streams = np.random.SeedSequence(DEFAULT_SEED).spawn(100)[:UNIT_BALL_SEEDS]
    hybrid, sgd = [], []
    for stream in streams:
        child_h, child_s = stream.spawn(2)
        hybrid.append(hybrid_samples_to_unit_ball(
            1e4, np.random.default_rng(child_h), coefficient=coefficient))
        sgd.append(sgd_samples_to_unit_ball(
            1e4, np.random.default_rng(child_s), coefficient=coefficient))
    digests = tuple(hashlib.sha256(repr(counts).encode()).hexdigest()
                    for counts in (hybrid, sgd))
    assert digests == UNIT_BALL_COUNTS_SHA256[coefficient]


def test_grid_summary_hash(tmp_path):
    run_grid(ExperimentConfig.from_dict(GRID_BASE), [0.0, 0.5], [0.01, 0.03],
             [1, 2], tmp_path)
    assert sha256(tmp_path / "summary.csv") == GRID_SUMMARY_SHA256


def test_verify_quick_report_hash(tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert cli_main(["verify", "--quick", "--out", str(report)]) == 2
    assert sha256(report) == VERIFY_QUICK_SHA256


def test_verify_full_report_hash(tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert cli_main(["verify", "--out", str(report)]) == 2
    assert "13/14 claims passed" in capsys.readouterr().out
    assert sha256(report) == VERIFY_FULL_SHA256


@pytest.mark.parametrize("seed", sorted(SECANT_ABSORPTION_FULL))
def test_secant_absorption_full_size(seed):
    reports = verify_secant_absorption(seed=seed)
    assert [(r.statistic, r.n, r.passed) for r in reports] == SECANT_ABSORPTION_FULL[seed]
