"""Golden outputs: the SHA-256 of the trace each checked-in config writes,
of a small grid's summary.csv and of the `sgdlab verify --quick` report.

A change that alters any output byte (draw order, evaluation order, float
formatting, CV bookkeeping) fails here. Re-pin only with a stated reason.
"""

import hashlib
from pathlib import Path

import pytest

from sgdlab.cli import main as cli_main
from sgdlab.harness import (ExperimentConfig, load_config, run_experiment, run_grid,
                            write_trace)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "least_squares_poor_start": "729b4d7ad264e78dc39354f3b65f325c3d369ebba75f5205eedce97d165b4b73",
    "logistic_k1": "94a3962444d3ea2ce5270da4ed413104e64ac61401236f8cb573a4139f38cb7e",
    "logistic_k100": "bd9bf32fe1eb39ff7de9f7b6ebb7d4c4cc14dd1cdbd797775d6d7eedc074c8f5",
    "rademacher_hybrid": "cee88a68187ac55cb23ab49a5ea21ae65042927912dc85e8eb356c4885b6a4a3",
    "rademacher_momentum_rolloff": "50855d21b0bdd7205875ec8c2d4ee97072bc42be18df5db4cd4d1f8185a4976d",
    "rademacher_rm": "03f00a2f51932383e6411a6f18aeb31d3d80307b92bd644937cc18d6bd18af2c",
}

# Noisy least squares draws features, then noise, on every call, so its
# fresh samples are never block-drawn: this pins that per-call path.
NOISY_LEAST_SQUARES = dict(
    problem="least_squares", dim=5, condition_number=10.0, noise_std=0.5,
    problem_seed=2, theta0_scale=3.0, optimizer="momentum", beta=0.5, k=4,
    alpha=0.01, epochs=2, epoch_size=400, eval_every=5, seed=21)
NOISY_LEAST_SQUARES_SHA256 = "f1eb47ad647c10a2b8e381ee3f80c0dd86a1d7771ddc7d9f0fee54585d3f0b2a"


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


def test_grid_summary_hash(tmp_path):
    run_grid(ExperimentConfig.from_dict(GRID_BASE), [0.0, 0.5], [0.01, 0.03],
             [1, 2], tmp_path)
    assert sha256(tmp_path / "summary.csv") == GRID_SUMMARY_SHA256


def test_verify_quick_report_hash(tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert cli_main(["verify", "--quick", "--out", str(report)]) == 2
    assert sha256(report) == VERIFY_QUICK_SHA256
