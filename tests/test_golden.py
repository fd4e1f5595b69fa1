"""Golden outputs: the SHA-256 of the trace each checked-in config writes,
of a noisy and a noiseless least-squares trace, of cv-switch hybrid traces,
of a small grid's summary.csv, of the `sgdlab verify --quick` and full
`sgdlab verify` reports, of the per-seed samples-to-unit-ball counts, of
run summaries and of the SVG figures, and the default-size secant-absorption
claims.

A change that alters any output byte (draw order, evaluation order, float
formatting, CV bookkeeping) fails here. Re-pin only with a stated reason.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from sgdlab.cli import main as cli_main
from sgdlab.harness import (ExperimentConfig, TraceRecord, load_config, run_experiment,
                            run_grid, write_trace)
from sgdlab.plots import emit_plots
from sgdlab.verification import (DEFAULT_SEED, unit_ball_counts,
                                 verify_secant_absorption)

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

# Noiseless least squares with k * dim = 7000, drawn in blocks of up to 9
# minibatches that a worker thread fills: the same trace as per-call draws,
# since each minibatch's targets come from its own rows (a row's targets
# summed inside a taller matrix may round differently).
NOISELESS_LEAST_SQUARES = dict(
    problem="least_squares", dim=1000, condition_number=10.0, noise_std=0.0,
    theta0_scale=3.0, optimizer="momentum", beta=0.5, k=7, alpha=1e-4, epochs=1,
    epoch_size=300, eval_every=4, seed=4)
NOISELESS_LEAST_SQUARES_SHA256 = "51d3661cfab8dc10a8f9c0d95fb6e4086d6f60a1df7e8acf387b8efd2437af6a"


# Hybrid runs whose switch reads the trailing-cost CV, at the default
# cv_buffer; the checked-in hybrid config switches on |theta| instead.
# Threshold 0.9 fires after 2 secant steps, 5.0 after 37. Recorded before
# run_experiment's hybrid loop and the since-removed harness.run_hybrid's
# became one.
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

# Run summaries, as the SHA-256 of the repr of (final_risk, best_risk,
# samples, iterations, diverged, final_theta.tolist(), final_accuracy,
# iters_to_threshold): the traces pin only what is recorded, and the summary
# also holds what the run loop reduces over every iterate. Recorded while
# run_experiment still tracked the best risk itself. The logistic entries were
# re-pinned on purpose when a problem without a true risk began to track its
# held-out cost instead of each minibatch's mean cost.
SUMMARY_SHA256 = {
    "least_squares_poor_start": "7dd65789a6e9faac89b8f54ad71087f70b5bcd224a776b9d47c0199c6df2b50f",
    "logistic_k1": "62a7231d4141462bc436ef4bd6a0fced6454fbb428035d7ae2822802adb73a16",
    "logistic_k100": "b3ddc7cc6ad820c911d14f4cf472b47cee21239afdb55840b79235b7f63bc439",
    "rademacher_hybrid": "85040bfdeab584cee2ba67a67c069208910a10c28737183bc3586fc116b4f401",
    "rademacher_momentum_rolloff": "cbe6adb86f3e71ccbd678dc5b42f985413428dd41b425a93f97165e58ed6b9c2",
    "rademacher_rm": "cd60a3e1b8c439cd14d2c023ce6a65448fbe34019ca99ef08ed58b7040d18d15",
    "noisy_least_squares": "968b86373d16090cb1e31c297ddb6706a8ac8c4816120440b51ab7e33894534f",
    "noiseless_least_squares": "8617c3610c810bc2c28d6e96c526d299fb0ed02338ef3ccd35ef0688416c3b66",
    "cv_hybrid_0.9_0": "304feb34f2c0029741b9c5aa6eddb09b8bac08f715bbe989faf3fac7fe84c0af",
    "cv_hybrid_0.9_1": "1908ad8442793e0bcb82fbcfd566871314a33e75140cb6ccb8847aa42fec1e32",
    "cv_hybrid_0.9_2": "e4776f28fcc7448ff231814ae41c106137eb4630fad81002f91b6023a657eac5",
    "cv_hybrid_5.0_0": "a52a4134d1822210925a2da2558e79bc783e0decdfa27c417a4dd82007dcab36",
    "cv_hybrid_5.0_1": "35df48e419774cc76395f02df2b5d738f92642283c0aa6bb5d5f34dd1c16b9a7",
    "cv_hybrid_5.0_2": "e0d9f8494958e134ed11b78958537ecabfe45458ced262b3575c15dcbcd42ef5",
    # least_squares_poor_start carries its own risk_threshold (reached at 421)
    "rademacher_rm_threshold": "966ec66a906ba0afbb858f446d8c1424cdce9bb2d725bc91e4437daebbcd4680",
    "rademacher_momentum_rolloff_threshold":
        "273f072e319320d03923d28ffc8fbef5e4b0ea1cc87507eb9baa193f5859792e",
    "logistic_k1_threshold": "1acd9583acd7b6b0b6c0b47a1fbc723ec73dbb393984807b6c7fc178a2d54c71",
    "diverges_at_1": "6b1fd17ae10d1cb1fa1cb33eba3a1892bad4232cf6edea80cfc11f40f199f4bd",
}
# rademacher_rm's iterate is exactly 0 at iteration 2, a gap of exactly 0.0:
# a threshold of 0.0 tells `gap <= threshold` from `gap < threshold`
SUMMARY_THRESHOLDS = {"rademacher_rm": 0.0, "rademacher_momentum_rolloff": 1e-3,
                      "logistic_k1": 0.3}
# |theta| is about 2e14 after the first step, past the divergence limit
DIVERGES_AT_1 = dict(problem="rademacher", theta0=1e11, optimizer="sgd", alpha=1e3,
                     epochs=1, epoch_size=10)


def summary_config(name):
    """The config SUMMARY_SHA256 pins under `name`."""
    if name == "noisy_least_squares":
        return ExperimentConfig.from_dict(NOISY_LEAST_SQUARES)
    if name == "noiseless_least_squares":
        return ExperimentConfig.from_dict(NOISELESS_LEAST_SQUARES)
    if name == "diverges_at_1":
        return ExperimentConfig.from_dict(DIVERGES_AT_1)
    if name.startswith("cv_hybrid_"):
        threshold, seed = name.split("_")[2:]
        return ExperimentConfig.from_dict(
            {**CV_HYBRID, "switch_threshold": float(threshold), "seed": int(seed)})
    if name.endswith("_threshold"):
        base = name[:-len("_threshold")]
        return replace(load_config(CONFIGS / f"{base}.yaml"),
                       risk_threshold=SUMMARY_THRESHOLDS[base])
    return load_config(CONFIGS / f"{name}.yaml")


# `sgdlab verify --quick` report: every claim's statistic to 17 digits, so
# the unit-ball runs through the run loop (verification.run_hybrid), the
# secant steps and the per-step SGD runs are all pinned.
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

# The figures emit_plots writes, as the SHA-256 of each SVG, for two input
# sets whose values depend on neither numpy's SIMD dispatch nor BLAS:
# "rademacher" holds the traces of rademacher_rm and
# rademacher_momentum_rolloff and two hand-built traces that carry accuracy;
# "one_epoch" holds rademacher_hybrid's trace alone, whose records all sit in
# epoch 0, so its equal x limits are widened. Recorded from the class-based
# SVG canvas, before its drawing was folded into one function.
FIGURE_SHA256 = {
    ("rademacher", "risk.svg"): "b92ee58761a0e27e59ad05eef3767895f85d293657c86bf7dcb8097748d6c7e4",
    ("rademacher", "accuracy.svg"): "1dfc23c2357f322a70e9ade0cf47e4274bada4d8479060ab3560ecc32d85b5d5",
    ("rademacher", "cv_scatter.svg"): "9a6953c217a899cffb1f80e51143d7f74725066d499b58414eaa394d2eef4624",
    ("one_epoch", "risk.svg"): "851906c95a88aa9bb18e5778e71cfe1a845146129ac0f3a03bbb8ebf3d7395cd",
    ("one_epoch", "cv_scatter.svg"): "fce7c2430c65948c373fd3967945d7984ece6cac79a1dc210455df7d905a0c2b",
}
# (epoch, est_risk, cv_raw, accuracy) rows of the hand-built traces
HAND_BUILT_TRACES = {
    "hand_a": [(0, 2.0, None, 0.25), (1, 1.5, 0.3, 0.5), (2, 1.0, 0.2, 0.75)],
    "hand_b": [(0, 3.0, 0.9, 0.125), (3, 0.5, None, None), (4, -0.25, 1.7, 0.875)],
}


def figure_inputs(name, directory):
    """The trace files of the figure input set `name`, written to `directory`."""
    configs = {"rademacher": ["rademacher_rm", "rademacher_momentum_rolloff"],
               "one_epoch": ["rademacher_hybrid"]}[name]
    paths = []
    for config in configs:
        paths.append(directory / f"{config}.csv")
        write_trace(run_experiment(load_config(CONFIGS / f"{config}.yaml"))[0], paths[-1])
    if name == "rademacher":
        for label, rows in HAND_BUILT_TRACES.items():
            paths.append(directory / f"{label}.csv")
            write_trace([TraceRecord(epoch, 10 * epoch, None, risk, cv, cv, 0.1, 0.0,
                                     accuracy, 1.0) for epoch, risk, cv, accuracy in rows],
                        paths[-1])
    return paths


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


@pytest.mark.parametrize("name", sorted(SUMMARY_SHA256))
def test_run_summary_hash(name):
    _, s = run_experiment(summary_config(name))
    fields = (s.final_risk, s.best_risk, s.samples, s.iterations, s.diverged,
              s.final_theta.tolist(), s.final_accuracy, s.iters_to_threshold)
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == SUMMARY_SHA256[name]


def test_every_config_summary_is_pinned():
    assert set(GOLDEN) <= set(SUMMARY_SHA256)


@pytest.mark.parametrize("coefficient", sorted(UNIT_BALL_COUNTS_SHA256))
def test_unit_ball_counts_hash(coefficient):
    digests = tuple(hashlib.sha256(repr(counts).encode()).hexdigest()
                    for counts in unit_ball_counts(1e4, UNIT_BALL_SEEDS,
                                                   coefficient=coefficient))
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


@pytest.mark.parametrize("name", sorted({name for name, _ in FIGURE_SHA256}))
def test_figure_hashes(name, tmp_path, capsys):
    written = emit_plots(figure_inputs(name, tmp_path), tmp_path / "figures")
    assert {(name, p.name): sha256(p) for p in written} == {
        key: digest for key, digest in FIGURE_SHA256.items() if key[0] == name}


@pytest.mark.parametrize("seed", sorted(SECANT_ABSORPTION_FULL))
def test_secant_absorption_full_size(seed):
    reports = verify_secant_absorption(seed=seed)
    assert [(r.statistic, r.n, r.passed) for r in reports] == SECANT_ABSORPTION_FULL[seed]
