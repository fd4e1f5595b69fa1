"""One pass of each benchmark workload, driven through sgdlab's public API.

A pass starts at its first call into sgdlab (`load_config`, or `cli.main`
for verify) and ends when its last output file is written. Each pass
function writes its outputs under `out` and returns the names of outputs it
already knows are wrong (an unexpected divergence, a wrong verify pass
vector); the caller digests every file written and compares the digests.
See README.md for why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from sgdlab import cli, harness, plots, verification

# At this workload seed every run uses its config's own seed first, so the
# pinned digests include the traces `sgdlab run` writes for those configs.
DEFAULT_SEED = 0

SWEEP_SEEDS = 4
# Below the 1e-3 stability limit of least_squares_poor_start.yaml: the CLI's
# default grid axes diverge in every cell within milliseconds.
GRID_MOMENTA = (0.0, 0.5, 0.9)
GRID_LEARNING_RATES = (2e-4, 4e-4, 8e-4)
GRID_SEEDS = 1
HYBRID_SEEDS = 10

VERIFY_REPORT = "verify_report.csv"
# Criterion 7 (hybrid advantage) is red by design; every other claim passes.
EXPECTED_FAILING_CLAIMS = {"hybrid_advantage_ratio"}


def run_seeds(config_seed: int, workload_seed: int, n: int) -> list[int]:
    """The n config seeds a workload seed selects; disjoint across workload seeds."""
    return [config_seed + workload_seed * n + i for i in range(n)]


def _sweep(config_path: Path, workload_seed: int, n: int, out: Path) -> set:
    """Run the config once per selected seed and write each trace."""
    base = harness.load_config(config_path)
    bad = set()
    for seed in run_seeds(base.seed, workload_seed, n):
        records, summary = harness.run_experiment(replace(base, seed=seed))
        path = out / f"{config_path.stem}_seed{seed}.csv"
        harness.write_trace(records, path)
        if summary.diverged:
            bad.add(path.name)
    return bad


def scalar_sweep(configs: Path, seed: int, out: Path) -> set:
    """The sweep, then its traces read back and rendered: run -> trace -> figure."""
    bad = _sweep(configs / "rademacher_rm.yaml", seed, SWEEP_SEEDS, out)
    plots.emit_plots(sorted(out.glob("*.csv")), out / "figures")
    return bad


def lsq_grid(configs: Path, seed: int, out: Path) -> set:
    base = harness.load_config(configs / "least_squares_poor_start.yaml")
    cells = harness.run_grid(base, GRID_MOMENTA, GRID_LEARNING_RATES,
                             run_seeds(base.seed, seed, GRID_SEEDS), out)
    return {"summary.csv"} if any(c.n_diverged for c in cells) else set()


def verify(configs: Path, seed: int, out: Path) -> set:
    report = out / VERIFY_REPORT
    code = cli.main(["verify", "--seed", str(verification.DEFAULT_SEED + seed),
                     "--out", str(report)])
    bad = set()
    # Monte Carlo claims sit in 3-4 sigma bands, so only the pinned seed has a
    # pass vector fixed in advance; the red hybrid claim fails at every seed.
    if code != cli.EXIT_DIVERGED or (seed == DEFAULT_SEED
                                     and failing_claims(report) != EXPECTED_FAILING_CLAIMS):
        bad.add(report.name)
    # The harness's own secant/SGD hybrid loop, twin of run_hybrid above.
    return bad | _sweep(configs / "rademacher_hybrid.yaml", seed, HYBRID_SEEDS, out)


def failing_claims(report: Path) -> set:
    lines = report.read_text(encoding="utf-8").splitlines()[1:]
    return {line.split(",")[0] for line in lines if line.endswith(",false")}


WORKLOADS = {
    "scalar_sweep": scalar_sweep,
    "lsq_grid": lsq_grid,
    "verify": verify,
}

# Configs each workload loads; set-up time is measured over exactly these.
SETUP_CONFIGS = {
    "scalar_sweep": ("rademacher_rm.yaml",),
    "lsq_grid": ("least_squares_poor_start.yaml",),
    "verify": ("rademacher_hybrid.yaml",),
}
