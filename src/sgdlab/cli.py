"""Command-line entry points: run, grid, plot, verify.

Exit codes: 0 success, 1 configuration error (a bad command line too), 2
runtime divergence (any run of a grid) or failed verification claims, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigurationError, TraceFormatError
from .harness import load_config, run_experiment, run_grid, write_trace
from .plots import emit_plots
from .verification import DEFAULT_SEED, run_and_print

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_IO = 3


def _cmd_run(args) -> int:
    config = load_config(args.config)
    records, summary = run_experiment(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{Path(args.config).stem}.trace.csv"
    write_trace(records, trace_path)
    print(f"trace: {trace_path} ({len(records)} records)")
    print(f"iterations={summary.iterations} samples={summary.samples} "
          f"final_risk={summary.final_risk} best_risk={summary.best_risk} "
          f"diverged={summary.diverged}")
    if summary.final_accuracy is not None:
        print(f"final_accuracy={summary.final_accuracy:.4f}")
    if summary.iters_to_threshold is not None:
        print(f"iterations_to_risk_threshold={summary.iters_to_threshold}")
    if summary.diverged:
        print("run diverged; trace truncated at failure", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_grid(args) -> int:
    config = load_config(args.config)
    cells = run_grid(config, args.momenta, args.learning_rates, args.seeds, args.out)
    print(f"{len(cells)} cells -> {Path(args.out) / 'summary.csv'}")
    for cell in cells:
        print(f"  mom={cell.momentum:g} lr={cell.learning_rate:g} "
              f"median_final_risk={cell.median_final_risk} "
              f"diverged={cell.n_diverged}/{cell.n_seeds}")
    if diverged := sum(cell.n_diverged for cell in cells):
        print(f"{diverged} of {sum(cell.n_seeds for cell in cells)} runs diverged", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_plot(args) -> int:
    written = emit_plots(args.traces, args.out)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = run_and_print(seed=args.seed, quick=args.quick, out_path=args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_DIVERGED


class _Parser(argparse.ArgumentParser):
    """A bad command line is a configuration error (exit 1), after the usage line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sgdlab",
        description="Stochastic-optimization benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_grid = sub.add_parser("grid", help="momentum x learning-rate grid")
    p_grid.add_argument("config")
    p_grid.add_argument("--momenta", type=float, nargs="+",
                        default=[0.0, 0.5, 0.9, 0.99])
    p_grid.add_argument("--learning-rates", type=float, nargs="+",
                        default=[0.3, 0.1, 0.03, 0.01])
    p_grid.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p_grid.add_argument("--out", default="grid_out")
    p_grid.set_defaults(func=_cmd_grid)

    p_plot = sub.add_parser("plot", help="render SVG figures from traces")
    p_plot.add_argument("traces", nargs="+")
    p_plot.add_argument("--out", default="figures")
    p_plot.set_defaults(func=_cmd_plot)

    p_verify = sub.add_parser("verify", help="run the claim-verification suite")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--quick", action="store_true",
                          help="reduced sample sizes (smoke test)")
    p_verify.add_argument("--out", default=None, help="write CSV report here")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigurationError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
