#!/usr/bin/env python3
"""Golden-portability check: which golden hashes hold when one process sees
another numpy SIMD dispatch, another OpenBLAS kernel or another libm.

    python3 tests/golden_platforms.py

Kept out of the tier-1 suite (the file name does not match test_*.py). It
runs `tests/test_golden.py` in one pytest subprocess with none of the
switches below set, where every golden must hold, then in one subprocess per
switch, with the switch in that process's environment only: nothing
system-wide is set. Under each switch the failing goldens must be exactly
its set in SWITCHES, so a golden that starts to depend on the platform, or one
that stops, shows up by name. The sets were measured on an x86-64 host with
AVX-512 (numpy 2.4.6, OpenBLAS 0.3.31, glibc 2.36). A switch turns CPU
features off; where the host lacks one of them, the switch is reported as
skipped, not passed. Both verify-report goldens hold under every switch.
The exit status is 1 if any run failed other goldens than expected.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parent.parent

# (variable, value, CPU features it turns off, goldens failing under it)
SWITCHES = (
    ("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR AVX512_ICL X86_V4",
     ("AVX512_SPR", "AVX512_ICL", "X86_V4"), {
         # numpy's SIMD exp, log and power: the logistic problem and
         # np.geomspace, so the least-squares eigenvalues
         "test_config_trace_hash[logistic_k1]",
         "test_config_trace_hash[logistic_k100]",
         "test_noisy_least_squares_trace_hash",
         "test_noiseless_least_squares_trace_hash",
         "test_run_summary_hash[logistic_k1]",
         "test_run_summary_hash[logistic_k100]",
         "test_run_summary_hash[logistic_k1_threshold]",
         "test_run_summary_hash[noiseless_least_squares]",
         "test_run_summary_hash[noisy_least_squares]",
         "test_grid_summary_hash",
     }),
    ("OPENBLAS_CORETYPE", "Haswell", ("AVX512F",), {
        # OpenBLAS's matrix products: the least-squares and logistic ones
        "test_config_trace_hash[least_squares_poor_start]",
        "test_config_trace_hash[logistic_k1]",
        "test_config_trace_hash[logistic_k100]",
        "test_noisy_least_squares_trace_hash",
        "test_noiseless_least_squares_trace_hash",
        "test_run_summary_hash[least_squares_poor_start]",
        "test_run_summary_hash[noiseless_least_squares]",
        "test_run_summary_hash[noisy_least_squares]",
        "test_grid_summary_hash",
    }),
    # glibc picks its libm functions by CPU; no pinned path calls one
    ("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F",
     ("AVX2", "FMA3", "AVX512F"), set()),
)

PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          "tests/test_golden.py"]


def failing_goldens(switch: dict) -> tuple[set, float]:
    """(names of the failing golden tests, seconds) of one pytest process
    whose environment holds `switch` and none of the other switches."""
    env = {k: v for k, v in os.environ.items() if k not in {s[0] for s in SWITCHES}}
    env.update(switch, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    done = subprocess.run(PYTEST, cwd=ROOT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    # "FAILED tests/test_golden.py::<name> - <message>"
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0].split("::", 1)[1]
              for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}
    if done.returncode != (1 if failed else 0):
        failed.add(f"pytest exit {done.returncode}")  # a crash, not a golden
    return failed, seconds


def main() -> int:
    wrong = 0
    runs = [("no switch", {}, (), set())]
    runs += [(f"{var}={value}", {var: value}, features, expected)
             for var, value, features, expected in SWITCHES]
    for label, switch, features, expected in runs:
        lacking = [f for f in features if not __cpu_features__.get(f)]
        if lacking:
            print(f"{label}: skipped, the host lacks {' '.join(lacking)}", flush=True)
            continue
        failed, seconds = failing_goldens(switch)
        if failed == expected:
            print(f"{label}: {len(failed)} goldens fail, as expected, in {seconds:.1f} s",
                  flush=True)
            continue
        wrong += 1
        print(f"{label}: UNEXPECTED in {seconds:.1f} s", flush=True)
        for name in sorted(failed - expected):
            print(f"  fails: {name}")
        for name in sorted(expected - failed):
            print(f"  holds: {name}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
