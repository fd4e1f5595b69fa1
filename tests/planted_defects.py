#!/usr/bin/env python3
"""Planted-defect check: does tier-1, without the golden hashes, catch real bugs?

    python3 tests/planted_defects.py

Kept out of the tier-1 suite (the file name does not match test_*.py): each
entry of DEFECTS costs one tier-1 run. For every entry the repository is
copied to a temporary directory, the entry's old text is replaced by its new
text there, and tier-1 runs on the copy without `tests/test_golden.py` (and
without `tests/test_planted_defects.py`, which fails on any planted copy),
with `-x`, one pytest at a time. The golden hashes would catch nearly any change,
so leaving them out shows what the behavioural tests catch on their own. An
unchanged copy runs first and must pass. Each line reports caught or missed,
the first failing test and the time; the exit status is 1 if any defect was
missed or the unchanged copy failed.

An entry whose old text does not occur exactly once in its file is an error;
`test_planted_defects.py` checks that in tier-1, so the table keeps up with
refactors.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, exact old text, new text, label): one defect per paper claim
DEFECTS = (
    ("src/sgdlab/optimizers.py", "    v = beta * v + g\n", "    v = g\n",
     "momentum ignores v"),
    ("src/sgdlab/diagnostics.py", "/ (n - 1)) / mean", "/ n) / mean",
     "CV std with ddof 0"),
    ("src/sgdlab/optimizers.py", "return self.value / iteration",
     "return self.value / (iteration + 1)", "inverse_t off by one"),
    ("src/sgdlab/diagnostics.py", "return self.beta_max if cv < self.cv_high else 0.0",
     "return self.beta_max if cv <= self.cv_high else 0.0",
     "cv_threshold closed on the low side"),
    ("src/sgdlab/problems.py", "return r * r, (2.0 / r.shape[0]) * (features.T @ r)",
     "return r * r, (1.0 / r.shape[0]) * (features.T @ r)",
     "least-squares gradient halved"),
    ("src/sgdlab/harness.py", "policy = replace(policy, beta_max=self.beta)",
     "policy = replace(policy, beta_max=self.beta_max)", "constant beta runs at beta_max"),
    ("src/sgdlab/verification.py", "for start in range(0, n, BLOCK_COORDINATES):",
     "for start in range(0, n - n % BLOCK_COORDINATES, BLOCK_COORDINATES):",
     "CV claim drops its last short block"),
    ("src/sgdlab/plots.py", "return HEIGHT - MARGIN_B - (y - y0) / (y1 - y0) * y_span",
     "return MARGIN_T + (y - y0) / (y1 - y0) * y_span", "figure y axis flipped"),
    ("src/sgdlab/diagnostics.py",
     "d = np.subtract(c, mean, out=c) if overwrite_costs else c - mean",
     "d = np.subtract(c, mean, out=c)", "CV estimate overwrites the caller's costs"),
    ("src/sgdlab/verification.py", "        if abs(theta) <= 1.0:\n",
     "        if samples and abs(theta) <= 1.0:\n",
     "unit-ball stop skips the zero-sample iterates"),
    ("src/sgdlab/verification.py", '(("hybrid", SECANT_CAP), ("sgd", UNIT_BALL_CAP))',
     '(("hybrid", UNIT_BALL_CAP), ("sgd", SECANT_CAP))', "unit-ball caps swapped"),
    ("src/sgdlab/problems.py", "n, which = next(sizes, 0), 1 - which",
     "n, which = next(sizes, 1), 1 - which",
     "least-squares draw-ahead fills a block past n_batches"),
    ("src/sgdlab/harness.py", "    v = 0.0  # beta * 0.0 + g", "    v = 1.0  # beta * 0.0 + g",
     "momentum starts with a nonzero velocity"),
    ("src/sgdlab/harness.py", "and risk - min_risk <= risk_threshold):",
     "and risk - min_risk < risk_threshold):", "threshold gap open at the threshold"),
)

# tier-1 without the golden hashes, stopping at the first failure; the
# table's own check fails on every planted copy, so it is left out too
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--continue-on-collection-errors", "--ignore=tests/test_golden.py",
          "--ignore=tests/test_planted_defects.py"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench_out", "*.csv", "*.svg")


def occurrences(path: str, old: str) -> int:
    return (ROOT / path).read_text(encoding="utf-8").count(old)


def tier1_on_copy(tmp: Path, path=None, old="", new="") -> tuple[bool, str, float]:
    """(passed, first failing test or '', seconds) of tier-1 on a fresh copy
    of the repository with `old` replaced by `new` in `path`."""
    copy = tmp / "repo"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=IGNORE)
    if path is not None:
        target = copy / path
        target.write_text(target.read_text(encoding="utf-8").replace(old, new),
                          encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    done = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    # "FAILED <test id> - <message>"; a parametrized id may hold spaces
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode == 0, failed[0] if failed else "", seconds


def main() -> int:
    for path, old, _, label in DEFECTS:
        if occurrences(path, old) != 1:
            print(f"error: {label}: old text occurs {occurrences(path, old)} times "
                  f"in {path}, not once", file=sys.stderr)
            return 1
    missed = 0
    with tempfile.TemporaryDirectory() as tmp:
        passed, first, seconds = tier1_on_copy(Path(tmp))
        print(f"no defect: {'passed' if passed else 'FAILED ' + first} in {seconds:.1f} s",
              flush=True)
        if not passed:
            return 1
        for path, old, new, label in DEFECTS:
            passed, first, seconds = tier1_on_copy(Path(tmp), path, old, new)
            missed += passed
            print(f"{label}: {'MISSED' if passed else 'caught by ' + first} "
                  f"in {seconds:.1f} s", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
