#!/usr/bin/env python3
"""Untested-line check: which lines of `src/sgdlab` does tier-1 never run?

    python3 tests/untested_lines.py

Kept out of the tier-1 suite (the file name does not match test_*.py): it
runs tier-1 once, in one subprocess, under a `sys.settrace` tracer limited
to `src/sgdlab`, and takes 2.5 to 4 times as long as tier-1 itself (114-137 s
against 36-47 s on a 2-core x86-64 host). No coverage package is needed, and
Python 3.11 has no `sys.monitoring`.

A line is executable where a code object compiled from the module maps an
instruction to it (`co_lines()`). Every executable line that never ran is
listed as `file:line: text`; the exit status is 1 if any of them is not in
ALLOWED, which gives the reason each allowed line may stay unrun, or if
tier-1 itself failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sgdlab"

# (file, stripped line text, or None for the whole file): reason
ALLOWED = {
    ("problems.py", "raise NotImplementedError"):
        "the two abstract Problem stubs, sample and evaluate: every problem overrides both",
    ("problems.py", "raise  # a ValueError itself, with its own message"):
        "too_large re-raises a ConfigurationError raised inside it; no draw raises one",
    ("__main__.py", None): "tier-1 runs `python -m sgdlab` in a subprocess, which is not traced",
}

# tier-1, as ROADMAP states it
PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """Lines that some code object compiled from `path` maps an instruction to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's start
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_tier1(out: str) -> int:
    """Run tier-1 in this process with every line of the package recorded,
    then write {file: [lines run]} to `out` as JSON; pytest's exit status."""
    import pytest

    prefix, ran = str(PACKAGE) + os.sep, {}

    def local(frame, event, arg):
        ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    # the call hook alone, on every frame, costs about as much as tier-1 itself
    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return local(frame, event, arg)

    sys.path[0] = str(ROOT)  # as `python -m pytest` run from the root sees it
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(PYTEST_ARGS)
    finally:
        sys.settrace(None)
    Path(out).write_text(json.dumps({f: sorted(s) for f, s in ran.items()}))
    return int(status)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "ran.json")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, __file__, "--traced", out], cwd=ROOT, env=env)
        if done.returncode != 0 or not Path(out).exists():
            print(f"error: tier-1 failed under the tracer (exit {done.returncode})",
                  file=sys.stderr)
            return 1
        ran = json.loads(Path(out).read_text())
    unexpected = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - set(ran.get(str(path), ()))):
            stripped = text[line - 1].strip()
            allowed = (path.name, stripped) in ALLOWED or (path.name, None) in ALLOWED
            unexpected += not allowed
            print(f"{'allowed' if allowed else 'UNTESTED'} {path.name}:{line}: {stripped}")
    print(f"{unexpected} untested line(s) outside the allowlist")
    return 1 if unexpected else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--traced"]:
        sys.exit(traced_tier1(sys.argv[2]))
    sys.exit(main())
