#!/usr/bin/env python3
"""sgdlab benchmark: end-to-end timings, a traced per-layer run, pinned outputs.

Run from the repository root:

    python3 perfbench/run.py --workload scalar_sweep --seed 0 --seconds 36 --trace 0

`--trace 0` times untraced passes of the workload for `--seconds` seconds
and reports the end-to-end metrics of BENCHMARK.json; `--trace 1` alternates
untraced and traced passes and reports the per-layer metrics. Every pass's
output files are digested with SHA-256 and compared with the digests pinned
in digests.json (at the default seed) or with the first pass's (any other
seed). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

`--workload all` runs every workload in both modes, one process each.
`--record-digests` re-pins digests.json from the program as it stands.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_SAMPLES = 7
# Seconds `reference_seconds` takes on the machine that defined the benchmark
# (2-core Xeon KVM guest, see README.md); timings are reported at this speed.
REFERENCE_S = 0.17

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import sgdlab
    import yaml
    from sgdlab import harness
    from tracer import Tracer, patch, restore
    from workloads import DEFAULT_SEED, SETUP_CONFIGS, WORKLOADS
except ImportError as exc:
    sys.exit(f"error: cannot import sgdlab from {SRC}: {exc}")

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import sgdlab
import sgdlab.cli
from sgdlab.harness import build_problem, load_config
for path in sys.argv[2:]:
    build_problem(load_config(path))
print(time.perf_counter() - start)
"""


@dataclass
class Pass:
    traced: bool
    wall: float
    run_s: float          # time inside harness.run_experiment
    iterations: int
    digests: dict
    bad: Optional[set]    # outputs the pass flagged; None if it raised
    layers: Optional[dict] = None
    spans: Optional[dict] = None


class RunTimer:
    """Times calls into harness.run_experiment and counts their iterations."""

    def __init__(self):
        self.seconds = 0.0
        self.iterations = 0
        self._saved: list = []

    def __enter__(self) -> "RunTimer":
        original = harness.run_experiment

        def timed(config):
            start = time.perf_counter()
            result = original(config)
            self.seconds += time.perf_counter() - start
            self.iterations += result[1].iterations
            return result

        patch(self._saved, harness, "run_experiment", timed)
        return self

    def __exit__(self, *exc) -> None:
        restore(self._saved)


@dataclass(frozen=True)
class _Row:
    a: float
    b: float
    c: float


def reference_seconds() -> float:
    """Time a fixed chunk of work shaped like the workloads: tiny numpy calls
    from a Python loop, (200, 10) draws and matrix products, a sweep over
    arrays larger than L2, and building and visiting many small records.

    On a shared host, phases tens of seconds long slow everything by up to
    a third, longer than a run can average out. A run times this between its
    passes and scales its timings by REFERENCE_S over the mean reference
    time, which removes most of that drift. The mean, not the median: within
    a phase this loop's time jumps between two levels about 1.5x apart, and
    the mean weighs them by how often they occur. The four parts take
    similar times, because the phases slow each kind of work by a different
    amount and the workloads mix them differently.
    """
    rng = np.random.default_rng(0)
    weights = np.ones(10)
    sweep = np.ones(1 << 18)
    start = time.perf_counter()
    for _ in range(2700):
        x = rng.integers(0, 2, size=1) * 2.0 - 1.0
        float(np.mean(2.0 * (0.5 - x)))
    for _ in range(900):
        features = rng.standard_normal((200, 10))
        features.T @ (features @ weights)
    scaled = np.empty_like(sweep)
    for _ in range(120):
        np.multiply(sweep, 1.0001, out=scaled)
        scaled.sum()
    rows = [_Row(float(i), i * 0.5, 1.0) for i in range(23000)]
    sum(rows[i].b for i in rng.permutation(len(rows)))
    return time.perf_counter() - start


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(workload: str, seed: int, out: Path, traced: bool) -> Pass:
    """One pass of the workload, writing into a fresh `out` directory."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    tracer = Tracer() if traced else None
    with RunTimer() as timer, (tracer or contextlib.nullcontext()), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            start = time.perf_counter()
            bad = WORKLOADS[workload](CONFIGS, seed, out)
        except Exception:
            traceback.print_exc()
            bad = None
        wall = time.perf_counter() - start
    digests = {str(p.relative_to(out)): sha256(p)
               for p in sorted(out.rglob("*")) if p.is_file()}
    return Pass(traced=traced, wall=wall, run_s=timer.seconds,
                iterations=timer.iterations, digests=digests, bad=bad,
                layers=tracer.layer_metrics() if tracer else None,
                spans=tracer.spans() if tracer else None)


def check_outputs(digests: dict, expected: Optional[dict],
                  bad: Optional[set]) -> tuple[int, int]:
    """(attempted, failed) outputs of one pass. An output fails when its digest
    differs from the expected one, when it is missing or unexpected, when
    the pass flagged it, or when the pass raised."""
    names = set(digests) | set(expected or {})
    if bad is None or expected is None:
        return max(len(names), 1), max(len(names), 1)
    failed = {n for n in names if digests.get(n) != expected.get(n)} | (bad & names)
    return len(names), len(failed)


def measure_setup(workload: str, references: list) -> list[float]:
    """Seconds to import sgdlab and load and build the workload's problems,
    each sample in a fresh interpreter, with a reference time after each."""
    configs = [str(CONFIGS / name) for name in SETUP_CONFIGS[workload]]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *configs],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        references.append(reference_seconds())
    return samples


def _read_cpu_info() -> dict:
    info = {"model": None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}_{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def environment() -> dict:
    """What produced a result: versions, CPU, BLAS threads and git commit."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    cpu = _read_cpu_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu["model"],
        "cpu_caches": cpu["caches"],
        "platform": platform.platform(),
        "git_commit": commit,
    }


def end_to_end(passes: list[Pass], setup: list[float], speed: float) -> dict:
    """End-to-end metrics at reference speed; `speed` scales measured seconds."""
    untraced = [p for p in passes if not p.traced]
    return {
        "wall_s": statistics.median(p.wall for p in untraced) * speed,
        "setup_s": statistics.median(setup) * speed,
        "us_per_iteration": statistics.median(
            p.run_s / max(p.iterations, 1) * 1e6 for p in untraced) * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes: list[Pass], speed: float) -> dict:
    """Per-layer metrics of the traced passes; self times at reference speed."""
    traced = [p for p in passes if p.traced]
    values = {key: statistics.median(p.layers[key] for p in traced)
              * (speed if key.endswith(".self_s") else 1.0)
              for key in traced[0].layers}
    values["trace.overhead_frac"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in passes if not p.traced) - 1.0)
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    out = OUT / workload
    if out.exists():
        shutil.rmtree(out)
    references: list[float] = []
    setup = [] if trace else measure_setup(workload, references)

    expected = None
    if seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
    # The warm-up pass, untimed but inside the run's seconds, fills caches
    # and, off the pinned seed, sets the digests every later pass must
    # repeat byte for byte.
    start = time.perf_counter()
    warm = run_pass(workload, seed, out / "pass", traced=False)
    if expected is None and warm.bad is not None:
        expected = warm.digests
    attempted, failed = check_outputs(warm.digests, expected, warm.bad)

    passes: list[Pass] = []
    while True:
        p = run_pass(workload, seed, out / "pass", traced=trace and len(passes) % 2 == 1)
        references.append(reference_seconds())
        passes.append(p)
        n, bad = check_outputs(p.digests, expected, p.bad)
        attempted, failed = attempted + n, failed + bad
        elapsed = time.perf_counter() - start
        if elapsed + p.wall > seconds and (not trace or len(passes) >= 2):
            break

    speed = REFERENCE_S / statistics.fmean(references)
    if trace:
        values = per_layer(passes, speed)
        listed = spec["per_layer"]
    else:
        values = end_to_end(passes, setup, speed)
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    walls = [p.wall for p in passes if not p.traced]
    q1, q2, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    env = environment()
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"{len(passes)} timed passes after one warm-up")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  raw wall s per pass: median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} n {len(walls)}; "
          f"speed factor {speed:.4f}")
    print(f"  outputs: attempted {attempted} failed {failed} "
          f"ops_failed_frac {failed / attempted:.6g}")
    print("env: " + json.dumps(env, sort_keys=True))

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, "metrics": metrics, "raw_wall_s_samples": walls,
              "speed_factor": speed, "reference_s_samples": references,
              "setup_s_samples": setup, "attempted": attempted, "failed": failed}
    (out / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    traced_spans = [p.spans for p in passes if p.traced]
    if traced_spans:
        np.savez(out / "spans.npz", **{f"pass{i}_{key}": value
                                       for i, spans in enumerate(traced_spans)
                                       for key, value in spans.items()})
    shutil.rmtree(out / "pass")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def record_digests() -> int:
    """Pin the outputs of two identical passes of every workload at the default seed."""
    pinned = {}
    for workload in WORKLOADS:
        out = OUT / workload / "pass"
        first, second = (run_pass(workload, DEFAULT_SEED, out, traced=False)
                         for _ in range(2))
        if first.bad is None or first.bad or first.digests != second.digests:
            print(f"error: {workload} outputs are flagged or not repeatable; "
                  "nothing recorded", file=sys.stderr)
            return 1
        pinned[workload] = first.digests
        shutil.rmtree(out.parent)
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"pinned {sum(map(len, pinned.values()))} outputs in {DIGESTS}")
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in its own process; 1 if any
    run failed or found a wrong output."""
    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            done = subprocess.run([sys.executable, __file__, "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", trace], cwd=ROOT, timeout=600,
                                  stdout=subprocess.PIPE, text=True)
            print(done.stdout, end="", flush=True)
            lines = done.stdout.splitlines()
            if done.returncode or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if SRC.resolve() not in Path(sgdlab.__file__).resolve().parents or not CONFIGS.is_dir():
        print(f"error: need {SRC}/sgdlab and {CONFIGS}; imported sgdlab from "
              f"{sgdlab.__file__}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
