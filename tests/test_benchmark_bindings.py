"""The names perfbench patches must stay bound where it patches them.

perfbench's tracer replaces functions through `owner.__dict__[attr]` and its
run timer calls `harness.run_experiment(config)`; a refactor that moves or
renames one of them breaks only `perfbench/run.py`, so this checks them here.
"""

import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
from sgdlab import harness  # noqa: E402


def test_every_traced_name_is_bound_on_its_owner():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.targets() if attr not in owner.__dict__]
    assert missing == []


def test_run_experiment_takes_one_positional_config():
    config = harness.load_config(PERFBENCH.parent / "configs" / "rademacher_rm.yaml")
    inspect.signature(harness.run_experiment).bind(config)
