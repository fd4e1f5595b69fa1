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
from sgdlab.harness import ExperimentConfig  # noqa: E402


def test_every_traced_name_is_bound_on_its_owner():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.targets() if attr not in owner.__dict__]
    assert missing == []


def test_run_experiment_takes_one_positional_config():
    config = harness.load_config(PERFBENCH.parent / "configs" / "rademacher_rm.yaml")
    inspect.signature(harness.run_experiment).bind(config)


def test_run_loop_calls_the_traced_bindings():
    """A loop that bypasses a binding would drop its layer's count to 0."""
    base = dict(problem="rademacher", theta0=20.0, k=1, alpha=0.5,
                alpha_schedule="inverse_t", epochs=1, epoch_size=40, seed=0)
    configs = [dict(optimizer="sgd"),
               dict(optimizer="momentum", beta_policy="cv_linear", k=4, alpha=0.05,
                    alpha_schedule="constant"),
               dict(optimizer="hybrid", switch_threshold=1.0)]
    with tracer.Tracer() as trace:
        for overrides in configs:
            harness.run_experiment(ExperimentConfig.from_dict({**base, **overrides}))
    calls, _ = trace.by_span_name()
    # draw_minibatch and evaluate_minibatch are left out: the loop calls
    # Problem.evaluate, and those bindings wait for the tracer change that
    # ROADMAP item 4a describes
    for name in ("step_sgd", "step_momentum", "step_secant", "estimate_cv", "smooth_cv"):
        assert calls[f"harness.{name}"] > 0, name
