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
from sgdlab import harness, verification  # noqa: E402
from sgdlab.harness import ExperimentConfig  # noqa: E402


def test_every_traced_name_is_bound_on_its_owner():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.targets() if attr not in owner.__dict__]
    assert missing == []


def test_run_experiment_takes_one_positional_config():
    config = harness.load_config(PERFBENCH.parent / "configs" / "rademacher_rm.yaml")
    inspect.signature(harness.run_experiment).bind(config)


def test_run_loop_calls_the_traced_bindings():
    """A loop that bypasses a binding, or skips or repeats a traced call,
    would move its layer's count: each config's counts are exact."""
    base = dict(problem="rademacher", theta0=20.0, k=1, alpha=0.5,
                alpha_schedule="inverse_t", epochs=1, epoch_size=40, seed=0)
    # overrides -> exact calls per binding, recorded before the run loop
    # bound its per-iteration calls once per run and reduced the summary itself
    configs = [
        (dict(optimizer="sgd"),
         dict(step_sgd=40, step_momentum=0, step_secant=0, estimate_cv=39, smooth_cv=40,
              sample=6)),
        (dict(optimizer="momentum", beta_policy="cv_linear", k=4, alpha=0.05,
              alpha_schedule="constant"),
         dict(step_sgd=0, step_momentum=10, step_secant=0, estimate_cv=10, smooth_cv=10,
              sample=4)),
        (dict(optimizer="hybrid", switch_threshold=1.0),
         dict(step_sgd=39, step_momentum=0, step_secant=1, estimate_cv=40, smooth_cv=40,
              sample=6)),
    ]
    for overrides, expected in configs:
        with tracer.Tracer() as trace:
            harness.run_experiment(ExperimentConfig.from_dict({**base, **overrides}))
        calls, _ = trace.by_span_name()
        # draw_minibatch and evaluate_minibatch are left out: the loop calls
        # Problem.evaluate, and those bindings wait for the tracer change that
        # ROADMAP item 1 describes
        got = {name: calls[f"harness.{name}"] for name in expected if name != "sample"}
        got["sample"] = calls["RademacherProblem.sample"]
        assert got == expected, overrides["optimizer"]


def test_verification_calls_the_traced_bindings():
    """verify's runs and secant trials go through the bindings its layers
    count; bypassing one would drop `optimizers.run_hybrid` or
    `optimizers.step_secant` to 0."""
    with tracer.Tracer() as trace:
        verification.verify_hybrid_advantage(n_seeds=2)
        verification.verify_secant_absorption(n_trials=10, long_run_trials=5,
                                              long_run_steps=3)
    calls, _ = trace.by_span_name()
    for name in ("verification.run_hybrid", "verification.step_secant",
                 "harness.step_secant"):
        assert calls[name] > 0, name
