"""sgdlab: stochastic optimization with CV-gated momentum roll-off, a secant
hybrid for poor starts, and a deterministic benchmark harness."""

from .diagnostics import RolloffPolicy, estimate_cv, smooth_cv
from .errors import ConfigurationError, InsufficientDataError, TraceFormatError
from .harness import (ExperimentConfig, HybridRun, RunSummary, TraceRecord,
                      load_config, read_trace, run_experiment, run_grid,
                      run_hybrid, write_trace)
from .optimizers import AlphaSchedule, SwitchPolicy, step_momentum, step_secant, step_sgd
from .plots import emit_plots
from .problems import (LeastSquaresProblem, LogisticBlobsProblem, Minibatch,
                       Problem, RademacherProblem, draw_minibatch,
                       evaluate_minibatch)
from .verification import OracleReport, run_all as run_verification

__version__ = "0.1.0"
