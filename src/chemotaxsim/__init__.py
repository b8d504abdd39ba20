"""Finite-volume simulator and analysis toolkit for a parabolic-elliptic
chemotaxis system with singular sensitivity and logistic growth."""

from .checks import self_check
from .diagnostics import (check_mass_bound, check_persistence, compute_record, grad_ratio,
                          log_mass, lp_norm, m_star, neg_power, rayleigh,
                          reverse_holder_check)
from .elliptic import EllipticConfig, solve_chemical
from .engine import (ICSpec, RunConfig, RunOutcome, SweepResult, build_ic,
                     load_config, run, sweep)
from .errors import (ConfigError, CorruptFieldError, DegeneracyError,
                     FieldOverflowError, InfeasiblePlanError, ParameterError,
                     SimulationError, SolverFailureError, ThresholdNotMetError,
                     TimestepCollapseError)
from .mesh import (Grid, ScalarField, cell_gradient_sq, divergence, face_gradient,
                   integrate, read_snapshot, write_snapshot)
from .regimes import (BetaWindow, LpPlan, ThresholdVerdict, beta_window,
                      boundedness_threshold, lp_parameter_plan,
                      select_lp_exponent, threshold)
from .stepper import (CoefficientSpec, ModelParams, SimState, StepperConfig,
                      advance, chemotactic_velocity, initial_state)

__version__ = "0.1.0"
