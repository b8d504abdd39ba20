"""Verification battery: one function per checked property, returning the
measured numbers.  ``chemotaxsim check`` (:func:`self_check`) and the test
suite call them with their own sizes, seeds, data ranges and bounds.  Random
data is Philox-seeded, uniform on the given range and clipped at zero."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics as diag
from .elliptic import solve_chemical
from .engine import ICSpec, RunConfig, RunOutcome, run
from .errors import InfeasiblePlanError, SimulationError
from .mesh import Grid, ScalarField, integrate
from .regimes import beta_window, quadratic, select_lp_exponent, threshold
from .stepper import CoefficientSpec, ModelParams, advance, initial_state


def _uniform(gen: np.random.Generator, grid: Grid, data_range) -> ScalarField:
    lo, hi = data_range
    return ScalarField(grid, np.clip(gen.uniform(lo, hi, grid.shape), 0.0, None))


def mms_error(grid: Grid) -> float:
    """Max error of the solve (mu = nu = 1) on a grid of unit extents against
    the manufactured solution v = prod_i cos(pi x_i)."""
    vstar = np.prod([np.cos(np.pi * x) for x in grid.coordinate_fields()], axis=0)
    v = solve_chemical(ScalarField(grid, (1.0 + grid.dim * np.pi ** 2) * vstar), 1.0, 1.0)
    return float(np.abs(v.values - vstar).max())


def mean_identity_defect(grid: Grid, trials: int, seed: int,
                         data_range) -> tuple[float, float]:
    """Solve with mu=2, nu=3 for random sources u; return the worst relative
    defect |mu*int v - nu*int u| / (nu*int u) and the smallest v seen."""
    mu, nu = 2.0, 3.0
    gen = np.random.Generator(np.random.Philox(key=seed))
    worst, min_v = 0.0, math.inf
    for _ in range(trials):
        u = _uniform(gen, grid, data_range)
        v = solve_chemical(u, mu, nu)
        mass = integrate(u)
        worst = max(worst, abs(mu * integrate(v) - nu * mass) / (nu * mass))
        min_v = min(min_v, v.min())
    return worst, min_v


def mass_identity_defect(grid: Grid, seed: int, data_range,
                         params: ModelParams) -> tuple[float, float]:
    """One step from random data; return |mass change - dt * int u(a - b u)|
    and the initial mass."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    state = initial_state(_uniform(gen, grid, data_range), params)
    a = params.coeff_a.evaluate(grid, 0.0)
    b = params.coeff_b.evaluate(grid, 0.0)
    mass0 = integrate(state.u)
    reaction = float((state.u.values * (a - b * state.u.values)).sum() * grid.cell_volume)
    advance(state)
    return abs(integrate(state.u) - mass0 - state.dt_last * reaction), mass0


def logistic_oracle(cells: int, t_end: float = 5.0) -> tuple[float, RunConfig, RunOutcome]:
    """Run chi=0, a=b=1 from the constant 0.1 on a 1D grid, where every cell
    follows the logistic ODE.  Return the final record's worst relative
    error against the closed form, the config and the outcome."""
    cfg = RunConfig(grid=Grid.line(1.0, cells),
                    params=ModelParams(0.0, 1.0, 1.0, CoefficientSpec.constant(1.0),
                                       CoefficientSpec.constant(1.0)),
                    ic=ICSpec(kind="constant", value=0.1), t_end=t_end)
    outcome = run(cfg)
    final = outcome.records[-1]
    exact = 0.1 * math.exp(t_end) / (1.0 + 0.1 * (math.exp(t_end) - 1.0))
    return max(abs(final.max_u - exact), abs(final.min_u - exact)) / exact, cfg, outcome


def reverse_holder_violations(grid: Grid, trials: int, seed: int,
                              f_range, g_range) -> int:
    """Count failed reverse Hoelder checks, p in (1.5, 2, 3), over random
    pairs (f, g)."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    bad = 0
    for _ in range(trials):
        f = _uniform(gen, grid, f_range)
        g = _uniform(gen, grid, g_range)
        bad += sum(not diag.reverse_holder_check(f, g, p).passed for p in (1.5, 2.0, 3.0))
    return bad


def regime_trial_battery(n_trials: int, seed: int = 2024) -> dict:
    """Random threshold / beta-window trials; returns violation counts.

    Sampling floors (chi >= 0.05, relative margin >= 1e-6) keep the
    root-residual target representable in doubles; chi = 0 and near-zero
    margins are covered by dedicated unit tests.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    violations = 0
    worst_residual = 0.0
    for _ in range(n_trials):
        chi = float(gen.uniform(0.05, 8.0))
        mu = float(10.0 ** gen.uniform(-2.0, 2.0))
        margin = float(10.0 ** gen.uniform(-6.0, 1.0)) * mu
        R = threshold(chi, mu) + margin
        try:
            win = beta_window(chi, mu, R)
        except SimulationError:
            violations += 1
            continue
        lo, hi = win.window
        beta = win.chosen_beta
        scale = mu * chi * chi + 4.0 * R
        res = max(abs(quadratic(chi, mu, R, win.beta_minus)),
                  abs(quadratic(chi, mu, R, win.beta_plus)))
        worst_residual = max(worst_residual, res / scale)
        ok = (lo < beta < hi and beta != chi and beta > 0.0
              and quadratic(chi, mu, R, beta) < 0.0
              and win.p_hat > 0.0
              and (win.p_hat + 1.0) * beta * mu / win.p_hat - R < 0.0
              and res <= 1e-9 * scale)
        if not ok:
            violations += 1
    return {"trials": n_trials, "violations": violations,
            "worst_root_residual": worst_residual}


# --- chemotaxsim check ----------------------------------------------------------

@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str


def _check_lp_plan() -> CheckItem:
    # select_lp_exponent returns only plans with every flag true and p > max(dim, 3)
    details, ok = [], True
    for dim in (1, 2):
        try:
            details.append(f"dim {dim}: p={select_lp_exponent(dim)[1]:.3f} flags=all true")
        except InfeasiblePlanError as err:
            ok = False
            details.append(f"dim {dim}: infeasible (floor {err.p_star:.4g} >= ceiling {err.p_star_upper:.4g})")
    return CheckItem("lp_plan_feasibility", ok, "; ".join(details))


def self_check() -> list[CheckItem]:
    """Built-in verification battery; failures are items, not raises.  The
    lp_plan_feasibility item reports the exponent construction's known
    infeasibility (see regimes.lp_parameter_plan)."""
    order = math.log2(mms_error(Grid.line(1.0, 128)) / mms_error(Grid.line(1.0, 256)))
    mean_defect, min_v = mean_identity_defect(Grid.line(1.0, 128), 20, 7, (0.0, 1.0))
    unit = ModelParams(1.0, 1.0, 1.0, CoefficientSpec.constant(1.0),
                       CoefficientSpec.constant(1.0))
    mass_defect, mass = mass_identity_defect(Grid.line(1.0, 64), 11, (0.2, 1.5), unit)
    logistic_rel = logistic_oracle(16)[0]
    holder_bad = reverse_holder_violations(Grid.line(1.0, 48), 200, 13, (0.0, 2.0), (0.05, 3.0))
    trials = regime_trial_battery(10_000)
    return [
        CheckItem("elliptic_convergence", 1.8 <= order <= 2.2, f"observed order {order:.3f}"),
        CheckItem("elliptic_mean_identity", mean_defect <= 1e-9 and min_v > 0.0,
                  f"worst relative error {mean_defect:.2e}"),
        CheckItem("mass_identity", mass_defect <= 1e-12 * mass,
                  f"defect {mass_defect:.2e} vs mass {mass:.3f}"),
        CheckItem("logistic_oracle", logistic_rel <= 1e-4, f"relative error {logistic_rel:.2e}"),
        CheckItem("reverse_holder", holder_bad == 0, f"{holder_bad} violations in 600 checks"),
        CheckItem("regimes_random_trials", trials["violations"] == 0,
                  f"{trials['violations']} violations in {trials['trials']} trials, "
                  f"worst root residual {trials['worst_root_residual']:.2e}"),
        _check_lp_plan(),
    ]
