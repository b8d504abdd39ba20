"""Explicit conservative step for the cell-density equation.

The state keeps one invariant: ``state.v`` is V(state.u), the chemical
field solved from the current density.  One step does, in order: build the
singular drift velocity w = chi * grad(v)/v on faces from that v, propose a
stable dt, apply a flux-form forward Euler update with central diffusion,
donor-cell (upwind) advection and an explicit logistic reaction, then solve
V of the new density and only then store the new pair.  Flux form plus zero
Neumann boundary faces makes the discrete mass identity

    int u_new = int u_old + dt * int u_old*(a - b*u_old)

hold to roundoff, which is the backbone of the mass-bound monitors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .elliptic import DEFAULT_ELLIPTIC, EllipticConfig, solve_chemical
from .errors import (DegeneracyError, FieldOverflowError, ParameterError,
                     TimestepCollapseError)
from .mesh import Grid, ScalarField, face_gradient  # noqa: F401  (re-exported)

# negatives no larger than this fraction of max u are roundoff, not physics
CLAMP_FRACTION = 1e-14
MAX_HALVINGS = 40


@dataclass(frozen=True)
class CoefficientSpec:
    """Positive coefficient a(x, t) or b(x, t) with known global bounds:

      a(x, t) = base * (1 + eps_x*cos(k*pi*x/L)) * (1 + eps_t*sin(omega*t))

    with x the first coordinate, L its extent, and |eps_x| + |eps_t| < 1 so
    the product stays positive.  eps_x = eps_t = 0 (the defaults) is the
    constant ``base``: both factors are then exactly 1.

    ``inf``/``sup`` are bounds over the whole domain and all times, used by
    the a-priori mass ceiling and the reaction timestep guard.
    """

    base: float
    eps_x: float = 0.0
    mode_k: float = 1.0
    eps_t: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        if not (self.base >= 0 and math.isfinite(self.base)):
            # base 0 is admitted for the pure-transport / heat-stencil test
            # modes; the positive-bounds model regime uses base > 0
            raise ParameterError(f"coefficient base must be >= 0, got {self.base}")
        if not (abs(self.eps_x) + abs(self.eps_t) < 1.0
                and math.isfinite(self.mode_k) and math.isfinite(self.omega)):
            raise ParameterError("coefficient needs |eps_x| + |eps_t| < 1 and finite k, omega")

    @classmethod
    def constant(cls, value: float) -> "CoefficientSpec":
        return cls(base=value)

    @cached_property
    def _bounds(self) -> tuple[float, float]:
        # cos(k*pi*x/L) over x in [0, L] spans [cos(|k|*pi), 1], or [-1, 1] once |k| >= 1
        k = abs(self.mode_k)
        c_lo = -1.0 if k >= 1.0 else math.cos(k * math.pi)
        x_lo, x_hi = sorted((1.0 + self.eps_x * c_lo, 1.0 + self.eps_x))
        t_amp = abs(self.eps_t) if self.omega != 0.0 else 0.0
        return self.base * x_lo * (1.0 - t_amp), self.base * x_hi * (1.0 + t_amp)

    inf = property(lambda self: self._bounds[0])
    sup = property(lambda self: self._bounds[1])

    def evaluate(self, grid: Grid, t: float) -> np.ndarray:
        """Coefficient values at cell centers for time t."""
        profile = _x_profile(self, grid)
        if self.omega != 0.0:
            return profile * (1.0 + self.eps_t * math.sin(self.omega * t))
        return profile

    def scaled(self, factor: float) -> "CoefficientSpec":
        return replace(self, base=self.base * factor)


@lru_cache(maxsize=64)
def _x_profile(spec: CoefficientSpec, grid: Grid) -> np.ndarray:
    # a read-only view, so the cached profile cannot be modified in place
    x = grid.centers(0)
    fx = spec.base * (1.0 + spec.eps_x * np.cos(spec.mode_k * np.pi * x / grid.extents[0]))
    return np.broadcast_to(fx.reshape((-1,) + (1,) * (grid.dim - 1)), grid.shape)


@dataclass(frozen=True)
class ModelParams:
    """chi, mu, nu and the two logistic coefficients of the model."""

    chi: float
    mu: float
    nu: float
    coeff_a: CoefficientSpec
    coeff_b: CoefficientSpec

    def __post_init__(self):
        if self.chi < 0 or not math.isfinite(self.chi):
            raise ParameterError(f"chi must be >= 0, got {self.chi}")
        if not (0 < self.mu < math.inf and 0 < self.nu < math.inf):
            raise ParameterError(f"mu and nu must be positive and finite, got {self.mu}, {self.nu}")


@dataclass(frozen=True)
class StepperConfig:
    cfl_safety: float = 0.4
    dt_min: float = 1e-12
    u_ceiling: float = 1e8
    v_floor: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ParameterError("cfl_safety must lie in (0, 1]")
        if not all(x > 0 for x in (self.dt_min, self.u_ceiling, self.v_floor)):
            raise ParameterError("dt_min, u_ceiling and v_floor must be positive")


DEFAULT_STEPPER = StepperConfig()


@dataclass
class SimState:
    """Mutable simulation state; one owner per state, never shared.

    Invariant: ``v`` is the chemical field solved from ``u``, v == V(u).
    :func:`initial_state` establishes it and :func:`advance` keeps it.
    """

    t: float
    step: int
    u: ScalarField
    v: ScalarField
    dt_last: float = 0.0


def initial_state(u0: ScalarField, params: ModelParams,
                  elliptic_cfg: EllipticConfig = DEFAULT_ELLIPTIC) -> SimState:
    v0 = solve_chemical(u0, params.mu, params.nu, elliptic_cfg)
    return SimState(t=0.0, step=0, u=u0.copy(), v=v0)


def _interior_drift(v: ScalarField, chi: float, v_floor: float) -> list[np.ndarray]:
    """:func:`chemotactic_velocity` on the interior faces only."""
    min_v = v.min()
    if min_v < v_floor or min_v <= 0.0:
        raise DegeneracyError(
            f"chemical field at {min_v:.3e} dropped below floor {v_floor:.3e}", min_v=min_v)
    grid = v.grid
    out = []
    for ax, h in enumerate(grid.spacing):
        lo, hi, _ = grid.face_slices(ax)
        v_lo, v_hi = v.values[lo], v.values[hi]
        out.append(chi * ((v_hi - v_lo) / h) / (0.5 * (v_lo + v_hi)))
    return out


def chemotactic_velocity(v: ScalarField, chi: float,
                         v_floor: float = 0.0) -> list[np.ndarray]:
    """Face drift velocity w = chi * (face gradient of v) / (face-average v).

    The face average is arithmetic; boundary faces are zero.  Any cell at or
    below v_floor means the singular sensitivity is no longer evaluable and
    raises DegeneracyError.
    """
    grid = v.grid
    out = []
    for ax, w_in in enumerate(_interior_drift(v, chi, v_floor)):
        w = np.zeros(grid.face_shape(ax))
        w[grid.face_slices(ax)[2]] = w_in
        out.append(w)
    return out


def _drift_and_dt(state: SimState, params: ModelParams,
                  cfg: StepperConfig) -> tuple[list[np.ndarray], float]:
    """Interior-face drift from state.v, and the stable dt sigma *
    min(diffusion, advection, reaction guards); zero-denominator guards are
    skipped.  Raises on collapse below dt_min."""
    w = _interior_drift(state.v, params.chi, cfg.v_floor)
    grid = state.u.grid
    h_min = grid.min_spacing
    guards = [h_min * h_min / (2.0 * grid.dim)]
    w_max = max(float(np.abs(wa).max()) for wa in w)
    if w_max > 0.0:
        guards.append(h_min / w_max)
    reaction_rate = params.coeff_a.sup + 2.0 * params.coeff_b.sup * state.u.max()
    if reaction_rate > 0.0:
        guards.append(1.0 / reaction_rate)
    dt = cfg.cfl_safety * min(guards)
    if dt < cfg.dt_min:
        raise TimestepCollapseError(f"proposed dt {dt:.3e} below dt_min {cfg.dt_min:.3e}", dt=dt)
    return w, dt


def propose_dt(state: SimState, params: ModelParams,
               cfg: StepperConfig = DEFAULT_STEPPER) -> float:
    """The dt the next uncapped :func:`advance` starts from; raises on
    collapse below dt_min."""
    return _drift_and_dt(state, params, cfg)[1]


def _explicit_rhs(u: ScalarField, w: list[np.ndarray],
                  a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """div(grad u - u_upwind * w) + u*(a - b*u), all in flux form; w is the
    drift on interior faces, and boundary faces carry zero flux."""
    grid = u.grid
    div = np.zeros(grid.shape)
    for ax, (w_in, h) in enumerate(zip(w, grid.spacing)):
        lo, hi, inner = grid.face_slices(ax)
        u_lo, u_hi = u.values[lo], u.values[hi]
        flux = np.zeros(grid.face_shape(ax))
        flux[inner] = (u_hi - u_lo) / h - np.where(w_in > 0.0, u_lo, u_hi) * w_in
        div += (flux[hi] - flux[lo]) / h
    return div + u.values * (a - b * u.values)


def advance(state: SimState, params: ModelParams,
            cfg: StepperConfig = DEFAULT_STEPPER,
            elliptic_cfg: EllipticConfig = DEFAULT_ELLIPTIC,
            dt_cap: float = math.inf) -> SimState:
    """Advance the state by one accepted step (mutates and returns it).

    Keeps the invariant state.v == V(state.u).  Order of operations: drift
    velocity from state.v, the dt of :func:`propose_dt` capped at dt_cap,
    the explicit update, then one elliptic solve V(u_new).  A step
    producing genuine negatives is rejected and retried at dt/2 (up to
    MAX_HALVINGS); negatives within CLAMP_FRACTION*max(u) of zero are
    roundoff and get zeroed instead of burning retries.

    Failure modes map to distinct exceptions: DegeneracyError (v_floor),
    FieldOverflowError (u_ceiling), TimestepCollapseError (dt_min or retry
    budget), SolverFailureError (elliptic).  The state is assigned only
    after the new solve succeeds, so on any of them it still holds the last
    consistent (u, V(u)) pair.  The solve's source check is the step's one
    finiteness pass: the positivity and u_ceiling tests reject a NaN or inf
    u_new first, and the solve's residual check rejects a non-finite v.
    """
    grid = state.u.grid
    w, dt = _drift_and_dt(state, params, cfg)
    dt = min(dt, dt_cap)

    u_old = state.u.values
    a = params.coeff_a.evaluate(grid, state.t)
    b = params.coeff_b.evaluate(grid, state.t)
    rhs = _explicit_rhs(state.u, w, a, b)
    for _ in range(MAX_HALVINGS + 1):
        u_new = u_old + dt * rhs
        lowest = float(u_new.min())
        if lowest >= 0.0:
            break
        if abs(lowest) <= CLAMP_FRACTION * float(u_new.max()):
            np.clip(u_new, 0.0, None, out=u_new)
            break
        dt *= 0.5
        if dt < cfg.dt_min:
            raise TimestepCollapseError(
                f"dt collapsed to {dt:.3e} while restoring positivity", dt=dt)
    else:
        raise TimestepCollapseError(
            f"positivity not restored after {MAX_HALVINGS} halvings", dt=dt)

    u_peak = float(u_new.max())
    if not math.isfinite(u_peak) or u_peak > cfg.u_ceiling:
        raise FieldOverflowError(
            f"max u = {u_peak:.3e} exceeded ceiling {cfg.u_ceiling:.3e}", max_u=u_peak)

    u_field = ScalarField(grid, u_new)
    v_new = solve_chemical(u_field, params.mu, params.nu, elliptic_cfg)
    state.u = u_field
    state.v = v_new
    state.t += dt
    state.step += 1
    state.dt_last = dt
    return state
