"""Explicit conservative step for the cell-density equation.

The state carries the model and configs that made it and keeps one
invariant: ``state.v`` is V(state.u), the chemical field solved from the
current density under the state's own mu, nu and elliptic config, so
:func:`advance` takes no model of its own.  One step does, in order: build
the singular drift velocity w = chi * grad(v)/v on faces from that v,
propose a stable dt, apply a flux-form forward Euler update with central
diffusion, donor-cell (upwind) advection and an explicit logistic reaction,
then solve V of the new density, check it against the floor v_floor and
only then store the new pair.  Flux form and zero Neumann boundary faces
make the mass identity

    int u_new = int u_old + dt * int u_old*(a - b*u_old)

hold to roundoff, which is the backbone of the mass-bound monitors.

A step is a deterministic function of its inputs, so once an uncapped step
with time-independent coefficients leaves (u, v) bitwise unchanged (a
discrete steady state such as u = a/b), :func:`advance` replays it while
the state's u and v keep those bits and its model and configs stay the
same objects, instead of recomputing a result that every guard and check
already accepted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .elliptic import DEFAULT_ELLIPTIC, EllipticConfig, solve_chemical
from .errors import (DegeneracyError, FieldOverflowError, ParameterError,
                     TimestepCollapseError)
from .mesh import Grid, ScalarField, divergence, face_gradient  # noqa: F401  (re-exported)

# negatives no larger than this fraction of max u are roundoff, not physics
CLAMP_FRACTION = 1e-14


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
        """Coefficient values at cell centers for time t, as a read-only view,
        so values a state keeps cannot be modified in place."""
        x = grid.centers(0)
        fx = self.base * (1.0 + self.eps_x * np.cos(self.mode_k * np.pi * x / grid.extents[0]))
        if self.omega != 0.0:
            fx = fx * (1.0 + self.eps_t * math.sin(self.omega * t))
        return np.broadcast_to(fx.reshape((-1,) + (1,) * (grid.dim - 1)), grid.shape)

    def scaled(self, factor: float) -> "CoefficientSpec":
        return replace(self, base=self.base * factor)


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
        # an infinite dt_min or v_floor would trip its guard on the first step;
        # u_ceiling=inf means no ceiling
        if not (0 < self.dt_min < math.inf and 0 < self.v_floor < math.inf
                and self.u_ceiling > 0):
            raise ParameterError("dt_min and v_floor must be positive and finite, "
                                 "and u_ceiling positive")


DEFAULT_STEPPER = StepperConfig()


def _require_floor(min_v: float, v_floor: float) -> None:
    """Raise DegeneracyError when a chemical field's minimum is below v_floor,
    zero or NaN."""
    if not (min_v >= v_floor and min_v > 0.0):
        raise DegeneracyError(
            f"chemical field at {min_v:.3e} dropped below floor {v_floor:.3e}", min_v=min_v)


def _require_ceiling(max_u: float, u_ceiling: float) -> None:
    """Raise FieldOverflowError when a density's maximum is above u_ceiling or not finite."""
    if not math.isfinite(max_u) or max_u > u_ceiling:
        raise FieldOverflowError(
            f"max u = {max_u:.3e} exceeded ceiling {u_ceiling:.3e}", max_u=max_u)


@dataclass
class SimState:
    """Mutable simulation state; one owner per state, never shared.

    The state carries the model and configs that made it: ``v`` is the
    chemical field solved from ``u`` under ``params.mu``, ``params.nu`` and
    ``elliptic_cfg``, v == V(u), and :func:`advance` steps it under exactly
    those and ``cfg``.  Further invariants: ``u_max == u.max()`` and
    ``v_min == v.min()``, with u_max within ``cfg.u_ceiling`` and v_min at or
    above ``cfg.v_floor``.  Construction computes the extrema and checks the
    ceiling, then the floor; :func:`advance` keeps all of it.  A caller that
    edits ``u`` or ``v`` in place breaks them; build a new state instead.  A
    reassigned model or config takes effect at the next step.
    """

    t: float
    step: int
    u: ScalarField
    v: ScalarField
    params: ModelParams
    cfg: StepperConfig = DEFAULT_STEPPER
    elliptic_cfg: EllipticConfig = DEFAULT_ELLIPTIC
    dt_last: float = 0.0
    u_max: float = field(init=False)
    v_min: float = field(init=False)
    # the last step, when it was a bitwise fixed point (see advance): the
    # bytes of u and v, their grid, the model and configs it ran under, its
    # guard dt and the dt it accepted
    _fixed_point: tuple[bytes, bytes, Grid, ModelParams, StepperConfig, EllipticConfig,
                        float, float] | None = field(
        default=None, init=False, repr=False, compare=False)
    # (params, grid, a, b): time-independent a and b at the cell centers
    _coefficients: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.u_max = self.u.max()
        self.v_min = self.v.min()
        _require_ceiling(self.u_max, self.cfg.u_ceiling)
        _require_floor(self.v_min, self.cfg.v_floor)


def initial_state(u0: ScalarField, params: ModelParams,
                  elliptic_cfg: EllipticConfig = DEFAULT_ELLIPTIC,
                  cfg: StepperConfig = DEFAULT_STEPPER) -> SimState:
    """The pair (u0, V(u0)) at t=0; raises when u0 is above the ceiling or
    V(u0) below the floor.  The solve comes first, so a u0 whose solve fails
    is a solver failure whatever its maximum."""
    v0 = solve_chemical(u0, params.mu, params.nu, elliptic_cfg)
    return SimState(0.0, 0, u0.copy(), v0, params, cfg, elliptic_cfg)


def _interior_drift(v: ScalarField, chi: float) -> list[np.ndarray]:
    """Drift velocity on interior faces; v > 0 (see :func:`_require_floor`)."""
    grid = v.grid
    out = []
    for (lo, hi), h in zip(grid.face_slices, grid.spacing):
        v_lo, v_hi = v.values[lo], v.values[hi]
        out.append(chi * ((v_hi - v_lo) / h) / (0.5 * (v_lo + v_hi)))
    return out


def chemotactic_velocity(v: ScalarField, chi: float) -> list[np.ndarray]:
    """Interior-face drift velocity w = chi * (face gradient of v) / (face-average v).

    The face average is arithmetic.  Any cell of v at or below zero means the
    singular sensitivity is no longer evaluable and raises DegeneracyError.
    """
    _require_floor(v.min(), 0.0)
    return _interior_drift(v, chi)


def _drift_and_dt(state: SimState) -> tuple[list[np.ndarray], float]:
    """Interior-face drift from state.v, and the stable dt sigma *
    min(diffusion, advection, reaction guards); zero-denominator guards are
    skipped.  Raises on collapse below dt_min or on state.v below the floor."""
    params, cfg = state.params, state.cfg
    _require_floor(state.v_min, cfg.v_floor)  # guards the division if a caller edited the state
    w = _interior_drift(state.v, params.chi)
    grid = state.u.grid
    h_min = grid.min_spacing
    guards = [h_min * h_min / (2.0 * grid.dim)]
    w_max = max(float(np.abs(wa).max()) for wa in w)
    if w_max > 0.0:
        guards.append(h_min / w_max)
    reaction_rate = params.coeff_a.sup + 2.0 * params.coeff_b.sup * state.u_max
    if reaction_rate > 0.0:
        guards.append(1.0 / reaction_rate)
    dt = cfg.cfl_safety * min(guards)
    if dt < cfg.dt_min:
        raise TimestepCollapseError(f"proposed dt {dt:.3e} below dt_min {cfg.dt_min:.3e}")
    return w, dt


def _explicit_rhs(u: ScalarField, w: list[np.ndarray],
                  a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """div(grad u - u_upwind * w) + u*(a - b*u), all in flux form; w is the
    drift on interior faces."""
    grid = u.grid
    fluxes = []
    for (lo, hi), w_in, h in zip(grid.face_slices, w, grid.spacing):
        u_lo, u_hi = u.values[lo], u.values[hi]
        fluxes.append((u_hi - u_lo) / h - np.where(w_in > 0.0, u_lo, u_hi) * w_in)
    return divergence(grid, fluxes) + u.values * (a - b * u.values)


def advance(state: SimState, dt_cap: float = math.inf) -> SimState:
    """Advance the state by one accepted step under its own model and
    configs (mutates and returns it).

    Keeps the state's invariants.  Order of operations: drift velocity
    from state.v, the guards' dt capped at dt_cap, the explicit update, then
    one elliptic solve V(u_new).  A step producing genuine negatives is
    rejected and retried at dt/2 until dt falls below dt_min; negatives
    within CLAMP_FRACTION*max(u) of zero are roundoff and get zeroed instead.

    Failure modes map to distinct exceptions: DegeneracyError (v_floor, on
    V(u_new)), FieldOverflowError (u_ceiling, on u_new),
    TimestepCollapseError (dt below dt_min), SolverFailureError
    (elliptic).  The state is assigned only after the new pair passes every
    check, so on any of them it still holds the last consistent (u, V(u))
    pair.  No pass scans u_new for NaN: a NaN or -inf cell fails the
    positivity test at every dt and an inf one the u_ceiling test, before the
    solve, which reads finiteness from its source and residual norms.

    Replay: when a full step was uncapped (its guard dt <= dt_cap), both
    coefficients have omega == 0, and u_new and V(u_new) equal u and v
    bitwise, the state records that step.  The next call replays it, doing
    only ``t += dt``, ``step += 1`` and ``dt_last = dt``, if the state's u
    and v are still on the recorded grid and bitwise equal to the recorded
    ones, its params, cfg and elliptic_cfg are the recorded objects, and
    dt_cap is no smaller than the recorded guard dt.  Those are all the
    step's inputs, so every guard and check would repeat the recorded step's
    outcome.  Any other call drops the record and runs the full step.
    """
    if state._fixed_point is not None:
        u_bits, v_bits, grid, params, cfg, elliptic_cfg, guard_dt, dt = state._fixed_point
        if (state.u.grid is grid and state.params is params and state.cfg is cfg
                and state.elliptic_cfg is elliptic_cfg and dt_cap >= guard_dt
                and state.u.values.tobytes() == u_bits
                and state.v.values.tobytes() == v_bits):
            state.t += dt
            state.step += 1
            state.dt_last = dt
            return state
        state._fixed_point = None

    params, cfg = state.params, state.cfg
    grid = state.u.grid
    w, guard_dt = _drift_and_dt(state)
    dt = min(guard_dt, dt_cap)

    u_old = state.u.values
    steady = params.coeff_a.omega == params.coeff_b.omega == 0.0
    kept = state._coefficients
    if not (kept and kept[0] is params and kept[1] is grid):
        kept = (params, grid, params.coeff_a.evaluate(grid, state.t),
                params.coeff_b.evaluate(grid, state.t))
        state._coefficients = kept if steady else None
    a, b = kept[2:]
    rhs = _explicit_rhs(state.u, w, a, b)
    while True:  # ends: dt_min > 0, so halving reaches it
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
                f"dt collapsed to {dt:.3e} while restoring positivity")

    u_peak = float(u_new.max())
    _require_ceiling(u_peak, cfg.u_ceiling)
    u_field = ScalarField(grid, u_new)
    v_new = solve_chemical(u_field, params.mu, params.nu, state.elliptic_cfg)
    v_min = v_new.min()
    _require_floor(v_min, cfg.v_floor)
    # the max test first: a step that moved u's max costs one comparison.  Bytes,
    # not values: -0.0 and 0.0 differ, and so do NaN payloads
    if (u_peak == state.u_max and guard_dt <= dt_cap and steady
            and (u_bits := u_new.tobytes()) == u_old.tobytes()
            and (v_bits := v_new.values.tobytes()) == state.v.values.tobytes()):
        state._fixed_point = (u_bits, v_bits, grid, params, cfg, state.elliptic_cfg,
                              guard_dt, dt)
    state.u = u_field
    state.v = v_new
    state.u_max = u_peak
    state.v_min = v_min
    state.t += dt
    state.step += 1
    state.dt_last = dt
    return state
