import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from chemotaxsim import elliptic, mesh, stepper
from chemotaxsim.checks import logistic_oracle, mass_identity_defect
from chemotaxsim.elliptic import solve_chemical
from chemotaxsim.errors import (DegeneracyError, FieldOverflowError,
                                ParameterError, SolverFailureError,
                                TimestepCollapseError)
from chemotaxsim.mesh import Grid, ScalarField, integrate
from chemotaxsim.regimes import threshold
from chemotaxsim.stepper import (CoefficientSpec, ModelParams, SimState,
                                 StepperConfig, advance, chemotactic_velocity,
                                 initial_state)


def constant_params(chi=1.0, mu=1.0, nu=1.0, a=1.0, b=1.0):
    return ModelParams(chi, mu, nu, CoefficientSpec.constant(a),
                       CoefficientSpec.constant(b))


# --- coefficient specs -------------------------------------------------------

def test_constant_coefficient_bounds_and_values():
    spec = CoefficientSpec.constant(2.5)
    assert spec.inf == spec.sup == 2.5
    grid = Grid.line(1.0, 16)
    assert np.all(spec.evaluate(grid, 3.0) == 2.5)


def test_separable_coefficient_bounds_cover_samples():
    # cos is even: a negative mode_k has the range of its absolute value,
    # so the x factor's minimum is 1 - 0.3 for |k| >= 1 and 1 + 0.3*cos(pi/2)
    # for |k| = 0.5
    grid = Grid.line(1.0, 200)
    for mode_k, x_lo in ((2.0, 0.7), (-2.0, 0.7), (-0.5, 1.0)):
        spec = CoefficientSpec(2.0, eps_x=0.3, mode_k=mode_k, eps_t=0.4, omega=1.7)
        lo, hi = spec.inf, spec.sup
        assert 0.0 < lo < hi
        for t in np.linspace(0.0, 20.0, 60):
            vals = spec.evaluate(grid, t)
            assert vals.min() >= lo - 1e-12
            assert vals.max() <= hi + 1e-12
        # bounds are attained up to discretization of the extrema
        assert spec.inf == pytest.approx(2.0 * x_lo * 0.6)
        assert spec.sup == pytest.approx(2.0 * 1.3 * 1.4)


def test_separable_coefficient_validation():
    with pytest.raises(ParameterError):
        CoefficientSpec(1.0, eps_x=0.6, eps_t=0.5)
    with pytest.raises(ParameterError):
        CoefficientSpec.constant(-1.0)
    with pytest.raises(ParameterError):
        ModelParams(-0.5, 1.0, 1.0, CoefficientSpec.constant(1.0),
                    CoefficientSpec.constant(1.0))
    for safety in (0.0, 1.5, math.nan):
        with pytest.raises(ParameterError, match="cfl_safety must lie in"):
            StepperConfig(cfl_safety=safety)


def test_separable_2d_varies_along_first_axis_only():
    spec = CoefficientSpec(1.0, eps_x=0.5, mode_k=1.0)
    for grid in (Grid.box(1.0, 1.0, 8, 4), Grid((1.0, 1.0, 2.0), (8, 4, 3))):
        vals = spec.evaluate(grid, 0.0)
        assert vals.shape == grid.shape
        flat = vals.reshape(8, -1)
        assert np.all(flat == flat[:, :1])
        assert not np.allclose(vals[0], vals[7])


def test_steady_coefficients_are_read_only():
    # a spec keeps its x profile for later calls, and a steady spec returns it
    # as it is, so nothing may write through the values or their bases: not
    # on the spec, and not on one unpickled with its grid, as a sweep job's is
    spec = CoefficientSpec(2.0, eps_x=0.3, mode_k=2.0)
    for grid in (Grid.line(1.0, 16), Grid.box(1.0, 1.0, 8, 4)):
        vals = spec.evaluate(grid, 0.0)
        clone, clone_grid = pickle.loads(pickle.dumps((spec, grid)))
        for got in (vals, spec.evaluate(grid, 5.0), clone.evaluate(clone_grid, 0.0)):
            assert got.shape == grid.shape and np.array_equal(got, vals)
            while got is not None:
                assert not got.flags.writeable
                got = got.base
        with pytest.raises(ValueError):
            vals[...] = 0.0


# --- chemotactic velocity ----------------------------------------------------

def test_velocity_zero_for_constant_v_and_zero_chi():
    grid = Grid.line(1.0, 32)
    v = ScalarField.full(grid, 2.0)
    (w,) = chemotactic_velocity(v, 3.0)
    assert w.shape == (31,) and np.all(w == 0.0)
    v2 = ScalarField.from_function(grid, lambda x: 1.0 + x)
    assert all(np.all(w == 0.0) for w in chemotactic_velocity(v2, 0.0))


def test_velocity_for_exponential_profile():
    n = 128
    grid = Grid.line(1.0, n)
    v = ScalarField.from_function(grid, lambda x: np.exp(x))
    chi = 2.0
    (w,) = chemotactic_velocity(v, chi)
    h = grid.spacing[0]
    assert w.shape == (n - 1,)  # interior faces only
    assert np.abs(w / chi - 1.0).max() <= h * h / 6.0


def test_velocity_degeneracy_detection():
    # the singular sensitivity divides by v, so a zero or negative cell raises
    grid = Grid.line(1.0, 16)
    for bad in (0.0, -1e-300):
        values = np.ones(16)
        values[5] = bad
        with pytest.raises(DegeneracyError):
            chemotactic_velocity(ScalarField(grid, values), 1.0)
    chemotactic_velocity(ScalarField.full(grid, 1e-300), 1.0)


# --- dt proposal -------------------------------------------------------------
# an uncapped step that needs no positivity halving takes the proposed dt,
# so dt_last is the proposal

def test_propose_dt_diffusion_limited():
    grid = Grid.line(1.0, 128)
    params = constant_params(chi=0.0, a=1.0, b=1.0)
    state = advance(initial_state(ScalarField.full(grid, 1.0), params))
    assert state.dt_last == pytest.approx(0.4 / 32768.0, rel=1e-12)


def test_propose_dt_reaction_limited_on_coarse_grid():
    grid = Grid.line(1.0, 2)
    params = constant_params(chi=0.0, a=1.0, b=1.0)
    state = advance(initial_state(ScalarField.full(grid, 1.0), params))
    # h^2/2 = 1/8 > 1/3 reaction guard? no: 1/(1+2) = 1/3 > 1/8, diffusion binds.
    assert state.dt_last == pytest.approx(0.4 * 0.125)
    big = advance(initial_state(ScalarField.full(grid, 100.0), params))
    # reaction guard 1/(1+200) now binds
    assert big.dt_last == pytest.approx(0.4 / 201.0)


def test_propose_dt_advection_guard_dominates_for_huge_velocity():
    grid = Grid.line(1.0, 32)
    params = constant_params(chi=500.0, a=0.0, b=0.0)
    u0 = ScalarField.from_function(grid, lambda x: 1.0 + 0.9 * np.sin(2 * np.pi * x))
    state = initial_state(u0, params)
    (w,) = chemotactic_velocity(state.v, params.chi)
    w_max = np.abs(w).max()
    h = grid.spacing[0]
    assert h / w_max < h * h / 2.0
    advance(state)
    assert state.dt_last == pytest.approx(0.4 * h / w_max, rel=1e-12)


def test_propose_dt_is_the_next_uncapped_step_and_v_tracks_u():
    grid = Grid.line(1.0, 32)
    params = constant_params(chi=500.0, a=0.0, b=0.0)
    u0 = ScalarField.from_function(grid, lambda x: 1.0 + 0.9 * np.sin(2 * np.pi * x))
    state = initial_state(u0, params)
    h = grid.spacing[0]
    for _ in range(5):
        # the advection guard binds at each of these steps
        (w,) = chemotactic_velocity(state.v, params.chi)
        dt = 0.4 * h / float(np.abs(w).max())
        advance(state)
        assert state.dt_last == pytest.approx(dt, rel=1e-12)
        assert np.array_equal(state.v.values,
                              solve_chemical(state.u, params.mu, params.nu).values)


def test_timestep_collapse_error():
    grid = Grid.line(1.0, 64)
    params = constant_params()
    state = initial_state(ScalarField.full(grid, 1.0), params, cfg=StepperConfig(dt_min=1.0))
    with pytest.raises(TimestepCollapseError):
        advance(state)
    assert (state.t, state.step, state.dt_last) == (0.0, 0, 0.0)


# --- advance -----------------------------------------------------------------

def test_homogeneous_steady_state_is_preserved():
    grid = Grid.line(1.0, 32)
    params = constant_params(chi=1.0, a=1.0, b=1.0)
    state = initial_state(ScalarField.full(grid, 1.0), params)
    while state.t < 1.0:
        advance(state, dt_cap=1.0 - state.t)
    assert abs(state.u.max() - 1.0) <= 1e-9
    assert abs(state.u.min() - 1.0) <= 1e-9
    assert np.allclose(state.v.values, 1.0, atol=1e-9)


def test_logistic_ode_oracle_short():
    # coarse, mid-growth check; the production-tolerance version (t=5,
    # finer dt) lives in the acceptance suite
    assert logistic_oracle(16, t_end=2.0)[0] <= 1e-3


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mass_identity_single_step(dim):
    grid = {1: Grid.line(1.0, 64), 2: Grid.box(1.0, 1.0, 16, 16), 3: Grid((1.0,) * 3, (8,) * 3)}[dim]
    defect, mass0 = mass_identity_defect(grid, 41, (0.2, 1.8),
                                         constant_params(chi=1.5, a=1.2, b=0.7))
    assert defect <= 1e-12 * mass0


def test_pure_transport_conserves_mass():
    gen = np.random.Generator(np.random.Philox(key=43))
    grid = Grid.line(1.0, 48)
    params = constant_params(chi=1.0, a=0.0, b=0.0)
    u0 = ScalarField(grid, 0.3 + gen.uniform(0.0, 1.0, grid.shape))
    state = initial_state(u0, params)
    mass0 = integrate(state.u)
    for _ in range(500):
        advance(state)
    assert integrate(state.u) == pytest.approx(mass0, rel=1e-13)
    assert state.u.min() >= 0.0


def test_pure_transport_conserves_mass_2d():
    gen = np.random.Generator(np.random.Philox(key=59))
    grid = Grid.box(1.0, 1.0, 12, 12)
    params = constant_params(chi=2.0, a=0.0, b=0.0)
    u0 = ScalarField(grid, 0.3 + gen.uniform(0.0, 1.0, grid.shape))
    state = initial_state(u0, params)
    mass0 = integrate(state.u)
    for _ in range(200):
        advance(state)
        assert np.array_equal(state.v.values,
                              solve_chemical(state.u, params.mu, params.nu).values)
    assert integrate(state.u) == pytest.approx(mass0, rel=1e-13)
    assert state.u.min() >= 0.0


def test_heat_stencil_max_principle():
    gen = np.random.Generator(np.random.Philox(key=47))
    grid = Grid.line(1.0, 48)
    params = constant_params(chi=0.0, a=0.0, b=0.0)
    u0 = ScalarField(grid, gen.uniform(0.5, 2.0, grid.shape))
    state = initial_state(u0, params)
    peak = state.u.max()
    for _ in range(300):
        advance(state)
        new_peak = state.u.max()
        assert new_peak <= peak + 1e-13
        peak = new_peak


def test_mass_stays_below_ceiling_with_time_dependent_coefficients():
    gen = np.random.Generator(np.random.Philox(key=53))
    grid = Grid.line(1.0, 32)
    params = ModelParams(
        1.0, 1.0, 1.0,
        CoefficientSpec(1.5, eps_x=0.4, mode_k=1.0, eps_t=0.3, omega=5.0),
        CoefficientSpec(0.8, eps_x=0.2, mode_k=2.0, eps_t=0.1, omega=3.0),
    )
    u0 = ScalarField(grid, gen.uniform(0.0, 4.0, grid.shape))
    state = initial_state(u0, params)
    ceiling = max(integrate(u0), params.coeff_a.sup / params.coeff_b.inf * grid.measure)
    while state.t < 3.0:
        advance(state, dt_cap=3.0 - state.t)
        assert integrate(state.u) <= ceiling * (1.0 + 1e-8)
        assert state.u.min() >= 0.0


def test_upwind_flux_hand_computed():
    # n=4, h=0.25, u=[1,2,3,4], synthetic interior face velocities
    # w=[+2,-2,+1] (the boundary faces carry zero flux): donor cells are
    # 0, 2, 2; fluxes (grad - donor*w) are 2, 10, 1; the divergence
    # telescopes to [8, 32, -36, -4] and the logistic reaction with a=0.5,
    # b=0.25 adds [0.25, 0, -0.75, -2]
    from chemotaxsim.stepper import _explicit_rhs
    grid = Grid.line(1.0, 4)
    u = np.array([1.0, 2.0, 3.0, 4.0])
    w = [np.array([2.0, -2.0, 1.0])]
    a = np.full(4, 0.5)
    b = np.full(4, 0.25)
    rhs = _explicit_rhs(ScalarField(grid, u), w, a, b)
    assert np.allclose(rhs, [8.25, 32.0, -36.75, -6.0], atol=1e-12)


def test_chemotactic_aggregation_grows_unstable_mode():
    # strong screened coupling makes the lowest cosine mode linearly
    # unstable; the drift must amplify it while plain diffusion kills it.
    # a drift-sign error turns amplification into decay, so this pins the
    # direction of the advective flux, not just its conservation.
    grid = Grid.line(1.0, 48)
    x = grid.centers(0)
    u0 = ScalarField(grid, 1.0 + 0.1 * np.cos(np.pi * x))
    plain = ModelParams(0.0, 50.0, 50.0, CoefficientSpec.constant(0.0),
                        CoefficientSpec.constant(0.0))
    taxis = ModelParams(6.0, 50.0, 50.0, CoefficientSpec.constant(0.0),
                        CoefficientSpec.constant(0.0))

    def amplitude_after(params, steps=2000):
        state = initial_state(u0, params)
        for _ in range(steps):
            advance(state)
        return (state.u.max() - state.u.min()) / 2.0

    amp0 = 0.1
    assert amplitude_after(taxis) > 3.0 * amp0
    assert amplitude_after(plain) < 0.5 * amp0


def test_advance_2d_smoke_with_chemotaxis():
    grid = Grid.box(1.0, 1.0, 16, 16)
    params = constant_params(chi=2.0)
    u0 = ScalarField.from_function(
        grid, lambda x, y: 0.2 + np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.02))
    state = initial_state(u0, params)
    for _ in range(50):
        advance(state)
    assert state.u.min() >= 0.0
    assert state.v.min() > 0.0
    assert state.t > 0.0


def test_overflow_and_degeneracy_outcomes_are_distinct():
    # u = 0.5 grows under a = b = 1 and falls under a = 0, b = 1; the
    # ceiling sits at u0 and the floor just below V(u0) = 0.5, so the state
    # starts within both and the first step crosses one
    grid = Grid.line(1.0, 32)
    u0 = ScalarField.full(grid, 0.5)
    for params, cfg, error in (
            (constant_params(), StepperConfig(u_ceiling=0.5), FieldOverflowError),
            (constant_params(a=0.0), StepperConfig(v_floor=0.49999), DegeneracyError),
            (constant_params(), StepperConfig(dt_min=1.0), TimestepCollapseError)):
        state = initial_state(u0, params, cfg=cfg)
        with pytest.raises(error):
            advance(state)


def test_a_state_is_checked_where_it_is_made():
    # the ceiling first, then the floor, as initial_state checks them
    grid = Grid.line(1.0, 16)
    params = constant_params()
    u, v = ScalarField.full(grid, 2.0), ScalarField.full(grid, 1e-3)
    with pytest.raises(FieldOverflowError):
        SimState(0.0, 0, u, v, params, StepperConfig(u_ceiling=1.0, v_floor=1.0))
    with pytest.raises(DegeneracyError):
        SimState(0.0, 0, u, v, params, StepperConfig(v_floor=1e-2))
    with pytest.raises(DegeneracyError):
        SimState(0.0, 0, u, ScalarField.full(grid, 0.0), params)
    state = SimState(0.0, 0, u, v, params, StepperConfig(v_floor=1e-3))
    assert (state.u_max, state.v_min) == (2.0, 1e-3)
    # u_ceiling=inf means no ceiling, yet a non-finite maximum still trips it
    values = np.full(16, 2.0)
    values[5] = math.inf
    with pytest.raises(FieldOverflowError):
        SimState(0.0, 0, ScalarField(grid, values), v, params,
                 StepperConfig(u_ceiling=math.inf, v_floor=1e-3))


def test_a_nan_chemical_field_is_a_degeneracy():
    # NaN compares false both ways, so the floor test is written to fail on it
    grid = Grid.line(1.0, 8)
    values = np.ones(8)
    values[3] = math.nan
    v = ScalarField(grid, values)
    with pytest.raises(DegeneracyError):
        SimState(0.0, 0, ScalarField.full(grid, 1.0), v, constant_params())
    with pytest.raises(DegeneracyError):
        chemotactic_velocity(v, 1.0)


def test_floor_is_checked_where_each_pair_is_made():
    # u' = -u^2 makes u, and so v = V(u), fall in the first step; the floor
    # sits between V(u0) = 1 and V(u1) = 1 - dt
    grid = Grid.line(1.0, 32)
    params = constant_params(chi=1.0, a=0.0, b=1.0)
    cfg = StepperConfig(v_floor=0.99999)
    with pytest.raises(DegeneracyError, match="chemical field at 5.000e-01"):
        initial_state(ScalarField.full(grid, 0.5), params, cfg=cfg)
    state = initial_state(ScalarField.full(grid, 1.0), params, cfg=cfg)
    u, v = state.u, state.v
    with pytest.raises(DegeneracyError) as err:
        advance(state)
    assert err.value.min_v < cfg.v_floor <= state.v_min
    assert state.u is u and state.v is v
    assert (state.t, state.step, state.dt_last) == (0.0, 0, 0.0)
    # and the step's input: a floor raised after the state was built fails
    # before the drift divides by v
    state.cfg = StepperConfig(v_floor=2.0)
    with pytest.raises(DegeneracyError, match=r"chemical field at 1.000e\+00"):
        advance(state)


def test_accepted_steps_are_nonnegative_with_sharp_profile():
    grid = Grid.line(1.0, 64)
    params = constant_params(chi=8.0, a=0.5, b=0.5)
    u0 = ScalarField.from_function(
        grid, lambda x: 1e-6 + np.exp(-((x - 0.3) ** 2) / 0.001))
    state = initial_state(u0, params)
    for _ in range(400):
        advance(state)
        assert state.u.min() >= 0.0


# --- positivity retry ----------------------------------------------------------
# a spike of 100 in cell 8 of 16 at cfl_safety=1: at the guard dt 1/512
# (h^2/2) diffusion alone takes 100 out of the spike and the reaction ~19
# more, so u_new < 0 there; at dt/2 the spike keeps ~40

def spike_state(cfg):
    grid = Grid.line(1.0, 16)
    u0 = np.zeros(16)
    u0[8] = 100.0
    return initial_state(ScalarField(grid, u0), constant_params(chi=0.0), cfg=cfg)


def test_a_step_with_genuine_negatives_is_retried_at_half_dt():
    state = spike_state(StepperConfig(cfl_safety=1.0))
    grid = state.u.grid
    mass0 = integrate(state.u)
    reaction = float((state.u.values * (1.0 - state.u.values)).sum() * grid.cell_volume)
    advance(state)
    assert state.dt_last == 1.0 / 1024.0
    assert state.u.min() >= 0.0
    assert abs(integrate(state.u) - mass0 - state.dt_last * reaction) <= 1e-12 * mass0


def test_roundoff_negatives_are_clamped_at_the_full_dt():
    from chemotaxsim.stepper import _explicit_rhs
    grid = Grid.line(1.0, 3)
    params = constant_params(chi=0.0, a=0.0, b=0.0)
    state = initial_state(ScalarField(grid, np.array([0.0, 123.456, 0.0])), params,
                          cfg=StepperConfig(cfl_safety=1.0))
    (w,) = chemotactic_velocity(state.v, 0.0)
    zeros = np.zeros(3)
    unclamped = state.u.values + (1.0 / 18.0) * _explicit_rhs(state.u, [w], zeros, zeros)
    assert -1e-13 < unclamped[1] < 0.0  # the guard dt h^2/2 empties the middle cell
    advance(state)
    assert state.dt_last == 1.0 / 18.0
    assert state.u.values[1] == 0.0 and state.u.min() == 0.0


def test_halving_below_dt_min_is_a_collapse():
    state = spike_state(StepperConfig(cfl_safety=1.0, dt_min=0.75 / 512.0))
    u = state.u
    u_values = u.values.copy()
    with pytest.raises(TimestepCollapseError, match="while restoring positivity"):
        advance(state)
    assert state.u is u and np.array_equal(state.u.values, u_values)
    assert (state.t, state.step, state.dt_last) == (0.0, 0, 0.0)


def test_failed_solve_leaves_state_unchanged(monkeypatch):
    calls = []

    def solve_once(u, mu, nu, cfg):
        calls.append(u)
        if len(calls) == 2:
            raise SolverFailureError("injected")
        return solve_chemical(u, mu, nu, cfg)

    monkeypatch.setattr(stepper, "solve_chemical", solve_once)
    grid = Grid.line(1.0, 32)
    params = constant_params(chi=3.0)
    state = initial_state(ScalarField.from_function(grid, lambda x: 1.0 + x), params)
    u, v = state.u, state.v
    u_values, v_values = u.values.copy(), v.values.copy()
    with pytest.raises(SolverFailureError):
        advance(state)
    assert len(calls) == 2
    assert not np.array_equal(calls[1].values, u_values)  # the post-update solve
    assert state.u is u and np.array_equal(state.u.values, u_values)
    assert state.v is v and np.array_equal(state.v.values, v_values)
    assert (state.t, state.step, state.dt_last) == (0.0, 0, 0.0)


@pytest.mark.parametrize("grid", [Grid.line(1.0, 24), Grid.box(1.0, 1.0, 12, 10)],
                         ids=["1d", "2d"])
def test_accepted_step_checks_finiteness_once_and_solves_once(grid, monkeypatch):
    # the one finiteness check is the source norm that the solve takes for
    # its residual check, so an accepted step makes no require_finite pass:
    # the positivity and u_ceiling tests reject a non-finite update first
    # (see below), and the NaN-safe residual check rejects a non-finite v
    params = constant_params(chi=2.0)
    state = initial_state(ScalarField.from_function(
        grid, lambda *xs: 1.0 + 0.5 * np.cos(np.pi * xs[0])), params)
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((mesh, "require_finite"), (elliptic, "require_finite"),
                         (stepper, "solve_chemical"), (elliptic, "_check_residual"),
                         (mesh, "face_gradient"), (stepper, "face_gradient")):
        count(module, name)
    for step in (1, 2):  # the second step reuses the first one's coefficients
        advance(state)
        assert state.step == step
        assert calls == {"solve_chemical": step, "_check_residual": step}


@pytest.mark.parametrize("bad, error", [(math.nan, TimestepCollapseError),
                                        (-math.inf, TimestepCollapseError),
                                        (math.inf, FieldOverflowError)],
                         ids=["nan", "-inf", "inf"])
def test_a_non_finite_update_is_rejected_before_the_solve(bad, error, monkeypatch):
    # a NaN or -inf cell fails the positivity test at every dt and halves to
    # dt_min; +inf passes it and trips the ceiling, even u_ceiling=inf
    grid = Grid.line(1.0, 24)
    state = initial_state(ScalarField.full(grid, 1.0), constant_params(chi=2.0),
                          cfg=StepperConfig(u_ceiling=math.inf))
    u = state.u

    def explicit_rhs(*args):
        rhs = np.zeros(grid.shape)
        rhs[7] = bad
        return rhs
    monkeypatch.setattr(stepper, "_explicit_rhs", explicit_rhs)
    solves = []
    monkeypatch.setattr(stepper, "solve_chemical", lambda *args: solves.append(args))
    with pytest.raises(error):
        advance(state)
    assert solves == []
    assert state.u is u and (state.t, state.step) == (0.0, 0)


# --- linear stability about the constant state ---------------------------------
# About u* = a/b, v* = nu*u*/mu the linearised scheme is diagonal in the
# discrete Neumann cosine modes: mode k grows by exactly 1 + dt*sigma_h(k)
# per explicit step (upwinding and the face average of v enter at second
# order), with lam_k the mode's eigenvalue of -Lap_h.

def axis_eigenvalues(length, n):
    """lam_k, k = 0..n-1, of -Lap_h on n cells of [0, length], in closed form."""
    return 2.0 * (n / length) ** 2 * (1.0 - np.cos(np.arange(n) * np.pi / n))


def neumann_eigenvalue(grid, mode):
    """lam_k of -Lap_h on ``grid`` for the cosine mode ``mode``."""
    return sum(axis_eigenvalues(length, n)[k]
               for length, n, k in zip(grid.extents, grid.cells, mode))


def sigma_h(lam, chi, mu, a):
    return -lam + chi * mu * lam / (mu + lam) - a


@pytest.mark.parametrize("grid, mode, chi, mu, a", [
    (Grid.line(1.0, 32), (1,), 1.0, 1.0, 1.0),
    (Grid.line(1.0, 32), (3,), 1.0, 1.0, 1.0),
    (Grid.line(1.0, 32), (1,), 3.0, 50.0, 0.1),
    (Grid.box(1.5, 1.0, 16, 12), (1, 1), 2.5, 50.0, 0.5),
    (Grid.box(1.5, 1.0, 16, 12), (2, 1), 1.0, 1.0, 1.0),
    (Grid((1.0,) * 3, (8,) * 3), (1, 0, 1), 2.0, 1.0, 1.0),
    (Grid((1.0,) * 3, (8,) * 3), (1, 1, 0), 2.0, 50.0, 0.1),
], ids=["1d-k1", "1d-k3", "1d-unstable", "2d-unstable", "2d-stable", "3d-stable",
        "3d-unstable"])
def test_cosine_mode_grows_by_the_discrete_dispersion_relation(grid, mode, chi, mu, a):
    # 200 steps from u = a*(1 + 1e-7*phi_k): the projected log-growth of
    # mode k against sum log(1 + dt_n*sigma_h(k)).  The defects measured
    # 7e-10 to 1.3e-7 here; 2e-6 leaves a margin of 15x.  nu != mu, so a
    # swapped mu and nu moves sigma_h, as a wrong factor in w or h does.
    params = ModelParams(chi, mu, 2.0, CoefficientSpec.constant(a),
                         CoefficientSpec.constant(1.0))
    phi = np.prod([np.cos(k * np.pi * x / length) for x, k, length in
                   zip(grid.coordinate_fields(), mode, grid.extents)], axis=0)

    def amplitude(u):
        return float(((u.values - a) * phi).sum() / (phi * phi).sum())

    state = initial_state(ScalarField(grid, a * (1.0 + 1e-7 * phi)), params)
    amp0 = amplitude(state.u)
    sigma = sigma_h(neumann_eigenvalue(grid, mode), chi, mu, a)
    predicted = 0.0
    for _ in range(200):
        advance(state)
        predicted += math.log1p(state.dt_last * sigma)
    measured = math.log(amplitude(state.u) / amp0)
    assert abs(measured - predicted) <= 2e-6 * abs(predicted)


def test_boundedness_threshold_lies_inside_the_linear_stability_region():
    # sigma_h <= max over lam >= 0 of the continuum curve, mu*(sqrt(chi)-1)^2 - a,
    # which lies below the paper's threshold; so above the threshold every
    # mode of every grid decays
    gen = np.random.Generator(np.random.Philox(key=67))
    for _ in range(200):
        dim = int(gen.integers(1, 4))
        cells = tuple(int(n) for n in gen.integers(2, (65, 17, 9)[dim - 1], size=dim))
        grid = Grid(tuple(gen.uniform(0.2, 5.0, size=dim)), cells)
        chi, mu = gen.uniform(0.05, 12.0), 10.0 ** gen.uniform(-2.0, 2.0)
        a = threshold(chi, mu) * (1.0 + gen.uniform(1e-6, 1.0))
        lam = sum(np.meshgrid(*map(axis_eigenvalues, grid.extents, cells), indexing="ij"))
        sigma = sigma_h(lam, chi, mu, a)
        assert sigma.max() < 0.0
        assert np.all(sigma <= mu * (math.sqrt(chi) - 1.0) ** 2 - a)


# --- fixed-point replay --------------------------------------------------------

def fresh_copy(state):
    # a newly built state holds no fixed-point record, so its step runs in full
    return replace(state, u=state.u.copy(), v=state.v.copy())


def assert_same_state(got, want):
    assert np.array_equal(got.u.values.view(np.int64), want.u.values.view(np.int64))
    assert np.array_equal(got.v.values.view(np.int64), want.v.values.view(np.int64))
    assert (got.t, got.step, got.dt_last) == (want.t, want.step, want.dt_last)
    assert (got.u_max, got.v_min) == (want.u.max(), want.v.min())


def count_solves(monkeypatch):
    calls = []
    original = stepper.solve_chemical

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(stepper, "solve_chemical", counted)
    return calls


def steady_state(grid, params):
    """The constant state u = a/b, which the scheme keeps bitwise."""
    return initial_state(ScalarField.full(grid, params.coeff_a.base / params.coeff_b.base),
                         params)


@pytest.mark.parametrize("grid", [Grid.line(1.0, 8), Grid.box(1.5, 1.0, 8, 6),
                                  Grid((1.0,) * 3, (4,) * 3)], ids=["1d", "2d", "3d"])
def test_replay_equals_full_steps(grid, monkeypatch):
    params = constant_params(chi=2.0, a=2.0, b=1.0)
    state = steady_state(grid, params)
    calls = count_solves(monkeypatch)
    unchanged = False
    replays = 0
    for _ in range(5):
        start = fresh_copy(state)
        want = advance(fresh_copy(state))
        before = len(calls)
        advance(state)
        assert_same_state(state, want)
        # a step after one that returned its input bitwise is replayed
        assert len(calls) - before == (0 if unchanged else 1)
        replays += unchanged
        unchanged = all(np.array_equal(x.values.view(np.int64), y.values.view(np.int64))
                        for x, y in ((want.u, start.u), (want.v, start.v)))
    assert replays >= 3


@pytest.mark.parametrize("grid", [Grid.line(1.0, 8), Grid.box(1.5, 1.0, 8, 6)],
                         ids=["1d", "2d"])
def test_v_is_the_states_own_solve_after_every_step(grid, monkeypatch):
    # mu, nu and the elliptic config come from the state: every full step
    # solves with them, and a replayed step keeps the v they solved
    params = constant_params(chi=2.0, mu=2.0, nu=3.0, a=2.0, b=1.0)
    cfg = elliptic.EllipticConfig(rel_tolerance=1e-8)
    state = initial_state(ScalarField.full(grid, 2.0), params, cfg)
    calls = []

    def solve(u, mu, nu, elliptic_cfg):
        calls.append((mu, nu, elliptic_cfg))
        return solve_chemical(u, mu, nu, elliptic_cfg)
    monkeypatch.setattr(stepper, "solve_chemical", solve)
    for _ in range(6):
        advance(state)
        want = solve_chemical(state.u, 2.0, 3.0, cfg)
        assert np.array_equal(state.v.values.view(np.int64), want.values.view(np.int64))
    assert calls and all(args == (2.0, 3.0, cfg) for args in calls)
    assert len(calls) < 6  # the later steps were replays


def test_no_replay_when_an_input_differs(monkeypatch):
    grid = Grid.line(1.0, 8)
    params = constant_params(chi=2.0, a=2.0, b=1.0)
    calls = count_solves(monkeypatch)

    def solves(state, dt_cap=math.inf):
        """Elliptic solves of one step, which must match a full step."""
        want = advance(fresh_copy(state), dt_cap)
        before = len(calls)
        advance(state, dt_cap)
        assert_same_state(state, want)
        return len(calls) - before

    # a time-dependent coefficient: the step depends on t, so it is never recorded
    timed = ModelParams(2.0, 1.0, 1.0, CoefficientSpec(2.0, omega=1.0),
                        CoefficientSpec.constant(1.0))
    state = steady_state(grid, timed)
    assert [solves(state) for _ in range(4)] == [1, 1, 1, 1]

    state = steady_state(grid, params)
    assert [solves(state) for _ in range(3)] == [1, 1, 0]
    assert solves(state, dt_cap=0.5 * state.dt_last) == 1  # below the guard dt
    assert [solves(state) for _ in range(2)] == [1, 0]  # a capped step is not recorded
    # the same bits on another grid
    other = Grid.line(2.0, 8)
    state.u, state.v = ScalarField(other, state.u.values), ScalarField(other, state.v.values)
    assert [solves(state) for _ in range(2)] == [1, 1]
    state = steady_state(grid, params)
    assert [solves(state) for _ in range(3)] == [1, 1, 0]
    # an in-place edit; the nudge relaxes back to u = a/b over a few full steps
    for field, after in (("v", [1, 1, 1, 0]), ("u", [1, 1, 0, 0])):
        values = getattr(state, field).values
        values[3] = np.nextafter(values[3], 0.0)
        assert [solves(state) for _ in range(4)] == after


def test_a_reassigned_model_or_config_is_seen_by_the_next_step(monkeypatch):
    # u = a/b = 2 is a fixed point whose step is replayed until one of the
    # state's params, cfg and elliptic_cfg is replaced
    grid = Grid.line(1.0, 8)
    params = constant_params(chi=2.0, a=2.0, b=1.0)

    def settled():
        state = steady_state(grid, params)
        for _ in range(3):
            advance(state)
        assert state._fixed_point is not None
        return state

    # a = 3 moves the state off u = 2 exactly as it moves a fresh copy
    state = settled()
    state.params = replace(params, coeff_a=CoefficientSpec.constant(3.0))
    want = fresh_copy(state)
    for _ in range(100):
        advance(state)
        advance(want)
    assert_same_state(state, want)
    assert state.u_max > 2.5
    # a floor above V(u) = 2 fails the next step, which leaves the state as it was
    state = settled()
    t = state.t
    state.cfg = StepperConfig(v_floor=3.0)
    with pytest.raises(DegeneracyError, match=r"chemical field at 2.000e\+00"):
        advance(state)
    assert state.t == t
    # an equal elliptic config is another object: one full step, then replays
    state = settled()
    calls = count_solves(monkeypatch)
    state.elliptic_cfg = elliptic.EllipticConfig()
    for _ in range(3):
        advance(state)
    assert len(calls) == 1


def test_kept_profiles_never_freeze_a_time_or_a_model(monkeypatch):
    # every full step reads a and b at its own t, bit for bit as a fresh spec
    # gives them; each spec builds its x profile once on the grid, and a
    # reassigned model is read at the next step
    built = []
    centers = Grid.centers

    def counted(grid, axis):
        built.append(axis)
        return centers(grid, axis)
    seen = []
    rhs = stepper._explicit_rhs

    def spy(u, w, a, b):
        seen.append((a.tobytes(), b.tobytes()))
        return rhs(u, w, a, b)
    monkeypatch.setattr(stepper, "_explicit_rhs", spy)
    grid = Grid.line(1.0, 16)
    u0 = ScalarField.from_function(grid, lambda x: 1.0 + 0.5 * np.cos(np.pi * x))
    monkeypatch.setattr(Grid, "centers", counted)

    def fresh(params, t):
        return tuple(replace(spec).evaluate(grid, t).tobytes()
                     for spec in (params.coeff_a, params.coeff_b))

    params = ModelParams(2.0, 1.0, 1.0, CoefficientSpec(2.0, eps_x=0.3, eps_t=0.5, omega=3.0),
                         CoefficientSpec(1.0, eps_t=0.2, omega=-5.0))
    state = initial_state(u0, params)
    times = []
    for _ in range(4):
        times.append(state.t)
        advance(state)
    assert built == [0, 0]  # a's and b's profiles, on the first step
    assert seen == [fresh(params, t) for t in times]
    assert len(set(seen)) == 4  # a and b moved with t on every step
    # a new a from the next step on, exactly as on a state built with it;
    # the two states share the new spec, which builds its profile once
    state.params = replace(params, coeff_a=CoefficientSpec(3.0, eps_x=-0.2, omega=1.0,
                                                           eps_t=0.1))
    want = fresh_copy(state)
    built.clear()
    seen.clear()
    times.clear()
    for _ in range(3):
        times.append(state.t)
        advance(state)
        advance(want)
        assert_same_state(state, want)
    assert built == [0]
    assert seen[::2] == [fresh(state.params, t) for t in times]


@pytest.mark.parametrize("omega", [0.0, 1.7])
def test_one_spec_alternated_between_grids_gives_each_grids_values(omega):
    spec = CoefficientSpec(2.0, eps_x=0.3, mode_k=2.0, eps_t=0.4, omega=omega)
    grids = (Grid.line(1.0, 16), Grid.box(2.0, 1.0, 8, 4), Grid((1.0,) * 3, (6,) * 3),
             Grid.line(1.0, 16))  # equal to the first, but another object
    for t in (0.0, 0.3, 0.3, 1.1):
        for grid in grids:
            x = grid.centers(0)
            fx = 2.0 * (1.0 + 0.3 * np.cos(2.0 * np.pi * x / grid.extents[0]))
            if omega:
                fx = fx * (1.0 + 0.4 * math.sin(omega * t))
            want = np.broadcast_to(fx.reshape((-1,) + (1,) * (grid.dim - 1)), grid.shape)
            got = spec.evaluate(grid, t)
            assert got.shape == grid.shape and got.tobytes() == want.tobytes()
