import numpy as np
import pytest

from chemotaxsim import elliptic, mesh, stepper
from chemotaxsim.checks import logistic_oracle, mass_identity_defect
from chemotaxsim.elliptic import solve_chemical
from chemotaxsim.errors import (DegeneracyError, FieldOverflowError,
                                ParameterError, SolverFailureError,
                                TimestepCollapseError)
from chemotaxsim.mesh import Grid, ScalarField, integrate
from chemotaxsim.stepper import (CoefficientSpec, ModelParams, StepperConfig,
                                 advance, chemotactic_velocity, initial_state,
                                 propose_dt)


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


def test_separable_2d_varies_along_first_axis_only():
    spec = CoefficientSpec(1.0, eps_x=0.5, mode_k=1.0)
    for grid in (Grid.box(1.0, 1.0, 8, 4), Grid((1.0, 1.0, 2.0), (8, 4, 3))):
        vals = spec.evaluate(grid, 0.0)
        assert vals.shape == grid.shape
        flat = vals.reshape(8, -1)
        assert np.all(flat == flat[:, :1])
        assert not np.allclose(vals[0], vals[7])


# --- chemotactic velocity ----------------------------------------------------

def test_velocity_zero_for_constant_v_and_zero_chi():
    grid = Grid.line(1.0, 32)
    v = ScalarField.full(grid, 2.0)
    assert all(np.all(w == 0.0) for w in chemotactic_velocity(v, 3.0))
    v2 = ScalarField.from_function(grid, lambda x: 1.0 + x)
    assert all(np.all(w == 0.0) for w in chemotactic_velocity(v2, 0.0))


def test_velocity_for_exponential_profile():
    n = 128
    grid = Grid.line(1.0, n)
    v = ScalarField.from_function(grid, lambda x: np.exp(x))
    chi = 2.0
    (w,) = chemotactic_velocity(v, chi)
    h = grid.spacing[0]
    interior = w[1:-1] / chi
    assert np.abs(interior - 1.0).max() <= h * h / 6.0
    assert w[0] == 0.0 and w[-1] == 0.0


def test_velocity_degeneracy_detection():
    grid = Grid.line(1.0, 16)
    v = ScalarField.full(grid, 1e-13)
    with pytest.raises(DegeneracyError):
        chemotactic_velocity(v, 1.0, v_floor=1e-12)


# --- dt proposal -------------------------------------------------------------

def test_propose_dt_diffusion_limited():
    grid = Grid.line(1.0, 128)
    params = constant_params(chi=0.0, a=1.0, b=1.0)
    state = initial_state(ScalarField.full(grid, 1.0), params)
    dt = propose_dt(state, params)
    assert dt == pytest.approx(0.4 / 32768.0, rel=1e-12)


def test_propose_dt_reaction_limited_on_coarse_grid():
    grid = Grid.line(1.0, 2)
    params = constant_params(chi=0.0, a=1.0, b=1.0)
    state = initial_state(ScalarField.full(grid, 1.0), params)
    # h^2/2 = 1/8 > 1/3 reaction guard? no: 1/(1+2) = 1/3 > 1/8, diffusion binds.
    assert propose_dt(state, params) == pytest.approx(0.4 * 0.125)
    big = initial_state(ScalarField.full(grid, 100.0), params)
    # reaction guard 1/(1+200) now binds
    assert propose_dt(big, params) == pytest.approx(0.4 / 201.0)


def test_propose_dt_advection_guard_dominates_for_huge_velocity():
    grid = Grid.line(1.0, 32)
    params = constant_params(chi=500.0, a=0.0, b=0.0)
    u0 = ScalarField.from_function(grid, lambda x: 1.0 + 0.9 * np.sin(2 * np.pi * x))
    state = initial_state(u0, params)
    (w,) = chemotactic_velocity(state.v, params.chi)
    w_max = np.abs(w).max()
    h = grid.spacing[0]
    assert h / w_max < h * h / 2.0
    assert propose_dt(state, params) == pytest.approx(0.4 * h / w_max, rel=1e-12)


def test_propose_dt_is_the_next_uncapped_step_and_v_tracks_u():
    grid = Grid.line(1.0, 32)
    params = constant_params(chi=500.0, a=0.0, b=0.0)
    u0 = ScalarField.from_function(grid, lambda x: 1.0 + 0.9 * np.sin(2 * np.pi * x))
    state = initial_state(u0, params)
    for _ in range(5):
        dt = propose_dt(state, params)
        advance(state, params)
        assert state.dt_last == dt
        assert np.array_equal(state.v.values,
                              solve_chemical(state.u, params.mu, params.nu).values)


def test_timestep_collapse_error():
    grid = Grid.line(1.0, 64)
    params = constant_params()
    state = initial_state(ScalarField.full(grid, 1.0), params)
    with pytest.raises(TimestepCollapseError):
        propose_dt(state, params, StepperConfig(dt_min=1.0))


# --- advance -----------------------------------------------------------------

def test_homogeneous_steady_state_is_preserved():
    grid = Grid.line(1.0, 32)
    params = constant_params(chi=1.0, a=1.0, b=1.0)
    state = initial_state(ScalarField.full(grid, 1.0), params)
    while state.t < 1.0:
        advance(state, params, dt_cap=1.0 - state.t)
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
        advance(state, params)
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
        advance(state, params)
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
        advance(state, params)
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
        advance(state, params, dt_cap=3.0 - state.t)
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
            advance(state, params)
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
        advance(state, params)
    assert state.u.min() >= 0.0
    assert state.v.min() > 0.0
    assert state.t > 0.0


def test_overflow_and_degeneracy_outcomes_are_distinct():
    grid = Grid.line(1.0, 32)
    params = constant_params()
    state = initial_state(ScalarField.full(grid, 1.0), params)
    with pytest.raises(FieldOverflowError):
        advance(state, params, StepperConfig(u_ceiling=0.5))
    state2 = initial_state(ScalarField.full(grid, 1.0), params)
    with pytest.raises(DegeneracyError):
        advance(state2, params, StepperConfig(v_floor=1e3))
    state3 = initial_state(ScalarField.full(grid, 1.0), params)
    with pytest.raises(TimestepCollapseError):
        advance(state3, params, StepperConfig(dt_min=1.0))


def test_accepted_steps_are_nonnegative_with_sharp_profile():
    grid = Grid.line(1.0, 64)
    params = constant_params(chi=8.0, a=0.5, b=0.5)
    u0 = ScalarField.from_function(
        grid, lambda x: 1e-6 + np.exp(-((x - 0.3) ** 2) / 0.001))
    state = initial_state(u0, params)
    for _ in range(400):
        advance(state, params)
        assert state.u.min() >= 0.0


def test_failed_solve_leaves_state_unchanged(monkeypatch):
    calls = []

    def solve_once(u, mu, nu, cfg):
        calls.append(u)
        if len(calls) == 2:
            raise SolverFailureError("injected", residual=1.0)
        return solve_chemical(u, mu, nu, cfg)

    monkeypatch.setattr(stepper, "solve_chemical", solve_once)
    grid = Grid.line(1.0, 32)
    params = constant_params(chi=3.0)
    state = initial_state(ScalarField.from_function(grid, lambda x: 1.0 + x), params)
    u, v = state.u, state.v
    u_values, v_values = u.values.copy(), v.values.copy()
    with pytest.raises(SolverFailureError):
        advance(state, params)
    assert len(calls) == 2
    assert not np.array_equal(calls[1].values, u_values)  # the post-update solve
    assert state.u is u and np.array_equal(state.u.values, u_values)
    assert state.v is v and np.array_equal(state.v.values, v_values)
    assert (state.t, state.step, state.dt_last) == (0.0, 0, 0.0)


@pytest.mark.parametrize("grid", [Grid.line(1.0, 24), Grid.box(1.0, 1.0, 12, 10)],
                         ids=["1d", "2d"])
def test_accepted_step_checks_finiteness_once_and_solves_once(grid, monkeypatch):
    # the accepted step's one finiteness pass is on the solve's source; the
    # positivity and u_ceiling tests and the NaN-safe residual check cover
    # the rest
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
    advance(state, params)
    assert state.step == 1
    assert calls == {"require_finite": 1, "solve_chemical": 1, "_check_residual": 1}
