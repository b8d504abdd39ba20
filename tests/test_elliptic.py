import numpy as np
import pytest

from chemotaxsim.checks import mean_identity_defect, mms_error_1d
from chemotaxsim.elliptic import EllipticConfig, apply_operator, solve_chemical
from chemotaxsim.errors import ParameterError, SolverFailureError
from chemotaxsim.mesh import (Grid, ScalarField, divergence, face_gradient,
                              integrate)


def mms_error(n, dim, mu=1.0, nu=1.0):
    grid = Grid((1.0,) * dim, (n,) * dim)
    vstar = np.prod([np.cos(np.pi * x) for x in grid.coordinate_fields()], axis=0)
    u = ScalarField(grid, (mu + dim * np.pi ** 2) * vstar / nu)
    v = solve_chemical(u, mu, nu)
    return float(np.abs(v.values - vstar).max())


def test_constant_source_gives_constant_solution():
    grid = Grid.line(1.0, 64)
    v = solve_chemical(ScalarField.full(grid, 3.0), mu=2.0, nu=4.0)
    assert np.allclose(v.values, 6.0, rtol=1e-10)


def test_manufactured_solution_second_order_1d():
    ratio = mms_error_1d(128) / mms_error_1d(256)
    assert 3.4 <= ratio <= 4.6


def test_manufactured_solution_second_order_2d():
    # and in 3D, where the same FFT solve runs with no code of its own
    for dim, n in ((2, 48), (3, 16)):
        ratio = mms_error(n, dim) / mms_error(2 * n, dim)
        assert 3.4 <= ratio <= 4.6


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mean_identity_random_sources(dim):
    grid = {1: Grid.line(1.0, 200), 2: Grid.box(1.0, 1.0, 24, 24), 3: Grid((1.0,) * 3, (8,) * 3)}[dim]
    worst, min_v = mean_identity_defect(grid, 10, 17, (0.0, 1.0))
    assert worst <= 1e-9
    assert min_v > 0.0


def test_positivity_for_spiky_source():
    # the FFT solve has no discrete maximum principle of its own; a corner
    # spike with strong screening puts min v (about 1e-6 at the far corner
    # in 2D, 4e-7 in 3D) closest to roundoff
    for grid, spike in ((Grid.line(1.0, 128), (5,)), (Grid.box(1.0, 1.0, 64, 64), (0, 0)),
                        (Grid((1.0,) * 3, (16,) * 3), (0, 0, 0))):
        vals = np.zeros(grid.shape)
        vals[spike] = 100.0
        v = solve_chemical(ScalarField(grid, vals), mu=50.0, nu=1.0)
        assert v.min() > 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_monotonicity_on_random_pairs(dim):
    gen = np.random.Generator(np.random.Philox(key=19))
    for _ in range(5):
        grid = Grid.line(1.0, 96) if dim == 1 else Grid.box(1.0, 1.0, 16, 16)
        u2 = gen.uniform(0.1, 1.0, grid.shape)
        u1 = u2 + gen.uniform(0.0, 0.5, grid.shape)
        v1 = solve_chemical(ScalarField(grid, u1), 1.0, 1.0)
        v2 = solve_chemical(ScalarField(grid, u2), 1.0, 1.0)
        assert np.all(v1.values >= v2.values - 1e-9 * v2.max())


def test_min_v_over_mass_bounded_below_on_fixed_grid():
    # empirical positivity ratio: min v / int u stays above a fixed constant
    gen = np.random.Generator(np.random.Philox(key=23))
    grid = Grid.line(1.0, 128)
    ratios = []
    for _ in range(50):
        u = ScalarField(grid, gen.uniform(0.0, 1.0, grid.shape) ** 3)
        v = solve_chemical(u, 1.0, 1.0)
        ratios.append(v.min() / integrate(u))
    assert min(ratios) > 0.0
    assert min(ratios) > 0.1 * max(ratios)


def test_unattainable_tolerance_raises_with_residual():
    gen = np.random.Generator(np.random.Philox(key=31))
    for grid in (Grid.line(1.0, 64), Grid.box(1.0, 1.0, 32, 32)):
        u = ScalarField(grid, gen.uniform(0.0, 1.0, grid.shape))
        with pytest.raises(SolverFailureError) as err:
            solve_chemical(u, 1.0, 1.0, EllipticConfig(rel_tolerance=1e-300))
        assert err.value.residual > 0.0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("grid", [Grid.line(1.0, 16), Grid.box(1.0, 1.0, 8, 6)],
                         ids=["1d", "2d"])
def test_non_finite_solution_fails_the_residual_check(grid):
    # NaN compares False with any bound, and one inf cell makes the bound
    # inf too; both must be rejected, never accepted
    from chemotaxsim.elliptic import _check_residual
    ones = np.ones(grid.shape)
    one_inf = ones.copy()
    one_inf.flat[3] = np.inf
    for v in (np.full(grid.shape, np.nan), one_inf):
        with pytest.raises(SolverFailureError):
            _check_residual(grid, 1.0, ones, v, 1e-10)
    with pytest.raises(SolverFailureError):  # nu*u overflows to inf
        solve_chemical(ScalarField.full(grid, 10.0), 1.0, 1e308)


def test_random_source_meets_residual_test_at_fine_resolution():
    # a test relative to ||b|| alone failed here: ||A|| ~ 4/h^2 scales the
    # roundoff of any float64 solve
    gen = np.random.Generator(np.random.Philox(key=41))
    for grid in (Grid.line(1.0, 2048), Grid.box(1.0, 1.0, 256, 256)):
        u = ScalarField(grid, gen.uniform(0.0, 1.0, grid.shape))
        v = solve_chemical(u, 1.0, 1.0)
        assert integrate(v) == pytest.approx(integrate(u), rel=1e-9)


def test_parameter_validation():
    grid = Grid.line(1.0, 16)
    u = ScalarField.full(grid, 1.0)
    with pytest.raises(ParameterError):
        solve_chemical(u, mu=0.0, nu=1.0)
    with pytest.raises(ParameterError):
        solve_chemical(u, mu=1.0, nu=-1.0)
    with pytest.raises(ParameterError):
        EllipticConfig(rel_tolerance=1e-3)
    solve_chemical(u, 1.0, 1.0, EllipticConfig(rel_tolerance=1e-4))


@pytest.mark.parametrize("grid", [Grid.line(1.0, 2), Grid.line(1.0, 7),
                                  Grid.box(1.0, 1.0, 2, 2), Grid.box(1.5, 1.0, 7, 5),
                                  Grid((1.5, 1.0, 0.7), (3, 4, 5))],
                         ids=["line2", "line7", "box2x2", "box7x5", "box3x4x5"])
def test_solve_matches_dense_solve(grid):
    mu = 1.3
    dense = np.column_stack([apply_operator(grid, mu, e.reshape(grid.shape)).ravel()
                             for e in np.eye(grid.num_cells)])
    gen = np.random.Generator(np.random.Philox(key=43))
    u = ScalarField(grid, gen.uniform(0.1, 1.0, grid.shape))
    expected = np.linalg.solve(dense, 2.0 * u.values.ravel()).reshape(grid.shape)
    v = solve_chemical(u, mu, 2.0).values
    assert np.abs(v - expected).max() <= 1e-12 * np.abs(expected).max()


def test_operator_matches_dense_matrix_1d():
    grid = Grid.line(1.0, 6)
    mu = 1.7
    h2 = grid.spacing[0] ** 2
    dense = np.zeros((6, 6))
    for i in range(6):
        neighbors = [j for j in (i - 1, i + 1) if 0 <= j < 6]
        dense[i, i] = mu + len(neighbors) / h2
        for j in neighbors:
            dense[i, j] = -1.0 / h2
    gen = np.random.Generator(np.random.Philox(key=37))
    v = gen.normal(size=6)
    assert np.allclose(apply_operator(grid, mu, v.copy()), dense @ v, atol=1e-10)


def test_operator_shares_the_stepper_diffusion_stencil():
    # the elliptic operator at mu=0 is minus the divergence of the face
    # gradients that the stepper's diffusive flux uses
    gen = np.random.Generator(np.random.Philox(key=61))
    for grid in (Grid.box(1.5, 1.0, 7, 5), Grid((1.5, 1.0, 0.7), (3, 4, 5))):
        v = ScalarField(grid, gen.normal(size=grid.shape))
        expected = -divergence(grid, face_gradient(v))
        got = apply_operator(grid, 0.0, v.values)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
