import math
import warnings

import numpy as np
import pytest
from scipy.linalg.blas import dgbmv, dnrm2

from chemotaxsim import elliptic
from chemotaxsim.checks import mean_identity_defect, mms_error
from chemotaxsim.elliptic import EllipticConfig, apply_operator, solve_chemical
from chemotaxsim.errors import CorruptFieldError, ParameterError, SolverFailureError
from chemotaxsim.mesh import (Grid, ScalarField, divergence, face_gradient,
                              integrate)


def residual(grid, mu, b, v):
    """b - A v formed as the solve forms it, with its cached ||A||_inf: by
    the band on a line of three or more cells, else by the stencil."""
    if grid.dim == 1 and grid.num_cells > 2:
        _, band, a_norm = elliptic._tridiag_factors(grid, mu)
        return dgbmv(b.size, b.size, 1, 1, -1.0, band, v, beta=1.0, y=b), a_norm
    return (b - apply_operator(grid, mu, v)).ravel(), elliptic._cosine_basis(grid, mu)[2]


def test_constant_source_gives_constant_solution():
    grid = Grid.line(1.0, 64)
    v = solve_chemical(ScalarField.full(grid, 3.0), mu=2.0, nu=4.0)
    assert np.allclose(v.values, 6.0, rtol=1e-10)


def test_manufactured_solution_second_order_1d():
    ratio = mms_error(Grid.line(1.0, 128)) / mms_error(Grid.line(1.0, 256))
    assert 3.4 <= ratio <= 4.6


def test_manufactured_solution_second_order_2d():
    # and in 3D, where the same cosine-basis solve runs with no code of its own
    for dim, n in ((2, 48), (3, 16)):
        coarse, fine = (Grid((1.0,) * dim, (m,) * dim) for m in (n, 2 * n))
        ratio = mms_error(coarse) / mms_error(fine)
        assert 3.4 <= ratio <= 4.6


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mean_identity_random_sources(dim):
    grid = {1: Grid.line(1.0, 200), 2: Grid.box(1.0, 1.0, 24, 24), 3: Grid((1.0,) * 3, (8,) * 3)}[dim]
    worst, min_v = mean_identity_defect(grid, 10, 17, (0.0, 1.0))
    assert worst <= 1e-9
    assert min_v > 0.0


def test_positivity_for_spiky_source():
    # the cosine-basis solve has no discrete maximum principle of its own; a
    # corner spike with strong screening puts min v (about 1e-6 at the far
    # corner in 2D, 4e-7 in 3D) closest to roundoff
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
        with pytest.raises(SolverFailureError, match="above tolerance$") as err:
            solve_chemical(u, 1.0, 1.0, EllipticConfig(rel_tolerance=1e-300))
        # "elliptic solve residual <residual> above tolerance"
        assert float(str(err.value).split()[3]) > 0.0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("grid", [Grid.line(1.0, 16), Grid.box(1.0, 1.0, 8, 6)],
                         ids=["1d", "2d"])
def test_non_finite_solution_fails_the_residual_check(grid):
    # NaN compares False with any bound, and one inf cell makes the bound
    # inf too; both must be rejected, never accepted.  The line forms its
    # residual with its band, as its solve does.
    ones = np.ones(grid.shape)
    one_inf = ones.copy()
    one_inf.flat[3] = np.inf
    for v in (np.full(grid.shape, np.nan), one_inf):
        r, a_norm = residual(grid, 1.0, ones, v)
        with pytest.raises(SolverFailureError):
            elliptic._check_residual(r, dnrm2(ones.ravel()), v, a_norm, 1e-10)
    with pytest.raises(SolverFailureError):  # nu*u overflows to inf
        solve_chemical(ScalarField.full(grid, 10.0), 1.0, 1e308)


@pytest.mark.parametrize("grid", [Grid.line(1.0, 24), Grid.line(1.0, 2), Grid.box(1.0, 1.0, 6, 5)],
                         ids=["lu", "line2", "box"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_source_raises_before_any_solve(grid, bad, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a non-finite source")
    for name in ("_along_axes", "_check_residual", "_tridiag_factors"):
        monkeypatch.setattr(elliptic, name, no_solve)
    for cell in (0, grid.num_cells // 2, grid.num_cells - 1):
        vals = np.ones(grid.shape)
        vals.flat[cell] = bad
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CorruptFieldError,
                               match="^chemical source contains non-finite values$"):
                solve_chemical(ScalarField(grid, vals), 1.0, 2.0)
        assert caught == []


@pytest.mark.parametrize("grid", [Grid.line(1.0, 24), Grid.line(1.0, 2), Grid.box(1.0, 1.0, 6, 5)],
                         ids=["lu", "line2", "box"])
def test_finite_source_whose_norm_overflows_keeps_its_outcome(grid):
    # every entry is finite, but nu*u or ||nu*u|| is not: such a source is
    # solved and then rejected by its residual, and only an overflowing
    # nu*u warns of the product
    x = grid.coordinate_fields()[0]
    cases = {"nu*u overflows": (np.full(grid.shape, 10.0), 1e308),
             "constant": (np.full(grid.shape, 1.5e308), 1.0),
             "cosine": (1.3e308 * (1.0 + 0.3 * np.cos(np.pi * x)), 1.0)}
    for name, (u, nu) in cases.items():
        with np.errstate(over="ignore"):
            assert np.isfinite(u).all() and not math.isfinite(dnrm2(nu * u.ravel()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SolverFailureError, match="^elliptic solve residual is nan$"):
                solve_chemical(ScalarField(grid, u), 1.0, nu)
        overflows = [w for w in caught if str(w.message) == "overflow encountered in multiply"]
        assert len(overflows) == (name == "nu*u overflows"), name


def test_dnrm2_is_not_finite_when_one_entry_is_not():
    # the solve reads its source's finiteness from this norm, and the residual
    # check rejects a non-finite v by it
    for n in range(1, 301):
        for base in (1.0, 1e300):  # BLAS nrm2 scales its sum of squares
            for bad in (math.nan, math.inf, -math.inf):
                x = np.full(n, base)
                for cell in range(n):
                    x[cell] = bad
                    assert not math.isfinite(dnrm2(x)), (n, base, bad, cell)
                    x[cell] = base


def test_random_source_meets_residual_test_at_fine_resolution():
    # a test relative to ||b|| alone failed here: ||A|| ~ 4/h^2 scales the
    # roundoff of any float64 solve
    gen = np.random.Generator(np.random.Philox(key=41))
    for grid in (Grid.line(1.0, 2048), Grid.box(1.0, 1.0, 256, 256)):
        u = ScalarField(grid, gen.uniform(0.0, 1.0, grid.shape))
        v = solve_chemical(u, 1.0, 1.0)
        assert integrate(v) == pytest.approx(integrate(u), rel=1e-9)


@pytest.mark.parametrize("scale", [1e155, 1e160, 1e175])
def test_residual_check_holds_for_sources_whose_squares_overflow(scale):
    # the plain sum of squares of this 24-cell source is inf, so an unscaled
    # ||b|| made the bound inf: at 1e155 a wrong v passed, and at 1e175 the
    # residual's squares overflowed too, so a correct solve was rejected
    grid = Grid.line(1.0, 24)
    profile = 1.0 + 0.5 * np.cos(np.pi * grid.centers(0))
    b = scale * profile
    assert dnrm2(b) == pytest.approx(scale * np.linalg.norm(profile), rel=1e-14)
    v = solve_chemical(ScalarField(grid, b), 1.0, 1.0).values
    unit = solve_chemical(ScalarField(grid, profile), 1.0, 1.0).values
    assert np.allclose(v / scale, unit, rtol=1e-13, atol=0.0)
    bad = v * (1.0 + 1e-5)
    r, a_norm = residual(grid, 1.0, b, bad)
    with pytest.raises(SolverFailureError):
        elliptic._check_residual(r, dnrm2(b), bad, a_norm, 1e-10)


def test_banded_residual_rejects_a_perturbed_solution(monkeypatch):
    # a 256-cell line judges its solve by the cached band's residual alone,
    # bit for bit, and the rule reports it; the stencil never runs.
    # v*(1 + d) leaves the residual d*||b||, which the bound rejects only when
    # ||b||/||v|| > d*||A||_inf = 2.6 here: a smooth source's perturbation is
    # within backward error, so the source is the cosine mode of 8 periods
    stencil_calls, judged = [], []
    monkeypatch.setattr(elliptic, "apply_operator",
                        lambda *args: stencil_calls.append(args) or apply_operator(*args))
    check = elliptic._check_residual
    monkeypatch.setattr(elliptic, "_check_residual",
                        lambda *args: judged.append(args) or check(*args))
    grid = Grid.line(1.0, 256)
    b = np.cos(16.0 * np.pi * grid.centers(0))
    v = solve_chemical(ScalarField(grid, b), 1.0, 1.0).values
    r, a_norm = residual(grid, 1.0, b, v)
    assert [(x.tobytes(), b_norm, a) for x, b_norm, _, a, _ in judged] == [
        (r.tobytes(), dnrm2(b), a_norm)]
    bad = v * (1.0 + 1e-5)
    r = residual(grid, 1.0, b, bad)[0]
    with pytest.raises(SolverFailureError,
                       match=f"^elliptic solve residual {dnrm2(r):.3e} above"):
        check(r, dnrm2(b), bad, a_norm, 1e-10)
    # at 2048 cells the residual exceeds tol*||b||, and the bound's
    # ||A||_inf term accepts it
    fine = Grid.line(1.0, 2048)
    b = 1.0 + np.cos(np.pi * fine.centers(0))
    solve_chemical(ScalarField(fine, b), 1.0, 1.0)
    assert dnrm2(judged[-1][0]) > 1e-10 * dnrm2(b)
    assert stencil_calls == []


def test_line_overflow_is_judged_by_its_band_alone(monkeypatch):
    # nu*u overflows to inf; the band's residual is NaN and rejects v at
    # once, so the only warning is the product's and no stencil runs
    stencil_calls = []
    monkeypatch.setattr(elliptic, "apply_operator",
                        lambda *args: stencil_calls.append(args) or apply_operator(*args))
    u = ScalarField.full(Grid.line(1.0, 16), 10.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverFailureError, match="^elliptic solve residual is nan$"):
            solve_chemical(u, 1.0, 1e308)
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, "overflow encountered in multiply")]
    assert stencil_calls == []


@pytest.mark.parametrize("n", [3, 4, 24, 257])
def test_cached_band_is_the_operator_matrix(n):
    # the LU path's residual applies the factored matrix in band layout, so
    # that matrix must be the stepper's stencil, column by column
    from chemotaxsim.elliptic import _tridiag_factors
    grid = Grid.line(1.0, n)
    mu = 1.3
    _, band, a_norm = _tridiag_factors(grid, mu)
    assert a_norm == mu + 4.0 / grid.spacing[0] ** 2  # ||A||_inf, cached with the band
    eye = np.eye(n)
    banded = np.column_stack([dgbmv(n, n, 1, 1, 1.0, band, e) for e in eye])
    dense = np.column_stack([apply_operator(grid, mu, e) for e in eye])
    assert np.abs(banded - dense).max() <= 4.0 * np.finfo(float).eps * a_norm


def test_parameter_validation():
    grid = Grid.line(1.0, 16)
    u = ScalarField.full(grid, 1.0)
    with pytest.raises(ParameterError):
        solve_chemical(u, mu=0.0, nu=1.0)
    with pytest.raises(ParameterError):
        solve_chemical(u, mu=1.0, nu=-1.0)
    for mu, nu in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ParameterError):
            solve_chemical(u, mu, nu)
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


@pytest.mark.parametrize("grid", [Grid.line(1.0, 2), Grid((1.5, 1.0, 0.7), (3, 4, 5))],
                         ids=["line2", "box3x4x5"])
def test_cosine_modes_are_eigenpairs_of_the_operator(grid):
    # the solve's cached DCT-II matrices are orthonormal (on a 256-cell line
    # too, where cosine phases taken without reduction lose digits), and
    # every separable mode prod_ax cos(pi*k_ax*(j_ax + 1/2)/n_ax), written
    # out here, is an eigenvector of apply_operator with the value
    # mu + laplacian_eigenvalues(grid); ||A||_inf is cached with them
    from chemotaxsim.elliptic import _cosine_basis, laplacian_eigenvalues
    mu = 1.3
    mats, shifted, cached_norm = _cosine_basis(grid, mu)
    for q in mats + _cosine_basis(Grid.line(1.0, 256), mu)[0]:
        assert np.abs(q @ q.T - np.eye(len(q))).max() <= 1e-14
    lam = laplacian_eigenvalues(grid)
    assert lam.shape == grid.shape and np.array_equal(shifted, mu + lam)
    a_norm = mu + sum(4.0 / h ** 2 for h in grid.spacing)
    assert cached_norm == a_norm
    for k in np.ndindex(grid.shape):
        mode = np.ones(())
        for kk, n in zip(k, grid.cells):
            mode = np.multiply.outer(mode, np.cos(np.pi * kk * (np.arange(n) + 0.5) / n))
        defect = apply_operator(grid, mu, mode) - (mu + lam[k]) * mode
        assert np.abs(defect).max() <= 1e-14 * a_norm * np.abs(mode).max()


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
