"""Screened-Poisson solver for the chemical field: (mu*I - Lap) v = nu*u.

The operator uses the mesh module's Neumann closure, so it is symmetric
positive definite for any mu > 0 (no null space, unlike a pure Neumann
Poisson problem).  Both solves are direct, and one residual check judges
either.  Lines of three or more cells go through a cached tridiagonal LU
factorization, and the check forms b - A v there with one BLAS banded
product with the factored matrix, for every line solve, accepted or not.
On every other grid, in any dimension, the mirror-ghost closure makes the
operator exactly diagonal in the grid's own cosine (DCT-II) basis: one
matmul per axis takes the source there, a division by the eigenvalues
solves, and the transposes come back; the check applies the stepper's
stencil, :func:`apply_operator`, there.  Its norms also stand for
finiteness scans: a source whose ||nu*u|| is not finite is scanned before
any solve, and a NaN or inf residual rejects v.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy.linalg import blas, lapack

from .errors import ParameterError, SolverFailureError
from .mesh import Grid, ScalarField, divergence, require_finite


@dataclass(frozen=True)
class EllipticConfig:
    rel_tolerance: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.rel_tolerance <= 1e-4):
            raise ParameterError(f"rel_tolerance must lie in (0, 1e-4], got {self.rel_tolerance}")


DEFAULT_ELLIPTIC = EllipticConfig()


def apply_operator(grid: Grid, mu: float, v: np.ndarray) -> np.ndarray:
    """(mu*I - Lap_h) v with mirror-ghost Neumann closure; Lap_h is the
    divergence of the interior-face gradients, as in the stepper."""
    grads = [(v[hi] - v[lo]) / h for (lo, hi), h in zip(grid.face_slices, grid.spacing)]
    return mu * v - divergence(grid, grads)


@lru_cache(maxsize=32)
def _tridiag_factors(grid: Grid, mu: float):
    """LU factorization of the 1D operator, reused across timesteps, and the
    operator in LAPACK band layout (rows: super-, main and sub-diagonal, each
    entry in its matrix column).  gttrf rejects n=2: it needs three cells."""
    h2 = grid.spacing[0] ** 2
    band = np.empty((3, grid.cells[0]), order="F")
    band[0] = band[2] = -1.0 / h2  # band[0, 0] and band[2, -1] lie outside the matrix
    band[1] = mu + 2.0 / h2
    band[1, [0, -1]] = mu + 1.0 / h2
    dl, d, du, du2, ipiv, info = lapack.dgttrf(band[2, :-1], band[1], band[0, 1:])
    if info != 0:
        raise SolverFailureError(f"tridiagonal factorization failed (info={info})")
    return (dl, d, du, du2, ipiv), band


def laplacian_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of -Lap_h in DCT-II layout: sum_ax (2 - 2cos(pi*k_ax/n_ax))/h_ax^2
    at index k, on the mode prod_ax cos(pi*k_ax*(j_ax + 1/2)/n_ax)."""
    return reduce(np.add.outer, [(2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / h ** 2
                                 for n, h in zip(grid.cells, grid.spacing)])


@lru_cache(maxsize=32)
def _cosine_basis(grid: Grid, mu: float):
    """Per axis the orthonormal DCT-II matrix Q[k, j] = s_k cos(pi*k*(j + 1/2)/n), with
    s_0 = sqrt(1/n), else sqrt(2/n); and the eigenvalues mu + laplacian_eigenvalues."""
    ks = [np.arange(n) for n in grid.cells]  # the phase k*(2j + 1) is taken mod 4n exactly
    mats = [np.sqrt((2.0 - (k == 0)) / k.size)[:, None]
            * np.cos(np.pi / (2 * k.size) * (np.outer(k, 2 * k + 1) % (4 * k.size))) for k in ks]
    return mats, mu + laplacian_eigenvalues(grid)


def _along_axes(x: np.ndarray, mats) -> np.ndarray:
    """x with mats[ax] applied along every axis ax, one matmul per axis."""
    shape = x.shape
    for ax, q in enumerate(mats[:-1]):
        x = q @ x.reshape(math.prod(shape[:ax]), shape[ax], -1)
    return (x.reshape(-1, shape[-1]) @ mats[-1].T).reshape(shape)


def _check_residual(grid: Grid, mu: float, b: np.ndarray, b_norm: float, v: np.ndarray,
                    rel_tol: float, band: np.ndarray | None = None) -> None:
    """Backward-error acceptance ||b - Av|| <= tol*(||A||_inf*||v|| + b_norm).

    The roundoff in any float64 solve is of order eps*||A||*||v||, and
    ||A||_inf = mu + sum_ax 4/h_ax^2 grows like h^-2, so a test relative to
    ||b|| alone becomes unattainable on fine grids; tol*||b|| alone is
    sufficient, and cheaper on the per-step path.  A NaN or inf residual
    (v or the source overflowed) fails before any bound, which could itself
    be inf, so an accepted v is finite.  BLAS nrm2 scales as it sums, so a
    norm of finite entries overflows only when its value does.

    b - A v is one BLAS banded product with a line's ``band`` (see
    :func:`_tridiag_factors`), which judges and reports every line solve,
    and the stepper's stencil on every other grid."""
    if band is None:
        r = (b - apply_operator(grid, mu, v)).ravel()
    else:  # y = b - A v; f2py parses positions faster
        r = blas.dgbmv(b.size, b.size, 1, 1, -1.0, band, v, 1, 0, 1.0, b)
    res = blas.dnrm2(r)
    if not res < math.inf:
        raise SolverFailureError(f"elliptic solve residual is {res}")
    if not (res <= rel_tol * b_norm or res <= rel_tol * (
            (mu + sum(4.0 / h ** 2 for h in grid.spacing)) * blas.dnrm2(v.ravel()) + b_norm)):
        raise SolverFailureError(f"elliptic solve residual {res:.3e} above tolerance")


def solve_chemical(u: ScalarField, mu: float, nu: float,
                   cfg: EllipticConfig = DEFAULT_ELLIPTIC) -> ScalarField:
    """Solve (mu*I - Lap_h) v = nu*u on the grid of ``u``.

    For nonnegative u with positive mass the discrete maximum principle of
    the M-matrix operator makes the exact discrete v strictly positive.  The
    cosine-basis solve keeps that only up to roundoff of order eps*max(v), so
    where v is that small it can come out at or below zero; the stepper's
    v_floor check catches it.  The sign of u is the caller's obligation;
    manufactured-solution tests legitimately pass sign-changing u.  A NaN
    or inf in u raises CorruptFieldError before any solve; u is scanned only
    when ||nu*u||_2, taken for the residual check, is not finite, as BLAS
    nrm2 makes it when any entry is.

    Raises SolverFailureError when the backward-error target
    ||b - A v||_2 <= rel_tolerance * (||A||_inf ||v||_2 + ||b||_2) is not met.
    """
    if not 0 < mu < math.inf:
        raise ParameterError(f"mu must be positive and finite, got {mu}")
    if not 0 < nu < math.inf:
        raise ParameterError(f"nu must be positive and finite, got {nu}")
    grid = u.grid
    b = nu * u.values
    b_norm = blas.dnrm2(b.ravel())
    if not b_norm < math.inf:
        require_finite(u, "chemical source")
    band = None
    if grid.dim == 1 and grid.num_cells > 2:
        lu, band = _tridiag_factors(grid, mu)
        v, info = lapack.dgttrs(*lu, b)
        if info != 0:
            raise SolverFailureError(f"tridiagonal back-substitution failed (info={info})")
    else:  # into the cosine basis, divide by the eigenvalues, back
        mats, lam = _cosine_basis(grid, mu)
        v = _along_axes(_along_axes(b, mats) / lam, [q.T for q in mats])
    _check_residual(grid, mu, b, b_norm, v, cfg.rel_tolerance, band)
    return ScalarField(grid, v)
