"""Screened-Poisson solver for the chemical field: (mu*I - Lap) v = nu*u.

The operator uses the mesh module's Neumann closure, so it is symmetric
positive definite for any mu > 0 (no null space, unlike a pure Neumann
Poisson problem).  Both solves are direct.  Lines of three or more cells go
through a cached tridiagonal LU factorization.  On every other grid, in any
dimension, the mirror-ghost closure makes the operator exactly diagonal in
the cosine basis: mirroring the source along every axis turns it into a
periodic problem on the doubled grid, which one real FFT pair solves.
Either way one residual check accepts the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from .errors import ParameterError, SolverFailureError
from .mesh import Grid, ScalarField, require_finite


@dataclass(frozen=True)
class EllipticConfig:
    rel_tolerance: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.rel_tolerance <= 1e-4):
            raise ParameterError(f"rel_tolerance must lie in (0, 1e-4], got {self.rel_tolerance}")


DEFAULT_ELLIPTIC = EllipticConfig()


def apply_operator(grid: Grid, mu: float, v: np.ndarray) -> np.ndarray:
    """(mu*I - Lap_h) v with mirror-ghost Neumann closure."""
    out = mu * v
    for ax in range(grid.dim):
        lo, hi, _ = grid.face_slices(ax)
        g = (v[hi] - v[lo]) / grid.spacing[ax] ** 2  # interior face gradients / h
        out[lo] -= g
        out[hi] += g
    return out


@lru_cache(maxsize=32)
def _tridiag_factors(grid: Grid, mu: float):
    """LU factorization of the 1D operator, reused across timesteps.  The
    LAPACK gttrf wrapper rejects n=2, so it needs at least three cells."""
    n = grid.cells[0]
    h2 = grid.spacing[0] ** 2
    diag = np.full(n, mu + 2.0 / h2)
    diag[0] = diag[-1] = mu + 1.0 / h2
    off = np.full(n - 1, -1.0 / h2)
    dl, d, du, du2, ipiv, info = lapack.dgttrf(off, diag, off)
    if info != 0:
        raise SolverFailureError(f"tridiagonal factorization failed (info={info})")
    return dl, d, du, du2, ipiv


def _solve_direct_1d(grid: Grid, mu: float, b: np.ndarray) -> np.ndarray:
    x, info = lapack.dgttrs(*_tridiag_factors(grid, mu), b)
    if info != 0:
        raise SolverFailureError(f"tridiagonal back-substitution failed (info={info})")
    return x


@lru_cache(maxsize=32)
def _mirror_eigenvalues(grid: Grid, mu: float) -> np.ndarray:
    """Eigenvalues mu + sum_ax (2 - 2cos(pi*k/n_ax))/h_ax^2 of the operator on
    the mirror-extended grid, laid out like ``numpy.fft.rfftn`` output: 2*n
    frequencies on every axis but the last, which keeps n+1."""
    lam = mu
    for ax, (n, h) in enumerate(zip(grid.cells, grid.spacing)):
        k = np.arange(n + 1 if ax == grid.dim - 1 else 2 * n)
        shape = [1] * grid.dim
        shape[ax] = k.size
        lam = lam + ((2.0 - 2.0 * np.cos(np.pi * k / n)) / h ** 2).reshape(shape)
    return lam


def _solve_fft(grid: Grid, mu: float, b: np.ndarray) -> np.ndarray:
    """Even extension about every boundary face, one periodic solve, crop."""
    ext = b
    for ax in range(grid.dim):
        ext = np.concatenate((ext, np.flip(ext, ax)), axis=ax)
    vhat = np.fft.rfftn(ext) / _mirror_eigenvalues(grid, mu)
    v = np.fft.irfftn(vhat, s=ext.shape, axes=tuple(range(grid.dim)))
    return np.ascontiguousarray(v[tuple(slice(n) for n in grid.cells)])


def _norm2(x: np.ndarray) -> float:
    return math.sqrt(np.vdot(x, x))


def _check_residual(grid: Grid, mu: float, b: np.ndarray, v: np.ndarray,
                    rel_tol: float) -> None:
    """Backward-error acceptance ||b - Av|| <= tol*(||A||_inf*||v|| + ||b||).

    The roundoff in any float64 solve is of order eps*||A||*||v||, and
    ||A||_inf = mu + sum_ax 4/h_ax^2 grows like h^-2, so a test relative to
    ||b|| alone becomes unattainable on fine grids.  A NaN or inf residual
    (v or the source overflowed) fails before any bound, which could itself
    be inf, so an accepted v is finite."""
    res = _norm2(b - apply_operator(grid, mu, v))
    if not res < math.inf:
        raise SolverFailureError(f"elliptic solve residual is {res}", residual=res)
    b_norm = _norm2(b)
    if res <= rel_tol * b_norm:  # sufficient, and cheaper on the per-step path
        return
    a_norm = mu + sum(4.0 / h ** 2 for h in grid.spacing)
    if not res <= rel_tol * (a_norm * _norm2(v) + b_norm):
        raise SolverFailureError(f"elliptic solve residual {res:.3e} above tolerance",
                                 residual=res)


def solve_chemical(u: ScalarField, mu: float, nu: float,
                   cfg: EllipticConfig = DEFAULT_ELLIPTIC) -> ScalarField:
    """Solve (mu*I - Lap_h) v = nu*u on the grid of ``u``.

    For nonnegative u with positive mass the discrete maximum principle of
    the M-matrix operator makes the exact discrete v strictly positive.  The
    FFT solve keeps that only up to roundoff of order eps*max(v), so
    where v is that small it can come out at or below zero; the stepper's
    v_floor check catches it.  The sign of u is the caller's obligation;
    manufactured-solution tests legitimately pass sign-changing u.

    Raises SolverFailureError when the backward-error target
    ||b - A v||_2 <= rel_tolerance * (||A||_inf ||v||_2 + ||b||_2) is not met.
    """
    if mu <= 0:
        raise ParameterError(f"mu must be positive, got {mu}")
    if nu <= 0:
        raise ParameterError(f"nu must be positive, got {nu}")
    require_finite(u, "chemical source")
    grid = u.grid
    b = nu * u.values
    lu = grid.dim == 1 and grid.num_cells > 2
    v = _solve_direct_1d(grid, mu, b) if lu else _solve_fft(grid, mu, b)
    _check_residual(grid, mu, b, v, cfg.rel_tolerance)
    return ScalarField(grid, v)
