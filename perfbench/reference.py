"""Independent 1D reference for the random-IC workload, whose final state
depends on the seed and so cannot be stored as numbers.

It re-implements the scheme the package documents (screened-Poisson solve,
face drift chi*grad(v)/avg(v), CFL-guarded dt, donor-cell flux-form Euler
step, positivity halving) with plain NumPy and a banded solve, sharing no
code with chemotaxsim.  Only constant coefficients are supported, which is
all the workload uses.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded


def final_values(u0: np.ndarray, length: float, chi: float, mu: float,
                 nu: float, a: float, b: float, t_end: float,
                 cfl: float = 0.4) -> dict[str, float]:
    """Final mass, max_u and min_v of the explicit scheme run to ``t_end``.

    ``min_v`` is taken from the chemical field the last step used, which is
    what the run's final diagnostics record reports.
    """
    n = u0.size
    h = length / n
    bands = np.zeros((3, n))
    bands[0, 1:] = bands[2, :-1] = -1.0 / h ** 2
    bands[1, :] = mu + 2.0 / h ** 2
    bands[1, 0] = bands[1, -1] = mu + 1.0 / h ** 2

    u = np.array(u0, dtype=float)
    t = 0.0
    eps_t = 1e-12 * max(1.0, t_end)
    while t_end - t > eps_t:
        v = solve_banded((1, 1), bands, nu * u)
        w = chi * (np.diff(v) / h) / (0.5 * (v[:-1] + v[1:]))
        guards = [h * h / 2.0, 1.0 / (a + 2.0 * b * u.max())]
        if np.abs(w).max() > 0.0:
            guards.append(h / np.abs(w).max())
        dt = min(cfl * min(guards), t_end - t)
        flux = np.diff(u) / h - np.where(w > 0.0, u[:-1], u[1:]) * w
        rhs = np.diff(np.concatenate(([0.0], flux, [0.0]))) / h + u * (a - b * u)
        while True:
            u_new = u + dt * rhs
            if u_new.min() >= 0.0:
                break
            if -u_new.min() <= 1e-14 * u_new.max():
                u_new = np.maximum(u_new, 0.0)
                break
            dt *= 0.5
        u = u_new
        t += dt
    return {"mass": float(u.sum() * h), "max_u": float(u.max()),
            "min_v": float(v.min())}
