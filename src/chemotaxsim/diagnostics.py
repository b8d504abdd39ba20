"""Functionals monitored along a run and the inequality checks on them.

Every check is an inequality with an explicit tolerance.  Analytic slack is
zero; discretization slack is grid dependent and stated where it applies
(the Rayleigh bound uses 5% at 256 cells).  Cells below DEGENERACY_FLOOR
are treated as degeneracy evidence: the log/negative-power functionals then
return -inf/+inf flags instead of raising.
"""
from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ParameterError
from .mesh import ScalarField, cell_gradient_sq, integrate, require_finite

DEGENERACY_FLOOR = 1e-300
MASS_BOUND_SLACK = 1e-8
HOLDER_SLACK = 1e-12


def lp_norm(f: ScalarField, p: float) -> float:
    """(int f^p)^(1/p); p finite and >= 1, possibly non-integer, f >= 0."""
    return _lp_norm(f, p, None, None)


def _lp_norm(f: ScalarField, p: float, lo: float | None, hi: float | None) -> float:
    # lo, hi: the extrema of an f known to be finite, or None to check f here
    if not 1.0 <= p < math.inf:
        raise ParameterError(f"lp_norm needs a finite p >= 1, got {p}")
    lo, hi = (_finite_min(f), f.max()) if lo is None else (lo, hi)
    if lo < 0.0:
        raise ParameterError("lp_norm needs a nonnegative field")
    # unless max(f)^p, summed over up to 2^60 cells, stays normal, f is scaled
    # exactly by a power of two first, as in _rayleigh
    e = math.frexp(hi)[1]
    if -960.0 < e * p < 960.0:
        return float((f.values ** p).sum() * f.grid.cell_volume) ** (1.0 / p)
    scaled = float((np.ldexp(f.values, -e) ** p).sum() * f.grid.cell_volume) ** (1.0 / p)
    return float(np.ldexp(scaled, e))


def _finite_min(f: ScalarField) -> float:
    require_finite(f)
    return f.min()


def rayleigh(v: ScalarField) -> float:
    """The Rayleigh-type monitor int |grad v|^2 / v^2; v > 0."""
    return _rayleigh(v, v.min(), v.max())


def _rayleigh(v: ScalarField, lo: float, hi: float) -> float:
    # lo, hi: the extrema of v; lo's sign is checked before v's finiteness.  v is
    # scaled exactly by a power of two first, so no square overflows at any nu
    if lo <= 0.0:
        raise ParameterError("rayleigh needs a positive field")
    v = ScalarField(v.grid, np.ldexp(v.values, -math.frexp(hi)[1]))
    vals = cell_gradient_sq(v).values / v.values ** 2.0
    return float(vals.sum() * v.grid.cell_volume)


def log_mass(u: ScalarField) -> float:
    """int ln(u); returns -inf as a degeneracy flag when a cell underflows."""
    return _log_mass(u, _finite_min(u))


def _log_mass(u: ScalarField, lo: float) -> float:
    if lo < DEGENERACY_FLOOR:
        return -math.inf
    return float(np.log(u.values).sum() * u.grid.cell_volume)


def neg_power(u: ScalarField, p: float) -> float:
    """int u^(-p); returns +inf as a degeneracy flag when a cell underflows.

    Large p on small densities can saturate double range; the value then
    honestly reports inf rather than warning.
    """
    return _neg_power(u, p, None)


def _neg_power(u: ScalarField, p: float, lo: float | None) -> float:
    # lo: the minimum of a u known to be finite, or None to check u here
    if not 0.0 < p < math.inf:
        raise ParameterError(f"neg_power needs a finite p > 0, got {p}")
    if (_finite_min(u) if lo is None else lo) < DEGENERACY_FLOOR:
        return math.inf
    with np.errstate(over="ignore"):
        return float((u.values ** -p).sum() * u.grid.cell_volume)


def grad_ratio(u: ScalarField, v: ScalarField, p: float) -> float:
    """||grad v||_{L^q} / ||u||_{L^p} with q = n*p/(n-p), defined for p < dim."""
    dim = u.grid.dim
    if not (1.0 < p < dim):
        raise ParameterError(f"grad_ratio needs 1 < p < dim={dim}, got {p}")
    q = dim * p / (dim - p)
    grad_mag = ScalarField(v.grid, np.sqrt(cell_gradient_sq(v).values))
    return lp_norm(grad_mag, q) / lp_norm(u, p)


def m_star(u0_mass: float, a_sup: float, b_inf: float, measure: float) -> float:
    """A-priori ceiling for the total mass: max of the initial mass and the
    logistic equilibrium mass (a_sup/b_inf)*|Omega|.

    Degenerate coefficients: with a_sup = b_inf = 0 transport conserves mass
    exactly, so the ceiling is the initial mass; growth without damping has
    no a-priori ceiling.
    """
    if b_inf > 0.0:
        return max(u0_mass, a_sup / b_inf * measure)
    return u0_mass if a_sup == 0.0 else math.inf


# diagnostics.csv's leading columns, in order
COLUMNS = ("t", "mass", "min_u", "max_u", "min_v", "max_v", "rayleigh", "log_mass", "v_ratio")


def compute_record(u: ScalarField, v: ScalarField, t: float,
                   p_list: tuple[float, ...] = (),
                   neg_p_list: tuple[float, ...] = (),
                   grad_p: float | None = None) -> list[float]:
    """diagnostics.csv's row at time t: COLUMNS, then the L^p norms, the
    negative powers and any grad_ratio, as Python floats."""
    # one finiteness check per field (the mass's of u, the Rayleigh gradient's
    # of v) and one min; each column equals and raises as its functional does
    mass = integrate(u)
    lo_u, hi_u, lo_v, hi_v = u.min(), u.max(), v.min(), v.max()
    row = [t, mass, lo_u, hi_u, lo_v, hi_v, _rayleigh(v, lo_v, hi_v), _log_mass(u, lo_u),
           lo_v / mass if mass > 0 else math.inf]
    row += [_lp_norm(u, p, lo_u, hi_u) for p in p_list]
    row += [_neg_power(u, p, lo_u) for p in neg_p_list]
    if grad_p is not None:
        row.append(grad_ratio(u, v, grad_p))
    return row


class RecordSeries(Sequence):
    """A run's rows, as compute_record gives them, in one ``array("d")``, 8
    bytes a value.  ``names`` is diagnostics.csv's header: COLUMNS, then
    ``lp_{p:g}``, ``negpow_{p:g}`` and any ``grad_ratio_{p:g}``; a repeated
    name is a ValueError.  Indexing returns a row whose attributes are the
    header names (``getattr(row, "lp_3.5")``)."""

    def __init__(self, p_list: tuple[float, ...], neg_p_list: tuple[float, ...],
                 grad_p: float | None):
        self.names = (*COLUMNS, *[f"lp_{p:g}" for p in p_list],
                      *[f"negpow_{p:g}" for p in neg_p_list],
                      *([f"grad_ratio_{grad_p:g}"] if grad_p is not None else []))
        if len(set(self.names)) < len(self.names):
            raise ValueError(f"repeated column names in {self.names}")
        self.width = len(self.names)
        self._rows = array("d")

    def append(self, row: list[float]) -> None:
        if len(row) != self.width:
            raise ValueError(f"a row of {len(row)} values for {self.width} columns")
        self._rows.extend(row)

    def __len__(self) -> int:
        return len(self._rows) // self.width

    def __getitem__(self, i: int) -> SimpleNamespace:
        i = range(len(self))[i]  # negative indices from the end; IndexError past either end
        row = self._rows[i * self.width:(i + 1) * self.width]
        return SimpleNamespace(**dict(zip(self.names, row)))

    def column(self, name: str) -> array:
        """The column headed ``name``, one of ``names``."""
        return self._rows[self.names.index(name)::self.width]

    def write_csv(self, fh) -> None:
        """diagnostics.csv row by row: ``names``, then each row's values as "%.17g" text."""
        fh.write(",".join(self.names) + "\n")
        for start in range(0, len(self._rows), self.width):
            fh.write(",".join(["%.17g" % v for v in self._rows[start:start + self.width]]) + "\n")


@dataclass(frozen=True)
class BoundCheck:
    passed: bool
    value: float
    bound: float


def check_mass_bound(mass: float, m_star_value: float) -> BoundCheck:
    bound = m_star_value * (1.0 + MASS_BOUND_SLACK)
    return BoundCheck(mass <= bound, mass, bound)


@dataclass(frozen=True)
class PersistenceCheck:
    passed: bool
    min_mass: float
    min_min_v: float
    mass_floor: float
    v_floor: float


def check_persistence(mass: Sequence[float], min_v: Sequence[float], mass_floor: float,
                      v_floor: float) -> PersistenceCheck:
    """The mass and min_v columns stay above strictly positive floors."""
    if mass_floor <= 0 or v_floor <= 0:
        raise ParameterError("persistence floors must be positive")
    min_mass = min(mass)
    min_min_v = min(min_v)
    ok = min_mass >= mass_floor and min_min_v >= v_floor
    return PersistenceCheck(ok, min_mass, min_min_v, mass_floor, v_floor)


def trend_floors(mass: Sequence[float], min_v: Sequence[float]) -> tuple[float, float]:
    """Self-referential persistence floors: half the mass and min_v columns'
    minima over their first half, to be enforced on the second half."""
    half = max(1, len(mass) // 2)
    return (0.5 * min(mass[:half]), 0.5 * min(min_v[:half]))


@dataclass(frozen=True)
class HolderCheck:
    lhs: float
    rhs: float
    passed: bool


def reverse_holder_check(f: ScalarField, g: ScalarField, p: float) -> HolderCheck:
    """Reverse Hoelder inequality int(fg) >= (int f^(1/p))^p * (int g^(-1/(p-1)))^(-(p-1)).

    Holds exactly for the discrete quadrature measure, so the only slack
    allowed is roundoff (HOLDER_SLACK, relative).
    """
    if not 1.0 < p < math.inf:
        raise ParameterError(f"reverse Hoelder needs a finite p > 1, got {p}")
    require_finite(f)
    require_finite(g)
    if f.min() < 0.0:
        raise ParameterError("reverse Hoelder needs f >= 0")
    if g.min() <= 0.0:
        raise ParameterError("reverse Hoelder needs g > 0 componentwise")
    vol = f.grid.cell_volume
    lhs = float((f.values * g.values).sum() * vol)
    f_piece = float((f.values ** (1.0 / p)).sum() * vol) ** p
    g_piece = float((g.values ** (-1.0 / (p - 1.0))).sum() * vol) ** (-(p - 1.0))
    rhs = f_piece * g_piece
    return HolderCheck(lhs, rhs, lhs >= rhs * (1.0 - HOLDER_SLACK))
