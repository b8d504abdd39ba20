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
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .mesh import ScalarField, cell_gradient_sq, integrate, require_finite

DEGENERACY_FLOOR = 1e-300
MASS_BOUND_SLACK = 1e-8
HOLDER_SLACK = 1e-12


def lp_norm(f: ScalarField, p: float) -> float:
    """(int f^p)^(1/p); p finite and >= 1, possibly non-integer, f >= 0."""
    return _lp_norm(f, p, None)


def _lp_norm(f: ScalarField, p: float, lo: float | None) -> float:
    # lo: the minimum of an f known to be finite, or None to check f here
    if not 1.0 <= p < math.inf:
        raise ParameterError(f"lp_norm needs a finite p >= 1, got {p}")
    if (_finite_min(f) if lo is None else lo) < 0.0:
        raise ParameterError("lp_norm needs a nonnegative field")
    return float((f.values ** p).sum() * f.grid.cell_volume) ** (1.0 / p)


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
    # lo: as for _lp_norm
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


@dataclass(slots=True)
class DiagnosticsRecord:
    t: float
    mass: float
    min_u: float
    max_u: float
    min_v: float
    max_v: float
    rayleigh: float
    log_mass: float
    v_ratio: float
    lp_norms: dict[float, float] = field(default_factory=dict)
    neg_powers: dict[float, float] = field(default_factory=dict)
    grad_ratio: float | None = None


def compute_record(u: ScalarField, v: ScalarField, t: float,
                   p_list: tuple[float, ...] = (),
                   neg_p_list: tuple[float, ...] = (),
                   grad_p: float | None = None) -> DiagnosticsRecord:
    # one finiteness check per field (the mass's of u, the Rayleigh gradient's
    # of v) and one min; each column equals and raises as its functional does
    mass = integrate(u)
    lo_u, lo_v, hi_v = u.min(), v.min(), v.max()
    return DiagnosticsRecord(
        t=t,
        mass=mass,
        min_u=lo_u,
        max_u=u.max(),
        min_v=lo_v,
        max_v=hi_v,
        rayleigh=_rayleigh(v, lo_v, hi_v),
        log_mass=_log_mass(u, lo_u),
        v_ratio=lo_v / mass if mass > 0 else math.inf,
        lp_norms={p: _lp_norm(u, p, lo_u) for p in p_list},
        neg_powers={p: _neg_power(u, p, lo_u) for p in neg_p_list},
        grad_ratio=grad_ratio(u, v, grad_p) if grad_p is not None else None,
    )


# diagnostics.csv's leading columns: DiagnosticsRecord's first fields, in order
COLUMNS = ("t", "mass", "min_u", "max_u", "min_v", "max_v", "rayleigh", "log_mass", "v_ratio")


def csv_header(p_list: tuple[float, ...] = (), neg_p_list: tuple[float, ...] = (),
               grad_p: float | None = None) -> str:
    cols = list(COLUMNS)
    cols += [f"lp_{p:g}" for p in p_list]
    cols += [f"negpow_{p:g}" for p in neg_p_list]
    if grad_p is not None:
        cols.append(f"grad_ratio_{grad_p:g}")
    return ",".join(cols)


class RecordSeries(Sequence):
    """A run's records as one ``array("d")`` of rows in diagnostics.csv's column
    order, 8 bytes a value.  Indexing rebuilds DiagnosticsRecords equal to the
    appended ones bit for bit, with ``grad_ratio`` None exactly when ``grad_p`` is."""

    def __init__(self, p_list: tuple[float, ...], neg_p_list: tuple[float, ...],
                 grad_p: float | None):
        self.p_list, self.neg_p_list, self.grad_p = p_list, neg_p_list, grad_p
        self.width = len(COLUMNS) + len(p_list) + len(neg_p_list) + (grad_p is not None)
        self._rows = array("d")

    def append(self, rec: DiagnosticsRecord) -> None:
        vals = [getattr(rec, name) for name in COLUMNS]
        vals += [rec.lp_norms[p] for p in self.p_list]
        vals += [rec.neg_powers[p] for p in self.neg_p_list]
        if self.grad_p is not None:
            vals.append(rec.grad_ratio)
        self._rows.extend(vals)

    def __len__(self) -> int:
        return len(self._rows) // self.width

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]  # negative indices from the end; IndexError past either end
        vals = self._rows[i * self.width:(i + 1) * self.width].tolist()
        neg = len(COLUMNS) + len(self.p_list)
        return DiagnosticsRecord(*vals[:len(COLUMNS)], dict(zip(self.p_list, vals[len(COLUMNS):])),
                                 dict(zip(self.neg_p_list, vals[neg:])),
                                 vals[-1] if self.grad_p is not None else None)

    def column(self, name: str) -> array:
        """One of COLUMNS, or ``"grad_ratio"`` when the series has a grad_p."""
        grad = name == "grad_ratio" and self.grad_p is not None
        return self._rows[self.width - 1 if grad else COLUMNS.index(name)::self.width]

    def write_csv(self, fh) -> None:
        """diagnostics.csv row by row: csv_header, then each row's values as "%.17g" text."""
        fh.write(csv_header(self.p_list, self.neg_p_list, self.grad_p) + "\n")
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
