"""Closed-form parameter algebra: boundedness threshold, auxiliary exponent
window for the negative-power energy estimate, and the L^p exponent plan.

Everything here is exact arithmetic on scalars; no fields or solves.  The
plan construction (`lp_parameter_plan`) verifies every inequality it is
supposed to guarantee by direct evaluation and reports each one as a named
flag, so a returned plan is a checkable certificate rather than an
asymptotic claim.  When the exponent window fails to open the function
raises :class:`InfeasiblePlanError` carrying its first attempt's endpoints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasiblePlanError, ParameterError, ThresholdNotMetError

SHRINK_BUDGET = 60
WINDOW_RTOL = 1e-9
ROOT_NUDGE = 1e-6


def threshold(chi: float, mu: float) -> float:
    """Boundedness threshold on the growth-rate infimum: mu*chi^2/4 for
    chi <= 2, else mu*(chi - 1).  Both branches meet at chi = 2."""
    if chi < 0 or not math.isfinite(chi):
        raise ParameterError(f"chi must be >= 0, got {chi}")
    if not 0 < mu < math.inf:
        raise ParameterError(f"mu must be positive and finite, got {mu}")
    if chi <= 2.0:
        return mu * chi * chi / 4.0
    return mu * (chi - 1.0)


@dataclass(frozen=True)
class ThresholdVerdict:
    chi: float
    mu: float
    a_inf: float
    threshold: float
    satisfied: bool


def boundedness_threshold(chi: float, mu: float, a_inf: float) -> ThresholdVerdict:
    thr = threshold(chi, mu)
    if not math.isfinite(a_inf):
        raise ParameterError(f"a_inf must be finite, got {a_inf}")
    return ThresholdVerdict(chi, mu, a_inf, thr, a_inf > thr)


def quadratic(chi: float, mu: float, R: float, beta: float) -> float:
    """f(beta) = mu*beta^2 + 2*mu*(2-chi)*beta + mu*chi^2 - 4R; negative on
    the open interval between its roots beta_minus, beta_plus."""
    return mu * beta * beta + 2.0 * mu * (2.0 - chi) * beta + mu * chi * chi - 4.0 * R


@dataclass(frozen=True)
class BetaWindow:
    chi: float
    mu: float
    R: float
    beta_minus: float
    beta_plus: float
    chosen_beta: float
    p_hat: float          # p = 4*beta/(chi-beta)^2 at the chosen beta

    @property
    def window(self) -> tuple[float, float]:
        return (max(0.0, self.beta_minus), self.beta_plus)


def beta_window(chi: float, mu: float, R: float) -> BetaWindow:
    """Auxiliary exponent window for rates R above the threshold.

    beta_pm = chi - 2 +- 2*sqrt(R/mu + 1 - chi) are the roots of the
    quadratic; any beta in (max(0, beta_minus), beta_plus) with beta != chi
    works, and the midpoint maximizes margin for the strict inequalities.
    """
    thr = threshold(chi, mu)
    if not math.isfinite(R):
        raise ParameterError(f"R must be finite, got {R}")
    if not (R > thr):
        raise ThresholdNotMetError(
            f"need R > {thr:.6g} (threshold for chi={chi}, mu={mu}), got R={R}")
    disc = R / mu + 1.0 - chi
    if disc <= 0.0:
        raise ThresholdNotMetError(
            f"discriminant {disc:.3e} not positive; R barely above threshold")
    # roots of beta^2 + 2(2-chi)*beta + (chi^2 - 4R/mu): compute the
    # larger-magnitude one directly and the other via Vieta, so neither
    # suffers the (chi-2) +- 2*sqrt(disc) cancellation near the threshold;
    # s > 0 keeps the direct one off zero (beta_minus <= -s, beta_plus >= s)
    half_b = 2.0 - chi
    c0 = chi * chi - 4.0 * R / mu
    s = 2.0 * math.sqrt(disc)
    if half_b >= 0.0:
        beta_minus = -half_b - s
        beta_plus = c0 / beta_minus
    else:
        beta_plus = -half_b + s
        beta_minus = c0 / beta_plus
    lo = max(0.0, beta_minus)
    if not (beta_plus > lo):
        raise ThresholdNotMetError(
            f"empty window ({lo:.6g}, {beta_plus:.6g}) for chi={chi}, mu={mu}, R={R}")
    chosen = 0.5 * (lo + beta_plus)
    if abs(chosen - chi) <= 1e-9 * max(1.0, beta_plus):
        # toward the far end by a fraction of the width, which stays inside, or one float
        far = beta_plus if beta_plus - chi >= chi - lo else lo
        nudged = chosen + math.copysign(ROOT_NUDGE * (beta_plus - lo), far - chosen)
        nudged = nudged if nudged != chosen else math.nextafter(chosen, far)
        chosen = nudged if lo < nudged < beta_plus else chosen
    if not (lo < chosen < beta_plus and chosen != chi):
        raise ThresholdNotMetError(f"no float beta != chi={chi} in ({lo:.17g}, {beta_plus:.17g})")
    e = math.frexp(chi - chosen)[1]  # an exact power-of-two scale, as in diagnostics._rayleigh
    q = 4.0 * chosen / math.ldexp(chi - chosen, -e) ** 2
    p_hat = math.ldexp(q, -2 * e) if math.frexp(q)[1] - 2 * e <= 1024 else math.inf
    return BetaWindow(chi, mu, R, beta_minus, beta_plus, chosen, p_hat)


# --- L^p exponent plan ------------------------------------------------------

def p_star_lower(c: float, h: float, alpha: float, lam: float) -> float:
    """Window floor: max{2, h/lam, (1-h)/(1-alpha-lam), (3c-2)/(2-2c*alpha)}."""
    return max(2.0,
               h / lam,
               (1.0 - h) / (1.0 - alpha - lam),
               (3.0 * c - 2.0) / (2.0 - 2.0 * c * alpha))


def p_star_upper(c: float, h: float, alpha: float, lam: float) -> float:
    """Window ceiling: [c(1-lam)(2-h) - (1-lam+c*lam)] / [1 - c*alpha - lam
    + alpha*c*lam + c*lam^2]."""
    num = c * (1.0 - lam) * (2.0 - h) - (1.0 - lam + c * lam)
    den = 1.0 - c * alpha - lam + alpha * c * lam + c * lam * lam
    return num / den


@dataclass(frozen=True)
class LpPlan:
    c: float
    alpha: float
    lam: float
    h: float
    d: float
    p: float
    l: float
    r: float
    m: float
    eps: float
    p_star: float
    p_star_upper: float
    flags: dict[str, bool]

    @property
    def all_flags(self) -> bool:
        return all(self.flags.values())


def _select_eps(c: float, d: float, r: float, m: float, p: float,
                i3_ratio: float) -> float:
    """Half the largest eps > 0 keeping both eps inequalities strict.

    The gap condition caps eps at p+1-max3; the ratio condition
    (2p+2-eps)(p+1-eps-rd) > d(p+1-eps) is an upward-opening quadratic in
    eps, positive at 0 whenever the base ratio inequality holds, so its
    smaller positive root is the other cap.
    """
    max3 = max(2.0 * m / (2.0 - c), r * d, i3_ratio)
    cap = p + 1.0 - max3
    if cap <= 0.0:
        return 0.0
    A = 2.0 * p + 2.0
    B = p + 1.0 - r * d
    S = A + B - d
    const = A * B - d * (p + 1.0)
    if const <= 0.0:
        return 0.0
    disc = S * S - 4.0 * const
    if disc >= 0.0:
        root = 0.5 * (S - math.sqrt(disc))
        if 0.0 < root < cap:
            cap = root
    return 0.5 * cap


def build_plan(c: float, alpha: float, lam: float, h: float, p: float) -> LpPlan:
    """Assemble the derived quantities and evaluate every inequality flag by
    direct arithmetic (no flag is inferred from another)."""
    d = 1.0 / lam - 1.0
    l = alpha * p
    r = lam * p - h
    m = (2.0 * l - p + 2.0) * c / 2.0
    cd_surplus = c * d - c - d
    i3_ratio = c * d * (p - l - r - 1.0) / cd_surplus if cd_surplus > 0 else math.inf
    eps = _select_eps(c, d, r, m, p, i3_ratio)
    p_star = p_star_lower(c, h, alpha, lam)

    flags = {
        "lambda_window": 0.0 < lam < min(1.0 - alpha, (c - 1.0) / (2.0 * c - 1.0)),
        "p_above_floor": p > p_star,
        "p_gt_l_r_1": p > l + r + 1.0,
        "m_positive": 2.0 * l - p + 2.0 > 0.0 and m > 0.0,
        "m_ratio": 2.0 * m / (2.0 - c) < p + 1.0,
        "cd_surplus": cd_surplus > 0.0,
        "rd_below": p + 1.0 - r * d > 0.0,
        "d_ratio": p + 1.0 - r * d > 0.0
                   and d * (p + 1.0) / (p + 1.0 - r * d) < 2.0 * p + 2.0,
        "i3_exponent": cd_surplus > 0.0 and c * d * (p - l - r - 1.0) / cd_surplus < p + 1.0,
        "eps_gap": eps > 0.0 and p + 1.0 - eps > max(2.0 * m / (2.0 - c), r * d, i3_ratio),
        "eps_ratio": eps > 0.0 and p + 1.0 - eps - r * d > 0.0
                     and 2.0 * p + 2.0 - eps > d * (p + 1.0 - eps) / (p + 1.0 - eps - r * d),
    }
    return LpPlan(c=c, alpha=alpha, lam=lam, h=h, d=d, p=p, l=l, r=r, m=m, eps=eps,
                  p_star=p_star, p_star_upper=p_star_upper(c, h, alpha, lam), flags=flags)


def lp_parameter_plan(c: float, h_frac: float, alpha_gap: float) -> LpPlan:
    """Construct the exponent plan: alpha = 1/c - alpha_gap, lam = 1 - c*alpha,
    h positioned by h_frac inside (1/2 - (lam^2+lam)/(1-lam), 1/2), exponent
    window (p_star, p_star_upper), p at the midpoint, eps half-maximal.

    If the window does not open, alpha_gap is halved (at most SHRINK_BUDGET
    times) until rounding moves lam by more than WINDOW_RTOL relative to
    c*alpha_gap; then an InfeasiblePlanError reports the window endpoints of
    the first admissible attempt.  For this construction the window provably never
    opens: the floor term (3c-2)/(2-2c*alpha) meets the ceiling exactly when
    the ratio inequality constraint on d(p+1)/(p+1-rd) gives out, so the
    infeasibility report is the expected outcome (see tests/test_regimes.py).
    No other choice of (alpha, lam, h, p) does better: for c in (1, 2) the
    d_ratio and i3_exponent flags together imply p(2-2c*alpha) < 3c-2, which
    is m_ratio false (see tests/test_acceptance.py, criterion 09).
    """
    if not (1.0 < c < 2.0):
        raise ParameterError(f"c must lie in the open interval (1, 2), got {c}")
    if not (0.0 < h_frac < 1.0):
        raise ParameterError(f"h_frac must lie in (0, 1), got {h_frac}")
    if not (0.0 < alpha_gap < math.inf):
        raise ParameterError(f"alpha_gap must be positive and finite, got {alpha_gap}")

    gap = alpha_gap
    first: tuple[float, float] | None = None
    for shrink in range(SHRINK_BUDGET + 1):
        alpha = 1.0 / c - gap
        lam = 1.0 - c * alpha
        # past this point the endpoints, which scale like 1/lam, are noise
        if not abs(lam - c * gap) <= WINDOW_RTOL * c * gap:
            break
        admissible = (alpha > 0.5 and 0.0 < lam < min(1.0 - alpha, (c - 1.0) / (2.0 * c - 1.0)))
        if admissible:
            h_lo = 0.5 - (lam * lam + lam) / (1.0 - lam)
            h = h_lo + h_frac * (0.5 - h_lo)
            lo = p_star_lower(c, h, alpha, lam)
            hi = p_star_upper(c, h, alpha, lam)
            if first is None:
                first = (lo, hi)
            # relative margin keeps ulp noise at large 1/lam scales from
            # opening a spurious window
            if hi - lo > WINDOW_RTOL * abs(lo):
                return build_plan(c, alpha, lam, h, 0.5 * (lo + hi))
        gap *= 0.5
    p_star, p_upper = first if first is not None else (math.nan, math.nan)
    raise InfeasiblePlanError(
        f"exponent window never opened for c={c}, h_frac={h_frac}: first attempt "
        f"floor {p_star:.6g} vs ceiling {p_upper:.6g}, deficit {p_star - p_upper:.4g}; "
        f"no window after {shrink} halvings of alpha_gap", p_star=p_star, p_star_upper=p_upper)


def select_lp_exponent(dim: int) -> tuple[LpPlan, float]:
    """Search a small (c, h_frac) grid for a plan with p > max(dim, 3).

    Raises InfeasiblePlanError when no grid point yields a plan; the error
    carries the first-attempt window endpoints of the least-infeasible grid
    point.
    """
    if dim < 1:
        raise ParameterError(f"dim must be at least 1, got {dim}")
    target = float(max(dim, 3))
    best_err: InfeasiblePlanError | None = None
    best_deficit = math.inf
    for c in (1.2, 1.5, 1.8):
        for h_frac in (0.25, 0.5, 0.9):
            try:
                plan = lp_parameter_plan(c, h_frac, 1e-2)
            except InfeasiblePlanError as err:
                deficit = err.p_star - err.p_star_upper
                rel = deficit / max(abs(err.p_star), 1.0)
                # NaN endpoints (no admissible attempt) rank last
                if best_err is None or rel < best_deficit:
                    best_deficit = math.inf if math.isnan(rel) else rel
                    best_err = err
                continue
            if plan.all_flags and plan.p > target:
                return plan, plan.p
    if best_err is None:
        # every grid point returned a plan, each with a false flag or p too low
        false_flags = sorted(k for k, ok in plan.flags.items() if not ok)
        raise InfeasiblePlanError(
            f"no (c, h_frac) grid point produced a usable plan with p > {target:g}: "
            f"last plan c={plan.c:g}, p={plan.p:.6g}, false flags {false_flags}",
            p_star=plan.p_star, p_star_upper=plan.p_star_upper)
    raise InfeasiblePlanError(
        f"no (c, h_frac) grid point produced a usable plan with p > {target:g}: "
        f"{best_err}", p_star=best_err.p_star, p_star_upper=best_err.p_star_upper)
