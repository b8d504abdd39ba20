import math
from fractions import Fraction

import numpy as np
import pytest

from chemotaxsim import regimes
from chemotaxsim.checks import regime_trial_battery
from chemotaxsim.errors import (InfeasiblePlanError, ParameterError,
                                ThresholdNotMetError)
from chemotaxsim.regimes import (beta_window, boundedness_threshold,
                                 build_plan, lp_parameter_plan, p_star_lower,
                                 p_star_upper, quadratic, select_lp_exponent,
                                 threshold, _select_eps)


# --- threshold ----------------------------------------------------------------

def test_threshold_branch_values():
    assert threshold(2.0, 1.0) == 1.0          # both branches agree
    assert threshold(3.0, 1.0) == 2.0
    assert threshold(0.0, 1.0) == 0.0
    assert threshold(1.0, 2.0) == 0.5
    assert boundedness_threshold(0.0, 1.0, 1e-6).satisfied


def test_threshold_continuity_at_branch_point():
    for mu in (0.5, 1.0, 7.0):
        for delta in (1e-3, 1e-6, 1e-9):
            gap = abs(threshold(2.0 - delta, mu) - threshold(2.0 + delta, mu))
            assert gap <= 3.0 * mu * delta


def test_threshold_validation():
    with pytest.raises(ParameterError):
        threshold(-1.0, 1.0)
    with pytest.raises(ParameterError):
        threshold(1.0, 0.0)
    # a NaN or inf scalar would make the verdict or window NaN
    for mu in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            threshold(1.0, mu)
    for a_inf in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            boundedness_threshold(3.0, 1.0, a_inf)
    for R in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            beta_window(3.0, 1.0, R)


# --- beta window ---------------------------------------------------------------

def test_beta_window_chi3_example():
    win = beta_window(3.0, 1.0, 2.5)
    assert win.beta_minus == pytest.approx(1.0 - 2.0 * math.sqrt(0.5), rel=1e-12)
    assert win.beta_plus == pytest.approx(1.0 + 2.0 * math.sqrt(0.5), rel=1e-12)
    lo, hi = win.window
    assert lo == 0.0
    assert 0.0 < win.chosen_beta < hi
    assert win.chosen_beta != 3.0


def test_beta_window_chi1_example():
    win = beta_window(1.0, 1.0, 0.5)   # threshold is 0.25
    assert win.beta_plus == pytest.approx(-1.0 + 2.0 * math.sqrt(0.5), rel=1e-12)
    assert win.beta_plus > 0.0


def test_beta_window_equivalence_chain():
    win = beta_window(3.0, 1.0, 2.5)
    beta, p = win.chosen_beta, win.p_hat
    assert quadratic(3.0, 1.0, 2.5, beta) < 0.0
    assert (p + 1.0) * beta * 1.0 / p - 2.5 < 0.0
    assert p == pytest.approx(4.0 * beta / (3.0 - beta) ** 2)


@pytest.mark.parametrize("chi, mu, R", [(2.0, 1.0, 5.0), (1.0, 1.0, 2.25), (0.5, 2.0, 2.125),
                                       (1.5, 0.5, 1.78125)])
def test_beta_window_moves_a_midpoint_off_chi(chi, mu, R):
    # at R = mu*(chi^2/4 + 2*chi) the window's midpoint is chi, where
    # p = 4*beta/(chi-beta)^2 divides by zero
    win = beta_window(chi, mu, R)
    lo, hi = win.window
    assert 0.5 * (lo + hi) == chi
    assert lo < win.chosen_beta < hi and win.chosen_beta != chi
    assert quadratic(chi, mu, R, win.chosen_beta) < 0.0
    assert math.isfinite(win.p_hat)
    # lo = 0, so the nudge is the fraction ROOT_NUDGE of beta_plus
    assert win.chosen_beta == chi + regimes.ROOT_NUDGE * hi
    assert win.p_hat == 4.0 * win.chosen_beta / (chi - win.chosen_beta) ** 2


def exact_quadratic(chi, mu, R, beta):
    """quadratic() in exact rational arithmetic: its float terms cancel at large chi."""
    chi, mu, R, beta = map(Fraction, (chi, mu, R, beta))
    return mu * beta * beta + 2 * mu * (2 - chi) * beta + mu * chi * chi - 4 * R


@pytest.mark.parametrize("chi, mu, R", [(1e12, 1.0, 1e12), (1e10, 1.0, 1e10)])
def test_beta_window_keeps_a_large_chi_beta_inside_its_window(chi, mu, R):
    # the window (chi - 4, chi) is narrower than a nudge relative to beta_plus,
    # which stepped below its lower end
    win = beta_window(chi, mu, R)
    lo, hi = win.window
    assert (lo, hi) == (chi - 4.0, chi)
    assert lo < win.chosen_beta < hi and win.chosen_beta != chi
    assert exact_quadratic(chi, mu, R, win.chosen_beta) < 0
    assert math.isfinite(win.p_hat)


def test_beta_window_without_a_float_beside_chi_raises():
    # at chi = 1e17 the floats are 16 apart: the window (chi - 16, chi + 16)
    # holds no float but chi, where p divides by zero
    with pytest.raises(ThresholdNotMetError, match=r"^no float beta != chi=1e\+17 in \("):
        beta_window(1e17, 1.0, 1e17 + 32.0)


def test_beta_window_requires_rate_above_threshold():
    with pytest.raises(ThresholdNotMetError):
        beta_window(2.0, 1.0, 1.0)     # equality is not enough
    with pytest.raises(ThresholdNotMetError):
        beta_window(3.0, 1.0, 1.5)


def test_beta_roots_are_exact():
    gen = np.random.Generator(np.random.Philox(key=83))
    for _ in range(1000):
        chi = float(gen.uniform(0.05, 8.0))
        mu = float(10.0 ** gen.uniform(-2.0, 2.0))
        R = threshold(chi, mu) + float(10.0 ** gen.uniform(-6.0, 1.0)) * mu
        win = beta_window(chi, mu, R)
        scale = mu * chi * chi + 4.0 * R
        assert abs(quadratic(chi, mu, R, win.beta_minus)) <= 1e-9 * scale
        assert abs(quadratic(chi, mu, R, win.beta_plus)) <= 1e-9 * scale


def test_regime_trial_battery_clean():
    report = regime_trial_battery(2000, seed=99)
    assert report["violations"] == 0
    assert report["worst_root_residual"] <= 1e-9


# --- exponent plan -------------------------------------------------------------

def test_lp_plan_rejects_degenerate_inputs():
    with pytest.raises(ParameterError):
        lp_parameter_plan(1.0, 0.5, 1e-3)
    with pytest.raises(ParameterError):
        lp_parameter_plan(2.0, 0.5, 1e-3)
    with pytest.raises(ParameterError):
        lp_parameter_plan(1.5, 0.0, 1e-3)
    for gap in (0.0, math.inf):
        with pytest.raises(ParameterError):
            lp_parameter_plan(1.5, 0.5, gap)


def _window(c, h_frac, gap):
    """Window endpoints of lp_parameter_plan's attempt at alpha_gap=gap."""
    alpha = 1.0 / c - gap
    lam = 1.0 - c * alpha
    h_lo = 0.5 - (lam * lam + lam) / (1.0 - lam)
    h = h_lo + h_frac * (0.5 - h_lo)
    return p_star_lower(c, h, alpha, lam), p_star_upper(c, h, alpha, lam)


def test_lp_plan_window_never_opens_with_coupled_h():
    """The construction couples h to its lam-dependent interval; then the
    window floor term (3c-2)/(2-2c*alpha) always meets the ceiling, so the
    plan must report infeasibility with the first attempt's endpoints
    attached, not those of the last shrink, where lam = 1 - c*alpha is
    rounding noise."""
    with pytest.raises(InfeasiblePlanError) as err:
        lp_parameter_plan(1.5, 0.9, 1e-3)
    assert (err.value.p_star, err.value.p_star_upper) == _window(1.5, 0.9, 1e-3)
    assert err.value.p_star > err.value.p_star_upper


def test_lp_plan_shrink_stops_before_lam_is_rounding_noise(monkeypatch):
    # a window that opens only at lam < 1e-12, where 1 - c*alpha keeps about
    # four correct digits, must never be reached
    monkeypatch.setattr(regimes, "p_star_upper",
                        lambda c, h, alpha, lam: math.inf if lam < 1e-12 else 0.0)
    with pytest.raises(InfeasiblePlanError):
        lp_parameter_plan(1.5, 0.9, 1e-3)


@pytest.mark.parametrize("c,h_frac", [(1.2, 0.25), (1.5, 0.5), (1.8, 0.9)])
def test_lp_plan_infeasible_across_grid(c, h_frac):
    with pytest.raises(InfeasiblePlanError):
        lp_parameter_plan(c, h_frac, 1e-2)


def test_select_lp_exponent_reports_infeasibility(monkeypatch):
    with pytest.raises(ParameterError, match="dim must be at least 1"):
        select_lp_exponent(0)
    for dim in (1, 2, 3):
        with pytest.raises(InfeasiblePlanError) as err:
            select_lp_exponent(dim)
        assert math.isfinite(err.value.p_star)
        assert math.isfinite(err.value.p_star_upper)
    # no grid point has an admissible attempt, so every report carries NaN
    # endpoints; the first one is still reported
    def no_attempt(c, h_frac, gap):
        raise InfeasiblePlanError(f"none at c={c}", p_star=math.nan, p_star_upper=math.nan)
    monkeypatch.setattr(regimes, "lp_parameter_plan", no_attempt)
    with pytest.raises(InfeasiblePlanError, match="none at c=1.2"):
        select_lp_exponent(1)


def test_select_lp_exponent_reports_plans_with_false_flags(monkeypatch):
    # every grid point returns a plan but none passes; that is still an
    # infeasibility report, not a bare assertion
    bad = build_plan(1.5, 0.62, 0.2, 0.4, 8.0)
    assert not bad.all_flags
    monkeypatch.setattr(regimes, "lp_parameter_plan", lambda c, h_frac, gap: bad)
    with pytest.raises(InfeasiblePlanError, match="false flags") as err:
        select_lp_exponent(2)
    assert (err.value.p_star, err.value.p_star_upper) == (bad.p_star, bad.p_star_upper)


def test_window_deficit_is_scale_invariant_as_gap_shrinks():
    # with h tied to its interval, p_upper - p_lower tends to a negative
    # constant while both endpoints blow up like 1/lam, so the ratio
    # approaches 1 from below
    c, h_frac = 1.5, 0.9
    ratios = []
    deficits = []
    for gap in (1e-2, 1e-4, 1e-6):
        lo, hi = _window(c, h_frac, gap)
        ratios.append(hi / lo)
        deficits.append(hi - lo)
    assert all(r < 1.0 for r in ratios)
    assert ratios[0] < ratios[1] < ratios[2]
    # deficit converges to c*(1-h_frac) + 1 - 5c/2 - (3c-2)(c-1)/2
    expected = c * (1.0 - h_frac) + 1.0 - 2.5 * c - (3 * c - 2) * (c - 1) / 2.0
    assert deficits[2] == pytest.approx(expected, rel=1e-3)


def test_ceiling_limits_with_fixed_h():
    # with h held fixed below 1/2, the ceiling over each floor term tends to
    # its closed-form limit as alpha -> 1/c
    c, h = 1.5, 0.3
    lim_over_h = (c * (2.0 - h) - 1.0) / h
    lim_over_3c = 2.0 * (c * (2.0 - h) - 1.0) / (3.0 * c - 2.0)
    err_h, err_3c = [], []
    for gap in (1e-2, 1e-4, 1e-6):
        alpha = 1.0 / c - gap
        lam = 1.0 - c * alpha
        f = p_star_upper(c, h, alpha, lam)
        err_h.append(abs(f / (h / lam) - lim_over_h))
        err_3c.append(abs(f / ((3.0 * c - 2.0) / (2.0 - 2.0 * c * alpha)) - lim_over_3c))
    assert err_h[0] > err_h[1] > err_h[2]
    assert err_3c[0] > err_3c[1] > err_3c[2]
    assert lim_over_h > 1.0 and lim_over_3c > 1.0


def test_floor_and_ratio_constraints_conflict_on_open_windows():
    """Pin the structural incompatibility: whenever the exponent window is
    open, the p-floor, the d-ratio inequality and the I3-exponent inequality
    cannot all hold at any p inside the window."""
    gen = np.random.Generator(np.random.Philox(key=89))
    found = 0
    while found < 100:
        c = float(gen.uniform(1.01, 1.99))
        hi_alpha = 1.0 / c - 1e-9
        if hi_alpha <= 0.5001:
            continue
        alpha = float(gen.uniform(0.5001, hi_alpha))
        lam_hi = min(1.0 - alpha, (c - 1.0) / (2.0 * c - 1.0))
        lam = float(gen.uniform(1e-6, lam_hi * 0.999))
        h = float(gen.uniform(1e-6, 0.4999999))
        lo = p_star_lower(c, h, alpha, lam)
        hi = p_star_upper(c, h, alpha, lam)
        if hi <= lo:
            continue
        found += 1
        for frac in (0.01, 0.5, 0.99):
            plan = build_plan(c, alpha, lam, h, lo + frac * (hi - lo))
            assert not (plan.flags["p_above_floor"] and plan.flags["d_ratio"]
                        and plan.flags["i3_exponent"])


def test_build_plan_flags_match_direct_arithmetic():
    c, alpha, lam, h, p = 1.5, 0.62, 0.2, 0.4, 8.0
    plan = build_plan(c, alpha, lam, h, p)
    d = 1.0 / lam - 1.0
    l, r = alpha * p, lam * p - h
    m = (2 * l - p + 2) * c / 2.0
    assert plan.d == d and plan.l == l and plan.r == r and plan.m == m
    assert plan.flags["p_gt_l_r_1"] == (p > l + r + 1)
    assert plan.flags["m_positive"] == (2 * l - p + 2 > 0 and m > 0)
    assert plan.flags["m_ratio"] == (2 * m / (2 - c) < p + 1)
    assert plan.flags["cd_surplus"] == (c * d - c - d > 0)
    assert plan.flags["rd_below"] == (p + 1 - r * d > 0)


def test_eps_selection_gap_limited():
    eps = _select_eps(c=1.5, d=2.0, r=0.3, m=0.5, p=10.0, i3_ratio=9.0)
    assert eps == pytest.approx(1.0)
    # both inequalities strict at the returned eps
    assert 10.0 + 1.0 - eps > max(2 * 0.5 / 0.5, 0.3 * 2.0, 9.0)
    assert 2 * 10.0 + 2.0 - eps > 2.0 * (11.0 - eps) / (11.0 - eps - 0.6)


def test_eps_selection_quadratic_limited():
    d, r, p = 12.0, 0.375, 10.0   # rd = 4.5
    eps = _select_eps(c=1.5, d=d, r=r, m=0.5, p=p, i3_ratio=5.0)
    assert 0.0 < eps < 1.0
    lhs = 2 * p + 2 - eps
    rhs = d * (p + 1 - eps) / (p + 1 - eps - r * d)
    assert lhs > rhs
    # doubling eps crosses the quadratic boundary
    eps2 = 2.0 * eps
    assert 2 * p + 2 - eps2 <= d * (p + 1 - eps2) / (p + 1 - eps2 - r * d) + 1e-9


def test_eps_selection_empty_when_base_ratio_fails():
    assert _select_eps(c=1.5, d=15.0, r=0.3, m=0.5, p=10.0, i3_ratio=5.0) == 0.0
