"""Acceptance suite: one test per numbered criterion, at desk scale.

Heavy runs live in session fixtures and are shared across criteria.  Every
test registers a PASS/FAIL line (printed in the terminal summary) before
asserting, so the per-criterion outcome is visible either way.

Criterion 9's exponent-plan clause asks for a plan with every build_plan
flag true.  None exists: d_ratio and i3_exponent together contradict
m_ratio for every c in (1, 2) (the derivation is in the test's
docstring).  The criterion line therefore reads FAIL by design, while the
test passes as long as the program's answer is right: a returned plan must
rebuild with every flag true, and an infeasibility report must agree with
build_plan on a grid over the whole admissible domain.
"""
import math
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from chemotaxsim import checks
from chemotaxsim import diagnostics as diag
from chemotaxsim.engine import ICSpec, RunConfig, run, sweep
from chemotaxsim.errors import InfeasiblePlanError
from chemotaxsim.mesh import Grid
from chemotaxsim.regimes import (beta_window, build_plan, select_lp_exponent,
                                 threshold)
from chemotaxsim.stepper import CoefficientSpec, ModelParams

from conftest import record_criterion

GAUSSIAN_IC = ICSpec(kind="gaussian", center=(0.5,), width=0.1,
                     amplitude=1.0, baseline=0.2)


def _crit(name: str, passed: bool, detail: str) -> None:
    record_criterion(name, passed, detail)
    assert passed, f"{name}: {detail}"


def params_for(chi: float, a: float, mu: float = 1.0, b: float = 1.0) -> ModelParams:
    return ModelParams(chi, mu, 1.0, CoefficientSpec.constant(a),
                       CoefficientSpec.constant(b))


# --- session fixtures (the heavy runs) -----------------------------------------

@pytest.fixture(scope="session")
def steady_outcome():
    cfg = RunConfig(grid=Grid.line(1.0, 32), params=params_for(1.0, 1.0),
                    ic=ICSpec(kind="constant", value=1.0), t_end=10.0,
                    diagnostics_every=0.1)
    return cfg, run(cfg)


@pytest.fixture(scope="session")
def logistic_outcome():
    """(relative error at t=5, config, outcome) of the 32-cell logistic run."""
    return checks.logistic_oracle(32)


@pytest.fixture(scope="session")
def existence_sweep(tmp_path_factory):
    """16-cell global-existence probe: chi x a grid, logistic damping on."""
    outdir = tmp_path_factory.mktemp("sweep16")
    template = RunConfig(grid=Grid.line(1.0, 24), params=params_for(1.0, 1.0),
                         ic=GAUSSIAN_IC, t_end=50.0, diagnostics_every=1.0,
                         seed=7)
    t0 = time.perf_counter()
    result = sweep(template, [("chi", [0.5, 1.0, 2.0, 3.0]),
                              ("a_scale", [0.1, 0.5, 1.0, 3.0])],
                   outdir=outdir, workers=2)
    elapsed = time.perf_counter() - t0
    return result, elapsed


@pytest.fixture(scope="session")
def bounded_regime_runs():
    """One run per chi with the growth rate set above twice the threshold."""
    configs = []
    for chi in (0.5, 1.0, 2.0, 3.0):
        a = 2.0 * threshold(chi, 1.0) + 0.1
        configs.append(RunConfig(grid=Grid.line(1.0, 32),
                                 params=params_for(chi, a), ic=GAUSSIAN_IC,
                                 t_end=50.0, diagnostics_every=0.5))
    with ProcessPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(run, configs))
    return list(zip(configs, outcomes))


@pytest.fixture(scope="session")
def rayleigh_pair():
    """Same transient resolved on 128 and 256 cells for the Rayleigh bound."""
    out = {}
    for n in (128, 256):
        cfg = RunConfig(grid=Grid.line(1.0, n), params=params_for(1.0, 1.0),
                        ic=GAUSSIAN_IC, t_end=0.25, diagnostics_every=0.01)
        out[n] = (cfg, run(cfg))
    return out


@pytest.fixture(scope="session")
def all_acceptance_runs(steady_outcome, logistic_outcome, existence_sweep,
                        bounded_regime_runs, rayleigh_pair):
    runs = [steady_outcome, logistic_outcome[1:]]
    runs += list(bounded_regime_runs)
    runs += [rayleigh_pair[128], rayleigh_pair[256]]
    result, _ = existence_sweep
    runs += list(zip(result.cell_configs, result.outcomes))
    return runs


# --- criteria -------------------------------------------------------------------

def test_criterion_01_elliptic_convergence():
    t0 = time.perf_counter()
    ratio = checks.mms_error(Grid.line(1.0, 128)) / checks.mms_error(Grid.line(1.0, 256))
    elapsed = time.perf_counter() - t0
    _crit("criterion 01 elliptic convergence",
          3.4 <= ratio <= 4.6 and elapsed < 1.0,
          f"error ratio {ratio:.3f} (target [3.4, 4.6]), {elapsed:.3f}s")


def test_criterion_02_mean_identity():
    worst, min_v = checks.mean_identity_defect(Grid.line(1.0, 200), 100, 101, (-0.2, 1.0))
    _crit("criterion 02 mean identity",
          worst <= 1e-9 and min_v > 0.0,
          f"worst relative defect {worst:.2e}, min v {min_v:.3e}")


def test_criterion_03_steady_state(steady_outcome):
    _, outcome = steady_outcome
    final = outcome.records[-1]
    dev = max(abs(final.max_u - 1.0), abs(1.0 - final.min_u))
    ok = (dev <= 1e-6 and outcome.verdict == "CompletedBounded"
          and 1.0 - 1e-6 <= outcome.peak_max_u <= 1.0 + 1e-6)
    _crit("criterion 03 steady state",
          ok, f"sup deviation {dev:.2e} at t={final.t:g}, verdict {outcome.verdict}")


def test_criterion_04_logistic_oracle(logistic_outcome):
    rel = logistic_outcome[0]
    _crit("criterion 04 logistic oracle",
          rel <= 1e-4, f"relative error {rel:.2e} at t=5")


def test_criterion_05_mass_ceiling(all_acceptance_runs):
    worst_frac = -math.inf
    checked = 0
    for cfg, outcome in all_acceptance_runs:
        if not outcome.records:
            continue
        mstar = diag.m_star(outcome.records[0].mass, cfg.params.coeff_a.sup,
                            cfg.params.coeff_b.inf, cfg.grid.measure)
        for rec in outcome.records:
            checked += 1
            worst_frac = max(worst_frac, rec.mass / mstar - 1.0)
    _crit("criterion 05 mass ceiling",
          worst_frac <= 1e-8,
          f"worst mass excess {worst_frac:.2e} over {checked} samples "
          f"from {len(all_acceptance_runs)} runs")


def test_criterion_06_rayleigh_bound(rayleigh_pair):
    slack = {}
    for n, (cfg, outcome) in rayleigh_pair.items():
        bound = cfg.params.mu * cfg.grid.measure
        slack[n] = max(max(0.0, rec.rayleigh / bound - 1.0)
                       for rec in outcome.records)
    ok = slack[256] <= 0.05 and slack[256] <= slack[128] + 1e-15
    _crit("criterion 06 rayleigh bound",
          ok, f"needed slack {slack[128]:.2e} (128 cells) -> {slack[256]:.2e} (256 cells)")


def test_criterion_07_global_existence_sweep(existence_sweep):
    result, elapsed = existence_sweep
    triggers = [row for row in result.rows if row["trigger"]]
    ok = len(result.rows) == 16 and not triggers and elapsed < 300.0
    _crit("criterion 07 global existence sweep",
          ok, f"{len(result.rows)} cells, {len(triggers)} triggers, {elapsed:.1f}s")


def test_criterion_08_boundedness_above_threshold(bounded_regime_runs):
    verdicts = {cfg.params.chi: outcome.verdict
                for cfg, outcome in bounded_regime_runs}
    bad = {chi: v for chi, v in verdicts.items() if v != "CompletedBounded"}
    _crit("criterion 08 boundedness above threshold",
          not bad, f"verdicts {verdicts}")


def test_criterion_09_regimes_battery():
    report = checks.regime_trial_battery(10_000, seed=2024)
    ok = report["violations"] == 0 and report["worst_root_residual"] <= 1e-9
    _crit("criterion 09 regimes battery",
          ok, f"{report['violations']} violations in {report['trials']} trials, "
              f"worst root residual {report['worst_root_residual']:.2e}")


def _flag_conflict_probe():
    """Evaluate build_plan on a grid over the admissible domain: c in (1, 2),
    alpha in (0, 1/c), lam inside lambda_window, h in [-1/2, 1] and
    p in [3, 1e6].  Returns the number of points where d_ratio and
    i3_exponent both hold, and the points where m_ratio holds as well."""
    both, all_three = 0, []
    for c in np.linspace(1.05, 1.95, 7).tolist():
        for alpha in (np.linspace(0.05, 0.95, 7) / c).tolist():
            lam_hi = min(1.0 - alpha, (c - 1.0) / (2.0 * c - 1.0))
            for lam in (np.linspace(0.05, 0.95, 6) * lam_hi).tolist():
                for h in np.linspace(-0.5, 1.0, 7).tolist():
                    for p in np.geomspace(3.0, 1e6, 15).tolist():
                        flags = build_plan(c, alpha, lam, h, p).flags
                        if flags["d_ratio"] and flags["i3_exponent"]:
                            both += 1
                            if flags["m_ratio"]:
                                all_three.append((c, alpha, lam, h, p))
    return both, all_three


def test_criterion_09_lp_plan_feasibility():
    """Exponent plans with every flag true and p > 3 for dims 1 and 2.

    No such plan exists under build_plan's flags.  For c in (1, 2) and
    0 < lam < (c-1)/(2c-1), d_ratio is h(1-lam) > (1-lam)/2 - lam - lam^2*p
    and i3_exponent is p[(1-lam)(1-c*alpha) + c*lam^2] < c(1-lam)(2-h)
    - (1-lam+c*lam); together they give p(2-2c*alpha) < 3c-2, while m_ratio
    is p(2-2c*alpha) > 3c-2.  The criterion line therefore reads FAIL, and
    the test checks the program's answer: a returned plan must rebuild with
    every flag true and p > max(dim, 3); an InfeasiblePlanError must agree
    with build_plan on _flag_conflict_probe's grid.
    """
    details, bad_plans = [], []
    infeasible = False
    for dim in (1, 2):
        try:
            plan, p = select_lp_exponent(dim)
        except InfeasiblePlanError as err:
            infeasible = True
            details.append(f"dim {dim}: {err}")
            continue
        rebuilt = build_plan(plan.c, plan.alpha, plan.lam, plan.h, plan.p)
        false_flags = [k for k, v in rebuilt.flags.items() if not v]
        details.append(f"dim {dim}: p={p:.3f}, false flags {false_flags}")
        if false_flags or not p > max(dim, 3):
            bad_plans.append(dim)
    note = ""
    if infeasible:
        both, all_three = _flag_conflict_probe()
        note = (f" [flag probe: {both} points satisfy d_ratio and i3_exponent, "
                f"{len(all_three)} of them m_ratio as well]")
    record_criterion("criterion 09 lp plan feasibility",
                     not infeasible and not bad_plans, "; ".join(details) + note)
    assert not bad_plans, f"returned plans fail the criterion: {details}"
    if infeasible:
        assert both > 0 and not all_three, (
            f"infeasibility reported, but d_ratio, i3_exponent and m_ratio all hold "
            f"at (c, alpha, lam, h, p) {all_three[:3]}")


def test_criterion_10_reverse_holder():
    violations = checks.reverse_holder_violations(Grid.line(1.0, 64), 1000, 103,
                                                  (-0.5, 2.0), (0.01, 4.0))
    _crit("criterion 10 reverse Hoelder",
          violations == 0, f"{violations} violations in 3000 checks")


def test_criterion_11_sweep_determinism(tmp_path_factory):
    template = RunConfig(grid=Grid.line(1.0, 16),
                         params=params_for(1.0, 1.0),
                         ic=ICSpec(kind="random", baseline=0.4, amplitude=0.6),
                         t_end=1.0, diagnostics_every=0.1, seed=2025)
    axes = [("chi", [0.5, 2.0]), ("a_scale", [0.5, 1.5])]
    dirs = [tmp_path_factory.mktemp("det_a"), tmp_path_factory.mktemp("det_b")]
    results = [sweep(template, axes, outdir=d, workers=w)
               for d, w in zip(dirs, (1, 2))]
    table_match = (Path(results[0].csv_path).read_bytes()
                   == Path(results[1].csv_path).read_bytes())
    cells_match = all(
        (dirs[0] / "cells" / f"c{i:03d}" / "diagnostics.csv").read_bytes()
        == (dirs[1] / "cells" / f"c{i:03d}" / "diagnostics.csv").read_bytes()
        for i in range(4))
    _crit("criterion 11 sweep determinism",
          table_match and cells_match,
          f"phase table identical: {table_match}, cell diagnostics identical: {cells_match}")


# --- supplementary monitored properties ------------------------------------------

def test_property_negative_power_stays_controlled(bounded_regime_runs):
    # in the above-threshold regime the monitored negative-power functional
    # must stay below twice its value at t=1 for all later samples
    cfg, outcome = next((c, o) for c, o in bounded_regime_runs
                        if c.params.chi == 1.0)
    window = beta_window(cfg.params.chi, cfg.params.mu, cfg.params.coeff_a.inf)
    name = f"negpow_{window.p_hat:g}"
    assert name in outcome.records.names, "negative-power exponent was not auto-monitored"
    series = [(rec.t, getattr(rec, name)) for rec in outcome.records]
    assert series
    ref = next(v for t, v in series if t >= 1.0)
    later = [v for t, v in series if t >= 1.0]
    assert all(v <= 2.0 * ref for v in later)
    assert all(math.isfinite(v) for v in later)


def test_property_lp_norms_bounded_in_tail(bounded_regime_runs):
    # the monitored L^p series obeys the same tail-trend boundedness as the
    # sup norm in the above-threshold regime
    for cfg, outcome in bounded_regime_runs:
        series = [rec.lp_2 for rec in outcome.records]
        n = len(series)
        middle = series[n // 3:2 * n // 3]
        final = series[2 * n // 3:]
        assert max(final) <= 1.1 * max(middle), f"chi={cfg.params.chi}"
        assert all(math.isfinite(v) for v in series)


def test_property_log_mass_slope_reported(rayleigh_pair):
    # the one-sided slope floor of the log-mass series is monitored and
    # finite on both resolutions
    c_obs = {}
    for n, (cfg, outcome) in rayleigh_pair.items():
        trend = outcome.summary["log_mass_trend"]
        assert trend["c_obs"] is not None and math.isfinite(trend["c_obs"])
        c_obs[n] = trend["c_obs"]
    record_criterion("supplementary log-mass slope", True,
                     f"c_obs 128={c_obs[128]:.3g}, 256={c_obs[256]:.3g}")


def test_property_sweep_rows_match_threshold_classification(existence_sweep):
    result, _ = existence_sweep
    for row in result.rows:
        a_inf = row["a_scale"] * 1.0
        thr = threshold(row["chi"], 1.0)
        if a_inf > thr:
            assert row["regime"] == "above_threshold"
            assert row["verdict"] == "CompletedBounded", row
        else:
            assert row["verdict"] in ("CompletedBounded", "CompletedGrowing")
