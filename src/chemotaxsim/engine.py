"""Run orchestration: configs, initial conditions, the time loop with
diagnostics cadence, blow-up verdicts and parameter sweeps.

Config files are flat ``key=value`` text with dotted section prefixes
(``model.chi=1.0``); the CLI accepts the same ``key=value`` pairs as
overrides.  All randomness flows from a single 64-bit seed through the
Philox counter-based generator: sweep cell i uses key ``(seed << 64) + i``,
so results do not depend on scheduling or worker count.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .elliptic import DEFAULT_ELLIPTIC, EllipticConfig
from .errors import (ConfigError, DegeneracyError, FieldOverflowError,
                     ParameterError, SimulationError, SolverFailureError,
                     TimestepCollapseError)
from .mesh import Grid, ScalarField, integrate, write_snapshot
from .regimes import beta_window, boundedness_threshold, threshold
from .stepper import (DEFAULT_STEPPER, CoefficientSpec, ModelParams,
                      SimState, StepperConfig, advance, initial_state)

VERDICT_BOUNDED = "CompletedBounded"
VERDICT_GROWING = "CompletedGrowing"
VERDICT_BLOWUP = "NumericalBlowUpSuspected"
VERDICT_SOLVER = "SolverFailure"

TRIGGER_OF = {
    DegeneracyError: "v_floor",
    FieldOverflowError: "u_ceiling",
    TimestepCollapseError: "dt_collapse",
}

SWEEP_AXES = ("chi", "a_scale", "b_scale", "mu")


@dataclass(frozen=True)
class ICSpec:
    """Initial condition: constant, gaussian bump, or seeded uniform noise."""

    kind: str = "constant"
    value: float = 1.0
    center: tuple[float, ...] = (0.5,)
    width: float = 0.1
    amplitude: float = 1.0
    baseline: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "gaussian", "random"):
            raise ConfigError(f"unknown ic kind {self.kind!r}")


def build_ic(grid: Grid, ic: ICSpec, default_seed: int = 0) -> ScalarField:
    if ic.kind == "constant":
        u0 = ScalarField.full(grid, ic.value)
    elif ic.kind == "gaussian":
        center = ic.center if len(ic.center) == grid.dim else ic.center[:1] * grid.dim
        coords = grid.coordinate_fields()
        r2 = sum((x - c) ** 2 for x, c in zip(coords, center))
        u0 = ScalarField(grid, ic.baseline + ic.amplitude * np.exp(-r2 / (2.0 * ic.width ** 2)))
    else:
        key = ic.seed if ic.seed is not None else default_seed
        gen = np.random.Generator(np.random.Philox(key=key))
        u0 = ScalarField(grid, ic.baseline + ic.amplitude * gen.uniform(0.0, 1.0, grid.shape))
    if u0.min() < 0.0:
        raise ConfigError("initial condition must be nonnegative")
    if integrate(u0) <= 0.0:
        raise ConfigError("initial condition must carry positive mass")
    return u0


@dataclass(frozen=True)
class RunConfig:
    grid: Grid = Grid((1.0,), (64,))
    params: ModelParams = ModelParams(1.0, 1.0, 1.0,
                                      CoefficientSpec.constant(1.0),
                                      CoefficientSpec.constant(1.0))
    stepper: StepperConfig = DEFAULT_STEPPER
    elliptic: EllipticConfig = DEFAULT_ELLIPTIC
    ic: ICSpec = ICSpec()
    t_end: float = 1.0
    diagnostics_every: float = 0.0     # 0 selects t_end/100
    snapshot_every: float = 0.0        # 0 disables snapshots
    p_list: tuple[float, ...] = (2.0,)
    neg_p_list: tuple[float, ...] = ()
    grad_p: float | None = None
    auto_neg_p: bool = True
    classify_factor: float = 1.1
    seed: int = 0
    outdir: str | None = None

    def __post_init__(self):
        if not (0 < self.t_end < math.inf):
            raise ConfigError(f"t_end must be positive and finite, got {self.t_end}")
        if not (0 <= self.diagnostics_every < math.inf and 0 <= self.snapshot_every < math.inf):
            raise ConfigError("cadence intervals must be finite and >= 0")
        if self.classify_factor <= 1.0:
            raise ConfigError("classify_factor must exceed 1")

    @property
    def cadence(self) -> float:
        return self.diagnostics_every if self.diagnostics_every > 0 else self.t_end / 100.0


@dataclass
class RunOutcome:
    verdict: str
    trigger: str | None
    t_reached: float
    steps: int
    peak_max_u: float
    min_min_v: float
    records: list[diag.DiagnosticsRecord]
    summary: dict
    diagnostics_path: str | None = None
    summary_path: str | None = None


# --- config file parsing ----------------------------------------------------

_KNOWN_KEYS = {
    "grid.dim", "grid.cells", "grid.extent",
    "model.chi", "model.mu", "model.nu",
    "model.a", "model.a.eps_x", "model.a.k", "model.a.eps_t", "model.a.omega",
    "model.b", "model.b.eps_x", "model.b.k", "model.b.eps_t", "model.b.omega",
    "stepper.cfl_safety", "stepper.dt_min", "stepper.u_ceiling", "stepper.v_floor",
    "elliptic.rel_tolerance",
    "run.t_end", "run.diagnostics_every", "run.snapshot_every", "run.seed",
    "run.classify_factor", "run.outdir",
    "ic.kind", "ic.value", "ic.center", "ic.width", "ic.amplitude",
    "ic.baseline", "ic.seed",
    "diagnostics.p_list", "diagnostics.neg_p_list", "diagnostics.grad_p",
    "diagnostics.auto_neg_p",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat key=value lines; '#' starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _coeff_from(kv: dict[str, str], prefix: str) -> CoefficientSpec:
    return CoefficientSpec(base=float(kv.get(prefix, "1.0")),
                           eps_x=float(kv.get(f"{prefix}.eps_x", "0")),
                           mode_k=float(kv.get(f"{prefix}.k", "1")),
                           eps_t=float(kv.get(f"{prefix}.eps_t", "0")),
                           omega=float(kv.get(f"{prefix}.omega", "0")))


def config_from_mapping(kv: dict[str, str]) -> RunConfig:
    unknown = set(kv) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        dim = int(kv.get("grid.dim", "1"))
        cells = _ints(kv.get("grid.cells", "64"))
        extents = _floats(kv.get("grid.extent", "1.0"))
        if {len(cells), len(extents)} - {1, dim}:
            raise ConfigError(f"grid.cells and grid.extent need 1 or grid.dim={dim} values")
        grid = Grid(extents * (dim // len(extents)), cells * (dim // len(cells)))
        params = ModelParams(
            chi=float(kv.get("model.chi", "1.0")),
            mu=float(kv.get("model.mu", "1.0")),
            nu=float(kv.get("model.nu", "1.0")),
            coeff_a=_coeff_from(kv, "model.a"),
            coeff_b=_coeff_from(kv, "model.b"),
        )
        stepper = StepperConfig(
            cfl_safety=float(kv.get("stepper.cfl_safety", "0.4")),
            dt_min=float(kv.get("stepper.dt_min", "1e-12")),
            u_ceiling=float(kv.get("stepper.u_ceiling", "1e8")),
            v_floor=float(kv.get("stepper.v_floor", "1e-12")),
        )
        elliptic = EllipticConfig(
            rel_tolerance=float(kv.get("elliptic.rel_tolerance", "1e-10")))
        ic = ICSpec(
            kind=kv.get("ic.kind", "constant"),
            value=float(kv.get("ic.value", "1.0")),
            center=_floats(kv.get("ic.center", "0.5")),
            width=float(kv.get("ic.width", "0.1")),
            amplitude=float(kv.get("ic.amplitude", "1.0")),
            baseline=float(kv.get("ic.baseline", "0.0")),
            seed=int(kv["ic.seed"]) if "ic.seed" in kv else None,
        )
        grad_p = kv.get("diagnostics.grad_p")
        return RunConfig(
            grid=grid, params=params, stepper=stepper, elliptic=elliptic, ic=ic,
            t_end=float(kv.get("run.t_end", "1.0")),
            diagnostics_every=float(kv.get("run.diagnostics_every", "0")),
            snapshot_every=float(kv.get("run.snapshot_every", "0")),
            p_list=_floats(kv.get("diagnostics.p_list", "2")),
            neg_p_list=_floats(kv["diagnostics.neg_p_list"]) if "diagnostics.neg_p_list" in kv else (),
            grad_p=float(grad_p) if grad_p is not None else None,
            auto_neg_p=kv.get("diagnostics.auto_neg_p", "true").lower() in ("1", "true", "yes"),
            classify_factor=float(kv.get("run.classify_factor", "1.1")),
            seed=int(kv.get("run.seed", "0")),
            outdir=kv.get("run.outdir"),
        )
    except ConfigError:
        raise
    except (ValueError, ParameterError) as err:
        raise ConfigError(str(err)) from err


def load_config(path, overrides: list[str] | None = None) -> RunConfig:
    kv = parse_config_text(Path(path).read_text())
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        kv[key.strip()] = value.strip()
    return config_from_mapping(kv)


# --- single run ---------------------------------------------------------------

def _classify(records: list[diag.DiagnosticsRecord], factor: float) -> str:
    """Tail-trend heuristic: bounded iff the final third of max_u stays
    within ``factor`` times the middle third's peak."""
    maxes = [r.max_u for r in records]
    n = len(maxes)
    if n < 3:
        return VERDICT_BOUNDED if max(maxes) <= factor * maxes[0] else VERDICT_GROWING
    middle = maxes[n // 3:max(2 * n // 3, n // 3 + 1)]
    final = maxes[2 * n // 3:]
    return VERDICT_BOUNDED if max(final) <= factor * max(middle) else VERDICT_GROWING


# negative-power exponents beyond this saturate f64 for ordinary densities
MAX_AUTO_NEG_P = 64.0


def _monitored_neg_p(config: RunConfig) -> tuple[float, ...]:
    neg = list(config.neg_p_list)
    if config.auto_neg_p:
        verdict = boundedness_threshold(config.params.chi, config.params.mu,
                                        config.params.a_inf)
        if verdict.satisfied:
            window = beta_window(config.params.chi, config.params.mu,
                                 config.params.a_inf)
            if window.p_hat <= MAX_AUTO_NEG_P and window.p_hat not in neg:
                neg.append(window.p_hat)
    return tuple(neg)


def run(config: RunConfig, outdir=None) -> RunOutcome:
    """Advance from t=0 to t_end or to a failure trigger.

    Solver errors become verdicts, never uncaught exceptions.  Diagnostics
    rows are appended at the first step past each cadence point; snapshots
    likewise when enabled.
    """
    out = Path(outdir) if outdir is not None else (
        Path(config.outdir) if config.outdir else None)
    snapdir = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        if config.snapshot_every > 0:
            snapdir = out / "snapshots"
            snapdir.mkdir(exist_ok=True)

    params = config.params
    neg_p = _monitored_neg_p(config)
    u0 = build_ic(config.grid, config.ic, default_seed=config.seed)

    def record_of(state: SimState) -> diag.DiagnosticsRecord:
        return diag.compute_record(state.u, state.v, state.t,
                                   p_list=config.p_list, neg_p_list=neg_p,
                                   grad_p=config.grad_p)

    trigger = None
    failure: SimulationError | None = None
    records: list[diag.DiagnosticsRecord] = []
    eps_t = 1e-12 * max(1.0, config.t_end)
    cadence = config.cadence
    k_diag = 1
    k_snap = 1
    n_snap = 0
    peak_u = -math.inf
    min_v = math.inf
    steps = 0
    t_reached = 0.0

    try:
        state = initial_state(u0, params, config.elliptic)
        records.append(record_of(state))
        peak_u = state.u.max()
        min_v = state.v.min()
        if snapdir is not None:
            write_snapshot(state.u, state.t, snapdir / f"t{n_snap}.field")
            n_snap += 1
        while config.t_end - state.t > eps_t:
            advance(state, params, config.stepper, config.elliptic,
                    dt_cap=config.t_end - state.t)
            steps = state.step
            t_reached = state.t
            peak_u = max(peak_u, state.u.max())
            min_v = min(min_v, state.v.min())
            if state.t + eps_t >= k_diag * cadence:
                records.append(record_of(state))
                k_diag = int(math.floor(state.t / cadence + 1e-9)) + 1
            if snapdir is not None and state.t + eps_t >= k_snap * config.snapshot_every:
                write_snapshot(state.u, state.t, snapdir / f"t{n_snap}.field")
                n_snap += 1
                k_snap = int(math.floor(state.t / config.snapshot_every + 1e-9)) + 1
        if not records or records[-1].t < state.t - eps_t:
            records.append(record_of(state))
        verdict = _classify(records, config.classify_factor)
    except (DegeneracyError, FieldOverflowError, TimestepCollapseError) as err:
        trigger = TRIGGER_OF[type(err)]
        failure = err
        verdict = VERDICT_BLOWUP
        if isinstance(err, FieldOverflowError) and math.isfinite(err.max_u):
            peak_u = max(peak_u, err.max_u)
        if isinstance(err, DegeneracyError) and math.isfinite(err.min_v):
            min_v = min(min_v, err.min_v)
    except SolverFailureError as err:
        failure = err
        verdict = VERDICT_SOLVER

    summary = _summarize(config, records, verdict, trigger, failure,
                         t_reached, steps, peak_u, min_v, neg_p)
    outcome = RunOutcome(verdict=verdict, trigger=trigger, t_reached=t_reached,
                         steps=steps, peak_max_u=peak_u, min_min_v=min_v,
                         records=records, summary=summary)
    if out is not None:
        diag_path = out / "diagnostics.csv"
        lines = [diag.csv_header(config.p_list, neg_p, config.grad_p)]
        lines += [diag.csv_row(r, config.p_list, neg_p, config.grad_p) for r in records]
        diag_path.write_text("\n".join(lines) + "\n")
        summary_path = out / "summary.json"
        summary_path.write_text(json.dumps(_json_safe(summary), indent=2) + "\n")
        outcome.diagnostics_path = str(diag_path)
        outcome.summary_path = str(summary_path)
    return outcome


def _summarize(config: RunConfig, records, verdict, trigger, failure,
               t_reached, steps, peak_u, min_v, neg_p) -> dict:
    params = config.params
    measure = config.grid.measure
    summary: dict = {
        "verdict": verdict,
        "trigger": trigger,
        "failure": str(failure) if failure is not None else None,
        "t_reached": t_reached,
        "steps": steps,
        "peak_max_u": peak_u,
        "min_min_v": min_v,
        "seed": config.seed,
        "grid": {"extents": list(config.grid.extents), "cells": list(config.grid.cells)},
        "model": {"chi": params.chi, "mu": params.mu, "nu": params.nu,
                  "a_inf": params.a_inf, "a_sup": params.a_sup,
                  "b_inf": params.b_inf, "b_sup": params.b_sup},
        "monitored_neg_p": list(neg_p),
    }
    thr = boundedness_threshold(params.chi, params.mu, params.a_inf)
    summary["threshold"] = {
        "value": thr.threshold, "a_inf": thr.a_inf, "satisfied": thr.satisfied,
        "regime": _regime_label(params),
    }
    if records:
        mstar = diag.m_star(records[0].mass, params.a_sup, params.b_inf, measure)
        worst = max(r.mass for r in records)
        bound = mstar * (1.0 + diag.MASS_BOUND_SLACK)
        summary["mass_bound"] = {"m_star": mstar, "worst_mass": worst,
                                 "bound": bound, "passed": worst <= bound}
        rmax = max(r.rayleigh for r in records)
        summary["rayleigh"] = {"max_value": rmax, "bound": params.mu * measure,
                               "max_ratio": rmax / (params.mu * measure)}
        if len(records) >= 4 and trigger is None:
            floors = diag.trend_floors(records)
            tail = records[len(records) // 2:]
            check = diag.check_persistence(tail, *floors)
            summary["persistence"] = {
                "passed": check.passed, "min_mass": check.min_mass,
                "min_min_v": check.min_min_v, "mass_floor": check.mass_floor,
                "v_floor": check.v_floor,
            }
        else:
            summary["persistence"] = {"passed": trigger is None and bool(records)}
        slopes = [
            (b.log_mass - a.log_mass) / (b.t - a.t)
            for a, b in zip(records, records[1:]) if b.t > a.t
        ]
        finite = [s for s in slopes if math.isfinite(s)]
        summary["log_mass_trend"] = {
            "min_slope": min(finite) if finite else None,
            "c_obs": max(0.0, -min(finite)) if finite else None,
        }
        ratios = [r.grad_ratio for r in records if r.grad_ratio is not None]
        if ratios:
            summary["grad_ratio_max"] = max(ratios)
    return summary


def _json_safe(obj):
    """Strict-JSON friendly copy: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _regime_label(params: ModelParams) -> str:
    thr = threshold(params.chi, params.mu)
    if params.a_inf > thr:
        return "above_threshold"
    if params.a_inf == thr:
        return "boundary"
    return "below_threshold"


# --- parameter sweeps ---------------------------------------------------------

@dataclass
class SweepResult:
    rows: list[dict]
    outcomes: list[RunOutcome]
    cell_configs: list[RunConfig]
    csv_path: str | None = None


def _cell_config(template: RunConfig, axes: list[tuple[str, float]],
                 index: int, outdir: str | None) -> RunConfig:
    params = template.params
    for key, value in axes:
        if key == "chi":
            params = replace(params, chi=value)
        elif key == "mu":
            params = replace(params, mu=value)
        elif key == "a_scale":
            params = replace(params, coeff_a=params.coeff_a.scaled(value))
        elif key == "b_scale":
            params = replace(params, coeff_b=params.coeff_b.scaled(value))
        else:
            raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {key!r}")
    ic = template.ic
    if ic.seed is None:
        ic = replace(ic, seed=(template.seed << 64) + index)
    return replace(template, params=params, ic=ic, outdir=outdir)


def _run_cell(args: tuple[int, RunConfig]) -> tuple[int, RunOutcome]:
    index, config = args
    return index, run(config)


def sweep(template: RunConfig, axes: list[tuple[str, list[float]]],
          outdir=None, workers: int | None = None,
          order: list[int] | None = None) -> SweepResult:
    """One run per point of the cartesian axis grid.

    Cells are independent: each gets its own config, output directory and
    Philox key derived from (template seed, cell index), so any execution
    order and worker count produce identical rows.  Per-cell failures land
    in the row's verdict; the sweep itself never aborts.
    """
    for key, _ in axes:
        if key not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {key!r}")
    out = Path(outdir) if outdir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    names = [k for k, _ in axes]
    combos = list(itertools.product(*[v for _, v in axes]))
    jobs = []
    for i, combo in enumerate(combos):
        cell_out = str(out / "cells" / f"c{i:03d}") if out is not None else None
        jobs.append((i, _cell_config(template, list(zip(names, combo)), i, cell_out)))

    schedule = order if order is not None else list(range(len(jobs)))
    if sorted(schedule) != list(range(len(jobs))):
        raise ConfigError("order must be a permutation of the cell indices")

    results: dict[int, RunOutcome] = {}
    n_workers = workers if workers is not None else min(4, os.cpu_count() or 1)
    if n_workers <= 1 or len(jobs) <= 1:
        for pos in schedule:
            i, outcome = _run_cell(jobs[pos])
            results[i] = outcome
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            for i, outcome in pool.map(_run_cell, [jobs[pos] for pos in schedule]):
                results[i] = outcome

    rows = []
    outcomes = []
    for i, combo in enumerate(combos):
        outcome = results[i]
        cell_params = jobs[i][1].params
        row = {"cell": i}
        row.update({k: v for k, v in zip(names, combo)})
        row.update({
            "verdict": outcome.verdict,
            "trigger": outcome.trigger or "",
            "regime": _regime_label(cell_params),
            "t_reached": outcome.t_reached,
            "peak_max_u": outcome.peak_max_u,
            "min_min_v": outcome.min_min_v,
        })
        rows.append(row)
        outcomes.append(outcome)

    result = SweepResult(rows=rows, outcomes=outcomes,
                         cell_configs=[cfg for _, cfg in jobs])
    if out is not None:
        cols = ["cell"] + names + ["verdict", "trigger", "regime",
                                   "t_reached", "peak_max_u", "min_min_v"]
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(_fmt_cell(row[c]) for c in cols))
        csv_path = out / "sweep.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        result.csv_path = str(csv_path)
    return result


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)

