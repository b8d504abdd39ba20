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
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .elliptic import DEFAULT_ELLIPTIC, EllipticConfig
from .errors import (ConfigError, DegeneracyError, FieldOverflowError,
                     ParameterError, SolverFailureError, TimestepCollapseError)
from .mesh import Grid, ScalarField, integrate, write_snapshot
from .regimes import ThresholdVerdict, beta_window, boundedness_threshold
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
        if self.seed is not None and not 0 <= self.seed < 2 ** 128:  # a Philox key
            raise ConfigError(f"ic seed must lie in [0, 2**128), got {self.seed}")
        if not all(map(math.isfinite, (self.value, self.amplitude, self.baseline, *self.center))):
            raise ConfigError("ic value, amplitude, baseline and center must be finite")
        if not 0 < self.width < math.inf:
            raise ConfigError(f"ic width must be positive and finite, got {self.width}")


def build_ic(grid: Grid, ic: ICSpec, default_seed: int = 0) -> ScalarField:
    if ic.kind == "constant":
        u0 = ScalarField.full(grid, ic.value)
    elif ic.kind == "gaussian":
        if len(ic.center) not in (1, grid.dim):
            raise ConfigError(f"ic.center needs 1 or grid.dim={grid.dim} values")
        center = ic.center * (grid.dim // len(ic.center))
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
        if not self.classify_factor > 1.0:
            raise ConfigError("classify_factor must exceed 1")
        # the ranges the monitored functionals are defined on
        if not all(p >= 1.0 for p in self.p_list):
            raise ConfigError(f"diagnostics.p_list needs every p >= 1, got {self.p_list}")
        if not all(p > 0.0 for p in self.neg_p_list):
            raise ConfigError(f"diagnostics.neg_p_list needs every p > 0, got {self.neg_p_list}")
        if self.grad_p is not None and not 1.0 < self.grad_p < self.grid.dim:
            raise ConfigError(f"diagnostics.grad_p needs 1 < p < grid.dim={self.grid.dim}, "
                              f"got {self.grad_p}")
        if not 0 <= self.seed < 2 ** 64:
            # sweep cell i keys its initial condition by (seed << 64) + i
            raise ConfigError(f"run seed must lie in [0, 2**64), got {self.seed}")

    @property
    def cadence(self) -> float:
        return self.diagnostics_every if self.diagnostics_every > 0 else self.t_end / 100.0


@dataclass
class RunOutcome:
    # the run facts: the fields before ``records``, which head summary.json
    # in this order
    verdict: str
    trigger: str | None
    failure: str | None
    t_reached: float
    steps: int
    peak_max_u: float
    min_min_v: float
    records: list[diag.DiagnosticsRecord]
    summary: dict = field(default_factory=dict)
    diagnostics_path: str | None = None
    summary_path: str | None = None

    def facts(self) -> dict:
        names = [f.name for f in fields(self)]
        return {name: getattr(self, name) for name in names[:names.index("records")]}


# --- config file parsing ----------------------------------------------------

def _field_keys(prefix: str, cls) -> dict[str, str]:
    return {f"{prefix}.{f.name}": f.name for f in fields(cls)}


# config key -> dataclass field, per section, in parse order; grid.* is parsed
# apart for its broadcast rule.  Every default is the field's in RunConfig().
_SECTION_KEYS = {
    "params": {"model.chi": "chi", "model.mu": "mu", "model.nu": "nu"},
    "coeff_a": {"model.a": "base", "model.a.eps_x": "eps_x", "model.a.k": "mode_k",
                "model.a.eps_t": "eps_t", "model.a.omega": "omega"},
    "coeff_b": {"model.b": "base", "model.b.eps_x": "eps_x", "model.b.k": "mode_k",
                "model.b.eps_t": "eps_t", "model.b.omega": "omega"},
    "stepper": _field_keys("stepper", StepperConfig),
    "elliptic": _field_keys("elliptic", EllipticConfig),
    "ic": _field_keys("ic", ICSpec),
    "run": {"run.t_end": "t_end", "run.diagnostics_every": "diagnostics_every",
            "run.snapshot_every": "snapshot_every", "diagnostics.p_list": "p_list",
            "diagnostics.neg_p_list": "neg_p_list", "diagnostics.grad_p": "grad_p",
            "diagnostics.auto_neg_p": "auto_neg_p", "run.classify_factor": "classify_factor",
            "run.seed": "seed", "run.outdir": "outdir"},
}
_KNOWN_KEYS = {"grid.dim", "grid.cells", "grid.extent"}.union(*_SECTION_KEYS.values())


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


def _bool(text: str) -> bool:
    if text.lower() not in ("1", "0", "true", "false", "yes", "no"):
        raise ValueError(f"expected a boolean (1/0, true/false, yes/no), got {text!r}")
    return text.lower() in ("1", "true", "yes")


# a field's annotation, less any "| None", picks the parser of its value
_PARSERS = {"float": float, "int": int, "str": str, "bool": _bool, "tuple[float, ...]": _floats}


def _parse(kv: dict[str, str], key: str, parser, default=None):
    """``kv[key]`` parsed by ``parser``, or ``default`` when the key is
    absent; a value that does not parse is reported under its key."""
    if key not in kv:
        return default
    try:
        return parser(kv[key])
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from err


def _parsed(name: str, obj, kv: dict[str, str]) -> dict:
    """Field name -> value for the keys of section ``name`` present in
    ``kv``, each parsed by the annotation of the field of ``obj`` it sets."""
    types = {f.name: f.type for f in fields(obj)}
    return {attr: _parse(kv, key, _PARSERS[types[attr].removesuffix(" | None")])
            for key, attr in _SECTION_KEYS[name].items() if key in kv}


def config_from_mapping(kv: dict[str, str]) -> RunConfig:
    """``RunConfig()`` with the keys present in ``kv`` applied."""
    unknown = set(kv) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    base = RunConfig()
    try:
        dim = _parse(kv, "grid.dim", int, base.grid.dim)
        cells = _parse(kv, "grid.cells", lambda text: tuple(map(int, text.split(","))),
                       base.grid.cells)
        extents = _parse(kv, "grid.extent", _floats, base.grid.extents)
        if {len(cells), len(extents)} - {1, dim}:
            raise ConfigError(f"grid.cells and grid.extent need 1 or grid.dim={dim} values")
        grid = Grid(extents * (dim // len(extents)), cells * (dim // len(cells)))
        # the model's scalars are parsed before its coefficients are built,
        # so a bad value is reported in the table's parse order
        model = _parsed("params", base.params, kv)
        for name in ("coeff_a", "coeff_b"):
            part = getattr(base.params, name)
            model[name] = replace(part, **_parsed(name, part, kv))
        sections = {"params": replace(base.params, **model)}
        for name in ("stepper", "elliptic", "ic"):
            part = getattr(base, name)
            sections[name] = replace(part, **_parsed(name, part, kv))
        return replace(base, grid=grid, **sections, **_parsed("run", base, kv))
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


def _monitored_neg_p(config: RunConfig, thr: ThresholdVerdict) -> tuple[float, ...]:
    neg = list(config.neg_p_list)
    if config.auto_neg_p and thr.satisfied:
        window = beta_window(thr.chi, thr.mu, thr.a_inf)
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
    thr = boundedness_threshold(params.chi, params.mu, params.coeff_a.inf)
    neg_p = _monitored_neg_p(config, thr)
    u0 = build_ic(config.grid, config.ic, default_seed=config.seed)

    def record_of(state: SimState) -> diag.DiagnosticsRecord:
        return diag.compute_record(state.u, state.v, state.t,
                                   p_list=config.p_list, neg_p_list=neg_p,
                                   grad_p=config.grad_p)

    trigger = failure = None
    records: list[diag.DiagnosticsRecord] = []
    eps_t = 1e-12 * max(1.0, config.t_end)
    cadence = config.cadence
    k_diag = 1
    k_snap = 1
    n_snap = 0
    peak_u = -math.inf
    min_v = math.inf
    state = None

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
    except tuple(TRIGGER_OF) as err:
        trigger, failure, verdict = TRIGGER_OF[type(err)], str(err), VERDICT_BLOWUP
        if isinstance(err, FieldOverflowError) and math.isfinite(err.max_u):
            peak_u = max(peak_u, err.max_u)
        if isinstance(err, DegeneracyError) and math.isfinite(err.min_v):
            min_v = min(min_v, err.min_v)
    except SolverFailureError as err:
        failure, verdict = str(err), VERDICT_SOLVER

    # a failed step leaves the state at its last accepted step
    t_reached, steps = (state.t, state.step) if state is not None else (0.0, 0)
    outcome = RunOutcome(verdict, trigger, failure, t_reached, steps, peak_u, min_v, records)
    outcome.summary = _summarize(config, outcome, neg_p, thr)
    if out is not None:
        diag_path = out / "diagnostics.csv"
        lines = [diag.csv_header(config.p_list, neg_p, config.grad_p)]
        lines += [diag.csv_row(r, config.p_list, neg_p, config.grad_p) for r in records]
        diag_path.write_text("\n".join(lines) + "\n")
        summary_path = out / "summary.json"
        summary_path.write_text(json.dumps(_json_safe(outcome.summary), indent=2) + "\n")
        outcome.diagnostics_path = str(diag_path)
        outcome.summary_path = str(summary_path)
    return outcome


def _summarize(config: RunConfig, outcome: RunOutcome, neg_p, thr: ThresholdVerdict) -> dict:
    params, records, trigger = config.params, outcome.records, outcome.trigger
    a, b = params.coeff_a, params.coeff_b
    measure = config.grid.measure
    summary: dict = {
        **outcome.facts(),
        "seed": config.seed,
        "grid": {"extents": list(config.grid.extents), "cells": list(config.grid.cells)},
        "model": {"chi": params.chi, "mu": params.mu, "nu": params.nu,
                  "a_inf": a.inf, "a_sup": a.sup, "b_inf": b.inf, "b_sup": b.sup},
        "monitored_neg_p": list(neg_p),
    }
    summary["threshold"] = {
        "value": thr.threshold, "a_inf": thr.a_inf, "satisfied": thr.satisfied,
        "regime": _regime_label(thr),
    }
    if records:
        mstar = diag.m_star(records[0].mass, a.sup, b.inf, measure)
        check = diag.check_mass_bound(max(records, key=lambda r: r.mass), mstar)
        summary["mass_bound"] = {"m_star": mstar, "worst_mass": check.value,
                                 "bound": check.bound, "passed": check.passed}
        rmax = max(r.rayleigh for r in records)
        summary["rayleigh"] = {"max_value": rmax, "bound": params.mu * measure,
                               "max_ratio": rmax / (params.mu * measure)}
        if len(records) >= 4 and trigger is None:
            floors = diag.trend_floors(records)
            tail = records[len(records) // 2:]
            summary["persistence"] = asdict(diag.check_persistence(tail, *floors))
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


def _regime_label(verdict: ThresholdVerdict) -> str:
    if verdict.satisfied:
        return "above_threshold"
    if verdict.a_inf == verdict.threshold:
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

    scheduled = [jobs[pos] for pos in schedule]
    n_workers = workers if workers is not None else min(4, os.cpu_count() or 1)
    if n_workers <= 1 or len(jobs) <= 1:
        results = dict(map(_run_cell, scheduled))
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = dict(pool.map(_run_cell, scheduled))

    outcomes = [results[i] for i in range(len(jobs))]
    cols = ["cell", *names, "verdict", "trigger", "regime", "t_reached", "peak_max_u", "min_min_v"]
    rows = [dict(zip(cols, (i, *combo, o.verdict, o.trigger or "", o.summary["threshold"]["regime"],
                            o.t_reached, o.peak_max_u, o.min_min_v)))
            for i, (combo, o) in enumerate(zip(combos, outcomes))]
    result = SweepResult(rows=rows, outcomes=outcomes,
                         cell_configs=[cfg for _, cfg in jobs])
    if out is not None:
        lines = [",".join(cols)] + [",".join(_fmt_cell(row[c]) for c in cols) for row in rows]
        csv_path = out / "sweep.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        result.csv_path = str(csv_path)
    return result


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)

