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
                      StepperConfig, advance, initial_state)

VERDICT_BOUNDED = "CompletedBounded"
VERDICT_GROWING = "CompletedGrowing"
VERDICT_BLOWUP = "NumericalBlowUpSuspected"
VERDICT_SOLVER = "SolverFailure"

TRIGGER_OF = {
    DegeneracyError: "v_floor",
    FieldOverflowError: "u_ceiling",
    TimestepCollapseError: "dt_collapse",
}

# sweep axis name -> the ModelParams it makes from the template's and a value
SWEEP_AXES = {
    "chi": lambda params, value: replace(params, chi=value),
    "a_scale": lambda params, value: replace(params, coeff_a=params.coeff_a.scaled(value)),
    "mu": lambda params, value: replace(params, mu=value),
}

# _classify's ratio; a fixed rule, not tuned per run
CLASSIFY_FACTOR = 1.1


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
    # an overflow or a division by zero is reported once, by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if ic.kind == "constant":
            u0 = ScalarField.full(grid, ic.value)
        elif ic.kind == "gaussian":
            if len(ic.center) not in (1, grid.dim):
                raise ConfigError(f"ic.center needs 1 or grid.dim={grid.dim} values")
            center = ic.center * (grid.dim // len(ic.center))

            def bump(*coords):
                r2 = sum((x - c) ** 2 for x, c in zip(coords, center))
                return ic.baseline + ic.amplitude * np.exp(-r2 / (2.0 * ic.width ** 2))
            u0 = ScalarField.from_function(grid, bump)
        else:
            key = ic.seed if ic.seed is not None else default_seed
            gen = np.random.Generator(np.random.Philox(key=key))
            u0 = ScalarField(grid, ic.baseline + ic.amplitude * gen.uniform(0.0, 1.0, grid.shape))
    if not np.isfinite(u0.values).all():
        raise ConfigError("initial condition must be finite; its parameters overflow")
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
    grad_p: float | None = None
    seed: int = 0
    outdir: str | None = None

    def __post_init__(self):
        if not (0 < self.t_end < math.inf):
            raise ConfigError(f"t_end must be positive and finite, got {self.t_end}")
        if not (0 <= self.diagnostics_every < math.inf and 0 <= self.snapshot_every < math.inf):
            raise ConfigError("cadence intervals must be finite and >= 0")
        # a cadence point's index is t/interval, so t_end/interval must be finite
        if not (self.cadence > 0 and self.t_end / self.cadence < math.inf
                and (self.snapshot_every == 0 or self.t_end / self.snapshot_every < math.inf)):
            raise ConfigError(f"cadence intervals are too small for t_end={self.t_end}")
        # the ranges the monitored functionals are defined on
        if not all(1.0 <= p < math.inf for p in self.p_list):
            raise ConfigError(f"diagnostics.p_list needs each p finite and >= 1, got {self.p_list}")
        try:  # a series rejects repeated column names
            diag.RecordSeries(self.p_list, (), None)
        except ValueError:
            raise ConfigError(f"diagnostics.p_list repeats an lp_{{p:g}} column, "
                              f"got {self.p_list}") from None
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
    records: diag.RecordSeries
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
    "ic": _field_keys("ic", ICSpec),
    "run": {"run.t_end": "t_end", "run.diagnostics_every": "diagnostics_every",
            "run.snapshot_every": "snapshot_every", "diagnostics.p_list": "p_list",
            "diagnostics.grad_p": "grad_p", "run.seed": "seed", "run.outdir": "outdir"},
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


# a field's annotation, less any "| None", picks the parser of its value
_PARSERS = {"float": float, "int": int, "str": str, "tuple[float, ...]": _floats}


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
        for name in ("stepper", "ic"):
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

def _classify(maxes) -> str:
    """Tail-trend heuristic on the max_u column: bounded iff its final third
    stays within CLASSIFY_FACTOR times the middle third's peak."""
    n = len(maxes)
    middle = maxes[n // 3:max(2 * n // 3, n // 3 + 1)]
    final = maxes[2 * n // 3:]
    return VERDICT_BOUNDED if max(final) <= CLASSIFY_FACTOR * max(middle) else VERDICT_GROWING


# negative-power exponents beyond this saturate f64 for ordinary densities
MAX_AUTO_NEG_P = 64.0


def _monitored_neg_p(thr: ThresholdVerdict) -> tuple[float, ...]:
    if thr.satisfied:
        window = beta_window(thr.chi, thr.mu, thr.a_inf)
        if window.p_hat <= MAX_AUTO_NEG_P:
            return (window.p_hat,)
    return ()


def _next_point(t: float, every: float) -> int:
    """Index k of the first cadence point k*every past t; t counts as on a
    point it lies within 1e-9 intervals below."""
    return int(math.floor(t / every + 1e-9)) + 1


def _out_path(config: RunConfig, outdir) -> Path | None:
    """Where a run or sweep writes: an explicit ``outdir``, else the config's, else nowhere."""
    return Path(outdir) if outdir is not None else Path(config.outdir) if config.outdir else None


def run(config: RunConfig, outdir=None) -> RunOutcome:
    """Advance from t=0 to t_end or to a failure trigger.

    Solver errors become verdicts, never uncaught exceptions.  Every pair
    from t=0 on passes one emission point: a diagnostics row at the first
    pair past each cadence point and at the final pair, and a snapshot at
    the first pair past each snapshot point when enabled.
    """
    out = _out_path(config, outdir)
    snapdir = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        if config.snapshot_every > 0:
            snapdir = out / "snapshots"
            snapdir.mkdir(exist_ok=True)

    params = config.params
    thr = boundedness_threshold(params.chi, params.mu, params.coeff_a.inf)
    neg_p = _monitored_neg_p(thr)
    u0 = build_ic(config.grid, config.ic, default_seed=config.seed)

    trigger = failure = None
    records = diag.RecordSeries(config.p_list, neg_p, config.grad_p)
    eps_t = 1e-12 * max(1.0, config.t_end)
    cadence = config.cadence
    k_diag = k_snap = n_snap = 0
    peak_u, min_v, state = -math.inf, math.inf, None

    try:
        state = initial_state(u0, params, config.elliptic, config.stepper)
        while True:
            peak_u = max(peak_u, state.u_max)
            min_v = min(min_v, state.v_min)
            done = config.t_end - state.t <= eps_t
            if done or state.t + eps_t >= k_diag * cadence:
                records.append(diag.compute_record(state.u, state.v, state.t, config.p_list,
                                                   neg_p, config.grad_p))
                k_diag = _next_point(state.t, cadence)
            if snapdir is not None and state.t + eps_t >= k_snap * config.snapshot_every:
                write_snapshot(state.u, state.t, snapdir / f"t{n_snap}.field")
                n_snap += 1
                k_snap = _next_point(state.t, config.snapshot_every)
            if done:
                break
            advance(state, dt_cap=config.t_end - state.t)
        verdict = _classify(records.column("max_u"))
    except tuple(TRIGGER_OF) as err:
        trigger, failure, verdict = TRIGGER_OF[type(err)], str(err), VERDICT_BLOWUP
        if isinstance(err, FieldOverflowError) and math.isfinite(err.max_u):
            peak_u = max(peak_u, err.max_u)
        if isinstance(err, DegeneracyError):
            min_v = min(min_v, err.min_v)
    except SolverFailureError as err:
        failure, verdict = str(err), VERDICT_SOLVER

    # a failed step leaves the state at its last accepted step
    t_reached, steps = (state.t, state.step) if state is not None else (0.0, 0)
    outcome = RunOutcome(verdict, trigger, failure, t_reached, steps, peak_u, min_v, records)
    outcome.summary = _summarize(config, outcome, neg_p, thr)
    if out is not None:
        diag_path = out / "diagnostics.csv"
        with diag_path.open("w") as fh:
            records.write_csv(fh)
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
        mass = records.column("mass")
        mstar = diag.m_star(mass[0], a.sup, b.inf, measure)
        check = diag.check_mass_bound(max(mass), mstar)
        summary["mass_bound"] = {"m_star": mstar, "worst_mass": check.value,
                                 "bound": check.bound, "passed": check.passed}
        rmax = max(records.column("rayleigh"))
        summary["rayleigh"] = {"max_value": rmax, "bound": params.mu * measure,
                               "max_ratio": rmax / (params.mu * measure)}
        if len(records) >= 4 and trigger is None:
            min_v = records.column("min_v")
            half = len(records) // 2
            summary["persistence"] = asdict(diag.check_persistence(
                mass[half:], min_v[half:], *diag.trend_floors(mass, min_v)))
        else:
            summary["persistence"] = {"passed": trigger is None}
        series = itertools.pairwise(zip(records.column("t"), records.column("log_mass")))
        # min() keeps the first of equal minima: 0.0 before -0.0
        min_slope = min(filter(math.isfinite, ((lm - lm_prev) / (t - t_prev)
                                               for (t_prev, lm_prev), (t, lm) in series
                                               if t > t_prev)), default=None)
        summary["log_mass_trend"] = {
            "min_slope": min_slope,
            "c_obs": max(0.0, -min_slope) if min_slope is not None else None,
        }
        if config.grad_p is not None:
            summary["grad_ratio_max"] = max(records.column(f"grad_ratio_{config.grad_p:g}"))
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
        params = SWEEP_AXES[key](params, value)
    ic = template.ic
    if ic.seed is None:
        ic = replace(ic, seed=(template.seed << 64) + index)
    return replace(template, params=params, ic=ic, outdir=outdir)


def _run_cell(args: tuple[int, RunConfig]) -> tuple[int, RunOutcome]:
    index, config = args
    return index, run(config)


def sweep(template: RunConfig, axes: list[tuple[str, list[float]]],
          outdir=None, workers: int | None = None) -> SweepResult:
    """One run per point of the cartesian axis grid.

    Cells are independent: each gets its own config, output directory and
    Philox key derived from (template seed, cell index), so any execution
    order and worker count produce identical rows.  An axis value outside
    the model's range, or workers below 1, is a ConfigError before any cell
    runs; per-cell failures land in the row's verdict, and the sweep itself
    never aborts.
    """
    names = [k for k, _ in axes]
    for key in names:
        if key not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {tuple(SWEEP_AXES)}, got {key!r}")
    if len(set(names)) < len(names):
        raise ConfigError(f"sweep axes must be distinct, got {names}")
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    out = _out_path(template, outdir)

    combos = list(itertools.product(*[v for _, v in axes]))
    jobs = []
    try:
        for i, combo in enumerate(combos):
            cell_out = str(out / "cells" / f"c{i:03d}") if out is not None else None
            jobs.append((i, _cell_config(template, list(zip(names, combo)), i, cell_out)))
    except ParameterError as err:  # an axis value outside the model's range
        raise ConfigError(str(err)) from err
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    n_workers = min(workers if workers is not None else min(4, os.cpu_count() or 1), len(jobs))
    if n_workers <= 1:
        outcomes = [o for _, o in map(_run_cell, jobs)]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = [o for _, o in pool.map(_run_cell, jobs)]

    cols = ["cell", *names, "verdict", "trigger", "regime", "t_reached", "peak_max_u", "min_min_v"]
    rows = [dict(zip(cols, (i, *combo, o.verdict, o.trigger or "", o.summary["threshold"]["regime"],
                            o.t_reached, o.peak_max_u, o.min_min_v)))
            for i, (combo, o) in enumerate(zip(combos, outcomes))]
    result = SweepResult(rows=rows, outcomes=outcomes, cell_configs=[cfg for _, cfg in jobs])
    if out is not None:
        lines = [",".join(cols)] + [",".join(_fmt_cell(row[c]) for c in cols) for row in rows]
        csv_path = out / "sweep.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        result.csv_path = str(csv_path)
    return result


def _fmt_cell(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)

