import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chemotaxsim import diagnostics, engine, stepper
from chemotaxsim.engine import (ICSpec, RunConfig, build_ic, config_from_mapping,
                                load_config, parse_config_text, run, sweep)
from chemotaxsim.elliptic import solve_chemical
from chemotaxsim.errors import ConfigError
from chemotaxsim.mesh import Grid, read_snapshot
from chemotaxsim.regimes import boundedness_threshold, threshold
from chemotaxsim.stepper import CoefficientSpec, ModelParams, StepperConfig
from conftest import row_text

STEADY_TEXT = """
# steady state regression config
grid.dim=1
grid.cells=32
grid.extent=1.0
model.chi=1.0
model.mu=1.0
model.nu=1.0
model.a=1.0
model.b=1.0
run.t_end=0.5
run.diagnostics_every=0.05
ic.kind=constant
ic.value=1.0
"""


def quick_config(**kw):
    base = dict(grid=Grid.line(1.0, 24), t_end=0.5)
    base.update(kw)
    return RunConfig(**base)


# --- config parsing -----------------------------------------------------------

def test_parse_config_text_comments_and_blanks():
    kv = parse_config_text(STEADY_TEXT)
    assert kv["model.chi"] == "1.0"
    assert kv["grid.cells"] == "32"
    with pytest.raises(ConfigError):
        parse_config_text("not a key value line")


def test_config_from_mapping_and_unknown_keys():
    cfg = config_from_mapping(parse_config_text(STEADY_TEXT))
    assert cfg.grid.cells == (32,)
    assert cfg.params.chi == 1.0
    assert cfg.t_end == 0.5
    with pytest.raises(ConfigError):
        config_from_mapping({"model.xi": "1.0"})
    with pytest.raises(ConfigError):
        config_from_mapping({"model.chi": "not-a-number"})


# every config key, each set away from its default
ALL_KEYS = {
    "grid.dim": "2", "grid.cells": "8,6", "grid.extent": "1.0,2.0",
    "model.chi": "1.5", "model.mu": "2", "model.nu": "0.5",
    "model.a": "2.0", "model.a.eps_x": "0.3", "model.a.k": "-2", "model.a.eps_t": "0.2",
    "model.a.omega": "1.5", "model.b": "0.7", "model.b.eps_x": "0.1", "model.b.k": "3",
    "model.b.eps_t": "0.05", "model.b.omega": "2",
    "stepper.cfl_safety": "0.3", "stepper.dt_min": "1e-10", "stepper.u_ceiling": "1e6",
    "stepper.v_floor": "1e-9",
    "run.t_end": "0.3", "run.diagnostics_every": "0.05", "run.snapshot_every": "0.1",
    "run.seed": "17", "run.outdir": "somewhere",
    "ic.kind": "gaussian", "ic.value": "2", "ic.center": "0.4,0.6", "ic.width": "0.2",
    "ic.amplitude": "1.5", "ic.baseline": "0.1", "ic.seed": "99",
    "diagnostics.p_list": "2,3", "diagnostics.grad_p": "1.5",
}


def test_config_schema_defaults_fields_and_readme():
    assert config_from_mapping({}) == RunConfig()
    assert engine._KNOWN_KEYS == set(ALL_KEYS) and len(ALL_KEYS) == 34
    # each key sets the field its section names and nothing else in it
    def section(cfg, name):
        if name in ("coeff_a", "coeff_b"):
            return getattr(cfg.params, name)
        return cfg if name == "run" else getattr(cfg, name)

    for name, keys in engine._SECTION_KEYS.items():
        for key, field in keys.items():
            # grad_p is defined only below the grid dimension, so not on the 1D default
            base = {"grid.dim": "2"} if key == "diagnostics.grad_p" else {}
            default = section(config_from_mapping(base), name)
            got = section(config_from_mapping({**base, key: ALL_KEYS[key]}), name)
            assert getattr(got, field) != getattr(default, field), key
            assert replace(got, **{field: getattr(default, field)}) == default, key
    grid = config_from_mapping(ALL_KEYS).grid
    assert (grid.cells, grid.extents) == ((8, 6), (1.0, 2.0))
    # doc-drift guard: the README lists every key and counts them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [key for key in ALL_KEYS if f"`{key}`" not in readme] == []
    assert re.findall(r"The (\d+) keys", readme) == [str(len(engine._KNOWN_KEYS))]


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(STEADY_TEXT)
    cfg = load_config(path, overrides=["model.chi=2.5", "run.t_end=0.25"])
    assert cfg.params.chi == 2.5
    assert cfg.t_end == 0.25
    with pytest.raises(ConfigError):
        load_config(path, overrides=["model.chi"])


def test_separable_coefficient_from_config():
    kv = parse_config_text(STEADY_TEXT)
    kv["model.a"] = "2.0"
    kv["model.a.eps_x"] = "0.3"
    kv["model.a.k"] = "2"
    cfg = config_from_mapping(kv)
    assert cfg.params.coeff_a.eps_x == 0.3
    x = cfg.grid.centers(0)
    assert np.allclose(cfg.params.coeff_a.evaluate(cfg.grid, 0.0),
                       2.0 * (1.0 + 0.3 * np.cos(2.0 * np.pi * x)), rtol=1e-14, atol=0.0)
    assert cfg.params.coeff_a.sup == pytest.approx(2.6)
    assert cfg.params.coeff_a.inf == pytest.approx(1.4)


# --- initial conditions ---------------------------------------------------------

def test_build_ic_constant_and_gaussian():
    grid = Grid.line(1.0, 32)
    u = build_ic(grid, ICSpec(kind="constant", value=2.0))
    assert u.max() == 2.0
    g = build_ic(grid, ICSpec(kind="gaussian", center=(0.5,), width=0.1,
                              amplitude=1.0, baseline=0.2))
    assert g.min() >= 0.2
    assert g.max() <= 1.2 + 1e-12
    with pytest.raises(ConfigError):
        build_ic(grid, ICSpec(kind="gaussian", amplitude=-5.0, baseline=0.1))
    with pytest.raises(ConfigError):
        build_ic(grid, ICSpec(kind="constant", value=0.0))
    with pytest.raises(ConfigError, match="^unknown ic kind 'bogus'$"):
        ICSpec(kind="bogus")
    # a width whose square underflows: no cell center lies on the bump's
    # center on 32 cells (-r2/0 is -inf) and one does on 33 (0/0 is nan);
    # the check reports either without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cells, message in ((32, "carry positive mass"), (33, "be finite;")):
            with pytest.raises(ConfigError, match=f"^initial condition must {message}"):
                build_ic(Grid.line(1.0, cells), ICSpec(kind="gaussian", width=1e-200))


def test_build_ic_random_is_seed_deterministic():
    grid = Grid.line(1.0, 64)
    a = build_ic(grid, ICSpec(kind="random", baseline=0.5, amplitude=0.5, seed=7))
    b = build_ic(grid, ICSpec(kind="random", baseline=0.5, amplitude=0.5, seed=7))
    c = build_ic(grid, ICSpec(kind="random", baseline=0.5, amplitude=0.5, seed=8))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.min() >= 0.5


# --- run ------------------------------------------------------------------------

def test_steady_state_run_outputs(tmp_path):
    cfg = config_from_mapping(parse_config_text(STEADY_TEXT))
    outcome = run(cfg, outdir=tmp_path)
    assert outcome.verdict == "CompletedBounded"
    assert outcome.t_reached == pytest.approx(0.5, abs=1e-9)
    assert abs(outcome.peak_max_u - 1.0) <= 1e-6
    diag_path = Path(outcome.diagnostics_path)
    lines = diag_path.read_text().splitlines()
    assert lines[0].startswith("t,mass,min_u,max_u,min_v,max_v,rayleigh,log_mass")
    assert len(lines) >= 10
    summary = json.loads(Path(outcome.summary_path).read_text())
    assert summary["verdict"] == "CompletedBounded"
    assert summary["mass_bound"]["passed"] is True
    assert summary["threshold"]["satisfied"] is True
    assert summary["persistence"]["passed"] is True


def test_run_records_cadence_and_monitored_columns(tmp_path):
    cfg = quick_config(p_list=(2.0, 3.0), t_end=0.2, diagnostics_every=0.02)
    outcome = run(cfg, outdir=tmp_path)
    assert len(outcome.records) == 11  # t=0 plus ten cadence hits
    header = Path(outcome.diagnostics_path).read_text().splitlines()[0]
    assert "lp_2" in header and "lp_3" in header
    # threshold satisfied -> auto-monitored negative power column
    assert any(col.startswith("negpow_") for col in header.split(","))


def test_snapshots_written_when_enabled(tmp_path):
    cfg = quick_config(snapshot_every=0.1, t_end=0.3)
    run(cfg, outdir=tmp_path)
    snaps = sorted((tmp_path / "snapshots").glob("t*.field"))
    assert len(snaps) == 4  # t=0 plus three cadence hits


def test_run_writes_diagnostics_without_holding_the_file(tmp_path):
    # a record every step: 2,561 rows, a 0.67 MB file next to the records
    cfg = quick_config(grid=Grid.line(1.0, 32), ic=ICSpec(kind="gaussian", baseline=0.2),
                       diagnostics_every=1e-6, p_list=(1.0, 2.0, 3.5))
    run(cfg, outdir=tmp_path / "warm")
    tracemalloc.start()
    try:
        outcome = run(cfg, outdir=tmp_path / "out")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 0.5e6, (peak, held)
    neg_p = outcome.summary["monitored_neg_p"]
    # the outcome holds its records at 8 bytes a value, with room for the
    # array's growth and the summary
    rows = [",".join([*diagnostics.COLUMNS, "lp_1", "lp_2", "lp_3.5"]
                     + [f"negpow_{p:g}" for p in neg_p])]
    width = len(rows[0].split(","))
    assert held <= 1.5 * 8 * width * len(outcome.records), (held, width, len(outcome.records))
    rows += [row_text(r, outcome.records.names) for r in outcome.records]
    assert Path(outcome.diagnostics_path).read_text() == "\n".join(rows) + "\n"


def test_every_record_pairs_u_with_its_own_v(tmp_path):
    params = ModelParams(3.0, 1.0, 1.0, CoefficientSpec.constant(1.0),
                         CoefficientSpec.constant(1.0))
    cfg = quick_config(grid=Grid.line(1.0, 32), params=params, t_end=0.2,
                       ic=ICSpec(kind="random", baseline=0.5, amplitude=1.0, seed=5),
                       diagnostics_every=0.02, snapshot_every=0.02)
    outcome = run(cfg, outdir=tmp_path)
    snaps = {t: u for u, t in map(read_snapshot, (tmp_path / "snapshots").glob("t*.field"))}
    assert len(snaps) == len(outcome.records) == 11
    for rec in outcome.records:
        v = solve_chemical(snaps[rec.t], params.mu, params.nu)
        assert (rec.min_v, rec.max_v) == (v.min(), v.max())


def capture_states(monkeypatch):
    """The list of states engine.run starts from; it advances each in place."""
    states = []

    def initial_state(*args):
        states.append(stepper.initial_state(*args))
        return states[-1]
    monkeypatch.setattr(engine, "initial_state", initial_state)
    return states


def test_run_through_a_fixed_point_matches_full_steps(monkeypatch):
    # the bump settles on u = a/b bitwise near step 5,200 of 6,400; the run
    # replays the steps after it, the hand loop runs each in full on a copy
    params = ModelParams(2.0, 1.0, 1.0, CoefficientSpec.constant(2.0),
                         CoefficientSpec.constant(1.0))
    cfg = quick_config(grid=Grid.line(1.0, 8), params=params, t_end=20.0,
                       ic=ICSpec(kind="gaussian", width=0.25, amplitude=0.5, baseline=0.5))
    states, solves = capture_states(monkeypatch), []

    def solve(*args):
        solves.append(args)
        return solve_chemical(*args)
    monkeypatch.setattr(stepper, "solve_chemical", solve)
    outcome = run(cfg)
    [final] = states
    assert len(solves) < 0.9 * outcome.steps

    state = stepper.initial_state(build_ic(cfg.grid, cfg.ic), params)
    peak, low = state.u.max(), state.v.min()
    eps_t = 1e-12 * cfg.t_end
    while cfg.t_end - state.t > eps_t:
        state = stepper.advance(replace(state, u=state.u.copy(), v=state.v.copy()),
                                dt_cap=cfg.t_end - state.t)
        peak, low = max(peak, state.u.max()), min(low, state.v.min())
    for got, want in ((final.u, state.u), (final.v, state.v)):
        assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
    assert (final.t, outcome.t_reached, outcome.steps) == (state.t, state.t, state.step)
    assert (final.u_max, final.v_min) == (state.u.max(), state.v.min())
    assert (outcome.peak_max_u, outcome.min_min_v) == (peak, low)


def test_trigger_fidelity_v_floor(tmp_path, monkeypatch):
    # the chemical minimum decays through the floor near t = 1.04; the run
    # stops at the last pair that cleared it
    params = ModelParams(3.0, 1.0, 1.0, CoefficientSpec.constant(0.1),
                         CoefficientSpec.constant(1.0))
    cfg = quick_config(grid=Grid.line(1.0, 32), params=params, t_end=2.0,
                       ic=ICSpec(kind="gaussian", baseline=0.05),
                       stepper=StepperConfig(v_floor=0.25))
    states = capture_states(monkeypatch)
    outcome = run(cfg, outdir=tmp_path)
    assert outcome.verdict == "NumericalBlowUpSuspected"
    assert outcome.trigger == "v_floor"
    assert 1.0 < outcome.t_reached < 1.1
    [final] = states
    assert (final.t, final.step) == (outcome.t_reached, outcome.steps)
    assert final.v_min == final.v.min() >= cfg.stepper.v_floor
    assert np.array_equal(final.v.values, solve_chemical(final.u, 1.0, 1.0).values)
    assert all(r.min_v >= cfg.stepper.v_floor for r in outcome.records)
    summary = json.loads(Path(outcome.summary_path).read_text())
    assert summary["trigger"] == "v_floor"
    assert summary["persistence"]["passed"] is False


def test_trigger_fidelity_u_ceiling():
    cfg = quick_config(stepper=StepperConfig(u_ceiling=0.5))
    outcome = run(cfg)
    assert outcome.verdict == "NumericalBlowUpSuspected"
    assert outcome.trigger == "u_ceiling"


def test_trigger_fidelity_dt_collapse():
    cfg = quick_config(stepper=StepperConfig(dt_min=1.0))
    outcome = run(cfg)
    assert outcome.trigger == "dt_collapse"


def test_growing_classification():
    # logistic growth from a low start over a short horizon grows through
    # the middle third; the trend heuristic must call it growing
    cfg = quick_config(
        ic=ICSpec(kind="constant", value=1e-3),
        t_end=4.0,
        params=ModelParams(0.0, 1.0, 1.0, CoefficientSpec.constant(2.0),
                           CoefficientSpec.constant(1.0)),
    )
    outcome = run(cfg)
    assert outcome.verdict == "CompletedGrowing"
    assert outcome.trigger is None


def test_2d_run_smoke(tmp_path):
    # the 8^3 run covers the same path in 3D
    for grid in (Grid.box(1.0, 1.0, 12, 12), Grid((1.0,) * 3, (8,) * 3)):
        cfg = RunConfig(grid=grid, t_end=0.05,
                        ic=ICSpec(kind="gaussian", center=(0.5,), width=0.15,
                                  amplitude=1.0, baseline=0.2),
                        grad_p=1.5)
        outcome = run(cfg, outdir=tmp_path / f"dim{grid.dim}")
        # the file is the series' names, then each record's "%.17g" row, grad_ratio
        # column included
        neg_p = outcome.summary["monitored_neg_p"]
        header, *rows = Path(outcome.diagnostics_path).read_text().splitlines()
        assert header == ",".join([*diagnostics.COLUMNS, "lp_2"] + [
            f"negpow_{p:g}" for p in neg_p] + ["grad_ratio_1.5"])
        assert header.split(",") == list(outcome.records.names)
        assert header.endswith(",grad_ratio_1.5") and len(rows) == len(outcome.records) > 40
        assert rows == [row_text(outcome.records[i], header.split(","))
                        for i in range(len(outcome.records))]
        assert outcome.verdict in ("CompletedBounded", "CompletedGrowing")
        ratios = [getattr(r, "grad_ratio_1.5") for r in outcome.records]
        # the gradient/Lp ratio monitor stays finite and positive over the
        # run and its peak lands in the summary
        assert all(0.0 < g < math.inf for g in ratios)
        assert outcome.summary["grad_ratio_max"] == max(ratios) >= ratios[-1]
        # the Rayleigh-type bound holds in 2D and 3D as well
        bound = cfg.params.mu * cfg.grid.measure
        assert all(r.rayleigh <= bound * 1.05 for r in outcome.records)


IMPORT_PROBE = """
import sys
import chemotaxsim.cli
from chemotaxsim.engine import ICSpec, RunConfig, run
from chemotaxsim.mesh import Grid
blob = ICSpec(kind="gaussian", center=(0.5, 0.5), width=0.15, baseline=0.2)
for grid, ic in ((Grid.line(1.0, 24), ICSpec()), (Grid.box(1.0, 1.0, 12, 12), blob)):
    assert run(RunConfig(grid=grid, ic=ic, t_end=0.01)).verdict == "CompletedBounded"
print(sorted(m for m in sys.modules if m == "scipy.fft" or m.startswith("scipy.fft.")))
"""


def test_runs_do_not_import_scipy_fft():
    # the 2D solve needs only numpy matmuls; scipy.fft would add
    # start-up time and resident memory to every run and sweep worker
    src = str(Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_classify_tail_trend_heuristic():
    # _classify reads the max_u column
    assert engine._classify([1.0] * 12) == "CompletedBounded"
    settling = [2.0, 1.5, 1.2, 1.1, 1.05, 1.02, 1.01, 1.0, 1.0]
    assert engine._classify(settling) == "CompletedBounded"
    growing = [1.0 * 1.2 ** i for i in range(12)]
    assert engine._classify(growing) == "CompletedGrowing"
    # ratio within factor on a slow drift
    slow = [1.0 + 0.001 * i for i in range(12)]
    assert engine._classify(slow) == "CompletedBounded"
    # one or two records: the thirds compare the last max_u with the first
    assert engine._classify([1.0]) == "CompletedBounded"
    assert engine._classify([1.0, 1.2]) == "CompletedGrowing"
    assert engine._classify([1.0, 1.05]) == "CompletedBounded"


def test_summary_log_mass_slope_minimum():
    # min_slope is the first of equal minima over the finite slopes between
    # records at distinct t; c_obs is None when no slope is finite
    cfg = quick_config()
    thr = boundedness_threshold(1.0, 1.0, 1.0)

    def trend(t, log_mass):
        records = diagnostics.RecordSeries(cfg.p_list, (), None)
        for t_i, lm in zip(t, log_mass):
            records.append([t_i, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, lm, 1.0, 1.0])
        outcome = engine.RunOutcome(engine.VERDICT_BOUNDED, None, None, t[-1], len(t),
                                    1.0, 1.0, records)
        found = engine._summarize(cfg, outcome, (), thr)["log_mass_trend"]
        return found["min_slope"], found["c_obs"]

    # slopes -0.0 then 0.0, and 0.0 then -0.0: the first is kept
    slope, c_obs = trend([0.0, 1.0, 2.0], [0.0, -0.0, 0.0])
    assert (slope, math.copysign(1.0, slope), c_obs) == (0.0, -1.0, 0.0)
    slope, c_obs = trend([0.0, 1.0, 2.0], [-0.0, 0.0, -0.0])
    assert (slope, math.copysign(1.0, slope), c_obs) == (0.0, 1.0, 0.0)
    # a repeated t (slope -8/0), a slope of -inf into a -inf log_mass and
    # one of inf out of it are skipped
    assert trend([0.0, 1.0, 1.0, 2.0, 3.0, 4.0],
                 [0.0, -1.0, -9.0, -10.5, -math.inf, -13.0]) == (-1.5, 1.5)
    for t, log_mass in (([0.0], [0.0]), ([0.0, 0.0], [0.0, -1.0]),
                        ([0.0, 1.0, 2.0], [-math.inf] * 3)):
        assert trend(t, log_mass) == (None, None), (t, log_mass)


def test_persistence_trend_in_decaying_mass_regime():
    # weak growth pulls the mass down toward a small equilibrium; the
    # self-referential floor (half the first-half minimum) must still hold
    # over the second half
    cfg = quick_config(
        params=ModelParams(0.5, 1.0, 1.0, CoefficientSpec.constant(0.1),
                           CoefficientSpec.constant(1.0)),
        ic=ICSpec(kind="constant", value=1.0),
        t_end=30.0,
        diagnostics_every=0.5,
    )
    outcome = run(cfg)
    assert outcome.verdict == "CompletedBounded"
    persistence = outcome.summary["persistence"]
    assert persistence["passed"] is True
    assert persistence["min_mass"] >= persistence["mass_floor"] > 0.0
    assert persistence["min_min_v"] >= persistence["v_floor"] > 0.0
    # mass really did decay substantially
    assert outcome.records[-1].mass < 0.2 * outcome.records[0].mass


# --- exact similarities ---------------------------------------------------------

def similarity_config(dim, cells, nu=1.0, lam=1.0):
    """chi = 3 with a(x, t) and b(x, t) on a random IC over [0, lam]^dim: lam
    scales x by lam, and t, the cadence and 1/(mu, a, b, both omegas) by lam^2."""
    s = lam ** -2
    a = CoefficientSpec(3.0 * s, eps_x=0.3, mode_k=2.0, eps_t=0.2, omega=3.0 * s)
    b = CoefficientSpec(1.0 * s, eps_x=-0.2, eps_t=0.3, omega=5.0 * s)
    return RunConfig(grid=Grid((lam,) * dim, (cells,) * dim),
                     params=ModelParams(3.0, s, nu, a, b),
                     ic=ICSpec(kind="random", baseline=0.5, amplitude=1.0, seed=7),
                     t_end=0.05 / s, diagnostics_every=0.005 / s, p_list=(1.5, 2.0, 3.0))


def column(outcome, name):
    """One column of a run's records as float64, or ``"lp"``: every L^p norm."""
    records = outcome.records
    if name == "lp":
        return np.column_stack([records.column(n) for n in records.names if n.startswith("lp_")])
    return np.asarray(records.column(name))


U_COLUMNS = ("mass", "min_u", "max_u", "lp")
V_COLUMNS = ("min_v", "max_v", "v_ratio")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim, cells", [(1, 24), (2, 12), (3, 6)], ids=["1d", "2d", "3d"])
def test_nu_and_parabolic_scaling_hold_bit_for_bit(dim, cells):
    # the drift reads v only through grad(v)/v, so nu -> k*nu scales v by k and
    # leaves u alone; x -> lam*x, t -> lam^2*t with mu, a, b and omega over
    # lam^2 maps solutions to solutions with v scaled by lam^2.  For powers of
    # two every float operation of the scheme scales exactly, in any dimension
    base = run(similarity_config(dim, cells))
    assert base.verdict == engine.VERDICT_BOUNDED and len(base.records) == 11

    def assert_scaled(outcome, factors):
        assert (outcome.verdict, outcome.steps) == (base.verdict, base.steps)
        for name, factor in factors.items():
            assert column(outcome, name).tobytes() == (factor * column(base, name)).tobytes(), name

    for nu in (2.0, 0.25, 1024.0, 2.0 ** 900):
        unchanged = dict.fromkeys(("t", "rayleigh", "log_mass") + U_COLUMNS, 1.0)
        assert_scaled(run(similarity_config(dim, cells, nu=nu)),
                      {**unchanged, **dict.fromkeys(V_COLUMNS, nu)})
    for lam in (2.0, 0.5, 8.0):
        assert_scaled(run(similarity_config(dim, cells, lam=lam)),
                      {"min_u": 1.0, "max_u": 1.0, "t": lam ** 2, "min_v": lam ** 2,
                       "max_v": lam ** 2, "mass": lam ** dim, "log_mass": lam ** dim,
                       "rayleigh": lam ** (dim - 2), "v_ratio": lam ** (2 - dim)})
    # nu = 3 is no power of two, so every solve rounds anew.  Measured: within
    # 8.9e-16 relative on t and u's and v's columns, and 2.8e-13 on rayleigh,
    # whose gradient of a nearly flat v cancels; the bounds leave 3.5-4.5x
    third = run(similarity_config(dim, cells, nu=3.0))
    assert third.steps == base.steps
    for names, factor, bound in ((("t",) + U_COLUMNS, 1.0, 4e-15), (V_COLUMNS, 3.0, 4e-15),
                                 (("rayleigh",), 1.0, 1e-12)):
        for name in names:
            np.testing.assert_allclose(column(third, name), factor * column(base, name),
                                       rtol=bound, atol=0.0, err_msg=name)


# --- sweep ----------------------------------------------------------------------

def sweep_template(n=16, t_end=0.4):
    return RunConfig(grid=Grid.line(1.0, n), t_end=t_end,
                     ic=ICSpec(kind="random", baseline=0.4, amplitude=0.6),
                     seed=42)


def test_single_point_sweep_matches_run(tmp_path):
    template = sweep_template()
    result = sweep(template, [("chi", [1.5])], outdir=tmp_path / "sw", workers=1)
    assert len(result.rows) == 1
    direct = run(result.cell_configs[0])
    row = result.rows[0]
    assert row["verdict"] == direct.verdict
    assert row["peak_max_u"] == pytest.approx(direct.peak_max_u, rel=1e-12)
    assert row["min_min_v"] == pytest.approx(direct.min_min_v, rel=1e-12)


def test_sweep_rows_and_regime_labels(tmp_path):
    template = sweep_template()
    result = sweep(template, [("chi", [0.5, 3.0]), ("a_scale", [0.1, 3.0])],
                   outdir=tmp_path / "sw", workers=1)
    assert len(result.rows) == 4
    for row in result.rows:
        thr = threshold(row["chi"], 1.0)
        expected = "above_threshold" if row["a_scale"] * 1.0 > thr else (
            "boundary" if row["a_scale"] * 1.0 == thr else "below_threshold")
        assert row["regime"] == expected
    csv = Path(result.csv_path).read_text().splitlines()
    assert csv[0] == "cell,chi,a_scale,verdict,trigger,regime,t_reached,peak_max_u,min_min_v"
    assert len(csv) == 5


def test_sweep_deterministic_across_workers_and_order(tmp_path):
    template = sweep_template(n=12, t_end=0.2)
    axes = [("chi", [0.5, 2.0]), ("mu", [1.0, 2.0])]
    r1 = sweep(template, axes, outdir=tmp_path / "a", workers=1)
    r2 = sweep(template, axes, outdir=tmp_path / "b", workers=2)
    assert Path(r1.csv_path).read_bytes() == Path(r2.csv_path).read_bytes()
    # a cell's bytes depend on its config alone: rerun in another order, in-process
    for i in (3, 1, 2, 0):
        cell = f"c{i:03d}"
        rerun = run(r1.cell_configs[i], outdir=tmp_path / "c" / cell)
        d1 = (tmp_path / "a" / "cells" / cell / "diagnostics.csv").read_bytes()
        d2 = (tmp_path / "b" / "cells" / cell / "diagnostics.csv").read_bytes()
        assert d1 == d2 == Path(rerun.diagnostics_path).read_bytes()
        assert rerun.verdict == r1.rows[i]["verdict"]


def test_2d_sweep_deterministic_across_workers(tmp_path):
    # the 2D chemical solve runs through BLAS matmuls, which may use threads;
    # the worker count must still not move a byte
    template = replace(sweep_template(t_end=0.1), grid=Grid.box(1.0, 1.0, 8, 8))
    axes = [("chi", [0.5, 2.0])]
    r1 = sweep(template, axes, outdir=tmp_path / "a", workers=1)
    r2 = sweep(template, axes, outdir=tmp_path / "b", workers=2)
    assert Path(r1.csv_path).read_bytes() == Path(r2.csv_path).read_bytes()
    for cell in ("c000", "c001"):
        d1 = (tmp_path / "a" / "cells" / cell / "diagnostics.csv").read_bytes()
        d2 = (tmp_path / "b" / "cells" / cell / "diagnostics.csv").read_bytes()
        assert d1 == d2 and d1.count(b"\n") > 2


def test_sweep_pool_is_capped_at_the_cell_count(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
    template = sweep_template(n=8, t_end=0.01)
    result = sweep(template, [("chi", [0.5, 2.0])], outdir=tmp_path / "two", workers=64)
    assert sizes == [2] and len(result.rows) == 2
    sweep(template, [("chi", [0.5])], outdir=tmp_path / "one", workers=64)
    assert sizes == [2]


def test_sweep_rejects_unknown_axis(tmp_path):
    with pytest.raises(ConfigError):
        sweep(sweep_template(), [("nu", [1.0])], outdir=tmp_path)
    # a repeated axis would collapse onto its last values
    with pytest.raises(ConfigError, match="distinct"):
        sweep(sweep_template(), [("chi", [0.5]), ("chi", [3.0])], outdir=tmp_path)
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_records_per_cell_failures(tmp_path):
    template = sweep_template(n=12, t_end=0.2)
    bad = RunConfig(grid=template.grid, t_end=0.2, ic=template.ic, seed=42,
                    stepper=StepperConfig(u_ceiling=1e-3))
    result = sweep(bad, [("chi", [0.5, 1.0])], outdir=tmp_path, workers=1)
    assert all(r["verdict"] == "NumericalBlowUpSuspected" for r in result.rows)
    assert all(r["trigger"] == "u_ceiling" for r in result.rows)


def test_run_and_sweep_write_where_the_config_says(tmp_path, monkeypatch):
    # one rule for both: an explicit outdir wins, else the config's outdir,
    # and with neither no file is written
    monkeypatch.chdir(tmp_path)
    template = replace(sweep_template(n=8, t_end=0.05), outdir=str(tmp_path / "x"))
    assert run(template).diagnostics_path == str(tmp_path / "x" / "diagnostics.csv")
    result = sweep(template, [("chi", [0.5, 1.0])], workers=1)
    assert result.csv_path == str(tmp_path / "x" / "sweep.csv")
    assert [cfg.outdir for cfg in result.cell_configs] == [
        str(tmp_path / "x" / "cells" / f"c{i:03d}") for i in range(2)]
    assert all((tmp_path / "x" / "cells" / f"c{i:03d}" / "diagnostics.csv").exists()
               for i in range(2))
    result = sweep(template, [("chi", [0.5])], outdir=tmp_path / "y", workers=1)
    assert result.csv_path == str(tmp_path / "y" / "sweep.csv")
    assert (tmp_path / "y" / "cells" / "c000" / "summary.json").exists()
    assert len(list((tmp_path / "x" / "cells").iterdir())) == 2
    bare = replace(template, outdir=None)
    assert run(bare).diagnostics_path is None
    assert sweep(bare, [("chi", [0.5])], workers=1).csv_path is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x", "y"]


def test_time_dependent_logistic_oracle_in_dims_1_to_4():
    # with chi = 0 and a constant start every cell follows u' = u(a(t) - b(t)u),
    # which is linear in 1/u: 1/u = e^{-A}[1/u0 + int_0^t b e^{A}], with
    # A(t) = t + (1 - cos 3t)/6 for a = 1 + 0.5 sin 3t.  Forward Euler's error is
    # C*dt with one C in every dimension: 0.591 on each grid here, bounded by 0.65.
    # eps_x stays 0, or the cells would stop following one ODE
    from scipy.integrate import quad

    def A(t):
        return t + (1.0 - math.cos(3.0 * t)) / 6.0

    def exact(t):
        integral = quad(lambda s: (1.0 + 0.3 * math.sin(5.0 * s)) * math.exp(A(s)), 0.0, t,
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return math.exp(A(t)) / (1.0 / 0.1 + integral)

    params = ModelParams(0.0, 1.0, 1.0, CoefficientSpec(1.0, eps_t=0.5, omega=3.0),
                         CoefficientSpec(1.0, eps_t=0.3, omega=5.0))
    errors = {}
    for grid in (Grid.line(1.0, 8), Grid.line(1.0, 16), Grid.box(1.0, 1.0, 8, 8),
                 Grid((1.0,) * 3, (4,) * 3), Grid((1.0,) * 4, (4,) * 4)):
        outcome = run(RunConfig(grid=grid, params=params, ic=ICSpec(kind="constant", value=0.1),
                                t_end=5.0, diagnostics_every=0.5))
        assert outcome.failure is None and outcome.t_reached == pytest.approx(5.0, abs=1e-9)
        records = outcome.records
        assert len(records) == 11
        worst = max(max(abs(r.max_u - u), abs(r.min_u - u)) / u
                    for r, u in zip(records, map(exact, records.column("t"))))
        errors[grid.cells] = worst
        assert worst <= 0.65 * (outcome.t_reached / outcome.steps), grid.cells
    # dt is proportional to h^2 in 1D, so halving h quarters the error
    assert 3.6 <= errors[(8,)] / errors[(16,)] <= 4.4
