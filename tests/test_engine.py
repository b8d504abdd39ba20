import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chemotaxsim import engine
from chemotaxsim.engine import (ICSpec, RunConfig, build_ic, config_from_mapping,
                                load_config, parse_config_text, run, sweep)
from chemotaxsim.elliptic import solve_chemical
from chemotaxsim.errors import ConfigError
from chemotaxsim.mesh import Grid, read_snapshot
from chemotaxsim.regimes import threshold
from chemotaxsim.stepper import CoefficientSpec, ModelParams, StepperConfig

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
    "stepper.v_floor": "1e-9", "elliptic.rel_tolerance": "1e-9",
    "run.t_end": "0.3", "run.diagnostics_every": "0.05", "run.snapshot_every": "0.1",
    "run.seed": "17", "run.classify_factor": "1.2", "run.outdir": "somewhere",
    "ic.kind": "gaussian", "ic.value": "2", "ic.center": "0.4,0.6", "ic.width": "0.2",
    "ic.amplitude": "1.5", "ic.baseline": "0.1", "ic.seed": "99",
    "diagnostics.p_list": "2,3", "diagnostics.neg_p_list": "1,2", "diagnostics.grad_p": "1.5",
    "diagnostics.auto_neg_p": "false",
}


def test_config_schema_defaults_fields_and_readme():
    assert config_from_mapping({}) == RunConfig()
    assert engine._KNOWN_KEYS == set(ALL_KEYS) and len(ALL_KEYS) == 38
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
    # doc-drift guard: the README lists every key
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [key for key in ALL_KEYS if f"`{key}`" not in readme] == []


def test_config_booleans_are_strict():
    for text, value in (("1", True), ("TRUE", True), ("Yes", True),
                        ("0", False), ("false", False), ("NO", False)):
        assert config_from_mapping({"diagnostics.auto_neg_p": text}).auto_neg_p is value
    for text in ("ture", "", "2", "on"):
        with pytest.raises(ConfigError, match="boolean"):
            config_from_mapping({"diagnostics.auto_neg_p": text})


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


def test_trigger_fidelity_v_floor(tmp_path):
    cfg = quick_config(stepper=StepperConfig(v_floor=1e3))
    outcome = run(cfg, outdir=tmp_path)
    assert outcome.verdict == "NumericalBlowUpSuspected"
    assert outcome.trigger == "v_floor"
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


def test_2d_run_smoke():
    # the 8^3 run covers the same path in 3D
    for grid in (Grid.box(1.0, 1.0, 12, 12), Grid((1.0,) * 3, (8,) * 3)):
        cfg = RunConfig(grid=grid, t_end=0.05,
                        ic=ICSpec(kind="gaussian", center=(0.5,), width=0.15,
                                  amplitude=1.0, baseline=0.2),
                        grad_p=1.5)
        outcome = run(cfg)
        assert outcome.verdict in ("CompletedBounded", "CompletedGrowing")
        assert outcome.records[-1].grad_ratio is not None
        assert outcome.records[-1].grad_ratio > 0.0
        # the gradient/Lp ratio monitor stays finite over the run and its peak
        # lands in the summary
        assert all(r.grad_ratio is not None and r.grad_ratio > 0.0
                   for r in outcome.records)
        assert outcome.summary["grad_ratio_max"] >= outcome.records[-1].grad_ratio
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
    # numpy.fft does the 2D solve and is loaded anyway; scipy.fft would add
    # start-up time and resident memory to every run and sweep worker
    src = str(Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def _fake_records(maxes):
    from chemotaxsim.diagnostics import DiagnosticsRecord
    return [DiagnosticsRecord(t=float(i), mass=1.0, min_u=0.1, max_u=m,
                              min_v=0.5, max_v=1.0, rayleigh=0.0,
                              log_mass=0.0, v_ratio=0.5)
            for i, m in enumerate(maxes)]


def test_classify_tail_trend_heuristic():
    flat = _fake_records([1.0] * 12)
    assert engine._classify(flat, 1.1) == "CompletedBounded"
    settling = _fake_records([2.0, 1.5, 1.2, 1.1, 1.05, 1.02, 1.01, 1.0, 1.0])
    assert engine._classify(settling, 1.1) == "CompletedBounded"
    growing = _fake_records([1.0 * 1.2 ** i for i in range(12)])
    assert engine._classify(growing, 1.1) == "CompletedGrowing"
    # ratio within factor on a slow drift
    slow = _fake_records([1.0 + 0.001 * i for i in range(12)])
    assert engine._classify(slow, 1.1) == "CompletedBounded"
    tiny = _fake_records([1.0, 1.05])
    assert engine._classify(tiny, 1.1) == "CompletedBounded"


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
    r3 = sweep(template, axes, outdir=tmp_path / "c", workers=1,
               order=[3, 1, 2, 0])
    bytes1 = Path(r1.csv_path).read_bytes()
    assert bytes1 == Path(r2.csv_path).read_bytes()
    assert bytes1 == Path(r3.csv_path).read_bytes()
    for cell in ("c000", "c003"):
        d1 = (tmp_path / "a" / "cells" / cell / "diagnostics.csv").read_bytes()
        d2 = (tmp_path / "b" / "cells" / cell / "diagnostics.csv").read_bytes()
        d3 = (tmp_path / "c" / "cells" / cell / "diagnostics.csv").read_bytes()
        assert d1 == d2 == d3


def test_sweep_rejects_unknown_axis(tmp_path):
    with pytest.raises(ConfigError):
        sweep(sweep_template(), [("nu", [1.0])], outdir=tmp_path)


def test_sweep_records_per_cell_failures(tmp_path):
    template = sweep_template(n=12, t_end=0.2)
    bad = RunConfig(grid=template.grid, t_end=0.2, ic=template.ic, seed=42,
                    stepper=StepperConfig(u_ceiling=1e-3))
    result = sweep(bad, [("chi", [0.5, 1.0])], outdir=tmp_path, workers=1)
    assert all(r["verdict"] == "NumericalBlowUpSuspected" for r in result.rows)
    assert all(r["trigger"] == "u_ceiling" for r in result.rows)
