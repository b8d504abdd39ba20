"""The four benchmark workloads, how one operation of each runs, and the
correctness rules every operation's output must pass.

Every workload runs in-process through ``chemotaxsim.engine``, one
operation at a time from a single process (a closed loop with one
client).  Why each workload exists is recorded in BENCHMARK.json.
"""
from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from chemotaxsim import engine
from chemotaxsim.engine import ICSpec, RunConfig
from chemotaxsim.mesh import Grid
from chemotaxsim.stepper import CoefficientSpec, ModelParams

import reference

WORKLOADS = ("cell1d_24", "field2d_64", "dense_output_256", "sweep16")

# criterion 07's sweep; its t_end=50 takes about 131 s on 2 CPUs, so the
# benchmark stops at t=5, the shortest horizon at which all 16 cells still
# classify as CompletedBounded with one record per unit time
SWEEP_AXES = [("chi", [0.5, 1.0, 2.0, 3.0]), ("a_scale", [0.1, 0.5, 1.0, 3.0])]
SWEEP_T_END = 5.0
SWEEP_WORKERS = 2

REFERENCES = Path(__file__).with_name("references.json")

_GAUSSIAN_1D = ICSpec(kind="gaussian", center=(0.5,), width=0.1,
                      amplitude=1.0, baseline=0.2)


def _params(chi: float, a: float) -> ModelParams:
    return ModelParams(chi, 1.0, 1.0, CoefficientSpec.constant(a),
                       CoefficientSpec.constant(1.0))


def make_config(name: str, seed: int) -> RunConfig:
    """The workload's fixed config; the seed goes to run.seed and ic.seed."""
    if name == "cell1d_24":
        return RunConfig(grid=Grid.line(1.0, 24), params=_params(3.0, 3.0),
                         ic=replace(_GAUSSIAN_1D, seed=seed),
                         t_end=50.0, diagnostics_every=1.0, seed=seed)
    if name == "field2d_64":
        ic = ICSpec(kind="gaussian", center=(0.5, 0.5), width=0.1,
                    amplitude=1.0, baseline=0.2, seed=seed)
        return RunConfig(grid=Grid.box(1.0, 1.0, 64, 64), params=_params(1.0, 1.0),
                         ic=ic, t_end=0.01, p_list=(2.0, 3.0), grad_p=1.5, seed=seed)
    if name == "dense_output_256":
        ic = ICSpec(kind="random", baseline=0.2, amplitude=1.0, seed=seed)
        return RunConfig(grid=Grid.line(1.0, 256), params=_params(1.0, 1.0), ic=ic,
                         t_end=0.02, diagnostics_every=1e-6, snapshot_every=3e-5,
                         p_list=(2.0, 3.0, 4.0), seed=seed)
    if name == "sweep16":
        # ic.seed stays unset so each cell derives its key from run.seed,
        # as in criterion 07
        return RunConfig(grid=Grid.line(1.0, 24), params=_params(1.0, 1.0),
                         ic=_GAUSSIAN_1D, t_end=SWEEP_T_END, diagnostics_every=1.0,
                         seed=seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def run_operation(name: str, config: RunConfig, outdir: Path) -> list[tuple]:
    """Run one operation; return one (label, outcome, outdir) per checked
    result: the run itself, or each cell of the sweep."""
    if name == "sweep16":
        result = engine.sweep(config, SWEEP_AXES, outdir=outdir, workers=SWEEP_WORKERS)
        return [(f"cell{i:02d}", outcome, Path(cfg.outdir))
                for i, (cfg, outcome) in enumerate(zip(result.cell_configs, result.outcomes))]
    return [(name, engine.run(config, outdir=outdir), outdir)]


def expected_results(name: str, config: RunConfig) -> tuple[float, list[dict]]:
    """(relative tolerance, one expectation per checked result).

    Stored references cover the Gaussian workloads, whose inputs do not
    depend on the seed.  The random-IC workload's final values come from
    the independent reference stepper, run on an IC drawn here from the
    seed by the package's documented rule (Philox keyed by the seed).
    """
    stored = json.loads(REFERENCES.read_text())
    tol = stored["rel_tolerance"]
    if name == "sweep16":
        return tol, stored[name]["cells"]
    expected = dict(stored[name])
    if name == "dense_output_256":
        grid, ic, p = config.grid, config.ic, config.params
        gen = np.random.Generator(np.random.Philox(key=ic.seed))
        u0 = ic.baseline + ic.amplitude * gen.uniform(0.0, 1.0, grid.shape)
        expected["final"] = reference.final_values(
            u0, grid.extents[0], p.chi, p.mu, p.nu, p.coeff_a.base,
            p.coeff_b.base, config.t_end, config.stepper.cfl_safety)
    return tol, [expected]


def _snapshot_count(outdir: Path) -> int:
    snapdir = outdir / "snapshots"
    return sum(1 for _ in snapdir.iterdir()) if snapdir.is_dir() else 0


def failures(outcome, outdir: Path, expected: dict, rel_tol: float) -> list[str]:
    """Reasons this result fails the correctness rules; empty if it passes."""
    reasons = []
    if outcome.verdict != expected["verdict"]:
        reasons.append(f"verdict {outcome.verdict}")
    if outcome.trigger is not None:
        reasons.append(f"trigger {outcome.trigger}")
    if not outcome.summary.get("mass_bound", {}).get("passed", False):
        reasons.append("mass bound not passed")
    if any(r.min_u < 0.0 or r.min_v <= 0.0 for r in outcome.records):
        reasons.append("a record has min_u < 0 or min_v <= 0")
    if len(outcome.records) != expected["records"]:
        reasons.append(f"{len(outcome.records)} records, expected {expected['records']}")
    snaps = _snapshot_count(outdir)
    if snaps != expected["snapshots"]:
        reasons.append(f"{snaps} snapshots, expected {expected['snapshots']}")
    if outcome.records:
        final = outcome.records[-1]
        for key, ref in expected["final"].items():
            got = getattr(final, key)
            if not abs(got - ref) <= rel_tol * abs(ref):
                reasons.append(f"final {key} {got!r} vs reference {ref!r}")
    return reasons
