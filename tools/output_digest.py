"""Digest of every CLI output byte over a fixed list of cases.

Runs each case through ``chemotaxsim.cli.main`` in a fresh temporary
directory and prints, per case, the exit code (or the type of an uncaught
exception), the number of warnings raised, and the SHA-256 of stdout, of
stderr (with the temporary path replaced by ``<tmp>``) and of each output
file.  Two trees whose digests match wrote the same bytes for every case.
Nothing is written outside the temporary directory.

Compare a change with its parent::

    git worktree add ../parent HEAD~1
    python tools/output_digest.py --src ../parent/src > parent.txt
    python tools/output_digest.py > change.txt
    diff parent.txt change.txt

``--src`` (default: this checkout's ``src``) is the package tree imported.
The whole list takes a few seconds.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

# a 32-cell 1D gaussian bump; each case adds its overrides
BASE_CFG = """
grid.dim=1
grid.cells=32
ic.kind=gaussian
run.t_end=0.2
run.diagnostics_every=0.02
"""

UNDERFLOW = ["ic.width=0.01", "ic.baseline=0"]

# name -> argv after the subcommand; "{cfg}" and "{out}" are filled per case
RUN = ["run", "{cfg}"]
SWEEP = ["sweep", "{cfg}", "run.t_end=0.05", "--axis", "chi=0.5,3", "--axis", "a_scale=0.5,2",
         "--outdir", "{out}"]
CASES = {
    "run_1d_snapshots_p_list": RUN + ["run.snapshot_every=0.05", "diagnostics.p_list=1,2,3.5"],
    "run_2d_snapshots": RUN + ["grid.dim=2", "grid.cells=12", "run.t_end=0.03",
                               "run.diagnostics_every=0.01", "run.snapshot_every=0.01",
                               "diagnostics.grad_p=1.5"],
    "run_3d_snapshots": RUN + ["grid.dim=3", "grid.cells=6", "run.t_end=0.02",
                               "run.diagnostics_every=0.01", "run.snapshot_every=0.01",
                               "diagnostics.grad_p=1.5"],
    # two cells per axis: the smallest grid, and a 1D one that the spectral path solves
    "run_line_2cells": RUN + ["grid.cells=2", "ic.center=0.3", "ic.baseline=0.2"],
    "run_two_records": RUN + ["run.t_end=0.01", "run.diagnostics_every=0.01"],
    # a(x, t) varies in x and t; its omega keeps every step off the replay path
    "run_coefficient_x_t": RUN + ["model.a.eps_x=0.3", "model.a.k=2", "model.a.eps_t=0.2",
                                  "model.a.omega=3"],
    # the same in 2D: the x profile is broadcast over the second axis on every step
    "run_coefficient_x_t_2d": RUN + ["grid.dim=2", "grid.cells=12", "run.t_end=0.03",
                                     "run.diagnostics_every=0.01", "model.a.eps_x=0.3",
                                     "model.a.omega=3"],
    # and in 3D, over the second and third axes
    "run_coefficient_x_t_3d": RUN + ["grid.dim=3", "grid.cells=6", "run.t_end=0.02",
                                     "run.diagnostics_every=0.01", "model.a.eps_x=0.3",
                                     "model.a.omega=3"],
    "run_growing": RUN + ["grid.cells=8", "model.chi=0", "model.a=2", "ic.kind=constant",
                          "ic.value=1e-3", "run.t_end=4", "run.diagnostics_every=0.1"],
    # settles on u = a/b bit for bit, so most late steps are replays
    "run_fixed_point_replay": RUN + ["grid.cells=8", "model.chi=2", "model.a=2", "ic.width=0.25",
                                     "ic.amplitude=0.5", "ic.baseline=0.5", "run.t_end=20",
                                     "run.diagnostics_every=1"],
    # a spike on cell 16 of 32 whose first step is retried at half the guard dt
    "run_positivity_retry": RUN + ["model.chi=0", "ic.center=0.515625", "ic.width=0.01",
                                   "ic.baseline=0", "ic.amplitude=100", "stepper.cfl_safety=1"],
    # a record every step: the file is written row by row from many records
    "run_dense_records": RUN + ["run.t_end=0.05", "run.diagnostics_every=1e-6",
                                "run.snapshot_every=0.01", "diagnostics.p_list=1,2,3.5"],
    # a 2D record every step: the grad_ratio column and grad_ratio_max over many rows
    "run_2d_dense_grad_ratio": RUN + ["grid.dim=2", "grid.cells=12", "run.t_end=0.1",
                                      "run.diagnostics_every=1e-6", "diagnostics.grad_p=1.5"],
    "trigger_u_ceiling": RUN + ["stepper.u_ceiling=0.5"],
    "trigger_v_floor_mid_run": RUN + ["stepper.v_floor=0.25", "model.chi=3", "model.a=0.1",
                                      "ic.baseline=0.05", "run.t_end=2"],
    "trigger_v_floor_t0": RUN + ["stepper.v_floor=1e3"],
    "trigger_dt_collapse": RUN + ["stepper.dt_min=1"],
    "underflow_mu_1e30": RUN + ["model.mu=1e30"] + UNDERFLOW,
    "underflow_mu_1e20": RUN + ["model.mu=1e20"] + UNDERFLOW,
    "solver_failure_tolerance": RUN + ["elliptic.rel_tolerance=1e-300", "ic.baseline=0.2"],
    "solver_failure_overflow": RUN + ["grid.cells=16", "model.nu=1e308", "ic.kind=constant",
                                      "ic.value=10"],
    # the same source on the cosine path
    "solver_failure_overflow_2d": RUN + ["grid.dim=2", "grid.cells=8", "model.nu=1e308",
                                         "ic.kind=constant", "ic.value=10"],
    # u**64 leaves float range, the norm does not
    "run_lp_large_p": RUN + ["grid.cells=8", "model.chi=0", "ic.kind=constant", "ic.value=1e5",
                             "diagnostics.p_list=2,64", "run.t_end=0.01",
                             "run.diagnostics_every=0.002"],
    "config_error": RUN + ["model.unknown=1"],
    "config_error_dt_min_inf": RUN + ["stepper.dt_min=inf"],
    "config_error_v_floor_inf": RUN + ["stepper.v_floor=inf"],
    "config_error_p_list_inf": RUN + ["diagnostics.p_list=2,inf"],
    # two exponents whose lp_{p:g} column names are the same
    "config_error_p_list_repeat": RUN + ["diagnostics.p_list=2,2.0000001"],
    # t_end/interval overflows, so a cadence point's index is not finite
    "config_error_cadence_overflow": RUN + ["run.diagnostics_every=1e-320"],
    # width**2 underflows to 0: the Gaussian divides by zero
    "config_error_ic_width_underflow": RUN + ["ic.width=1e-200"],
    "sweep_config_error_axis_value": ["sweep", "{cfg}", "--axis", "mu=1,-1", "--outdir", "{out}"],
    "sweep_config_error_workers_0": SWEEP + ["--workers", "0"],
    "sweep_workers_1": SWEEP + ["--workers", "1"],
    "sweep_workers_2": SWEEP + ["--workers", "2"],
    "regimes_threshold": ["regimes", "--chi", "2", "--mu", "1", "--a-inf", "2.1"],
    "regimes_mu_nan": ["regimes", "--chi", "1", "--mu", "nan", "--a-inf", "1"],
    "regimes_a_inf_inf": ["regimes", "--chi", "3", "--mu", "1", "--a-inf", "inf"],
    # the beta window is narrower than a nudge relative to beta_plus
    "regimes_large_chi": ["regimes", "--chi", "1e12", "--mu", "1", "--a-inf", "1e12"],
    "check": ["check"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(main, name: str, argv: list[str], root: Path) -> list[str]:
    """The digest lines of one case, run in its own directory under ``root``."""
    case_dir = root / name
    case_dir.mkdir()
    cfg = case_dir / "base.cfg"
    cfg.write_text(BASE_CFG)
    out = case_dir / "out"
    argv = [arg.format(cfg=cfg, out=out) for arg in argv]
    if argv[0] == "run":
        argv += ["--outdir", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
        except Exception as exc:  # an uncaught error is a result too
            code = type(exc).__name__
    lines = [f"{name} exit={code} warnings={len(caught)}"]
    for label, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
        lines.append(f"  {label} {_sha(text.replace(str(case_dir), '<tmp>').encode())}")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines.append(f"  {path.relative_to(out)} {_sha(path.read_bytes())}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the chemotaxsim package to digest")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(args.src).resolve()))
    from chemotaxsim.cli import main as cli_main

    with tempfile.TemporaryDirectory(prefix="output_digest_") as tmp:
        for name, case_argv in CASES.items():
            print("\n".join(run_case(cli_main, name, case_argv, Path(tmp))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
