"""Best-of-N cost of one full explicit step, of one elliptic solve and of
one diagnostics record.

    python tools/step_cost.py [--src DIR ...]

Each ``--src`` (default: this checkout's ``src``) is a directory holding a
chemotaxsim package.  Every tree is imported into the same process under
its own module objects, and the timing rounds alternate between the trees,
so that load on a shared host falls on all of them alike; many short
rounds (ROUNDS of about ROUND_S seconds each) ride out bursts of load better
than a few long ones.  Per case the table gives, per tree, the best of the
rounds' mean microseconds per call, and for each tree after the first its
ratio to the first.

A full step is ``stepper.advance`` on one fixed state that is not a
fixed point: before every call the state's u, v, extrema and time are put
back, so every call builds the drift, proposes dt, updates, solves and
checks, and none replays.  Cases: a 24-cell line with criterion 07's
chi=3, a=3 (one benchmark cell), the same cell with a time-dependent
a(x, t) = 3*(1 + 0.3*cos(2*pi*x))*(1 + 0.2*sin(3*t)) (``line24_xt``), a
256-cell line and a 64x64 box, each with a Gaussian bump;
``solve_chemical`` is timed on the same densities.
``compute_record`` is timed on the 256-cell line's state with
dense_output_256's ``p_list`` (2, 3, 4) and negative power 8.

Compare a change with its parent::

    git worktree add ../parent HEAD~1
    python tools/step_cost.py --src ../parent/src --src src
"""
from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

PACKAGE = "chemotaxsim"
ROUNDS = 15  # timing rounds per tree and case
ROUND_S = 0.05  # approximate seconds per round, which sets the calls per round
CASES = (("line24", (1.0,), (24,), 3.0, 3.0),  # name, extents, cells, chi, a
         ("line256", (1.0,), (256,), 1.0, 1.0),
         ("box64x64", (1.0, 1.0), (64, 64), 1.0, 1.0))
# the line24 cell again with a time-dependent a(x, t), evaluated on every step
XT_CASE, XT_A = "line24", dict(base=3.0, eps_x=0.3, mode_k=2.0, eps_t=0.2, omega=3.0)
RECORD_CASE = "line256"  # dense_output_256 records every step with these exponents
RECORD_P_LIST, RECORD_NEG_P_LIST = (2.0, 3.0, 4.0), (8.0,)


def import_tree(src: str) -> dict:
    """The stepper, elliptic, mesh and diagnostics modules of the package
    under ``src``, imported afresh; the package is dropped from sys.modules
    afterwards, so the next tree imports its own."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        from chemotaxsim import diagnostics, elliptic, mesh, stepper
    finally:
        del sys.path[0]
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
    return {"stepper": stepper, "elliptic": elliptic, "mesh": mesh, "diagnostics": diagnostics}


def make_callables(tree: dict) -> dict:
    """Per case name, a function ``f(n)`` that makes n calls and returns the
    mean seconds per call."""
    stepper, elliptic, mesh = tree["stepper"], tree["elliptic"], tree["mesh"]
    out = {}
    for name, extents, cells, chi, a in CASES:
        grid = mesh.Grid(extents, cells)
        r2 = sum((x - 0.5) ** 2 for x in grid.coordinate_fields())
        u = mesh.ScalarField(grid, 0.2 + np.exp(-r2 / (2.0 * 0.1 ** 2)))
        params = stepper.ModelParams(chi, 1.0, 1.0, stepper.CoefficientSpec.constant(a),
                                     stepper.CoefficientSpec.constant(1.0))
        state = stepper.initial_state(u, params)
        out[f"step {name}"] = _step_loop(stepper.advance, state)
        if name == XT_CASE:
            xt = replace(params, coeff_a=stepper.CoefficientSpec(**XT_A))
            out[f"step {name}_xt"] = _step_loop(stepper.advance, stepper.initial_state(u, xt))
        out[f"solve {name}"] = _call_loop(elliptic.solve_chemical, u, 1.0, 1.0)
        if name == RECORD_CASE:
            out[f"record {name}"] = _call_loop(tree["diagnostics"].compute_record, state.u,
                                               state.v, 0.0, RECORD_P_LIST, RECORD_NEG_P_LIST)
    return out


def _step_loop(advance, state):
    u, v, u_max, v_min = state.u, state.v, state.u_max, state.v_min

    def loop(n: int) -> float:
        clock = time.perf_counter
        t0 = clock()
        for _ in range(n):
            state.u, state.v, state.u_max, state.v_min = u, v, u_max, v_min
            state.t, state._fixed_point = 0.0, None
            advance(state)
        return (clock() - t0) / n
    return loop


def _call_loop(fn, *args):
    def loop(n: int) -> float:
        clock = time.perf_counter
        t0 = clock()
        for _ in range(n):
            fn(*args)
        return (clock() - t0) / n
    return loop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append",
                        help="directory holding a chemotaxsim package (repeatable; "
                             "default: this checkout's src)")
    args = parser.parse_args(argv)
    sources = args.src or [str(Path(__file__).resolve().parents[1] / "src")]
    sys.dont_write_bytecode = True
    trees = [make_callables(import_tree(src)) for src in sources]

    print(f"# {platform.processor() or platform.machine()}, nproc {os.cpu_count()}, "
          f"python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}")
    for i, src in enumerate(sources):
        print(f"# tree {i}: {src}")
    head = f"{'case':<16}" + "".join(f"{f'tree {i} us':>12}" for i in range(len(trees)))
    print(head + "".join(f"{f'{i}/0':>8}" for i in range(1, len(trees))))
    for case in trees[0]:
        loops = [tree[case] for tree in trees]
        per_call = loops[0](max(1, int(0.01 / loops[0](3))))  # warm up and size
        n = max(1, int(ROUND_S / per_call))
        best = [float("inf")] * len(loops)
        for _ in range(ROUNDS):
            for i, loop in enumerate(loops):
                best[i] = min(best[i], loop(n))
        row = f"{case:<16}" + "".join(f"{1e6 * b:>12.2f}" for b in best)
        print(row + "".join(f"{b / best[0]:>8.3f}" for b in best[1:]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
