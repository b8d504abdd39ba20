"""chemotaxsim benchmark: run one workload for a fixed time and report its
metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; chemotaxsim is imported from its
``src`` directory, never from an installed copy.  Workloads are defined in
``workloads.py``; BENCHMARK.json lists them with the reason for each.

Each invocation first runs, untimed, the package's own battery
(``chemotaxsim check``), which must exit 1 with exactly
``lp_plan_feasibility`` failing (criterion 09's intended FAIL).  Then it runs
operations one at a time until ``--seconds`` have passed, checks every
result against the rules in ``workloads.failures`` and prints the metrics,
ending with one JSON line: ``correct``, ``attempted``, ``failed`` (results
checked, counting each sweep cell) and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with tracing off:
  time_to_solution_s  median wall time of the operations that passed
  setup_s             median of SETUP_REPEATS cold set-ups, each in a fresh
                      interpreter (see setup_probe.py)
  peak_rss_mb         peak RSS of this process, plus that of each sweep worker
``--trace 1`` runs one untraced operation, then traced ones, and reports the
per-layer metrics (per operation) from the spans ``tracer.py`` records.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
EXPECTED_CHECK_FAILURES = {"lp_plan_feasibility"}
LAYERS = ("stepper", "mesh", "elliptic", "diagnostics", "engine")


def _import_package() -> None:
    """Put the checkout's ``src`` first on sys.path and make sure that is
    where chemotaxsim comes from."""
    if not (SRC / "chemotaxsim" / "__init__.py").is_file():
        sys.exit(f"error: no chemotaxsim source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import chemotaxsim
    if Path(chemotaxsim.__file__).resolve().parent != SRC / "chemotaxsim":
        sys.exit(f"error: chemotaxsim imported from {chemotaxsim.__file__}, not {SRC}")


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                caches[f"l{level}"] = (index / "size").read_text().strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "l2": caches.get("l2"), "l3": caches.get("l3"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_check_battery() -> tuple[bool, str]:
    """Run ``chemotaxsim check``; pass iff it exits 1 with exactly the
    expected items failing."""
    from chemotaxsim import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check"])
    failing = {line[len("[FAIL] "):].split(":", 1)[0]
               for line in out.getvalue().splitlines() if line.startswith("[FAIL] ")}
    ok = code == 1 and failing == EXPECTED_CHECK_FAILURES
    return ok, f"exit {code}, failing {sorted(failing)}"


def measure_setup(workload: str, seed: int) -> list[float]:
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(probe), "--workload", workload,
                               "--seed", str(seed)], cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _weighted_median(counts: dict[float, int]) -> float:
    total = sum(counts.values())
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if 2 * seen >= total:
            return value
    return 0.0


class Bench:
    """One invocation: the workload's config, its expected results, and the
    operations run so far."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import workloads
        from tracer import CellReports
        self.workloads = workloads
        self.workload = workload
        self.config = workloads.make_config(workload, seed)
        self.rel_tol, self.expected = workloads.expected_results(workload, self.config)
        self.workdir = workdir
        self.cells = CellReports(workdir / "cell_reports")
        self.operations = 0
        self.attempted = 0
        self.failed = 0

    def warm_up(self) -> None:
        """Untimed in-process set-up, so lazy caches are filled before timing."""
        from chemotaxsim.engine import build_ic
        from chemotaxsim.stepper import initial_state
        u0 = build_ic(self.config.grid, self.config.ic, default_seed=self.config.seed)
        initial_state(u0, self.config.params, self.config.elliptic)

    def operation(self) -> dict:
        """Run and check one operation; return its wall time and details.

        Each operation writes into a fresh directory, as a user's new run
        would; all of them are removed when the invocation ends, so no
        deletion overlaps a timed operation."""
        self.operations += 1
        opdir = self.workdir / f"op{self.operations}"
        self.cells.report_dir.mkdir(parents=True, exist_ok=True)
        gc.collect()
        t0 = time.perf_counter()
        results = self.workloads.run_operation(self.workload, self.config, opdir)
        wall = time.perf_counter() - t0
        bad = []
        for (label, outcome, outdir), expected in zip(results, self.expected, strict=True):
            reasons = self.workloads.failures(outcome, outdir, expected, self.rel_tol)
            if reasons:
                bad.append(f"{label}: {'; '.join(reasons)}")
        self.attempted += len(results)
        self.failed += len(bad)
        for line in bad:
            print(f"  FAILED {line}")
        return {"wall": wall, "passed": not bad, "t_reached": sum(r[1].t_reached for r in results),
                "output_bytes": _dir_bytes(opdir), "cells": self.cells.collect()}

    def run_for(self, seconds: float) -> list[dict]:
        ops = []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            ops.append(self.operation())
            print(f"  op {len(ops)}: {ops[-1]['wall']:.4f} s, "
                  f"{'passed' if ops[-1]['passed'] else 'FAILED'}")
        return ops


def _time_to_solution(ops: list[dict]) -> float:
    passed = [op["wall"] for op in ops if op["passed"]]
    times = sorted(passed or [op["wall"] for op in ops])
    n = len(times)
    median = statistics.median(times)
    # highest percentile with at least ten samples above it
    tail = f"p{100 * (n - 10) // n} {times[n - 11]:.4f} s" if n >= 21 else \
        "no percentile above the median has ten samples beyond it"
    print(f"time_to_solution_s: median {median:.4f} s over {n} samples; {tail}")
    return median


def end_to_end(bench: Bench, seconds: float, seed: int) -> dict:
    bench.cells.install()
    try:
        setup = measure_setup(bench.workload, seed)
        bench.warm_up()
        ops = bench.run_for(seconds)
    finally:
        bench.cells.uninstall()
    main_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = 0
    for op in ops:
        per_pid: dict[int, int] = {}
        for cell in op["cells"]:
            per_pid[cell["pid"]] = max(per_pid.get(cell["pid"], 0), cell["maxrss_kb"])
        worker_kb = max(worker_kb, sum(kb for pid, kb in per_pid.items() if pid != os.getpid()))
    metrics = {
        "time_to_solution_s": (_time_to_solution(ops), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": ((main_kb + worker_kb) * 1024 / 1e6, "MB"),
    }
    print(f"setup_s: samples {', '.join(f'{t:.4f}' for t in setup)}")
    return metrics


def per_layer(bench: Bench, seconds: float) -> dict:
    from tracer import Tracer
    bench.warm_up()
    untraced = bench.operation()["wall"]
    print(f"  untraced op: {untraced:.4f} s")
    tracer = Tracer()
    bench.cells.tracer = tracer
    tracer.install()
    bench.cells.install()
    try:
        ops = bench.run_for(seconds)
    finally:
        bench.cells.uninstall()
        tracer.uninstall()
    busy, straggler = [], []
    for op in ops:
        for cell in op["cells"]:
            tracer.merge(cell["trace"])
        cell_runs = [cell["trace"]["spans"]["engine.run"][1] for cell in op["cells"]]
        if cell_runs:
            busy.append(sum(cell_runs) / (bench.workloads.SWEEP_WORKERS * op["wall"]))
            straggler.append(max(cell_runs) / statistics.median(cell_runs))

    n = len(ops)
    spans = tracer.spans

    def calls(name):
        return spans[name][0] / n

    def total_s(name):
        return spans[name][1] / n

    def self_s(name):
        return spans[name][2] / n

    sim_time = sum(op["t_reached"] for op in ops)
    run_total = spans["engine.run"][1]
    metrics = {
        "stepper.advance.calls": (calls("stepper.advance"), "count"),
        "stepper.advance.us_per_call": (1e6 * total_s("stepper.advance") / calls("stepper.advance"), "us"),
        "stepper.advance.self_s": (self_s("stepper.advance"), "s"),
        "stepper.chemotactic_velocity.self_s": (self_s("stepper.chemotactic_velocity"), "s"),
        "stepper.steps_per_sim_time": (spans["stepper.advance"][0] / sim_time, "1/sim_time"),
        "stepper.dt_median": (_weighted_median(tracer.dt_counts), "sim_time"),
        "mesh.face_gradient.calls": (calls("mesh.face_gradient"), "count"),
        "mesh.face_gradient.self_s": (self_s("mesh.face_gradient"), "s"),
        "mesh.divergence.self_s": (self_s("mesh.divergence"), "s"),
        "mesh.require_finite.calls": (calls("mesh.require_finite"), "count"),
        "mesh.require_finite.self_s": (self_s("mesh.require_finite"), "s"),
        "mesh.write_snapshot.calls": (calls("mesh.write_snapshot"), "count"),
        "mesh.write_snapshot.bytes": (tracer.snapshot_bytes / n, "B"),
        "elliptic.solve_chemical.calls": (calls("elliptic.solve_chemical"), "count"),
        "elliptic.solve_chemical.self_s": (self_s("elliptic.solve_chemical"), "s"),
        "elliptic.solve_chemical.us_per_call": (
            1e6 * total_s("elliptic.solve_chemical") / calls("elliptic.solve_chemical"), "us"),
        "elliptic.apply_operator.calls": (calls("elliptic.apply_operator"), "count"),
        "elliptic.apply_operator.self_s": (self_s("elliptic.apply_operator"), "s"),
        "elliptic.apply_operator_per_solve": (
            calls("elliptic.apply_operator") / calls("elliptic.solve_chemical"), "ratio"),
        "diagnostics.compute_record.calls": (calls("diagnostics.compute_record"), "count"),
        "diagnostics.compute_record.self_s": (self_s("diagnostics.compute_record"), "s"),
        "regimes.beta_window.calls": (calls("regimes.beta_window"), "count"),
        "regimes.boundedness_threshold.calls": (calls("regimes.boundedness_threshold"), "count"),
        "engine.run.self_s": (self_s("engine.run"), "s"),
        "engine.output_bytes": (sum(op["output_bytes"] for op in ops) / n, "B"),
        "engine.sweep.worker_busy_share": (statistics.median(busy) if busy else 0.0, "ratio"),
        "engine.sweep.straggler_ratio": (statistics.median(straggler) if straggler else 0.0, "ratio"),
        "trace.overhead_s": (statistics.median(op["wall"] for op in ops) - untraced, "s"),
    }
    for layer in LAYERS:
        layer_self = sum(v[2] for k, v in spans.items()
                         if k.startswith(layer + ".") and k != "engine.sweep")
        metrics[f"{layer}.self_share"] = (layer_self / run_total, "ratio")

    print(f"{'span':40s} {'calls/op':>12s} {'total s/op':>12s} {'self s/op':>12s}")
    for name, (c, tot, slf) in sorted(spans.items(), key=lambda kv: -kv[1][2]):
        if c:
            print(f"{name:40s} {c / n:12.1f} {tot / n:12.6f} {slf / n:12.6f}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"machine {json.dumps(machine_facts())}")
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        check_ok, check_detail = run_check_battery()
        print(f"chemotaxsim check: {check_detail} ({'as expected' if check_ok else 'UNEXPECTED'})")
        bench = Bench(args.workload, args.seed, workdir)
        if args.trace:
            metrics = per_layer(bench, args.seconds)
        else:
            metrics = end_to_end(bench, args.seconds, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    error_rate = bench.failed / bench.attempted
    print(f"error_rate: {error_rate:.4f} ({bench.failed} failed / {bench.attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    print(json.dumps({
        "correct": check_ok and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
