"""The benchmark's own tests: tracing sees every call, worker spans come back,
and the correctness gate rejects what it should.  Kept out of the package's
test suite (the file name does not match ``test_*.py``); run with

    python3 -m pytest perfbench/selftest.py
"""
import os
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from chemotaxsim import mesh, stepper  # noqa: E402
from tracer import CellReports, Tracer  # noqa: E402


def test_traced_steps_match_outcome_and_cross_module_calls_are_seen(tmp_path):
    config = workloads.make_config("cell1d_24", 0)
    original = mesh.face_gradient
    tracer = Tracer()
    tracer.install()
    try:
        assert stepper.face_gradient is mesh.face_gradient is not original
        [(_, outcome, _)] = workloads.run_operation("cell1d_24", config, tmp_path)
    finally:
        tracer.uninstall()
    assert stepper.face_gradient is mesh.face_gradient is original
    assert tracer.spans["stepper.advance"][0] == outcome.steps == 144_000
    assert tracer.spans["mesh.face_gradient"][0] > 0
    assert sum(tracer.dt_counts.values()) == outcome.steps


def test_sweep_worker_spans_reach_the_main_process(tmp_path):
    config = replace(workloads.make_config("sweep16", 0), t_end=0.05,
                     diagnostics_every=0.01)
    tracer = Tracer()
    cells = CellReports(tmp_path / "reports", tracer)
    cells.report_dir.mkdir()
    tracer.install()
    cells.install()
    try:
        results = workloads.run_operation("sweep16", config, tmp_path / "op")
    finally:
        cells.uninstall()
        tracer.uninstall()
    reports = cells.collect()
    assert len(reports) == 16
    assert {r["pid"] for r in reports}.isdisjoint({os.getpid()})
    assert tracer.spans["stepper.advance"][0] == 0  # nothing ran in the main process
    for report in reports:
        tracer.merge(report["trace"])
    assert tracer.spans["engine.run"][0] == 16
    assert tracer.spans["stepper.advance"][0] == sum(o.steps for _, o, _ in results)


def test_wrong_expected_verdict_counts_as_failed(tmp_path):
    config = workloads.make_config("dense_output_256", 4)
    tol, [expected] = workloads.expected_results("dense_output_256", config)
    [(_, outcome, outdir)] = workloads.run_operation("dense_output_256", config, tmp_path)
    assert workloads.failures(outcome, outdir, expected, tol) == []
    wrong = {**expected, "verdict": "CompletedGrowing"}
    assert workloads.failures(outcome, outdir, wrong, tol) == ["verdict CompletedBounded"]
    shifted = {**expected, "final": {"mass": 1.1 * expected["final"]["mass"]}}
    assert len(workloads.failures(outcome, outdir, shifted, tol)) == 1


def test_check_battery_fails_only_on_the_lp_plan():
    ok, detail = run.run_check_battery()
    assert ok, detail
