import json
from pathlib import Path

import pytest

from chemotaxsim.cli import main

RUN_CFG = """
grid.dim=1
grid.cells=24
model.chi=1.0
model.mu=1.0
model.nu=1.0
model.a=1.0
model.b=1.0
run.t_end=0.2
run.diagnostics_every=0.05
ic.kind=constant
ic.value=1.0
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(RUN_CFG)
    return path


def test_run_subcommand_success(cfg_path, tmp_path, capsys):
    code = main(["run", str(cfg_path), "--outdir", str(tmp_path / "out")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "CompletedBounded"
    assert Path(payload["diagnostics"]).exists()
    assert Path(payload["summary"]).exists()


def test_run_subcommand_override_and_trigger(cfg_path, tmp_path, capsys):
    code = main(["run", str(cfg_path), "stepper.u_ceiling=0.5",
                 "--outdir", str(tmp_path / "out")])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["trigger"] == "u_ceiling"


def test_run_subcommand_solver_failure(cfg_path, tmp_path, capsys):
    # 1e-300 is inside the accepted (0, 1e-4] range but no float64 solve meets it
    code = main(["run", str(cfg_path), "elliptic.rel_tolerance=1e-300",
                 "ic.kind=gaussian", "ic.baseline=0.2", "--outdir", str(tmp_path / "out")])
    assert code == 4
    assert json.loads(capsys.readouterr().out)["verdict"] == "SolverFailure"


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_run_subcommand_overflowing_source_is_a_solver_failure(cfg_path, tmp_path, capsys):
    # nu*u overflows to inf, so the first solve returns a non-finite v; the
    # residual check rejects it and the run fails at t=0 with strict JSON
    code = main(["run", str(cfg_path), "grid.cells=16", "model.nu=1e308", "ic.value=10",
                 "--outdir", str(tmp_path / "out")])
    assert code == 4
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["verdict"] == "SolverFailure"
    assert payload["steps"] == 0
    assert (payload["peak_max_u"], payload["min_min_v"]) == ("-inf", "inf")


def test_run_subcommand_config_error(cfg_path, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.unknown=1\n")
    assert main(["run", str(bad)]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    for override in ("run.t_end=nan", "run.t_end=inf", "run.diagnostics_every=inf",
                     "run.snapshot_every=nan", "model.mu=nan", "model.nu=inf",
                     "grid.dim=1 grid.cells=16,16",
                     "grid.dim=2 grid.cells=8,8,8 grid.extent=1,2,3",
                     "grid.dim=3 grid.cells=8 ic.kind=gaussian ic.center=0.2,0.8",
                     "ic.kind=random ic.seed=-1", f"ic.seed={2 ** 128}",
                     "run.seed=-3", f"run.seed={2 ** 64}",
                     "diagnostics.auto_neg_p=ture",
                     # a NaN threshold would switch its guard off
                     "stepper.dt_min=nan", "stepper.u_ceiling=nan", "stepper.v_floor=nan",
                     "run.classify_factor=nan",
                     "ic.kind=gaussian ic.width=nan", "ic.kind=gaussian ic.width=0",
                     "ic.kind=gaussian ic.width=-0.1", "ic.kind=gaussian ic.amplitude=inf",
                     "ic.kind=constant ic.value=inf", "ic.kind=random ic.amplitude=nan",
                     # exponents outside the monitored functionals' ranges
                     "diagnostics.p_list=0.5", "diagnostics.neg_p_list=-1",
                     "diagnostics.grad_p=1.5"):
        assert main(["run", str(cfg_path), *override.split(),
                     "--outdir", str(tmp_path / "out")]) == 2, override


def test_run_subcommand_parse_error_names_its_key(cfg_path, tmp_path, capsys):
    for key, value in (("model.chi", "abc"), ("ic.seed", "1.5"),
                       ("diagnostics.auto_neg_p", "ture"), ("grid.dim", "x"),
                       ("grid.cells", "4,a"), ("grid.extent", "q")):
        assert main(["run", str(cfg_path), f"{key}={value}",
                     "--outdir", str(tmp_path / "out")]) == 2, key
        assert capsys.readouterr().err.startswith(f"config error: {key}: "), key


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_sweep_subcommand(cfg_path, tmp_path, capsys):
    out = tmp_path / "sw"
    code = main(["sweep", str(cfg_path), "run.t_end=0.1", "--axis", "chi=0.5,1.5",
                 "--outdir", str(out), "--workers", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cells"] == 2
    table = Path(payload["table"]).read_text().splitlines()
    assert len(table) == 3
    for axis in ("nu=1,2", "chi=abc"):
        assert main(["sweep", str(cfg_path), "--axis", axis, "--outdir", str(out)]) == 2, axis
    # every cell triggers: exit 3; every cell fails its solve: exit 4; one of
    # each: exit 4 (mu=1e-10 overflows the first solve's v)
    for overrides, axes, code in (
            ("stepper.u_ceiling=0.5", ("chi=0.5,3", "a_scale=0.1,3"), 3),
            ("elliptic.rel_tolerance=1e-300", ("chi=0.5,3", "a_scale=0.1,3"), 4),
            ("model.nu=1e300 stepper.u_ceiling=0.5", ("mu=1,1e-10",), 4)):
        args = [f"--axis={axis}" for axis in axes]
        assert main(["sweep", str(cfg_path), *overrides.split(), "ic.kind=gaussian",
                     "ic.baseline=0.2", *args, "--outdir", str(out), "--workers", "1"]) == code


def test_regimes_subcommand(capsys):
    assert main(["regimes", "--chi", "1.0", "--mu", "1.0", "--a-inf", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["threshold"]["satisfied"] is True
    assert payload["beta_window"]["beta_plus"] > 0

    assert main(["regimes", "--chi", "2.0", "--mu", "1.0", "--a-inf", "0.5"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["threshold"]["satisfied"] is False
    assert payload["beta_window"] is None


def test_regimes_subcommand_plan_reports_infeasible(capsys):
    code = main(["regimes", "--chi", "1.0", "--mu", "1.0", "--a-inf", "1.0",
                 "--plan"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["lp_plan"]["infeasible"] is True
    assert payload["lp_plan"]["p_star"] >= payload["lp_plan"]["p_star_upper"]


def test_check_subcommand(capsys):
    # perfbench parses these lines: the exponent-plan item alone fails
    code = main(["check"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split(":", 1)[0] for line in lines] == [
        "[PASS] elliptic_convergence", "[PASS] elliptic_mean_identity",
        "[PASS] mass_identity", "[PASS] logistic_oracle", "[PASS] reverse_holder",
        "[PASS] regimes_random_trials", "[FAIL] lp_plan_feasibility"]
    assert "infeasible" in lines[-1]
