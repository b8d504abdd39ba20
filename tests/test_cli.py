import json
import warnings
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_run_subcommand_solver_failure(cfg_path, tmp_path, capsys):
    # nu*u overflows, so the residual of the first solve is NaN, on the
    # line's band and on the 8x8 grid's cosine path alike
    for grid in ("grid.dim=1", "grid.dim=2 grid.cells=8"):
        out = tmp_path / grid.replace(" ", "_")
        code = main(["run", str(cfg_path), *grid.split(), "model.nu=1e308", "ic.kind=gaussian",
                     "ic.baseline=0.2", "--outdir", str(out)])
        assert code == 4, grid
        assert json.loads(capsys.readouterr().out)["verdict"] == "SolverFailure"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failure"] == "elliptic solve residual is nan", grid


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


@pytest.mark.parametrize("mu, min_v", [("1e30", "0.000e+00"), ("1e20", "2.886e-250")])
def test_run_subcommand_chemical_underflow_at_t0_is_a_v_floor_trigger(cfg_path, tmp_path,
                                                                      capsys, mu, min_v):
    # a narrow bump on a zero baseline: V(u0) underflows far from it, and the
    # stepper's floor check rejects the initial pair before any monitor reads it
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", str(cfg_path), "grid.cells=32", f"model.mu={mu}", "ic.kind=gaussian",
                     "ic.width=0.01", "ic.baseline=0", "--outdir", str(out)])
    assert code == 3
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert (payload["trigger"], payload["steps"], payload["peak_max_u"]) == ("v_floor", 0, "-inf")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failure"] == f"chemical field at {min_v} dropped below floor 1.000e-12"
    assert (out / "diagnostics.csv").read_text().count("\n") == 1  # the header only


def test_run_subcommand_density_above_ceiling_at_t0_is_a_u_ceiling_trigger(cfg_path, tmp_path,
                                                                           capsys):
    # u0 = 1 is above the ceiling, so the initial pair is rejected before any row
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", str(cfg_path), "stepper.u_ceiling=0.5", "--outdir", str(out)])
    assert code == 3
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert (payload["trigger"], payload["steps"]) == ("u_ceiling", 0)
    assert (payload["peak_max_u"], payload["min_min_v"]) == (1.0, "inf")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failure"] == "max u = 1.000e+00 exceeded ceiling 5.000e-01"
    assert (out / "diagnostics.csv").read_text().count("\n") == 1  # the header only


def test_run_subcommand_overflowing_ic_is_reported_once(cfg_path, tmp_path, capsys):
    # the config error is the only report: no numpy overflow warning before it
    for kind in ("gaussian", "random"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(cfg_path), "grid.cells=16", f"ic.kind={kind}",
                         "ic.baseline=1e308", "ic.amplitude=1e308",
                         "--outdir", str(tmp_path / "out")])
        assert code == 2, kind
        assert capsys.readouterr().err == (
            "config error: initial condition must be finite; its parameters overflow\n"), kind


def test_run_subcommand_config_error(cfg_path, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for text in ("model.unknown=1\n", "elliptic.rel_tolerance=1e-10\n"):
        bad.write_text(text)
        assert main(["run", str(bad)]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    for override in ("run.t_end=nan", "run.t_end=inf", "run.diagnostics_every=inf",
                     "run.snapshot_every=nan", "model.mu=nan", "model.nu=inf",
                     # cadence intervals so small that t_end/interval is not finite,
                     # and a t_end whose default cadence t_end/100 is 0
                     "run.diagnostics_every=1e-320", "run.snapshot_every=1e-320",
                     "run.t_end=1e-322 run.diagnostics_every=0",
                     "grid.dim=1 grid.cells=16,16",
                     "grid.dim=2 grid.cells=8,8,8 grid.extent=1,2,3",
                     "grid.dim=3 grid.cells=8 ic.kind=gaussian ic.center=0.2,0.8",
                     "ic.kind=random ic.seed=-1", f"ic.seed={2 ** 128}",
                     "run.seed=-3", f"run.seed={2 ** 64}",
                     # a NaN threshold would switch its guard off
                     "stepper.dt_min=nan", "stepper.u_ceiling=nan", "stepper.v_floor=nan",
                     # an infinite dt_min or v_floor would trip its guard at t=0
                     "stepper.dt_min=inf", "stepper.v_floor=inf",
                     "ic.kind=gaussian ic.width=nan", "ic.kind=gaussian ic.width=0",
                     "ic.kind=gaussian ic.width=-0.1", "ic.kind=gaussian ic.amplitude=inf",
                     "ic.kind=constant ic.value=inf", "ic.kind=random ic.amplitude=nan",
                     # finite parameters whose initial condition overflows
                     "grid.cells=16 ic.kind=gaussian ic.baseline=1e308 ic.amplitude=1e308",
                     "grid.cells=16 ic.kind=random ic.baseline=1e308 ic.amplitude=1e308",
                     # exponents outside the monitored functionals' ranges
                     "diagnostics.p_list=0.5", "diagnostics.p_list=2,inf",
                     "diagnostics.p_list=nan", "diagnostics.grad_p=1.5",
                     # exponents whose lp_{p:g} column names repeat
                     "diagnostics.p_list=2,2", "diagnostics.p_list=2,2.0000001",
                     # the elliptic solve is judged by one fixed rule, which no key sets
                     "elliptic.rel_tolerance=1e-10"):
        assert main(["run", str(cfg_path), *override.split(),
                     "--outdir", str(tmp_path / "out")]) == 2, override


def test_run_subcommand_parse_error_names_its_key(cfg_path, tmp_path, capsys):
    for key, value in (("model.chi", "abc"), ("ic.seed", "1.5"),
                       ("grid.dim", "x"),
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
    # an unknown axis, a value that does not parse, values outside the
    # model's range (config errors for a run too) and workers below 1 are
    # config errors before any cell runs
    bad = tmp_path / "bad"
    for axis, workers in (("nu=1,2", "1"), ("chi", "1"), ("chi=abc", "1"), ("mu=1,-1", "1"),
                          ("a_scale=-1", "1"), ("chi=nan", "1"), ("chi=0.5", "0"),
                          ("chi=0.5", "-2")):
        assert main(["sweep", str(cfg_path), "--axis", axis, "--outdir", str(bad),
                     "--workers", workers]) == 2, (axis, workers)
        assert capsys.readouterr().err.startswith("config error: ")
    assert not bad.exists()
    assert main(["sweep", str(cfg_path), "--axis", "chi=0.5", "--axis", "chi=3",
                 "--outdir", str(out)]) == 2
    assert "config error: sweep axes must be distinct" in capsys.readouterr().err
    # every cell triggers: exit 3; every cell fails its solve: exit 4; one of
    # each: exit 4 (mu=1e-10 overflows the first solve's v)
    for overrides, axes, code in (
            ("stepper.u_ceiling=0.5", ("chi=0.5,3", "a_scale=0.1,3"), 3),
            ("model.nu=1e308", ("chi=0.5,3", "a_scale=0.1,3"), 4),
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
    # the exponent plan is reported by `check` alone
    with pytest.raises(SystemExit):
        main(["regimes", "--chi", "1.0", "--mu", "1.0", "--a-inf", "1.0", "--plan"])


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_regimes_subcommand_prints_strict_json(capsys):
    # mu*chi*chi/4 overflows, so the threshold is inf
    assert main(["regimes", "--chi", "1.5", "--mu", "1e308", "--a-inf", "1"]) == 1
    payload = strict_json(capsys.readouterr().out)
    assert payload["threshold"]["threshold"] == "inf"
    assert payload["beta_window"] is None
    # (chi - beta)**2 underflows at chi = 1e-200; p_hat does not
    assert main(["regimes", "--chi", "1e-200", "--mu", "1", "--a-inf", "1e-300"]) == 0
    assert 1e100 < strict_json(capsys.readouterr().out)["beta_window"]["p_hat"] < 1e101


def test_run_at_tiny_chi_ends_with_a_verdict(cfg_path, tmp_path, capsys):
    code = main(["run", str(cfg_path), "model.chi=1e-200", "model.a=1e-300",
                 "--outdir", str(tmp_path / "out")])
    payload = strict_json(capsys.readouterr().out)
    assert code == 0 and payload["verdict"] == "CompletedBounded"
    assert strict_json((tmp_path / "out" / "summary.json").read_text())["threshold"]["satisfied"]


@pytest.mark.parametrize("chi, mu, a_inf", [("1", "nan", "1"), ("1", "inf", "1"),
                                           ("3", "1", "inf"), ("3", "1", "nan")])
def test_regimes_subcommand_rejects_non_finite_input(chi, mu, a_inf, capsys):
    # a NaN verdict or window would print non-strict JSON
    assert main(["regimes", "--chi", chi, "--mu", mu, "--a-inf", a_inf]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


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
