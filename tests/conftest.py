"""Shared test plumbing: the acceptance suite registers one line per
criterion here and the terminal summary prints them all, pass or fail;
``row_text`` formats a record's diagnostics.csv row independently of the
package's writer."""
from __future__ import annotations

ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}


def record_criterion(name: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[name] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[name]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{status}] {name}: {detail}")


def row_text(rec) -> str:
    """A DiagnosticsRecord's diagnostics.csv row: "%.17g" of the leading
    columns, the L^p norms, the negative powers and any grad_ratio, in order."""
    vals = [rec.t, rec.mass, rec.min_u, rec.max_u, rec.min_v, rec.max_v, rec.rayleigh,
            rec.log_mass, rec.v_ratio, *rec.lp_norms.values(), *rec.neg_powers.values()]
    if rec.grad_ratio is not None:
        vals.append(rec.grad_ratio)
    return ",".join("%.17g" % v for v in vals)
