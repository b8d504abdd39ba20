"""Shared test plumbing: the acceptance suite registers one line per
criterion here and the terminal summary prints them all, pass or fail;
``row_text`` formats a row's diagnostics.csv line independently of the
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


def row_text(row, names) -> str:
    """A row's diagnostics.csv line: "%.17g" of its attribute of each header
    name, in the header's order."""
    return ",".join("%.17g" % getattr(row, name) for name in names)
