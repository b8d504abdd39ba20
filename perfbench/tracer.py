"""Span tracing of chemotaxsim's public functions, from outside the package.

``Tracer.install()`` replaces every public function of the traced modules
with a timing wrapper, in every chemotaxsim namespace that binds it by name
(``stepper`` holds its own ``face_gradient`` and ``solve_chemical`` through
``from .mesh import ...``), so calls between modules are seen too.  Spans are
aggregated in memory per function name as calls, total seconds and self
seconds (total minus the time covered by child spans); a 144,000-step run
would otherwise keep millions of span records.

Sweep workers are forked from the main process and inherit the wrappers.  The
wrapper around ``engine._run_cell`` (the worker entry point) resets the
worker's aggregate at the start of each cell and writes the cell's spans to
a report file, which the main process merges after the sweep.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

TRACED_MODULES = ("mesh", "elliptic", "stepper", "diagnostics", "regimes", "engine")


def _public_functions(module) -> dict[str, object]:
    return {name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")}


def _rebind(original, replacement) -> None:
    """Point every chemotaxsim namespace that binds ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "chemotaxsim" and not mod_name.startswith("chemotaxsim."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Per-function span aggregates plus the few payload counters the
    per-layer metrics need (accepted dt values, snapshot bytes)."""

    def __init__(self):
        self.spans: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.dt_counts: Counter = Counter()  # state.dt_last of each accepted step
        self.snapshot_bytes = 0
        self._stack = [0.0]                  # child time of each open span
        self._installed: list[tuple[object, object]] = []

    # --- aggregation -------------------------------------------------------

    def reset(self) -> None:
        for entry in self.spans.values():
            entry[:] = [0, 0.0, 0.0]
        self.dt_counts.clear()
        self.snapshot_bytes = 0
        self._stack[:] = [0.0]

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items() if v[0]},
                "dt_counts": {repr(dt): n for dt, n in self.dt_counts.items()},
                "snapshot_bytes": self.snapshot_bytes}

    def merge(self, snap: dict) -> None:
        for name, (calls, total, self_s) in snap["spans"].items():
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for dt, n in snap["dt_counts"].items():
            self.dt_counts[float(dt)] += n
        self.snapshot_bytes += snap["snapshot_bytes"]

    # --- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
                stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _after_advance(self, args, state) -> None:
        self.dt_counts[state.dt_last] += 1

    def _after_snapshot(self, args, result) -> None:
        self.snapshot_bytes += os.path.getsize(args[2])

    def install(self) -> None:
        """Wrap the public functions of every traced module."""
        import chemotaxsim
        hooks = {"stepper.advance": self._after_advance,
                 "mesh.write_snapshot": self._after_snapshot}
        for short in TRACED_MODULES:
            module = getattr(chemotaxsim, short)
            for fname, fn in _public_functions(module).items():
                name = f"{short}.{fname}"
                wrapper = self._wrap(name, fn, hooks.get(name))
                _rebind(fn, wrapper)
                self._installed.append((fn, wrapper))

    def uninstall(self) -> None:
        for fn, wrapper in reversed(self._installed):
            _rebind(wrapper, fn)
        self._installed.clear()


class CellReports:
    """Per-cell reports from sweep workers: pid, wall time, peak RSS and,
    with a tracer attached, the cell's spans.

    ``install`` wraps ``engine._run_cell``; ``functools.wraps`` keeps the
    wrapper picklable under the original name, and forked workers find the
    wrapper when they look that name up.
    """

    def __init__(self, report_dir: Path, tracer: Tracer | None = None):
        self.report_dir = Path(report_dir)
        self.tracer = tracer
        self._parent_pid = os.getpid()
        self._original = None

    def install(self) -> None:
        from chemotaxsim import engine
        original = engine._run_cell
        report_dir, tracer, parent_pid = self.report_dir, self.tracer, self._parent_pid

        @functools.wraps(original)
        def run_cell(args):
            in_worker = os.getpid() != parent_pid
            if in_worker and tracer is not None:
                tracer.reset()
            t0 = time.perf_counter()
            index, outcome = original(args)
            wall = time.perf_counter() - t0
            report = {"cell": index, "pid": os.getpid(), "wall_s": wall,
                      "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if in_worker and tracer is not None:
                report["trace"] = tracer.snapshot()
            path = report_dir / f"cell{index:03d}.json"
            path.write_text(json.dumps(report))
            return index, outcome

        self._original = original
        engine._run_cell = run_cell

    def uninstall(self) -> None:
        from chemotaxsim import engine
        if self._original is not None:
            engine._run_cell = self._original
            self._original = None

    def collect(self) -> list[dict]:
        """Read and remove the reports of the sweep that just finished."""
        reports = []
        for path in sorted(self.report_dir.glob("cell*.json")):
            reports.append(json.loads(path.read_text()))
            path.unlink()
        return reports
