"""The benchmark's per-layer metrics read trace spans by ``module.function``
name, and its tracer records a span only for a public function defined in
that chemotaxsim module.  A function renamed or deleted here would make
``perfbench/run.py --trace 1`` fail with KeyError, so this pins each name
that ``run.py`` reads to such a function."""
import importlib
import inspect
import re
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
SPAN_READ = re.compile(r'(?:(?:calls|total_s|self_s)\(|spans\[)"(\w+)\.(\w+)"')


def test_benchmark_span_names_are_public_functions():
    names = set(SPAN_READ.findall(RUN_PY.read_text()))
    assert ("stepper", "chemotactic_velocity") in names and ("engine", "run") in names
    for module_name, fn_name in sorted(names):
        module = importlib.import_module(f"chemotaxsim.{module_name}")
        fn = getattr(module, fn_name, None)
        assert (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not fn_name.startswith("_")), f"{module_name}.{fn_name}"
