"""The names the benchmark's tracer wraps must exist: a rename in the
package fails here instead of breaking ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import sys
from pathlib import Path

import dirichlet_reserving as dr

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    # leave perfbench/ as it is: no bytecode cache is written next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    # the package does not import ``cli``; the tracer expects it loaded
    modules = {name: importlib.import_module(f"dirichlet_reserving.{name}") for name in tracing.MODULES}
    for name, module in modules.items():
        assert getattr(dr, name) is module
    missing = [
        f"{mod}.{fn}" for mod, fn in tracing.ENTRY_POINTS
        if not callable(getattr(modules.get(mod), fn, None))
    ]
    assert not missing, f"perfbench traces names the package lacks: {missing}"
    assert callable(modules["mle"]._newton)
