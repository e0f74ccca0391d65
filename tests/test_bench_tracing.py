"""The names that bench/tracing.py patches must exist in symrig.

The benchmark's traced run wraps symrig functions by module and name, so a
rename in symrig breaks it. These checks load bench/tracing.py by path and
fail on such a rename without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from symrig.cli import main

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, name, layer", [b[:3] for b in tracing.BOUNDARIES])
def test_boundary_name_exists(module, name, layer):
    target = getattr(importlib.import_module(f"symrig.{module}"), name)
    if layer is not None:
        assert target.__module__ == f"symrig.{layer}"


@pytest.mark.parametrize("module, cls, method", [m[:3] for m in tracing.COUNTED_METHODS])
def test_counted_method_exists(module, cls, method):
    assert callable(getattr(getattr(importlib.import_module(f"symrig.{module}"), cls), method))


def test_traced_command_counts_the_class_space(monkeypatch, capsys):
    tracer = tracing.Tracer()
    for module, name, layer, hook in tracing.BOUNDARIES:
        mod = importlib.import_module(f"symrig.{module}")
        monkeypatch.setattr(mod, name, tracer.wrap(layer, f"{module}.{name}", getattr(mod, name), hook))
    assert main(["basis", "--fixture", "k33_phi_a"]) == 0
    capsys.readouterr()
    # the count hook reads the matrix from kernel_basis's first positional argument
    assert tracer.counts["symspace.stack_cells"] > 0
    assert tracer.total("config_space_basis") > 0
