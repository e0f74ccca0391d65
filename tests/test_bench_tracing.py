"""The names that bench/tracing.py patches must exist in symrig.

The benchmark's traced run wraps symrig functions by module and name, so a
rename in symrig breaks it. These checks load bench/tracing.py by path and
fail on such a rename without running the benchmark. A traced command
must print what an untraced one prints, with properly nested spans, also
when the ranks run on helper threads.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from symrig import rigidity
from symrig.cli import main

from test_phases import PHASE_PROBLEMS
from test_rank_workers import count_threads

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


def test_traced_analyze_of_a_multi_chunk_class(monkeypatch, tmp_path, capsys):
    # Tracer._stack is one list for the whole process, so the rank helper threads must cross no boundary.
    path = tmp_path / "c3_space.json"
    path.write_text(json.dumps(PHASE_PROBLEMS["c3_space"]), encoding="utf-8")
    argv = ["analyze", "--problem", str(path)]
    monkeypatch.setattr(rigidity, "_cpu_count", lambda: 2)
    started = count_threads(monkeypatch)
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert started

    tracer = tracing.Tracer()
    for module, name, layer, hook in tracing.BOUNDARIES:
        mod = importlib.import_module(f"symrig.{module}")
        monkeypatch.setattr(mod, name, tracer.wrap(layer, f"{module}.{name}", getattr(mod, name), hook))
    started.clear()
    assert main(argv) == 0
    assert capsys.readouterr().out == plain
    assert started and tracer.spans and not tracer._stack
    for span_id, parent, _, _, _, begin, end in tracer.spans:
        assert begin <= end
        if parent is not None:
            assert parent < span_id
            assert tracer.spans[parent][5] <= begin and end <= tracer.spans[parent][6]
