"""Command paths that the fixtures do not reach, and the command line's BLAS thread pin.

Each problem here is written to a temporary file and run through `main`,
as the command line runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symrig
from symrig import cli
from symrig.classify import enumerate_types, find_base_type, verify_type
from symrig.cli import main
from symrig.errors import DimensionMismatch, LengthMismatch
from symrig.graphs import Graph
from symrig.groups import schoenflies_group
from symrig.problem import load_fixture, parse_problem, serialize_problem

PLACED_FIXTURES = [name for name in symrig.fixture_names() if load_fixture(name).coords is not None]
SRC = str(Path(symrig.__file__).resolve().parent.parent)
SQRT3_2 = 3 ** 0.5 / 2
BAR = {"dim": 2, "vertices": ["v1", "v2"], "edges": [["v1", "v2"]], "group": {"schoenflies": "C2"}}
# a triangle in the plane x = 0.2, turned by a third about the x axis
X_TRIANGLE = {
    "dim": 3,
    "vertices": ["a", "b", "c"],
    "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
    "group": {"schoenflies": "C3", "params": {"axis": [1.0, 0.0, 0.0]}},
    "type": "auto",
    "coords": {"a": [0.2, 1.0, 0.0], "b": [0.2, -0.5, SQRT3_2], "c": [0.2, -0.5, -SQRT3_2]},
}


def _run(tmp_path, capsys, problem: dict, *argv: str) -> tuple[int, str]:
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    code = main([*argv, "--problem", str(path)])
    return code, capsys.readouterr().out


def test_auto_type_without_coords_exits_3(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, dict(BAR, type="auto"), "analyze")
    assert code == 3
    assert json.loads(out) == {"error": "type mode 'auto' needs coords to classify against"}


def test_enumerate_mode_picks_no_type_but_types_lists_them(tmp_path, capsys):
    problem = dict(BAR, type="enumerate", coords={"v1": [0.6, 0.3], "v2": [-0.6, -0.3]})
    for command in ("analyze", "basis"):
        code, out = _run(tmp_path, capsys, problem, command)
        assert code == 3, command
        assert "type mode 'enumerate' does not pick a single type" in json.loads(out)["error"]
    code, out = _run(tmp_path, capsys, problem, "types")
    assert code == 0
    assert json.loads(out)["types"] == [{"Id": "id", "C2": "(v1 v2)"}]


def test_analyze_reports_given_coords_that_collapse_a_bar(tmp_path, capsys):
    problem = dict(BAR, type={"C2": "(v1 v2)"}, coords={"v1": [0.5, 0.2], "v2": [0.5, 0.2]})
    code, out = _run(tmp_path, capsys, problem, "analyze", "--trials", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["given_configuration"] == {
        "rigidity": {"error": "coincident bar endpoints: {v1, v2}"},
        "satisfies_type": False,
    }
    assert payload["verdict"]["isostatic"]  # the class itself is a bar through the centre


def test_given_coords_whose_difference_overflows(tmp_path, capsys):
    # Each coordinate is finite, but v1 - v2 is not: analyze reports it as it reports a collapsed bar.
    problem = dict(BAR, type={"C2": "(v1 v2)"}, coords={"v1": [1e308, 0.0], "v2": [-1e308, 0.0]})
    error = "coordinates must differ by finite numbers"
    code, out = _run(tmp_path, capsys, problem, "analyze", "--trials", "3")
    assert code == 0
    assert json.loads(out)["given_configuration"]["rigidity"] == {"error": error}
    for command in (["svg"], ["oracle", "generic"]):
        assert _run(tmp_path, capsys, problem, *command) == (3, json.dumps({"error": error}) + "\n")
    code, out = _run(tmp_path, capsys, problem, "types")
    assert code == 0
    assert json.loads(out)["types"] == [{"Id": "id", "C2": "(v1 v2)"}]


@pytest.mark.parametrize("scale", [1e300, 8e307])
def test_given_coords_are_ranked_at_any_scale(tmp_path, capsys, scale):
    # At 8e307 R's largest singular value overflows; the given framework is ranked at a power-of-two scale.
    problem = {"dim": 3, "vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
               "group": {"schoenflies": "C1"}, "type": "auto",
               "coords": {"a": [scale, 0.0, 0.0], "b": [-scale, 0.0, 0.0], "c": [0.0, scale, 0.0]}}
    code, out = _run(tmp_path, capsys, problem, "analyze", "--trials", "3")
    assert code == 0
    rigidity = json.loads(out)["given_configuration"]["rigidity"]
    assert (rigidity["rank"], rigidity["affine_span_dim"], rigidity["infinitesimally_rigid"]) == (3, 2, True)


def test_analyze_checks_the_type_before_the_trials(tmp_path, capsys):
    # The class is built before it is sampled, so a type that is no automorphism is named first.
    problem = {"dim": 2, "vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]],
               "group": {"schoenflies": "C2"}, "type": {"C2": "(a b)"}}
    code, out = _run(tmp_path, capsys, problem, "analyze", "--trials", "0")
    assert code == 3
    assert json.loads(out) == {"error": "image for C2 is not an automorphism"}


def test_axis_param_reaches_the_group(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, X_TRIANGLE, "analyze", "--trials", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"]["assignment"] == {"Id": "id", "C3": "(a b c)", "C3^2": "(a c b)"}
    assert payload["given_configuration"]["satisfies_type"]
    assert payload["given_configuration"]["rigidity"]["isostatic"]
    assert payload["verdict"]["isostatic"]
    # about the default z axis the same triangle admits no type
    code, out = _run(tmp_path, capsys, dict(X_TRIANGLE, group={"schoenflies": "C3"}), "analyze")
    assert code == 3
    assert json.loads(out) == {"error": "the given configuration admits no type for this group"}


@pytest.mark.parametrize("name, key, value", [
    ("C3", "axis", [1.0, 0.0, 0.0]),
    ("D2", "secondary_axis", [1.0, 1.0, 0.0]),
    ("Cs", "mirror_normal", [0.0, 0.0, 1.0]),
])
def test_spatial_params_reach_schoenflies_group(name, key, value):
    problem = parse_problem({"dim": 3, "vertices": ["a"], "edges": [], "type": "auto",
                             "group": {"schoenflies": name, "params": {key: value}}})
    want = schoenflies_group(name, 3, **{key: value}).matrices()
    assert np.array_equal(problem.group.matrices(), want)
    assert not np.allclose(want, schoenflies_group(name, 3).matrices())


def test_a_type_without_an_identity_entry_round_trips_without_it():
    spec = {"dim": 2, "vertices": ["v1", "v2"], "edges": [["v1", "v2"]], "group": {"schoenflies": "C2"},
            "type": {"C2": "(v1 v2)"}, "coords": {"v1": [0.6, 0.3], "v2": [-0.6, -0.3]}, "seed": 5}
    problem = parse_problem(spec)
    assert not problem.has_identity_entry
    out = serialize_problem(problem)
    assert out["type"] == {"C2": "(v1 v2)"}
    again = parse_problem(out)
    assert again.phi == problem.phi
    assert serialize_problem(again) == out


@pytest.mark.parametrize("check", [verify_type, find_base_type, enumerate_types])
def test_classify_rejects_coords_of_the_wrong_shape(check):
    graph = Graph.make(3, [(0, 1), (1, 2)])
    group = schoenflies_group("C2", 2)
    args = (group, symrig.identity_type(group, 3)) if check is verify_type else (group,)
    with pytest.raises(LengthMismatch, match=r"expected coordinates of shape \(3, d\), got \(2, 2\)"):
        check(graph, np.zeros((2, 2)), *args)
    with pytest.raises(DimensionMismatch, match="coordinates are 3d but the group acts on 2d"):
        check(graph, np.zeros((3, 3)), *args)


@pytest.mark.parametrize("name", PLACED_FIXTURES)
def test_the_normalized_catalog_is_the_full_one_filtered(name):
    problem = load_fixture(name)
    _, full = enumerate_types(problem.graph, problem.coords, problem.group)
    _, normalized = enumerate_types(problem.graph, problem.coords, problem.group, normalized=True)
    assert [t for t in full if t[0].is_identity()] == normalized


def test_oracle_types_enumerates_the_catalog_once(capsys, monkeypatch):
    calls = []
    enumerate_once = cli.enumerate_types
    monkeypatch.setattr(cli, "enumerate_types", lambda *a, **k: calls.append(k) or enumerate_once(*a, **k))
    assert main(["oracle", "types", "--fixture", "c4_gadget"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert payload["match"] and payload["normalized_match"]
    assert payload["fast_normalized_count"] == payload["brute_normalized_count"] < payload["fast_count"]


# --- the BLAS thread pin -------------------------------------------------------------------------------------------

_THREADS = """
import contextlib, ctypes, io, os
import numpy as np
from symrig.cli import main
libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
names = [n for n in (os.listdir(libs) if os.path.isdir(libs) else ()) if n.startswith("libscipy_openblas")]
lib = ctypes.CDLL(os.path.join(libs, names[0])) if names else None
get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
if get is None:
    print("absent")
else:
    before = get()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", "--fixture", "k33_phi_a"]) == 0
    print(before, get())
"""


def _blas_threads(**env: str) -> tuple[int, int]:
    """OpenBLAS's thread count before and after an analyze in a fresh interpreter with the given variables."""
    clean = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    done = subprocess.run([sys.executable, "-c", _THREADS], env={**clean, **env, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if done.stdout.strip() == "absent":
        pytest.skip("numpy bundles no OpenBLAS with scipy_openblas_get_num_threads64_")
    before, after = map(int, done.stdout.split())
    return before, after


def test_main_pins_the_bundled_openblas_when_no_variable_is_set():
    _, after = _blas_threads()
    assert after == 1


def test_main_leaves_a_set_thread_count_alone():
    before, after = _blas_threads(OPENBLAS_NUM_THREADS="2")
    assert after == before
    if len(os.sched_getaffinity(0)) >= 2:
        assert after == 2
