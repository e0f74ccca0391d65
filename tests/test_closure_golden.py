"""Golden outputs for problems whose group comes from `close_group`.

Every shipped fixture names a C-family group, built from an explicit list of
matrices, so `cli_golden.json` never reaches the closure. These problems do:
solids under the polyhedral groups by name, the icosahedron under Ih given
as shuffled generators, and one generator that closes no finite group.
`closure_golden.json` holds, for `types` and `analyze --trials 3 --seed 1`,
the same fields as `cli_golden.json`: the whole stdout of `types`, and the
exit code and the float-free fields of `analyze`.

Regenerate the file, after checking that an output change is intended, with

    PYTHONPATH=src python tests/test_closure_golden.py
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from symrig.cli import main
from symrig.groups import rot2, rot3
from test_cli_golden import _exact_fields

GOLDEN = Path(__file__).with_name("closure_golden.json")
COMMANDS = (("types",), ("analyze", "--trials", "3", "--seed", "1"))
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _solid(kind: str) -> np.ndarray:
    if kind == "tetrahedron":
        return np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    if kind == "cube":
        return np.array([[x, y, z] for x in (1, -1) for y in (1, -1) for z in (1, -1)], dtype=float)
    pts = []
    for a in (1, -1):
        for b in (PHI, -PHI):
            pts += [[0, a, b], [a, b, 0], [b, 0, a]]
    return np.array(pts, dtype=float)


def _framework(name: str, coords: np.ndarray, group: dict) -> dict:
    """A placed framework with its shortest bars and ``type: "auto"``."""
    names = [f"p{i + 1}" for i in range(len(coords))]
    pairs = [(i, j) for i in range(len(coords)) for j in range(i + 1, len(coords))]
    length = {p: float(np.linalg.norm(coords[p[0]] - coords[p[1]])) for p in pairs}
    shortest = min(length.values())
    return {
        "name": name,
        "dim": coords.shape[1],
        "vertices": names,
        "edges": [[names[i], names[j]] for i, j in pairs if length[(i, j)] <= shortest * (1 + 1e-9)],
        "group": group,
        "type": "auto",
        "coords": {v: [float(c) for c in row] for v, row in zip(names, coords)},
        "seed": 5,
    }


IH_GENERATORS = [rot3((0.0, 1.0, PHI), 2.0 * math.pi / 5.0), np.diag([-1.0, -1.0, 1.0]), -np.eye(3)]
PROBLEMS = {
    "tetrahedron_T": _framework("tetrahedron_T", _solid("tetrahedron"), {"schoenflies": "T"}),
    "cube_Oh": _framework("cube_Oh", _solid("cube"), {"schoenflies": "Oh"}),
    "icosahedron_I": _framework("icosahedron_I", _solid("icosahedron"), {"schoenflies": "I"}),
    "icosahedron_Ih": _framework("icosahedron_Ih", _solid("icosahedron"), {"schoenflies": "Ih"}),
    "icosahedron_Ih_generators": _framework(
        "icosahedron_Ih_generators", _solid("icosahedron"),
        {"generators": [IH_GENERATORS[k].tolist() for k in (2, 0, 1)]}),
    "bar_rot1": _framework("bar_rot1", np.array([[1.0, 0.0], [-1.0, 0.5]]),
                           {"generators": [rot2(1.0).tolist()]}),
}


def _key(command: tuple[str, ...], problem: str) -> str:
    return f"{' '.join(command)} {problem}"


def _run(command: tuple[str, ...], problem: str, workdir: Path) -> dict:
    path = workdir / f"{problem}.json"
    path.write_text(json.dumps(PROBLEMS[problem]), encoding="utf-8")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([*command, "--problem", str(path)])
    if command[0] == "analyze":
        return {"exit": code, "fields": _exact_fields(command, buffer.getvalue())}
    return {"exit": code, "stdout": buffer.getvalue()}


def _cases() -> list[tuple[tuple[str, ...], str]]:
    return [(command, problem) for problem in PROBLEMS for command in COMMANDS]


EXPECTED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_golden_file_covers_every_case():
    assert sorted(EXPECTED) == sorted(_key(c, p) for c, p in _cases())


def test_non_closing_generator_is_an_error_line():
    for command in COMMANDS:
        out = EXPECTED[_key(command, "bar_rot1")]
        assert out["exit"] == 3
        text = out["stdout"] if "stdout" in out else json.dumps(out["fields"])
        assert "closure exceeded" in text


@pytest.mark.parametrize("command, problem", _cases(), ids=[_key(c, p) for c, p in _cases()])
def test_closure_cli_output_is_unchanged(command, problem, tmp_path):
    assert _run(command, problem, tmp_path) == EXPECTED[_key(command, problem)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = {_key(c, p): _run(c, p, Path(tmp)) for c, p in _cases()}
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} outputs to {GOLDEN}")
