"""Print one digest line per CLI command, for byte-identity checks between two trees.

    python3 tools/output_digest.py > digest.txt

Each line holds the argv (with `--problem` naming the problem, not its
temporary path), the exit code, the sha256 of stdout, and last a second
sha256 of stdout without its coordinates: for a JSON payload, of the
payload with every `witness`, `coords`, `vectors` and `max_residual` key
removed at any depth, and for any other output (SVG, say) of the whole of
stdout. The commands are run in process with the `symrig` under `src/` of
the tree this file lives in:

- every shipped fixture under `analyze`, `analyze --trials 7 --seed 3`,
  `sample --count 5`, `types`, `types --normalized`, `basis`,
  `empty-check`, `svg`, `svg --labels`, `oracle types` and
  `oracle generic` (176 outputs);
- the six problems of tests/test_closure_golden.py under `types`,
  `types --normalized`, `basis`, `analyze`, `analyze --trials 3 --seed 1`
  and `sample --count 3` (36 outputs);
- every command of the benchmark's fixtures, cycle_cm, high_symmetry and
  large_3d workloads at seed 7 (129 outputs);
- `analyze` and `sample --count 20` at seeds 1 to 5 on every generated
  cycle_cm, high_symmetry and large_3d problem, and on every fixture with
  `--tol-geom 0.2` (383 outputs up to here);
- `basis` and `empty-check` on every problem the cycle_cm, high_symmetry
  and large_3d generators build at workload seeds 1 to 5 (140 outputs, 653
  up to here), so the class-space basis of every generated class is
  printed somewhere;
- `types`, `analyze` and `basis` on the ten groups of ORIENTED, each
  given an orientation parameter, as the complete graph on the orbit of a
  generic point with `type: "auto"` (30 outputs, 683 in all), so that
  `axis`, `secondary_axis`, `mirror_angle_deg` and `mirror_normal` reach
  the output, and the C, Ch, S, D, Dh and Dd families of 3D are built
  turned into a frame.

Run it in both trees and `diff` the two files: no output means every
command printed the same bytes with the same exit code. A change meant to
move coordinates only is checked on the exit codes and the last column:

    diff <(awk '{$(NF-1) = ""; print}' parent.txt) <(awk '{$(NF-1) = ""; print}' change.txt)

The benchmark's workload generator is loaded by path; nothing is written
under bench/.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import itertools
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_COMMANDS = (
    ("analyze",), ("analyze", "--trials", "7", "--seed", "3"), ("sample", "--count", "5"),
    ("types",), ("types", "--normalized"), ("basis",), ("empty-check",), ("svg",),
    ("svg", "--labels"), ("oracle", "types"), ("oracle", "generic"),
)
CLOSURE_COMMANDS = (
    ("types",), ("types", "--normalized"), ("basis",), ("analyze",),
    ("analyze", "--trials", "3", "--seed", "1"), ("sample", "--count", "3"),
)
WORKLOAD_SEED = 7
GENERATED = ("cycle_cm", "high_symmetry", "large_3d")
SAMPLED = (("analyze",), ("sample", "--count", "20"))
SEEDS = range(1, 6)
CLASS_SPACE = (("basis",), ("empty-check",))
COORDINATE_KEYS = frozenset({"witness", "coords", "vectors", "max_residual"})
ORIENTED = (  # (Schoenflies name, dim, params)
    ("C2", 3, {"axis": [1, 1, 1]}),
    ("D3h", 3, {"axis": [1, 2, 2]}),
    ("D4d", 3, {"secondary_axis": [1, 1, 0]}),
    ("C3v", 3, {"mirror_angle_deg": 20}),
    ("Cs", 3, {"mirror_normal": [0, 0.6, 0.8]}),
    ("C5v", 2, {"mirror_angle_deg": 20}),
    ("D3d", 3, {"mirror_angle_deg": 10}),
    ("C3h", 3, {"axis": [2, 1, 2]}),
    ("S6", 3, {"axis": [0, 1, 1]}),
    ("D3", 3, {"secondary_axis": [0, 1, 0]}),
)
ORIENTED_COMMANDS = (("types",), ("analyze",), ("basis",))
GENERIC_POINT = (0.31, 0.17, 0.52)


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _without_coordinates(value):
    """The JSON value with every key of COORDINATE_KEYS removed, at any depth."""
    if isinstance(value, dict):
        return {k: _without_coordinates(v) for k, v in value.items() if k not in COORDINATE_KEYS}
    if isinstance(value, list):
        return [_without_coordinates(v) for v in value]
    return value


def _digest(main, argv: list[str], shown: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out = buffer.getvalue()
    try:
        stripped = json.dumps(_without_coordinates(json.loads(out)), sort_keys=True)
    except json.JSONDecodeError:
        stripped = out
    return f"{json.dumps(shown)} {code} {_sha(out)} {_sha(stripped)}"


def _orbit_problem(name: str, dim: int, params: dict) -> dict:
    """The complete graph on the orbit of GENERIC_POINT under the group, with type auto.

    A group the catalog refuses takes the orbit under its default orientation;
    the commands print the refusal either way.
    """
    from symrig.errors import SymrigError
    from symrig.problem import _parse_group

    spec = {"schoenflies": name, "params": params}
    try:
        group = _parse_group(spec, dim)
    except SymrigError:
        group = _parse_group({"schoenflies": name}, dim)
    vertices = [f"v{k}" for k in range(1, len(group) + 1)]
    points = (group.matrices() @ GENERIC_POINT[:dim]).tolist()
    return {"name": f"{name} {params}", "dim": dim, "vertices": vertices,
            "edges": [list(pair) for pair in itertools.combinations(vertices, 2)],
            "group": spec, "type": "auto", "coords": dict(zip(vertices, points))}


def commands(workdir: Path) -> list[tuple[list[str], list[str]]]:
    """(argv, argv as printed) pairs, problem files written to workdir."""
    from symrig.problem import fixture_names

    out = []
    fixtures = fixture_names()
    for fixture in fixtures:
        for command in FIXTURE_COMMANDS:
            argv = [*command, "--fixture", fixture]
            out.append((argv, argv))

    closure = _load(ROOT / "tests" / "test_closure_golden.py", "closure_golden")
    for name, data in closure.PROBLEMS.items():
        path = workdir / f"closure-{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for command in CLOSURE_COMMANDS:
            out.append(([*command, "--problem", str(path)], [*command, "--problem", name]))

    workloads = _load(ROOT / "bench" / "workloads.py", "bench_workloads")
    generated = {}
    for name in workloads.WORKLOADS:
        manifest = json.loads(workloads.write(
            workloads.build(name, WORKLOAD_SEED), WORKLOAD_SEED, workdir / name).read_text(encoding="utf-8"))
        for cmd in manifest["commands"]:
            argv = cmd["argv"]
            shown = list(argv)
            if "--problem" in argv:
                i = argv.index("--problem") + 1
                shown[i] = cmd["problem"]
                if name in GENERATED:
                    generated[cmd["problem"]] = argv[i]
            out.append((argv, [name, *shown]))

    for problem, path in generated.items():
        for seed in SEEDS:
            for command in SAMPLED:
                tail = ["--seed", str(seed)]
                out.append(([*command, "--problem", path, *tail], [*command, "--problem", problem, *tail]))
    for fixture in fixtures:
        for command in SAMPLED:
            argv = [*command, "--fixture", fixture, "--tol-geom", "0.2"]
            out.append((argv, argv))

    for seed in SEEDS:
        for name in GENERATED:
            for prob in workloads.build(name, seed).problems:
                path = workdir / f"seed{seed}-{prob.name}.json"
                path.write_text(json.dumps(prob.data), encoding="utf-8")
                for command in CLASS_SPACE:
                    out.append(([*command, "--problem", str(path)],
                                [f"{name} seed {seed}", *command, "--problem", prob.name]))

    for k, (name, dim, params) in enumerate(ORIENTED):
        data = _orbit_problem(name, dim, params)
        path = workdir / f"oriented{k}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for command in ORIENTED_COMMANDS:
            out.append(([*command, "--problem", str(path)], [*command, "--problem", data["name"]]))
    return out


def main() -> int:
    sys.dont_write_bytecode = True
    for path in (ROOT / "src", ROOT / "bench", ROOT / "tests"):
        sys.path.insert(0, str(path))
    os.chdir(ROOT)  # the workload generator finds the fixtures relative to the tree
    from symrig.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        for argv, shown in commands(Path(tmp)):
            print(_digest(cli_main, argv, shown), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
