"""Print one digest line per CLI command, for byte-identity checks between two trees.

    python3 tools/output_digest.py > digest.txt

Each line holds the argv (with `--problem` naming the problem, not its
temporary path), the exit code, and the sha256 of stdout. The commands are
run in process with the `symrig` under `src/` of the tree this file lives in:

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
  `--tol-geom 0.2`.

Run it in both trees and `diff` the two files: no output means every
command printed the same bytes with the same exit code. The benchmark's
workload generator is loaded by path; nothing is written under bench/.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
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


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _digest(main, argv: list[str], shown: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    sha = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
    return f"{json.dumps(shown)} {code} {sha}"


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
