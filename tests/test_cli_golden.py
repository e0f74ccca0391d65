"""Golden outputs: the type catalog commands print exactly what they printed before.

`cli_golden.json` holds the stdout and exit code of `types`,
`types --normalized`, `empty-check` and `oracle types` on every shipped
fixture. A change that alters any of them shows up here as a diff.

Regenerate the file, after checking that an output change is intended, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from symrig.cli import main
from symrig.problem import fixture_names

GOLDEN = Path(__file__).with_name("cli_golden.json")
COMMANDS = (("types",), ("types", "--normalized"), ("empty-check",), ("oracle", "types"))


def _key(command: tuple[str, ...], fixture: str) -> str:
    return f"{' '.join(command)} {fixture}"


def _run(command: tuple[str, ...], fixture: str) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([*command, "--fixture", fixture])
    return {"exit": code, "stdout": buffer.getvalue()}


def _cases() -> list[tuple[tuple[str, ...], str]]:
    return [(command, fixture) for fixture in fixture_names() for command in COMMANDS]


EXPECTED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_golden_file_covers_every_case():
    assert sorted(EXPECTED) == sorted(_key(c, f) for c, f in _cases())


@pytest.mark.parametrize("command, fixture", _cases(), ids=[_key(c, f) for c, f in _cases()])
def test_cli_output_is_unchanged(command, fixture):
    assert _run(command, fixture) == EXPECTED[_key(command, fixture)]


if __name__ == "__main__":
    outputs = {_key(c, f): _run(c, f) for c, f in _cases()}
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} outputs to {GOLDEN}")
