"""Golden outputs: the CLI prints exactly what it printed before.

`cli_golden.json` holds the stdout and exit code of `types`,
`types --normalized`, `empty-check` and `oracle types` on every shipped
fixture. For `analyze` and `sample --count 3`, whose stdout carries sampled
coordinates, it holds the exit code and the fields without floats: every
verdict and given-configuration field except the witness, and each sample's
rank and flags without its coordinates. Those coordinates depend on BLAS
rounding, the integers and booleans do not. A change that alters any of
these shows up here as a diff.

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
SAMPLED = (("analyze",), ("sample", "--count", "3"))


def _key(command: tuple[str, ...], fixture: str) -> str:
    return f"{' '.join(command)} {fixture}"


def _exact_fields(command: tuple[str, ...], stdout: str) -> dict:
    """A sampled command's output without the sampled coordinates."""
    payload = json.loads(stdout)
    if "error" in payload:
        return payload
    if command[0] == "analyze":
        out = {"verdict": {k: v for k, v in payload["verdict"].items() if k != "witness"}}
        if "given_configuration" in payload:
            out["given_configuration"] = payload["given_configuration"]
        return out
    return {"k": payload["k"],
            "samples": [{k: v for k, v in row.items() if k != "coords"} for row in payload["samples"]]}


def _run(command: tuple[str, ...], fixture: str) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([*command, "--fixture", fixture])
    if command in SAMPLED:
        return {"exit": code, "fields": _exact_fields(command, buffer.getvalue())}
    return {"exit": code, "stdout": buffer.getvalue()}


def _cases() -> list[tuple[tuple[str, ...], str]]:
    return [(command, fixture) for fixture in fixture_names() for command in COMMANDS + SAMPLED]


EXPECTED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_golden_file_covers_every_case():
    assert sorted(EXPECTED) == sorted(_key(c, f) for c, f in _cases())


def test_sampled_fields_hold_no_floats():
    def floats(value):
        if isinstance(value, dict):
            return any(floats(v) for v in value.values())
        if isinstance(value, list):
            return any(floats(v) for v in value)
        return isinstance(value, float)

    assert not any(floats(out) for key, out in EXPECTED.items() if "fields" in out)


@pytest.mark.parametrize("command, fixture", _cases(), ids=[_key(c, f) for c, f in _cases()])
def test_cli_output_is_unchanged(command, fixture):
    assert _run(command, fixture) == EXPECTED[_key(command, fixture)]


if __name__ == "__main__":
    outputs = {_key(c, f): _run(c, f) for c, f in _cases()}
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} outputs to {GOLDEN}")
