"""Module layering, read from the sources: the slow references live in oracle, and only cli uses it."""

import ast
from pathlib import Path

import pytest

import symrig
from symrig import groups, oracle, symspace

SOURCES = sorted((Path(symrig.__file__).parent).glob("*.py"))
MOVED = {"OrbitStructure": symspace, "orbit_structure": symspace, "orbit_sample": symspace,
         "MEMBERSHIP_TOL": symspace, "validate_group": groups, "ORTHO_TOL": groups}


def _imported_modules(path: Path) -> set[str]:
    """Every symrig module a source file imports, by its bare name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("symrig.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not (module == "symrig" or module.startswith("symrig.")):
                continue
            module = module.removeprefix("symrig").lstrip(".")
            found |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
    return found


def test_the_parser_sees_oracle_imports():
    assert "oracle" in _imported_modules(Path(symrig.__file__).parent / "cli.py")
    assert "oracle" in _imported_modules(Path(symrig.__file__))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in ("cli.py", "__init__.py")], ids=lambda p: p.name)
def test_only_cli_and_the_package_import_oracle(path):
    assert "oracle" not in _imported_modules(path)


@pytest.mark.parametrize("name", symrig.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(symrig, name) is not None


@pytest.mark.parametrize("name", sorted(MOVED))
def test_references_come_from_oracle(name):
    assert not hasattr(MOVED[name], name)
    if name.isupper():
        assert isinstance(getattr(oracle, name), float)
        return
    assert getattr(oracle, name).__module__ == "symrig.oracle"
    assert getattr(symrig, name) is getattr(oracle, name)
