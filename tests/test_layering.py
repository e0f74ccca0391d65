"""Module layering, read from the sources: the slow references live in oracle, and only cli uses it.

oracle imports nothing from symspace, so that the reference for the class space does not rest on
the code it checks.

Only oracle draws from numpy's generator: the command path samples with random.Random,
so that no command pays for importing numpy.random.
"""

import ast
from pathlib import Path

import pytest

import symrig
from symrig import errors, groups, oracle, svg, symspace

SOURCES = sorted((Path(symrig.__file__).parent).glob("*.py"))
MOVED = {"validate_group": groups, "ORTHO_TOL": groups}
# The deleted class-space references beside the dense constraint stack, and the errors only they raised;
# the fixed-subspace wrapper, now plain rows, and the drawing's own coincidence threshold.
DELETED = ("OrbitStructure", "orbit_structure", "orbit_sample", "MEMBERSHIP_TOL", "orbit_block_basis", "_ball_point",
           "InconsistentPropagation", "NotAHomomorphism", "LinearSubspace", "COINCIDENCE_TOL")


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


def _uses_numpy_random(path: Path) -> bool:
    """Whether a source file names np.random or numpy.random, by attribute or by import."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr == "random" and isinstance(node.value, ast.Name):
            if node.value.id in ("np", "numpy"):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.random") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.startswith("numpy.random") or (module == "numpy" and any(a.name == "random" for a in node.names)):
                return True
    return False


def test_the_parser_sees_oracle_imports():
    assert "oracle" in _imported_modules(Path(symrig.__file__).parent / "cli.py")
    assert "oracle" in _imported_modules(Path(symrig.__file__))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in ("cli.py", "__init__.py")], ids=lambda p: p.name)
def test_only_cli_and_the_package_import_oracle(path):
    assert "oracle" not in _imported_modules(path)


def test_the_parser_sees_numpy_random(tmp_path):
    assert _uses_numpy_random(Path(oracle.__file__))
    for line in ("import numpy.random", "from numpy import random", "from numpy.random import default_rng",
                 "x = numpy.random.default_rng"):
        (tmp_path / "m.py").write_text(line + "\n", encoding="utf-8")
        assert _uses_numpy_random(tmp_path / "m.py"), line


def test_oracle_imports_nothing_from_symspace():
    assert "symspace" in _imported_modules(Path(symrig.__file__).parent / "cli.py")
    assert "symspace" not in _imported_modules(Path(oracle.__file__))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "oracle.py"], ids=lambda p: p.name)
def test_only_oracle_uses_numpy_random(path):
    assert not _uses_numpy_random(path)


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


@pytest.mark.parametrize("name", sorted(DELETED))
def test_deleted_references_are_gone(name):
    for module in (oracle, symspace, errors, groups, svg):
        assert not hasattr(module, name), module.__name__
    assert name not in symrig.__all__
    assert not hasattr(symrig, name)


@pytest.mark.parametrize("name", sorted(symrig._ORACLE_NAMES))
def test_oracle_names_are_exported_from_oracle(name):
    assert name in symrig.__all__
    assert getattr(oracle, name).__module__ == "symrig.oracle"
    assert getattr(symrig, name) is getattr(oracle, name)
