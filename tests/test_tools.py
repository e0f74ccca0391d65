"""The repository's tools, loaded by path: tools/ is not a package."""

import importlib.util
import inspect
import re
from pathlib import Path

import symrig

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_api_surface_has_one_line_per_public_name_in_order():
    lines = _load("api_surface").surface(symrig)
    assert [line.split(" ", 1)[0] for line in lines] == list(symrig.__all__)
    assert f"rigidity_verdict function {inspect.signature(symrig.rigidity_verdict)}" in lines
    assert lines[symrig.__all__.index("__version__")] == "__version__ str"


def test_readme_states_the_number_of_digest_commands(tmp_path, monkeypatch):
    root = TOOLS.parent
    for path in ("src", "bench", "tests"):  # as output_digest.main() sets them up
        monkeypatch.syspath_prepend(str(root / path))
    monkeypatch.chdir(root)
    count = len(_load("output_digest").commands(tmp_path))
    stated = re.search(r"It runs (\d+) commands", (root / "README.md").read_text(encoding="utf-8"))
    assert int(stated.group(1)) == count
