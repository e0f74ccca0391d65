"""Print symrig's public API, one line per name in symrig.__all__, in its order.

    python3 tools/api_surface.py > api.txt

Each line holds the name, its kind (class, function, or the type of a value
such as str) and, where inspect can read one, its signature. The symrig
under `src/` of the tree this file lives in is imported, and no bytecode is
written. Copy the file into a second checkout, run it in both trees and
`diff` the two files: every changed signature, and every name added or
removed, shows as a line of the diff.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def surface(module) -> list[str]:
    """One line per public name of module: name, kind, and signature if any."""
    lines = []
    for name in module.__all__:
        value = getattr(module, name)
        kind = "class" if inspect.isclass(value) else "function" if callable(value) else type(value).__name__
        try:
            signature = f" {inspect.signature(value)}"
        except (TypeError, ValueError):  # a plain value, or a callable inspect cannot read
            signature = ""
        lines.append(f"{name} {kind}{signature}")
    return lines


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import symrig

    sys.stdout.write("".join(line + "\n" for line in surface(symrig)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
