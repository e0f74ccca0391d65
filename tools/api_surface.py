"""Print symrig's public API: one line per name in symrig.__all__, in its order, then one per class member.

    python3 tools/api_surface.py > api.txt

Each name line holds the name, its kind (class, function, or the type of a
value such as str) and, where inspect can read one, its signature. After
them, each class of symrig.__all__ gives one `Class.member kind signature`
line per public member (no leading underscore) defined in its own body, in
the order of definition: kind is the type of the class-body entry
(function, staticmethod, property, ...). The symrig under `src/` of the tree
this file lives in is imported, and no bytecode is written. Copy the file
into a second checkout, run it in both trees and `diff` the two files: every
changed signature, and every name or member added or removed, shows as a
line of the diff.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _signature(value) -> str:
    """A space and the signature of value; "" for a plain value or a callable inspect cannot read."""
    try:
        return f" {inspect.signature(value)}"
    except (TypeError, ValueError):
        return ""


def surface(module) -> list[str]:
    """One line per public name of module: name, kind, and signature if any."""
    lines = []
    for name in module.__all__:
        value = getattr(module, name)
        kind = "class" if inspect.isclass(value) else "function" if callable(value) else type(value).__name__
        lines.append(f"{name} {kind}{_signature(value)}")
    return lines


def members(module) -> list[str]:
    """One line per public member defined in the body of each class of module.__all__: Class.member, kind, signature.

    Inherited members are left out, so each member shows once, under the class that defines it.
    """
    lines = []
    for name in module.__all__:
        cls = getattr(module, name)
        if inspect.isclass(cls):
            lines += [f"{name}.{member} {type(entry).__name__}{_signature(getattr(cls, member))}"
                      for member, entry in vars(cls).items() if not member.startswith("_")]
    return lines


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import symrig

    sys.stdout.write("".join(line + "\n" for line in surface(symrig) + members(symrig)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
