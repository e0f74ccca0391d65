"""Bit-level digests of the Schoenflies catalog.

For every input below, `catalog_digest.json` holds the sha256 of the
group's name, labels, element bytes and product table, or the class of the
error `schoenflies_group` raised. Error texts are not pinned. The inputs
are the literal, numbered, template and malformed names below, each in
dimensions 2 and 3, with m absent, 2, 3 or 101, and with no orientation
parameter or exactly one of the four.

Regenerate the file, after checking that a change of bits is intended, with

    PYTHONPATH=src python tests/test_catalog_digest.py
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from symrig.errors import SymrigError
from symrig.groups import schoenflies_group

GOLDEN = Path(__file__).with_name("catalog_digest.json")
LITERAL = ("C1", "Cs", "Ci", "T", "Td", "Th", "O", "Oh", "I", "Ih")
NUMBERED = ("C2", "C3", "C4", "C6", "C8", "C12", "C200", "C201", "C2v", "C3v", "C4h", "D2", "D3", "D6",
            "D2h", "D3h", "D2d", "D3d", "S2", "S3", "S4", "S6", "S8")
TEMPLATE = ("Cm", "Cmv", "Cmh", "Dm", "Dmh", "Dmd", "S2m")
MALFORMED = ("X3", "C0", "D2v", "S4h")
MS = (None, 2, 3, 101)
PARAMS = {
    "none": {},
    "mirror_angle": {"mirror_angle": 0.3},
    "axis": {"axis": (1.0, 2.0, 2.0)},
    "secondary_axis": {"secondary_axis": (1.0, 1.0, 0.0)},
    "mirror_normal": {"mirror_normal": (0.0, 0.6, 0.8)},
}
CASES = list(itertools.product(LITERAL + NUMBERED + TEMPLATE + MALFORMED, (2, 3), MS, PARAMS))


def _case_id(name: str, dim: int, m: int | None, param: str) -> str:
    return f"{name} dim={dim} m={m} {param}"


def _digest(name: str, dim: int, m: int | None, param: str) -> str:
    try:
        group = schoenflies_group(name, dim, m=m, **PARAMS[param])
    except SymrigError as exc:
        return type(exc).__name__
    h = hashlib.sha256()
    h.update(group.name.encode())
    h.update("\n".join(group.labels).encode())
    h.update(np.ascontiguousarray(group.matrices()).tobytes())
    h.update(np.ascontiguousarray(group.table, dtype=np.int64).tobytes())
    return f"order {len(group)} sha256 {h.hexdigest()}"


EXPECTED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_golden_file_covers_every_case():
    assert sorted(EXPECTED) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize("name, dim, m, param", CASES, ids=[_case_id(*case) for case in CASES])
def test_catalog_bits_are_unchanged(name, dim, m, param):
    assert _digest(name, dim, m, param) == EXPECTED[_case_id(name, dim, m, param)]


if __name__ == "__main__":
    digests = {_case_id(*case): _digest(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
