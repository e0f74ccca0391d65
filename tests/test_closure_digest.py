"""Bit-level digests of `close_group` results.

`closure_golden.json` pins what the commands print about closed groups;
this file pins the groups themselves. For every generator set below,
`closure_digest.json` holds the sha256 of the element matrices' bytes, the
labels and the product table, or the error a closure raised. The sets are
the polyhedral catalog generators, the Ih generators in every order,
seeded random frames of the polyhedral generators, 2D C_m and C_mv and 3D
D_m generators up to m = 200, and generators that close no finite group,
each under the default bound and a bound of 10.

Regenerate the file, after checking that a change of bits is intended, with

    PYTHONPATH=src python tests/test_closure_digest.py
"""

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from symrig.errors import SymrigError
from symrig.groups import _POLYHEDRAL_GENS, close_group, mirror2, rot2, rot3

GOLDEN = Path(__file__).with_name("closure_digest.json")
POLYHEDRAL = ("T", "Td", "Th", "O", "Oh", "I", "Ih")
EZ, EX = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
ORDERS = (2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 24, 25, 49, 50, 64, 97, 99, 100, 101, 150, 199, 200, 201)


def _frames(seed: int, count: int) -> list[np.ndarray]:
    """Seeded random rotations: no entry of a conjugated generator lies on a snap target."""
    rng = np.random.default_rng(seed)
    return [rot3(rng.normal(size=3), rng.uniform(0.1, math.pi)) for _ in range(count)]


def _generator_sets() -> dict[str, list[np.ndarray]]:
    sets = {name: _POLYHEDRAL_GENS[name]() for name in POLYHEDRAL}
    ih = _POLYHEDRAL_GENS["Ih"]()
    for perm in itertools.permutations(range(3)):
        sets["Ih order " + "".join(map(str, perm))] = [ih[k] for k in perm]
    sets["Ih with identity and repeats"] = [np.eye(3), ih[1], ih[0], ih[1], ih[2], ih[0]]
    for name in POLYHEDRAL:
        for k, q in enumerate(_frames(2024 + len(name), 3)):
            sets[f"{name} frame {k}"] = [q @ g @ q.T for g in _POLYHEDRAL_GENS[name]()]
    angle = _frames(7, 1)[0][0, 1]
    for m in ORDERS:
        sets[f"C{m} 2d"] = [rot2(2.0 * math.pi / m)]
        sets[f"C{m}v 2d"] = [rot2(2.0 * math.pi / m), mirror2(0.0)]
        sets[f"C{m}v 2d tilted"] = [mirror2(angle), mirror2(angle + math.pi / m)]
        sets[f"D{m} 3d"] = [rot3(EZ, 2.0 * math.pi / m), rot3(EX, math.pi)]
    sets["C12 3d from its square and cube"] = [rot3(EZ, math.pi / 3), rot3(EZ, math.pi / 2)]
    sets["rot2(1.0)"] = [rot2(1.0)]
    sets["rot2(1e-7)"] = [rot2(1e-7)]
    sets["two fifth turns about skew axes"] = [rot3(EX, 2.0 * math.pi / 5), rot3((0.0, 1.0, 0.3), 2.0 * math.pi / 5)]
    return sets


SETS = _generator_sets()
CASES = [(key, bound) for key in SETS for bound in (200, 10)]


def _case_id(key: str, bound: int) -> str:
    return f"{key} max_order={bound}"


def _digest(key: str, bound: int) -> str:
    try:
        group = close_group(SETS[key], max_order=bound)
    except SymrigError as exc:
        return f"{type(exc).__name__}: {exc}"
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(group.matrices()).tobytes())
    h.update("\n".join(group.labels).encode())
    h.update(np.ascontiguousarray(group.table, dtype=np.int64).tobytes())
    return f"order {len(group)} sha256 {h.hexdigest()}"


EXPECTED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_golden_file_covers_every_case():
    assert sorted(EXPECTED) == sorted(_case_id(k, b) for k, b in CASES)


@pytest.mark.parametrize("key, bound", CASES, ids=[_case_id(k, b) for k, b in CASES])
def test_closure_bits_are_unchanged(key, bound):
    assert _digest(key, bound) == EXPECTED[_case_id(key, bound)]


if __name__ == "__main__":
    digests = {_case_id(k, b): _digest(k, b) for k, b in CASES}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
