"""Bit-level checks of the class-space kernels and bases.

kernel_basis reads a block's kernel from one thin SVD of the block itself.
The kernel checks compare it, byte for byte, with the kernel of the direct
thin SVD, and check that no block is factored A = QR first. The shapes lie at
both sides of the row count 11 cols / 6 from which LAPACK's dgesdd factors a
tall block QR inside, from a few cells to 60 rows per column, for full-rank
blocks, blocks with duplicated columns and sparse +-1 blocks like the orbit
blocks.

`class_space_digest.json` pins the sha256 of config_space_basis(...).basis
for classes the benchmark's workload generator builds: the high_symmetry
solids under I, Ih (from generators), Oh and O, the four cycle_cm classes and
one 150-joint C3 class of large_3d, each at generator seeds 1 to 3.

Regenerate the file, after checking that a change of bits is intended, with

    PYTHONPATH=src python tests/test_class_space_digest.py
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from symrig import _numeric
from symrig._numeric import kernel_basis
from symrig.classify import find_base_type
from symrig.problem import parse_problem
from symrig.symspace import config_space_basis

GOLDEN = Path(__file__).with_name("class_space_digest.json")
BENCH = Path(__file__).resolve().parents[1] / "bench"
COLUMNS = (2, 3, 9, 24, 36, 48, 150)
KINDS = ("full rank", "duplicated columns", "sparse")
CLASSES = {
    "high_symmetry": ("icosahedron_I", "icosahedron_ih_generators", "cube_Oh", "octahedron_O"),
    "cycle_cm": ("cycle96_c12_hom", "cycle96_c12_nonhom", "cycle48_c8_hom", "cycle48_c8_nonhom"),
    "large_3d": ("c3_free_150_0",),
}
SEEDS = (1, 2, 3)


def _crossover(cols: int) -> int:
    return 11 * cols // 6


SHAPES = sorted({(rows, cols) for cols in COLUMNS
                 for rows in (_crossover(cols) - 1, _crossover(cols), 2 * cols, 60 * cols)})


def _block(rows: int, cols: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(rows * 1000 + cols)
    if kind == "sparse":
        return rng.choice([-1.0, 0.0, 0.0, 0.0, 1.0], size=(rows, cols))
    a = rng.normal(size=(rows, cols))
    if kind == "duplicated columns":
        a[:, cols - cols // 2:] = a[:, :cols // 2]
    return a


def _direct_kernel(a: np.ndarray, rtol: float) -> np.ndarray:
    _, sigma, vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(sigma > rtol * sigma[0])) if sigma[0] > 0.0 else 0
    return vh[rank:]


# rtol 1 counts no singular value above the largest, so the "kernel" is all of V.
@pytest.mark.parametrize("rtol", (1e-9, 1.0))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("rows, cols", SHAPES)
def test_kernel_bits_equal_the_direct_svd(rows, cols, kind, rtol):
    a = _block(rows, cols, kind)
    got, want = kernel_basis(a, rtol), _direct_kernel(a, rtol)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_kernel_basis_factors_no_block_first(rows, cols, monkeypatch):
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(_numeric.np.linalg, "qr", lambda a, mode="reduced": calls.append(a.shape) or qr(a, mode))
    kernel_basis(_block(rows, cols, "full rank"))
    assert calls == []


def _load_workloads():
    sys.path.insert(0, str(BENCH))  # workloads.py imports its sibling checks.py
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up by name
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


CASES = [(workload, name, seed) for workload, names in CLASSES.items() for name in names for seed in SEEDS]


def _case_id(workload: str, name: str, seed: int) -> str:
    return f"{workload} {name} seed {seed}"


def _digest(workloads, workload: str, name: str, seed: int) -> str:
    data = next(p.data for p in workloads.build(workload, seed).problems if p.name == name)
    problem = parse_problem(data)
    phi = problem.phi
    if phi is None:  # type "auto": resolved against the placement, as the CLI does
        phi = find_base_type(problem.graph, problem.coords, problem.group, 1e-8)
    basis = config_space_basis(problem.graph, problem.group, phi).basis
    return f"shape {basis.shape} sha256 {hashlib.sha256(basis.tobytes()).hexdigest()}"


EXPECTED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


@pytest.fixture(scope="module")
def workloads():
    return _load_workloads()


def test_golden_file_covers_every_class():
    assert sorted(EXPECTED) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize("workload, name, seed", CASES, ids=[_case_id(*case) for case in CASES])
def test_class_space_bits_are_unchanged(workloads, workload, name, seed):
    assert _digest(workloads, workload, name, seed) == EXPECTED[_case_id(workload, name, seed)]


if __name__ == "__main__":
    module = _load_workloads()
    digests = {_case_id(*case): _digest(module, *case) for case in CASES}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
