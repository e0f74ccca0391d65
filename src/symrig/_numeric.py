"""Small shared numerical helpers (SVD ranks, kernels, entry snapping)."""

from __future__ import annotations

import math

import numpy as np

from .errors import BadParam

SNAP_TOL = 1e-12  # entries this close to 0, +-0.5 or +-1 are taken for that value plus rounding error
# Cells of the largest array one stacked pass builds: the bar differences of drawn members, or their rigidity
# matrices or phase blocks. Longer stacks are cut into chunks. A rank chunk holds at least the members numpy ranks
# without the GIL (4 of a 150-joint C3 class), on one thread per usable CPU; no flag sets either (see rigidity).
STACK_CELLS = 1 << 16


def chunks(count: int, cells: int) -> list[slice]:
    """Slices of range(count) whose items, of `cells` cells each, fill at most STACK_CELLS.

    A chunk holds at least one item, however large.
    """
    step = max(1, STACK_CELLS // max(cells, 1))
    return [slice(i, i + step) for i in range(0, count, step)]


def _check_tol(tol: float, name: str = "tol") -> None:
    """Reject a tolerance, relative ("rtol") or a distance, that is not a finite number >= 0."""
    if not (math.isfinite(tol) and tol >= 0):
        raise BadParam(f"{name} must be a finite number >= 0, got {tol}")


def block_rank(blocks, rtol: float = 1e-8):
    """Rank of a block-diagonal matrix given as (block, multiplicity) pairs.

    It counts the singular values above rtol times the largest singular
    value of all blocks, each block's as often as its multiplicity says.
    A single block of multiplicity 1 is the plain numerical rank. Blocks
    may be stacks block[..., rows, cols] with common leading axes; each
    stacked matrix is then ranked against its own largest singular value,
    and the ranks come back as an integer array of the leading shape.
    blocks may be an iterable that builds each block once the last is dropped.
    """
    _check_tol(rtol, "rtol")
    lead, sigmas = (), []
    for block, mult in blocks:
        lead = block.shape[:-2]  # from empty blocks too: a class without bars has one rank per member
        if block.size:
            sigmas.append((np.linalg.svd(block, compute_uv=False), mult))
        del block
    top = np.zeros(lead)
    for sigma, _ in sigmas:
        top = np.maximum(top, sigma[..., 0])
    cut = rtol * top[..., None]
    rank = sum([mult * np.count_nonzero(sigma > cut, axis=-1) for sigma, mult in sigmas], np.zeros(lead, int))
    return int(rank) if rank.ndim == 0 else rank


def kernel_basis(matrix: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the right kernel, one vector per row.

    A matrix with no rows constrains nothing: numpy's full V of it is the
    identity, the canonical basis of the whole space.
    """
    _check_tol(rtol, "rtol")
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("kernel_basis expects a 2d array")
    rows, cols = a.shape
    # A wide matrix needs the full V for its kernel; U is never needed beyond thin.
    _, sigma, vh = np.linalg.svd(a, full_matrices=rows < cols)
    rank = np.count_nonzero(sigma > rtol * sigma.max(initial=0.0))
    return vh[rank:].copy()


def snap_matrix(matrix: np.ndarray) -> np.ndarray:
    """Snap entries within SNAP_TOL of 0, +-0.5, +-1 onto those exact values.

    These are the values that orthogonal operations built from the catalog
    hit exactly. A snapped zero is +0.0.
    """
    a = np.array(matrix, dtype=float)
    target = np.rint(2.0 * a) / 2.0
    near = (np.abs(a - target) <= SNAP_TOL) & (np.abs(target) <= 1.0)
    a[near] = target[near] + 0.0
    return a
