"""Small shared numerical helpers (SVD ranks, kernels, entry snapping)."""

from __future__ import annotations

import numpy as np

SNAP_TOL = 1e-12  # entries this close to 0, +-0.5 or +-1 are taken for that value plus rounding error
# Cells of the largest array one stacked pass builds: the bar differences of
# drawn members, their rigidity matrices or phase blocks, or the differences of
# a chunk of bars over a basis. Longer stacks are cut into chunks. A member of a 150-joint C3 class (44k cells of phase blocks)
# is then a chunk of its own, so such a class peaks at the memory of one member.
STACK_CELLS = 1 << 16


def chunks(count: int, cells: int) -> list[slice]:
    """Slices of range(count) whose items, of `cells` cells each, fill at most STACK_CELLS.

    A chunk holds at least one item, however large.
    """
    step = max(1, STACK_CELLS // max(cells, 1))
    return [slice(i, i + step) for i in range(0, count, step)]


def block_rank(blocks, rtol: float = 1e-8):
    """Rank of a block-diagonal matrix given as (block, multiplicity) pairs.

    It counts the singular values above rtol times the largest singular
    value of all blocks, each block's as often as its multiplicity says.
    A single block of multiplicity 1 is the plain numerical rank. Blocks
    may be stacks block[..., rows, cols] with common leading axes; each
    stacked matrix is then ranked against its own largest singular value,
    and the ranks come back as an integer array of the leading shape.
    """
    lead = blocks[0][0].shape[:-2] if blocks else ()
    sigmas = [(np.linalg.svd(block, compute_uv=False), mult) for block, mult in blocks if block.size]
    top = np.zeros(lead)
    for sigma, _ in sigmas:
        top = np.maximum(top, sigma[..., 0])
    cut = rtol * top[..., None]
    rank = sum([mult * np.count_nonzero(sigma > cut, axis=-1) for sigma, mult in sigmas], np.zeros(lead, int))
    return int(rank) if rank.ndim == 0 else rank


def numeric_rank(matrix: np.ndarray, rtol: float = 1e-8) -> int:
    """Number of singular values above rtol times the largest one."""
    return block_rank([(np.asarray(matrix, dtype=float), 1)], rtol)


def kernel_basis(matrix: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the right kernel, one vector per row.

    A matrix with no rows constrains nothing, so the kernel is the whole
    space and the canonical basis is returned.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("kernel_basis expects a 2d array")
    cols = a.shape[1]
    if a.shape[0] == 0:
        return np.eye(cols)
    # A wide matrix needs the full V for its kernel; U is never needed beyond thin.
    _, sigma, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    if sigma.size == 0 or sigma[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(sigma > rtol * sigma[0]))
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
