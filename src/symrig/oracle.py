"""Independent slow checks used to validate the fast paths.

Everything here trades speed for directness: full permutation scans
instead of pruned search, exact integer elimination instead of SVD,
minor-by-minor genericity checks instead of a single rank, the dense stack
of class constraints instead of symspace's stabiliser frames, and a group
validator that checks orthogonality at a tighter tolerance. Hard input caps
keep the run times sane; exceeding a cap raises instead of silently
downgrading the check. Only cli's oracle subcommands and the tests use it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

import numpy as np

from ._numeric import _check_tol, kernel_basis
from .classify import MAX_TYPE_PRODUCT, TypeAssignment
from .errors import (BadParam, CapExceeded, ExplosionGuard, InvalidGroup, LengthMismatch, NotInSymmetryClass,
                     NotRationalizable)
from .graphs import Graph, Permutation
from .groups import SymmetryGroup
from .rigidity import Framework, rigidity_matrix

BRUTE_MAX_VERTICES = 9
BRUTE_MAX_ORDER = 6
GENERIC_MAX_VERTICES = 4
MINOR_TOL = 1e-9  # a minor vanishes when its least singular value is this small relative to max(1, largest)
RATIONAL_TOL = 1e-9  # largest distance from an entry to the rational kernel_oracle replaces it by
ORTHO_TOL = 1e-12  # validate_group's orthogonality bound, stricter than the 1e-9 a new element must meet


@dataclass(frozen=True)
class BruteForceTypes:
    """Full type catalog found by unpruned search."""

    valid_sets: tuple[tuple[Permutation, ...], ...]
    types: tuple[TypeAssignment, ...]
    normalized: tuple[TypeAssignment, ...]


def brute_force_type_search(
    graph: Graph,
    coords: np.ndarray,
    group: SymmetryGroup,
    tol: float = 1e-8,
) -> BruteForceTypes:
    """Every type assignment, by scanning all n! vertex bijections.

    The valid set of each operation is collected independently, then the
    catalog is the full Cartesian product. No coset or witness reasoning
    is used, which is the point: this is the cross-check for the fast
    enumeration.
    """
    if graph.n > BRUTE_MAX_VERTICES:
        raise CapExceeded(f"brute force capped at {BRUTE_MAX_VERTICES} vertices, got {graph.n}")
    if len(group) > BRUTE_MAX_ORDER:
        raise CapExceeded(f"brute force capped at group order {BRUTE_MAX_ORDER}, got {len(group)}")
    p = np.asarray(coords, dtype=float)
    edge_set = graph.edges
    autos = []
    for images in itertools.permutations(range(graph.n)):
        if all(
            ((images[u], images[v]) if images[u] < images[v] else (images[v], images[u])) in edge_set
            for u, v in edge_set
        ):
            autos.append(Permutation(images))
    valid_sets = []
    for op in group.elements:
        moved = p @ op.matrix.T
        good = tuple(a for a in autos if np.max(np.abs(moved - p[list(a.images)])) <= tol)
        valid_sets.append(good)
    if prod(map(len, valid_sets)) > MAX_TYPE_PRODUCT:
        raise ExplosionGuard(f"type catalog would exceed {MAX_TYPE_PRODUCT} entries")
    types = tuple(TypeAssignment(images=combo) for combo in itertools.product(*valid_sets))
    normalized = tuple(t for t in types if t[0].is_identity())
    return BruteForceTypes(valid_sets=tuple(valid_sets), types=types, normalized=normalized)


def trivial_motion_basis(framework: Framework) -> np.ndarray:
    """Spanning set of trivial infinitesimal motions, one per row.

    d translations plus one rotation field u(v) = A p_v for each basis
    element A of the skew-symmetric matrices. The rows may be linearly
    dependent for degenerate configurations. The reference for the closed
    form count of trivial motions in rigidity_verdict.
    """
    p = framework.coords
    n, d = p.shape
    fields = []
    for k in range(d):
        t = np.zeros((n, d))
        t[:, k] = 1.0
        fields.append(t.reshape(-1))
    for a, b in itertools.combinations(range(d), 2):
        skew = np.zeros((d, d))
        skew[a, b] = 1.0
        skew[b, a] = -1.0
        fields.append((p @ skew.T).reshape(-1))
    return np.array(fields)


def symmetry_constraint_matrix(group: SymmetryGroup, images, x_index: int, n: int) -> np.ndarray:
    """The (d n) x (d n) block matrix of the constraint for one operation."""
    pmat = np.eye(n)[list(images[x_index].images)]
    return np.kron(np.eye(n), group.elements[x_index].matrix) - np.kron(pmat, np.eye(group.dim))


def constraint_stack(group: SymmetryGroup, images, n: int) -> np.ndarray:
    """The class constraints as one dense (|S| d n) x (d n) stack; the identity's only if its image is not."""
    return np.vstack([np.zeros((0, group.dim * n))] + [
        symmetry_constraint_matrix(group, images, x, n)
        for x in range(len(group)) if not (group.elements[x].is_identity() and images[x].is_identity())
    ])


def _orbits(n: int, images) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group the images generate, each sorted, ordered by least vertex."""
    orbits, seen = [], set()
    for v in range(n):
        if v not in seen:
            orbit = [v]
            seen.add(v)
            for w in orbit:
                fresh = {perm.images[w] for perm in images} - seen
                seen |= fresh
                orbit.extend(fresh)
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def validate_group(group: SymmetryGroup) -> None:
    """Check each element's orthogonality and unit determinant within ORTHO_TOL; raises InvalidGroup naming the first.

    The constructor has checked the rest at MATCH_TOL: the identity first, closure, distinct elements, unique labels.
    """
    stack = group.matrices()
    skew = np.abs(np.swapaxes(stack, 1, 2) @ stack - np.eye(group.dim)).max(axis=(1, 2)) > ORTHO_TOL
    bad = np.flatnonzero(skew | (np.abs(np.abs(np.linalg.det(stack)) - 1.0) > ORTHO_TOL * 10))
    if bad.size:
        i = int(bad[0])
        fault = f"fails orthogonality at {ORTHO_TOL}" if skew[i] else "has non-unit determinant"
        raise InvalidGroup(f"element {i} ({group.elements[i].label}) {fault}")


@dataclass(frozen=True)
class GenericCheckReport:
    """Outcome of the all-minors genericity check."""

    generic: bool
    minors_checked: int
    vanishing_at_point: int
    failing_minor: tuple[tuple[int, ...], tuple[int, ...]] | None

    def __bool__(self) -> bool:
        return self.generic


def _minor_vanishes(sub: np.ndarray) -> bool:
    sigma = np.linalg.svd(sub, compute_uv=False)
    return bool(sigma[-1] <= MINOR_TOL * max(1.0, sigma[0]))


def exhaustive_generic_check(
    coords: np.ndarray,
    group: SymmetryGroup,
    images: tuple[Permutation, ...],
    evals: int = 8,
    seed: int = 0,
    tol: float = 1e-8,
) -> GenericCheckReport:
    """Decide genericity of a configuration within its class, minor by minor.

    A configuration is generic for its class when every square submatrix
    of the complete-graph rigidity matrix that is singular there is
    singular everywhere on the class's configuration space. Identical
    vanishing is tested at seeded random members of the space, so a False
    is definitive while a True is correct up to a measure-zero accident.
    With no evaluation point every minor would count as vanishing
    identically, so evals must be at least 1. The configuration must meet
    the class constraints within tol at every joint, as verify_type measures.
    """
    if evals < 1:
        raise BadParam(f"evals must be at least 1, got {evals}")
    _check_tol(tol)
    p = np.asarray(coords, dtype=float)
    n, d = p.shape
    if n > GENERIC_MAX_VERTICES:
        raise CapExceeded(f"minor scan capped at {GENERIC_MAX_VERTICES} vertices, got {n}")
    if d != 2:
        raise CapExceeded("minor scan only implemented in the plane")
    if len(images) != len(group):
        raise LengthMismatch(f"{len(images)} images for a group of order {len(group)}")
    stack = constraint_stack(group, images, n)
    if np.max(np.linalg.norm((stack @ p.reshape(-1)).reshape(-1, d), axis=1), initial=0.0) > tol:
        raise NotInSymmetryClass("configuration violates the class constraints")
    space = kernel_basis(stack)
    peak = np.max(np.abs(p))
    if peak > 0:
        p = p / peak

    rng = np.random.default_rng(seed)
    eval_points = []
    for _ in range(evals):
        q = (rng.uniform(-1.0, 1.0, space.shape[0]) @ space).reshape(n, d)
        qpeak = np.max(np.abs(q))
        eval_points.append(q / qpeak if qpeak > 0 else q)
    complete = Graph.complete(n)
    matrices = [rigidity_matrix(Framework(complete, q)) for q in eval_points]
    base = rigidity_matrix(Framework(complete, p))

    rows_total, cols_total = base.shape
    checked = 0
    vanishing = 0
    for size in range(1, min(rows_total, cols_total) + 1):
        for row_pick in itertools.combinations(range(rows_total), size):
            for col_pick in itertools.combinations(range(cols_total), size):
                checked += 1
                sub = base[np.ix_(row_pick, col_pick)]
                if not _minor_vanishes(sub):
                    continue
                vanishing += 1
                for mat in matrices:
                    if not _minor_vanishes(mat[np.ix_(row_pick, col_pick)]):
                        return GenericCheckReport(
                            generic=False, minors_checked=checked,
                            vanishing_at_point=vanishing,
                            failing_minor=(row_pick, col_pick),
                        )
    return GenericCheckReport(
        generic=True, minors_checked=checked, vanishing_at_point=vanishing, failing_minor=None,
    )


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination, exact."""
    mat = [list(r) for r in rows]
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(nc):
        pivot_row = next((i for i in range(r, nr) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                mat[i][j] = (mat[r][c] * mat[i][j] - mat[i][c] * mat[r][j]) // prev
            mat[i][c] = 0
        prev = mat[r][c]
        rank += 1
        r += 1
        if r == nr:
            break
    return rank


def kernel_oracle(matrix: np.ndarray, denom_bound: int = 10**6) -> int:
    """Kernel dimension by exact rational elimination, no SVD anywhere.

    Entries must be recognizably rational (denominator up to denom_bound
    within RATIONAL_TOL), which holds for constraint stacks whose group
    matrices have exact entries like 0, +-1, +-0.5. Entries with no such
    form raise NotRationalizable; callers must not feed stacks built from
    irrational rotations, whose continued-fraction convergents can slip
    under RATIONAL_TOL and rationalize to a nearby wrong matrix.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("kernel_oracle expects a 2d array")
    int_rows = []
    for row in a:
        fracs = []
        for x in row:
            f = Fraction(float(x)).limit_denominator(denom_bound)
            if abs(f - Fraction(float(x))) > RATIONAL_TOL:
                raise NotRationalizable(f"entry {x!r} has no rational form with denominator <= {denom_bound}")
            fracs.append(f)
        mult = lcm(*(f.denominator for f in fracs))
        int_rows.append([int(f * mult) for f in fracs])
    return a.shape[1] - _bareiss_rank(int_rows)
