"""Classifying symmetric realizations by type.

A type assigns to every group operation x a graph automorphism alpha_x
such that moving a joint by x lands on the joint of alpha_x(v):

    x(p(v)) = p(alpha_x(v))   for all vertices v.

Realizations of a graph under a group split into classes indexed by
these assignments. The joint positions name each vertex's possible
images, found for all operations in one pass over the element stack.
An operation whose joints each have one possible image has that one
valid choice; only operations onto coincident joints go to the
constrained automorphism search. Each valid set is a coset of the
coincidence automorphisms (the identity's valid set), so a catalog is
one base type plus that subgroup, and has its size to the power |S|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod

import numpy as np

from ._numeric import _check_tol, chunks
from .errors import (
    DimensionMismatch,
    ExplosionGuard,
    LengthMismatch,
    NotInSymmetryClass,
)
from .graphs import (
    Graph,
    Permutation,
    automorphisms,
    coincidence_automorphisms,  # noqa: F401  bench/tracing.py wraps this name of classify
    format_cycles,
    is_automorphism,
    iter_automorphisms,
    joint_matches,
    short_bars,
    _lengths,
)
from .groups import SymmetryGroup

MAX_TYPE_PRODUCT = 100_000


@dataclass(frozen=True)
class TypeAssignment:
    """One automorphism per group element, parallel to the element list."""

    images: tuple[Permutation, ...]

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, i: int) -> Permutation:
        return self.images[i]

    @cached_property
    def array(self) -> np.ndarray:
        """The images as one read-only (|S|, n) integer array, for checks over the whole type."""
        if len({len(perm) for perm in self.images}) > 1:
            raise LengthMismatch("type images act on different numbers of vertices")
        array = np.array([perm.images for perm in self.images], dtype=int).reshape(len(self.images), -1)
        array.setflags(write=False)
        return array

    def as_dict(self, group: SymmetryGroup, graph: Graph) -> dict[str, str]:
        return {op.label: format_cycles(perm, graph.labels) for op, perm in zip(group.elements, self.images)}


@dataclass(frozen=True)
class TypeCatalog:
    """Base type, coincidence subgroup, and per-element valid sets."""

    base: TypeAssignment
    coincidence_group: tuple[Permutation, ...]
    valid_sets: tuple[tuple[Permutation, ...], ...]

    @property
    def count(self) -> int:
        return prod(len(s) for s in self.valid_sets)

    def normalized_count(self) -> int:
        return prod(len(s) for s in self.valid_sets[1:])


def identity_type(group: SymmetryGroup, n: int) -> TypeAssignment:
    return TypeAssignment(tuple(Permutation.identity(n) for _ in group.elements))


def _check_shapes(graph: Graph, coords: np.ndarray, group: SymmetryGroup) -> np.ndarray:
    p = np.asarray(coords, dtype=float)
    if p.ndim != 2 or p.shape[0] != graph.n:
        raise LengthMismatch(f"expected coordinates of shape ({graph.n}, d), got {p.shape}")
    if p.shape[1] != group.dim:
        raise DimensionMismatch(f"coordinates are {p.shape[1]}d but the group acts on {group.dim}d")
    return p


def _read_images(graph: Graph, coords: np.ndarray, group: SymmetryGroup, tol: float) -> list | None:
    """Per element x, the alphas with x(p(v)) = p(alpha(v)) as read from the joints.

    One pass over the element stack finds the joints w with x(p(v)) within
    tol of p(w). Where each v has one such w, the entry is x's only valid
    alpha, all confirmed by one batched automorphism check; elsewhere it is
    the n x n match matrix for the constrained search. None when p is not
    a framework or some element has no valid choice.
    """
    _check_tol(tol)
    p = _check_shapes(graph, coords, group)
    if len(short_bars(graph, p, tol)):
        return None
    matches = np.concatenate([joint_matches(p @ np.swapaxes(group.matrices()[rows], 1, 2), p, tol)
                              for rows in chunks(len(group), graph.n ** 2 * group.dim)])
    single = (matches.sum(axis=2) == 1).all(axis=1)
    images = matches.argmax(axis=2)
    read = single & (np.sort(images, axis=1) == np.arange(graph.n)).all(axis=1)
    if (single & ~read).any() or not is_automorphism(graph, images[read]).all():
        return None
    return [Permutation(tuple(row)) if ok else m for ok, row, m in zip(read, images.tolist(), matches)]


def _first_choices(graph: Graph, read: list | None) -> tuple[Permutation, ...] | None:
    """The lexicographically first valid alpha per element, None if some element has none."""
    if read is None:
        return None
    firsts = [r if isinstance(r, Permutation) else next(iter_automorphisms(graph, allowed=r), None) for r in read]
    return None if None in firsts else tuple(firsts)


def verify_type(basis: ConfigSpaceBasis, coords: np.ndarray, tol: float = 1e-8) -> bool:
    """Check x(p(v)) = p(phi_x(v)) for all x and v of the class, and that bars have length > tol.

    The class's type was checked against its graph and group when config_space_basis built it.
    """
    _check_tol(tol)
    graph, group, phi = basis.graph, basis.group, basis.phi
    p = _check_shapes(graph, coords, group)
    with np.errstate(over="ignore"):  # as in bar_vectors: an overflowing offset is an infinite distance
        offsets = p @ np.swapaxes(group.matrices(), 1, 2) - p[phi.array]
    return not len(short_bars(graph, p, tol)) and bool((_lengths(offsets) <= tol).all())


def find_base_type(
    graph: Graph,
    coords: np.ndarray,
    group: SymmetryGroup,
    tol: float = 1e-8,
) -> TypeAssignment | None:
    """The assignment made of the lexicographically first valid choice per element.

    None when some element has no valid choice (the realization does not
    have the full symmetry) or the configuration is not a framework.
    """
    firsts = _first_choices(graph, _read_images(graph, coords, group, tol))
    return None if firsts is None else TypeAssignment(firsts)


def enumerate_types(
    graph: Graph,
    coords: np.ndarray,
    group: SymmetryGroup,
    tol: float = 1e-8,
    normalized: bool = False,
    max_product: int = MAX_TYPE_PRODUCT,
) -> tuple[TypeCatalog, list[TypeAssignment]]:
    """All types of a realization: the product of the per-element valid sets.

    With normalized=True the identity operation is pinned to the identity
    automorphism, leaving |Aut(G,p)| ^ (|S| - 1) assignments. Valid sets
    are cosets of Aut(G,p), so its listing stops with ExplosionGuard once
    its size to the power of the free slots exceeds max_product.
    """
    read = _read_images(graph, coords, group, tol)
    firsts = _first_choices(graph, read)
    if firsts is None:
        raise NotInSymmetryClass("the realization admits no type for this group")
    free = max(len(group) - 1, 1) if normalized else len(group)  # the listing of Aut(G,p) itself is bounded too
    search = firsts[:1] if isinstance(read[0], Permutation) else iter_automorphisms(graph, allowed=read[0])
    coincidence = []
    for gamma in search:
        coincidence.append(gamma)
        if (least := len(coincidence) ** free) > max_product:
            raise ExplosionGuard(f"at least {least} type assignments exceed the guard of {max_product}")
    sets = (tuple(coincidence), *(
        (r,) if isinstance(r, Permutation) else tuple(automorphisms(graph, allowed=r)) for r in read[1:]))
    catalog = TypeCatalog(base=TypeAssignment(firsts), coincidence_group=sets[0], valid_sets=sets)
    slots = ((Permutation.identity(graph.n),), *sets[1:]) if normalized else sets
    total = prod(len(s) for s in slots)
    if total > max_product:
        raise ExplosionGuard(f"{total} type assignments exceed the guard of {max_product}")
    types = [TypeAssignment(combo) for combo in product(*slots)]
    return catalog, types


def is_homomorphism(group: SymmetryGroup, phi: TypeAssignment) -> bool:
    """True iff phi respects the group product: phi(x y) = phi(x) phi(y).

    One comparison per row i of the product table covers every pair (x_i, x_j).
    """
    if len(phi) != len(group):
        raise LengthMismatch(f"type assigns {len(phi)} images for a group of order {len(group)}")
    images = phi.array
    return all(np.array_equal(images[row], images[i][images]) for i, row in enumerate(group.table))


def find_homomorphic_type(
    graph: Graph,
    coords: np.ndarray,
    group: SymmetryGroup,
    tol: float = 1e-8,
) -> TypeAssignment | None:
    """First type in catalog order that is a homomorphism, if any.

    Any homomorphism sends the identity operation to the identity
    automorphism, so only the normalized catalog needs scanning.
    """
    _, types = enumerate_types(graph, coords, group, tol, normalized=True)
    for phi in types:
        if is_homomorphism(group, phi):
            return phi
    return None


def restrict_type(group: SymmetryGroup, phi: TypeAssignment, subgroup: SymmetryGroup) -> TypeAssignment:
    """Restrict a type along a subgroup inclusion, matching elements by matrix."""
    if group.dim != subgroup.dim:
        raise DimensionMismatch("subgroup dimension differs")
    return TypeAssignment(tuple(phi[group.index_of(op.matrix)] for op in subgroup.elements))
