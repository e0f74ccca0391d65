"""Classifying symmetric realizations by type.

A type assigns to every group operation x a graph automorphism alpha_x
such that moving a joint by x lands on the joint of alpha_x(v):

    x(p(v)) = p(alpha_x(v))   for all vertices v.

Realizations of a graph under a group split into classes indexed by
these assignments. The joint positions name each vertex's possible
images, so every operation's set of valid choices is read straight from
the automorphism search constrained by them. Each such set is a coset of
the coincidence automorphisms (the identity's valid set), so a catalog
is determined by one base type plus that subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from .errors import (
    DimensionMismatch,
    ExplosionGuard,
    LengthMismatch,
    NotAnAutomorphism,
    NotInSymmetryClass,
    UnknownName,
)
from .graphs import (
    Graph,
    Permutation,
    automorphisms,
    coincidence_automorphisms,
    format_cycles,
    is_automorphism,
    joint_matches,
    short_bars,
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


def _valid_sets(
    graph: Graph, coords: np.ndarray, group: SymmetryGroup, tol: float
) -> tuple[tuple[Permutation, ...], ...] | None:
    """Per element x, every alpha with x(p(v)) = p(alpha(v)), in lexicographic order.

    Read from the automorphism search with v -> w allowed only when x(p(v))
    lies within tol of p(w). Element 0 is the identity, whose valid set is
    the coincidence group. None when p is not a framework or some element
    has no valid choice.
    """
    p = _check_shapes(graph, coords, group)
    if len(short_bars(graph, p, tol)):
        return None
    sets = [tuple(coincidence_automorphisms(graph, p, tol))]
    for op in group.elements[1:]:
        sets.append(tuple(automorphisms(graph, allowed=joint_matches(p @ op.matrix.T, p, tol))))
    return tuple(sets) if all(sets) else None


def verify_type(
    graph: Graph,
    coords: np.ndarray,
    group: SymmetryGroup,
    phi: TypeAssignment,
    tol: float = 1e-8,
) -> bool:
    """Check x(p(v)) = p(phi_x(v)) for all x and v, and that bars have length > tol."""
    p = _check_shapes(graph, coords, group)
    if len(phi) != len(group):
        raise LengthMismatch(f"type assigns {len(phi)} images for a group of order {len(group)}")
    for op, perm in zip(group.elements, phi.images):
        if not is_automorphism(graph, perm):
            raise NotAnAutomorphism(
                f"image for {op.label} is not an automorphism: {format_cycles(perm, graph.labels)}"
            )
    return not len(short_bars(graph, p, tol)) and all(
        joint_matches(p @ op.matrix.T, p, tol)[range(graph.n), perm.images].all()
        for op, perm in zip(group.elements, phi.images)
    )


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
    sets = _valid_sets(graph, coords, group, tol)
    return None if sets is None else TypeAssignment(tuple(s[0] for s in sets))


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
    automorphism, leaving |Aut(G,p)| ^ (|S| - 1) assignments.
    """
    sets = _valid_sets(graph, coords, group, tol)
    if sets is None:
        raise NotInSymmetryClass("the realization admits no type for this group")
    base = TypeAssignment(tuple(s[0] for s in sets))
    catalog = TypeCatalog(base=base, coincidence_group=sets[0], valid_sets=sets)
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
    if len({len(perm) for perm in phi.images}) != 1:
        raise LengthMismatch("type images act on different numbers of vertices")
    if np.any(group.table < 0):
        raise UnknownName(f"{group.name or 'group'} is not closed under products")
    images = np.array([perm.images for perm in phi.images])
    return all(np.array_equal(images[row], images[i][images]) for i, row in enumerate(group.table))


def find_homomorphic_type(
    graph: Graph,
    coords: np.ndarray,
    group: SymmetryGroup,
    tol: float = 1e-8,
    max_product: int = MAX_TYPE_PRODUCT,
) -> TypeAssignment | None:
    """First type in catalog order that is a homomorphism, if any.

    Any homomorphism sends the identity operation to the identity
    automorphism, so only the normalized catalog needs scanning. With a
    trivial coincidence group the unique type is returned directly.
    """
    catalog, types = enumerate_types(graph, coords, group, tol, normalized=True, max_product=max_product)
    if len(catalog.coincidence_group) == 1:
        return types[0]
    for phi in types:
        if is_homomorphism(group, phi):
            return phi
    return None


def restrict_type(group: SymmetryGroup, phi: TypeAssignment, subgroup: SymmetryGroup) -> TypeAssignment:
    """Restrict a type along a subgroup inclusion, matching elements by matrix."""
    if group.dim != subgroup.dim:
        raise DimensionMismatch("subgroup dimension differs")
    return TypeAssignment(tuple(phi[group.index_of(op.matrix)] for op in subgroup.elements))
