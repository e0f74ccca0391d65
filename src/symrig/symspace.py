"""The symmetric configuration space of a class and generic sampling.

A configuration p lies in the class of a type phi exactly when
M_x p_v = p_{phi_x(v)} for every operation x and joint v. Each constraint
couples a joint only with its own image, so the space U of such
configurations is a direct sum over the orbits of the permutation group
the images generate, and its basis is built one orbit at a time. Almost
every point of U realizes the maximal rank the class can attain, which
makes one sampled witness a sound certificate for rigidity properties of
the whole class; negative verdicts from sampling remain probabilistic.

Because every member of a class satisfies M_g p_v = p_{phi_g(v)} for
each operation g, its rigidity matrix intertwines g's action on joint
velocities with the bar permutation of phi_g, R(p) T_g = T_B R(p). Each
class builds the phase split of one operation once (rigidity.phase_split)
and decides the rank of each sampled member from its blocks. Classes
with fewer than PHASE_MIN_COLUMNS columns keep one SVD of R, which is
faster there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numeric import kernel_basis
from .classify import TypeAssignment, is_homomorphism
from .errors import (
    BadParam,
    InconsistentPropagation,
    LengthMismatch,
    NotAHomomorphism,
    NotAnAutomorphism,
    SamplingExhausted,
)
from .graphs import Graph, is_automorphism
from .groups import LinearSubspace, SymmetryGroup, fixed_subspace
from .rigidity import Framework, PhaseBlock, phase_period, phase_split, rigidity_verdict

# Columns (d n) from which a sampled member's rank is read from phase blocks.
# On one BLAS thread a class of 96 columns breaks even once the split's
# set-up (about 1 ms) is counted; at 192 columns a rank is 3 to 4 times faster.
PHASE_MIN_COLUMNS = 128
DRAW_RETRIES = 100  # draws per sample before giving up on a class whose bars keep collapsing
MEMBERSHIP_TOL = 1e-8  # largest class-constraint violation orbit propagation may leave
FORCED_BAR_TOL = 1e-9  # a bar whose p_u - p_v is this small on every basis vector is forced to zero length


def _orbits(n: int, images) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group the images generate, each sorted, ordered by least vertex."""
    orbits, seen = [], set()
    for v in range(n):
        if v in seen:
            continue
        orbit = [v]
        seen.add(v)
        for w in orbit:
            fresh = {perm.images[w] for perm in images} - seen
            seen |= fresh
            orbit.extend(fresh)
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


@dataclass(frozen=True, eq=False)
class ConfigSpaceBasis:
    """Orthonormal basis of the symmetric configuration space, rows are vectors."""

    graph: Graph
    group: SymmetryGroup
    phi: TypeAssignment
    basis: np.ndarray

    @property
    def k(self) -> int:
        return int(self.basis.shape[0])

    @property
    def dim(self) -> int:
        return self.group.dim

    @cached_property
    def phases(self) -> tuple[PhaseBlock, ...] | None:
        """The phase split class members' ranks are read from, built once.

        It is the split of the operation whose T_g has the largest order,
        the first in group order on ties. None, for one SVD of R, below
        PHASE_MIN_COLUMNS columns or when every T_g is the identity.
        """
        if self.dim * self.graph.n < PHASE_MIN_COLUMNS:
            return None
        periods = [phase_period(op, perm) for op, perm in zip(self.group.elements, self.phi.images)]
        best = periods.index(max(periods))
        if periods[best] == 1:
            return None
        return phase_split(self.graph, self.group.elements[best], self.phi[best])

    def coords_from(self, weights: np.ndarray) -> np.ndarray:
        """Configuration for a coefficient vector, reshaped to (n, d)."""
        w = np.asarray(weights, dtype=float)
        vec = w @ self.basis if self.k else np.zeros(self.group.dim * self.graph.n)
        return vec.reshape(self.graph.n, self.group.dim)


def config_space_basis(graph: Graph, group: SymmetryGroup, phi: TypeAssignment) -> ConfigSpaceBasis:
    """Orthonormal basis of the class space, one orbit at a time.

    An orbit's block is its constraints restricted to its own joints, its kernel taken at
    kernel_basis's default rtol. The identity takes part only if its image is not.
    """
    if len(phi) != len(group):
        raise LengthMismatch(f"type assigns {len(phi)} images for a group of order {len(group)}")
    d, n = group.dim, graph.n
    mapped = is_automorphism(graph, phi.array)
    if not mapped.all():
        raise NotAnAutomorphism(f"image for {group.elements[int(np.argmin(mapped))].label} is not an automorphism")
    first = 1 if phi[0].is_identity() else 0  # element 0 is the identity operation
    mats, images = group.matrices()[first:], phi.array[first:]
    rows = [np.zeros((0, n, d))]
    for orbit in _orbits(n, phi.images):
        m = len(orbit)
        # block[x, i, :, j, :] = [i == j] M_x - [phi_x(orbit[i]) == orbit[j]] I_d
        perm = np.eye(m)[np.searchsorted(orbit, images[:, orbit])]
        block = np.einsum("ij,xab->xiajb", np.eye(m), mats) - np.einsum("xij,ab->xiajb", perm, np.eye(d))
        kernel = kernel_basis(block.reshape(-1, m * d))
        rows.append(np.zeros((len(kernel), n, d)))
        rows[-1][:, list(orbit)] = kernel.reshape(len(kernel), m, d)
    return ConfigSpaceBasis(graph=graph, group=group, phi=phi, basis=np.concatenate(rows).reshape(-1, d * n))


def constraint_residual(basis_or_graph, group: SymmetryGroup, phi: TypeAssignment, coords: np.ndarray) -> float:
    """Largest violation of the class constraints by a configuration."""
    graph = basis_or_graph.graph if isinstance(basis_or_graph, ConfigSpaceBasis) else basis_or_graph
    p = np.asarray(coords, dtype=float).reshape(graph.n, group.dim)
    return float(np.max(np.abs(p @ np.swapaxes(group.matrices(), 1, 2) - p[phi.array]), initial=0.0))


def class_is_empty(graph: Graph, basis: ConfigSpaceBasis) -> tuple[bool, list[tuple[int, int]]]:
    """Exact emptiness test: a class is empty iff some bar is forced to zero length.

    A bar {u, v} is forced exactly when the linear functional p_u - p_v
    vanishes on every basis vector of U, which makes every member of the
    class degenerate on that bar.
    """
    # One bar at a time: a (k, |E|, d) array of all differences would outgrow the basis itself.
    p = basis.basis.reshape(basis.k, graph.n, basis.dim)
    offending = [(u, v) for u, v in graph.bars.tolist() if np.max(np.abs(p[:, u] - p[:, v]), initial=0.0) <= FORCED_BAR_TOL]
    return (len(offending) > 0, offending)


def _draw_config(basis: ConfigSpaceBasis, rng: np.random.Generator, framework_tol: float) -> Framework:
    g = basis.graph
    if basis.k == 0:
        coords = np.zeros((g.n, basis.dim))
        f = Framework(g, coords)
        if f.edge_violations(framework_tol):
            raise SamplingExhausted("the class is empty: its only configuration collapses a bar")
        return f
    for _ in range(DRAW_RETRIES):
        weights = rng.uniform(-1.0, 1.0, basis.k)
        coords = basis.coords_from(weights)
        peak = np.max(np.abs(coords))
        if peak <= framework_tol:
            continue
        coords = coords / peak
        f = Framework(g, coords)
        if not f.edge_violations(framework_tol):
            return f
    raise SamplingExhausted(f"no valid framework in {DRAW_RETRIES} draws")


def sample_config(basis: ConfigSpaceBasis, seed: int = 0, framework_tol: float = 1e-8) -> Framework:
    """Draw a framework from the class, rescaled to the unit box.

    Coefficients are uniform on [-1, 1]^k; draws that collapse a bar are
    rejected. The result satisfies the class constraints by construction.
    """
    return draw_samples(basis, 1, seed, framework_tol)[0]


def draw_samples(basis: ConfigSpaceBasis, count: int, seed: int = 0, framework_tol: float = 1e-8) -> list[Framework]:
    """count frameworks from one seeded stream (deterministic for a seed)."""
    if count < 1:
        raise BadParam(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    return [_draw_config(basis, rng, framework_tol) for _ in range(count)]


@dataclass(frozen=True, eq=False)
class OrbitStructure:
    """Vertex orbits of a homomorphic type, with per-representative freedom."""

    graph: Graph
    orbits: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    fixed_spaces: tuple[LinearSubspace, ...]

    def degrees_of_freedom(self) -> int:
        return sum(space.dim for space in self.fixed_spaces)


def orbit_structure(graph: Graph, group: SymmetryGroup, phi: TypeAssignment) -> OrbitStructure:
    """Vertex orbits under the assigned automorphisms, for homomorphic types.

    Each representative may be placed anywhere in the intersection of the
    fixed subspaces of its stabilizing operations; the rest of its orbit
    is then forced. Non-homomorphic assignments are rejected because orbit
    propagation is only consistent along a group action.
    """
    if not is_homomorphism(group, phi):
        raise NotAHomomorphism("orbit structure needs a homomorphic type")
    orbits = _orbits(graph.n, phi.images)
    spaces = []
    for orbit in orbits:
        # A homomorphic type maps the identity to the identity, so the rows are never empty.
        fixing = [x for x in range(len(group)) if phi[x](orbit[0]) == orbit[0]]
        stabilizer_rows = (group.matrices()[fixing] - np.eye(group.dim)).reshape(-1, group.dim)
        spaces.append(LinearSubspace(group.dim, kernel_basis(stabilizer_rows)))
    reps = tuple(orbit[0] for orbit in orbits)
    return OrbitStructure(graph=graph, orbits=orbits, representatives=reps, fixed_spaces=tuple(spaces))


def _ball_point(space: LinearSubspace, rng: np.random.Generator) -> np.ndarray:
    if space.dim == 0:
        return np.zeros(space.ambient_dim)
    while True:
        w = rng.uniform(-1.0, 1.0, space.dim)
        if np.linalg.norm(w) <= 1.0:
            return w @ space.basis


def orbit_sample(
    structure: OrbitStructure,
    group: SymmetryGroup,
    phi: TypeAssignment,
    seed: int = 0,
    framework_tol: float = 1e-8,
) -> Framework:
    """Sample by placing each orbit representative and propagating.

    Representatives are drawn uniformly from the unit ball of their fixed
    subspace; every other joint position is the image of its representative
    under some operation. Draws that collapse a bar are rejected.
    """
    g = structure.graph
    rng = np.random.default_rng(seed)
    for _ in range(DRAW_RETRIES):
        coords = np.full((g.n, group.dim), np.nan)
        for rep, space in zip(structure.representatives, structure.fixed_spaces):
            point = _ball_point(space, rng)
            for x in range(len(group)):
                target = phi[x](rep)
                image = group.elements[x].matrix @ point
                if np.isnan(coords[target, 0]):
                    coords[target] = image
                elif np.max(np.abs(coords[target] - image)) > MEMBERSHIP_TOL:
                    raise InconsistentPropagation(
                        f"joint {g.labels[target]} received two positions differing by more than {MEMBERSHIP_TOL}"
                    )
        residual = constraint_residual(g, group, phi, coords)
        if residual > MEMBERSHIP_TOL:
            raise InconsistentPropagation(f"propagated configuration violates the class constraints by {residual:.2e}")
        f = Framework(g, coords)
        if not f.edge_violations(framework_tol):
            return f
    raise SamplingExhausted(f"no valid framework in {DRAW_RETRIES} draws")


@dataclass(frozen=True)
class SymGenericReport:
    """Verdicts for a whole class from seeded witness sampling."""

    k: int
    empty: bool
    offending_edges: tuple[tuple[int, int], ...]
    samples_drawn: int
    ranks: tuple[int, ...]
    max_rank: int
    infinitesimally_rigid: bool
    independent: bool
    isostatic: bool
    witness: np.ndarray | None

    def to_dict(self, labels: tuple[str, ...] | None = None) -> dict:
        out = {
            "k": self.k,
            "empty": self.empty,
            "offending_edges": [
                [labels[u], labels[v]] if labels else [u, v] for u, v in self.offending_edges
            ],
            "samples_drawn": self.samples_drawn,
            "max_rank": self.max_rank,
            "infinitesimally_rigid": self.infinitesimally_rigid,
            "independent": self.independent,
            "isostatic": self.isostatic,
            "note": "positive verdicts carry a sampled witness; negative verdicts are probabilistic",
        }
        if self.witness is not None:
            if labels:
                out["witness"] = {labels[i]: [float(c) for c in row] for i, row in enumerate(self.witness)}
            else:
                out["witness"] = [[float(c) for c in row] for row in self.witness]
        return out


def sym_generic_verdict(
    graph: Graph,
    group: SymmetryGroup,
    phi: TypeAssignment,
    trials: int = 20,
    seed: int = 0,
    rank_rtol: float = 1e-8,
    framework_tol: float = 1e-8,
) -> SymGenericReport:
    """Classify a whole class by sampling: empty, or rigidity verdicts.

    All generic realizations in a class share their infinitesimal rigidity
    properties (*Injective and non-injective realizations with symmetry*,
    arXiv:0808.1761), and a sample is generic in this sense when
    its rank is the greatest the class attains: the rank falls below that
    only on a proper algebraic subset of the class space. So the class
    verdict is the verdict of the first sample of greatest rank among the
    trials draws, and that sample is the witness. A positive verdict holds
    for almost all members of the class; a negative verdict only reports
    that no sample of higher rank appeared within the trial budget.
    """
    if trials < 1:
        raise BadParam(f"trials must be at least 1, got {trials}")
    basis = config_space_basis(graph, group, phi)
    empty, offending = class_is_empty(graph, basis)
    if empty:
        return SymGenericReport(
            k=basis.k, empty=True, offending_edges=tuple(offending), samples_drawn=0,
            ranks=(), max_rank=0, infinitesimally_rigid=False, independent=False,
            isostatic=False, witness=None,
        )
    rng = np.random.default_rng(seed)
    ranks = []
    best = witness = None
    for _ in range(trials):
        f = _draw_config(basis, rng, framework_tol)
        report = rigidity_verdict(f, rank_rtol, framework_tol, basis.phases)
        ranks.append(report.rank)
        if best is None or report.rank > best.rank:
            best, witness = report, f.coords
    return SymGenericReport(
        k=basis.k, empty=False, offending_edges=(), samples_drawn=trials,
        ranks=tuple(ranks), max_rank=best.rank, infinitesimally_rigid=best.infinitesimally_rigid,
        independent=best.independent, isostatic=best.isostatic, witness=witness,
    )
