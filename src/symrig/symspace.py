"""The symmetric configuration space of a class and generic sampling.

A configuration p lies in the class of a type phi exactly when
M_x p_v = p_{phi_x(v)} for every operation x and joint v. Each constraint
couples a joint only with its own image, so the space U of such
configurations is a direct sum over the orbits of the permutation group
the images generate, and its basis is built one orbit at a time (oracle
keeps the dense stack and orbit propagation as references). Almost
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

A class is sampled in stacks: the trials' coefficient vectors are rows of
one uniform draw, their configurations one stacked product with the basis,
and rigidity.rigidity_verdicts ranks them together. A stack holds as many
members as fit _numeric.STACK_CELLS cells of bar differences. Every row is
computed exactly as a single draw would be, so a seed yields the same
members and verdicts as drawing and deciding them one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _numeric
from ._numeric import kernel_basis
from .classify import TypeAssignment
from .classify import is_homomorphism  # noqa: F401  bench/tracing.py wraps this name of symspace
from .errors import BadParam, LengthMismatch, NotAnAutomorphism, SamplingExhausted
from .graphs import Graph, bar_vectors, is_automorphism, short_bars
from .groups import SymmetryGroup
from .rigidity import Framework, PhaseBlock, phase_period, phase_split, rigidity_verdicts
from .rigidity import rigidity_verdict  # noqa: F401  bench/tracing.py wraps this name of symspace

# Columns (d n) from which sampled members' ranks are read from phase blocks.
# On one BLAS thread, 20 stacked members with the split's set-up counted
# break even at about 48 columns; the split is 16 % faster at 64 columns,
# twice as fast at 96 and 4 times as fast at 192.
PHASE_MIN_COLUMNS = 64
DRAW_RETRIES = 100  # draws per sample before giving up on a class whose bars keep collapsing
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
    x, a = np.arange(len(mats))[:, None, None], np.arange(d)
    rows = [np.zeros((0, n, d))]
    for orbit in _orbits(n, phi.images):
        m = len(orbit)
        # block[x, i, :, j, :] = [i == j] M_x - [phi_x(orbit[i]) == orbit[j]] I_d
        block = np.zeros((len(mats), m, d, m, d))
        i = np.arange(m)
        block[:, i, :, i, :] = mats
        block[x, i[:, None], a, np.searchsorted(orbit, images[:, orbit])[..., None], a] -= 1.0
        kernel = kernel_basis(block.reshape(-1, m * d))
        rows.append(np.zeros((len(kernel), n, d)))
        rows[-1][:, list(orbit)] = kernel.reshape(len(kernel), m, d)
    return ConfigSpaceBasis(graph=graph, group=group, phi=phi, basis=np.concatenate(rows).reshape(-1, d * n))


def constraint_residual(basis_or_graph, group: SymmetryGroup, phi: TypeAssignment, coords: np.ndarray) -> float:
    """Largest violation of the class constraints by configurations coords[..., n, d], in chunks of STACK_CELLS."""
    graph = basis_or_graph.graph if isinstance(basis_or_graph, ConfigSpaceBasis) else basis_or_graph
    p = np.asarray(coords, dtype=float).reshape(-1, 1, graph.n, group.dim)
    worst = 0.0
    for part in _numeric.chunks(len(p), len(group) * graph.n * group.dim):
        diff = p[part] @ group.matrices().swapaxes(1, 2)
        diff -= p[part, 0][:, phi.array]
        worst = max(worst, float(np.max(np.abs(diff, out=diff), initial=0.0)))
    return worst


def class_is_empty(graph: Graph, basis: ConfigSpaceBasis) -> tuple[bool, list[tuple[int, int]]]:
    """Exact emptiness test: a class is empty iff some bar is forced to zero length.

    A bar {u, v} is forced exactly when the linear functional p_u - p_v
    vanishes on every basis vector of U, which makes every member of the
    class degenerate on that bar.
    """
    # Bars in chunks: a (k, |E|, d) array of all differences would outgrow the basis itself.
    p = basis.basis.reshape(basis.k, graph.n, basis.dim)
    bars = graph.bars
    forced = np.zeros(len(bars), bool)
    for part in _numeric.chunks(len(bars), p.shape[0] * p.shape[2]):
        diff = p[:, bars[part, 0]]
        diff -= p[:, bars[part, 1]]
        forced[part] = np.max(np.abs(diff, out=diff), axis=(0, 2), initial=0.0) <= FORCED_BAR_TOL
    offending = [(u, v) for u, v in bars[forced].tolist()]
    return (len(offending) > 0, offending)


def _draws(basis: ConfigSpaceBasis, rng: np.random.Generator, count: int, framework_tol: float):
    """count members of the class, rescaled to the unit box, as chunks coordinates[b, n, d].

    The coefficient vectors are consecutive rows of one stream of uniform
    draws on [-1, 1]^k. A row is rejected when its configuration vanishes
    or collapses a bar; the next row takes its place. DRAW_RETRIES
    consecutive rejections give up. A chunk's bar differences fill at most
    STACK_CELLS cells. No batch reaches past the row at which a chunk is
    complete or the draws give up, so the stream is left where drawing one
    row at a time leaves it, and a chunk ends on an accepted row, where the
    retry count starts again.
    """
    g, d = basis.graph, basis.dim
    if basis.k == 0 and len(short_bars(g, np.zeros((g.n, d)), framework_tol)):
        raise SamplingExhausted("the class is empty: its only configuration collapses a bar")
    for part in _numeric.chunks(count, g.edge_count * d):
        size = len(range(count)[part])
        if basis.k == 0:
            yield np.zeros((size, g.n, d))
            continue
        accepted, rejected = [], 0
        while len(accepted) < size:
            weights = rng.uniform(-1.0, 1.0, (min(size - len(accepted), DRAW_RETRIES - rejected), basis.k))
            # Row by row, as weights[i] @ basis: one gemm would round differently.
            coords = np.matmul(weights[:, None, :], basis.basis)[:, 0].reshape(len(weights), g.n, d)
            peak = np.max(np.abs(coords), axis=(1, 2))
            ok = peak > framework_tol
            coords /= np.where(ok, peak, 1.0)[:, None, None]
            ok &= (np.linalg.norm(bar_vectors(g, coords), axis=-1) > framework_tol).all(axis=-1)
            for row, good in zip(coords, ok.tolist()):
                rejected = 0 if good else rejected + 1
                if good:
                    accepted.append(row)
            if rejected == DRAW_RETRIES:
                raise SamplingExhausted(f"no valid framework in {DRAW_RETRIES} draws")
        yield np.array(accepted)


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
    return [Framework(basis.graph, coords) for chunk in _draws(basis, rng, count, framework_tol) for coords in chunk]


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
    that no sample of higher rank appeared within the trial budget. The
    trials are drawn as stacks of at most STACK_CELLS cells and decided a
    stack at a time by rigidity_verdicts, with the members and ranks that
    drawing and deciding them one at a time gives.
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
    ranks = []
    best = witness = None
    for coords in _draws(basis, np.random.default_rng(seed), trials, framework_tol):
        for report, p in zip(rigidity_verdicts(graph, coords, rank_rtol, basis.phases), coords):
            ranks.append(report.rank)
            if best is None or report.rank > best.rank:
                best, witness = report, p
    return SymGenericReport(
        k=basis.k, empty=False, offending_edges=(), samples_drawn=trials,
        ranks=tuple(ranks), max_rank=best.rank, infinitesimally_rigid=best.infinitesimally_rigid,
        independent=best.independent, isostatic=best.isostatic, witness=witness,
    )
