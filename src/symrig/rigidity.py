"""Bar-and-joint frameworks and infinitesimal rigidity decisions.

The rigidity matrix R(p) has one row per bar {u, v}: the d entries
p_u - p_v in the columns of u, the d entries p_v - p_u in the columns of
v, zeros elsewhere. A rank decision counts the singular values above a
cutoff relative to the largest one, so scaling the configuration does not
change it. The trivial motions are counted in closed form from the affine
span.

A framework drawn from a symmetry class is decided in smaller pieces. Let
g be one operation of the class's type, with matrix M and joint
permutation phi, so that M p_v = p_phi(v). Then R(p) T_g = T_B R(p), where
(T_g u)_phi(v) = M u_v carries a velocity field along with g and T_B is
the permutation phi induces on the bars, unsigned because a row does not
depend on the orientation of its bar. So R maps each eigenspace of T_g
into the eigenspace of T_B for the same eigenvalue, and in eigenbases of
both it is block diagonal, one block per phase lambda = e^(2 pi i k / L)
where L is the order of T_g. The blocks have exactly R's singular values,
so the cutoff and the rank are the same. Phases k and L - k give
conjugate blocks, so only k <= L/2 are decomposed. The trivial phase's
block is the orbit rigidity matrix of Schulze and Whiteley (Discrete
Comput. Geom. 2011); the split is that of Kangwai and Guest (Int. J.
Solids Struct. 2000), applied to one operation, which makes it valid for
non-homomorphic types and non-injective realizations too.

The intertwining holds only for p in the class. A configuration given
from outside, such as one read from a problem file, is at best within a
tolerance of its class, so its rank is always one SVD of R. It is ranked
after an exact power-of-two rescale that brings its largest coordinate
into [0.5, 1): the cutoff is relative, so the rank is that of the given
coordinates, but R's singular values can no longer overflow.

Sampled members of one class are decided together: rigidity_verdicts cuts
a stack of configurations into chunks, builds a chunk's matrices (or phase
blocks, one phase at a time) in one scatter and ranks them with one stacked
SVD per block, each member against its own largest singular value. A chunk
fills _numeric.STACK_CELLS matrix cells but holds at least 501 / s members,
s the most singular values of one block: numpy's stacked SVD releases the
GIL only above 500 members x singular values. The chunks are shared out
over one thread per CPU the process may run on, the caller's and plain
helper threads. Each chunk's ranks go to its own slot, so they come back in
stack order, and a helper's error is raised again in the caller.
rigidity_verdict is the stack of one.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass
from math import comb, lcm, prod, sqrt
from typing import NamedTuple

import numpy as np

from . import _numeric
from ._numeric import block_rank
from .errors import InvalidFramework, NotAnAutomorphism, UnsupportedDim
from .graphs import Graph, Permutation, bar_images, bar_vectors, short_bars
from .groups import OrthogonalOp, element_order

__all__ = [
    "Framework",
    "RigidityReport",
    "rigidity_matrix",
    "affine_span_dim",
    "PhaseBlock",
    "phase_period",
    "phase_split",
    "phase_blocks",
    "rigidity_verdict",
    "rigidity_verdicts",
]

# Distinct eigenvalues of an orthogonal matrix of order L lie at least
# 2 sin(pi / L) apart, far above this for any group symrig builds.
EIGEN_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Framework:
    """A graph together with joint coordinates, one row per vertex."""

    graph: Graph
    coords: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.coords, dtype=float)
        if p.ndim != 2 or p.shape[0] != self.graph.n:
            raise InvalidFramework(
                f"expected coordinates of shape ({self.graph.n}, d), got {np.shape(self.coords)}"
            )
        if p.shape[1] not in (2, 3):
            raise UnsupportedDim(f"only dimensions 2 and 3 are supported, got {p.shape[1]}")
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan in p, or finite p too far apart
            spread = p.max(axis=0) - p.min(axis=0)
        if not np.isfinite(spread).all():
            finite = np.isfinite(p).all()
            raise InvalidFramework(f"coordinates must {'differ by' if finite else 'be'} finite numbers")
        p.setflags(write=False)
        object.__setattr__(self, "coords", p)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def dim(self) -> int:
        return int(self.coords.shape[1])

    def edge_violations(self, tol: float = 1e-8) -> list[tuple[int, int]]:
        """Bars whose endpoints coincide within tol."""
        return [(u, v) for u, v in short_bars(self.graph, self.coords, tol).tolist()]

    def validate(self, tol: float = 1e-8) -> None:
        bad = self.edge_violations(tol)
        if bad:
            names = ", ".join(f"{{{self.graph.labels[u]}, {self.graph.labels[v]}}}" for u, v in bad)
            raise InvalidFramework(f"coincident bar endpoints: {names}")


@dataclass(frozen=True)
class RigidityReport:
    rank: int
    bar_count: int
    dof_count: int
    affine_span_dim: int
    trivial_dim: int
    infinitesimally_rigid: bool
    independent: bool
    isostatic: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _matrices(graph: Graph, p: np.ndarray) -> np.ndarray:
    """The rigidity matrices R[..., |E|, d n] of coordinates p[..., n, d], one scatter."""
    lead, d = p.shape[:-2], p.shape[-1]
    diff = bar_vectors(graph, p)
    rows = np.zeros((*lead, graph.edge_count, graph.n, d))
    bar = np.arange(graph.edge_count)
    rows[..., bar, graph.bars[:, 0], :] = diff
    rows[..., bar, graph.bars[:, 1], :] = -diff
    return rows.reshape(*lead, graph.edge_count, graph.n * d)


def rigidity_matrix(framework: Framework) -> np.ndarray:
    """The |E| x (d n) rigidity matrix, rows in the order of graph.bars.

    Degenerate bars with coincident endpoints simply contribute zero rows,
    so no validity check is made here.
    """
    return _matrices(framework.graph, framework.coords)


def affine_span_dim(coords: np.ndarray, rtol: float = 1e-8):
    """Dimension of the affine span of the points (0 for a single point).

    coords may be a stack coords[..., n, d]; the dimensions then come back
    as an integer array of the leading shape, from one stacked SVD.
    """
    p = np.asarray(coords, dtype=float)
    return block_rank([(p[..., :1, :] - p[..., 1:, :], 1)], rtol)


class PhaseBlock(NamedTuple):
    """What the block of R(p) for one phase lambda of T_g is built from.

    Each column is a lambda-eigenvector of T_g. cols[v] lists the columns
    whose eigenvector is nonzero at joint v and vecs[v] holds those
    d-vectors as its columns; both are padded, with the dummy column
    `columns` and zero vectors, to d entries. Each row is a bar cycle of
    length t with lambda^t = 1, read as sqrt(t) times the row of its first
    bar, whose ends are `ends`.
    """

    multiplicity: int
    columns: int
    ends: np.ndarray
    scale: np.ndarray
    cols: np.ndarray
    vecs: np.ndarray


def phase_period(op: OrthogonalOp, perm: Permutation) -> int:
    """The order L of T_g for an operation and its joint permutation."""
    return lcm(element_order(op), perm.order())


def _eigenspace(matrix: np.ndarray, mu) -> np.ndarray:
    """Orthonormal columns spanning the mu-eigenspace of an orthogonal matrix."""
    _, sigma, vh = np.linalg.svd(matrix - mu * np.eye(len(matrix)))
    return vh[sigma <= EIGEN_TOL].conj().T


def phase_split(graph: Graph, op: OrthogonalOp, perm: Permutation) -> tuple[PhaseBlock, ...] | None:
    """The phase blocks of one operation, valid for every framework of its class.

    The frameworks the blocks are applied to must satisfy M p_v = p_perm(v)
    for op's matrix M. For a joint cycle (v_0 ... v_{s-1}) of perm the
    lambda-eigenvectors of T_g are u_{v_j} = lambda^-j M^j w / sqrt(s), w
    over an orthonormal basis of the lambda^s-eigenspace of M^s. Phases 0
    and L/2 are real, the others complex and counted twice for their
    conjugates. Blocks without rows or columns are dropped. None when the
    eigenspaces fall short of d n columns, which orthogonal matrices of any
    group symrig builds never do.
    """
    n, d, mat = graph.n, op.dim, op.matrix
    period = phase_period(op, perm)
    bar_perm = bar_images(graph, perm.images)
    if np.any(bar_perm < 0):
        raise NotAnAutomorphism(f"image for {op.label} does not map bars to bars")
    bar_cycles = Permutation(tuple(bar_perm.tolist())).cycles(include_fixed=True)
    reps = np.array([c[0] for c in bar_cycles], dtype=int)
    lengths = np.array([len(c) for c in bar_cycles], dtype=int)
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for cycle in perm.cycles(include_fixed=True):
        by_length.setdefault(len(cycle), []).append(cycle)
    powers = [np.eye(d)]
    for _ in range(max(by_length)):
        powers.append(powers[-1] @ mat)
    powers = np.array(powers)

    blocks, total = [], 0
    for k in range(period // 2 + 1):
        real = 2 * k % period == 0
        lam = (1.0 if k == 0 else -1.0) if real else np.exp(2j * np.pi * k / period)
        cols = np.full((n, d), -1)
        vecs = np.zeros((n, d, d), float if real else complex)
        columns = 0
        for s, cycles in by_length.items():
            w = _eigenspace(powers[s], lam ** s)
            m = w.shape[1]
            joints = np.array(cycles, dtype=int)
            vecs[joints, :, :m] = (lam ** -np.arange(s))[:, None, None] * (powers[:s] @ w) / sqrt(s)
            cols[joints, :m] = columns + (m * np.arange(len(cycles)))[:, None, None] + np.arange(m)
            columns += m * len(cycles)
        cols[cols < 0] = columns
        multiplicity = 1 if real else 2
        total += multiplicity * columns
        rows = (k * lengths) % period == 0
        if columns and rows.any():
            blocks.append(PhaseBlock(
                multiplicity=multiplicity, columns=columns, ends=graph.bars[reps[rows]],
                scale=np.sqrt(lengths[rows]), cols=cols, vecs=vecs,
            ))
    return tuple(blocks) if total == d * n else None


def phase_blocks(p: np.ndarray, phases: tuple[PhaseBlock, ...], out: np.ndarray | None = None):
    """R(p) in the eigenbases of a phase split: (block, multiplicity) pairs, yielded one phase at a time.

    p is a stack of coordinates p[..., n, d] of class members; the blocks
    carry the same leading axes. A block is built when the one before has
    been taken, in the byte buffer out if one is given (over the one
    before), large enough for any phase's block.
    """
    for ph in phases:
        a, b = ph.ends[:, 0], ph.ends[:, 1]
        rows = (p[..., a, :] - p[..., b, :]) * ph.scale[:, None]
        r = np.arange(len(a))[:, None]
        shape = (*p.shape[:-2], len(a), ph.columns + 1)
        size = prod(shape) * ph.vecs.itemsize
        block = (np.empty(size, np.uint8) if out is None else out[:size]).view(ph.vecs.dtype).reshape(shape)
        block[...] = 0
        block[..., r, ph.cols[a]] = np.einsum("...rd,rdc->...rc", rows, ph.vecs[a])
        # Both ends may lie in one joint cycle and share columns: add, do not assign.
        block[..., r, ph.cols[b]] -= np.einsum("...rd,rdc->...rc", rows, ph.vecs[b])
        yield block[..., :-1], ph.multiplicity


def rigidity_verdict(framework: Framework, rank_rtol: float = 1e-8, framework_tol: float = 1e-8) -> RigidityReport:
    """Decide infinitesimal rigidity, independence, and isostaticity.

    Rigid means every infinitesimal motion is trivial: d n - rank equals the
    dimension of the trivial motions of this configuration. For affine span
    a that is C(d+1, 2) - C(d-a, 2): all of them when a >= d - 1, and less
    for points on a line (3D) or at one spot, whose rotations about that
    line or spot fix every joint. Independent means rank equals the bar
    count; isostatic means both. The rank is one SVD of the rigidity matrix.
    The framework is validated, scaled by the power of two that brings its
    largest coordinate into [0.5, 1), then decided as a stack of one by
    rigidity_verdicts.
    """
    framework.validate(framework_tol)
    p = np.ldexp(framework.coords, -np.frexp(np.abs(framework.coords).max(initial=0.0))[1])
    return rigidity_verdicts(framework.graph, p[None], rank_rtol)[0]


def _cpu_count() -> int:
    """The CPUs this process may run on (all of them where the platform cannot tell)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def rigidity_verdicts(
    graph: Graph,
    coords: np.ndarray,
    rank_rtol: float = 1e-8,
    phases: tuple[PhaseBlock, ...] | None = None,
) -> list[RigidityReport]:
    """The verdicts of rigidity_verdict for a stack coords[T, n, d] of frameworks of graph.

    The configurations are taken as valid: no bar may have coincident
    endpoints. With phases, every configuration must lie in the class the
    split was built for. The chunks of the module docstring are ranked on
    one worker thread per CPU, the results kept in stack order.
    """
    n, d = coords.shape[-2:]
    # A split without blocks (a class without bars) has R's rank, 0, too.
    if phases:
        cells = sum(len(ph.ends) * (ph.columns + 1) for ph in phases)
        side = max(min(len(ph.ends), ph.columns) for ph in phases)
        block_bytes = max(len(ph.ends) * (ph.columns + 1) * ph.vecs.itemsize for ph in phases)
    else:
        cells, side = graph.edge_count * n * d, min(graph.edge_count, n * d)
    # numpy ranks a stack without the GIL only when members x singular values exceed 500.
    step = max(_numeric.STACK_CELLS // max(cells, 1), -(-501 // max(side, 1)))
    starts = range(0, len(coords), step)
    workers = max(1, min(len(starts), _cpu_count()))
    ranks, errors = [[]] * len(starts), []

    def work(first):
        try:
            # One buffer a worker holds each of its chunks' phase blocks in turn.
            out = np.empty(block_bytes * min(step, len(coords)), np.uint8) if phases else None
            for i in range(first, len(starts), workers):
                chunk = coords[starts[i]:starts[i] + step]
                blocks = phase_blocks(chunk, phases, out) if phases else [(_matrices(graph, chunk), 1)]
                ranks[i] = block_rank(blocks, rank_rtol).tolist()
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    helpers = [threading.Thread(target=work, args=(first,)) for first in range(1, workers)]
    for helper in helpers:
        helper.start()
    work(0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    reports = []
    for rank, affine in zip([r for part in ranks for r in part], affine_span_dim(coords, rank_rtol).tolist()):
        trivial = comb(d + 1, 2) - comb(d - affine, 2)
        rigid = d * n - rank == trivial
        independent = rank == graph.edge_count
        reports.append(RigidityReport(
            rank=rank,
            bar_count=graph.edge_count,
            dof_count=d * n,
            affine_span_dim=affine,
            trivial_dim=trivial,
            infinitesimally_rigid=rigid,
            independent=independent,
            isostatic=rigid and independent,
        ))
    return reports
