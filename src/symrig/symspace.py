"""The symmetric configuration space of a class and generic sampling.

A configuration p lies in the class of a type phi exactly when
M_x p_v = p_{phi_x(v)} for every operation x and joint v. Each constraint
couples a joint only with its own image, so the space U of such
configurations is a direct sum over the joint orbits of the type. An
orbit's part is the fixed space of its least joint's stabiliser, carried
to the other joints by the operations that reach them (oracle keeps the
dense stack of the constraints as the reference). Almost every
point of U realizes the maximal rank the class can attain, which makes
one sampled witness a sound certificate for rigidity properties of the
whole class; negative verdicts from sampling remain probabilistic.

Because every member of a class satisfies M_g p_v = p_{phi_g(v)} for
each operation g, its rigidity matrix intertwines g's action on joint
velocities with the bar permutation of phi_g, R(p) T_g = T_B R(p). Each
class builds the phase split of one operation once (rigidity.phase_split)
and decides the rank of each sampled member from its blocks. Classes
with fewer than PHASE_MIN_COLUMNS columns keep one SVD of R, which is
faster there.

A class is sampled in stacks: the trials' coefficient vectors are rows of
one batch of uniform draws, a member's joint w is frames[w] applied to the
coefficients its slots name, at O(n d^2) per member, and
rigidity.rigidity_verdicts ranks them together. A stack holds as many
members as fit _numeric.STACK_CELLS cells of bar differences. Every row is
computed exactly as a single draw would be, so a seed yields the same
members and verdicts as drawing and deciding them one at a time. The draws
come from the standard library's random.Random: since any seeded generator
gives generic members, the one that costs no import of numpy.random is used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _numeric
from ._numeric import kernel_basis
from .classify import TypeAssignment
from .classify import is_homomorphism  # noqa: F401  bench/tracing.py wraps this name of symspace
from .errors import BadParam, LengthMismatch, NotAnAutomorphism, SamplingExhausted
from .graphs import Graph, _lengths, bar_vectors, is_automorphism, short_bars
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


@dataclass(frozen=True, eq=False)
class ConfigSpaceBasis:
    """The symmetric configuration space as one transported d x d frame per joint; k is its dimension."""

    graph: Graph
    group: SymmetryGroup
    phi: TypeAssignment
    frames: np.ndarray  # column j of frames[w] is joint w's part of basis vector slots[w, j]
    slots: np.ndarray  # k past the dimension of w's orbit, where the column is zero
    k: int

    @property
    def dim(self) -> int:
        return self.group.dim

    @cached_property
    def basis(self) -> np.ndarray:
        """The orthonormal basis as dense k x dn rows, scattered from the frames on first use."""
        dense = np.zeros((self.k + 1, self.graph.n, self.dim))  # padded columns land in row k, cut off below
        dense[self.slots, np.arange(self.graph.n)[:, None]] = self.frames.swapaxes(1, 2)
        return dense[:-1].reshape(self.k, self.graph.n * self.dim)

    @cached_property
    def phases(self) -> tuple[PhaseBlock, ...] | None:
        """The phase split class members' ranks are read from, built once.

        It is the split of the operation whose T_g has the largest order,
        the first in group order on ties. None, for one SVD of R, below
        PHASE_MIN_COLUMNS columns.
        """
        if self.dim * self.graph.n < PHASE_MIN_COLUMNS:
            return None
        periods = [phase_period(op, perm) for op, perm in zip(self.group.elements, self.phi.images)]
        best = periods.index(max(periods))
        return phase_split(self.graph, self.group.elements[best], self.phi[best])


def config_space_basis(graph: Graph, group: SymmetryGroup, phi: TypeAssignment) -> ConfigSpaceBasis:
    """Orthonormal basis of the class space: one stabiliser frame per joint orbit, carried to its joints.

    Walking from each orbit's least joint v, a level at a time with every pair (M_x, phi_x) as a step, sets
    t_{phi_x(w)} = x t_w, so p_w = M_{t_w} p_v; each Schreier element s = t_{phi_x(w)}^-1 x t_w must fix p_v.
    A frame F of the kernel of the stacked M_s - I (one kernel_basis call per distinct set, I_d for a free
    orbit) gives joint w the frame M_{t_w} F / sqrt(|O|), orbits by least joint. Nothing is sorted: a process's
    first sort maps about 0.4 MB of numpy's sort code.
    """
    if len(phi) != len(group):
        raise LengthMismatch(f"type assigns {len(phi)} images for a group of order {len(group)}")
    d, n, order = group.dim, graph.n, len(group)
    mapped = is_automorphism(graph, phi.array)
    if not mapped.all():
        raise NotAnAutomorphism(f"image for {group.elements[int(np.argmin(mapped))].label} is not an automorphism")
    table, images, mats = group.table, phi.array, group.matrices()
    root, low = None, np.arange(n)  # each joint's least orbit-mate, once the minima settle
    while not np.array_equal(root, low):
        root, low = low, np.minimum(low, low[images].min(axis=0))
    t, seen = np.zeros(n, int), root == np.arange(n)
    front = heads = np.flatnonzero(seen)
    while not seen.all():  # reach[x, phi_x(w)] = x t_w over the front; phi_x is a bijection, so no joint twice
        reach = np.full((order, n), -1)
        reach[np.arange(order)[:, None], images[:, front]] = np.where(seen[images[:, front]], -1, table[:, t[front]])
        front = np.flatnonzero((reach >= 0).any(axis=0))
        t[front], seen[front] = reach[np.argmax(reach[:, front] >= 0, axis=0), front], True
    fixing = np.zeros((n, order), bool)  # fixing[v, s]: s is a Schreier element of the orbit of least joint v
    fixing[root, table[np.argmax(table == 0, axis=1)[t[images]], table[:, t]]] = True
    fixing[:, 0] = False  # the identity fixes every point
    fix, counts, cache = np.zeros((n, d, d)), np.zeros(n, int), {bytes(order): np.eye(d)}  # F by rows, at v
    for v, key in zip(heads, map(np.ndarray.tobytes, fixing[heads])):
        if key not in cache:
            cache[key] = kernel_basis((mats[fixing[v]] - np.eye(d)).reshape(-1, d))
        counts[v], fix[v, :len(cache[key])] = len(cache[key]), cache[key]
    joint, j = np.nonzero(np.arange(d) < counts[root][:, None])
    moved = mats[t[joint]] @ fix[root[joint], j][..., None] / np.sqrt(np.bincount(root)[root[joint], None, None])
    k, slots, frames = int(counts.sum()), np.full((n, d), counts.sum()), np.zeros((n, d, d))
    slots[joint, j], frames[joint, :, j] = (np.cumsum(counts) - counts)[root[joint]] + j, moved[..., 0]
    return ConfigSpaceBasis(graph=graph, group=group, phi=phi, frames=frames, slots=slots, k=k)


def constraint_residual(basis: ConfigSpaceBasis, coords: np.ndarray) -> float:
    """Largest violation of the class constraints by coords[..., n, d] or [..., n d]; other shapes: LengthMismatch."""
    n, d, group = basis.graph.n, basis.dim, basis.group
    p = np.asarray(coords, dtype=float)
    if p.shape[-1:] != (n * d,) and p.shape[-2:] != (n, d):
        raise LengthMismatch(f"expected configurations of shape (..., {n}, {d}) or (..., {n * d}), got {p.shape}")
    p = p.reshape(-1, 1, n, d)
    worst = 0.0
    for part in _numeric.chunks(len(p), len(group) * n * d):
        diff = p[part] @ group.matrices().swapaxes(1, 2)
        with np.errstate(over="ignore"):  # as in bar_vectors: an overflowing offset is an infinite distance
            diff -= p[part, 0][:, basis.phi.array]
        worst = max(worst, float(np.max(np.abs(diff, out=diff), initial=0.0)))
    return worst


def class_is_empty(basis: ConfigSpaceBasis) -> tuple[bool, list[tuple[int, int]]]:
    """Emptiness test: a class is empty iff some bar is forced to zero length.

    A bar {u, v} is forced when p_u - p_v vanishes on every basis vector of U, so that every member of the
    class is degenerate on it. Inside one orbit the vectors' parts at u and v are the columns of frames[u] and
    frames[v]; across orbits neither may have a frame, whose columns have norm 1/sqrt(|O|). The test is not
    sampled, but it compares float differences with FORCED_BAR_TOL, so it is decided at that tolerance.
    """
    bars = basis.graph.bars
    u, v = bars.T
    gap = np.max(np.abs(basis.frames[u] - basis.frames[v]), axis=(1, 2))
    forced = (basis.slots[u, 0] == basis.slots[v, 0]) & (gap <= FORCED_BAR_TOL)
    offending = [(a, b) for a, b in bars[forced].tolist()]
    return (len(offending) > 0, offending)


def _rng(seed: int) -> random.Random:
    """The generator of a seed. Random would take -5 for 5 and accept a float, so only ints >= 0 pass."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise BadParam(f"seed must be an integer >= 0, got {seed!r}")
    return random.Random(seed)


def _draws(basis: ConfigSpaceBasis, rng: random.Random, count: int, framework_tol: float):
    """count members of the class, rescaled to the unit box, as chunks coordinates[b, n, d].

    The coefficient vectors are consecutive rows of one stream of uniform
    draws on [-1, 1]^k: each weight is -1 + 2 u for the next u = rng.random(),
    Random.uniform(-1, 1)'s formula, laid out row-major. A row is rejected
    when its configuration vanishes or collapses a bar; the next row takes
    its place. DRAW_RETRIES consecutive rejections give up. A chunk's bar
    differences fill at most STACK_CELLS cells. No batch reaches past the
    row at which a chunk is complete or the draws give up, so the stream is
    left where drawing one row at a time leaves it, and a chunk ends on an
    accepted row, where the retry count starts again.
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
            rows = min(size - len(accepted), DRAW_RETRIES - rejected)
            u = np.array([rng.random() for _ in range(rows * basis.k)])
            weights = np.hstack([(-1.0 + 2.0 * u).reshape(rows, basis.k), np.zeros((rows, 1))])  # slot k reads 0
            coords = (basis.frames * weights[:, basis.slots][:, :, None]).sum(-1)
            peak = np.max(np.abs(coords), axis=(1, 2))
            ok = peak > framework_tol
            coords /= np.where(ok, peak, 1.0)[:, None, None]
            ok &= (_lengths(bar_vectors(g, coords)) > framework_tol).all(axis=-1)
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
    """count frameworks from the stream of random.Random(seed), deterministic for a seed (an int >= 0)."""
    if count < 1:
        raise BadParam(f"count must be at least 1, got {count}")
    _numeric._check_tol(framework_tol)
    rng = _rng(seed)
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

    def to_dict(self, labels: tuple[str, ...]) -> dict:
        out = {
            "k": self.k,
            "empty": self.empty,
            "offending_edges": [[labels[u], labels[v]] for u, v in self.offending_edges],
            "samples_drawn": self.samples_drawn,
            "max_rank": self.max_rank,
            "infinitesimally_rigid": self.infinitesimally_rigid,
            "independent": self.independent,
            "isostatic": self.isostatic,
            "note": "positive verdicts carry a sampled witness; negative verdicts are probabilistic",
        }
        if self.witness is not None:
            out["witness"] = dict(zip(labels, self.witness.tolist()))
        return out


def sym_generic_verdict(
    basis: ConfigSpaceBasis,
    trials: int = 20,
    seed: int = 0,
    rank_rtol: float = 1e-8,
    framework_tol: float = 1e-8,
) -> SymGenericReport:
    """Classify the class of a basis by sampling: empty, or rigidity verdicts.

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
    _numeric._check_tol(rank_rtol, "rtol")  # an empty class neither ranks nor draws: both are checked here
    _numeric._check_tol(framework_tol)
    rng = _rng(seed)
    empty, offending = class_is_empty(basis)
    if empty:
        return SymGenericReport(
            k=basis.k, empty=True, offending_edges=tuple(offending), samples_drawn=0,
            ranks=(), max_rank=0, infinitesimally_rigid=False, independent=False,
            isostatic=False, witness=None,
        )
    ranks = []
    best = witness = None
    for coords in _draws(basis, rng, trials, framework_tol):
        for report, p in zip(rigidity_verdicts(basis.graph, coords, rank_rtol, basis.phases), coords):
            ranks.append(report.rank)
            if best is None or report.rank > best.rank:
                best, witness = report, p
    return SymGenericReport(
        k=basis.k, empty=False, offending_edges=(), samples_drawn=trials,
        ranks=tuple(ranks), max_rank=best.rank, infinitesimally_rigid=best.infinitesimally_rigid,
        independent=best.independent, isostatic=best.isostatic, witness=witness,
    )
