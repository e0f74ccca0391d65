"""Bar-and-joint frameworks and infinitesimal rigidity decisions.

The rigidity matrix has one row per bar {u, v}: the d entries p_u - p_v
in the columns of u, the d entries p_v - p_u in the columns of v, zeros
elsewhere. A rank decision is one SVD of that matrix with a cutoff
relative to its largest singular value, so scaling the configuration
does not change it and no rescaled copy is made. The trivial motions are
counted in closed form from the affine span.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from ._numeric import numeric_rank
from .errors import InvalidFramework, UnsupportedDim
from .graphs import Graph, bar_vectors, short_bars

__all__ = [
    "Framework",
    "RigidityReport",
    "rigidity_matrix",
    "affine_span_dim",
    "trivial_motion_basis",
    "rigidity_verdict",
]


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
        if not np.all(np.isfinite(p)):
            raise InvalidFramework("coordinates must be finite numbers")
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
        return {
            "rank": self.rank,
            "bar_count": self.bar_count,
            "dof_count": self.dof_count,
            "affine_span_dim": self.affine_span_dim,
            "trivial_dim": self.trivial_dim,
            "infinitesimally_rigid": self.infinitesimally_rigid,
            "independent": self.independent,
            "isostatic": self.isostatic,
        }


def rigidity_matrix(framework: Framework) -> np.ndarray:
    """The |E| x (d n) rigidity matrix, rows in the order of graph.bars.

    Degenerate bars with coincident endpoints simply contribute zero rows,
    so no validity check is made here.
    """
    g = framework.graph
    diff = bar_vectors(g, framework.coords)
    rows = np.zeros((g.edge_count, g.n, framework.dim))
    bar = np.arange(g.edge_count)
    rows[bar, g.bars[:, 0]] = diff
    rows[bar, g.bars[:, 1]] = -diff
    return rows.reshape(g.edge_count, g.n * framework.dim)


def affine_span_dim(coords: np.ndarray, rtol: float = 1e-8) -> int:
    """Dimension of the affine span of the points (0 for a single point)."""
    p = np.asarray(coords, dtype=float)
    if p.shape[0] <= 1:
        return 0
    diffs = p[0] - p[1:]
    scale = np.max(np.abs(diffs))
    if scale > 0:
        diffs = diffs / scale
    return numeric_rank(diffs, rtol)


def trivial_motion_basis(framework: Framework) -> np.ndarray:
    """Spanning set of trivial infinitesimal motions, one per row.

    d translations plus one rotation field u(v) = A p_v for each basis
    element A of the skew-symmetric matrices. The rows may be linearly
    dependent for degenerate configurations.
    """
    p = framework.coords
    n, d = p.shape
    fields = []
    for k in range(d):
        t = np.zeros((n, d))
        t[:, k] = 1.0
        fields.append(t.reshape(-1))
    for a, b in combinations(range(d), 2):
        skew = np.zeros((d, d))
        skew[a, b] = 1.0
        skew[b, a] = -1.0
        fields.append((p @ skew.T).reshape(-1))
    return np.array(fields)


def rigidity_verdict(framework: Framework, rank_rtol: float = 1e-8, framework_tol: float = 1e-8) -> RigidityReport:
    """Decide infinitesimal rigidity, independence, and isostaticity.

    Rigid means every infinitesimal motion is trivial: d n - rank equals the
    dimension of the trivial motions of this configuration. For affine span
    a that is C(d+1, 2) - C(d-a, 2): all of them when a >= d - 1, and less
    for points on a line (3D) or at one spot, whose rotations about that
    line or spot fix every joint. Independent means rank equals the bar
    count; isostatic means both. The rank is one SVD of the rigidity matrix.
    """
    framework.validate(framework_tol)
    g = framework.graph
    n, d = framework.n, framework.dim
    rank = numeric_rank(rigidity_matrix(framework), rank_rtol)
    affine = affine_span_dim(framework.coords, rank_rtol)
    trivial = comb(d + 1, 2) - comb(d - affine, 2)
    rigid = d * n - rank == trivial
    independent = rank == g.edge_count
    return RigidityReport(
        rank=rank,
        bar_count=g.edge_count,
        dof_count=d * n,
        affine_span_dim=affine,
        trivial_dim=trivial,
        infinitesimally_rigid=rigid,
        independent=independent,
        isostatic=rigid and independent,
    )
