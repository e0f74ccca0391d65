"""Finite simple graphs, vertex permutations, and automorphism search.

Vertices are indexed 0..n-1 internally and carry printable labels
(defaulting to "v1".."vn") used by cycle notation and the file formats.
The automorphism search can be constrained by joint positions: an
allowed matrix names each vertex's possible images, so the search lists
only the automorphisms that move joints onto matching joints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, chain
from math import lcm

import numpy as np

from .errors import BadPermutation, CapExceeded, InvalidGraph, LengthMismatch, SelfLoop

AUTOMORPHISM_CAP = 12
COINCIDENT_JOINT_TOL = 1e-9  # joints this close count as one position for coincidence_automorphisms
CYCLE = re.compile(r"\(([^)]*)\)")  # one cycle of cycle notation; group 1 is its body
CYCLES = re.compile(r"(?:\s*\([^)]*\))*")  # a run of cycles, whitespace between them


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection on 0..n-1 in one-line notation: images[i] is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise BadPermutation(f"not a bijection on 0..{len(self.images) - 1}: {self.images}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images))

    def compose(self, other: "Permutation") -> "Permutation":
        """Apply other first, then self: (self.compose(other))(i) = self(other(i))."""
        if len(other) != len(self):
            raise LengthMismatch(f"cannot compose permutations of lengths {len(self)} and {len(other)}")
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Cycle decomposition, each cycle starting at its smallest member."""
        seen = [False] * len(self.images)
        out: list[tuple[int, ...]] = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on labeled vertices 0..n-1.

    bars holds the edges once, sorted, as a read-only (|E|, 2) index array
    with u < v in each row; every per-bar array follows its row order.
    index maps each label to its vertex, built once for parse_cycles and index_of.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[str, ...]
    bars: np.ndarray = field(init=False, repr=False, compare=False)
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bars = np.array(sorted(self.edges), dtype=int).reshape(-1, 2)
        bars.setflags(write=False)
        object.__setattr__(self, "bars", bars)
        # each label's first vertex, as labels.index finds it
        object.__setattr__(self, "index", dict(zip(reversed(self.labels), range(len(self.labels) - 1, -1, -1))))

    @staticmethod
    def make(n: int, edge_list, labels: tuple[str, ...] | None = None) -> "Graph":
        if n < 1:
            raise InvalidGraph("graph needs at least one vertex")
        if labels is None:
            labels = tuple(f"v{i + 1}" for i in range(n))
        if len(labels) != n or len(set(labels)) != n:
            raise InvalidGraph("labels must be distinct and match the vertex count")
        norm: list[tuple[int, int]] = []
        for u, v in edge_list:
            u, v = int(u), int(v)
            if u == v:
                raise SelfLoop(f"self loop at vertex {labels[u] if 0 <= u < n else u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraph(f"edge ({u}, {v}) out of range for n={n}")
            norm.append((min(u, v), max(u, v)))
        if len(set(norm)) != len(norm):
            raise InvalidGraph("duplicate edge")
        return Graph(n=n, edges=frozenset(norm), labels=labels)

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph.make(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @staticmethod
    def cycle(n: int) -> "Graph":
        return Graph.make(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def complete_bipartite(a: int, b: int) -> "Graph":
        return Graph.make(a + b, [(i, a + j) for i in range(a) for j in range(b)])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> list[int]:
        adj = self.adjacency()
        return [len(a) for a in adj]

    def index_of(self, label: str) -> int:
        if label not in self.index:
            raise BadPermutation(f"unknown vertex name {label!r}")
        return self.index[label]


def bar_images(graph: Graph, images: np.ndarray) -> np.ndarray:
    """Where each bar goes under vertex images[..., n]: its row in graph.bars, or -1 for a non-bar."""
    n = graph.n
    keys = graph.bars[:, 0] * n + graph.bars[:, 1]
    moved = np.sort(np.asarray(images)[..., graph.bars], axis=-1)
    moved_keys = moved[..., 0] * n + moved[..., 1]
    rows = np.searchsorted(keys, moved_keys)
    return np.where(np.append(keys, -1)[rows] == moved_keys, rows, -1)


def is_automorphism(graph: Graph, perm):
    """True iff perm maps the edge set of graph onto itself.

    perm may also be a (k, n) stack of images, one permutation of 0..n-1
    per row; the answer is then one bool per row, from one pass over the bars.
    """
    images = np.asarray(perm.images if isinstance(perm, Permutation) else perm, dtype=int)
    if images.shape[-1:] != (graph.n,):
        raise LengthMismatch(f"images of shape {images.shape} do not act on n={graph.n} vertices")
    mapped = (bar_images(graph, images) >= 0).all(axis=-1)
    return bool(mapped) if images.ndim == 1 else mapped


def bar_vectors(graph: Graph, p: np.ndarray) -> np.ndarray:
    """p_u - p_v for every bar {u, v} of graph, over coordinates p[..., n, d]."""
    diff = p[..., graph.bars[:, 0], :]
    with np.errstate(over="ignore"):  # an overflowing difference is an infinite length, which no tolerance accepts
        diff -= p[..., graph.bars[:, 1], :]  # in place: a stack of differences is built once
    return diff


def _lengths(v: np.ndarray) -> np.ndarray:
    """Euclidean lengths of v[..., d], folded with hypot: no square overflows, as a norm's do beyond about 1e154."""
    return reduce(np.hypot, np.moveaxis(v, -1, 0))


def short_bars(graph: Graph, p: np.ndarray, tol: float) -> np.ndarray:
    """The rows of graph.bars whose endpoints lie within tol of each other in p[n, d]."""
    return graph.bars[_lengths(bar_vectors(graph, p)) <= tol]


def automorphisms(graph: Graph, allowed=None) -> list[Permutation]:
    """Automorphisms of graph in lexicographic order of image sequence.

    allowed, an n x n boolean matrix, constrains the search: allowed[v, w]
    False forbids v -> w. Backtracking with degree, allowed and
    partial-adjacency pruning. Exact and deterministic; refuses graphs
    of more than AUTOMORPHISM_CAP vertices.
    """
    return list(iter_automorphisms(graph, allowed))


def iter_automorphisms(graph: Graph, allowed=None):
    """The search of automorphisms(), lazily: a caller stops it by stopping iteration."""
    if graph.n > AUTOMORPHISM_CAP:
        raise CapExceeded(f"automorphism search capped at {AUTOMORPHISM_CAP} vertices, got {graph.n}")
    n = graph.n
    adj = graph.adjacency()
    deg = [len(a) for a in adj]
    candidates = [[w for w in range(n) if deg[w] == deg[v] and (allowed is None or allowed[v][w])]
                  for v in range(n)]
    images = [-1] * n
    used = [False] * n

    def extend(k: int):
        if k == n:
            yield Permutation(tuple(images))
            return
        for w in candidates[k]:
            if used[w] or any((j in adj[k]) != (images[j] in adj[w]) for j in range(k)):
                continue
            images[k] = w
            used[w] = True
            yield from extend(k + 1)
            used[w] = False

    yield from extend(0)


def joint_matches(targets: np.ndarray, coords: np.ndarray, tol: float) -> np.ndarray:
    """The boolean matrix of targets[..., v, :] lying within tol of joint coords[w], shape [..., n, n]."""
    with np.errstate(over="ignore"):  # as in bar_vectors: an overflow is an infinite distance, never a match
        return _lengths(targets[..., :, None, :] - coords) <= tol


def coincidence_automorphisms(graph: Graph, coords: np.ndarray) -> list[Permutation]:
    """Automorphisms that fix every joint position: p(alpha(v)) = p(v) within COINCIDENT_JOINT_TOL.

    One constrained search: v may go to w only when joint w lies within COINCIDENT_JOINT_TOL of joint v.
    """
    p = np.asarray(coords, dtype=float)
    if p.shape[0] != graph.n:
        raise LengthMismatch(f"coordinate rows {p.shape[0]} do not match n={graph.n}")
    return automorphisms(graph, allowed=joint_matches(p, p, COINCIDENT_JOINT_TOL))


def format_cycles(perm: Permutation, labels: tuple[str, ...], include_fixed: bool = False) -> str:
    """Serialize a permutation as cycle notation over vertex labels, "id" if trivial."""
    if len(perm) != len(labels):
        raise LengthMismatch("permutation and label list differ in length")
    cycles = perm.cycles(include_fixed=include_fixed)
    if not cycles:
        return "id"
    return "".join("(" + " ".join(labels[i] for i in cyc) + ")" for cyc in cycles)


def parse_cycles(text: str, labels: tuple[str, ...] | dict[str, int]) -> Permutation:
    """Parse cycle notation like "(v1 v2)(v5 v6)" over the given labels.

    labels are the vertex names in order, or a dict from name to vertex
    such as Graph.index, which spares building that dict on every call.
    "id" and "()" denote the identity. Fixed points may be written as
    singleton cycles; every label may appear at most once. One regex scan
    finds the cycles, and their names are looked up all at once.
    """
    n = len(labels)
    stripped = text.strip()
    if stripped in ("id", "()", ""):
        return Permutation.identity(n)
    if stripped.count("(") != stripped.count(")"):
        raise BadPermutation(f"unbalanced parentheses in {text!r}")
    index = labels if isinstance(labels, dict) else {name: i for i, name in enumerate(labels)}
    end = CYCLES.match(stripped).end()  # the cycles before any text that is not one
    cycles = [body.replace(",", " ").split() for body in CYCLE.findall(stripped, 0, end)]
    ids = list(map(index.get, chain.from_iterable(cycles)))
    if None in ids or len(set(ids)) < len(ids):
        _raise_first_fault(cycles, index, text)
    if end != len(stripped):
        raise BadPermutation(f"expected '(' in {text!r}")
    # Each name goes to the next one, and the last of a cycle to its first.
    after = ids[1:] + ids[:1]
    first = 0
    for stop in accumulate(map(len, cycles)):
        if stop > first:  # "()" is an empty cycle
            after[stop - 1] = ids[first]
        first = stop
    moved = dict(zip(ids, after))
    return Permutation(tuple(map(moved.get, range(n), range(n))))


def _raise_first_fault(cycles: list[list[str]], index: dict[str, int], text: str) -> None:
    """The first unknown or repeated name, cycle by cycle, as parse_cycles reports it."""
    seen: set[str] = set()
    for names in cycles:
        for name in names:
            if name not in index:
                raise BadPermutation(f"unknown vertex name {name!r} in {text!r}")
        for name in names:
            if name in seen:
                raise BadPermutation(f"vertex {name!r} appears twice in {text!r}")
            seen.add(name)
