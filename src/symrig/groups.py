"""Orthogonal symmetry operations and the Schoenflies point-group catalog.

Orientation conventions, fixed for the whole library:
  * 2d: rotations are counterclockwise; the default mirror line is the
    x-axis (override with mirror_angle, the angle of the mirror line).
  * 3d: the principal rotation axis is z; the default Cs mirror is the
    xz-plane (normal along y); the first secondary half-turn axis of the
    dihedral families is x; the diagonal mirror of Dmd bisects adjacent
    secondary axes (line angle pi/(2m)).
  * Cubic and icosahedral groups are axis-aligned: 4-fold (or 2-fold)
    axes along the coordinate axes, 3-fold axes along body diagonals,
    icosahedral 5-fold axis through (0, 1, golden_ratio).

Group elements are canonicalized by snapping entries within SNAP_TOL (1e-12)
of 0, +-0.5, +-1, and deduplicated at MATCH_TOL (1e-9) max-entry distance.
Each group is checked, snapped and labelled in one pass over its element
stack: batched determinants, traces and axes, and one match of every
distinct rotation angle against 2 pi k / m for all m up to MAX_GROUP_ORDER.

Elements are looked up by key (_find): each matrix is filed in a dict under
its entries rounded to a fixed grid. A key hit is confirmed at the 1e-9
distance; a miss or a failed confirm falls back to scanning every element,
so a grid boundary can cost time but never change a match. Groups given as
explicit lists (the C/Cv/D/... catalog families and user-built
SymmetryGroups) look up all |S|^2 products this way. The closure
(close_group) files only the products of elements with generators, walking
the Cayley graph breadth first, numbers the elements in the order the walk
finds them, and composes the rest of the multiplication table from those
integers; one chunked pass checks the table against the float products.
A label that several elements share is numbered b#1, b#2, ... in element
order. index_of, called only to restrict a type to a subgroup, scans.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import InitVar, dataclass, field
from math import atan2, cos, degrees, pi, prod, sin, sqrt

import numpy as np

from ._numeric import chunks, kernel_basis, snap_matrix
from .errors import (
    BadParam,
    DimensionMismatch,
    InvalidGroup,
    NonOrthogonalGenerator,
    NotClosedWithinBound,
    OrderBoundExceeded,
    UnknownName,
    UnsupportedDim,
)

MAX_GROUP_ORDER = 200
MATCH_TOL = 1e-9
# Element keys round entries to multiples of 2**-20: far coarser than the
# rounding error of a product, far finer than the gap between two elements.
_KEY_SCALE = float(2**20)


def _orthogonal(mats) -> np.ndarray:
    """A read-only snapped stack of finite orthogonal d x d matrices, d 2 or 3, within 1e-9."""
    m = np.array(mats, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise NonOrthogonalGenerator(f"expected a square matrix, got shape {m.shape[1:]}")
    if m.shape[1] not in (2, 3):
        raise UnsupportedDim(f"only dimensions 2 and 3 are supported, got {m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise NonOrthogonalGenerator("matrix entries must be finite numbers")
    if np.max(np.abs(np.swapaxes(m, 1, 2) @ m - np.eye(m.shape[1])), initial=0.0) > 1e-9:
        raise NonOrthogonalGenerator("matrix is not orthogonal within 1e-9")
    if np.max(np.abs(np.abs(np.linalg.det(m)) - 1.0), initial=0.0) > 1e-9:
        raise NonOrthogonalGenerator("matrix determinant is not +-1 within 1e-9")
    m = snap_matrix(m)
    m.setflags(write=False)
    return m


class OrthogonalOp:
    """A d x d orthogonal matrix with a printable label."""

    __slots__ = ("matrix", "label")

    def __init__(self, matrix, label: str = ""):
        self.matrix = _orthogonal(np.asarray(matrix, dtype=float)[None])[0]
        self.label = label

    @classmethod
    def _checked(cls, matrix: np.ndarray, label: str) -> "OrthogonalOp":
        """An op from a matrix _orthogonal has already checked and snapped."""
        op = cls.__new__(cls)
        op.matrix, op.label = matrix, label
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def det(self) -> float:
        return float(np.sign(np.linalg.det(self.matrix)))

    def is_identity(self) -> bool:
        return bool(np.max(np.abs(self.matrix - np.eye(self.dim))) <= MATCH_TOL)

    def __repr__(self) -> str:
        return f"OrthogonalOp({self.label or 'unnamed'}, dim={self.dim})"


def _match(candidates: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """For each candidate matrix, the index of the first stack entry within MATCH_TOL, or -1."""
    close = np.abs(candidates[:, None] - stack[None]).max(axis=(2, 3)) <= MATCH_TOL
    return np.where(close.any(axis=1), close.argmax(axis=1), -1)


def _keys(mats: np.ndarray) -> list[bytes]:
    """Dict keys of a stack of matrices (flat or square): their entries on the key grid."""
    grid = np.rint(mats * _KEY_SCALE).astype(np.int64).reshape(len(mats), prod(mats.shape[1:]))
    return grid.view(f"V{grid.shape[1] * 8}").ravel().tolist()  # one bytes object per matrix


def _find(mats: np.ndarray, stack: np.ndarray, by_key: dict) -> np.ndarray:
    """For each matrix, the index of the stack entry within MATCH_TOL, or -1.

    The entry filed in by_key under the matrix's key answers when it lies
    within MATCH_TOL; otherwise _match scans the whole stack, so a neighbour
    across a grid boundary is still found.
    """
    idx = np.array([by_key.get(key, -1) for key in _keys(mats)], dtype=int)
    miss = (idx < 0) | (np.abs(mats - stack[idx]).max(axis=(1, 2)) > MATCH_TOL)
    if miss.any():
        idx[miss] = _match(mats[miss], stack)
    return idx


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """A finite orthogonal group; element 0 is always the identity.

    The constructor raises InvalidGroup unless element 0 is the identity, every product is an element (else it
    names the first missing one in row-major order), every table row is a permutation (else two elements coincide
    within MATCH_TOL) and the labels are unique. table[i, j] indexes the product of elements i and j: the closure
    hands in the table it filled (_table), otherwise _find looks up all |S|^2 products here. matrices() is the
    elements' read-only stack.
    """

    dim: int
    elements: tuple[OrthogonalOp, ...]
    name: str = ""
    table: np.ndarray = field(init=False, repr=False)
    _stack: np.ndarray = field(init=False, repr=False)
    _table: InitVar[np.ndarray | None] = None

    def __post_init__(self, _table: np.ndarray | None) -> None:
        if not self.elements:
            raise InvalidGroup("a group needs at least the identity element")
        shapes = {op.matrix.shape for op in self.elements}
        if shapes != {(self.dim, self.dim)}:
            raise DimensionMismatch(f"elements of shapes {sorted(shapes)} in a group acting in {self.dim}d")
        if not self.elements[0].is_identity():
            raise InvalidGroup("element 0 must be the identity")
        stack = np.stack([op.matrix for op in self.elements])
        stack.setflags(write=False)
        if _table is None:  # one row of products fills stack.size cells
            # filed in reverse, so that the first of equal keys stays: _match finds the first
            by_key = dict(zip(reversed(_keys(stack)), range(len(stack) - 1, -1, -1)))
            _table = np.concatenate([_find((stack[rows, None] @ stack).reshape(-1, self.dim, self.dim), stack, by_key)
                                     for rows in chunks(len(stack), stack.size)]).reshape(len(stack), -1)
        if _table.min() == -1:  # a min is a tenth of the cost of the argwhere that names the first miss
            raise InvalidGroup("product of elements {} and {} is missing".format(*np.argwhere(_table == -1)[0]))
        hit = np.zeros(_table.shape, dtype=bool)
        hit[np.arange(len(stack))[:, None], _table] = True
        if not hit.all():  # in the first row that is not a permutation, the first entry an earlier one repeats
            row = _table[np.argmin(hit.all(axis=1))]
            first = np.argmax(row[:, None] == row, axis=1)  # the first column holding each column's entry
            j = int(np.argmax(first != np.arange(len(row))))
            raise InvalidGroup(f"elements {first[j]} and {j} coincide")
        if len(set(self.labels)) != len(stack):
            raise InvalidGroup("element labels are not unique")
        _table.setflags(write=False)
        object.__setattr__(self, "table", _table)
        object.__setattr__(self, "_stack", stack)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(op.label for op in self.elements)

    def matrices(self) -> np.ndarray:
        return self._stack

    def index_of(self, matrix: np.ndarray) -> int:
        m = np.asarray(matrix, dtype=float)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"a matrix of shape {m.shape} is not an element of a group acting in {self.dim}d")
        idx = int(_match(m[None], self._stack)[0])
        if idx < 0:
            raise UnknownName(f"matrix is not an element of {self.name or 'group'}")
        return idx

    def label_index(self, label: str) -> int:
        if label not in self.labels:
            raise UnknownName(f"no element labeled {label!r} in {self.name or 'group'}")
        return self.labels.index(label)

    def multiply(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inverse_index(self, i: int) -> int:
        return int(np.argmax(self.table[i] == 0))

    def __repr__(self) -> str:
        return f"SymmetryGroup({self.name or 'unnamed'}, dim={self.dim}, order={len(self)})"


# ---------------------------------------------------------------------------
# elementary matrix builders


def rot2(theta: float) -> np.ndarray:
    c, s = cos(theta), sin(theta)
    return np.array([[c, -s], [s, c]])


def mirror2(line_angle: float) -> np.ndarray:
    """Reflection across the line through the origin at the given angle."""
    c, s = cos(2.0 * line_angle), sin(2.0 * line_angle)
    return np.array([[c, s], [s, -c]])


def _unit(vector, what: str) -> np.ndarray:
    """vector over its length, after exact scaling by the power of 2 that brings its largest |entry| into [0.5, 1).

    So no square in the length overflows or underflows, as np.linalg.norm's do beyond about 1e154 or below 1e-154.
    """
    v = np.asarray(vector, dtype=float)
    v = np.ldexp(v, -np.frexp(np.abs(v).max(initial=0.0))[1])
    if not v.any():
        raise BadParam(f"{what} must be nonzero")
    return v / np.linalg.norm(v)


def rot3(axis, theta: float) -> np.ndarray:
    u = _unit(axis, "rotation axis")
    k = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return np.eye(3) + sin(theta) * k + (1.0 - cos(theta)) * (k @ k)


def mirror3(normal) -> np.ndarray:
    n = _unit(normal, "mirror normal")
    return np.eye(3) - 2.0 * np.outer(n, n)


def element_order(op: OrthogonalOp, bound: int = MAX_GROUP_ORDER) -> int:
    """Least k >= 1 with op^k = identity, within the bound."""
    m = op.matrix
    power = m.copy()
    eye = np.eye(op.dim)
    for k in range(1, bound + 1):
        if np.max(np.abs(power - eye)) <= MATCH_TOL:
            return k
        power = power @ m
    raise OrderBoundExceeded(f"no power up to {bound} returns to the identity")


def fixed_subspace(op: OrthogonalOp) -> np.ndarray:
    """Orthonormal rows spanning the points an operation fixes: the kernel of M - I at kernel_basis's default rtol."""
    return kernel_basis(op.matrix - np.eye(op.dim))


# ---------------------------------------------------------------------------
# labeling by geometric classification


def _fmt_deg(angle: float, period: float) -> str:
    d = degrees(angle % period)
    rounded = round(d)
    if abs(d - rounded) <= 1e-6:
        return str(int(rounded) % int(round(degrees(period))))
    return f"{d:.4f}"


def _base_labels(raw: np.ndarray, dim: int) -> list[str]:
    """The label of each matrix of a stack by its geometry, before repeats are numbered.

    Id, i, rotations C<m>^k (R(degrees) when no m fits), mirrors s(line
    degrees) in 2d and sh, sv(line degrees) or s in 3d, rotoreflections
    S<m>^k or S(degrees). A 3d angle is signed about the axis with positive
    first significant coordinate, read from the antisymmetric part 2 sin(angle) axis.
    """
    eye, rows = np.eye(dim), np.arange(len(raw))
    # math.atan2: np.arctan2 differs from it in the last bit on some inputs
    theta = np.array(list(map(atan2, raw[:, 1, 0].tolist(), raw[:, 0, 0].tolist())))
    line = ((theta / 2.0) % pi).tolist()
    identity = (np.abs(raw - eye).max(axis=(1, 2)) <= MATCH_TOL).tolist()
    proper = np.linalg.det(raw) > 0
    angle = theta % (2.0 * pi)
    if dim == 3:
        trace = np.trace(raw, axis1=1, axis2=2)
        axis = np.stack([raw[:, 2, 1] - raw[:, 1, 2], raw[:, 0, 2] - raw[:, 2, 0], raw[:, 1, 0] - raw[:, 0, 1]], axis=1)
        # atan2 of 2 sin(angle) against 2 cos(angle): well conditioned near a half-turn, where arccos is not
        angle = np.array(list(map(atan2, np.linalg.norm(axis, axis=1).tolist(),
                                  np.where(proper, trace - 1.0, trace + 1.0).tolist())))
        big = np.abs(axis) > 1e-9
        angle = np.where(big.any(axis=1) & (axis[rows, big.argmax(axis=1)] < 0), 2.0 * pi - angle, angle)
        inversion = (np.abs(raw + eye).max(axis=(1, 2)) <= MATCH_TOL).tolist()
        symmetric = np.abs(raw - np.swapaxes(raw, 1, 2)).max(axis=(1, 2)) <= MATCH_TOL
        mirror = (symmetric & (np.abs(trace - 1.0) <= MATCH_TOL)).tolist()
        # A mirror is I - 2 n n^T, so its normal n is the longest column of I - M over that column's length.
        cols = np.swapaxes(eye - raw, 1, 2)
        longest = cols[rows, np.linalg.norm(cols, axis=2).argmax(axis=1)]
        nz = (np.abs(longest[:, 2]) / np.maximum(np.linalg.norm(longest, axis=1), 1e-300)).tolist()
    # angle = 2 pi k / m for the least m that fits within 1e-9; two fractions
    # with m <= MAX_GROUP_ORDER lie 1/MAX_GROUP_ORDER^2 apart, so it is the closest too.
    # Each distinct angle is matched once.
    slot: dict[float, int] = {}
    back = [slot.setdefault(v, len(slot)) for v in ((angle / (2.0 * pi)) % 1.0).tolist()]
    x = np.array(list(slot))
    den = np.arange(1, MAX_GROUP_ORDER + 1)
    num = np.rint(x[:, None] * den)
    fits = np.abs(num / den - x[:, None]) <= 1e-9
    order = np.where(fits.any(axis=1), den[fits.argmax(axis=1)], 0)[back].tolist()
    turns = num[np.arange(len(x)), fits.argmax(axis=1)].astype(int)[back].tolist()
    angle, proper = angle.tolist(), proper.tolist()

    def turn(name: str, free: str, i: int) -> str:
        if order[i] <= 1:  # no fraction fits, or a whole turn
            return f"{free}({_fmt_deg(angle[i], 2.0 * pi)})"
        return f"{name}{order[i]}" if turns[i] == 1 else f"{name}{order[i]}^{turns[i]}"

    def label(i: int) -> str:
        if identity[i]:
            return "Id"
        if dim == 2:
            return turn("C", "R", i) if proper[i] else f"s({_fmt_deg(line[i], pi)})"
        if inversion[i]:
            return "i"
        if proper[i] or not mirror[i]:
            return turn("C", "R", i) if proper[i] else turn("S", "S", i)
        if abs(nz[i] - 1.0) <= 1e-9:
            return "sh"
        return f"sv({_fmt_deg(line[i], pi)})" if nz[i] <= 1e-9 else "s"

    return [label(i) for i in range(len(raw))]


def _wrap(mats, dim: int, name: str, overrides: dict[int, str] | None = None) -> SymmetryGroup:
    """A group from a list of matrices, checked and snapped in one pass."""
    return _group(_orthogonal(mats), dim, name, overrides)


def _group(stack: np.ndarray, dim: int, name: str, overrides: dict[int, str] | None = None,
           table: np.ndarray | None = None) -> SymmetryGroup:
    """A group labelled by the geometry of a stack that _orthogonal has checked and snapped, or the closure built."""
    overrides = overrides or {}
    base = [overrides.get(i) or b for i, b in enumerate(_base_labels(stack, dim))]
    counts, seen, labels = Counter(base), Counter(), []
    for b in base:
        seen[b] += 1
        labels.append(b if counts[b] == 1 else f"{b}#{seen[b]}")
    ops = tuple(OrthogonalOp._checked(m, lab) for m, lab in zip(stack, labels))
    return SymmetryGroup(dim=dim, elements=ops, name=name, _table=table)


# ---------------------------------------------------------------------------
# closure of generated groups


def close_group(generators, max_order: int = MAX_GROUP_ORDER, name: str = "closure") -> SymmetryGroup:
    """Close a generator list under products, identity first, no duplicates.

    A breadth-first walk of the right Cayley graph forms and files by key
    only the |S| |gens| products x s, which give the maps R_s: x -> x s; the
    rest of the table is integer composition, a y = R_s[a x] when y was
    reached as x s. Elements are numbered as the walk finds them: the
    identity, the distinct generators in list order, then one level at a
    time, each level's products x s in order of x, then of s. An element's
    bits are those of the snapped product it was first found as; a chunked
    pass checks every table entry against its float product.
    Raises NotClosedWithinBound once more than max_order distinct elements
    exist, at once for a generator of higher order, and for max_order < 1.
    """
    gens = [g.matrix if isinstance(g, OrthogonalOp) else np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise BadParam("need at least one generator")
    dims = {g.shape for g in gens}
    if len(dims) != 1:
        raise DimensionMismatch(f"generators of mixed shapes {sorted(dims)}")
    checked = _orthogonal(gens)
    for g in checked:
        try:
            element_order(OrthogonalOp._checked(g, ""), max_order)
        except OrderBoundExceeded:
            raise NotClosedWithinBound(f"closure exceeded {max_order} elements") from None
    n_gens, dim = checked.shape[:2]

    # The Cayley graph, one level per batch, elements numbered as the walk finds them:
    # right[s, x] indexes x s. found starts zeroed, as a key miss (-1) reads its last row.
    found = np.zeros((max_order, dim, dim))
    found[0] = np.eye(dim)
    by_key, count = {_keys(found[:1])[0]: 0}, 1
    right = np.empty((n_gens, max_order), dtype=int)
    levels, frontier = [], np.zeros(1, dtype=int)
    while frontier.size:
        flat = snap_matrix((found[frontier][:, None] @ checked).reshape(-1, dim * dim))
        keys = _keys(flat)
        idx = np.array([by_key.get(key, -1) for key in keys])
        suspect = (idx < 0) | (np.abs(flat - found.reshape(max_order, -1)[idx]).max(axis=1) > MATCH_TOL)
        # With no entry within MATCH_TOL of a key boundary, every element that matches
        # a product shares its key, so a key miss proves it new; _find scans the rest.
        scaled = flat * _KEY_SCALE
        clear = (np.abs(scaled - np.rint(scaled)) < 0.5 - MATCH_TOL * _KEY_SCALE).all(axis=1).tolist()
        new = []
        for t in np.flatnonzero(suspect).tolist():
            m = flat[t].reshape(dim, dim)
            k = by_key.get(keys[t], -1)  # filed earlier in this level: a hit confirmed here skips _find's call cost
            if k < 0 or np.max(np.abs(found[k] - m)) > MATCH_TOL:
                k = -1 if clear[t] and k < 0 else int(_find(m[None], found[:count], by_key)[0])
            if k < 0:
                if count >= max_order:
                    raise NotClosedWithinBound(f"closure exceeded {max_order} elements")
                found[count], k = m, count
                by_key.setdefault(keys[t], k)
                count += 1
                new.append(t)
            idx[t] = k
        right[:, frontier] = idx.reshape(-1, n_gens).T
        new = np.array(new, dtype=int)
        levels.append((np.arange(count - len(new), count), frontier[new // n_gens], new % n_gens))
        frontier = levels[-1][0]
    table = np.empty((count, count), dtype=int)  # a y = R_s[a x], a level at a time
    table[:, 0] = np.arange(count)
    for ys, xs, ss in levels:
        table[:, ys] = right[ss, table[:, xs]]
    bits = found[:count]

    # Every entry within MATCH_TOL of its float product. With columns[a, k, c] = bits[k, a, c],
    # row (a, i) of columns[:, rows] times the d x (count d) columns holds bits[i] bits[j] in block j.
    # A product off its entry is one more element, so the generators do not close at MATCH_TOL.
    columns = bits.transpose(1, 0, 2).copy()
    for rows in chunks(count, count * dim * dim):
        block = columns[:, rows].reshape(-1, dim) @ columns.reshape(dim, -1)
        block -= np.take(columns, table[rows], axis=1).reshape(block.shape)
        if np.abs(block, out=block).max() > MATCH_TOL:
            raise NotClosedWithinBound(f"closure exceeded {max_order} elements")
    # bits are snapped products of checked generators, so they go to the group unchecked.
    bits.setflags(write=False)
    return _group(bits, dim, name, table=table)


# ---------------------------------------------------------------------------
# Schoenflies catalog

_GOLDEN = (1.0 + sqrt(5.0)) / 2.0

_POLYHEDRAL_GENS = {
    "T": lambda: [np.diag([-1.0, -1.0, 1.0]), np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])],
    "Td": lambda: _POLYHEDRAL_GENS["T"]() + [np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])],
    "Th": lambda: _POLYHEDRAL_GENS["T"]() + [-np.eye(3)],
    "O": lambda: [np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                  np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])],
    "Oh": lambda: _POLYHEDRAL_GENS["O"]() + [-np.eye(3)],
    "I": lambda: [rot3((0.0, 1.0, _GOLDEN), 2.0 * pi / 5.0), np.diag([-1.0, -1.0, 1.0])],
    "Ih": lambda: _POLYHEDRAL_GENS["I"]() + [-np.eye(3)],
}

# Per dimension and family: (fixed, per_m, params). The group has fixed + per_m * m
# elements, and params names the orientation parameters the family takes. A family
# with per_m 0 is a literal name; the others are written with their order (C3v) or
# as a template (Cmv, m=3).
_FAMILIES = {
    2: {"C1": (1, 0, ()), "Cs": (2, 0, ("mirror_angle",)), "C": (0, 1, ()), "Cv": (0, 2, ("mirror_angle",))},
    3: {"C1": (1, 0, ()), "Cs": (2, 0, ("mirror_normal",)), "Ci": (2, 0, ()),
        "T": (12, 0, ()), "Td": (24, 0, ()), "Th": (24, 0, ()), "O": (24, 0, ()), "Oh": (48, 0, ()),
        "I": (60, 0, ()), "Ih": (120, 0, ()),
        "C": (0, 1, ("axis",)), "Cv": (0, 2, ("axis", "secondary_axis", "mirror_angle")),
        "Ch": (0, 2, ("axis",)), "D": (0, 2, ("axis", "secondary_axis")), "Dh": (0, 4, ("axis", "secondary_axis")),
        "Dd": (0, 4, ("axis", "secondary_axis")), "S": (0, 1, ("axis",))},
}
_TEMPLATES = {"Cm": "C", "Cmv": "Cv", "Cmh": "Ch", "Dm": "D", "Dmh": "Dh", "Dmd": "Dd", "S2m": "S"}
_NUMERIC_RE = re.compile(r"^([CDS])(\d+)(v|h|d)?$")


def _parse_name(name: str, dim: int, m: int | None) -> tuple[str, int]:
    """Resolve a Schoenflies name to (family, m), family a key of _FAMILIES[dim]; m is 0 for a literal."""
    if dim not in _FAMILIES:
        raise UnsupportedDim(f"only dimensions 2 and 3 are supported, got {dim}")
    if m is not None and (not isinstance(m, int) or isinstance(m, bool)):
        raise BadParam(f"{name} needs an integer m, got {m!r}")
    families = _FAMILIES[dim]
    if name in families and not families[name][1]:
        if m is not None:
            raise BadParam(f"{name} takes no parameter m")
        return (name, 0)
    if name in _TEMPLATES:
        if m is None:
            raise BadParam(f"{name} requires the parameter m")
        family, order = _TEMPLATES[name], m
        if name == "S2m":
            order = 2 * order
    else:
        match = _NUMERIC_RE.match(name)
        if match is None:
            raise UnknownName(f"unknown Schoenflies name {name!r} in dimension {dim}")
        family = match.group(1) + (match.group(3) or "")
        order = int(match.group(2))
        if m is not None and m != order:
            raise BadParam(f"parameter m={m} contradicts name {name!r}")
    if family not in families:
        raise UnknownName(f"unknown Schoenflies name {name!r} in dimension {dim}")
    if family == "S":
        if order < 4 or order % 2 != 0:
            raise BadParam(f"improper rotation groups need an even order >= 4, got S{order}")
    elif order < 2:
        raise BadParam(f"{name!r} needs m >= 2 (use C1 or Cs for the trivial cases)")
    return (family, order)


def _frame(axis, secondary) -> np.ndarray:
    w = _unit(axis, "axis")
    if secondary is None:
        cand = np.eye(3)[np.argmin(np.abs(w))]
        u = _unit(cand - np.dot(cand, w) * w, "axis")
    else:
        u = _unit(secondary, "secondary_axis")
        if abs(np.dot(u, w)) > 1e-9:
            raise BadParam("secondary_axis must be perpendicular to axis")
    return np.column_stack([u, np.cross(w, u), w])


def schoenflies_group(
    name: str,
    dim: int,
    *,
    m: int | None = None,
    mirror_angle: float | None = None,
    axis=None,
    secondary_axis=None,
    mirror_normal=None,
) -> SymmetryGroup:
    """Build a catalog point group by Schoenflies name.

    Names embed the rotation order ("C3v") or use template form ("Cmv"
    with m=3). See the module docstring for orientation conventions;
    _FAMILIES lists the order of each family and the parameters it takes.
    """
    family, order = _parse_name(name, dim, m)
    fixed, per_m, takes = _FAMILIES[dim][family]
    size = fixed + per_m * order
    if size > MAX_GROUP_ORDER:
        raise BadParam(f"group order {size} exceeds the bound {MAX_GROUP_ORDER}")
    display = family[0] + str(order) + family[1:] if name in _TEMPLATES else name
    given = {"mirror_angle": mirror_angle, "axis": axis, "secondary_axis": secondary_axis,
             "mirror_normal": mirror_normal}
    extra = [key for key, value in given.items() if value is not None and key not in takes]
    if extra:
        raise BadParam(f"parameters {extra} do not apply to {display} in dimension {dim}")

    if dim == 2:
        theta = 0.0 if mirror_angle is None else float(mirror_angle)
        if family == "C1":
            return _wrap([np.eye(2)], 2, display)
        if family == "Cs":
            return _wrap([np.eye(2), mirror2(theta)], 2, display, overrides={1: "s"})
        if family == "C":
            return _wrap([rot2(2.0 * pi * k / order) for k in range(order)], 2, display)
        # Cv: rotations then mirrors, mirror lines spaced pi/m starting at theta
        mats = [rot2(2.0 * pi * k / order) for k in range(order)]
        mats += [mirror2(theta + pi * k / order) for k in range(order)]
        return _wrap(mats, 2, display)

    # dim == 3
    if family in _POLYHEDRAL_GENS:
        return close_group(_POLYHEDRAL_GENS[family](), name=display)
    if family == "C1":
        return _wrap([np.eye(3)], 3, display)
    if family == "Cs":
        normal = (0.0, 1.0, 0.0) if mirror_normal is None else mirror_normal
        return _wrap([np.eye(3), mirror3(normal)], 3, display, overrides={1: "s"})
    if family == "Ci":
        return _wrap([np.eye(3), -np.eye(3)], 3, display)

    ez = np.array([0.0, 0.0, 1.0])
    sh = np.diag([1.0, 1.0, -1.0])
    rots = [rot3(ez, 2.0 * pi * k / order) for k in range(order)]
    if family == "C":
        mats = rots
    elif family == "Cv":
        theta = 0.0 if mirror_angle is None else float(mirror_angle)
        planes = [mirror3((-sin(theta + pi * k / order), cos(theta + pi * k / order), 0.0)) for k in range(order)]
        mats = rots + planes
    elif family == "Ch":
        mats = rots + [sh @ r for r in rots]
    elif family == "S":
        gen = sh @ rot3(ez, 2.0 * pi / order)
        mats = [np.eye(3)]
        for _ in range(order - 1):
            mats.append(snap_matrix(mats[-1] @ gen))
    else:
        half_turns = [rot3((cos(pi * k / order), sin(pi * k / order), 0.0), pi) for k in range(order)]
        dn = rots + half_turns
        if family == "D":
            mats = dn
        elif family == "Dh":
            mats = dn + [sh @ g for g in dn]
        else:  # Dd
            sd = mirror3((-sin(pi / (2.0 * order)), cos(pi / (2.0 * order)), 0.0))
            mats = dn + [sd @ g for g in dn]
    mats = [snap_matrix(g) for g in mats]
    if axis is not None or secondary_axis is not None:
        q = _frame(ez if axis is None else axis, secondary_axis)
        mats = [snap_matrix(q @ g @ q.T) for g in mats]
    return _wrap(mats, 3, display)
