"""Plain SVG drawings of frameworks, with mirror overlays.

Spatial configurations are drawn with a fixed orthographic camera: the
scene is rotated 30 degrees about the vertical axis, then 20 degrees
about the horizontal axis, and depth is dropped. Coincident joints are
drawn as concentric circles with a multiplicity badge so collapsed
configurations stay readable.
"""

from __future__ import annotations

import math

import numpy as np

from ._numeric import chunks
from .errors import UnsupportedDim
from .graphs import COINCIDENT_JOINT_TOL, joint_matches
from .groups import SymmetryGroup, fixed_subspace
from .rigidity import Framework

WIDTH, HEIGHT, MARGIN = 480, 480, 40.0  # drawing size and the clear border around the scene, in pixels

_STYLE = (
    ".bar{stroke:#444;stroke-width:2;stroke-linecap:round}"
    ".joint{fill:#fff;stroke:#0a61c9;stroke-width:2}"
    ".badge{font:11px sans-serif;fill:#0a61c9}"
    ".label{font:11px sans-serif;fill:#333}"
    ".mirror{stroke:#c0392b;stroke-width:1.5;stroke-dasharray:6 4;fill:none}"
)


def _projection(dim: int) -> np.ndarray:
    if dim == 2:
        return np.eye(2)
    if dim != 3:
        raise UnsupportedDim(f"can only draw in dimension 2 or 3, got {dim}")
    az, el = math.radians(30.0), math.radians(20.0)
    rot_y = np.array([
        [math.cos(az), 0.0, math.sin(az)],
        [0.0, 1.0, 0.0],
        [-math.sin(az), 0.0, math.cos(az)],
    ])
    rot_x = np.array([
        [1.0, 0.0, 0.0],
        [0.0, math.cos(el), -math.sin(el)],
        [0.0, math.sin(el), math.cos(el)],
    ])
    return (rot_x @ rot_y)[:2]


def _coincidence_clusters(coords: np.ndarray) -> list[list[int]]:
    """Each joint filed under its first match by joint_matches (the least joint at its spot), clusters ordered by it."""
    n, d = coords.shape
    first = np.concatenate([
        joint_matches(coords[rows], coords, COINCIDENT_JOINT_TOL).argmax(axis=1) for rows in chunks(n, n * d)
    ])
    clusters: dict[int, list[int]] = {}
    for v, w in enumerate(first.tolist()):
        clusters.setdefault(w, []).append(v)
    return list(clusters.values())


def _mirror_planes(group: SymmetryGroup) -> list[np.ndarray]:
    """Orthonormal rows of each reflection's fixed hyperplane (a line in 2d, a plane in 3d)."""
    planes = (fixed_subspace(op) for op in group.elements if op.det < 0)
    return [rows for rows in planes if len(rows) == group.dim - 1]


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_svg(
    framework: Framework,
    group: SymmetryGroup | None = None,
    label_joints: bool = False,
) -> str:
    """SVG text for a framework: bars, joints, badges, and mirror overlays.

    Every joint contributes one circle; coincident joints become
    concentric circles around one center plus a multiplicity badge.
    Mirror overlays are drawn when a group is supplied: dashed lines in
    the plane, dashed projected outlines of the plane in space.
    """
    coords = framework.coords
    proj = _projection(framework.dim)
    flat = coords @ proj.T

    # scene bounds include the origin whenever overlays are anchored there
    anchor = flat if group is None else np.vstack([flat, np.zeros((1, 2))])
    low = anchor.min(axis=0)
    high = anchor.max(axis=0)
    span = float(max(high[0] - low[0], high[1] - low[1], 1e-6))
    scale = (min(WIDTH, HEIGHT) - 2 * MARGIN) / span
    center = (low + high) / 2.0

    def place(point: np.ndarray) -> tuple[float, float]:
        x = (point[0] - center[0]) * scale + WIDTH / 2.0
        y = -(point[1] - center[1]) * scale + HEIGHT / 2.0
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<style>{_STYLE}</style>",
    ]

    if group is not None:
        reach = span * 0.75
        for rows in _mirror_planes(group):
            if framework.dim == 2:
                direction = rows[0]
                a = place(proj @ (reach * direction))
                b = place(proj @ (-reach * direction))
                parts.append(
                    f'<line class="mirror" x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
                    f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}"/>'
                )
            else:
                b1, b2 = rows
                points = []
                for step in range(33):
                    theta = 2.0 * math.pi * step / 32
                    spot = reach * (math.cos(theta) * b1 + math.sin(theta) * b2)
                    x, y = place(proj @ spot)
                    points.append(f"{_fmt(x)},{_fmt(y)}")
                parts.append(f'<polyline class="mirror" points="{" ".join(points)}"/>')

    for u, v in framework.graph.bars.tolist():
        a = place(flat[u])
        b = place(flat[v])
        parts.append(
            f'<line class="bar" x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
            f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}"/>'
        )

    for cluster in _coincidence_clusters(coords):
        x, y = place(flat[cluster[0]])
        for ring, _vertex in enumerate(cluster):
            radius = 5.0 + 4.0 * ring
            parts.append(f'<circle class="joint" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}"/>')
        outer = 5.0 + 4.0 * (len(cluster) - 1)
        if len(cluster) > 1:
            parts.append(
                f'<text class="badge" x="{_fmt(x + outer + 3)}" y="{_fmt(y - outer - 3)}">'
                f"×{len(cluster)}</text>"
            )
        if label_joints:
            names = " ".join(framework.graph.labels[i] for i in cluster)
            parts.append(
                f'<text class="label" x="{_fmt(x + outer + 3)}" y="{_fmt(y + outer + 11)}">{names}</text>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
