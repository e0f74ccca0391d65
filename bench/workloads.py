"""Seeded problem generators for the benchmark workloads.

Each workload is a list of problems (problem-file JSON) and a list of
commands. Every command carries its expected exit code and the expected
values of the fields the checker compares. Expected values come from
counting arguments and the paper's worked examples, never from a run of
symrig.

A problem also carries the data the benchmark's own checker needs: the
group matrices keyed by symrig's element labels, and the type as
permutations of vertex names (None for ``type: "auto"``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import parse_cycle_string

FIXTURE_DIR = Path("src") / "symrig" / "fixtures"

# Sizes per workload; the smoke sizes are the smallest that still run every
# command kind of the workload.
CYCLE_SIZES = {"full": ((96, 12), (48, 8)), "smoke": ((12, 4),)}
LARGE_JOINTS = {"full": 150, "smoke": 30}
LARGE_PROBLEMS = 2
SAMPLE_COUNT = 5
# As many rank decisions as analyze's default 20 trials: every large_3d
# command then costs about the same, so a latency percentile does not jump
# between command kinds when a run fits one pass more or less.
LARGE_SAMPLE_COUNT = 20

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass
class Problem:
    name: str
    data: dict
    ops: list[tuple[str, np.ndarray]] | None
    phi: dict[str, dict[str, str]] | None

    def check_info(self) -> dict:
        """What the checker needs besides the problem file itself."""
        return {
            "vertices": list(self.data["vertices"]),
            "dim": self.data["dim"],
            "ops": None if self.ops is None else [[lab, m.tolist()] for lab, m in self.ops],
            "phi": self.phi,
        }


@dataclass
class Workload:
    name: str
    problems: list[Problem] = field(default_factory=list)
    commands: list[dict] = field(default_factory=list)

    def add(self, argv: list[str], problem: str, **expect) -> None:
        expect.setdefault("exit", 0)
        self.commands.append({"argv": argv, "problem": problem, "expect": expect})


# ---------------------------------------------------------------------------
# group matrices and element labels (the problem-file naming of elements)


def rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def mirror2(line_angle: float) -> np.ndarray:
    c, s = math.cos(2.0 * line_angle), math.sin(2.0 * line_angle)
    return np.array([[c, s], [s, -c]])


def rot3(axis, theta: float) -> np.ndarray:
    u = np.asarray(axis, dtype=float)
    u = u / np.linalg.norm(u)
    k = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def rotation_label(k: int, m: int) -> str:
    """Label of the rotation by 2 pi k / m: Id, C<b> or C<b>^<a> in lowest terms."""
    k %= m
    if k == 0:
        return "Id"
    g = math.gcd(k, m)
    a, b = k // g, m // g
    return f"C{b}" if a == 1 else f"C{b}^{a}"


def cyclic_ops(m: int, dim: int) -> list[tuple[str, np.ndarray]]:
    """C_m about the origin (2D) or the z axis (3D), element k rotating by 2 pi k / m."""
    ops = []
    for k in range(m):
        theta = 2.0 * math.pi * k / m
        mat = rot2(theta) if dim == 2 else rot3((0.0, 0.0, 1.0), theta)
        ops.append((rotation_label(k, m), mat))
    return ops


def fixture_ops(spec: dict, dim: int) -> list[tuple[str, np.ndarray]]:
    """Matrices of the Schoenflies groups the shipped fixtures use."""
    name = spec["schoenflies"]
    if name == "Cs":
        mirror = mirror2(0.0) if dim == 2 else np.diag([1.0, -1.0, 1.0])
        return [("Id", np.eye(dim)), ("s", mirror)]
    if name == "C2v" and dim == 2:
        return cyclic_ops(2, 2) + [("s(0)", mirror2(0.0)), ("s(90)", mirror2(math.pi / 2))]
    if name[0] == "C" and name[1:].isdigit():
        return cyclic_ops(int(name[1:]), dim)
    raise ValueError(f"no checker matrices for fixture group {name!r}")


# ---------------------------------------------------------------------------
# permutations written as cycle strings over vertex names


def cycle_string(images: list[int], names: list[str]) -> str:
    seen = [False] * len(images)
    parts = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = images[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = images[j]
        if len(cyc) > 1:
            parts.append("(" + " ".join(names[i] for i in cyc) + ")")
    return "".join(parts) or "id"


def _points(names: list[str], coords: np.ndarray) -> dict[str, list[float]]:
    return {v: [float(c) for c in row] for v, row in zip(names, coords)}


# ---------------------------------------------------------------------------
# fixtures: every shipped problem under every everyday subcommand

# Class verdicts from the acceptance criteria: the ranks they bound (8 of 9
# bars, 5 of 6, 2 of 3) rule out both rigidity and independence.
_NEITHER = {"infinitesimally_rigid": False, "independent": False}
FIXTURE_VERDICTS = {
    "k33_phi_a": {"isostatic": True},
    "k33_phi_b": _NEITHER,
    "gtp_psi_a": {"isostatic": True},
    "gtp_psi_b": _NEITHER,
    "k4_upsilon_a": {"isostatic": True},
    "k4_upsilon_b": _NEITHER,
    "k3_c2_swap": _NEITHER,
}

def _homomorphic_k(ops, phi: dict[str, dict[str, str]], names: list[str]) -> int | None:
    """Orbit count of the class dimension for a homomorphic type, else None.

    For a homomorphic type the class space is the direct sum over vertex
    orbits of the subspace fixed by the stabilizer of one representative.
    """
    mats = {lab: m for lab, m in ops}
    labels = [lab for lab, _ in ops]
    images = {lab: phi.get(lab, {v: v for v in names}) for lab in labels}
    for a in labels:
        for b in labels:
            prod = mats[a] @ mats[b]
            c = next(lab for lab in labels if np.max(np.abs(mats[lab] - prod)) <= 1e-9)
            if any(images[c][v] != images[a][images[b][v]] for v in names):
                return None
    dim = next(iter(mats.values())).shape[0]
    seen: set[str] = set()
    total = 0
    for v in names:
        if v in seen:
            continue
        seen.update(images[lab][v] for lab in labels)
        rows = [mats[lab] - np.eye(dim) for lab in labels if images[lab][v] == v]
        sigma = np.linalg.svd(np.vstack(rows), compute_uv=False)
        total += dim - int(np.sum(sigma > 1e-9))
    return total


def fixtures(seed: int, size: str) -> Workload:
    wl = Workload("fixtures")
    rng = random.Random(seed)
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        name = path.stem
        data = json.loads(path.read_text(encoding="utf-8"))
        names = list(data["vertices"])
        ops = fixture_ops(data["group"], data["dim"])
        explicit = isinstance(data.get("type"), dict)
        phi = None
        if explicit:
            phi = {lab: {v: v for v in names} for lab, _ in ops}
            for lab, text in data["type"].items():
                phi[lab].update(parse_cycle_string(text))
        wl.problems.append(Problem(name, data, ops, phi))

        has_coords = "coords" in data
        k = _homomorphic_k(ops, phi, names) if explicit else None
        facts = {} if k is None else {"k": k}
        # k = 0 leaves only the all-zero configuration, which collapses every bar.
        empty = k == 0
        if empty:
            facts["empty"] = True
        cmd_seed = str(rng.randrange(1 << 16))
        src = ["--fixture", name, "--seed", cmd_seed]
        verdict = FIXTURE_VERDICTS.get(name, {})
        wl.add(["analyze", *src], name, verdict=verdict, **facts)
        # A class whose only member collapses a bar has nothing to sample or draw.
        wl.add(["sample", *src, "--count", str(SAMPLE_COUNT)], name,
               exit=3 if empty else 0, count=SAMPLE_COUNT, **({} if empty else facts))
        wl.add(["types", *src], name, exit=0 if has_coords else 3)
        wl.add(["basis", *src], name, **facts)
        wl.add(["empty-check", *src], name,
               **facts, **({"forced": len(data["edges"])} if empty else {}))
        wl.add(["svg", *src], name, exit=3 if empty and not has_coords else 0)
    return wl


# ---------------------------------------------------------------------------
# cycle_cm: n-cycles under the planar rotation group C_m, explicit types


def cycle_problem(n: int, m: int, homomorphic: bool, rng: random.Random) -> Problem:
    """An n-cycle under 2D C_m (m | n).

    Homomorphic: rotation k acts as the shift by k*s*n/m with gcd(s, m) = 1,
    so every orbit is free, k = 2n/m, and the class is a generic
    independent cycle (max rank n).
    Non-homomorphic: the identity acts as the reflection i -> -i of the
    cycle. With the shifts this forces p_i = p_{i + 2n/m} and R^2 p = p,
    so p = 0 for m > 2: the class is empty with every bar forced.
    """
    t = n // m
    s = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
    names = [f"c{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    ops = cyclic_ops(m, 2)
    phi_images = {}
    for k, (label, _) in enumerate(ops):
        if k == 0:
            images = [(-i) % n for i in range(n)] if not homomorphic else list(range(n))
        else:
            images = [(i + k * s * t) % n for i in range(n)]
        phi_images[label] = images
    type_spec = {label: cycle_string(img, names) for label, img in phi_images.items()
                 if label != "Id" or not homomorphic}
    kind = "hom" if homomorphic else "nonhom"
    name = f"cycle{n}_c{m}_{kind}"
    data = {
        "name": name,
        "dim": 2,
        "vertices": order,
        "edges": [[names[i], names[(i + 1) % n]] for i in range(n)],
        "group": {"schoenflies": f"C{m}"},
        "type": type_spec,
        "seed": rng.randrange(1 << 16),
    }
    phi = {label: {names[i]: names[img[i]] for i in range(n)} for label, img in phi_images.items()}
    return Problem(name, data, ops, phi)


def cycle_cm(seed: int, size: str) -> Workload:
    wl = Workload("cycle_cm")
    rng = random.Random(seed)
    for n, m in CYCLE_SIZES[size]:
        for homomorphic in (True, False):
            prob = cycle_problem(n, m, homomorphic, rng)
            wl.problems.append(prob)
            src = ["--problem", prob.name]
            if homomorphic:
                k = 2 * n // m
                wl.add(["basis", *src], prob.name, k=k)
                wl.add(["empty-check", *src], prob.name, k=k, empty=False, forced=0)
                wl.add(["analyze", *src], prob.name, k=k, empty=False, max_rank=n,
                       verdict={"infinitesimally_rigid": False, "independent": True,
                                "isostatic": False})
            else:
                wl.add(["basis", *src], prob.name, k=0)
                wl.add(["empty-check", *src], prob.name, k=0, empty=True, forced=n)
                wl.add(["analyze", *src], prob.name, k=0, empty=True)
    return wl


# ---------------------------------------------------------------------------
# high_symmetry: polyhedral groups, automorphism search, group closure


def _solid(kind: str) -> np.ndarray:
    if kind == "tetrahedron":
        return np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    if kind == "octahedron":
        return np.vstack([np.eye(3), -np.eye(3)])
    if kind == "cube":
        return np.array([[x, y, z] for x in (1, -1) for y in (1, -1) for z in (1, -1)], dtype=float)
    if kind == "icosahedron":
        g = _GOLDEN
        pts = []
        for a in (1, -1):
            for b in (g, -g):
                pts += [[0, a, b], [a, b, 0], [b, 0, a]]
        return np.array(pts, dtype=float)
    raise ValueError(kind)


def _nearest_pairs(coords: np.ndarray) -> list[tuple[int, int]]:
    n = len(coords)
    dist = {(i, j): float(np.linalg.norm(coords[i] - coords[j])) for i in range(n) for j in range(i + 1, n)}
    shortest = min(dist.values())
    return [pair for pair, d in dist.items() if d <= shortest * (1.0 + 1e-9)]


def _framework_problem(name: str, coords: np.ndarray, edges, group: dict, gens: list[np.ndarray],
                       rng: random.Random) -> Problem:
    """A placed framework with ``type: "auto"``; gens are the checker's group generators."""
    names = [f"p{i + 1}" for i in range(len(coords))]
    data = {
        "name": name,
        "dim": coords.shape[1],
        "vertices": names,
        "edges": [[names[i], names[j]] for i, j in edges],
        "group": group,
        "type": "auto",
        "coords": _points(names, coords),
        "seed": rng.randrange(1 << 16),
    }
    return Problem(name, data, [(None, g) for g in gens], None)


_CYCLE_XYZ = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_HALF_TURN_Z = np.diag([-1.0, -1.0, 1.0])
_QUARTER_TURN_Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
_SWAP_XY = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
_FIVEFOLD = rot3((0.0, 1.0, _GOLDEN), 2.0 * math.pi / 5.0)
# Generators of the polyhedral groups in the orientation the catalog uses.
POLYHEDRAL_GENS = {
    "T": [_HALF_TURN_Z, _CYCLE_XYZ],
    "Td": [_HALF_TURN_Z, _CYCLE_XYZ, _SWAP_XY],
    "O": [_QUARTER_TURN_Z, _CYCLE_XYZ],
    "Oh": [_QUARTER_TURN_Z, _CYCLE_XYZ, -np.eye(3)],
    "I": [_FIVEFOLD, _HALF_TURN_Z],
    "Ih": [_FIVEFOLD, _HALF_TURN_Z, -np.eye(3)],
}


# (solid, group, order, class verdict). The icosahedron under Ih comes once,
# with Ih given by generators, which takes the same closure path as the
# catalog name. Vertex-transitive placements give a
# single orbit whose stabilizer fixes a line: k = 1. Triangulated convex
# polyhedra are isostatic (|E| = 3|V| - 6); the cube has |E| = 12 < 18.
SOLIDS = (
    ("tetrahedron", "T", 12, "isostatic"),
    ("tetrahedron", "Td", 24, "isostatic"),
    ("octahedron", "O", 24, "isostatic"),
    ("cube", "Oh", 48, "independent"),
    ("icosahedron", "I", 60, "isostatic"),
)
SMOKE_SOLIDS = SOLIDS[:3]
EXTRA_I_CLOSURES = 7
VERDICTS = {
    "isostatic": {"infinitesimally_rigid": True, "independent": True, "isostatic": True},
    "independent": {"infinitesimally_rigid": False, "independent": True, "isostatic": False},
    "rigid": {"infinitesimally_rigid": True, "independent": False, "isostatic": False},
}


def high_symmetry(seed: int, size: str) -> Workload:
    """Vertex orders stay fixed: the automorphism search cost depends on them.

    The seed scales every placement and orders the Ih generators. The
    heaviest command runs first, so the interpreter's one-off warm-up does
    not land on the light commands at the low end of the latencies.
    """
    wl = Workload("high_symmetry")
    rng = random.Random(seed)
    scale = rng.uniform(0.5, 2.0)

    # Regular m-gon with all diagonals under C_mv; K8 has 40320 automorphisms.
    m = 8 if size == "full" else 4
    angles = [2.0 * math.pi * k / m for k in range(m)]
    coords = np.array([[math.cos(a), math.sin(a)] for a in angles]) * scale
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    prob = _framework_problem(f"k{m}_c{m}v", coords, edges, {"schoenflies": f"C{m}v"},
                              [rot2(2.0 * math.pi / m), mirror2(0.0)], rng)
    wl.problems.append(prob)
    wl.add(["types", "--problem", prob.name], prob.name, types=1)
    wl.add(["analyze", "--problem", prob.name], prob.name, k=1, order=2 * m,
           verdict=VERDICTS["rigid"])

    for solid, group, order, verdict in (SOLIDS if size == "full" else SMOKE_SOLIDS):
        coords = _solid(solid) * scale
        prob = _framework_problem(f"{solid}_{group}", coords, _nearest_pairs(coords),
                                  {"schoenflies": group}, POLYHEDRAL_GENS[group], rng)
        wl.problems.append(prob)
        wl.add(["analyze", "--problem", prob.name], prob.name, k=1, order=order,
               verdict=VERDICTS[verdict], given=VERDICTS[verdict])
        if group == "I":
            icosahedron = (prob, order, VERDICTS[verdict])
        if solid == "cube":
            # Injective placement: the coincidence group is trivial, one type.
            wl.add(["types", "--problem", prob.name], prob.name, types=1)

    if size == "full":
        coords = _solid("icosahedron") * scale
        gens = list(POLYHEDRAL_GENS["Ih"])
        rng.shuffle(gens)
        prob = _framework_problem("icosahedron_ih_generators", coords, _nearest_pairs(coords),
                                  {"generators": [g.tolist() for g in gens]}, gens, rng)
        wl.problems.append(prob)
        wl.add(["analyze", "--problem", prob.name], prob.name, k=1, order=120,
               verdict=VERDICTS["isostatic"])

    # A rotation by one radian generates no finite group: closure must give up.
    prob = _framework_problem("bar_rot1", np.array([[1.0, 0.0], [-1.0, 0.5]]) * scale, [(0, 1)],
                              {"generators": [rot2(1.0).tolist()]}, [], rng)
    wl.problems.append(prob)
    wl.add(["analyze", "--problem", prob.name], prob.name, exit=3)

    if size == "full":
        # Seven more I closures, each of about the cost of the icosahedron
        # analyze, spread evenly over the pass so that they meet different
        # moments of load on the host. A run of two passes then has 34
        # latencies: 10 light, 16 I closures and 8 of 3 s or more. The median
        # and the tail (ten slower beyond it) both fall well inside the I
        # closures, not on the edge between two commands of different cost.
        prob, order, verdict = icosahedron
        base, wl.commands = wl.commands, []
        marks = {round((j + 1) * len(base) / EXTRA_I_CLOSURES) - 1 for j in range(EXTRA_I_CLOSURES)}
        for i, cmd in enumerate(base):
            wl.commands.append(cmd)
            if i in marks:
                wl.add(["analyze", "--problem", prob.name, "--seed", str(rng.randrange(1 << 16))],
                       prob.name, k=1, order=order, verdict=verdict)
    return wl


# ---------------------------------------------------------------------------
# large_3d: free-orbit C3 classes in space with random orbit-closed bars


def large_problem(name: str, n: int, rng: random.Random) -> Problem:
    """n = 3r joints in r free orbits of C3 about z, |E| = 3n - 15 bars.

    Bars come in orbits of three, so the bar set is closed under the type.
    Free orbits give k = 3r = n; |E| < 3n - 6 makes every member flexible.
    """
    r = n // 3
    names = [f"{tag}{o}" for o in range(r) for tag in "abc"]
    rotate = [3 * (i // 3) + (i % 3 + 1) % 3 for i in range(n)]
    edges: set[tuple[int, int]] = set()
    target = 3 * n - 15
    while len(edges) < target:
        u, v = rng.sample(range(n), 2)
        orbit = []
        for _ in range(3):
            orbit.append((min(u, v), max(u, v)))
            u, v = rotate[u], rotate[v]
        if not edges.intersection(orbit) and len(set(orbit)) == 3:
            edges.update(orbit)
    order = names[:]
    rng.shuffle(order)
    ops = cyclic_ops(3, 3)
    square = [rotate[rotate[i]] for i in range(n)]
    data = {
        "name": name,
        "dim": 3,
        "vertices": order,
        "edges": [[names[u], names[v]] for u, v in sorted(edges)],
        "group": {"schoenflies": "C3"},
        "type": {"C3": cycle_string(rotate, names), "C3^2": cycle_string(square, names)},
        "seed": rng.randrange(1 << 16),
    }
    phi = {
        "C3": {names[i]: names[rotate[i]] for i in range(n)},
        "C3^2": {names[i]: names[square[i]] for i in range(n)},
    }
    return Problem(name, data, ops, phi)


def large_3d(seed: int, size: str) -> Workload:
    wl = Workload("large_3d")
    rng = random.Random(seed)
    never_rigid = {"infinitesimally_rigid": False, "isostatic": False}
    n = LARGE_JOINTS[size]
    for i in range(LARGE_PROBLEMS):
        prob = large_problem(f"c3_free_{n}_{i}", n, rng)
        wl.problems.append(prob)
        src = ["--problem", prob.name]
        wl.add(["analyze", *src], prob.name, k=n, empty=False, verdict=never_rigid)
        wl.add(["sample", *src, "--count", str(LARGE_SAMPLE_COUNT)], prob.name, k=n,
               count=LARGE_SAMPLE_COUNT, verdict=never_rigid)
    return wl


BUILDERS = {"fixtures": fixtures, "cycle_cm": cycle_cm, "high_symmetry": high_symmetry,
            "large_3d": large_3d}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, size: str = "full") -> Workload:
    return BUILDERS[workload](seed, size)


def write(wl: Workload, seed: int, workdir: Path) -> Path:
    """Write the problem files and the manifest the worker reads; return its path."""
    workdir.mkdir(parents=True, exist_ok=True)
    commands = []
    for cmd in wl.commands:
        argv = list(cmd["argv"])
        if "--problem" in argv:
            i = argv.index("--problem") + 1
            path = workdir / f"{argv[i]}.json"
            argv[i] = str(path)
        commands.append({**cmd, "argv": argv})
    for prob in wl.problems:
        if any(cmd["problem"] == prob.name and "--problem" in cmd["argv"] for cmd in commands):
            (workdir / f"{prob.name}.json").write_text(json.dumps(prob.data), encoding="utf-8")
    manifest = {
        "workload": wl.name,
        "seed": seed,
        "problems": {p.name: p.check_info() for p in wl.problems},
        "commands": commands,
    }
    path = workdir / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path
