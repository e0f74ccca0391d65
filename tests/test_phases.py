"""Phase-split ranks against one SVD of the whole rigidity matrix.

For a framework in a class, R(p) is block diagonal in the eigenbases of
any single operation's T_g (see symrig.rigidity). These checks build the
blocks of every operation of the group directly, not through the size
threshold in symspace, and compare the rank and the singular values with
those of R itself. The CLI checks run classes above the threshold with
and without the split and require the same stdout.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from symrig import rigidity, symspace
from symrig._numeric import block_rank, numeric_rank
from symrig.classify import TypeAssignment, find_base_type, identity_type, verify_type
from symrig.cli import main
from symrig.errors import NotAnAutomorphism, SamplingExhausted
from symrig.graphs import Graph, Permutation, format_cycles
from symrig.groups import element_order, fixed_subspace, schoenflies_group
from symrig.problem import load_fixture, parse_problem
from symrig.rigidity import Framework, phase_blocks, phase_period, phase_split, rigidity_matrix
from symrig.symspace import config_space_basis, draw_samples, sym_generic_verdict

GROUPS = [(2, "C2"), (2, "C3"), (2, "C4"), (2, "C6"), (2, "Cs"), (2, "C2v"),
          (3, "C2"), (3, "C3"), (3, "Cs"), (3, "Ci"), (3, "S4"), (3, "C2v"), (3, "D3h")]


def assert_phases_match(graph, group, phi, framework):
    """Rank and weighted singular values of every operation's blocks equal R's.

    Returns the largest difference of singular values over the operations.
    """
    full = np.linalg.svd(rigidity_matrix(framework), compute_uv=False)
    rank = numeric_rank(rigidity_matrix(framework))
    top = full[0] if full.size else 0.0
    worst = 0.0
    for op, perm in zip(group.elements, phi.images):
        split = phase_split(graph, op, perm)
        assert split is not None
        assert sum(ph.multiplicity * ph.columns for ph in split) <= framework.dim * framework.n
        blocks = list(phase_blocks(framework.coords, split))
        assert block_rank(blocks) == rank, op.label
        sigma = np.concatenate([np.zeros(0)] + [
            np.repeat(np.linalg.svd(block, compute_uv=False), mult) for block, mult in blocks
        ])
        size = max(len(sigma), len(full))
        ours = np.pad(np.sort(sigma)[::-1], (0, size - len(sigma)))
        theirs = np.pad(full, (0, size - len(full)))
        # Rounding enters with the coordinates, whose size can exceed sigma_1 by far when the bars are short.
        scale = max(top, float(np.max(np.abs(framework.coords))))
        worst = max(worst, float(np.max(np.abs(ours - theirs), initial=0.0)))
        assert worst <= 1e-12 * scale, op.label
    return worst


@st.composite
def symmetric_classes(draw):
    """A random class: joint orbits at generic or fixed sites, closed bar orbits.

    An orbit may sit on the fixed subspace of one operation (a mirror, an
    axis, or the origin). One orbit may have a twin with the same action;
    the type then may send the identity, and any other operation, through
    the swap of the twins, which forces them to coincide in every member.
    """
    dim, name = draw(st.sampled_from(GROUPS))
    group = schoenflies_group(name, dim)
    mats = group.matrices()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = [[] for _ in mats]
    twins = []
    n = 0
    for orbit in range(draw(st.integers(1, 3))):
        site = draw(st.integers(0, len(mats) - 1))
        q = rng.uniform(-1.0, 1.0, dim)
        if site:
            rows = fixed_subspace(group.elements[site])
            q = (q @ rows.T) @ rows if len(rows) else np.zeros(dim)
        points = []
        for mat in mats:
            y = mat @ q
            if not any(np.max(np.abs(y - z)) <= 1e-9 for z in points):
                points.append(y)
        copies = 2 if orbit == 0 and draw(st.booleans()) else 1
        for copy in range(copies):
            for x, mat in enumerate(mats):
                for z in points:
                    y = mat @ z
                    images[x].append(n + next(i for i, w in enumerate(points) if np.max(np.abs(y - w)) <= 1e-9))
            if copy:
                twins = [(n - len(points) + i, n + i) for i in range(len(points))]
            n += len(points)
    swap = list(range(n))
    for a, b in twins:
        swap[a], swap[b] = b, a
    perms = []
    for x, img in enumerate(images):
        through_swap = bool(twins) and draw(st.booleans())
        perms.append(Permutation(tuple(swap[i] for i in img) if through_swap else tuple(img)))
    phi = TypeAssignment(tuple(perms))

    # Bars come in orbits under the group the images generate, and never
    # join two joints that every member of the class places on one spot.
    space = config_space_basis(Graph.make(n, []), group, phi)
    columns = space.basis.reshape(space.k, n, dim)
    free = [(u, v) for u in range(n) for v in range(u + 1, n)
            if space.k and np.max(np.abs(columns[:, u] - columns[:, v])) > 1e-9]
    assume(free)
    pairs = draw(st.lists(st.sampled_from(free), min_size=1, max_size=6))
    return Graph.make(n, bar_orbits(pairs, perms)), group, phi


def bar_orbits(pairs, perms):
    """The bars {u, v} for the pairs, closed under the permutations."""
    bars = [(min(u, v), max(u, v)) for u, v in pairs]
    for a, b in bars:
        for perm in perms:
            bar = (min(perm(a), perm(b)), max(perm(a), perm(b)))
            if bar not in bars:
                bars.append(bar)
    return sorted(set(bars))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_classes(), st.integers(0, 1000))
def test_phase_rank_matches_one_svd_for_every_operation(case, seed):
    graph, group, phi = case
    basis = config_space_basis(graph, group, phi)
    try:
        framework = draw_samples(basis, 1, seed)[0]
    except SamplingExhausted:
        assume(False)
    event(f"{framework.dim}D {group.name}")
    event("bars" if graph.edge_count else "no bars")
    if any(np.allclose(framework.coords[u], framework.coords[v]) for u in range(graph.n) for v in range(u)):
        event("coincident joints")
    assert_phases_match(graph, group, phi, framework)


def _class(dim, name, n, images_of, edges):
    """A class from one image function per group element: images_of(matrix) -> permutation."""
    group = schoenflies_group(name, dim)
    phi = TypeAssignment(tuple(Permutation(tuple(images_of(m))) for m in group.matrices()))
    return Graph.make(n, edges), group, phi


def _half_turn_images(mat):
    # joints 0, 1 swapped by the half turn, joint 2 at the center
    return [1, 0, 2] if mat[0, 0] < 0 else [0, 1, 2]


def _mirror_images(mat):
    # 3D Cs: joints 0, 1 on the mirror plane, 2 and 3 mirror images
    return [0, 1, 3, 2] if np.linalg.det(mat) < 0 else [0, 1, 2, 3]


SPECIAL = {
    # a bar the half turn reverses, and bars to the fixed center
    "half_turn_reversed_bar": (2, "C2", 3, _half_turn_images, [(0, 1), (0, 2), (1, 2)]),
    # a bar on the mirror plane, fixed pointwise, and a mirror-reversed bar
    "mirror_fixed_bar": (3, "Cs", 4, _mirror_images, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)]),
}


@pytest.mark.parametrize("case", sorted(SPECIAL))
def test_phase_rank_on_fixed_and_reversed_bars(case):
    graph, group, phi = _class(*SPECIAL[case])
    for f in draw_samples(config_space_basis(graph, group, phi), 5, seed=3):
        assert_phases_match(graph, group, phi, f)


def test_short_bars_against_unit_coordinates():
    # Two bars of length 2.3e-4 in a class whose points reach 1: sigma_1 = 3.3e-4, and the
    # blocks are held to rounding at the scale of the coordinates. The class basis has entries
    # +-0.5, so this member meets its constraints exactly and the blocks agree with R to 5.4e-20.
    group = schoenflies_group("C2v", 3)
    phi = TypeAssignment(tuple(Permutation(images) for images in [(2, 3, 0, 1), (3, 2, 1, 0), (0, 1, 2, 3), (1, 0, 3, 2)]))
    graph = Graph.make(4, [(0, 3), (1, 2)])
    f = draw_samples(config_space_basis(graph, group, phi), 1, seed=2289)[0]
    sigma = np.linalg.svd(rigidity_matrix(f), compute_uv=False)
    assert sigma[0] < 1e-3 and np.max(np.abs(f.coords)) == 1.0
    assert_phases_match(graph, group, phi, f)

    # A member built by rotating two points 1e-6 apart under C8, each joint i to i + 1 in its
    # orbit: sigma_1 = 1.4e-6, and the rotations' rounding leaves the blocks 4.1e-11 sigma_1
    # (6.9e-17 of the coordinates) from R, so a tolerance of 1e-12 sigma_1 alone would fail.
    group = schoenflies_group("C8", 2)
    a = np.array([0.83, 0.31])
    coords = np.array([m @ p for p in (a, a + 1e-6 * np.array([0.6, -0.8])) for m in group.matrices()])
    phi = TypeAssignment(tuple(Permutation(tuple(8 * (j // 8) + (j + x) % 8 for j in range(16))) for x in range(8)))
    graph = Graph.make(16, [(i, 8 + i) for i in range(8)])
    f = Framework(graph, coords)
    assert verify_type(config_space_basis(graph, group, phi), coords)
    sigma = np.linalg.svd(rigidity_matrix(f), compute_uv=False)
    assert assert_phases_match(graph, group, phi, f) > 1e-12 * sigma[0]


def test_phase_rank_on_an_axis_orbit_under_d3h():
    # the two axis joints form a 2-cycle of S3, whose phases lambda^2 are not real
    group = schoenflies_group("D3h", 3)
    orbit = [m @ np.array([0.5, 0.2, 0.3]) for m in group.matrices()]
    coords = np.array([[0.0, 0.0, 0.7], [0.0, 0.0, -0.7]] + orbit)
    moved = np.einsum("xab,vb->xva", group.matrices(), coords)
    images = np.argmin(np.linalg.norm(moved[:, :, None] - coords[None, None], axis=-1), axis=-1)
    phi = TypeAssignment(tuple(Permutation(tuple(row.tolist())) for row in images))
    graph = Graph.make(14, bar_orbits([(0, 2), (2, 3), (2, 5), (1, 7)], phi.images))
    for f in draw_samples(config_space_basis(graph, group, phi), 3, seed=2):
        assert_phases_match(graph, group, phi, f)


@pytest.mark.parametrize("name", ["c4_gadget", "c9_c3", "k3_c2_swap", "k33_c2v", "gtp_psi_b"])
def test_phase_rank_on_fixtures(name):
    # c4_gadget and c9_c3 have non-homomorphic types; k3_c2_swap is non-injective
    prob = load_fixture(name)
    phi = prob.phi if prob.phi is not None else find_base_type(prob.graph, prob.coords, prob.group)
    for f in draw_samples(config_space_basis(prob.graph, prob.group, phi), 5, seed=prob.seed):
        assert_phases_match(prob.graph, prob.group, phi, f)


def test_coincident_joints_forced_by_the_identity():
    # the identity swaps 0 with 1 and 2 with 3, so each pair coincides, and
    # the half turn sends the first pair onto the second
    group = schoenflies_group("C2", 2)
    phi = TypeAssignment((Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))))
    graph = Graph.make(4, [(0, 2), (1, 3), (0, 3), (1, 2)])
    for f in draw_samples(config_space_basis(graph, group, phi), 5, seed=1):
        assert np.allclose(f.coords[0], f.coords[1])
        assert_phases_match(graph, group, phi, f)


def test_phase_period_is_the_order_of_the_joint_action():
    group = schoenflies_group("C3", 2)
    nine = Permutation(tuple((i + 1) % 9 for i in range(9)))
    assert phase_period(group.elements[1], nine) == 9
    assert phase_period(group.elements[0], Permutation.identity(9)) == 1


def test_a_joint_at_the_centre_adds_no_trivial_phase_columns():
    # A turn by a third has no eigenvalue 1, so the centre's phase-0 eigenspace is empty: phase 0 has the
    # triangle's 2 columns and phase 1 its 2 and the centre's 1, and the blocks keep R's singular values.
    def turned(mat):
        turn = round(math.degrees(math.atan2(mat[1, 0], mat[0, 0])) / 120) % 3
        return [(i + turn) % 3 for i in range(3)] + [3]

    graph, group, phi = _class(2, "C3", 4, turned, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)])
    assert [ph.columns for ph in phase_split(graph, group.elements[1], phi[1])] == [2, 3]
    for f in draw_samples(config_space_basis(graph, group, phi), 3, seed=1):
        assert_phases_match(graph, group, phi, f)


def test_a_free_class_is_split_by_the_identity(monkeypatch):
    # Every T_g of a C1 class is the identity: its split is one block, R itself, and ranks as one SVD does.
    n = 22
    assert 3 * n >= symspace.PHASE_MIN_COLUMNS
    rng = np.random.default_rng(5)
    pairs = {tuple(sorted(map(int, rng.choice(n, 2, replace=False)))) for _ in range(3 * n)}
    graph, group = Graph.make(n, sorted(pairs)), schoenflies_group("C1", 3)
    basis = config_space_basis(graph, group, identity_type(group, n))
    f = draw_samples(basis, 1, seed=4)[0]
    ((block, multiplicity),) = phase_blocks(f.coords, basis.phases)
    assert multiplicity == 1
    assert block.shape == rigidity_matrix(f).shape
    assert block.tobytes() == rigidity_matrix(f).tobytes()

    split = sym_generic_verdict(basis, trials=5, seed=2)
    monkeypatch.setattr(symspace, "PHASE_MIN_COLUMNS", 10**9)
    one_svd = sym_generic_verdict(config_space_basis(graph, group, identity_type(group, n)), trials=5, seed=2)
    assert split.ranks == one_svd.ranks
    assert split.witness.tobytes() == one_svd.witness.tobytes()


def test_split_rejects_a_permutation_that_breaks_a_bar():
    group = schoenflies_group("C2", 2)
    graph = Graph.make(3, [(0, 1)])
    with pytest.raises(NotAnAutomorphism):
        phase_split(graph, group.elements[1], Permutation((0, 2, 1)))


def test_block_rank_counts_multiplicities_against_the_largest_block():
    big = np.diag([2.0, 1.0])
    small = np.diag([1e-9, 1.0])
    # 1e-9 is below 1e-8 times the largest singular value of all blocks
    assert block_rank([(big, 1), (small, 2)], rtol=1e-8) == 2 + 2 * 1
    assert block_rank([(big, 1), (small, 2)], rtol=1e-10) == 2 + 2 * 2
    assert block_rank([(np.diag([1e-9]), 1), (big, 1)], rtol=1e-8) == 2
    assert block_rank([(np.zeros((0, 3)), 2)]) == 0
    assert block_rank([(np.zeros((2, 2)), 1)]) == 0


# ---------------------------------------------------------------------------
# CLI on classes above the threshold: same stdout with and without the split


def _c3_space_problem(n_orbits: int, axis_joints: int, seed: int) -> dict:
    """Free C3 orbits about z plus joints on the axis, orbit-closed random bars."""
    rng = np.random.default_rng(seed)
    n = 3 * n_orbits + axis_joints
    rotate = [3 * (i // 3) + (i % 3 + 1) % 3 for i in range(3 * n_orbits)] + list(range(3 * n_orbits, n))
    edges = set()
    while len(edges) < 3 * n - 12:
        u, v = (int(i) for i in rng.choice(n, 2, replace=False))
        orbit = set()
        for _ in range(3):
            orbit.add((min(u, v), max(u, v)))
            u, v = rotate[u], rotate[v]
        edges |= orbit
    names = [f"j{i}" for i in range(n)]
    square = [rotate[rotate[i]] for i in range(n)]
    labels = tuple(names)
    return {
        "name": "c3_space",
        "dim": 3,
        "vertices": names,
        "edges": [[names[u], names[v]] for u, v in sorted(edges)],
        "group": {"schoenflies": "C3"},
        "type": {"C3": format_cycles(Permutation(tuple(rotate)), labels),
                 "C3^2": format_cycles(Permutation(tuple(square)), labels)},
        "seed": 11,
    }


def _cycle_problem(n: int, m: int) -> dict:
    """The n-cycle under planar C_m, rotation k shifting by k n / m."""
    group = schoenflies_group(f"C{m}", 2)
    names = [f"c{i}" for i in range(n)]
    labels = tuple(names)
    types = {}
    for op in group.elements[1:]:
        k = round(math.atan2(op.matrix[1, 0], op.matrix[0, 0]) * m / (2 * math.pi)) % m
        types[op.label] = format_cycles(Permutation(tuple((i + k * n // m) % n for i in range(n))), labels)
    return {
        "name": f"cycle{n}_c{m}",
        "dim": 2,
        "vertices": names,
        "edges": [[names[i], names[(i + 1) % n]] for i in range(n)],
        "group": {"schoenflies": f"C{m}"},
        "type": types,
        "seed": 5,
    }


PHASE_PROBLEMS = {"c3_space": _c3_space_problem(18, 2, seed=4), "cycle96_c12": _cycle_problem(96, 12)}


def _stdout(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0
    return buffer.getvalue()


@pytest.mark.parametrize("command", [("analyze",), ("sample", "--count", "20")])
@pytest.mark.parametrize("name", sorted(PHASE_PROBLEMS))
def test_cli_output_is_the_same_with_one_svd(name, command, tmp_path, monkeypatch):
    data = PHASE_PROBLEMS[name]
    assert data["dim"] * len(data["vertices"]) >= symspace.PHASE_MIN_COLUMNS
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = [*command, "--problem", str(path)]

    calls = []
    split_blocks = rigidity.phase_blocks
    monkeypatch.setattr(rigidity, "phase_blocks", lambda *a: calls.append(len(a[0])) or split_blocks(*a))
    with_split = _stdout(argv)
    # the stacked calls rank each of the 20 sampled members once
    assert sum(calls) == 20

    calls.clear()
    monkeypatch.setattr(symspace, "PHASE_MIN_COLUMNS", 10**9)
    one_svd = _stdout(argv)
    assert not calls
    assert with_split == one_svd


# ---------------------------------------------------------------------------
# Long joint-permutation periods: a split visits only the phases its joint cycles can fill


def _stars_problem(leaves: tuple[int, ...]) -> dict:
    """Planar stars under C1, the identity turning each star's leaves: L is the product of the leaf counts."""
    names, edges, cycles = [], [], []
    for i, count in enumerate(leaves):
        tips = [f"l{i}_{j}" for j in range(count)]
        names += [f"c{i}", *tips]
        edges += [[f"c{i}", tip] for tip in tips]
        cycles.append(f"({' '.join(tips)})")
    return {"name": "stars", "dim": 2, "vertices": names, "edges": edges, "group": {"schoenflies": "C1"},
            "type": {"Id": "".join(cycles)}, "seed": 3}


def test_a_split_of_coprime_joint_cycles_does_not_spin(tmp_path, monkeypatch):
    # 65 joints, L = 510510: visiting every phase k <= L / 2 took about a minute; 27 phases have columns
    data = _stars_problem((2, 3, 5, 7, 11, 13, 17))
    prob = parse_problem(data)
    op, perm = prob.group.elements[0], prob.phi[0]
    assert phase_period(op, perm) == 510510
    eigenspace, calls = rigidity._eigenspace, []

    def counted(*args):
        calls.append(1)
        if len(calls) > 2000:
            raise AssertionError("the split visits too many phases")
        return eigenspace(*args)

    monkeypatch.setattr(rigidity, "_eigenspace", counted)
    assert len(phase_split(prob.graph, op, perm)) == 27
    path = tmp_path / "stars.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with_split = _stdout(["analyze", "--problem", str(path)])
    assert len(calls) <= 2000
    monkeypatch.setattr(symspace, "PHASE_MIN_COLUMNS", 10**9)
    assert with_split == _stdout(["analyze", "--problem", str(path)])


@pytest.mark.parametrize("name", [*sorted(PHASE_PROBLEMS), "stars"])
def test_skipped_phases_have_no_columns(name):
    # For every operation, a pair of phase k and cycle length s that the split skips has no lambda^s-eigenvector
    # of M^s: L does not divide k s o, o the order of M.
    prob = parse_problem(_stars_problem((2, 3, 5)) if name == "stars" else PHASE_PROBLEMS[name])
    skipped = 0
    for op, perm in zip(prob.group.elements, prob.phi.images):
        order, lengths = element_order(op), {len(c) for c in perm.cycles(include_fixed=True)}
        period = math.lcm(order, *lengths)
        for k in range(period // 2 + 1):
            for s in lengths:
                if k * s * order % period:
                    skipped += 1
                    lam = np.exp(2j * np.pi * k * s / period)
                    assert rigidity._eigenspace(np.linalg.matrix_power(op.matrix, s), lam).shape[1] == 0
    assert skipped or name != "stars"  # the joint cycles of PHASE_PROBLEMS fill every phase
