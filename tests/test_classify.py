import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symrig.classify import (
    TypeAssignment,
    enumerate_types,
    find_base_type,
    find_homomorphic_type,
    identity_type,
    is_homomorphism,
    restrict_type,
    verify_type,
)
from symrig.errors import (
    ExplosionGuard,
    InvalidGroup,
    LengthMismatch,
    NotAnAutomorphism,
    NotInSymmetryClass,
    UnknownName,
)
from symrig import graphs
from symrig.graphs import Graph, Permutation, parse_cycles
from symrig.groups import OrthogonalOp, SymmetryGroup, mirror2, schoenflies_group
from symrig.oracle import brute_force_type_search
from symrig.problem import fixture_names, load_fixture
from symrig.symspace import config_space_basis

CS = schoenflies_group("Cs", 2)
C2 = schoenflies_group("C2", 2)


def perm(text, n):
    return parse_cycles(text, tuple(f"v{i + 1}" for i in range(n)))


def fixture_framework(name):
    prob = load_fixture(name)
    return prob.graph, prob.coords, prob.group, prob.phi


class TestVerifyType:
    def test_mirror_pair_holds(self):
        graph, coords, group, phi = fixture_framework("k33_phi_a")
        assert verify_type(config_space_basis(graph, group, phi), coords)

    def test_wrong_coords_fail(self):
        graph, coords, group, phi = fixture_framework("k33_phi_a")
        bad = coords.copy()
        bad[0] += 0.25
        assert not verify_type(config_space_basis(graph, group, phi), bad)

    def test_non_automorphism_rejected(self):
        graph, coords, group, _ = fixture_framework("k33_phi_a")
        # a single swap across the bipartition does not preserve the edge set
        broken = TypeAssignment((Permutation.identity(6), perm("(v1 v4)", 6)))
        with pytest.raises(NotAnAutomorphism):
            verify_type(config_space_basis(graph, group, broken), coords)

    def test_assignment_length_checked(self):
        graph, coords, group, _ = fixture_framework("k33_phi_a")
        short = TypeAssignment((Permutation.identity(6),))
        with pytest.raises(LengthMismatch):
            verify_type(config_space_basis(graph, group, short), coords)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_coordinates_warn_of_no_overflow(self):
        # residuals of about 1e184 exceed tol; a norm of them would square past the float range
        graph, coords, group, phi = fixture_framework("c9_c3")
        assert not verify_type(config_space_basis(graph, group, phi), coords * 1e200)

    def test_collapsed_bar_fails(self):
        graph, _, group, _ = fixture_framework("k3_c2_swap")
        coords = np.zeros((3, 2))
        assert not verify_type(config_space_basis(graph, group, identity_type(group, 3)), coords)


class TestDeclaredTypes:
    """Every shipped problem with explicit type and coordinates is consistent."""

    EXPLICIT = [
        "k33_phi_a",
        "k33_phi_b",
        "gtp_psi_a",
        "gtp_psi_b",
        "k4_upsilon_a",
        "k4_upsilon_b",
        "gbp_xi_a",
        "gbp_xi_b",
        "k2_c2_swap",
        "k3_c2_swap",
        "k33_c2v",
        "c9_c3",
        "c4_gadget",
    ]

    @pytest.mark.parametrize("name", EXPLICIT)
    def test_declared_type_verifies(self, name):
        graph, coords, group, phi = fixture_framework(name)
        assert coords is not None and phi is not None
        assert verify_type(config_space_basis(graph, group, phi), coords)

    @pytest.mark.parametrize("name", EXPLICIT)
    def test_find_base_type_gives_valid_witness(self, name):
        graph, coords, group, _ = fixture_framework(name)
        found = find_base_type(graph, coords, group)
        assert found is not None
        assert verify_type(config_space_basis(graph, group, found), coords)

    def test_no_witness_returns_none(self):
        graph = Graph.make(2, [(0, 1)])
        coords = np.array([[0.5, 0.1], [0.9, 0.7]])
        assert find_base_type(graph, coords, C2) is None

    def test_collapsed_bar_returns_none(self):
        graph = Graph.make(2, [(0, 1)])
        assert find_base_type(graph, np.zeros((2, 2)), C2) is None


class TestEnumeration:
    def test_injective_coords_give_unique_type(self):
        graph, coords, group, phi = fixture_framework("gtp_psi_a")
        catalog, types = enumerate_types(graph, coords, group)
        assert catalog.coincidence_group == (Permutation.identity(6),)
        assert catalog.count == 1
        assert types == [phi]
        assert is_homomorphism(group, types[0])

    def test_gt_valid_sets_and_cosets(self):
        graph, coords, group, _ = fixture_framework("gt_c2")
        catalog, types = enumerate_types(graph, coords, group)
        swap34 = perm("(v3 v4)", 4)
        assert set(catalog.coincidence_group) == {Permutation.identity(4), swap34}
        half_turn = set(catalog.valid_sets[1])
        assert half_turn == {perm("(v1 v2)", 4), perm("(v1 v2)(v3 v4)", 4)}
        assert catalog.count == 4
        assert catalog.normalized_count() == 2
        assert len(types) == 4

    def test_normalized_pins_identity(self):
        graph, coords, group, _ = fixture_framework("gt_c2")
        _, types = enumerate_types(graph, coords, group, normalized=True)
        assert len(types) == 2
        for t in types:
            assert t.images[0].is_identity()
        images = {t.images[1] for t in types}
        assert images == {perm("(v1 v2)", 4), perm("(v1 v2)(v3 v4)", 4)}

    def test_cyclic_nine_counts(self):
        graph, coords, group, _ = fixture_framework("c9_c3")
        catalog, types = enumerate_types(graph, coords, group)
        assert len(catalog.coincidence_group) == 3
        assert catalog.count == 27
        assert len(types) == 27
        assert catalog.normalized_count() == 9

    def test_every_enumerated_type_verifies(self):
        graph, coords, group, _ = fixture_framework("gt_c2")
        _, types = enumerate_types(graph, coords, group)
        for t in types:
            assert verify_type(config_space_basis(graph, group, t), coords)

    def test_explosion_guard(self):
        graph, coords, group, _ = fixture_framework("c9_c3")
        with pytest.raises(ExplosionGuard):
            enumerate_types(graph, coords, group, max_product=8)

    def test_unclassifiable_realization_raises(self):
        graph = Graph.make(2, [(0, 1)])
        coords = np.array([[0.5, 0.1], [0.9, 0.7]])
        with pytest.raises(NotInSymmetryClass):
            enumerate_types(graph, coords, C2)


class TestHomomorphicSearch:
    def test_mirror_catalog_has_homomorphism(self):
        graph, coords, group, _ = fixture_framework("k33_phi_a")
        found = find_homomorphic_type(graph, coords, group)
        assert found is not None
        assert is_homomorphism(group, found)
        assert verify_type(config_space_basis(graph, group, found), coords)

    def test_coincident_cycle_has_none(self):
        graph, coords, group, _ = fixture_framework("c9_c3")
        assert find_homomorphic_type(graph, coords, group) is None

    def test_gadget_has_none(self):
        graph, coords, group, _ = fixture_framework("c4_gadget")
        assert find_homomorphic_type(graph, coords, group) is None

    @pytest.mark.parametrize("name", [n for n in fixture_names() if load_fixture(n).coords is not None])
    def test_found_type_is_a_homomorphism(self, name):
        # trivial coincidence groups included: no type is returned without its table check
        graph, coords, group, _ = fixture_framework(name)
        found = find_homomorphic_type(graph, coords, group)
        assert found is None or is_homomorphism(group, found)

    def test_is_homomorphism_detects_failure(self):
        graph, coords, group, _ = fixture_framework("c9_c3")
        _, types = enumerate_types(graph, coords, group, normalized=True)
        assert not any(is_homomorphism(group, t) for t in types)
        # each entry still satisfies the pointwise coordinate equations
        for t in types:
            assert verify_type(config_space_basis(graph, group, t), coords)

    def test_identity_type_is_homomorphism(self):
        assert is_homomorphism(C2, identity_type(C2, 5))

    def test_ragged_images_rejected(self):
        phi = TypeAssignment((Permutation.identity(3), Permutation.identity(4)))
        with pytest.raises(LengthMismatch):
            is_homomorphism(C2, phi)

    def test_group_with_missing_product_rejected(self):
        ops = (OrthogonalOp(np.eye(2), "Id"), OrthogonalOp(mirror2(0.0), "s"),
               OrthogonalOp(mirror2(0.4), "t"))
        # Every SymmetryGroup is closed: the table is checked when the group is built.
        with pytest.raises(InvalidGroup, match="product of elements 1 and 2 is missing"):
            SymmetryGroup(dim=2, elements=ops, name="broken")


def reference_is_homomorphism(group, phi):
    """The pairwise loop the table-based check replaced, matching each product matrix."""
    mats = group.matrices()
    return all(phi[group.index_of(mats[i] @ mats[j])].images == tuple(phi[i].images[k] for k in phi[j].images)
               for i in range(len(group)) for j in range(len(group)))


def regular_type(group):
    """Left regular action on the element indices: always a homomorphism."""
    mats = group.matrices()
    return [Permutation(tuple(group.index_of(m @ e) for e in mats)) for m in mats]


class TestHomomorphismAgainstReference:
    @pytest.mark.parametrize("name", fixture_names())
    def test_fixture_types(self, name):
        graph, coords, group, phi = fixture_framework(name)
        candidates = [identity_type(group, graph.n)] + ([phi] if phi is not None else [])
        if coords is not None:
            candidates += enumerate_types(graph, coords, group, normalized=True)[1][:200]
        for t in candidates:
            assert is_homomorphism(group, t) == reference_is_homomorphism(group, t)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([("C1", 2), ("Cs", 2), ("C4", 2), ("C3v", 2), ("D2h", 3), ("S6", 3), ("Td", 3)]),
           st.data())
    def test_random_assignments(self, spec, data):
        group = schoenflies_group(*spec)
        regular = regular_type(group)
        order = len(group)
        if data.draw(st.booleans()):
            # regular images, some reassigned to other elements: mostly not homomorphisms
            moved = data.draw(st.lists(st.tuples(st.integers(0, order - 1), st.integers(0, order - 1)),
                                       max_size=2))
            images = list(regular)
            for i, j in moved:
                images[i] = regular[j]
        else:
            n = data.draw(st.integers(1, 4))
            images = [Permutation(tuple(data.draw(st.permutations(range(n))))) for _ in range(order)]
            if data.draw(st.booleans()):
                images = [Permutation.identity(n)] * order
        phi = TypeAssignment(tuple(images))
        assert is_homomorphism(group, phi) == reference_is_homomorphism(group, phi)


SEARCH_GROUPS = {name: schoenflies_group(name, 2) for name in ("C2", "C3", "Cs", "C2v")}


def _orbit(group, point):
    """The distinct images of point under group, in element order."""
    images = []
    for m in group.matrices():
        q = m @ point
        if all(np.linalg.norm(q - r) > 1e-6 for r in images):
            images.append(q)
    return images


@st.composite
def symmetric_instances(draw):
    """A graph with a placement built from orbits of a 2D group, n <= 7.

    Every joint of an orbit point has up to one coincident partner, and
    bars are added in orbits under the induced vertex action, so a type
    exists unless the optional extra bar breaks the symmetry. Bars never
    join coincident joints, and vertices are shuffled before returning.
    """
    group = SEARCH_GROUPS[draw(st.sampled_from(sorted(SEARCH_GROUPS)))]
    points, copies = [], []
    seeds = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 2))
    for x, y, mult in draw(st.lists(seeds, min_size=1, max_size=4)):
        orbit = _orbit(group, np.array([x, y], dtype=float))
        if len(points) and min(np.linalg.norm(q - r) for q in orbit for r in points) < 1e-6:
            continue
        if sum(copies) + mult * len(orbit) <= 7:
            points += orbit
            copies += [mult] * len(orbit)
    assume(points)
    gaps = [np.linalg.norm(q - r) for i, q in enumerate(points) for r in points[:i]]
    assume(all(gap > 1e-3 for gap in gaps))
    joints = [(i, c) for i, mult in enumerate(copies) for c in range(mult)]
    index = {joint: v for v, joint in enumerate(joints)}
    # the vertex action of each element: copy c at point i goes to copy c at x(i)
    actions = []
    for m in group.matrices():
        image = [int(np.argmin([np.linalg.norm(m @ q - r) for r in points])) for q in points]
        actions.append([index[(image[i], c)] for i, c in joints])
    n = len(joints)
    apart = [(u, v) for u in range(n) for v in range(u + 1, n) if joints[u][0] != joints[v][0]]
    edges = set()
    if apart:
        for u, v in draw(st.lists(st.sampled_from(apart), max_size=4)):
            edges.update((min(a[u], a[v]), max(a[u], a[v])) for a in actions)
        if draw(st.booleans()):
            edges.add(draw(st.sampled_from(apart)))
    order = draw(st.permutations(range(n)))
    coords = np.empty((n, 2))
    coords[list(order)] = [points[i] for i, _ in joints]
    return Graph.make(n, [(order[u], order[v]) for u, v in edges]), coords, group


def _conjugate(alpha, sigma):
    """sigma alpha sigma^-1: the automorphism alpha after vertex v is renamed sigma[v]."""
    images = [0] * len(sigma)
    for v in range(len(sigma)):
        images[sigma[v]] = sigma[alpha(v)]
    return Permutation(tuple(images))


COORD_FIXTURES = [name for name in fixture_names() if load_fixture(name).coords is not None]


class TestPositionGuidedSearch:
    @settings(max_examples=60, deadline=None)
    @given(symmetric_instances())
    def test_valid_sets_match_brute_force_and_are_cosets(self, instance):
        graph, coords, group = instance
        brute = brute_force_type_search(graph, coords, group)
        if not brute.types:
            with pytest.raises(NotInSymmetryClass):
                enumerate_types(graph, coords, group)
            return
        catalog, types = enumerate_types(graph, coords, group)
        assert catalog.valid_sets == brute.valid_sets
        assert catalog.coincidence_group == brute.valid_sets[0]
        assert set(types) == set(brute.types)
        for witness, valid in zip(catalog.base.images, catalog.valid_sets):
            assert valid == tuple(sorted(Permutation(tuple(witness.images[j] for j in beta.images))
                                         for beta in catalog.coincidence_group))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(COORD_FIXTURES), st.data())
    def test_relabelling_conjugates_the_catalog(self, name, data):
        graph, coords, group, _ = fixture_framework(name)
        sigma = data.draw(st.permutations(range(graph.n)))
        moved = Graph.make(graph.n, [(sigma[u], sigma[v]) for u, v in graph.edges])
        moved_coords = np.empty_like(coords)
        moved_coords[list(sigma)] = coords
        try:
            catalog, types = enumerate_types(graph, coords, group)
        except NotInSymmetryClass:
            with pytest.raises(NotInSymmetryClass):
                enumerate_types(moved, moved_coords, group)
            return
        moved_catalog, moved_types = enumerate_types(moved, moved_coords, group)
        assert moved_catalog.count == catalog.count
        assert moved_catalog.normalized_count() == catalog.normalized_count()
        for valid, moved_valid, moved_base in zip(catalog.valid_sets, moved_catalog.valid_sets,
                                                  moved_catalog.base.images):
            conjugated = sorted(_conjugate(alpha, sigma) for alpha in valid)
            assert list(moved_valid) == conjugated
            # the base is the lexicographically first valid choice after relabelling
            assert moved_base == conjugated[0]
        assert list(moved_catalog.coincidence_group) == sorted(
            _conjugate(beta, sigma) for beta in catalog.coincidence_group)
        assert set(moved_types) == {TypeAssignment(tuple(_conjugate(a, sigma) for a in t.images)) for t in types}

    def test_regular_octagon_builds_few_permutations(self, monkeypatch):
        # listing all of Aut(K8) would build 40320; the position-guided search builds one per element
        built = []

        class CountingPermutation(graphs.Permutation):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(graphs, "Permutation", CountingPermutation)
        coords = np.array([[math.cos(math.pi * k / 4), math.sin(math.pi * k / 4)] for k in range(8)])
        catalog, types = enumerate_types(Graph.complete(8), coords, schoenflies_group("C8v", 2))
        assert catalog.count == 1 and len(types) == 1
        assert len(built) <= 100


class TestRestriction:
    def test_c2v_down_to_mirror(self):
        graph, coords, group, phi = fixture_framework("k33_c2v")
        sub = schoenflies_group("Cs", 2)
        restricted = restrict_type(group, phi, sub)
        assert restricted.images[0].is_identity()
        assert restricted.images[1] == phi.images[group.labels.index("s(0)")]
        assert verify_type(config_space_basis(graph, sub, restricted), coords)

    def test_c2v_down_to_half_turn(self):
        graph, coords, group, phi = fixture_framework("k33_c2v")
        restricted = restrict_type(group, phi, C2)
        assert restricted.images[1] == phi.images[group.labels.index("C2")]
        assert verify_type(config_space_basis(graph, C2, restricted), coords)

    def test_missing_element_raises(self):
        _, _, group, phi = fixture_framework("k33_phi_a")
        with pytest.raises(UnknownName):
            restrict_type(group, phi, C2)


# ---------------------------------------------------------------------------
# direct reads, batched checks and the early guard against per-element references


def reference_verify_type(graph, coords, group, phi, tol=1e-8):
    """One joint comparison per element and vertex, as the rule reads."""
    p = np.asarray(coords, dtype=float)
    if any(np.linalg.norm(p[u] - p[v]) <= tol for u, v in graph.edges):
        return False
    return all(np.linalg.norm(op.matrix @ p[v] - p[perm(v)]) <= tol
               for op, perm in zip(group.elements, phi.images) for v in range(graph.n))


def reference_first_choices(graph, coords, group, tol=1e-8):
    """The first automorphism of each element's own constrained search."""
    p = np.asarray(coords, dtype=float)
    firsts = [graphs.automorphisms(graph, allowed=graphs.joint_matches(p @ op.matrix.T, p, tol))[:1]
              for op in group.elements]
    return None if not all(firsts) else tuple(f[0] for f in firsts)


class TestDirectReads:
    @settings(max_examples=80, deadline=None)
    @given(symmetric_instances(), st.data())
    def test_base_type_and_verification_match_the_references(self, instance, data):
        graph, coords, group = instance
        if any(np.linalg.norm(coords[u] - coords[v]) <= 1e-8 for u, v in graph.edges):
            return  # not a framework: neither reference applies
        expected = reference_first_choices(graph, coords, group)
        base = find_base_type(graph, coords, group)
        assert (base is None) == (expected is None)
        if base is None:
            return
        assert base.images == expected
        auts = graphs.automorphisms(graph)
        phi = TypeAssignment(tuple(data.draw(st.sampled_from(auts)) for _ in group.elements))
        for candidate in (base, phi):
            expected = reference_verify_type(graph, coords, group, candidate)
            assert verify_type(config_space_basis(graph, group, candidate), coords) == expected

    def test_non_automorphism_named_by_its_element(self):
        graph, coords, group, phi = fixture_framework("k33_phi_a")
        broken = TypeAssignment((phi[0], perm("(v1 v4)", 6)))
        with pytest.raises(NotAnAutomorphism, match=group.elements[1].label):
            verify_type(config_space_basis(graph, group, broken), coords)

    def test_images_of_another_length(self):
        graph, coords, group, _ = fixture_framework("k33_phi_a")
        with pytest.raises(LengthMismatch):
            ragged = TypeAssignment((Permutation.identity(6), Permutation.identity(5)))
            verify_type(config_space_basis(graph, group, ragged), coords)


def c3_placement(orbits, seed):
    """Free orbits of 3D C3 (joint 3i + k at C3^k q_i) with orbit-closed random bars."""
    rng = np.random.default_rng(seed)
    group = schoenflies_group("C3", 3)
    coords = np.array([m @ q for q in rng.uniform(-1.0, 1.0, (orbits, 3)) for m in group.matrices()])
    n = 3 * orbits
    rotate = [3 * (v // 3) + (v % 3 + 1) % 3 for v in range(n)]
    edges = set()
    while len(edges) < 2 * n:
        u, v = (int(i) for i in rng.choice(n, 2, replace=False))
        for _ in range(3):
            edges.add((min(u, v), max(u, v)))
            u, v = rotate[u], rotate[v]
    return Graph.make(n, sorted(edges)), coords, group, Permutation(tuple(rotate))


class TestAutoTypeAtScale:
    def test_thirty_joint_placement_resolves(self):
        # more joints than graphs.AUTOMORPHISM_CAP: every image is read from the joints
        graph, coords, group, rotate = c3_placement(10, seed=3)
        assert graph.n > graphs.AUTOMORPHISM_CAP
        phi = find_base_type(graph, coords, group)
        assert phi is not None
        twice = Permutation(tuple(rotate.images[j] for j in rotate.images))
        assert phi.images == (Permutation.identity(30), rotate, twice)
        catalog, types = enumerate_types(graph, coords, group)
        assert catalog.count == 1 and types == [phi]
        assert verify_type(config_space_basis(graph, group, phi), coords)

    def test_thirty_joint_placement_analyzes_on_the_cli(self, tmp_path, capsys):
        from symrig.cli import main

        graph, coords, _, _ = c3_placement(10, seed=3)
        names = list(graph.labels)
        problem = {
            "name": "c3_thirty", "dim": 3, "vertices": names,
            "edges": [[names[u], names[v]] for u, v in graph.bars.tolist()],
            "group": {"schoenflies": "C3"}, "type": "auto",
            "coords": {name: row.tolist() for name, row in zip(names, coords)}, "seed": 1,
        }
        path = tmp_path / "c3_thirty.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        assert main(["analyze", "--problem", str(path), "--trials", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["type"]["assignment"]["Id"] == "id"
        assert out["given_configuration"]["satisfies_type"] is True


def coincident_cluster(n):
    """n joints at the origin, no bars, under planar C2: every permutation is valid for each element."""
    return Graph.make(n, []), np.zeros((n, 2)), C2


class TestEarlyGuard:
    def _counting(self, monkeypatch):
        listed = []
        search = graphs.iter_automorphisms

        def counted(*args, **kwargs):
            for alpha in search(*args, **kwargs):
                listed.append(alpha)
                yield alpha

        monkeypatch.setattr("symrig.classify.iter_automorphisms", counted)
        return listed

    def test_nine_coincident_joints_stop_early(self, monkeypatch):
        listed = self._counting(monkeypatch)
        with pytest.raises(ExplosionGuard):
            enumerate_types(*coincident_cluster(9))
        # 317^2 > 100000 >= 316^2: the coincidence search stops at 317 of its 9! automorphisms,
        # after one first choice for each of the two elements
        assert len(listed) == 2 + 317

    def test_twelve_coincident_joints_normalized(self, monkeypatch):
        listed = self._counting(monkeypatch)
        with pytest.raises(ExplosionGuard):
            enumerate_types(*coincident_cluster(12), normalized=True)
        assert len(listed) == 2 + 100_001

    def test_c1_normalized_listing_is_bounded(self):
        # K_{1,8} with its leaves at one point: 8! = 40320 coincidences and no free slot under C1,
        # but the listing of the coincidences is itself bounded.
        graph = Graph.make(9, [(0, k) for k in range(1, 9)])
        coords = np.array([[0.0, 0.0]] + [[1.0, 0.0]] * 8)
        with pytest.raises(ExplosionGuard, match="at least 1001 "):
            enumerate_types(graph, coords, schoenflies_group("C1", 2), normalized=True, max_product=1000)

    def test_guard_bound_is_exact(self):
        # three coincident joints: 3! = 6 coincidences, 6^2 = 36 types under C2
        graph, coords, group = coincident_cluster(3)
        catalog, types = enumerate_types(graph, coords, group, max_product=36)
        assert catalog.count == len(types) == 36
        with pytest.raises(ExplosionGuard):
            enumerate_types(graph, coords, group, max_product=35)
        _, normalized = enumerate_types(graph, coords, group, normalized=True, max_product=6)
        assert len(normalized) == 6

    def test_types_command_exits_with_the_guard(self, tmp_path, capsys):
        from symrig.cli import main

        names = [f"v{i}" for i in range(9)]
        problem = {"name": "nine", "dim": 2, "vertices": names, "edges": [],
                   "group": {"schoenflies": "C2"}, "type": "auto",
                   "coords": {name: [0.0, 0.0] for name in names}}
        path = tmp_path / "nine.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        assert main(["types", "--problem", str(path)]) == 3
        assert "exceed the guard of 100000" in json.loads(capsys.readouterr().out)["error"]

    def test_single_matches_that_collide_admit_no_type(self):
        # Under C3 with tol 0.1 the rotation R sends each joint within tol of exactly one
        # joint, but v1 and v2 (0.15 apart) both land by b, and no joint lands by v2.
        group = schoenflies_group("C3", 2)
        r, tol = group.matrices()[1], 0.1
        a, e = np.array([3.0, 0.0]), np.array([1.0, 0.0])
        mid = a + 0.075 * e
        u = r @ r @ mid + np.linalg.solve(r, -0.05 * e)
        coords = np.array([a, a + 0.15 * e, r @ mid, u])
        matches = graphs.joint_matches(coords @ r.T, coords, tol)
        assert matches.sum(axis=1).tolist() == [1, 1, 1, 1]
        assert np.argmax(matches, axis=1).tolist() == [2, 2, 3, 0]
        assert find_base_type(Graph.make(4, []), coords, group, tol) is None
