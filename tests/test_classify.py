import numpy as np
import pytest
from hypothesis import given, settings
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
    LengthMismatch,
    NotAnAutomorphism,
    NotInSymmetryClass,
    UnknownName,
)
from symrig.graphs import Graph, Permutation, parse_cycles
from symrig.groups import OrthogonalOp, SymmetryGroup, mirror2, schoenflies_group
from symrig.problem import fixture_names, load_fixture

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
        assert verify_type(graph, coords, group, phi)

    def test_wrong_coords_fail(self):
        graph, coords, group, phi = fixture_framework("k33_phi_a")
        bad = coords.copy()
        bad[0] += 0.25
        assert not verify_type(graph, bad, group, phi)

    def test_non_automorphism_rejected(self):
        graph, coords, group, _ = fixture_framework("k33_phi_a")
        # a single swap across the bipartition does not preserve the edge set
        broken = TypeAssignment((Permutation.identity(6), perm("(v1 v4)", 6)))
        with pytest.raises(NotAnAutomorphism):
            verify_type(graph, coords, group, broken)

    def test_assignment_length_checked(self):
        graph, coords, group, _ = fixture_framework("k33_phi_a")
        short = TypeAssignment((Permutation.identity(6),))
        with pytest.raises(LengthMismatch):
            verify_type(graph, coords, group, short)

    def test_collapsed_bar_fails(self):
        graph, _, group, _ = fixture_framework("k3_c2_swap")
        coords = np.zeros((3, 2))
        assert not verify_type(graph, coords, group, identity_type(group, 3))


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
        assert verify_type(graph, coords, group, phi)

    @pytest.mark.parametrize("name", EXPLICIT)
    def test_find_base_type_gives_valid_witness(self, name):
        graph, coords, group, _ = fixture_framework(name)
        found = find_base_type(graph, coords, group)
        assert found is not None
        assert verify_type(graph, coords, group, found)

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
            assert verify_type(graph, coords, group, t)

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
        assert verify_type(graph, coords, group, found)

    def test_coincident_cycle_has_none(self):
        graph, coords, group, _ = fixture_framework("c9_c3")
        assert find_homomorphic_type(graph, coords, group) is None

    def test_gadget_has_none(self):
        graph, coords, group, _ = fixture_framework("c4_gadget")
        assert find_homomorphic_type(graph, coords, group) is None

    def test_is_homomorphism_detects_failure(self):
        graph, coords, group, _ = fixture_framework("c9_c3")
        _, types = enumerate_types(graph, coords, group, normalized=True)
        assert not any(is_homomorphism(group, t) for t in types)
        # each entry still satisfies the pointwise coordinate equations
        for t in types:
            assert verify_type(graph, coords, group, t)

    def test_identity_type_is_homomorphism(self):
        assert is_homomorphism(C2, identity_type(C2, 5))

    def test_ragged_images_rejected(self):
        phi = TypeAssignment((Permutation.identity(3), Permutation.identity(4)))
        with pytest.raises(LengthMismatch):
            is_homomorphism(C2, phi)

    def test_group_with_missing_product_rejected(self):
        ops = (OrthogonalOp(np.eye(2), "Id"), OrthogonalOp(mirror2(0.0), "s"),
               OrthogonalOp(mirror2(0.4), "t"))
        broken = SymmetryGroup(dim=2, elements=ops, name="broken")
        with pytest.raises(UnknownName):
            is_homomorphism(broken, identity_type(broken, 3))


def reference_is_homomorphism(group, phi):
    """The pairwise loop the table-based check replaced, matching each product matrix."""
    mats = group.matrices()
    return all(phi[group.index_of(mats[i] @ mats[j])] == phi[i].compose(phi[j])
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


class TestRestriction:
    def test_c2v_down_to_mirror(self):
        graph, coords, group, phi = fixture_framework("k33_c2v")
        sub = schoenflies_group("Cs", 2)
        restricted = restrict_type(group, phi, sub)
        assert restricted.images[0].is_identity()
        assert restricted.images[1] == phi.images[group.label_index("s(0)")]
        assert verify_type(graph, coords, sub, restricted)

    def test_c2v_down_to_half_turn(self):
        graph, coords, group, phi = fixture_framework("k33_c2v")
        restricted = restrict_type(group, phi, C2)
        assert restricted.images[1] == phi.images[group.label_index("C2")]
        assert verify_type(graph, coords, C2, restricted)

    def test_missing_element_raises(self):
        _, _, group, phi = fixture_framework("k33_phi_a")
        with pytest.raises(UnknownName):
            restrict_type(group, phi, C2)
