import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrig import groups
from symrig._numeric import kernel_basis, snap_matrix
from symrig.errors import (
    BadParam,
    DimensionMismatch,
    InvalidGroup,
    NonOrthogonalGenerator,
    NotClosedWithinBound,
    OrderBoundExceeded,
    SymrigError,
    UnknownName,
    UnsupportedDim,
)
from symrig.groups import (
    _KEY_SCALE,
    _POLYHEDRAL_GENS,
    MATCH_TOL,
    MAX_GROUP_ORDER,
    OrthogonalOp,
    SymmetryGroup,
    close_group,
    element_order,
    fixed_subspace,
    mirror2,
    mirror3,
    rot2,
    rot3,
    schoenflies_group,
    _base_labels,
    _fmt_deg,
    _find,
    _keys,
    _match,
    _wrap,
)
from symrig.oracle import validate_group

CATALOG_2D = ["C1", "Cs", "C2", "C5", "C2v", "C6v"]
CATALOG_3D = ["C1", "Cs", "Ci", "C3", "C4v", "C3h", "D4", "D3h", "D2d", "S4", "S6",
              "T", "Td", "Th", "O", "Oh", "I", "Ih"]


class TestBuilders:
    def test_rot2(self):
        m = rot2(math.pi / 2)
        assert np.allclose(m, [[0, -1], [1, 0]])

    def test_mirror2_x_axis(self):
        assert np.allclose(mirror2(0.0), [[1, 0], [0, -1]])

    def test_mirror2_y_axis(self):
        assert np.allclose(mirror2(math.pi / 2), [[-1, 0], [0, 1]])

    def test_mirror2_is_involution(self):
        m = mirror2(0.7)
        assert np.allclose(m @ m, np.eye(2))

    def test_rot3_axis_fixed(self):
        axis = np.array([1.0, 2.0, -0.5])
        m = rot3(axis, 1.1)
        assert np.allclose(m @ axis, axis)
        assert np.allclose(m @ m.T, np.eye(3))
        assert np.isclose(np.linalg.det(m), 1.0)

    def test_mirror3(self):
        m = mirror3((0.0, 1.0, 0.0))
        assert np.allclose(m, np.diag([1.0, -1.0, 1.0]))

    def test_op_rejects_non_orthogonal(self):
        with pytest.raises(NonOrthogonalGenerator):
            OrthogonalOp(np.array([[1.0, 0.1], [0.0, 1.0]]), "bad")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_op_rejects_non_finite(self, bad):
        m = np.eye(2)
        m[0, 1] = bad
        with pytest.raises(NonOrthogonalGenerator):
            OrthogonalOp(m, "bad")
        with pytest.raises(NonOrthogonalGenerator):
            OrthogonalOp(np.full((3, 3), bad), "bad")

    def test_op_rejects_4d(self):
        with pytest.raises(UnsupportedDim):
            OrthogonalOp(np.eye(4), "bad")

    def test_element_order(self):
        assert element_order(OrthogonalOp(rot2(2 * math.pi / 5), "r")) == 5
        assert element_order(OrthogonalOp(mirror2(0.3), "s")) == 2
        with pytest.raises(OrderBoundExceeded):
            element_order(OrthogonalOp(rot2(1.0), "r"), bound=50)

    def test_snap_matrix(self):
        m = np.array([[-1e-13, 0.5 + 1e-13, 1.0 - 1e-13],
                      [-0.5 - 9e-13, -1.0 + 1e-13, 0.25],
                      [1.5 + 1e-13, 2e-12, 1.0 + 2e-12]])
        snapped = snap_matrix(m)
        assert np.array_equal(snapped, [[0.0, 0.5, 1.0], [-0.5, -1.0, 0.25], m[2]])
        assert not np.signbit(snapped[0, 0])

    def test_fixed_subspace_dims(self):
        assert len(fixed_subspace(OrthogonalOp(mirror2(0.0), "s"))) == 1
        assert len(fixed_subspace(OrthogonalOp(rot2(1.0), "r"))) == 0
        assert len(fixed_subspace(OrthogonalOp(mirror3((0, 1, 0)), "s"))) == 2
        assert len(fixed_subspace(OrthogonalOp(rot3((0, 0, 1), 1.0), "r"))) == 1
        assert len(fixed_subspace(OrthogonalOp(-np.eye(3), "i"))) == 0


class TestCatalog:
    @pytest.mark.parametrize("name", CATALOG_2D)
    def test_2d_valid(self, name):
        validate_group(schoenflies_group(name, 2))

    @pytest.mark.parametrize("name", CATALOG_3D)
    def test_3d_valid(self, name):
        validate_group(schoenflies_group(name, 3))

    def test_sizes_2d(self):
        assert len(schoenflies_group("C1", 2)) == 1
        assert len(schoenflies_group("Cs", 2)) == 2
        for m in range(2, 9):
            assert len(schoenflies_group(f"C{m}", 2)) == m
            assert len(schoenflies_group(f"C{m}v", 2)) == 2 * m

    def test_sizes_3d(self):
        assert len(schoenflies_group("Ci", 3)) == 2
        for m in range(2, 7):
            assert len(schoenflies_group(f"C{m}", 3)) == m
            assert len(schoenflies_group(f"C{m}v", 3)) == 2 * m
            assert len(schoenflies_group(f"C{m}h", 3)) == 2 * m
            assert len(schoenflies_group(f"D{m}", 3)) == 2 * m
            assert len(schoenflies_group(f"D{m}h", 3)) == 4 * m
            assert len(schoenflies_group(f"D{m}d", 3)) == 4 * m
            assert len(schoenflies_group(f"S{2 * m}", 3)) == 2 * m

    def test_polyhedral_sizes(self):
        for name, want in [("T", 12), ("Td", 24), ("Th", 24), ("O", 24),
                           ("Oh", 48), ("I", 60), ("Ih", 120)]:
            assert len(schoenflies_group(name, 3)) == want, name

    def test_template_names(self):
        g = schoenflies_group("Cmv", 2, m=3)
        assert g.name == "C3v"
        assert len(g) == 6
        assert len(schoenflies_group("Dmd", 3, m=4)) == 16
        assert len(schoenflies_group("S2m", 3, m=3)) == 6

    def test_labels(self):
        assert schoenflies_group("Cs", 2).labels == ("Id", "s")
        assert schoenflies_group("C2v", 2).labels == ("Id", "C2", "s(0)", "s(90)")
        assert schoenflies_group("C3", 2).labels == ("Id", "C3", "C3^2")
        assert schoenflies_group("Ci", 3).labels == ("Id", "i")
        labels4 = schoenflies_group("S4", 3).labels
        assert labels4[0] == "Id" and "C2" in labels4
        assert "sh" in schoenflies_group("C2h", 3).labels

    def test_identity_first(self):
        for name in CATALOG_3D:
            g = schoenflies_group(name, 3)
            assert g.elements[0].is_identity(), name


class TestNameParsing:
    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            schoenflies_group("Q7", 2)

    def test_3d_only_families_rejected_in_2d(self):
        for name in ("Ci", "C3h", "D3", "S4", "T"):
            with pytest.raises(UnknownName):
                schoenflies_group(name, 2)

    def test_m_required_for_templates(self):
        with pytest.raises(BadParam):
            schoenflies_group("Cmv", 2)

    @pytest.mark.parametrize("name, dim", [("Ih", 3), ("T", 3), ("C1", 2), ("Cs", 3)])
    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_literal_names_take_no_m(self, name, dim, m):
        with pytest.raises(BadParam, match="takes no parameter m"):
            schoenflies_group(name, dim, m=m)

    @pytest.mark.parametrize("m", [2.7, 3.0, True, "3"])
    def test_template_m_must_be_an_integer(self, m):
        # int(2.7) would have built C2
        with pytest.raises(BadParam, match="needs an integer m"):
            schoenflies_group("Cm", 2, m=m)

    @pytest.mark.parametrize("name, dim", [("C3", 2), ("D4h", 3), ("S4", 3), ("T", 3), ("Cm", 2), ("X7", 3)])
    @pytest.mark.parametrize("m", [3.0, 4.0, True, False])
    def test_any_name_rejects_an_m_that_is_not_an_int(self, name, dim, m):
        # C3 with m 3.0 matched the order the name gives and built C3
        with pytest.raises(BadParam, match="needs an integer m"):
            schoenflies_group(name, dim, m=m)

    def test_m_too_small(self):
        with pytest.raises(BadParam):
            schoenflies_group("C1v", 2)

    def test_s_family_must_be_even(self):
        with pytest.raises(BadParam):
            schoenflies_group("S3", 3)
        with pytest.raises(BadParam):
            schoenflies_group("S2", 3)

    def test_inapplicable_params_rejected(self):
        with pytest.raises(BadParam):
            schoenflies_group("C3", 2, mirror_angle=0.1)
        with pytest.raises(BadParam):
            schoenflies_group("C2", 2, axis=(0, 0, 1))
        with pytest.raises(BadParam):
            schoenflies_group("D4", 3, mirror_angle=0.1)
        with pytest.raises(BadParam):  # any angle but the default's builds no D3d: a non-group or D3h
            schoenflies_group("D3d", 3, mirror_angle=0.1)
        with pytest.raises(BadParam):
            schoenflies_group("Td", 3, axis=(1, 0, 0))
        with pytest.raises(BadParam):
            schoenflies_group("C4", 3, secondary_axis=(1, 0, 0))

    def test_order_bound(self):
        with pytest.raises(BadParam):
            schoenflies_group("Cmv", 3, m=150)


class TestOrientationConventions:
    def test_cs_default_mirror_fixes_x_axis(self):
        g = schoenflies_group("Cs", 2)
        assert np.allclose(g.elements[1].matrix, [[1, 0], [0, -1]])

    def test_cs_mirror_angle(self):
        g = schoenflies_group("Cs", 2, mirror_angle=math.pi / 2)
        assert np.allclose(g.elements[1].matrix, [[-1, 0], [0, 1]])

    def test_cs_3d_default_normal_y(self):
        g = schoenflies_group("Cs", 3)
        assert np.allclose(g.elements[1].matrix, np.diag([1, -1, 1]))

    def test_cs_3d_mirror_normal(self):
        g = schoenflies_group("Cs", 3, mirror_normal=(0, 0, 1))
        assert np.allclose(g.elements[1].matrix, np.diag([1, 1, -1]))

    def test_principal_axis_is_z(self):
        g = schoenflies_group("C4", 3)
        rot = g.elements[g.label_index("C4")]
        assert np.allclose(rot.matrix @ np.array([0, 0, 1.0]), [0, 0, 1.0])

    def test_d2_secondary_axis_is_x(self):
        g = schoenflies_group("D2", 3)
        ex = np.array([1.0, 0, 0])
        fixed = [op for op in g.elements if not op.is_identity()
                 and np.allclose(op.matrix @ ex, ex)]
        assert len(fixed) == 1

    def test_dmd_diagonal_mirror_bisects(self):
        # default diagonal mirror plane contains the bisector direction pi/(2m)
        m = 2
        g = schoenflies_group("D2d", 3)
        theta = math.pi / (2 * m)
        direction = np.array([math.cos(theta), math.sin(theta), 0.0])
        held = [op for op in g.elements if op.det < 0
                and np.allclose(op.matrix @ direction, direction)]
        assert held, "no diagonal mirror holds the bisector"

    def test_axis_conjugation(self):
        g = schoenflies_group("C3", 3, axis=(1.0, 0.0, 0.0))
        ex = np.array([1.0, 0.0, 0.0])
        for op in g.elements:
            assert np.allclose(op.matrix @ ex, ex)
        validate_group(g)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name, given, plain", [
        ("Cs", {"mirror_normal": (1e200, 0.0, 1e200)}, {"mirror_normal": (1.0, 0.0, 1.0)}),
        ("C4", {"axis": (1e-170, 1e-170, 0.0)}, {"axis": (1.0, 1.0, 0.0)}),
    ], ids=["huge-normal", "tiny-axis"])
    def test_vector_length_neither_overflows_nor_underflows(self, name, given, plain):
        group, reference = schoenflies_group(name, 3, **given), schoenflies_group(name, 3, **plain)
        assert group.labels == reference.labels
        assert np.array_equal(group.matrices(), reference.matrices())

    def test_frame_rejects_parallel_secondary(self):
        with pytest.raises(BadParam):
            schoenflies_group("D3", 3, axis=(0, 0, 1), secondary_axis=(0, 0, 1))


class TestClosure:
    def test_close_c4(self):
        g = close_group([rot2(math.pi / 2)])
        assert len(g) == 4
        validate_group(g)

    def test_close_dihedral(self):
        g = close_group([rot2(2 * math.pi / 3), mirror2(0.0)])
        assert len(g) == 6
        validate_group(g)

    def test_close_not_closing(self):
        with pytest.raises(NotClosedWithinBound):
            close_group([rot2(1.0)], max_order=50)

    def test_close_mixed_dims(self):
        with pytest.raises(Exception):
            close_group([rot2(1.0), np.eye(3)])

    def test_icosahedral_closure_size(self):
        phi = (1 + math.sqrt(5)) / 2
        g = close_group([rot3((0, 1, phi), 2 * math.pi / 5),
                         np.diag([-1.0, -1.0, 1.0])])
        assert len(g) == 60


class TestGroupMachinery:
    def test_multiply_matches_matrices(self):
        g = schoenflies_group("C4v", 2)
        for i in range(len(g)):
            for j in range(len(g)):
                k = g.multiply(i, j)
                assert np.allclose(g.elements[i].matrix @ g.elements[j].matrix,
                                   g.elements[k].matrix, atol=1e-9)

    def test_inverse_index(self):
        g = schoenflies_group("C6", 2)
        for i in range(len(g)):
            assert g.multiply(i, g.inverse_index(i)) == 0

    def test_label_index(self):
        g = schoenflies_group("C2v", 2)
        assert g.label_index("s(90)") == 3
        with pytest.raises(UnknownName):
            g.label_index("zzz")

    def test_validator_catches_missing_inverse(self):
        ops = (OrthogonalOp(np.eye(2), "Id"), OrthogonalOp(rot2(2 * math.pi / 3), "C3"))
        with pytest.raises(ValueError):
            validate_group(SymmetryGroup(dim=2, elements=ops, name="broken"))

    def test_validator_catches_duplicate(self):
        # the constructor refuses the list before a validator could see it
        ops = (OrthogonalOp(np.eye(2), "Id"), OrthogonalOp(np.eye(2), "Id2"))
        with pytest.raises(InvalidGroup, match="elements 0 and 1 coincide"):
            SymmetryGroup(dim=2, elements=ops, name="broken")

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["C3", "C4v", "C6", "Cs"]), st.data())
    def test_cayley_closure_property(self, name, data):
        g = schoenflies_group(name, 2)
        i = data.draw(st.integers(0, len(g) - 1))
        j = data.draw(st.integers(0, len(g) - 1))
        k = data.draw(st.integers(0, len(g) - 1))
        assert g.multiply(g.multiply(i, j), k) == g.multiply(i, g.multiply(j, k))


def reference_closure(generators, max_order=200):
    """List-frontier closure: pop a product, keep it if no element matches.

    Slow, and kept as the reference for the elements and the table that
    close_group must reproduce, up to the order of the elements. Where
    every element is a generator, both list them in the same order.
    """
    checked = [OrthogonalOp(g).matrix for g in generators]
    elems = [np.eye(checked[0].shape[0])]
    frontier = list(checked)
    while frontier:
        g = frontier.pop(0)
        if np.any(np.max(np.abs(np.stack(elems) - g), axis=(1, 2)) <= MATCH_TOL):
            continue
        elems.append(g)
        if len(elems) > max_order:
            raise NotClosedWithinBound(f"closure exceeded {max_order} elements")
        for e in elems:
            frontier.append(snap_matrix(g @ e))
            frontier.append(snap_matrix(e @ g))
    return _wrap(elems, elems[0].shape[0], "reference")


def match_table(stack):
    """The multiplication table built one row at a time with _match."""
    return np.stack([_match(m @ stack, stack) for m in stack])


def assert_same_elements(group, reference):
    assert group.labels == reference.labels
    assert np.array_equal(group.matrices(), reference.matrices())
    assert np.array_equal(group.table, match_table(group.matrices()))


def assert_same_group(group, reference):
    """The same elements at MATCH_TOL, the identity first, and the same table up to the order of the elements."""
    perm = _match(reference.matrices(), group.matrices())  # perm[i]: the group's index of reference element i
    assert perm[0] == 0 and sorted(perm.tolist()) == list(range(len(group)))
    assert np.abs(group.matrices()[perm] - reference.matrices()).max() <= MATCH_TOL
    assert np.array_equal(group.table[perm][:, perm], perm[reference.table])
    assert np.array_equal(group.table, match_table(group.matrices()))


GOLDEN = (1 + math.sqrt(5)) / 2
IH_STYLE = [rot3((0, 1, GOLDEN), 2 * math.pi / 5), np.diag([-1.0, -1.0, 1.0]), -np.eye(3),
            rot3((1, 1, 1), 2 * math.pi / 3), mirror3((1, 0, 0)), rot3((0, 1, GOLDEN), 4 * math.pi / 5)]
GENERATOR_LISTS = {
    "ih_shuffled": [IH_STYLE[k] for k in np.random.default_rng(7).permutation(len(IH_STYLE))],
    "dihedral_2d": [rot2(math.pi / 3), mirror2(0.2)],
    "two_mirrors_2d": [mirror2(0.3), mirror2(0.3 + math.pi / 5)],
    "repeats_and_identity": [np.eye(3), rot3((0, 0, 1), math.pi / 2), rot3((0, 0, 1), math.pi / 2),
                             mirror3((1, 1, 0))],
}


class TestTableClosure:
    @pytest.mark.parametrize("dim,name", [(2, n) for n in CATALOG_2D + ["C8v"]]
                             + [(3, n) for n in CATALOG_3D])
    def test_catalog_elements_reclosed_in_reference_order(self, dim, name):
        catalog = schoenflies_group(name, dim)
        gens = list(catalog.matrices()[:0:-1]) or [np.eye(dim)]
        assert_same_elements(close_group(gens), reference_closure(gens))

    @pytest.mark.parametrize("name", ["T", "Td", "Th", "O", "Oh", "I", "Ih"])
    def test_polyhedral_catalog_matches_reference(self, name):
        reference = reference_closure(_POLYHEDRAL_GENS[name]())
        assert_same_group(schoenflies_group(name, 3), reference)

    @pytest.mark.parametrize("key", sorted(GENERATOR_LISTS))
    def test_generator_lists_match_reference(self, key):
        gens = GENERATOR_LISTS[key]
        assert_same_group(close_group(gens), reference_closure(gens))

    @pytest.mark.parametrize("max_order", [0, 1, 3, 4, 50])
    def test_bound_matches_reference(self, max_order):
        # C4 closes exactly at max_order 4; rot2(1.0) never closes
        for closure in (close_group, reference_closure):
            with pytest.raises(NotClosedWithinBound):
                closure([rot2(1.0)], max_order=max_order)
        if max_order < 4:
            for closure in (close_group, reference_closure):
                with pytest.raises(NotClosedWithinBound):
                    closure([rot2(math.pi / 2)], max_order=max_order)
        else:
            gens = [rot2(math.pi / 2)]
            assert_same_elements(close_group(gens, max_order=max_order), reference_closure(gens, max_order))

    @pytest.mark.parametrize("max_order", [-1, -7])
    def test_negative_bound_is_not_closed(self, max_order):
        for gens in ([np.diag([-1.0, 1.0])], [np.eye(2)]):
            with pytest.raises(NotClosedWithinBound):
                close_group(gens, max_order=max_order)

    def test_zero_bound_rejects_even_the_trivial_group(self):
        for bound in (0, -3):  # the generator-order check refuses every bound below 1
            with pytest.raises(NotClosedWithinBound, match=f"closure exceeded {bound} elements"):
                close_group([np.eye(3)], max_order=bound)
        assert len(close_group([np.eye(3)], max_order=1)) == 1

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(["T", "O", "Oh", "I"]), st.integers(0, 2**32 - 1))
    def test_conjugated_generators_match_reference(self, name, seed):
        # A random frame leaves no entry on a snap target or a key grid point.
        rng = np.random.default_rng(seed)
        q = rot3(rng.normal(size=3), rng.uniform(0.1, math.pi))
        gens = [q @ g @ q.T for g in _POLYHEDRAL_GENS[name]()]
        assert_same_group(close_group(gens), reference_closure(gens))

    def test_elements_come_in_walk_order(self):
        # The identity, the distinct generators in list order, then a level of the Cayley walk at a time.
        gens = [OrthogonalOp(g).matrix for g in _POLYHEDRAL_GENS["T"]()]
        order, level = [np.eye(3)], [np.eye(3)]
        while level:
            found = []
            for p in (snap_matrix(x @ s) for x in level for s in gens):
                if np.abs(np.stack(order) - p).max(axis=(1, 2)).min() > MATCH_TOL:
                    order.append(p)
                    found.append(p)
            level = found
        group = close_group(gens)
        assert np.array_equal(group.matrices(), np.stack(order))
        assert group.labels == ("Id", "C2#1", "C3#1", "C3#2", "C3^2#1", "C3^2#2", "C3^2#3", "C3#3", "C3#4",
                                "C3^2#4", "C2#2", "C2#3")

    @pytest.mark.parametrize("name", ["C6v", "D3h", "Oh"])
    def test_table_matches_matrix_products(self, name):
        g = schoenflies_group(name, 3 if name != "C6v" else 2)
        mats = g.matrices()
        for i in range(len(g)):
            assert [g.index_of(mats[i] @ m) for m in mats] == list(g.table[i])
            assert g.inverse_index(i) == g.index_of(mats[i].T)
        with pytest.raises(ValueError):
            g.table[0, 0] = 1

    def test_missing_product_stored_as_minus_one(self):
        ops = (OrthogonalOp(np.eye(2), "Id"), OrthogonalOp(mirror2(0.0), "s"),
               OrthogonalOp(mirror2(0.4), "t"))
        with pytest.raises(InvalidGroup, match="product of elements 1 and 2 is missing"):
            SymmetryGroup(dim=2, elements=ops, name="broken")

    def test_index_of_unknown_matrix(self):
        with pytest.raises(UnknownName):
            schoenflies_group("C4", 2).index_of(rot2(1.0))

    def test_index_of_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            schoenflies_group("C4", 2).index_of(np.eye(3))

    def test_elements_not_of_the_group_dimension(self):
        ops = (OrthogonalOp(np.eye(2), "Id"), OrthogonalOp(rot2(math.pi), "C2"))
        with pytest.raises(DimensionMismatch):
            SymmetryGroup(dim=3, elements=ops)

    def test_elements_of_mixed_shapes(self):
        ops = (OrthogonalOp(np.eye(2), "Id"), OrthogonalOp(np.diag([1.0, 1.0, -1.0]), "sh"))
        with pytest.raises(DimensionMismatch):
            SymmetryGroup(dim=2, elements=ops)


def random_generators(rng, dim):
    """Generators of a random catalog-like group in a random frame, of random orders."""
    m = int(rng.integers(2, 13))
    if dim == 2:
        gens = [rot2(2 * math.pi * int(rng.integers(1, m)) / m), mirror2(rng.uniform(0, math.pi))]
        return gens[:int(rng.integers(1, 3))]
    q = rot3(rng.normal(size=3), rng.uniform(0.1, math.pi))
    family = int(rng.integers(0, 4))
    if family == 0:
        gens = _POLYHEDRAL_GENS[["T", "Td", "Th", "O", "Oh", "I", "Ih"][int(rng.integers(0, 7))]]()
    elif family == 1:  # Dm
        gens = [rot3((0, 0, 1), 2 * math.pi / m), rot3((1, 0, 0), math.pi)]
    elif family == 2:  # Cmh
        gens = [rot3((0, 0, 1), 2 * math.pi / m), np.diag([1.0, 1.0, -1.0])]
    else:  # S2m
        gens = [np.diag([1.0, 1.0, -1.0]) @ rot3((0, 0, 1), math.pi / m)]
    return [q @ g @ q.T for g in gens]


class TestComposedTable:
    """The closure's table comes from integer composition; these check it against the floats."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
    def test_table_entries_are_float_products(self, seed, dim):
        group = close_group(random_generators(np.random.default_rng(seed), dim))
        mats = group.matrices()
        products = mats[:, None] @ mats[None]
        assert np.abs(products - mats[group.table]).max() <= MATCH_TOL
        assert np.array_equal(np.sort(group.table, axis=1), np.tile(np.arange(len(group)), (len(group), 1)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
    def test_elements_are_pairwise_apart(self, seed, dim):
        mats = close_group(random_generators(np.random.default_rng(seed), dim)).matrices()
        gaps = np.abs(mats[:, None] - mats[None]).max(axis=(2, 3))
        assert np.all(gaps[~np.eye(len(mats), dtype=bool)] > MATCH_TOL)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 60), st.data())
    def test_a_generator_beyond_the_bound_is_not_closed(self, m, data):
        bound = data.draw(st.integers(1, m - 1))
        others = data.draw(st.sampled_from([[], [mirror2(0.3)], [np.eye(2)]]))
        with pytest.raises(NotClosedWithinBound) as info:
            close_group(others + [rot2(2 * math.pi / m)], max_order=bound)
        assert str(info.value) == f"closure exceeded {bound} elements"

    @pytest.mark.parametrize("gens, bound", [([rot2(1.0)], 200), ([rot2(1.0)], 7), ([rot2(2 * math.pi / 7)], 6),
                                             ([rot3((1, 2, 3), 2 * math.pi / 7), np.eye(3)], 6)])
    def test_long_generators_are_not_closed(self, gens, bound):
        with pytest.raises(NotClosedWithinBound) as info:
            close_group(gens, max_order=bound)
        assert str(info.value) == f"closure exceeded {bound} elements"

    def test_a_product_off_its_table_entry_is_not_closed(self):
        # Tilting one I generator by 1e-10 generates an infinite group. The walk
        # still meets 60 elements within MATCH_TOL, but the table check finds a
        # product off its entry; the row-by-row closure grows past the bound here.
        q = rot3((1, 0, 0), 1e-10)
        gens = _POLYHEDRAL_GENS["I"]()
        with pytest.raises(NotClosedWithinBound, match="closure exceeded 200 elements"):
            close_group([gens[0], q @ gens[1] @ q.T])
        with pytest.raises(NotClosedWithinBound):
            reference_closure([gens[0], q @ gens[1] @ q.T])

    def test_generator_of_order_at_the_bound_closes(self):
        assert len(close_group([rot2(2 * math.pi / 7)], max_order=7)) == 7


def rotation_with_cosine(c):
    s = math.sqrt(1.0 - c * c)
    return np.array([[c, -s], [s, c]])


class TestKeyedLookup:
    # A cosine on a grid point, and one half a grid step above it (rint
    # rounds an exact half to the even neighbour, here the grid point).
    GRID_COS = 2**19 / _KEY_SCALE + 2**16 / _KEY_SCALE
    HALF_COS = GRID_COS + 0.5 / _KEY_SCALE

    def stack_with(self, m):
        return np.stack([np.eye(2), OrthogonalOp(m).matrix])

    def test_match_across_a_grid_boundary(self):
        stack = self.stack_with(rotation_with_cosine(self.HALF_COS))
        candidate = rotation_with_cosine(self.HALF_COS + 1e-12)
        (key,), (other,) = _keys(stack[1:]), _keys(candidate[None])
        assert key != other
        assert np.max(np.abs(candidate - stack[1])) <= MATCH_TOL
        assert _find(candidate[None], stack, {key: 1}).tolist() == [1]

    def test_shared_key_beyond_tolerance_does_not_match(self):
        stack = self.stack_with(rotation_with_cosine(self.GRID_COS))
        candidate = rotation_with_cosine(self.GRID_COS + 1e-7)
        (key,), (same,) = _keys(stack[1:]), _keys(candidate[None])
        assert key == same
        assert _find(candidate[None], stack, {key: 1}).tolist() == [-1]

    def test_closure_confirms_key_hits(self):
        # rot2(1e-7) and its first powers share the identity's key but lie
        # farther from it than MATCH_TOL: each is a new element.
        assert _keys(rot2(1e-7)[None]) == _keys(np.eye(2)[None])
        with pytest.raises(NotClosedWithinBound):
            close_group([rot2(1e-7)], max_order=50)


def user_group(*ops):
    return SymmetryGroup(dim=2, elements=tuple(OrthogonalOp(m, label) for m, label in ops), name="broken")


# Every listed catalog family, up to order 200, and the broken user-built groups of the constructor tests.
LISTED_FAMILIES = ([(2, n) for n in ["C1", "Cs", "C2", "C3", "C12", "C200", "C2v", "C8v", "C12v", "C100v"]]
                   + [(3, n) for n in ["C1", "Cs", "Ci", "C3", "C12", "C200", "C4v", "C12v", "C3h", "D4",
                                       "D3h", "D6h", "D50h", "D2d", "D50d", "S4", "S6", "S200"]])
BROKEN_GROUPS = {  # element lists, built where a test needs the group
    "missing_inverse": ((np.eye(2), "Id"), (rot2(2 * math.pi / 3), "C3")),
    "duplicate": ((np.eye(2), "Id"), (np.eye(2), "Id2")),
    "labels": ((np.eye(2), "Id"), (-np.eye(2), "Id")),
    "stretched": ((np.eye(2), "Id"), (-np.eye(2), "C2"), (rot2(math.pi / 2) * (1.0 + 1e-11), "C4"),
                  (rot2(-math.pi / 2), "C4^3")),
    "missing_product": ((np.eye(2), "Id"), (mirror2(0.0), "s"), (mirror2(0.4), "t")),
    "half": ((np.eye(2), "Id"), (rot2(math.pi / 2), "C4"), (rot2(-math.pi / 2), "C4^3")),
}
FULL_BUT_REFUSED = {"duplicate": "elements 0 and 1 coincide", "labels": "element labels are not unique"}


class TestListedTable:
    """Groups built from an element list find their products by key; match_table is the reference."""

    @pytest.mark.parametrize("dim,name", LISTED_FAMILIES)
    def test_catalog_table_equals_the_row_scan(self, dim, name):
        group = schoenflies_group(name, dim)
        assert np.array_equal(group.table, match_table(group.matrices()))

    @pytest.mark.parametrize("dim,name,params", [
        (2, "C7v", {"mirror_angle": 0.3}), (3, "D6h", {"axis": (1, 2, 3)}),
        (3, "D5d", {"axis": (0, 1, 1), "secondary_axis": (1, 0, 0)}),
        (3, "S8", {"axis": (-1, 2, 0.5)})])
    def test_oriented_table_equals_the_row_scan(self, dim, name, params):
        group = schoenflies_group(name, dim, **params)
        assert np.array_equal(group.table, match_table(group.matrices()))

    @pytest.mark.parametrize("name", sorted(BROKEN_GROUPS))
    def test_broken_group_keeps_its_missing_entries(self, name):
        # A list that match_table finds a product missing from is refused, naming its first -1 in row-major order;
        # a full table is refused next for coinciding elements, then for repeated labels.
        reference = match_table(np.array([OrthogonalOp(m).matrix for m, _ in BROKEN_GROUPS[name]]))
        missing = np.argwhere(reference < 0)
        if missing.size:
            with pytest.raises(InvalidGroup, match="product of elements {} and {} is missing".format(*missing[0])):
                user_group(*BROKEN_GROUPS[name])
            return
        if name in FULL_BUT_REFUSED:
            with pytest.raises(InvalidGroup, match=FULL_BUT_REFUSED[name]):
                user_group(*BROKEN_GROUPS[name])
            return
        assert np.array_equal(user_group(*BROKEN_GROUPS[name]).table, reference)

    @pytest.mark.parametrize("dim,name,scanned", [(2, "C100v", 0), (3, "D50h", 0), (3, "S200", 0),
                                                  ("broken", "missing_product", 2)])
    def test_only_key_misses_are_scanned(self, dim, name, scanned, monkeypatch):
        rows = []

        def counting_match(candidates, stack):
            rows.append(len(candidates))
            return _match(candidates, stack)

        monkeypatch.setattr(groups, "_match", counting_match)
        if dim == "broken":  # both missing products are scanned before the constructor refuses the list
            with pytest.raises(InvalidGroup, match="product of elements 1 and 2 is missing"):
                user_group(*BROKEN_GROUPS[name])
        else:
            schoenflies_group(name, dim)
        assert sum(rows) == scanned

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(2, "C6v"), (3, "D4h"), (3, "Td"), (3, "D3d")]), st.data())
    def test_an_element_list_is_a_group_exactly_when_its_table_is_full(self, case, data):
        # A subset of a group's elements, identity first and order kept: a subgroup, or refused.
        dim, name = case
        group = schoenflies_group(name, dim)
        keep = [0, *sorted(data.draw(st.sets(st.integers(1, len(group) - 1), max_size=len(group) - 1)))]
        ops = tuple(group.elements[k] for k in keep)
        reference = match_table(group.matrices()[keep])
        missing = np.argwhere(reference < 0)
        if missing.size:
            with pytest.raises(InvalidGroup, match="product of elements {} and {} is missing".format(*missing[0])):
                SymmetryGroup(dim=dim, elements=ops)
        else:
            assert np.array_equal(SymmetryGroup(dim=dim, elements=ops).table, reference)

    def test_no_matrices(self):
        stack = schoenflies_group("C4", 2).matrices()
        assert _keys(np.empty((0, 2, 2))) == [] and _keys(np.empty((0, 4))) == []
        found = _find(np.empty((0, 2, 2)), stack, dict(zip(_keys(stack), range(4))))
        assert found.shape == (0,) and found.dtype.kind == "i"


def validator_pair(stack):
    """The coinciding pair that _match(stack, stack) names: the least element with a later copy, and its first copy."""
    first = _match(stack, stack)
    dup = np.flatnonzero(first != np.arange(len(stack)))
    j = int(dup[np.argmin(first[dup])])
    return int(first[j]), j


class TestGroupInvariants:
    """The constructor refuses coinciding elements and repeated labels, and keeps a read-only stack."""

    def test_near_duplicate_across_a_key_boundary(self):
        # s and t lie 6e-10 apart across a key boundary: table row 0 is a permutation, rows 1 and 2 are not
        b = (2**19 + 0.5) / 2**20
        s, t = mirror2(math.acos(b + 3e-10) / 2), mirror2(math.acos(b - 3e-10) / 2)
        stack = np.stack([np.eye(2), OrthogonalOp(s).matrix, OrthogonalOp(t).matrix])
        assert _keys(stack[1:2]) != _keys(stack[2:]) and np.abs(stack[1] - stack[2]).max() <= MATCH_TOL
        assert validator_pair(stack) == (1, 2)
        with pytest.raises(InvalidGroup, match="elements 1 and 2 coincide"):
            user_group((np.eye(2), "Id"), (s, "s"), (t, "t"))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(2, "C6v"), (3, "D4h"), (3, "Td"), (3, "D3d"), (3, "C5")]), st.data())
    def test_a_planted_copy_is_refused(self, case, data):
        # An exact copy, or one turned by less than MATCH_TOL / 2: every product, the copy's square too,
        # then lies within MATCH_TOL of an element, so the table is full and the copy is what is refused.
        dim, name = case
        group = schoenflies_group(name, dim)
        k = data.draw(st.integers(0, len(group) - 1))
        where = data.draw(st.integers(1, len(group)))
        angle = data.draw(st.sampled_from([0.0, 1e-12, 2e-10, 0.45 * MATCH_TOL]))
        axis = data.draw(st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: max(map(abs, v)) > 0.1))
        turn = rot2(angle) if dim == 2 else rot3(axis, angle)
        copy = OrthogonalOp(group.elements[k].matrix @ turn, "copy")
        ops = group.elements[:where] + (copy,) + group.elements[where:]
        pair = validator_pair(np.stack([op.matrix for op in ops]))
        assert sorted(pair) == sorted([k if k < where else k + 1, where])
        with pytest.raises(InvalidGroup, match="elements {} and {} coincide".format(*pair)):
            SymmetryGroup(dim=dim, elements=ops)

    def test_a_repeated_label_is_named_last(self):
        # a missing product, then coinciding elements, come before the labels
        with pytest.raises(InvalidGroup, match="product of elements 1 and 2 is missing"):
            user_group((np.eye(2), "Id"), (mirror2(0.0), "s"), (mirror2(0.1), "s"))
        with pytest.raises(InvalidGroup, match="elements 1 and 2 coincide"):
            user_group((np.eye(2), "Id"), (mirror2(0.0), "s"), (mirror2(0.0), "s"))

    @pytest.mark.parametrize("build", [lambda: user_group((np.eye(2), "Id"), (-np.eye(2), "C2")),
                                       lambda: schoenflies_group("C4v", 2), lambda: close_group([rot2(math.pi / 2)])],
                             ids=["user", "catalog", "closure"])
    def test_stack_is_read_only(self, build):
        group = build()
        with pytest.raises(ValueError):
            group.matrices()[1, 0, 0] = 0.5
        assert all(not op.matrix.flags.writeable for op in group.elements)

    @pytest.mark.parametrize("dim,name", LISTED_FAMILIES + [(3, name) for name in _POLYHEDRAL_GENS]
                             + [("closure", key) for key in sorted(GENERATOR_LISTS)])
    def test_table_rows_and_columns_are_permutations(self, dim, name):
        group = close_group(GENERATOR_LISTS[name]) if dim == "closure" else schoenflies_group(name, dim)
        count = np.arange(len(group))
        assert (np.sort(group.table, axis=1) == count).all()
        assert (np.sort(group.table, axis=0) == count[:, None]).all()


class TestHighOrderLabels:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("order", [61, 100, 200])
    def test_cyclic_generator_label(self, dim, order):
        labels = schoenflies_group(f"C{order}", dim).labels
        assert labels[:2] == ("Id", f"C{order}")
        assert not any("#" in label for label in labels)

    def test_dihedral_rotation_labels(self):
        # The 61 half-turns share the base label C2 and are numbered, as in every Dm.
        labels = schoenflies_group("D61", 3).labels
        assert labels[:2] == ("Id", "C61")
        assert not any("#" in label for label in labels[:61])
        assert all(label.startswith("C2#") for label in labels[61:])

    def test_half_turn_about_a_skew_axis(self):
        # trace - 1 = -2 up to rounding: arccos of it read some half-turns as R(180)
        assert schoenflies_group("C2", 3, axis=(1, 1, 1)).labels == ("Id", "C2")

    def test_irrational_rotation_keeps_angle_label(self):
        # {I, R(1 rad)} is no group, so the label is read without building one.
        assert _base_labels(np.array([np.eye(2), rot2(1.0)]), 2)[1].startswith("R(")
        assert _base_labels(np.array([np.eye(3), rot3((0, 0, 1), 1.0)]), 3)[1].startswith("R(")


# ---------------------------------------------------------------------------
# batched labels and checks against the per-element rule


def reference_fraction(angle):
    """angle as 2 pi k / m, reduced, from the closest fraction with m <= 200, or None."""
    x = (angle / (2.0 * math.pi)) % 1.0
    frac = Fraction(x).limit_denominator(MAX_GROUP_ORDER)
    if abs(float(frac) - x) > 1e-9:
        return None
    return (0, 1) if frac.denominator == 1 else (frac.numerator, frac.denominator)


def reference_turn(name, free, angle):
    frac = reference_fraction(angle)
    if frac is None or frac == (0, 1):
        return f"{free}({_fmt_deg(angle, 2.0 * math.pi)})"
    k, order = frac
    return f"{name}{order}" if k == 1 else f"{name}{order}^{k}"


def reference_signed_angle(m, angle):
    for c in (m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]):
        if abs(c) > 1e-9:
            return angle if c > 0 else 2.0 * math.pi - angle
    return angle


def reference_angle(m, shift):
    """The signed angle of a rotation (shift -1) or rotoreflection (shift 1): atan2 of 2 sin(angle) against trace + shift."""
    a = (m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1])
    return reference_signed_angle(m, math.atan2(math.hypot(*a), float(np.trace(m)) + shift))


def reference_label(m, dim):
    """One matrix's label: a Fraction per rotation angle and an SVD per mirror normal."""
    eye = np.eye(dim)
    if np.max(np.abs(m - eye)) <= MATCH_TOL:
        return "Id"
    if dim == 2:
        if np.linalg.det(m) > 0:
            return reference_turn("C", "R", math.atan2(m[1, 0], m[0, 0]) % (2.0 * math.pi))
        return f"s({_fmt_deg((math.atan2(m[1, 0], m[0, 0]) / 2.0) % math.pi, math.pi)})"
    if np.max(np.abs(m + eye)) <= MATCH_TOL:
        return "i"
    if np.linalg.det(m) > 0:
        return reference_turn("C", "R", reference_angle(m, -1.0))
    if np.max(np.abs(m - m.T)) <= MATCH_TOL and abs(np.trace(m) - 1.0) <= MATCH_TOL:
        n = kernel_basis(m + eye, 1e-9)[0]
        if abs(abs(n[2]) - 1.0) <= 1e-9:
            return "sh"
        if abs(n[2]) <= 1e-9:
            return f"sv({_fmt_deg(math.atan2(-n[0], n[1]) % math.pi, math.pi)})"
        return "s"
    return reference_turn("S", "S", reference_angle(m, 1.0))


def reference_labels(mats, dim, overrides=None):
    base = [(overrides or {}).get(i) or reference_label(m, dim) for i, m in enumerate(mats)]
    counts, seen, out = Counter(base), Counter(), []
    for b in base:
        seen[b] += 1
        out.append(b if counts[b] == 1 else f"{b}#{seen[b]}")
    return tuple(out)


ORDERS = list(range(2, 13)) + [61]
LABEL_CATALOG = (
    [(2, n) for n in ["C1", "Cs", "C100", "C200", "C100v"] + [f"C{m}" for m in ORDERS] + [f"C{m}v" for m in ORDERS]]
    + [(3, n) for n in ["C1", "Cs", "Ci", "T", "Td", "Th", "O", "Oh", "I", "Ih", "C100", "C200", "S200"]]
    + [(3, f"{f}{m}{s}") for f, s in (("C", ""), ("C", "v"), ("C", "h"), ("D", "")) for m in ORDERS]
    + [(3, f"D{m}{s}") for s in ("h", "d") for m in list(range(2, 13)) + [50]]
    + [(3, f"S{2 * m}") for m in range(2, 13)]
)


class TestBatchedLabels:
    @pytest.mark.parametrize("dim, name", LABEL_CATALOG, ids=[f"{d}d-{n}" for d, n in LABEL_CATALOG])
    def test_catalog_labels_match_the_per_element_rule(self, dim, name):
        group = schoenflies_group(name, dim)
        assert group.labels == reference_labels(group.matrices(), dim, {1: "s"} if name == "Cs" else None)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
    def test_random_operations_match_the_per_element_rule(self, seed, dim):
        # rotations by 2 pi k / m and by random angles, mirrors, rotoreflections, in random frames
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(12):
            m = int(rng.integers(1, 25))
            angle = 2.0 * math.pi * int(rng.integers(0, m)) / m if rng.random() < 0.7 else rng.uniform(0, 7)
            if dim == 2:
                mats.append(rot2(angle) if rng.random() < 0.5 else mirror2(angle / 2.0))
                continue
            axis = rng.normal(size=3) if rng.random() < 0.5 else np.eye(3)[int(rng.integers(0, 3))]
            kind = int(rng.integers(0, 4))
            vertical = np.array([-math.sin(angle), math.cos(angle), 0.0])
            mats.append([rot3(axis, angle), mirror3(axis), mirror3(vertical),
                         mirror3(axis) @ rot3(axis, angle)][kind])
        stack = np.array(mats)
        assert _base_labels(stack, dim) == [reference_label(m, dim) for m in stack]

    def test_mirror_normals_near_the_axis(self):
        # |n_z| within 1e-9 of 1 or of 0, or just beyond; a tilt t moves |n_z| from 1 by t^2 / 2
        normals = [(0.0, 1e-5, 1.0), (0.0, 1e-4, 1.0), (1.0, 2.0, 1e-10), (1.0, 2.0, 1e-6)]
        stack = np.array([mirror3(n) for n in normals])
        assert _base_labels(stack, 3) == ["sh", "s", "sv(153.4349)", "s"]
        assert _base_labels(stack, 3) == [reference_label(m, 3) for m in stack]

    def test_group_from_random_frame_generators(self):
        q = rot3((0.3, -1.2, 0.7), 0.9)
        group = close_group([q @ g @ q.T for g in _POLYHEDRAL_GENS["Ih"]()])
        assert group.labels == reference_labels(group.matrices(), 3)

    @pytest.mark.parametrize("bad", [
        np.array([[1.0, 0.1], [0.0, 1.0]]),  # not orthogonal
        np.array([[math.nan, 0.0], [0.0, 1.0]]),
        np.array([[1.0, math.inf], [0.0, 1.0]]),
        2.0 * np.eye(2),  # a scaled identity
    ])
    def test_batched_path_rejects_bad_matrices(self, bad):
        with pytest.raises(NonOrthogonalGenerator):
            _wrap([np.eye(2), rot2(math.pi / 2), bad], 2, "bad")
        with pytest.raises(NonOrthogonalGenerator):
            close_group([rot2(math.pi / 2), bad])

    def test_batched_path_rejects_other_dimensions(self):
        with pytest.raises(UnsupportedDim):
            _wrap([np.eye(4), np.eye(4)], 4, "bad")
        with pytest.raises(NonOrthogonalGenerator):
            _wrap([np.eye(3)[:2]], 3, "bad")

    def test_wrapped_ops_equal_checked_ops(self):
        group = schoenflies_group("C6v", 2)
        raw = [rot2(2.0 * math.pi * k / 6) for k in range(6)] + [mirror2(math.pi * k / 6) for k in range(6)]
        for op, m in zip(group.elements, raw):
            assert np.array_equal(op.matrix, OrthogonalOp(m).matrix)
            assert not op.matrix.flags.writeable

    @pytest.mark.parametrize("stretch, fault", [(1e-11, "fails orthogonality"), (0.0, None)])
    def test_validator_checks_every_element_at_its_tolerance(self, stretch, fault):
        # orthogonal within the 1e-9 of OrthogonalOp, but not within the validator's 1e-12
        ops = (OrthogonalOp(np.eye(2), "Id"), OrthogonalOp(-np.eye(2), "C2"),
               OrthogonalOp(rot2(math.pi / 2) * (1.0 + stretch), "C4"),
               OrthogonalOp(rot2(-math.pi / 2), "C4^3"))
        group = SymmetryGroup(dim=2, elements=ops, name="C4")
        if fault is None:
            validate_group(group)
            return
        with pytest.raises(ValueError, match=f"element 2 \\(C4\\) {fault}"):
            validate_group(group)


class TestGroupStartErrors:
    def test_no_elements(self):
        with pytest.raises(InvalidGroup, match="at least the identity") as caught:
            SymmetryGroup(dim=2, elements=())
        assert isinstance(caught.value, SymrigError) and isinstance(caught.value, ValueError)

    def test_element_zero_not_the_identity(self):
        ops = (OrthogonalOp(rot2(math.pi), "C2"), OrthogonalOp(np.eye(2), "Id"))
        with pytest.raises(InvalidGroup, match="element 0 must be the identity") as caught:
            SymmetryGroup(dim=2, elements=ops)
        assert isinstance(caught.value, SymrigError) and isinstance(caught.value, ValueError)
