import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrig import oracle
from symrig._numeric import block_rank, kernel_basis
from symrig.classify import enumerate_types, find_base_type
from symrig.errors import (BadParam, CapExceeded, ExplosionGuard, LengthMismatch, NotInSymmetryClass,
                           NotRationalizable)
from symrig.graphs import Graph, Permutation
from symrig.groups import schoenflies_group
from symrig.oracle import (
    _minor_vanishes,
    brute_force_type_search,
    constraint_stack,
    exhaustive_generic_check,
    kernel_oracle,
)
from symrig.problem import fixture_names, load_fixture
from symrig.symspace import (
    config_space_basis,
    draw_samples,
)

C2 = schoenflies_group("C2", 2)

WITH_COORDS = [
    name for name in fixture_names() if load_fixture(name).coords is not None
]

# groups whose matrices have irrational entries defeat rational elimination
IRRATIONAL = {"c9_c3"}


class TestBruteForceAgainstFast:
    @pytest.mark.parametrize("name", WITH_COORDS)
    def test_catalog_matches_fast_enumeration(self, name):
        prob = load_fixture(name)
        brute = brute_force_type_search(prob.graph, prob.coords, prob.group)
        catalog, types = enumerate_types(prob.graph, prob.coords, prob.group)
        assert set(brute.valid_sets[0]) == set(catalog.coincidence_group)
        assert tuple(map(set, brute.valid_sets)) == tuple(map(set, catalog.valid_sets))
        assert set(brute.types) == set(types)
        _, normalized = enumerate_types(prob.graph, prob.coords, prob.group, normalized=True)
        assert set(brute.normalized) == set(normalized)

    def test_empty_valid_set_yields_no_types(self):
        graph = Graph.make(2, [(0, 1)])
        coords = np.array([[0.5, 0.1], [0.9, 0.7]])
        brute = brute_force_type_search(graph, coords, C2)
        assert brute.valid_sets[0] == (Permutation.identity(2),)
        assert brute.valid_sets[1] == ()
        assert brute.types == ()
        assert brute.normalized == ()

    def test_guard_fires_above_the_product_bound(self, monkeypatch):
        # K3 with every joint at the origin: each of C2's two operations may take any of the 6 automorphisms
        graph, coords = Graph.complete(3), np.zeros((3, 2))
        monkeypatch.setattr(oracle, "MAX_TYPE_PRODUCT", 36)
        assert len(brute_force_type_search(graph, coords, C2).types) == 36
        monkeypatch.setattr(oracle, "MAX_TYPE_PRODUCT", 35)
        with pytest.raises(ExplosionGuard, match="type catalog would exceed 35 entries"):
            brute_force_type_search(graph, coords, C2)

    def test_vertex_cap(self):
        graph = Graph.complete(10)
        with pytest.raises(CapExceeded):
            brute_force_type_search(graph, np.zeros((10, 2)), C2)

    def test_order_cap(self):
        c4v = schoenflies_group("C4v", 2)
        graph = Graph.make(2, [(0, 1)])
        with pytest.raises(CapExceeded):
            brute_force_type_search(graph, np.zeros((2, 2)), c4v)


class TestKernelOracle:
    def test_zero_rows_full_kernel(self):
        assert kernel_oracle(np.zeros((0, 6))) == 6

    def test_known_rank(self):
        m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        assert kernel_oracle(m) == 1

    def test_rational_entries(self):
        m = np.array([[0.5, 0.25], [1.0, 0.5]])
        assert kernel_oracle(m) == 1

    def test_irrational_entry_raises(self):
        # convergents of sqrt(2) with denominator <= 1000 are off by ~4e-7
        with pytest.raises(NotRationalizable):
            kernel_oracle(np.array([[np.sqrt(2), 1.0]]), denom_bound=1000)

    def test_default_bound_accepts_good_convergents(self):
        # with the default bound a quadratic irrational slips through, which
        # is why the oracle is only applied to stacks with exact entries
        assert kernel_oracle(np.array([[np.sqrt(2), 1.0]])) in (0, 1)

    @pytest.mark.parametrize(
        "name", [n for n in fixture_names() if n not in IRRATIONAL and load_fixture(n).phi is not None]
    )
    def test_agrees_with_svd_on_constraint_stacks(self, name):
        prob = load_fixture(name)
        stack = constraint_stack(prob.group, prob.phi.images, prob.graph.n)
        basis = config_space_basis(prob.graph, prob.group, prob.phi)
        assert kernel_oracle(stack) == basis.k

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 5),
        st.integers(2, 5),
        st.integers(0, 10**6),
    )
    def test_matches_numpy_rank_on_integer_matrices(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(-4, 5, size=(rows, cols)).astype(float)
        assert kernel_oracle(m) == cols - block_rank([(m, 1)])

    @pytest.mark.parametrize("cols", [1, 2, 3])
    def test_kernel_basis_of_no_rows_is_the_identity(self, cols):
        assert kernel_basis(np.zeros((0, cols))).tobytes() == np.eye(cols).tobytes()
        assert kernel_basis(np.zeros((0, cols))).shape == (cols, cols)

    def test_kernel_basis_of_a_zero_matrix_is_the_identity(self):
        assert np.array_equal(kernel_basis(np.zeros((2, 3))), np.eye(3))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 8), st.integers(0, 10**6))
    def test_kernel_basis_tall_and_wide(self, rows, cols, seed):
        # tall stacks take the thin SVD, wide ones the full V
        rng = np.random.default_rng(seed)
        m = rng.integers(-2, 3, size=(rows, cols)).astype(float)
        basis = kernel_basis(m)
        assert basis.shape == (kernel_oracle(m), cols)
        assert np.allclose(basis @ basis.T, np.eye(basis.shape[0]))
        assert np.allclose(m @ basis.T, 0.0)


class TestGenericCheck:
    def triangle_images(self):
        c1 = schoenflies_group("C1", 2)
        return c1, (Permutation.identity(3),)

    def test_generic_triangle(self):
        group, images = self.triangle_images()
        p = np.array([[0.0, 0.0], [1.0, 0.1], [0.4, 0.8]])
        report = exhaustive_generic_check(p, group, images)
        assert report.generic
        assert bool(report)
        assert report.failing_minor is None
        assert report.minors_checked > 0

    def test_a_zero_minor_vanishes(self):
        assert _minor_vanishes(np.zeros((2, 2)))

    def test_collinear_triangle_not_generic(self):
        group, images = self.triangle_images()
        p = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]])
        report = exhaustive_generic_check(p, group, images)
        assert not report.generic
        assert report.failing_minor is not None

    def test_symmetry_class_members_generic(self):
        prob = load_fixture("k3_c2_swap")
        basis = config_space_basis(prob.graph, prob.group, prob.phi)
        for f in draw_samples(basis, 3, seed=4):
            report = exhaustive_generic_check(f.coords, prob.group, prob.phi.images)
            assert report.generic

    @pytest.mark.parametrize("evals", [0, -1])
    def test_needs_an_evaluation_point(self, evals):
        # with no point every minor vanishing at p would count as vanishing identically
        group, images = self.triangle_images()
        p = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]])
        with pytest.raises(BadParam):
            exhaustive_generic_check(p, group, images, evals=evals)

    def test_vertex_cap(self):
        group, _ = self.triangle_images()
        c1 = schoenflies_group("C1", 2)
        images = (Permutation.identity(5),)
        with pytest.raises(CapExceeded):
            exhaustive_generic_check(np.zeros((5, 2)), c1, images)

    def test_plane_only(self):
        c1 = schoenflies_group("C1", 3)
        images = (Permutation.identity(3),)
        with pytest.raises(CapExceeded):
            exhaustive_generic_check(np.random.default_rng(0).uniform(size=(3, 3)), c1, images)

    def test_off_class_coords_rejected(self):
        prob = load_fixture("k3_c2_swap")
        bad = prob.coords.copy()
        bad[0] += 0.5
        with pytest.raises(NotInSymmetryClass):
            exhaustive_generic_check(bad, prob.group, prob.phi.images)

    def test_class_tolerance_is_per_joint(self):
        # v2 moved by 1e-5 from the half turn's image of v1: the violation is 1e-5 at v1 and at v2.
        prob = load_fixture("k3_c2_swap")
        off = prob.coords.copy()
        off[1, 1] -= 1e-5
        assert exhaustive_generic_check(off, prob.group, prob.phi.images, tol=1.01e-5).generic
        with pytest.raises(NotInSymmetryClass):
            exhaustive_generic_check(off, prob.group, prob.phi.images, tol=0.99e-5)
        with pytest.raises(NotInSymmetryClass):
            exhaustive_generic_check(off, prob.group, prob.phi.images)  # the default, 1e-8
        # measured on the coordinates as given, not rescaled by their peak
        assert exhaustive_generic_check(100 * prob.coords, prob.group, prob.phi.images, tol=0.0).generic
        with pytest.raises(NotInSymmetryClass):
            exhaustive_generic_check(100 * off, prob.group, prob.phi.images, tol=1.01e-5)

    def test_image_count_checked(self):
        group, _ = self.triangle_images()
        with pytest.raises(LengthMismatch):
            exhaustive_generic_check(np.zeros((3, 2)), group, ())
