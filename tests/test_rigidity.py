import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symrig._numeric import block_rank
from symrig.errors import InvalidFramework, UnsupportedDim
from symrig.graphs import Graph
from symrig.oracle import trivial_motion_basis
from symrig.rigidity import (
    Framework,
    affine_span_dim,
    rigidity_matrix,
    rigidity_verdict,
)

TRIANGLE = Graph.complete(3)


def tri_framework(points):
    return Framework(TRIANGLE, np.asarray(points, dtype=float))


class TestFramework:
    def test_shape_validation(self):
        with pytest.raises(InvalidFramework):
            Framework(TRIANGLE, np.zeros((2, 2)))
        with pytest.raises(InvalidFramework):
            Framework(TRIANGLE, np.zeros(6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coords_rejected(self, bad):
        p = np.zeros((3, 2))
        p[1, 0] = bad
        with pytest.raises(InvalidFramework):
            Framework(TRIANGLE, p)

    def test_coords_whose_differences_overflow_rejected(self):
        # Every entry is finite, but p_0 - p_1 is not, and no bar vector or rank could be read from it.
        with pytest.raises(InvalidFramework, match="coordinates must differ by finite numbers"):
            tri_framework([[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]])
        assert tri_framework([[1e307, 0.0], [-1e307, 0.0], [0.0, 1.0]]).n == 3

    def test_dim_validation(self):
        with pytest.raises(UnsupportedDim):
            Framework(TRIANGLE, np.zeros((3, 4)))

    def test_edge_violations(self):
        f = tri_framework([[0, 0], [1, 0], [0, 0]])
        bad = f.edge_violations()
        assert bad == [(0, 2)]
        with pytest.raises(InvalidFramework):
            f.validate()

    def test_coincident_joints_without_bar_ok(self):
        g = Graph.make(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        p = np.array([[0.8, 0.35], [-0.8, -0.35], [0.0, 0.0], [0.0, 0.0]])
        Framework(g, p).validate()


class TestRigidityMatrix:
    def test_single_bar_rows(self):
        g = Graph.make(2, [(0, 1)])
        f = Framework(g, np.array([[0.0, 0.0], [1.0, 2.0]]))
        r = rigidity_matrix(f)
        assert r.shape == (1, 4)
        assert np.allclose(r, [[-1.0, -2.0, 1.0, 2.0]])

    def test_row_order_matches_sorted_edges(self):
        g = Graph.make(3, [(1, 2), (0, 1)])
        f = Framework(g, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        r = rigidity_matrix(f)
        assert r.shape == (2, 6)
        # first row is edge (0, 1)
        assert np.allclose(r[0], [-1.0, 0.0, 1.0, 0.0, 0.0, 0.0])

    def test_no_bars(self):
        f = Framework(Graph.make(3, []), np.zeros((3, 2)))
        assert rigidity_matrix(f).shape == (0, 6)
        assert f.edge_violations() == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 6), st.data())
    def test_matches_per_bar_reference(self, d, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        flat = data.draw(st.lists(st.floats(-1, 1), min_size=n * d, max_size=n * d))
        p = np.array(flat).reshape(n, d)
        expected = np.zeros((len(edges), d * n))
        for r, (u, v) in enumerate(sorted(edges)):
            expected[r, d * u: d * u + d] = p[u] - p[v]
            expected[r, d * v: d * v + d] = p[v] - p[u]
        assert np.array_equal(rigidity_matrix(Framework(Graph.make(n, edges), p)), expected)

    def test_trivial_motions_in_kernel(self):
        f = tri_framework([[0.1, 0.2], [1.3, -0.4], [-0.5, 0.9]])
        r = rigidity_matrix(f)
        t = trivial_motion_basis(f)
        assert t.shape == (3, 6)
        assert np.max(np.abs(r @ t.T)) < 1e-12

    def test_trivial_motions_3d(self):
        g = Graph.complete(4)
        f = Framework(g, np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]))
        t = trivial_motion_basis(f)
        assert t.shape == (6, 12)
        assert np.max(np.abs(rigidity_matrix(f) @ t.T)) < 1e-12


class TestTrivialDim:
    """The closed-form count C(d+1, 2) - C(d-a, 2) against the rank of the motion fields."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 3), st.integers(0, 3), st.data())
    def test_closed_form_matches_motion_rank(self, d, span, extra, data):
        # n points on a random affine subspace of dimension span: span 0 puts
        # every point at one spot, span 1 on a line, span 2 in 3D on a plane
        span = min(span, d)
        n = span + 1 + extra
        coord = st.floats(-1, 1)
        origin = np.array(data.draw(st.lists(coord, min_size=d, max_size=d)))
        directions = np.array(data.draw(st.lists(coord, min_size=span * d, max_size=span * d))).reshape(span, d)
        weights = np.array(data.draw(st.lists(coord, min_size=n * span, max_size=n * span))).reshape(n, span)
        p = origin + weights @ directions
        # keep only placements whose span is clearly span, not near a smaller one
        sigma = np.linalg.svd(p - p[0], compute_uv=False)
        assume(span == 0 or sigma[span - 1] > 1e-3 * max(1.0, sigma[0]))
        f = Framework(Graph.make(n, []), p)
        report = rigidity_verdict(f)
        assert report.affine_span_dim == span
        assert report.trivial_dim == block_rank([(trivial_motion_basis(f), 1)])


class TestAffineSpan:
    def test_cases(self):
        assert affine_span_dim(np.array([[2.0, 3.0]])) == 0
        assert affine_span_dim(np.array([[0.0, 0.0], [1.0, 1.0]])) == 1
        assert affine_span_dim(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])) == 1
        assert affine_span_dim(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])) == 2

    def test_single_joint_stack(self):
        span = affine_span_dim(np.ones((4, 1, 3)))
        assert span.dtype.kind == "i"
        assert span.tolist() == [0, 0, 0, 0]

    def test_translation_invariant(self):
        p = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert affine_span_dim(p + 100.0) == 1


class TestVerdicts:
    def test_triangle_isostatic(self):
        rep = rigidity_verdict(tri_framework([[0, 0], [1, 0], [0.3, 0.9]]))
        assert rep.rank == 3
        assert rep.infinitesimally_rigid and rep.independent and rep.isostatic
        assert rep.trivial_dim == 3

    def test_square_flexible(self):
        g = Graph.cycle(4)
        f = Framework(g, np.array([[0, 0], [1.0, 0], [1.0, 1.0], [0, 1.0]]))
        rep = rigidity_verdict(f)
        assert rep.rank == 4
        assert not rep.infinitesimally_rigid
        assert rep.independent and not rep.isostatic

    def test_k4_plane_overbraced(self):
        g = Graph.complete(4)
        f = Framework(g, np.array([[0, 0], [1.0, 0], [0.2, 0.9], [0.7, 0.4]]))
        rep = rigidity_verdict(f)
        assert rep.rank == 5
        assert rep.infinitesimally_rigid
        assert not rep.independent and not rep.isostatic

    def test_collinear_triangle(self):
        rep = rigidity_verdict(tri_framework([[0, 0], [1.0, 0.5], [-1.0, -0.5]]))
        assert rep.rank == 2
        assert rep.affine_span_dim == 1
        assert not rep.infinitesimally_rigid

    @pytest.mark.parametrize("scale", [1e300, 8e307])
    def test_huge_coordinates_are_ranked(self, scale):
        # at 8e307 the largest singular value of R overflows to inf unless the coordinates are scaled first
        p = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0]]) * scale
        rep = rigidity_verdict(Framework(TRIANGLE, p))
        assert (rep.rank, rep.affine_span_dim, rep.infinitesimally_rigid) == (3, 2, True)

    def test_k4_space_isostatic(self):
        g = Graph.complete(4)
        f = Framework(g, np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0.1, 0.2, 1.0]]))
        rep = rigidity_verdict(f)
        assert rep.rank == 6
        assert rep.isostatic
        assert rep.affine_span_dim == 3

    def test_complete_flat_counts_via_span(self):
        # a complete graph on affinely independent joints is rigid even when
        # the span is lower-dimensional than the ambient space
        g = Graph.complete(3)
        f = Framework(g, np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]]))
        rep = rigidity_verdict(f)
        assert rep.affine_span_dim == 2
        assert rep.infinitesimally_rigid

    def test_two_joints_without_bar_flexible(self):
        # rank 0 equals 6 - C(4, 2), but two joints span a line: the trivial
        # motions have dimension 5, so one stretching motion is a flex
        f = Framework(Graph.make(2, []), np.array([[0.0, 0, 0], [1.0, 0.2, 0.3]]))
        rep = rigidity_verdict(f)
        assert rep.rank == 0 and rep.trivial_dim == 5
        assert not rep.infinitesimally_rigid and not rep.isostatic

    def test_single_bar_in_space_isostatic(self):
        f = Framework(Graph.make(2, [(0, 1)]), np.array([[0.0, 0, 0], [1.0, 0.2, 0.3]]))
        rep = rigidity_verdict(f)
        assert rep.rank == 1 and rep.trivial_dim == 5
        assert rep.isostatic

    def test_degenerate_bar_raises(self):
        with pytest.raises(InvalidFramework):
            rigidity_verdict(tri_framework([[0, 0], [0, 0], [1.0, 1.0]]))

    def test_report_to_dict(self):
        d = rigidity_verdict(tri_framework([[0, 0], [1, 0], [0.3, 0.9]])).to_dict()
        assert d["isostatic"] is True
        assert d["rank"] == 3

    def test_scale_invariance(self):
        p = np.array([[0.0, 0.0], [1.0, 0.1], [0.4, 0.8]])
        big = rigidity_verdict(tri_framework(p * 1e7))
        small = rigidity_verdict(tri_framework(p * 1e-7))
        assert big.rank == small.rank == 3
        assert big.isostatic and small.isostatic

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=6, max_size=6))
    def test_random_triangles(self, flat):
        p = np.array(flat, dtype=float).reshape(3, 2)
        u, v = p[1] - p[0], p[2] - p[0]
        area = abs(u[0] * v[1] - u[1] * v[0])
        assume(area > 1e-3)
        rep = rigidity_verdict(tri_framework(p))
        assert rep.isostatic
