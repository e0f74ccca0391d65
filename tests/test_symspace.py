import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrig._numeric import kernel_basis
from symrig.classify import TypeAssignment, find_base_type, identity_type, is_homomorphism, verify_type
from symrig.errors import BadParam, LengthMismatch, NotAnAutomorphism, SamplingExhausted, UnknownName
from symrig.graphs import Graph, Permutation, parse_cycles
from symrig.groups import OrthogonalOp, SymmetryGroup, mirror2, schoenflies_group
from symrig.oracle import _orbits, constraint_stack, exhaustive_generic_check, symmetry_constraint_matrix
from symrig.problem import fixture_names, load_fixture
from symrig.rigidity import rigidity_verdict
from symrig.symspace import (
    class_is_empty,
    config_space_basis,
    constraint_residual,
    draw_samples,
    sample_config,
    sym_generic_verdict,
)

C2 = schoenflies_group("C2", 2)
C3 = schoenflies_group("C3", 2)

SPAN_GROUPS = [
    schoenflies_group(name, dim)
    for name, dim in [("C2", 2), ("C3", 2), ("C4", 2), ("Cs", 2), ("C2v", 2), ("C3v", 2),
                      ("C2", 3), ("Cs", 3), ("Ci", 3), ("C2v", 3), ("D3h", 3)]
]
HOMOMORPHIC = [
    name for name in fixture_names()
    if (prob := load_fixture(name)).phi is not None and is_homomorphism(prob.group, prob.phi)
]


def fixture_parts(name):
    """A fixture's class, with an auto type resolved from its coordinates."""
    prob = load_fixture(name)
    phi = prob.phi if prob.phi is not None else find_base_type(prob.graph, prob.coords, prob.group)
    return prob.graph, prob.group, phi


def or_rule_reference(basis, trials, seed):
    """Class flags OR-ed over the trials; the witness is the first isostatic
    sample, else the first rigid one, else the first of greatest rank."""
    rigid = independent = isostatic = False
    witness = best = None
    for f in draw_samples(basis, trials, seed):
        report = rigidity_verdict(f)
        if report.isostatic and not isostatic:
            witness = f.coords
        elif report.infinitesimally_rigid and not rigid and witness is None:
            witness = f.coords
        rigid = rigid or report.infinitesimally_rigid
        independent = independent or report.independent
        isostatic = isostatic or report.isostatic
        if best is None or report.rank > best[0]:
            best = (report.rank, f.coords)
    return rigid, independent, isostatic, best[1] if witness is None else witness


def basis_for(name):
    graph, group, phi = fixture_parts(name)
    return graph, group, phi, config_space_basis(graph, group, phi)


def dense_k(graph, group, phi):
    """The class space's dimension as the row count of the dense stack's kernel."""
    return len(kernel_basis(constraint_stack(group, phi.images, graph.n)))


def orbit_dims(basis, orbits):
    """The columns of each orbit's frame, read from the slots of its least joint."""
    return [int(np.count_nonzero(basis.slots[orbit[0]] < basis.k)) for orbit in orbits]


class TestConstraintMatrix:
    def test_half_turn_swap_block(self):
        phi = TypeAssignment((Permutation.identity(2), Permutation((1, 0))))
        block = symmetry_constraint_matrix(C2, phi, 1, 2)
        expected = np.array(
            [
                [-1.0, 0.0, -1.0, 0.0],
                [0.0, -1.0, 0.0, -1.0],
                [-1.0, 0.0, -1.0, 0.0],
                [0.0, -1.0, 0.0, -1.0],
            ]
        )
        assert block.shape == (4, 4)
        assert np.allclose(block, expected)

    def test_solutions_are_antipodal_pairs(self):
        phi = TypeAssignment((Permutation.identity(2), Permutation((1, 0))))
        block = symmetry_constraint_matrix(C2, phi, 1, 2)
        good = np.array([0.3, -0.7, -0.3, 0.7])
        assert np.max(np.abs(block @ good)) < 1e-12
        bad = np.array([0.3, -0.7, 0.3, -0.7])
        assert np.max(np.abs(block @ bad)) > 0.1


class TestBasis:
    FROZEN_K = {
        "c4_gadget": 4,
        "c9_c3": 2,
        "gbp_xi_a": 5,
        "gbp_xi_b": 5,
        "gtp_psi_a": 6,
        "gtp_psi_b": 6,
        "k2_c2_identity": 0,
        "k2_c2_swap": 2,
        "k2_c3_identity": 0,
        "k3_c2_swap": 2,
        "k33_c2v": 3,
        "k33_phi_a": 6,
        "k33_phi_b": 6,
        "k4_upsilon_a": 7,
        "k4_upsilon_b": 8,
    }

    @pytest.mark.parametrize("name,expected_k", sorted(FROZEN_K.items()))
    def test_dimension_table(self, name, expected_k):
        _, _, _, basis = basis_for(name)
        assert basis.k == expected_k

    @pytest.mark.parametrize("name", sorted(FROZEN_K))
    def test_rows_orthonormal_and_feasible(self, name):
        graph, group, phi, basis = basis_for(name)
        if basis.k:
            gram = basis.basis @ basis.basis.T
            assert np.max(np.abs(gram - np.eye(basis.k))) < 1e-12
        for row in basis.basis:
            assert constraint_residual(basis, group, phi, row) < 1e-9

    def test_gt_auto_type_resolves(self):
        # the shipped problem declares mode "auto"; resolve the base type here
        from symrig.classify import find_base_type

        prob = load_fixture("gt_c2")
        phi = find_base_type(prob.graph, prob.coords, prob.group)
        basis = config_space_basis(prob.graph, prob.group, phi)
        assert basis.k == 2

    def test_declared_coords_inside_space(self):
        graph, group, phi = fixture_parts("k33_phi_a")
        prob = load_fixture("k33_phi_a")
        flat = prob.coords.reshape(-1)
        basis = config_space_basis(graph, group, phi)
        # projection onto the row space reproduces the configuration
        proj = basis.basis.T @ (basis.basis @ flat)
        assert np.max(np.abs(proj - flat)) < 1e-9

    def test_identity_image_gives_full_space(self):
        graph = Graph.complete(3)
        c1 = schoenflies_group("C1", 2)
        basis = config_space_basis(graph, c1, identity_type(c1, 3))
        assert basis.k == 6

    def test_non_automorphism_rejected(self):
        graph = Graph.make(3, [(0, 1)])
        phi = TypeAssignment((Permutation.identity(3), Permutation((2, 1, 0))))
        with pytest.raises(NotAnAutomorphism):
            config_space_basis(graph, C2, phi)

    def test_group_with_missing_product_rejected(self):
        # The product of the two mirrors, a turn by 0.8 rad, is not an element.
        ops = (OrthogonalOp(np.eye(2), "Id"), OrthogonalOp(mirror2(0.0), "s"), OrthogonalOp(mirror2(0.4), "t"))
        broken = SymmetryGroup(dim=2, elements=ops, name="broken")
        with pytest.raises(UnknownName, match="broken is not closed under products"):
            config_space_basis(Graph.make(3, [(0, 1)]), broken, identity_type(broken, 3))

    def test_type_of_the_wrong_length(self):
        # Every check of a type against its group names this fault with one class.
        graph = Graph.make(2, [(0, 1)])
        short = TypeAssignment((Permutation.identity(2),))
        coords = np.array([[1.0, 0.0], [-1.0, 0.0]])
        checks = [
            lambda: config_space_basis(graph, C2, short),
            lambda: exhaustive_generic_check(coords, C2, short.images),
            lambda: verify_type(graph, coords, C2, short),
            lambda: is_homomorphism(C2, short),
        ]
        for check in checks:
            with pytest.raises(LengthMismatch, match="1 images for a group of order 2"):
                check()


class TestEmptiness:
    def test_forced_identity_on_half_turn(self):
        graph, _, _, basis = basis_for("k2_c2_identity")
        empty, offending = class_is_empty(graph, basis)
        assert empty
        assert offending == [(0, 1)]

    def test_swap_class_not_empty(self):
        graph, _, _, basis = basis_for("k2_c2_swap")
        empty, offending = class_is_empty(graph, basis)
        assert not empty
        assert offending == []

    def test_all_third_turn_classes_empty(self):
        # every normalized type of a single bar under a third turn is empty
        graph = Graph.make(2, [(0, 1)])
        choices = [Permutation.identity(2), Permutation((1, 0))]
        for a, b in itertools.product(choices, repeat=2):
            phi = TypeAssignment((Permutation.identity(2), a, b))
            basis = config_space_basis(graph, C3, phi)
            empty, offending = class_is_empty(graph, basis)
            assert empty
            assert offending == [(0, 1)]

    def test_gadget_class_not_empty(self):
        graph, _, _, basis = basis_for("c4_gadget")
        empty, _ = class_is_empty(graph, basis)
        assert not empty

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_graph_of_another_size_rejected(self, extra):
        # One joint fewer would read the frames of the wrong joints, one more a frame that does not exist.
        graph, _, _, basis = basis_for("c4_gadget")
        other = Graph.make(graph.n + extra, [(0, 1)])
        with pytest.raises(LengthMismatch, match=f"graph has {other.n} joints, the class space {graph.n}"):
            class_is_empty(other, basis)


class TestSampling:
    def test_empty_class_raises(self):
        _, _, _, basis = basis_for("k2_c2_identity")
        with pytest.raises(SamplingExhausted):
            sample_config(basis)

    def test_deterministic_per_seed(self):
        _, _, _, basis = basis_for("k33_phi_a")
        a = sample_config(basis, seed=7)
        b = sample_config(basis, seed=7)
        c = sample_config(basis, seed=8)
        assert np.array_equal(a.coords, b.coords)
        assert not np.array_equal(a.coords, c.coords)

    def test_unit_box_and_residual(self):
        graph, group, phi, basis = basis_for("gtp_psi_a")
        f = sample_config(basis, seed=3)
        assert np.isclose(np.max(np.abs(f.coords)), 1.0)
        assert constraint_residual(basis, group, phi, f.coords) < 1e-9
        assert not f.edge_violations()

    def test_draw_samples_stream(self):
        _, _, _, basis = basis_for("k33_phi_a")
        batch = draw_samples(basis, 5, seed=11)
        assert len(batch) == 5
        # one stream, so consecutive draws differ
        assert not np.array_equal(batch[0].coords, batch[1].coords)
        again = draw_samples(basis, 5, seed=11)
        for f, g in zip(batch, again):
            assert np.array_equal(f.coords, g.coords)

    @pytest.mark.parametrize("count", [0, -2])
    def test_draw_samples_needs_a_count(self, count):
        _, _, _, basis = basis_for("k33_phi_a")
        with pytest.raises(BadParam):
            draw_samples(basis, count)

    @pytest.mark.parametrize("seed", [-5, -1, 5.0, 2.7, True, None, "5"])
    @pytest.mark.parametrize("draw", ["draw_samples", "sample_config", "sym_generic_verdict"])
    def test_seed_must_be_an_int_at_least_zero(self, draw, seed):
        # random.Random(-5) would replay Random(5), and Random(None) seeds from the system
        graph, group, phi, basis = basis_for("k33_phi_a")
        calls = {
            "draw_samples": lambda: draw_samples(basis, 2, seed=seed),
            "sample_config": lambda: sample_config(basis, seed=seed),
            "sym_generic_verdict": lambda: sym_generic_verdict(graph, group, phi, trials=2, seed=seed),
        }
        with pytest.raises(BadParam, match="seed must be an integer >= 0"):
            calls[draw]()

    def test_sample_config_is_the_first_draw_of_the_stream(self):
        _, _, _, basis = basis_for("k33_phi_a")
        assert np.array_equal(sample_config(basis, seed=11).coords, draw_samples(basis, 3, seed=11)[0].coords)

    @pytest.mark.parametrize(
        "name", ["k33_phi_b", "gbp_xi_b", "k4_upsilon_b", "k3_c2_swap", "c9_c3", "c4_gadget"]
    )
    def test_samples_satisfy_constraints(self, name):
        graph, group, phi, basis = basis_for(name)
        for f in draw_samples(basis, 4, seed=2):
            assert constraint_residual(basis, group, phi, f.coords) < 1e-9


class TestOrbitBlockedBasis:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(SPAN_GROUPS), st.integers(1, 6), st.data())
    def test_span_matches_dense_reference(self, group, n, data):
        # Every permutation is an automorphism of an edgeless graph, so random
        # per-element images are valid types, most of them not homomorphic.
        images = [Permutation(tuple(data.draw(st.permutations(range(n))))) for _ in group.elements]
        if data.draw(st.booleans()):
            images[0] = Permutation.identity(n)
        phi = TypeAssignment(tuple(images))
        basis = config_space_basis(Graph.make(n, []), group, phi).basis
        dense = kernel_basis(constraint_stack(group, phi.images, n))
        assert basis.shape == dense.shape
        assert np.allclose(basis @ basis.T, np.eye(len(basis)), atol=1e-12)
        assert np.allclose(basis.T @ basis, dense.T @ dense, atol=1e-9)

    @pytest.mark.parametrize("name", HOMOMORPHIC)
    def test_orbits_are_the_images_of_each_vertex(self, name):
        graph, group, phi = fixture_parts(name)
        images = {tuple(sorted({phi[x](v) for x in range(len(group))})) for v in range(graph.n)}
        orbits = _orbits(graph.n, phi.images)
        assert orbits == tuple(sorted(images))
        slots = config_space_basis(graph, group, phi).slots
        assert all(len({tuple(slots[v]) for v in orbit}) == 1 for orbit in orbits)  # one slot range per orbit


class TestOrbits:
    def test_free_action_structure(self):
        graph, group, phi, basis = basis_for("gtp_psi_a")
        orbits = _orbits(graph.n, phi.images)
        assert orbits == ((0, 3), (1, 5), (2, 4))
        assert tuple(orbit[0] for orbit in orbits) == (0, 1, 2)
        assert orbit_dims(basis, orbits) == [2, 2, 2]
        assert basis.k == 6

    def test_mirror_fixed_vertices_pinned_to_line(self):
        graph, group, phi, basis = basis_for("k33_phi_a")
        orbits = _orbits(graph.n, phi.images)
        # orbits: {v1, v2}, {v3}, {v4}, {v5, v6}
        assert orbits == ((0, 1), (2,), (3,), (4, 5))
        assert orbit_dims(basis, orbits) == [2, 1, 1, 2]
        assert basis.k == 6

    def test_dof_matches_kernel_dimension(self):
        for name in ["k33_phi_a", "gtp_psi_a", "gtp_psi_b", "k4_upsilon_a", "k33_c2v"]:
            graph, group, phi, basis = basis_for(name)
            assert sum(orbit_dims(basis, _orbits(graph.n, phi.images))) == basis.k == dense_k(graph, group, phi)

    def test_non_homomorphic_type_rejected(self):
        # The transport needs no homomorphism: it walks every pair (M_x, phi_x) of the type.
        graph, group, phi, basis = basis_for("c4_gadget")
        assert not is_homomorphism(group, phi)
        assert basis.k == dense_k(graph, group, phi)

    def test_orbit_sample_matches_class(self):
        graph, group, phi, basis = basis_for("gtp_psi_a")
        f = draw_samples(basis, 1, seed=5)[0]
        assert constraint_residual(graph, group, phi, f.coords) < 1e-8
        assert not f.edge_violations()
        again = draw_samples(basis, 1, seed=5)[0]
        assert np.array_equal(f.coords, again.coords)

    def test_orbit_sample_mirror_class(self):
        graph, group, phi, basis = basis_for("k33_phi_a")
        f = draw_samples(basis, 1, seed=9)[0]
        assert constraint_residual(graph, group, phi, f.coords) < 1e-8


class TestVerdicts:
    def test_empty_class_short_circuits(self):
        graph, group, phi = fixture_parts("k2_c2_identity")
        report = sym_generic_verdict(graph, group, phi)
        assert report.empty
        assert report.samples_drawn == 0
        assert report.offending_edges == ((0, 1),)
        assert not report.isostatic
        assert report.witness is None

    def test_isostatic_class_carries_witness(self):
        graph, group, phi = fixture_parts("k33_phi_a")
        report = sym_generic_verdict(graph, group, phi, trials=10, seed=1)
        assert not report.empty
        assert report.k == 6
        assert len(report.ranks) == 10
        assert report.max_rank == 9
        assert report.isostatic and report.infinitesimally_rigid and report.independent
        assert report.witness is not None
        assert constraint_residual(graph, group, phi, report.witness) < 1e-9

    def test_degenerate_conic_class(self):
        graph, group, phi = fixture_parts("k33_phi_b")
        report = sym_generic_verdict(graph, group, phi, trials=10, seed=1)
        assert report.max_rank == 8
        assert not report.infinitesimally_rigid
        assert not report.isostatic
        assert report.witness is not None

    @pytest.mark.parametrize("trials", [0, -3])
    def test_needs_a_trial(self, trials):
        graph, group, phi = fixture_parts("k33_phi_a")
        with pytest.raises(BadParam, match="trials"):
            sym_generic_verdict(graph, group, phi, trials=trials)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", fixture_names())
    def test_max_rank_rule_matches_or_rule(self, name, seed):
        graph, group, phi = fixture_parts(name)
        report = sym_generic_verdict(graph, group, phi, seed=seed)
        basis = config_space_basis(graph, group, phi)
        if class_is_empty(graph, basis)[0]:
            assert report.empty and report.witness is None
            return
        rigid, independent, isostatic, witness = or_rule_reference(basis, report.samples_drawn, seed)
        assert (report.infinitesimally_rigid, report.independent, report.isostatic) == (rigid, independent, isostatic)
        assert np.array_equal(report.witness, witness)

    def test_to_dict_labels(self):
        graph, group, phi = fixture_parts("k2_c2_identity")
        d = sym_generic_verdict(graph, group, phi).to_dict(graph.labels)
        assert d["empty"] is True
        assert d["offending_edges"] == [["v1", "v2"]]
        assert "witness" not in d


class TestArrayPassesAgainstLoops:
    """The batched emptiness test, residual and stabilizers against per-bar and per-element loops."""

    @pytest.mark.parametrize("name", fixture_names())
    def test_forced_bars_and_residual(self, name):
        prob = load_fixture(name)
        phi = prob.phi if prob.phi is not None else find_base_type(prob.graph, prob.coords, prob.group)
        basis = config_space_basis(prob.graph, prob.group, phi)
        d = prob.group.dim
        forced = [(u, v) for u, v in prob.graph.bars.tolist()
                  if basis.k == 0 or np.max(np.abs(basis.basis[:, d * u: d * u + d] - basis.basis[:, d * v: d * v + d])) <= 1e-9]
        assert class_is_empty(prob.graph, basis) == (bool(forced), forced)
        for coords in [row.reshape(prob.graph.n, d) for row in basis.basis] + [np.ones((prob.graph.n, d))]:
            worst = max(float(np.max(np.abs(coords @ op.matrix.T - coords[list(perm.images)])))
                        for op, perm in zip(prob.group.elements, phi.images))
            assert constraint_residual(basis, prob.group, phi, coords) == worst

    @pytest.mark.parametrize("name", HOMOMORPHIC)
    def test_stabilizer_spaces(self, name):
        prob = load_fixture(name)
        basis = config_space_basis(prob.graph, prob.group, prob.phi)
        for orbit in _orbits(prob.graph.n, prob.phi.images):
            rows = [op.matrix - np.eye(prob.group.dim) for op, perm in zip(prob.group.elements, prob.phi.images)
                    if perm(orbit[0]) == orbit[0]]
            space = kernel_basis(np.vstack(rows), 1e-9)
            v = orbit[0]
            frame = basis.frames[v][:, basis.slots[v] < basis.k] * np.sqrt(len(orbit))  # F at the least joint
            assert frame.shape == (prob.group.dim, len(space))
            assert np.allclose(frame.T @ frame, np.eye(len(space)), atol=1e-12)
            assert np.allclose(frame @ frame.T, space.T @ space, atol=1e-12)

    def test_class_without_basis_forces_every_bar(self):
        # joints 0 and 1 coincide, and the half turn pins them and joint 2 to the origin
        graph = Graph.make(3, [(0, 2), (1, 2)])
        phi = TypeAssignment((Permutation((1, 0, 2)), Permutation((1, 0, 2))))
        basis = config_space_basis(graph, C2, phi)
        assert basis.k == 0
        assert class_is_empty(graph, basis) == (True, [(0, 2), (1, 2)])
