"""The transported class space against the dense constraint stack.

config_space_basis carries one frame of each orbit stabiliser's fixed space
to the orbit's joints; the reference is the kernel of oracle.constraint_stack,
the class constraints M_x p_v = p_{phi_x(v)} written as one matrix. The two
bases may differ in their bits but must span the same space: the same k, the
same projector, orthonormal rows that meet the class constraints, and the
same emptiness verdict, the reference's from the per-bar test on its rows.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings

from symrig import symspace
from symrig._numeric import kernel_basis
from symrig.classify import find_base_type
from symrig.oracle import constraint_stack
from symrig.problem import fixture_names, load_fixture, parse_problem
from symrig.symspace import ConfigSpaceBasis, class_is_empty, config_space_basis, constraint_residual, draw_samples

from test_class_space_digest import _load_workloads
from test_phases import symmetric_classes
from test_stacked import _stdout, reference_is_empty

WORKLOAD_CLASSES = {
    "cycle_cm": ("cycle96_c12_hom", "cycle96_c12_nonhom", "cycle48_c8_hom", "cycle48_c8_nonhom"),
    "high_symmetry": ("k8_c8v", "tetrahedron_T", "tetrahedron_Td", "octahedron_O", "cube_Oh", "icosahedron_I",
                      "icosahedron_ih_generators"),
    "large_3d": ("c3_free_150_0", "c3_free_150_1"),
}


def assert_same_space(graph, group, phi):
    ours = config_space_basis(graph, group, phi)
    theirs = kernel_basis(constraint_stack(group, phi.images, graph.n))
    assert ours.k == len(theirs)
    b = ours.basis
    assert np.max(np.abs(b.T @ b - theirs.T @ theirs), initial=0.0) <= 1e-9
    assert np.max(np.abs(b @ b.T - np.eye(ours.k)), initial=0.0) <= 1e-12
    assert constraint_residual(ours, b) <= 1e-12
    assert class_is_empty(ours) == reference_is_empty(graph, theirs)


def kernel_shapes(graph, group, phi, monkeypatch):
    """Shapes of the stacks config_space_basis hands to kernel_basis."""
    shapes = []
    kernel = symspace.kernel_basis
    monkeypatch.setattr(symspace, "kernel_basis", lambda stack: shapes.append(stack.shape) or kernel(stack))
    config_space_basis(graph, group, phi)
    return shapes


def resolved(problem):
    """The problem's type, or for type "auto" its base type against the placement, as the CLI resolves it."""
    if problem.phi is not None:
        return problem.phi
    return find_base_type(problem.graph, problem.coords, problem.group, 1e-8)


@pytest.mark.parametrize("name", fixture_names())
def test_same_space_on_fixtures(name):
    prob = load_fixture(name)
    assert_same_space(prob.graph, prob.group, resolved(prob))


@pytest.mark.parametrize("name", fixture_names())
def test_kernels_take_d_columns_on_fixtures(name, monkeypatch):
    # No orbit block: each stack holds the M_s - I of one stabiliser's elements but the identity.
    prob = load_fixture(name)
    d, order = prob.group.dim, len(prob.group)
    for rows, cols in kernel_shapes(prob.graph, prob.group, resolved(prob), monkeypatch):
        assert cols == d and 0 < rows <= (order - 1) * d


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=symmetric_classes())
def test_same_space_on_symmetric_classes(case):
    # The strategy may add a twin orbit and send the identity through the swap of the twins.
    graph, group, phi = case
    event("identity swaps twins" if not phi[0].is_identity() else "identity fixes every joint")
    assert_same_space(graph, group, phi)


@pytest.fixture(scope="module")
def workloads():
    return _load_workloads()


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("workload", sorted(WORKLOAD_CLASSES))
def test_same_space_on_workload_classes(workloads, workload, seed):
    problems = {p.name: p.data for p in workloads.build(workload, seed).problems}
    for name in WORKLOAD_CLASSES[workload]:
        problem = parse_problem(problems[name])
        assert_same_space(problem.graph, problem.group, resolved(problem))


@pytest.mark.parametrize("workload, name, calls", [
    ("high_symmetry", "icosahedron_I", 1),
    ("high_symmetry", "icosahedron_ih_generators", 1),
    ("large_3d", "c3_free_150_0", 0),  # free orbits: I_d with no call
])
def test_one_kernel_per_distinct_stabiliser(workloads, workload, name, calls, monkeypatch):
    problem = parse_problem(next(p.data for p in workloads.build(workload, 1).problems if p.name == name))
    shapes = kernel_shapes(problem.graph, problem.group, resolved(problem), monkeypatch)
    assert len(shapes) == calls and all(cols == problem.group.dim for _, cols in shapes)


@pytest.mark.parametrize("name", fixture_names())
def test_only_the_basis_command_reads_the_dense_basis(name, monkeypatch):
    commands = [("analyze",), ("sample", "--count", "5"), ("empty-check",), ("svg",)]
    before = [_stdout([*command, "--fixture", name]) for command in commands]

    def dense(basis):
        raise AssertionError("the dense k x dn basis was built")

    monkeypatch.setattr(ConfigSpaceBasis, "basis", property(dense))
    assert [_stdout([*command, "--fixture", name]) for command in commands] == before


def test_a_large_class_takes_no_dense_basis(workloads):
    # 1500 joints in free C3 orbits: the dense basis alone would be 1500 x 4500 floats, 54 MB.
    problem = parse_problem(workloads.large_problem("c3_free_1500", 1500, random.Random(1)).data)
    tracemalloc.start()
    try:
        basis = config_space_basis(problem.graph, problem.group, problem.phi)
        empty, _ = class_is_empty(basis)
        draw_samples(basis, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.k == 1500 and not empty
    assert peak < 5 << 20
