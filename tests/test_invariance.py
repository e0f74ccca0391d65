"""Verdicts are properties of a class, not of its frame, its labels or how its group is listed.

The classes are every fixture, the closure-golden problems whose generators
close, and one small class each of the cycle_cm and large_3d workloads. For
each, k, emptiness, the forced bars, max_rank and the three flags must not
change when
- the group's non-identity elements are listed in another order (the
  table is recomputed) and the type's images are permuted to match;
- every operation is conjugated by an orthogonal Q, proper or improper,
  and the given coordinates are turned by Q; the given configuration must
  then still satisfy its type and keep its rigidity;
- the vertices are renamed by a permutation, in the graph, in the type's
  images (conjugated by it) and in the coordinates; the forced bars map
  with it.
Restricting a type to a cyclic subgroup drops constraints, so the class
space can only grow: k and max_rank never fall, and a non-empty class
stays non-empty (an empty one may not). Scaling the given coordinates by
2^40 or 2^-40, with the absolute bar tolerance scaled alike, keeps their
rigidity.
"""

import numpy as np
import pytest

from symrig.classify import TypeAssignment, find_base_type, restrict_type, verify_type
from symrig.errors import InvalidFramework
from symrig.graphs import Graph, Permutation
from symrig.groups import OrthogonalOp, SymmetryGroup, close_group
from symrig.problem import fixture_names, load_fixture, parse_problem
from symrig.rigidity import Framework, rigidity_verdict
from symrig.symspace import class_is_empty, config_space_basis, sym_generic_verdict
from test_class_space_digest import _load_workloads
from test_closure_golden import PROBLEMS as CLOSURE_PROBLEMS

PERMUTATION_SEEDS = (1, 2, 3)
RELABEL_SEEDS = (1, 2)
TRIALS = 3
SCALES = (2.0 ** 40, 2.0 ** -40)


def _class(problem):
    phi = problem.phi
    if phi is None:  # type "auto": resolved against the placement, as the CLI does
        phi = find_base_type(problem.graph, problem.coords, problem.group, 1e-8)
    return problem.graph, problem.group, phi


def _workload_problem(workload: str, name: str):
    data = next(p.data for p in _load_workloads().build(workload, 1, "smoke").problems if p.name == name)
    return parse_problem(data)


def _inputs():
    inputs = {f"fixture {name}": lambda name=name: load_fixture(name) for name in fixture_names()}
    for name, data in CLOSURE_PROBLEMS.items():
        if name != "bar_rot1":  # its generator closes no group
            inputs[f"closure {name}"] = lambda data=data: parse_problem(data)
    inputs["cycle_cm cycle12_c4_nonhom"] = lambda: _workload_problem("cycle_cm", "cycle12_c4_nonhom")
    inputs["large_3d c3_free_30_0"] = lambda: _workload_problem("large_3d", "c3_free_30_0")
    return inputs


INPUTS = _inputs()


def _summary(graph, group, phi):
    basis = config_space_basis(graph, group, phi)
    _, forced = class_is_empty(basis)
    report = sym_generic_verdict(basis, trials=TRIALS, seed=1)
    return (basis.k, report.empty, set(forced), report.max_rank,
            report.infinitesimally_rigid, report.independent, report.isostatic)


@pytest.mark.parametrize("key", sorted(INPUTS))
def test_element_order_does_not_change_the_verdict(key):
    graph, group, phi = _class(INPUTS[key]())
    want = _summary(graph, group, phi)
    for seed in PERMUTATION_SEEDS:
        order = [0, *(1 + np.random.default_rng(seed).permutation(len(group) - 1)).tolist()]
        permuted = SymmetryGroup(group.dim, tuple(group.elements[i] for i in order), group.name)
        assert np.array_equal(permuted.matrices(), group.matrices()[order])
        images = TypeAssignment(tuple(phi.images[i] for i in order))
        assert _summary(graph, permuted, images) == want, f"element order {order}"


def _given(graph, group, phi, coords, tol=1e-8):
    """What analyze reports of given coordinates: whether they satisfy the type, and their rigidity."""
    if coords is None:
        return None
    try:
        rigidity = rigidity_verdict(Framework(graph, coords), framework_tol=tol).to_dict()
    except InvalidFramework as exc:
        rigidity = type(exc).__name__
    return verify_type(config_space_basis(graph, group, phi), coords, tol), rigidity


def _orthogonal(dim: int, seed: int, proper: bool) -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    if (np.linalg.det(q) > 0) != proper:
        q[:, 0] = -q[:, 0]
    return q


@pytest.mark.parametrize("proper", [True, False], ids=["proper", "improper"])
@pytest.mark.parametrize("key", sorted(INPUTS))
def test_conjugating_the_group_does_not_change_the_verdict(key, proper):
    problem = INPUTS[key]()
    graph, group, phi = _class(problem)
    q = _orthogonal(group.dim, seed=7, proper=proper)
    turned = SymmetryGroup(group.dim, tuple(OrthogonalOp(q @ op.matrix @ q.T, op.label) for op in group.elements),
                           group.name)
    coords = None if problem.coords is None else problem.coords @ q.T
    want = (_summary(graph, group, phi), _given(graph, group, phi, problem.coords))
    assert (_summary(graph, turned, phi), _given(graph, turned, phi, coords)) == want
    assert want[1] is None or want[1][0]  # a given configuration satisfies its own type


@pytest.mark.parametrize("seed", RELABEL_SEEDS)
@pytest.mark.parametrize("key", sorted(INPUTS))
def test_relabelling_the_vertices_does_not_change_the_verdict(key, seed):
    problem = INPUTS[key]()
    graph, group, phi = _class(problem)
    sigma = np.random.default_rng(seed).permutation(graph.n)  # vertex v is renamed sigma[v]
    inverse = np.argsort(sigma)
    renamed = Graph.make(graph.n, sigma[graph.bars].tolist(), tuple(graph.labels[v] for v in inverse))
    moved = TypeAssignment(tuple(Permutation(tuple(row)) for row in sigma[phi.array][:, inverse].tolist()))
    coords = None if problem.coords is None else problem.coords[inverse]
    k, empty, forced, *rest = _summary(graph, group, phi)
    want = (k, empty, {tuple(sorted(sigma[list(bar)].tolist())) for bar in forced}, *rest)
    got = _summary(renamed, group, moved)
    assert (*got[:2], {tuple(sorted(bar)) for bar in got[2]}, *got[3:]) == want, f"renaming {sigma.tolist()}"
    assert _given(renamed, group, moved, coords) == _given(graph, group, phi, problem.coords)


@pytest.mark.parametrize("key", sorted(INPUTS))
def test_restricting_to_a_cyclic_subgroup_never_lowers_the_class(key):
    graph, group, phi = _class(INPUTS[key]())
    k, empty, _, max_rank, *_ = _summary(graph, group, phi)
    seen = set()
    for op in group.elements:
        sub = close_group([op.matrix])
        members = frozenset(group.index_of(element.matrix) for element in sub.elements)
        if members in seen:
            continue
        seen.add(members)
        sub_k, sub_empty, _, sub_rank, *_ = _summary(graph, sub, restrict_type(group, phi, sub))
        assert sub_k >= k and sub_rank >= max_rank, f"restricted to the subgroup of {op.label}"
        assert empty or not sub_empty, f"restricted to the subgroup of {op.label}"


PLACED = sorted(key for key in INPUTS if INPUTS[key]().coords is not None)


@pytest.mark.parametrize("key", PLACED)
def test_scaling_the_given_coordinates_keeps_their_rigidity(key):
    problem = INPUTS[key]()
    graph, group, phi = _class(problem)
    want = _given(graph, group, phi, problem.coords)[1]
    for scale in SCALES:
        assert _given(graph, group, phi, problem.coords * scale, 1e-8 * scale)[1] == want, f"scale {scale}"
