"""Verdicts are properties of a class, not of how its group is listed.

The order of a group's elements only names them. Rebuilding a group with
its non-identity elements permuted (SymmetryGroup recomputes the table) and
permuting the type's images to match describes the same class, so k,
emptiness, the forced bars, max_rank and the three flags must not change.
The classes are every fixture, the closure-golden problems whose generators
close, and one small class each of the cycle_cm and large_3d workloads.
"""

import numpy as np
import pytest

from symrig.classify import TypeAssignment, find_base_type
from symrig.groups import SymmetryGroup
from symrig.problem import fixture_names, load_fixture, parse_problem
from symrig.symspace import class_is_empty, config_space_basis, sym_generic_verdict
from test_class_space_digest import _load_workloads
from test_closure_golden import PROBLEMS as CLOSURE_PROBLEMS

PERMUTATION_SEEDS = (1, 2, 3)
TRIALS = 3


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
