"""constraint_residual over a stack of configurations against a loop over configurations and operations."""

import numpy as np
import pytest

from symrig import _numeric
from symrig.classify import find_base_type
from symrig.errors import LengthMismatch
from symrig.problem import fixture_names, load_fixture, parse_problem
from symrig.symspace import config_space_basis, constraint_residual


def _rows(name):
    prob = load_fixture(name)
    phi = prob.phi if prob.phi is not None else find_base_type(prob.graph, prob.coords, prob.group)
    basis = config_space_basis(prob.graph, prob.group, phi)
    # basis rows satisfy the constraints; random rows violate them by a visible amount
    noise = np.random.default_rng(3).uniform(-1.0, 1.0, (4, prob.graph.n * prob.dim))
    return prob, phi, basis, np.vstack([basis.basis, noise])


@pytest.mark.parametrize("name", fixture_names())
def test_stack_is_the_largest_row(name, monkeypatch):
    prob, phi, basis, rows = _rows(name)
    per_row = max(float(np.max(np.abs(c @ op.matrix.T - c[list(perm.images)])))
                  for c in rows.reshape(-1, prob.graph.n, prob.dim)
                  for op, perm in zip(prob.group.elements, phi.images))
    assert per_row > 0.0
    assert max(constraint_residual(basis, row) for row in rows) == per_row
    assert constraint_residual(basis, rows) == per_row
    assert constraint_residual(basis, rows.reshape(-1, prob.graph.n, prob.dim)) == per_row
    monkeypatch.setattr(_numeric, "STACK_CELLS", 1)  # one configuration per chunk
    assert constraint_residual(basis, rows) == per_row


def test_empty_stack_has_no_residual():
    prob, phi, basis, rows = _rows("k33_phi_a")
    assert constraint_residual(basis, rows[:0]) == 0.0


def test_configurations_of_twice_the_joints_rejected():
    # A zero array of 2n joints reshapes into two zero members, whose residual would read 0.0.
    prob, _, basis, _ = _rows("k33_phi_a")
    with pytest.raises(LengthMismatch, match=f"got \\({2 * prob.graph.n}, {prob.dim}\\)"):
        constraint_residual(basis, np.zeros((2 * prob.graph.n, prob.dim)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_offset_that_overflows_is_an_infinite_residual():
    # the mirror sends (0, 1e308) to (0, -1e308), which the type says is the joint's own spot: 2e308 away
    prob = parse_problem({"dim": 2, "vertices": ["a", "b"], "edges": [["a", "b"]], "group": {"schoenflies": "Cs"},
                          "type": {"s": "id"}})
    basis = config_space_basis(prob.graph, prob.group, prob.phi)
    assert constraint_residual(basis, np.array([[0.0, 1e308], [0.0, -1e308]])) == np.inf
