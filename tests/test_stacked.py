"""Stacked class decisions against the one-member-at-a-time loop they replace.

sym_generic_verdict and draw_samples draw all trials as one coordinate stack,
and rigidity_verdicts ranks the stack in chunks of at most
_numeric.STACK_CELLS cells. Each check here compares them with a reference
kept in this file: the loop that drew one member, built and validated its
Framework and ranked it as a stack of one; the per-bar emptiness test on the dense
basis; and each orbit's block of oracle.constraint_stack against two einsum
products, with every entry between two orbits zero.
"""

import contextlib
import io
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symrig import _numeric, oracle, symspace
from symrig._numeric import block_rank
from symrig.classify import find_base_type
from symrig.cli import main
from symrig.errors import SamplingExhausted
from symrig.problem import fixture_names, load_fixture
from symrig.rigidity import Framework, rigidity_verdict, rigidity_verdicts
from symrig.symspace import (
    DRAW_RETRIES,
    FORCED_BAR_TOL,
    class_is_empty,
    config_space_basis,
    draw_samples,
    sym_generic_verdict,
)
from test_phases import PHASE_PROBLEMS, symmetric_classes

PATHS = {"one SVD": 10**9, "phase blocks": 0}


def reference_draw(basis, rng, framework_tol):
    """One member, drawn as before stacking: one weight vector per attempt, carried by the joints' frames."""
    g = basis.graph
    if basis.k == 0:
        f = Framework(g, np.zeros((g.n, basis.dim)))
        if f.edge_violations(framework_tol):
            raise SamplingExhausted("the class is empty: its only configuration collapses a bar")
        return f
    for _ in range(DRAW_RETRIES):
        weights = np.array([rng.uniform(-1.0, 1.0) for _ in range(basis.k)] + [0.0])
        coords = (basis.frames * weights[basis.slots][:, None]).sum(-1)
        peak = np.max(np.abs(coords))
        if peak <= framework_tol:
            continue
        f = Framework(g, coords / peak)
        if not f.edge_violations(framework_tol):
            return f
    raise SamplingExhausted(f"no valid framework in {DRAW_RETRIES} draws")


def reference_verdict(basis, trials, seed, framework_tol=1e-8):
    """(ranks, verdict of the first member of greatest rank, its coordinates)."""
    rng = random.Random(seed)
    best = witness = None
    ranks = []
    for _ in range(trials):
        f = reference_draw(basis, rng, framework_tol)
        f.validate(framework_tol)
        report = rigidity_verdicts(f.graph, f.coords[None], 1e-8, basis.phases)[0]
        ranks.append(report.rank)
        if best is None or report.rank > best.rank:
            best, witness = report, f.coords
    return tuple(ranks), best, witness


def assert_same_verdict(basis, trials, seed, framework_tol=1e-8):
    ranks, best, witness = reference_verdict(basis, trials, seed, framework_tol)
    report = sym_generic_verdict(basis, trials=trials, seed=seed, framework_tol=framework_tol)
    assert report.ranks == ranks
    assert report.max_rank == best.rank
    assert (report.infinitesimally_rigid, report.independent, report.isostatic) == (
        best.infinitesimally_rigid, best.independent, best.isostatic)
    assert report.witness.tobytes() == witness.tobytes()


def fixture_class(name):
    prob = load_fixture(name)
    phi = prob.phi if prob.phi is not None else find_base_type(prob.graph, prob.coords, prob.group)
    return prob, phi


@pytest.mark.parametrize("path", sorted(PATHS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=symmetric_classes(), seed=st.integers(0, 1000), trials=st.integers(1, 8))
def test_stack_matches_the_per_member_loop(path, case, seed, trials):
    graph, group, phi = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symspace, "PHASE_MIN_COLUMNS", PATHS[path])
        basis = config_space_basis(graph, group, phi)
        if class_is_empty(basis)[0]:
            return
        try:
            reference_verdict(basis, trials, seed)
        except SamplingExhausted:
            with pytest.raises(SamplingExhausted):
                sym_generic_verdict(basis, trials=trials, seed=seed)
            return
        assert_same_verdict(basis, trials, seed)


@pytest.mark.parametrize("name", sorted(PHASE_PROBLEMS))
@pytest.mark.parametrize("cells", [1, "uneven"])
def test_chunk_boundaries_do_not_change_the_verdict(name, cells, monkeypatch):
    from symrig.problem import parse_problem

    prob = parse_problem(PHASE_PROBLEMS[name])
    basis = config_space_basis(prob.graph, prob.group, prob.phi)
    whole = sym_generic_verdict(basis, trials=20, seed=3)
    phases = basis.phases
    assert phases is not None
    per_member = sum(len(ph.ends) * (ph.columns + 1) for ph in phases)
    # 3 members per chunk: 20 trials make six chunks of 3 and one of 2
    monkeypatch.setattr(_numeric, "STACK_CELLS", 1 if cells == 1 else 3 * per_member + 1)
    assert [len(range(20)[p]) for p in _numeric.chunks(20, per_member)] == ([1] * 20 if cells == 1 else [3] * 6 + [2])
    cut = sym_generic_verdict(basis, trials=20, seed=3)
    assert cut.ranks == whole.ranks and cut.max_rank == whole.max_rank
    assert cut.witness.tobytes() == whole.witness.tobytes()
    assert_same_verdict(basis, 20, 3)


def test_chunks_cover_the_stack_in_order(monkeypatch):
    monkeypatch.setattr(_numeric, "STACK_CELLS", 10)
    assert _numeric.chunks(7, 3) == [slice(0, 3), slice(3, 6), slice(6, 9)]
    assert _numeric.chunks(2, 11) == [slice(0, 1), slice(1, 2)]
    assert _numeric.chunks(0, 3) == []


def test_stacked_verdicts_equal_single_verdicts():
    prob, phi = fixture_class("k33_phi_a")
    frameworks = draw_samples(config_space_basis(prob.graph, prob.group, phi), 6, seed=1)
    stacked = rigidity_verdicts(prob.graph, np.array([f.coords for f in frameworks]))
    assert stacked == [rigidity_verdict(f) for f in frameworks]


def test_each_member_is_ranked_against_its_own_largest_singular_value():
    stack = np.array([np.diag([2e-9, 1e-9]), np.diag([2.0, 1.0]), np.diag([2.0, 1e-9])])
    assert block_rank([(stack, 1)]).tolist() == [2, 2, 1]
    assert block_rank([(stack, 2), (stack[:, :1, :1], 1)]).tolist() == [5, 5, 3]
    prob, phi = fixture_class("k33_phi_a")
    p = draw_samples(config_space_basis(prob.graph, prob.group, phi), 1, seed=1)[0].coords
    small, large = rigidity_verdicts(prob.graph, np.array([1e-9 * p, p]))
    assert small == large == rigidity_verdict(Framework(prob.graph, p))


@pytest.mark.parametrize("name", fixture_names())
def test_rejected_draws_at_a_coarse_tolerance(name):
    prob, phi = fixture_class(name)
    basis = config_space_basis(prob.graph, prob.group, phi)
    if class_is_empty(basis)[0]:
        return
    assert_same_verdict(basis, 20, prob.seed, framework_tol=0.2)


def _record_generators(monkeypatch):
    """The random.Random instances symspace makes from here on, in order."""
    made = []

    class Recorded(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    return made


@pytest.mark.parametrize("cells", [None, 1, 7 * 9 * 2 + 1])
@pytest.mark.parametrize("name, tol", [("k33_phi_a", 0.7), ("k33_phi_a", 0.8), ("k33_phi_a", 0.9),
                                       ("gtp_psi_a", 0.7), ("c4_gadget", 0.6)])
def test_exhaustion_after_the_same_draws(name, tol, cells, monkeypatch):
    # 0.7 accepts 20 members in 313 draws; 0.8 and 0.9 accept none and give up at draw 100;
    # gtp_psi_a accepts 4 and gives up at draw 164.
    # A cell cap of 1 draws one member per stack; 127 cells take 7 members of K3,3 (9 bars, 2D).
    if cells is not None:
        monkeypatch.setattr(_numeric, "STACK_CELLS", cells)
    prob, phi = fixture_class(name)
    basis = config_space_basis(prob.graph, prob.group, phi)
    reference_rng = random.Random(prob.seed)
    expected = None
    try:
        reference = [reference_draw(basis, reference_rng, tol) for _ in range(20)]
    except SamplingExhausted as exc:
        expected = str(exc)
    made = _record_generators(monkeypatch)
    if expected is None:
        drawn = draw_samples(basis, 20, seed=prob.seed, framework_tol=tol)
        assert [f.coords.tobytes() for f in drawn] == [f.coords.tobytes() for f in reference]
    else:
        with pytest.raises(SamplingExhausted) as caught:
            draw_samples(basis, 20, seed=prob.seed, framework_tol=tol)
        assert str(caught.value) == expected
    assert made[0].getstate() == reference_rng.getstate()


def test_every_draw_rejected_gives_up_after_the_retry_budget(monkeypatch):
    prob, phi = fixture_class("k33_phi_a")
    basis = config_space_basis(prob.graph, prob.group, phi)
    made = _record_generators(monkeypatch)
    with pytest.raises(SamplingExhausted, match=f"no valid framework in {DRAW_RETRIES} draws"):
        sym_generic_verdict(basis, trials=20, seed=5, framework_tol=10.0)
    reference = random.Random(5)
    for _ in range(DRAW_RETRIES * basis.k):
        reference.random()
    assert made[0].getstate() == reference.getstate()


def reference_is_empty(graph, rows):
    """The emptiness verdict read bar by bar from a dense k x dn basis."""
    p = rows.reshape(len(rows), graph.n, rows.shape[1] // graph.n)
    offending = [(u, v) for u, v in graph.bars.tolist()
                 if np.max(np.abs(p[:, u] - p[:, v]), initial=0.0) <= FORCED_BAR_TOL]
    return (len(offending) > 0, offending)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=symmetric_classes())
def test_class_is_empty_matches_the_per_bar_test(case):
    graph, group, phi = case
    basis = config_space_basis(graph, group, phi)
    assert class_is_empty(basis) == reference_is_empty(graph, basis.basis)


@pytest.mark.parametrize("name", fixture_names())
def test_class_is_empty_matches_the_per_bar_test_on_fixtures(name):
    prob, phi = fixture_class(name)
    basis = config_space_basis(prob.graph, prob.group, phi)
    assert class_is_empty(basis) == reference_is_empty(prob.graph, basis.basis)


def einsum_blocks(graph, group, phi):
    """Each orbit's block of the class constraints as two einsum products, orbits as oracle._orbits orders them."""
    d = group.dim
    first = 1 if phi[0].is_identity() else 0
    mats, images = group.matrices()[first:], phi.array[first:]
    for orbit in oracle._orbits(graph.n, phi.images):
        m = len(orbit)
        perm = np.eye(m)[np.searchsorted(orbit, images[:, orbit])]
        block = np.einsum("ij,xab->xiajb", np.eye(m), mats) - np.einsum("xij,ab->xiajb", perm, np.eye(d))
        yield block.reshape(-1, m * d)


def stack_blocks(graph, group, phi):
    """Each orbit's block sliced out of oracle.constraint_stack, once every entry coupling two orbits is zero."""
    d, n = group.dim, graph.n
    stack = oracle.constraint_stack(group, phi.images, n).reshape(-1, n, d, n, d)
    orbits = oracle._orbits(n, phi.images)
    orbit_of = np.zeros(n, int)
    for i, orbit in enumerate(orbits):
        orbit_of[list(orbit)] = i
    across = orbit_of[:, None] != orbit_of[None, :]
    assert not stack.transpose(0, 1, 3, 2, 4)[:, across].any()  # the direct sum config_space_basis relies on
    for orbit in orbits:
        joints = list(orbit)
        yield stack[:, joints][:, :, :, joints].reshape(-1, len(orbit) * d)


def assert_same_blocks(graph, group, phi):
    ours = list(stack_blocks(graph, group, phi))
    theirs = list(einsum_blocks(graph, group, phi))
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.ndim == 2
        assert np.array_equal(a, b)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=symmetric_classes())
def test_orbit_blocks_equal_the_einsum_blocks(case):
    assert_same_blocks(*case)


@pytest.mark.parametrize("name", fixture_names())
def test_orbit_blocks_equal_the_einsum_blocks_on_fixtures(name):
    prob, phi = fixture_class(name)
    assert_same_blocks(prob.graph, prob.group, phi)


def _stdout(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@pytest.mark.parametrize("command", [("analyze",), ("sample", "--count", "20")])
def test_cli_output_does_not_depend_on_the_cell_cap(command, tmp_path, monkeypatch):
    import json

    path = tmp_path / "c3_space.json"
    path.write_text(json.dumps(PHASE_PROBLEMS["c3_space"]), encoding="utf-8")
    argv = [*command, "--problem", str(path)]
    whole = _stdout(argv)
    monkeypatch.setattr(_numeric, "STACK_CELLS", 1)
    assert _stdout(argv) == whole
