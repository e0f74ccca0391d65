"""Stacked class decisions against the one-member-at-a-time loop they replace.

sym_generic_verdict and draw_samples draw all trials as one coordinate stack,
and rigidity_verdicts ranks the stack in chunks of at most
_numeric.STACK_CELLS cells. Each check here compares them with a reference
kept in this file: the loop that drew one member, built its Framework and
called rigidity_verdict on it; the per-bar emptiness test; and the
two-einsum orbit block of the class-space builder.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symrig import _numeric, symspace
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
    """One member, drawn as before stacking: one weight vector per attempt."""
    g = basis.graph
    if basis.k == 0:
        f = Framework(g, np.zeros((g.n, basis.dim)))
        if f.edge_violations(framework_tol):
            raise SamplingExhausted("the class is empty: its only configuration collapses a bar")
        return f
    for _ in range(DRAW_RETRIES):
        weights = rng.uniform(-1.0, 1.0, basis.k)
        coords = (weights @ basis.basis).reshape(g.n, basis.dim)
        peak = np.max(np.abs(coords))
        if peak <= framework_tol:
            continue
        f = Framework(g, coords / peak)
        if not f.edge_violations(framework_tol):
            return f
    raise SamplingExhausted(f"no valid framework in {DRAW_RETRIES} draws")


def reference_verdict(graph, group, phi, trials, seed, framework_tol=1e-8):
    """(ranks, verdict of the first member of greatest rank, its coordinates)."""
    basis = config_space_basis(graph, group, phi)
    rng = np.random.default_rng(seed)
    best = witness = None
    ranks = []
    for _ in range(trials):
        f = reference_draw(basis, rng, framework_tol)
        report = rigidity_verdict(f, 1e-8, framework_tol, basis.phases)
        ranks.append(report.rank)
        if best is None or report.rank > best.rank:
            best, witness = report, f.coords
    return tuple(ranks), best, witness


def assert_same_verdict(graph, group, phi, trials, seed, framework_tol=1e-8):
    ranks, best, witness = reference_verdict(graph, group, phi, trials, seed, framework_tol)
    report = sym_generic_verdict(graph, group, phi, trials=trials, seed=seed, framework_tol=framework_tol)
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
        if class_is_empty(graph, config_space_basis(graph, group, phi))[0]:
            return
        try:
            reference_verdict(graph, group, phi, trials, seed)
        except SamplingExhausted:
            with pytest.raises(SamplingExhausted):
                sym_generic_verdict(graph, group, phi, trials=trials, seed=seed)
            return
        assert_same_verdict(graph, group, phi, trials, seed)


@pytest.mark.parametrize("name", sorted(PHASE_PROBLEMS))
@pytest.mark.parametrize("cells", [1, "uneven"])
def test_chunk_boundaries_do_not_change_the_verdict(name, cells, monkeypatch):
    from symrig.problem import parse_problem

    prob = parse_problem(PHASE_PROBLEMS[name])
    whole = sym_generic_verdict(prob.graph, prob.group, prob.phi, trials=20, seed=3)
    phases = config_space_basis(prob.graph, prob.group, prob.phi).phases
    assert phases is not None
    per_member = sum(len(ph.ends) * (ph.columns + 1) for ph in phases)
    # 3 members per chunk: 20 trials make six chunks of 3 and one of 2
    monkeypatch.setattr(_numeric, "STACK_CELLS", 1 if cells == 1 else 3 * per_member + 1)
    assert [len(range(20)[p]) for p in _numeric.chunks(20, per_member)] == ([1] * 20 if cells == 1 else [3] * 6 + [2])
    cut = sym_generic_verdict(prob.graph, prob.group, prob.phi, trials=20, seed=3)
    assert cut.ranks == whole.ranks and cut.max_rank == whole.max_rank
    assert cut.witness.tobytes() == whole.witness.tobytes()
    assert_same_verdict(prob.graph, prob.group, prob.phi, 20, 3)


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
    if class_is_empty(prob.graph, config_space_basis(prob.graph, prob.group, phi))[0]:
        return
    assert_same_verdict(prob.graph, prob.group, phi, 20, prob.seed, framework_tol=0.2)


def _record_generators(monkeypatch):
    made = []
    factory = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(factory(*a)) or made[-1])
    return made


@pytest.mark.parametrize("cells", [None, 1, 7 * 9 * 2 + 1])
@pytest.mark.parametrize("name, tol", [("k33_phi_a", 0.7), ("k33_phi_a", 0.8), ("k33_phi_a", 0.9),
                                       ("gtp_psi_a", 0.7), ("c4_gadget", 0.6)])
def test_exhaustion_after_the_same_draws(name, tol, cells, monkeypatch):
    # 0.7 accepts 20 members in 348 draws; 0.8 accepts 18 and gives up at draw 734.
    # A cell cap of 1 draws one member per stack; 127 cells take 7 members of K3,3 (9 bars, 2D).
    if cells is not None:
        monkeypatch.setattr(_numeric, "STACK_CELLS", cells)
    prob, phi = fixture_class(name)
    basis = config_space_basis(prob.graph, prob.group, phi)
    reference_rng = np.random.default_rng(prob.seed)
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
    assert made[0].bit_generator.state == reference_rng.bit_generator.state


def test_every_draw_rejected_gives_up_after_the_retry_budget(monkeypatch):
    prob, phi = fixture_class("k33_phi_a")
    basis = config_space_basis(prob.graph, prob.group, phi)
    made = _record_generators(monkeypatch)
    with pytest.raises(SamplingExhausted, match=f"no valid framework in {DRAW_RETRIES} draws"):
        sym_generic_verdict(prob.graph, prob.group, phi, trials=20, seed=5, framework_tol=10.0)
    reference = np.random.default_rng(5)
    reference.uniform(-1.0, 1.0, (DRAW_RETRIES, basis.k))
    assert made[0].bit_generator.state == reference.bit_generator.state


def reference_is_empty(graph, basis):
    p = basis.basis.reshape(basis.k, graph.n, basis.dim)
    offending = [(u, v) for u, v in graph.bars.tolist()
                 if np.max(np.abs(p[:, u] - p[:, v]), initial=0.0) <= FORCED_BAR_TOL]
    return (len(offending) > 0, offending)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=symmetric_classes(), cells=st.sampled_from([1, 7, 1 << 17]))
def test_class_is_empty_matches_the_per_bar_test(case, cells):
    graph, group, phi = case
    basis = config_space_basis(graph, group, phi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_numeric, "STACK_CELLS", cells)
        assert class_is_empty(graph, basis) == reference_is_empty(graph, basis)


@pytest.mark.parametrize("name", fixture_names())
def test_class_is_empty_matches_the_per_bar_test_on_fixtures(name, monkeypatch):
    prob, phi = fixture_class(name)
    basis = config_space_basis(prob.graph, prob.group, phi)
    expected = reference_is_empty(prob.graph, basis)
    assert class_is_empty(prob.graph, basis) == expected
    monkeypatch.setattr(_numeric, "STACK_CELLS", 1)
    assert class_is_empty(prob.graph, basis) == expected


def einsum_blocks(graph, group, phi):
    """The orbit blocks as two einsum products, as the builder made them before."""
    d = group.dim
    first = 1 if phi[0].is_identity() else 0
    mats, images = group.matrices()[first:], phi.array[first:]
    for orbit in symspace._orbits(graph.n, phi.images):
        m = len(orbit)
        perm = np.eye(m)[np.searchsorted(orbit, images[:, orbit])]
        block = np.einsum("ij,xab->xiajb", np.eye(m), mats) - np.einsum("xij,ab->xiajb", perm, np.eye(d))
        yield block.reshape(-1, m * d)


def built_blocks(graph, group, phi, monkeypatch):
    seen = []
    kernel = symspace.kernel_basis
    monkeypatch.setattr(symspace, "kernel_basis", lambda block: seen.append(block.copy()) or kernel(block))
    config_space_basis(graph, group, phi)
    return seen


def assert_same_blocks(graph, group, phi, monkeypatch):
    ours = built_blocks(graph, group, phi, monkeypatch)
    theirs = list(einsum_blocks(graph, group, phi))
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.ndim == 2
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()  # zeros carry the same sign too


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=symmetric_classes())
def test_orbit_blocks_equal_the_einsum_blocks(case):
    with pytest.MonkeyPatch.context() as mp:
        assert_same_blocks(*case, mp)


@pytest.mark.parametrize("name", fixture_names())
def test_orbit_blocks_equal_the_einsum_blocks_on_fixtures(name, monkeypatch):
    prob, phi = fixture_class(name)
    assert_same_blocks(prob.graph, prob.group, phi, monkeypatch)


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
