"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
Each test exercises a shipped problem end to end at the documented
tolerances; thresholds here are frozen and must not be loosened.
"""

import itertools

import numpy as np

from symrig._numeric import kernel_basis
from symrig.classify import (
    TypeAssignment,
    enumerate_types,
    find_base_type,
    find_homomorphic_type,
    is_homomorphism,
    restrict_type,
)
from symrig.graphs import Graph, Permutation, parse_cycles
from symrig.groups import schoenflies_group
from symrig.oracle import (
    brute_force_type_search,
    constraint_stack,
    exhaustive_generic_check,
    kernel_oracle,
    validate_group,
)
from symrig.problem import fixture_names, load_fixture
from symrig.rigidity import Framework, rigidity_verdict
from symrig.symspace import (
    class_is_empty,
    config_space_basis,
    constraint_residual,
    draw_samples,
    sym_generic_verdict,
)

SAMPLES = 100

# groups built only from exact matrix entries, where rational elimination applies
SVD_ONLY = {"c9_c3", "k2_c3_identity"}


def _report(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num:02d}: {label}")
    assert not failures, f"criterion {num:02d} ({label}): " + "; ".join(map(str, failures))


def _class(name):
    prob = load_fixture(name)
    phi = prob.phi
    if phi is None:
        phi = find_base_type(prob.graph, prob.coords, prob.group)
    return prob, phi


def _verdicts(name, count=SAMPLES):
    prob, phi = _class(name)
    basis = config_space_basis(prob.graph, prob.group, phi)
    frameworks = draw_samples(basis, count, seed=prob.seed)
    return prob, phi, [(f, rigidity_verdict(f)) for f in frameworks]


def test_criterion_01_mirror_k33_class_isostatic():
    failures = []
    prob, phi, pairs = _verdicts("k33_phi_a")
    good = sum(1 for _, v in pairs if v.rank == 9 and v.isostatic)
    if good < 99:
        failures.append(f"only {good}/100 samples were rank-9 isostatic")
    report = sym_generic_verdict(config_space_basis(prob.graph, prob.group, phi), seed=prob.seed)
    if not report.isostatic:
        failures.append("class verdict is not isostatic")
    if report.witness is None:
        failures.append("no witness configuration returned")
    _report(1, "mirror class of K3,3 is generically isostatic", failures)


def test_criterion_02_part_swapping_mirror_always_flexible():
    failures = []
    _, _, pairs = _verdicts("k33_phi_b")
    for i, (_, v) in enumerate(pairs):
        if v.rank > 8 or v.infinitesimally_rigid:
            failures.append(f"sample {i} has rank {v.rank}")
    _report(2, "part-swapping mirror class of K3,3 is never rigid", failures)


def test_criterion_03_triangular_prism_half_turn_classes():
    failures = []
    prob_a, phi_a = _class("gtp_psi_a")
    report = sym_generic_verdict(config_space_basis(prob_a.graph, prob_a.group, phi_a), seed=prob_a.seed)
    if not report.isostatic:
        failures.append("vertex-free half-turn class gave no isostatic witness")
    else:
        witness_rank = rigidity_verdict(Framework(prob_a.graph, report.witness)).rank
        if witness_rank != 9:
            failures.append(f"witness rank {witness_rank} != 9")
    _, _, pairs = _verdicts("gtp_psi_b")
    for i, (_, v) in enumerate(pairs):
        if v.rank > 8:
            failures.append(f"edge-fixing class sample {i} has rank {v.rank}")
    _report(3, "prism half-turn classes split isostatic vs degenerate", failures)


def test_criterion_04_spatial_k4_mirror_classes():
    failures = []
    prob_a, phi_a = _class("k4_upsilon_a")
    report = sym_generic_verdict(config_space_basis(prob_a.graph, prob_a.group, phi_a), seed=prob_a.seed)
    if not report.isostatic:
        failures.append("plane-reflection class gave no isostatic witness")
    else:
        witness_rank = rigidity_verdict(Framework(prob_a.graph, report.witness)).rank
        if witness_rank != 3 * 4 - 6:
            failures.append(f"witness rank {witness_rank} != 6")
    _, _, pairs = _verdicts("k4_upsilon_b")
    for i, (_, v) in enumerate(pairs):
        if v.rank > 5:
            failures.append(f"coplanar class sample {i} has rank {v.rank}")
        if v.affine_span_dim != 2:
            failures.append(f"coplanar class sample {i} spans dim {v.affine_span_dim}")
    _report(4, "spatial K4 mirror classes: isostatic vs coplanar", failures)


def test_criterion_05_half_turn_triangle_degenerate():
    failures = []
    _, _, pairs = _verdicts("k3_c2_swap")
    for i, (_, v) in enumerate(pairs):
        if v.affine_span_dim > 1:
            failures.append(f"sample {i} is not collinear")
        if v.rank != 2:
            failures.append(f"sample {i} has rank {v.rank}")
    _report(5, "half-turn triangle class is always a degenerate line", failures)


def test_criterion_06_class_emptiness():
    failures = []
    prob, phi = _class("k2_c2_identity")
    basis = config_space_basis(prob.graph, prob.group, phi)
    empty, offending = class_is_empty(basis)
    if not (empty and offending == [(0, 1)]):
        failures.append("half-turn identity class on one bar should force edge v1 v2")

    bar = Graph.make(2, [(0, 1)], ("v1", "v2"))
    c3 = schoenflies_group("C3", 2)
    choices = [Permutation.identity(2), Permutation((1, 0))]
    for a, b in itertools.product(choices, repeat=2):
        assignment = TypeAssignment((Permutation.identity(2), a, b))
        basis = config_space_basis(bar, c3, assignment)
        empty, offending = class_is_empty(basis)
        if not (empty and offending == [(0, 1)]):
            failures.append(f"third-turn class {a.images}/{b.images} not reported empty")

    prob, phi = _class("k33_phi_a")
    basis = config_space_basis(prob.graph, prob.group, phi)
    empty, _ = class_is_empty(basis)
    if empty:
        failures.append("mirror class of K3,3 wrongly reported empty")
    _report(6, "forced-bar emptiness test on one-bar and K3,3 classes", failures)


def test_criterion_07_type_enumeration_matches_brute_force():
    failures = []
    prob = load_fixture("gt_c2")
    catalog, normalized = enumerate_types(prob.graph, prob.coords, prob.group, normalized=True)
    labels = prob.graph.labels
    want = {
        parse_cycles("(v1 v2)", labels),
        parse_cycles("(v1 v2)(v3 v4)", labels),
    }
    got = {t.images[1] for t in normalized}
    if got != want:
        failures.append(f"normalized half-turn images {got} != {want}")
    if len(normalized) != 2:
        failures.append(f"{len(normalized)} normalized types instead of 2")
    if len(catalog.coincidence_group) != 2:
        failures.append(f"coincidence group has order {len(catalog.coincidence_group)}")

    for name in fixture_names():
        prob = load_fixture(name)
        if prob.coords is None:
            continue
        brute = brute_force_type_search(prob.graph, prob.coords, prob.group)
        _, fast = enumerate_types(prob.graph, prob.coords, prob.group)
        if set(brute.types) != set(fast):
            failures.append(f"{name}: catalog mismatch against brute force")
    _report(7, "type catalogs: two-triangle counts and brute-force agreement", failures)


def test_criterion_08_injective_frameworks_have_unique_homomorphic_type():
    failures = []
    c2 = schoenflies_group("C2", 2)
    k33 = Graph.complete_bipartite(3, 3)
    gadget = load_fixture("c4_gadget")
    classes = [
        ("k33_phi_b", *(lambda p: (p.graph, p.group, p.phi))(load_fixture("k33_phi_b"))),
        ("gtp_psi_a", *(lambda p: (p.graph, p.group, p.phi))(load_fixture("gtp_psi_a"))),
        ("gtp_psi_b", *(lambda p: (p.graph, p.group, p.phi))(load_fixture("gtp_psi_b"))),
        ("k33 half turn", k33, c2,
         TypeAssignment((Permutation.identity(6), parse_cycles("(v1 v6)(v2 v5)(v3 v4)", k33.labels)))),
        ("gadget double step", gadget.graph, c2,
         TypeAssignment((Permutation.identity(8),
                         parse_cycles("(v1 v3)(v2 v4)(x1 x3)(x2 x4)", gadget.graph.labels)))),
    ]
    checked = 0
    for label, graph, group, phi in classes:
        basis = config_space_basis(graph, group, phi)
        for seed in range(10):
            f = draw_samples(basis, 1, seed=seed)[0]
            spread = min(
                np.linalg.norm(f.coords[i] - f.coords[j])
                for i in range(graph.n) for j in range(i + 1, graph.n)
            )
            if spread <= 1e-8:
                failures.append(f"{label} seed {seed}: sample not injective")
                continue
            catalog, types = enumerate_types(graph, f.coords, group)
            if len(types) != 1:
                failures.append(f"{label} seed {seed}: {len(types)} types instead of 1")
            elif not is_homomorphism(group, types[0]):
                failures.append(f"{label} seed {seed}: unique type is not a homomorphism")
            else:
                checked += 1
    if checked != 50:
        failures.append(f"only {checked}/50 injective frameworks checked")

    for name in ("c9_c3", "c4_gadget"):
        prob = load_fixture(name)
        if find_homomorphic_type(prob.graph, prob.coords, prob.group) is not None:
            failures.append(f"{name}: unexpected homomorphic type found")
        brute = brute_force_type_search(prob.graph, prob.coords, prob.group)
        if any(is_homomorphism(prob.group, t) for t in brute.normalized):
            failures.append(f"{name}: brute force disagrees on homomorphism absence")
    _report(8, "unique homomorphic types on injective samples; absence on coincident ones", failures)


def test_criterion_09_basis_residuals_and_kernel_oracle():
    failures = []
    for name in fixture_names():
        prob, phi = _class(name)
        basis = config_space_basis(prob.graph, prob.group, phi)
        for j, row in enumerate(basis.basis):
            residual = constraint_residual(basis, row)
            if residual > 1e-9:
                failures.append(f"{name}: basis vector {j} violates constraints by {residual:.2e}")
        stack = constraint_stack(prob.group, phi.images, prob.graph.n)
        if name in SVD_ONLY:
            loose = kernel_basis(stack, rtol=1e-6).shape[0]
            if loose != basis.k:
                failures.append(f"{name}: kernel dim unstable across tolerances ({loose} vs {basis.k})")
        else:
            exact = kernel_oracle(stack)
            if exact != basis.k:
                failures.append(f"{name}: kernel oracle says {exact}, basis has {basis.k}")
    prob, phi = _class("k33_phi_a")
    if config_space_basis(prob.graph, prob.group, phi).k != 6:
        failures.append("mirror class of K3,3 should have a 6-dimensional space")
    _report(9, "basis residuals at 1e-9 and exact kernel dimensions", failures)


def test_criterion_10_subgroup_monotonicity():
    failures = []
    prob = load_fixture("k33_c2v")
    sub = schoenflies_group("Cs", 2)
    sub_phi = restrict_type(prob.group, prob.phi, sub)
    full_basis = config_space_basis(prob.graph, prob.group, prob.phi)
    if full_basis.k != 3:
        failures.append(f"four-element class space has k = {full_basis.k}, not 3")
    sub_basis = config_space_basis(prob.graph, sub, sub_phi)
    if sub_basis.k != 6:
        failures.append(f"mirror subgroup class space has k = {sub_basis.k}, not 6")
    for j, row in enumerate(full_basis.basis):
        residual = constraint_residual(sub_basis, row)
        if residual > 1e-9:
            failures.append(f"full-group basis vector {j} leaves the subgroup space by {residual:.2e}")
    full_ranks = [
        rigidity_verdict(f).rank for f in draw_samples(full_basis, 20, seed=prob.seed)
    ]
    sub_ranks = [
        rigidity_verdict(f).rank for f in draw_samples(sub_basis, 20, seed=prob.seed)
    ]
    if max(full_ranks) > max(sub_ranks):
        failures.append(f"max rank {max(full_ranks)} under the full group exceeds {max(sub_ranks)}")
    _report(10, "more symmetry never raises the sampled rank", failures)


def test_criterion_11_group_catalog_sizes_and_validity():
    failures = []
    for m in range(2, 9):
        for dim in (2, 3):
            cm = schoenflies_group(f"C{m}", dim)
            cmv = schoenflies_group(f"C{m}v", dim)
            if len(cm) != m:
                failures.append(f"C{m} in {dim}d has order {len(cm)}")
            if len(cmv) != 2 * m:
                failures.append(f"C{m}v in {dim}d has order {len(cmv)}")
            for g in (cm, cmv):
                try:
                    validate_group(g)
                except Exception as exc:
                    failures.append(f"{g.name} in {dim}d: {exc}")
    for name, size in (("Td", 24), ("Oh", 48), ("Ih", 120)):
        g = schoenflies_group(name, 3)
        if len(g) != size:
            failures.append(f"{name} has order {len(g)}, expected {size}")
        try:
            validate_group(g)
        except Exception as exc:
            failures.append(f"{name}: {exc}")
    _report(11, "point group catalog sizes and validator invariants", failures)


def test_criterion_12_minor_scan_genericity():
    failures = []
    c1 = schoenflies_group("C1", 2)
    identity_images = (Permutation.identity(3),)
    rng = np.random.default_rng(2026)
    for i in range(10):
        p = rng.uniform(-1.0, 1.0, (3, 2))
        report = exhaustive_generic_check(p, c1, identity_images)
        if not report.generic:
            failures.append(f"random triangle {i} reported non-generic")
    collinear = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 0.5]])
    if exhaustive_generic_check(collinear, c1, identity_images).generic:
        failures.append("collinear triangle reported generic")
    prob, phi = _class("k3_c2_swap")
    basis = config_space_basis(prob.graph, prob.group, phi)
    for i, f in enumerate(draw_samples(basis, 10, seed=prob.seed)):
        report = exhaustive_generic_check(f.coords, prob.group, phi.images)
        if not report.generic:
            failures.append(f"half-turn class sample {i} reported non-generic within its class")
    _report(12, "all-minors genericity scan agrees with known placements", failures)
