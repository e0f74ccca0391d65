"""Bad numbers on the command line, in problem files and in library tolerances, and the group validator's error class."""

import json
import math
import re

import numpy as np
import pytest

from symrig._numeric import kernel_basis
from symrig.classify import enumerate_types, find_base_type, find_homomorphic_type, verify_type
from symrig.cli import main
from symrig.errors import BadParam, InvalidGroup, ParseError, SymrigError
from symrig.graphs import Graph
from symrig.groups import OrthogonalOp, SymmetryGroup, rot2
from symrig.oracle import exhaustive_generic_check, validate_group
from symrig.problem import load_fixture, parse_problem, serialize_problem
from symrig.rigidity import Framework, affine_span_dim, rigidity_verdict
from symrig.symspace import config_space_basis, draw_samples, sample_config, sym_generic_verdict

SUBCOMMANDS = (["analyze"], ["sample"], ["types"], ["basis"], ["empty-check"], ["svg"],
               ["oracle", "types"], ["oracle", "generic"])


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestCliNumbers:
    @pytest.mark.parametrize("flag", ["--tol-rank", "--tol-geom"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-8"])
    def test_tolerance_must_be_finite_and_not_negative(self, capsys, flag, value):
        # the = form: argparse would read a bare "-inf" or "-1e-8" as an option
        code, out = run_cli(capsys, "analyze", "--fixture", "k33_phi_a", f"{flag}={value}")
        assert code == 3
        assert json.loads(out) == {"error": f"{flag} must be a finite number >= 0, got {float(value)}"}

    @pytest.mark.parametrize("flag", ["--tol-rank", "--tol-geom"])
    @pytest.mark.parametrize("value", ["-inf", "-1e-8", "-nan", "-1.5", "-3"])
    def test_negative_tolerance_as_a_separate_word(self, capsys, flag, value):
        code, out = run_cli(capsys, "analyze", "--fixture", "k33_phi_a", flag, value)
        assert code == 3
        assert json.loads(out) == {"error": f"{flag} must be a finite number >= 0, got {float(value)}"}

    def test_separate_negative_words_on_both_flags(self, capsys):
        code, out = run_cli(capsys, "basis", "--fixture", "k33_phi_a", "--tol-rank", "1e-8", "--tol-geom", "-inf")
        assert code == 3
        assert json.loads(out) == {"error": "--tol-geom must be a finite number >= 0, got -inf"}

    @pytest.mark.parametrize("flag, name", [("--tol-g", "--tol-geom"), ("--tol-r", "--tol-rank")])
    def test_abbreviated_flag_with_a_separate_negative_word(self, capsys, flag, name):
        code, out = run_cli(capsys, "analyze", "--fixture", "k33_phi_a", flag, "-1e-8")
        assert code == 3
        assert json.loads(out) == {"error": f"{name} must be a finite number >= 0, got -1e-08"}

    def test_option_after_a_tolerance_flag_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--fixture", "k33_phi_a", "--tol-rank", "--seed", "1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", SUBCOMMANDS, ids=" ".join)
    def test_every_subcommand_checks_its_numbers(self, capsys, command):
        for flag, value in (("--tol-rank", "nan"), ("--tol-geom", "inf"), ("--seed", "-1")):
            code, out = run_cli(capsys, *command, "--fixture", "k3_c2_swap", flag, value)
            assert code == 3
            assert json.loads(out)["error"].startswith(flag)

    def test_negative_seed(self, capsys):
        code, out = run_cli(capsys, "analyze", "--fixture", "k33_phi_a", "--seed", "-1")
        assert code == 3
        assert json.loads(out) == {"error": "--seed must be >= 0, got -1"}

    def test_zero_is_a_valid_tolerance_and_seed(self, capsys):
        code, out = run_cli(capsys, "basis", "--fixture", "k33_phi_a", "--tol-rank", "0", "--tol-geom", "0",
                            "--seed", "0")
        assert code == 0
        assert json.loads(out)["k"] == 6


# K4 in the plane: rank 5 of 6 bars
K4_PLANE = Framework(Graph.complete(4), np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.2]]))
K33 = load_fixture("k33_phi_a")
K2_IDENTITY = load_fixture("k2_c2_identity")  # an empty class: its bar is forced to zero length
RTOL_USES = {
    "rigidity_verdict": lambda rtol: rigidity_verdict(K4_PLANE, rank_rtol=rtol),
    "affine_span_dim": lambda rtol: affine_span_dim(K4_PLANE.coords, rtol),
    "sym_generic_verdict": lambda rtol: sym_generic_verdict(
        config_space_basis(K33.graph, K33.group, K33.phi), trials=2, rank_rtol=rtol),
    "kernel_basis": lambda rtol: kernel_basis(np.eye(3), rtol),
    "sym_generic_verdict of an empty class": lambda rtol: sym_generic_verdict(
        config_space_basis(K2_IDENTITY.graph, K2_IDENTITY.group, K2_IDENTITY.phi), trials=2, rank_rtol=rtol),
}
K2_SWAP = load_fixture("k2_c2_swap")  # a non-empty class
K2_COLLAPSED = Framework(K2_SWAP.graph, np.zeros((2, 2)))  # its bar has length 0
TOL_USES = {
    "draw_samples of an empty class": lambda tol: draw_samples(_basis(K2_IDENTITY), 1, framework_tol=tol),
    "sample_config": lambda tol: sample_config(_basis(K2_SWAP), framework_tol=tol),
    "sym_generic_verdict": lambda tol: sym_generic_verdict(_basis(K2_SWAP), trials=2, framework_tol=tol),
    "sym_generic_verdict of an empty class": lambda tol: sym_generic_verdict(
        _basis(K2_IDENTITY), trials=2, framework_tol=tol),
    "rigidity_verdict": lambda tol: rigidity_verdict(K2_COLLAPSED, framework_tol=tol),
    "verify_type": lambda tol: verify_type(_basis(K33), K33.coords, tol),
    "find_base_type": lambda tol: find_base_type(K33.graph, K33.coords, K33.group, tol),
    "enumerate_types": lambda tol: enumerate_types(K33.graph, K33.coords, K33.group, tol),
    "find_homomorphic_type": lambda tol: find_homomorphic_type(K33.graph, K33.coords, K33.group, tol),
    "exhaustive_generic_check": lambda tol: exhaustive_generic_check(K2_SWAP.coords, K2_SWAP.group, K2_SWAP.phi.images,
                                                                     evals=1, tol=tol),
}


def _basis(problem):
    return config_space_basis(problem.graph, problem.group, problem.phi)


class TestLibraryTolerances:
    @pytest.mark.parametrize("use", sorted(RTOL_USES))
    @pytest.mark.parametrize("rtol", [-1.0, math.nan, math.inf])
    def test_relative_tolerance_must_be_finite_and_not_negative(self, use, rtol):
        with pytest.raises(BadParam, match=re.escape(f"rtol must be a finite number >= 0, got {rtol}")):
            RTOL_USES[use](rtol)

    @pytest.mark.parametrize("use", sorted(TOL_USES))
    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_geometric_tolerance_must_be_finite_and_not_negative(self, use, tol):
        # Each of these once took the value: a bar of length 0 passed at -1 or nan, nan or inf
        # rejected every draw of a non-empty class as "no valid framework", and the oracle took
        # any configuration for a member of its class at nan or inf.
        with pytest.raises(BadParam, match=re.escape(f"tol must be a finite number >= 0, got {tol}")):
            TOL_USES[use](tol)

    def test_a_zero_tolerance_is_taken(self):
        assert rigidity_verdict(K4_PLANE, rank_rtol=0.0).bar_count == 6
        assert np.array_equal(kernel_basis(np.zeros((2, 3)), 0.0), np.eye(3))


class TestFileSeed:
    def test_negative_file_seed_is_a_parse_error(self):
        data = serialize_problem(load_fixture("k33_phi_a"))
        data["seed"] = -3
        with pytest.raises(ParseError, match="'seed' must be a non-negative integer"):
            parse_problem(data)

    def test_negative_file_seed_exits_3(self, tmp_path, capsys):
        data = serialize_problem(load_fixture("k33_phi_a"))
        data["seed"] = -3
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_cli(capsys, "analyze", "--problem", str(path))
        assert code == 3
        assert "seed" in json.loads(out)["error"]

    def test_zero_file_seed_is_accepted(self):
        data = serialize_problem(load_fixture("k33_phi_a"))
        data["seed"] = 0
        assert parse_problem(data).seed == 0


def _group(*ops):
    return SymmetryGroup(dim=2, elements=tuple(OrthogonalOp(m, label) for m, label in ops), name="broken")


class TestValidatorErrors:
    # The groups are built inside the tests: the constructor refuses all but the stretched list, which only the
    # validator's tighter orthogonality bound refuses.
    @pytest.mark.parametrize("ops, message", [
        (((np.eye(2), "Id"), (rot2(2 * math.pi / 3), "C3")), "product of elements 1 and 1 is missing"),
        (((np.eye(2), "Id"), (np.eye(2), "Id2")), "elements 0 and 1 coincide"),
        (((np.eye(2), "Id"), (-np.eye(2), "Id")), "element labels are not unique"),
        (((np.eye(2), "Id"), (-np.eye(2), "C2"), (rot2(math.pi / 2) * (1.0 + 1e-11), "C4"),
          (rot2(-math.pi / 2), "C4^3")), "element 2 (C4) fails orthogonality at 1e-12"),
    ], ids=["inverse", "duplicate", "labels", "orthogonality"])
    def test_raises_invalid_group(self, ops, message):
        with pytest.raises(InvalidGroup) as info:
            validate_group(_group(*ops))
        assert str(info.value) == message
        assert isinstance(info.value, SymrigError) and isinstance(info.value, ValueError)

    def test_missing_product(self):
        with pytest.raises(InvalidGroup, match="product of elements 1 and 1 is missing"):
            _group((np.eye(2), "Id"), (rot2(math.pi / 2), "C4"), (rot2(-math.pi / 2), "C4^3"))
