"""Bad numbers on the command line and in problem files, and the group validator's error class."""

import json
import math

import numpy as np
import pytest

from symrig.cli import main
from symrig.errors import InvalidGroup, ParseError, SymrigError
from symrig.groups import OrthogonalOp, SymmetryGroup, rot2
from symrig.oracle import validate_group
from symrig.problem import load_fixture, parse_problem, serialize_problem

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
    @pytest.mark.parametrize("group, message", [
        (_group((np.eye(2), "Id"), (rot2(2 * math.pi / 3), "C3")), "inverse of element 1 is missing"),
        (_group((np.eye(2), "Id"), (np.eye(2), "Id2")), "elements 0 and 1 coincide"),
        (_group((np.eye(2), "Id"), (-np.eye(2), "Id")), "element labels are not unique"),
        (_group((np.eye(2), "Id"), (-np.eye(2), "C2"), (rot2(math.pi / 2) * (1.0 + 1e-11), "C4"),
                (rot2(-math.pi / 2), "C4^3")), "element 2 (C4) fails orthogonality at 1e-12"),
    ], ids=["inverse", "duplicate", "labels", "orthogonality"])
    def test_raises_invalid_group(self, group, message):
        with pytest.raises(InvalidGroup) as info:
            validate_group(group)
        assert str(info.value) == message
        assert isinstance(info.value, SymrigError) and isinstance(info.value, ValueError)

    def test_missing_product(self):
        half = _group((np.eye(2), "Id"), (rot2(math.pi / 2), "C4"), (rot2(-math.pi / 2), "C4^3"))
        with pytest.raises(InvalidGroup, match="product of elements 1 and 1 is missing"):
            validate_group(half)
