import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrig import cli
from symrig.cli import main
from symrig.errors import ParseError, SelfLoop, UnknownGroup
from symrig.problem import (
    fixture_names,
    fixture_path,
    load_fixture,
    load_problem,
    parse_problem,
    serialize_problem,
)
from symrig.rigidity import Framework
from symrig.svg import render_svg

ALL_FIXTURES = [
    "c4_gadget",
    "c9_c3",
    "gbp_xi_a",
    "gbp_xi_b",
    "gt_c2",
    "gtp_psi_a",
    "gtp_psi_b",
    "k2_c2_identity",
    "k2_c2_swap",
    "k2_c3_identity",
    "k33_c2v",
    "k33_phi_a",
    "k33_phi_b",
    "k3_c2_swap",
    "k4_upsilon_a",
    "k4_upsilon_b",
]


def base_problem():
    return {
        "name": "bar",
        "dim": 2,
        "vertices": ["v1", "v2"],
        "edges": [["v1", "v2"]],
        "group": {"schoenflies": "C2"},
        "type": {"C2": "(v1 v2)"},
        "coords": {"v1": [0.6, 0.3], "v2": [-0.6, -0.3]},
        "seed": 5,
    }


class TestParseRejections:
    def test_not_an_object(self):
        with pytest.raises(ParseError):
            parse_problem([1, 2])

    def test_unknown_top_field(self):
        data = base_problem()
        data["extra"] = 1
        with pytest.raises(ParseError, match="extra"):
            parse_problem(data)

    def test_unknown_group_field(self):
        data = base_problem()
        data["group"] = {"schoenflies": "C2", "color": "red"}
        with pytest.raises(ParseError, match="color"):
            parse_problem(data)

    def test_unknown_param_field(self):
        data = base_problem()
        data["group"] = {"schoenflies": "C2", "params": {"angle": 3}}
        with pytest.raises(ParseError, match="angle"):
            parse_problem(data)

    @pytest.mark.parametrize("field", ["dim", "vertices", "edges", "group"])
    def test_required_fields(self, field):
        data = base_problem()
        del data[field]
        with pytest.raises(ParseError, match=field):
            parse_problem(data)

    def test_bad_dim(self):
        data = base_problem()
        data["dim"] = 4
        with pytest.raises(ParseError):
            parse_problem(data)

    def test_duplicate_vertices(self):
        data = base_problem()
        data["vertices"] = ["v1", "v1"]
        with pytest.raises(ParseError):
            parse_problem(data)

    @pytest.mark.parametrize("name", ["", "a b", "a\tb", "b\n", "a\u00a0b", "a,b", "(a", "a)", "()"])
    def test_vertex_names_that_cycle_notation_cannot_carry(self, name):
        data = base_problem()
        data["vertices"] = [name, "c"]
        data["edges"] = [[name, "c"]]
        data["type"] = "auto"
        data["coords"] = {name: [1.0, 0.5], "c": [-1.0, -0.5]}
        with pytest.raises(ParseError, match=re.escape(f"vertex name {name!r}")):
            parse_problem(data)

    def test_types_output_reads_back_as_an_explicit_type(self, tmp_path, capsys):
        data = base_problem()
        data["vertices"] = ["a.b", "c"]
        data["edges"] = [["a.b", "c"]]
        data["type"] = "auto"
        data["coords"] = {"a.b": [1.0, 0.5], "c": [-1.0, -0.5]}
        path = tmp_path / "names.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_cli(capsys, "types", "--problem", str(path))
        assert code == 0
        data["type"] = json.loads(out)["types"][0]
        assert data["type"]["C2"] == "(a.b c)"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert run_cli(capsys, "basis", "--problem", str(path))[0] == 0

    def test_unknown_edge_endpoint(self):
        data = base_problem()
        data["edges"] = [["v1", "zz"]]
        with pytest.raises(ParseError, match="zz"):
            parse_problem(data)

    @pytest.mark.parametrize("edges, message", [
        ([["v1", "v2"], ["v1", "zz"], ["yy", "v2"]], "edge endpoint 'zz' is not a declared vertex"),
        ([["v1", "v2"], ["yy", "zz"]], "edge endpoint 'yy' is not a declared vertex"),
        ([["v1", "v2"], ["v1"], ["v1", "zz"]], "each edge must be a pair of vertex names, got ['v1']"),
        ([["v1", "zz"], ["v1", 2]], "edge endpoint 'zz' is not a declared vertex"),
        ([["v1", "v2"], ["v1", 2], ["v1", "zz"]], "each edge must be a pair of vertex names, got ['v1', 2]"),
        ([("v1", "v2")], "each edge must be a pair of vertex names, got ('v1', 'v2')"),
    ])
    def test_first_faulty_edge_is_reported(self, edges, message):
        data = base_problem()
        data["edges"] = edges
        with pytest.raises(ParseError) as caught:
            parse_problem(data)
        assert str(caught.value) == message

    def test_self_loop(self):
        data = base_problem()
        data["edges"] = [["v1", "v1"]]
        with pytest.raises(SelfLoop):
            parse_problem(data)

    def test_duplicate_edge(self):
        data = base_problem()
        data["edges"] = [["v1", "v2"], ["v2", "v1"]]
        with pytest.raises(ParseError):
            parse_problem(data)

    def test_unknown_schoenflies(self):
        data = base_problem()
        data["group"] = {"schoenflies": "Q7"}
        with pytest.raises(UnknownGroup):
            parse_problem(data)

    def test_group_needs_a_route(self):
        data = base_problem()
        data["group"] = {}
        with pytest.raises(ParseError):
            parse_problem(data)

    def test_generators_exclude_schoenflies(self):
        data = base_problem()
        data["group"] = {"schoenflies": "C2", "generators": [[[1, 0], [0, 1]]]}
        with pytest.raises(ParseError):
            parse_problem(data)

    def test_nonclosing_generators(self):
        data = base_problem()
        data["group"] = {"generators": [[[0.8, -0.6], [0.6, 0.8]]]}
        # a rotation by an irrational angle never closes
        with pytest.raises(UnknownGroup):
            parse_problem(data)

    def test_closure_fault_is_not_a_user_error(self, monkeypatch):
        def faulty(generators):
            raise TypeError("fault inside the closure")

        monkeypatch.setattr("symrig.problem.close_group", faulty)
        data = base_problem()
        data["group"] = {"generators": [[[-1, 0], [0, -1]]]}
        with pytest.raises(TypeError, match="fault inside the closure"):
            parse_problem(data)

    def test_bad_type_mode(self):
        data = base_problem()
        data["type"] = "guess"
        with pytest.raises(ParseError):
            parse_problem(data)

    def test_type_key_not_an_element(self):
        data = base_problem()
        data["type"] = {"C3": "id"}
        with pytest.raises(ParseError, match="C3"):
            parse_problem(data)

    def test_type_missing_non_identity_element(self):
        data = base_problem()
        data["type"] = {"Id": "id"}
        with pytest.raises(ParseError, match="C2"):
            parse_problem(data)

    def test_bad_cycle_string(self):
        data = base_problem()
        data["type"] = {"C2": "(v1 v9)"}
        with pytest.raises(ParseError):
            parse_problem(data)

    def test_coords_missing_vertex(self):
        data = base_problem()
        del data["coords"]["v2"]
        with pytest.raises(ParseError, match="v2"):
            parse_problem(data)

    def test_coords_unknown_vertex(self):
        data = base_problem()
        data["coords"]["v9"] = [0.0, 0.0]
        with pytest.raises(ParseError, match="v9"):
            parse_problem(data)

    def test_coords_wrong_width(self):
        data = base_problem()
        data["coords"]["v1"] = [0.1, 0.2, 0.3]
        with pytest.raises(ParseError):
            parse_problem(data)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_coords_not_finite(self, bad):
        data = json.loads(json.dumps(base_problem()).replace("0.6, 0.3", f"{bad}, 0.3"))
        with pytest.raises(ParseError, match="finite"):
            parse_problem(data)

    def test_coords_integer_too_large_for_a_float(self, tmp_path, capsys):
        data = base_problem()
        data["coords"]["v1"] = [10**400, 0.3]
        with pytest.raises(ParseError, match="finite"):
            parse_problem(data)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_cli(capsys, "analyze", "--problem", str(path))
        assert code == 3
        assert "finite" in json.loads(out)["error"]

    def test_generator_integer_too_large_for_a_float(self):
        data = base_problem()
        data["group"] = {"generators": [[[10**400, 0], [0, -1]]]}
        with pytest.raises(ParseError, match="generators"):
            parse_problem(data)

    @pytest.mark.parametrize(
        "dim, group",
        [
            (2, '{"schoenflies": "Cs", "params": {"mirror_angle_deg": NaN}}'),
            (2, '{"schoenflies": "Cs", "params": {"mirror_angle_deg": Infinity}}'),
            (2, '{"schoenflies": "Cs", "params": {"mirror_angle_deg": 1%s}}' % ("0" * 400)),
            (3, '{"schoenflies": "C2", "params": {"axis": [0, NaN, 1]}}'),
            (3, '{"schoenflies": "D2", "params": {"secondary_axis": [NaN, 0, 0]}}'),
            (3, '{"schoenflies": "Cs", "params": {"mirror_normal": [0, -Infinity, 0]}}'),
        ],
        ids=["angle-nan", "angle-inf", "angle-huge-int", "axis-nan", "secondary-axis-nan", "normal-inf"],
    )
    def test_group_param_not_finite(self, dim, group):
        spec = json.loads(group)
        field = next(iter(spec["params"]))
        data = {"dim": dim, "vertices": ["v1"], "edges": [], "group": spec}
        with pytest.raises(ParseError, match=f"'{field}' must be .*finite"):
            parse_problem(data)

    @pytest.mark.parametrize("bad", [True, False])
    def test_coords_bool(self, bad):
        data = base_problem()
        data["coords"]["v1"] = [bad, 0.3]
        with pytest.raises(ParseError, match="'coords' entry for v1"):
            parse_problem(data)

    @pytest.mark.parametrize(
        "dim, group",
        [
            (2, {"schoenflies": "Cs", "params": {"mirror_angle_deg": True}}),
            (3, {"schoenflies": "C2", "params": {"axis": [0, False, True]}}),
            (3, {"schoenflies": "D2", "params": {"secondary_axis": [True, 0, 0]}}),
            (3, {"schoenflies": "Cs", "params": {"mirror_normal": [0, True, 0]}}),
        ],
        ids=["angle", "axis", "secondary-axis", "normal"],
    )
    def test_group_param_bool(self, dim, group):
        field = next(iter(group["params"]))
        data = {"dim": dim, "vertices": ["v1"], "edges": [], "group": group}
        with pytest.raises(ParseError, match=f"'{field}' must be"):
            parse_problem(data)

    def test_literal_group_given_m(self, tmp_path, capsys):
        data = {"dim": 3, "vertices": ["v1"], "edges": [], "group": {"schoenflies": "T", "params": {"m": 7}}}
        path = tmp_path / "t_with_m.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_cli(capsys, "analyze", "--problem", str(path))
        assert code == 3
        assert json.loads(out) == {"error": "T takes no parameter m"}

    @pytest.mark.parametrize(
        "generator",
        [
            [[True, False], [False, True]],
            [["-1", "0"], ["0", "-1"]],
            [[-1, 0], [0, "-1"]],
            [[-1, 0], [0, None]],
            [[-1, 0], [0, -1], [0, 0]],
            [[-1, 0, 0], [0, -1, 0]],
            [[float("nan"), 0], [0, -1]],
        ],
        ids=["bool", "strings", "one-string", "null", "three-rows", "three-columns", "nan"],
    )
    def test_generator_not_a_matrix_of_numbers(self, generator):
        data = base_problem()
        data["group"] = {"generators": [generator]}
        with pytest.raises(ParseError, match="'generators'"):
            parse_problem(data)

    @pytest.mark.parametrize("dim", [2.0, 3.0, True])
    def test_dim_not_an_integer(self, dim):
        data = base_problem()
        data["dim"] = dim
        with pytest.raises(ParseError, match="'dim'"):
            parse_problem(data)

    def test_bool_seed(self):
        data = base_problem()
        data["seed"] = True
        with pytest.raises(ParseError):
            parse_problem(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError, match="JSON"):
            load_problem(str(path))


class TestParseFeatures:
    def test_identity_entry_optional(self):
        data = base_problem()
        prob = parse_problem(data)
        assert prob.type_mode == "explicit"
        assert prob.phi is not None
        assert prob.phi[0].is_identity()
        assert not prob.has_identity_entry

    def test_mirror_angle_param(self):
        data = base_problem()
        data["group"] = {"schoenflies": "Cs", "params": {"mirror_angle_deg": 90}}
        data["type"] = "auto"
        prob = parse_problem(data)
        # vertical mirror: x -> -x
        assert np.allclose(prob.group.elements[1].matrix, [[-1, 0], [0, 1]])

    def test_generator_route(self):
        data = base_problem()
        data["group"] = {"generators": [[[-1, 0], [0, -1]]]}
        prob = parse_problem(data)
        assert len(prob.group) == 2

    def test_defaults(self):
        data = {
            "dim": 2,
            "vertices": ["v1"],
            "edges": [],
            "group": {"schoenflies": "C1"},
        }
        prob = parse_problem(data)
        assert prob.name == ""
        assert prob.seed == 0
        assert prob.type_mode == "auto"
        assert prob.coords is None


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixture_round_trip(self, name):
        first = load_fixture(name)
        second = parse_problem(serialize_problem(first))
        assert second.name == first.name
        assert second.dim == first.dim
        assert second.graph.labels == first.graph.labels
        assert second.graph.edges == first.graph.edges
        assert second.group.labels == first.group.labels
        assert second.type_mode == first.type_mode
        if first.phi is None:
            assert second.phi is None
        else:
            assert second.phi.images == first.phi.images
        if first.coords is None:
            assert second.coords is None
        else:
            assert np.array_equal(second.coords, first.coords)
        assert second.seed == first.seed

    def test_fixture_names_listing(self):
        assert fixture_names() == ALL_FIXTURES

    def test_unknown_fixture(self):
        with pytest.raises(ParseError, match="no shipped problem"):
            fixture_path("missing")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_analyze_isostatic_class(self, capsys):
        code, out = run_cli(capsys, "analyze", "--fixture", "k33_phi_a", "--trials", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["group"]["name"] == "Cs"
        assert payload["verdict"]["isostatic"] is True
        assert payload["given_configuration"]["satisfies_type"] is True
        assert payload["given_configuration"]["rigidity"]["rank"] == 9

    def test_analyze_empty_class(self, capsys):
        code, out = run_cli(capsys, "analyze", "--fixture", "k2_c2_identity")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"]["empty"] is True
        assert payload["verdict"]["samples_drawn"] == 0

    def test_sample_count_and_seed_override(self, capsys):
        code, out = run_cli(capsys, "sample", "--fixture", "gtp_psi_a", "--count", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 6
        assert len(payload["samples"]) == 3
        _, other = run_cli(capsys, "sample", "--fixture", "gtp_psi_a", "--count", "3", "--seed", "99")
        assert other != out

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_analyze_needs_a_trial(self, capsys, trials):
        code, out = run_cli(capsys, "analyze", "--fixture", "k33_phi_a", "--trials", trials)
        assert code == 3
        assert "trials" in json.loads(out)["error"]

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_sample_needs_a_count(self, capsys, count):
        code, out = run_cli(capsys, "sample", "--fixture", "k33_phi_a", "--count", count)
        assert code == 3
        assert "count" in json.loads(out)["error"]

    @pytest.mark.parametrize("evals", ["0", "-1"])
    def test_oracle_generic_needs_an_evaluation_point(self, capsys, evals):
        code, out = run_cli(capsys, "oracle", "generic", "--fixture", "gt_c2", "--evals", evals)
        assert code == 3
        assert "evals" in json.loads(out)["error"]

    def test_sample_draws_with_tol_geom(self, capsys):
        code, out = run_cli(capsys, "sample", "--fixture", "k33_phi_a", "--count", "20", "--tol-geom", "0.2")
        assert code == 0
        graph = load_fixture("k33_phi_a").graph
        for row in json.loads(out)["samples"]:
            p = np.array([row["coords"][label] for label in graph.labels])
            assert all(np.linalg.norm(p[u] - p[v]) > 0.2 for u, v in graph.edges)

    def test_svg_draws_with_tol_geom(self, tmp_path, capsys, monkeypatch):
        data = json.loads(Path(fixture_path("k33_phi_a")).read_text(encoding="utf-8"))
        del data["coords"]
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        drawn = []
        monkeypatch.setattr(cli, "render_svg", lambda framework, group, label_joints: drawn.append(framework) or "")
        code, _ = run_cli(capsys, "svg", "--problem", str(path), "--seed", "0", "--tol-geom", "0.2")
        assert code == 0
        p = drawn[0].coords
        assert all(np.linalg.norm(p[u] - p[v]) > 0.2 for u, v in drawn[0].graph.edges)

    def test_byte_identical_reruns(self, capsys):
        _, first = run_cli(capsys, "analyze", "--fixture", "k33_phi_b", "--trials", "4")
        _, second = run_cli(capsys, "analyze", "--fixture", "k33_phi_b", "--trials", "4")
        assert first == second

    def test_types_normalized(self, capsys):
        code, out = run_cli(capsys, "types", "--fixture", "gt_c2", "--normalized")
        assert code == 0
        payload = json.loads(out)
        assert payload["normalized_count"] == 2
        assert len(payload["types"]) == 2
        assert payload["coincidence_automorphisms"] == ["id", "(v3 v4)"]

    def test_basis_dimension(self, capsys):
        code, out = run_cli(capsys, "basis", "--fixture", "k33_c2v")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 3
        assert payload["max_residual"] <= 1e-9
        assert len(payload["vectors"]) == 3

    def test_empty_check(self, capsys):
        code, out = run_cli(capsys, "empty-check", "--fixture", "k2_c2_identity")
        assert code == 0
        payload = json.loads(out)
        assert payload["empty"] is True
        assert payload["forced_edges"] == [["v1", "v2"]]

    def test_oracle_types_match(self, capsys):
        code, out = run_cli(capsys, "oracle", "types", "--fixture", "c4_gadget")
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True
        assert payload["normalized_match"] is True

    def test_oracle_generic(self, capsys):
        code, out = run_cli(capsys, "oracle", "generic", "--fixture", "k3_c2_swap")
        assert code == 0
        payload = json.loads(out)
        assert payload["generic"] is True

    @pytest.mark.parametrize("given", ["auto", "explicit"])
    def test_oracle_generic_reads_tol_geom(self, tmp_path, capsys, given):
        # v2 sits 1e-5 off the half turn's image of v1: in the class at --tol-geom 1e-3, outside it at the default.
        data = json.loads(Path(fixture_path("k3_c2_swap")).read_text(encoding="utf-8"))
        data["coords"]["v2"] = [-0.7, -0.40001]
        if given == "auto":
            data["type"] = "auto"
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_cli(capsys, "analyze", "--problem", str(path), "--tol-geom", "1e-3")
        assert code == 0
        assert json.loads(out)["given_configuration"]["satisfies_type"] is True
        code, out = run_cli(capsys, "oracle", "generic", "--problem", str(path), "--tol-geom", "1e-3")
        assert code == 0
        assert json.loads(out)["generic"] is True
        code, out = run_cli(capsys, "oracle", "generic", "--problem", str(path))
        assert code == 3
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_problem_file(self, tmp_path, capsys, kind):
        path = tmp_path / "problem.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"\xff\xfe{}")
        code, out = run_cli(capsys, "analyze", "--problem", str(path))
        assert code == 3
        assert str(path) in json.loads(out)["error"]

    def test_domain_error_exit_code(self, capsys):
        code, out = run_cli(capsys, "analyze", "--fixture", "missing")
        assert code == 3
        payload = json.loads(out)
        assert "error" in payload

    def test_types_needs_coords(self, capsys):
        code, out = run_cli(capsys, "types", "--fixture", "k2_c2_identity")
        assert code == 3
        assert "coords" in json.loads(out)["error"]

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == 2

    def test_source_flags_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--problem", "a.json", "--fixture", "b"])
        assert exc.value.code == 2

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run_cli(
            capsys, "empty-check", "--fixture", "k2_c2_swap", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["empty"] is False

    def test_problem_path_route(self, tmp_path, capsys):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(base_problem()), encoding="utf-8")
        code, out = run_cli(capsys, "analyze", "--problem", str(path), "--trials", "3")
        assert code == 0
        assert json.loads(out)["name"] == "bar"


class TestSvg:
    def count(self, text, marker):
        return text.count(marker)

    def test_single_bar(self, capsys):
        code, out = run_cli(capsys, "svg", "--fixture", "k2_c2_swap")
        assert code == 0
        assert out.startswith("<svg ")
        assert self.count(out, '<line class="bar"') == 1
        assert self.count(out, '<circle class="joint"') == 2

    def test_coincident_joints_get_badge(self, capsys):
        code, out = run_cli(capsys, "svg", "--fixture", "gt_c2")
        assert code == 0
        assert self.count(out, '<line class="bar"') == 5
        assert self.count(out, '<circle class="joint"') == 4
        assert self.count(out, ">×2</text>") == 1

    def test_mirror_overlay_2d(self, capsys):
        _, out = run_cli(capsys, "svg", "--fixture", "k33_phi_a")
        assert self.count(out, '<line class="mirror"') == 1

    def test_two_mirrors_for_c2v(self, capsys):
        _, out = run_cli(capsys, "svg", "--fixture", "k33_c2v")
        assert self.count(out, '<line class="mirror"') == 2

    def test_spatial_mirror_outline(self, capsys):
        _, out = run_cli(capsys, "svg", "--fixture", "k4_upsilon_a")
        assert self.count(out, '<polyline class="mirror"') == 1
        assert self.count(out, '<circle class="joint"') == 4

    def test_labels_flag(self, capsys):
        _, out = run_cli(capsys, "svg", "--fixture", "k2_c2_swap", "--labels")
        assert self.count(out, '<text class="label"') == 2

    def test_isolated_vertex(self):
        prob = parse_problem(
            {
                "dim": 2,
                "vertices": ["v1"],
                "edges": [],
                "group": {"schoenflies": "C1"},
                "coords": {"v1": [0.4, 0.2]},
            }
        )
        text = render_svg(Framework(prob.graph, prob.coords))
        assert text.count('<line class="bar"') == 0
        assert text.count('<circle class="joint"') == 1

    def test_badge_rings_for_collapsed_cluster(self, capsys):
        _, out = run_cli(capsys, "svg", "--fixture", "c4_gadget")
        # four clusters of two joints each: eight circles, four badges
        assert self.count(out, '<circle class="joint"') == 8
        assert self.count(out, ">×2</text>") == 4

    def test_joints_coincide_at_the_library_tolerance(self):
        # 5e-10 apart is within graphs.COINCIDENT_JOINT_TOL (1e-9) and drawn as one spot; 5e-9 apart is drawn apart
        prob = parse_problem(
            {
                "dim": 2,
                "vertices": ["a", "b", "c", "d"],
                "edges": [["a", "c"]],
                "group": {"schoenflies": "C1"},
                "coords": {"a": [0.0, 0.0], "b": [5e-10, 0.0], "c": [1.0, 0.0], "d": [1.0 + 5e-9, 0.0]},
            }
        )
        text = render_svg(Framework(prob.graph, prob.coords))
        assert text.count('<circle class="joint"') == 4
        assert text.count(">×2</text>") == 1

    def test_clusters_do_not_depend_on_the_chunking(self, monkeypatch):
        from symrig import _numeric, svg

        rng = np.random.default_rng(5)
        spots = rng.uniform(-1.0, 1.0, (7, 3))
        picks = rng.integers(0, 7, 40)
        coords = spots[picks]
        whole = svg._coincidence_clusters(coords)
        monkeypatch.setattr(_numeric, "STACK_CELLS", 3 * 40 * 3)  # three joints a chunk
        assert svg._coincidence_clusters(coords) == whole
        want = {}
        for v, spot in enumerate(picks.tolist()):
            want.setdefault(spot, []).append(v)
        assert whole == list(want.values())


def test_parser_is_built_once_and_reused(capsys):
    from symrig.cli import build_parser

    assert build_parser() is build_parser()
    assert main(["types", "--fixture", "k33_phi_a"]) == 0
    first = capsys.readouterr().out
    assert main(["empty-check", "--fixture", "k33_phi_a"]) == 0
    assert main(["types", "--fixture", "k33_phi_a"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(first) and '"empty": false' in out


class TestOutPath:
    @pytest.mark.parametrize("kind", ["missing directory", "directory"])
    def test_unwritable_out_is_a_domain_error(self, tmp_path, capsys, kind):
        target = tmp_path / "missing" / "x.json" if kind == "missing directory" else tmp_path
        code, out = run_cli(capsys, "analyze", "--fixture", "k33_phi_a", "--trials", "1", "--out", str(target))
        assert code == 3
        assert json.loads(out)["error"].startswith(f"cannot write output file {target}: ")

    def test_out_writes_what_stdout_would_print(self, tmp_path, capsys):
        target = tmp_path / "x.json"
        code, printed = run_cli(capsys, "basis", "--fixture", "k33_phi_a")
        assert run_cli(capsys, "basis", "--fixture", "k33_phi_a", "--out", str(target)) == (0, "")
        assert target.read_text(encoding="utf-8") == printed


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf, "\u00e9\u2192\U0001f600", ""])
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=5) | st.dictionaries(st.text(max_size=5), children, max_size=5)
                      | st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6)
                      | st.just([]) | st.just({})),
    max_leaves=30,
)


def _reference_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(JSON_TREES)
    def test_same_text_as_json_dumps(self, payload):
        assert cli._json_text(payload) == _reference_text(payload)

    def test_keys_that_are_not_strings(self):
        payload = {"a": {2: [1.5], 10: None}, "b": [(1, 2.0)]}
        assert cli._json_text(payload) == _reference_text(payload)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_every_fixture_payload(self, name, monkeypatch, capsys):
        payloads = []
        writer = cli._json_text
        monkeypatch.setattr(cli, "_json_text", lambda payload: payloads.append(payload) or writer(payload))
        for command in (["analyze"], ["sample", "--count", "5"], ["types"], ["types", "--normalized"],
                        ["basis"], ["empty-check"], ["oracle", "types"], ["oracle", "generic"]):
            main([*command, "--fixture", name])
        capsys.readouterr()
        assert payloads
        for payload in payloads:
            assert writer(payload) == _reference_text(payload)
