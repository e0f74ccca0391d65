"""Problem files: the JSON interchange format for the command line tools.

A problem file names a graph, a point group, optionally a type and a
configuration. Parsing is strict: unknown fields are rejected so a typo
fails loudly instead of being ignored.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .classify import TypeAssignment
from .errors import BadParam, BadPermutation, InvalidGraph, ParseError, SymrigError, UnknownGroup, UnknownName
from .graphs import Graph, Permutation, parse_cycles
from .groups import SymmetryGroup, close_group, schoenflies_group

TOP_FIELDS = {"name", "description", "dim", "vertices", "edges", "group", "type", "coords", "seed"}
GROUP_FIELDS = {"schoenflies", "params", "generators"}
PARAM_FIELDS = {"m", "mirror_angle_deg", "axis", "secondary_axis", "mirror_normal"}
TYPE_MODES = ("auto", "enumerate")
# Cycle notation splits vertex names at whitespace and commas and reads parentheses as cycles.
NAME_BREAK = re.compile(r"[\s,()]")


@dataclass(frozen=True, eq=False)
class ProblemFile:
    """A parsed problem: graph, group, and optional type and coordinates."""

    name: str
    description: str
    dim: int
    graph: Graph
    group: SymmetryGroup
    group_spec: dict
    type_mode: str
    phi: TypeAssignment | None
    coords: np.ndarray | None
    seed: int
    has_identity_entry: bool = field(default=True)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _finite(c) -> bool:
    """A JSON number that converts to a finite float: not a boolean, nor an integer too large for a float."""
    try:
        return isinstance(c, (int, float)) and not isinstance(c, bool) and math.isfinite(c)
    except OverflowError:
        return False


def _numbers(value, length: int) -> bool:
    """A list of `length` finite JSON numbers."""
    return isinstance(value, list) and len(value) == length and all(_finite(c) for c in value)


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(data) - allowed)
    if extra:
        raise ParseError(f"unknown field(s) in {where}: {', '.join(extra)}")


def _parse_group(spec, dim: int) -> SymmetryGroup:
    _expect(isinstance(spec, dict), "'group' must be an object")
    _reject_unknown(spec, GROUP_FIELDS, "'group'")
    if "generators" in spec:
        _expect("schoenflies" not in spec and "params" not in spec,
                "'generators' excludes 'schoenflies' and 'params'")
        gens = spec["generators"]
        _expect(isinstance(gens, list) and gens, "'generators' must be a non-empty list of matrices")
        for g in gens:
            _expect(isinstance(g, list) and len(g) == dim and all(_numbers(row, dim) for row in g),
                    f"'generators' entries must be {dim}x{dim} matrices of finite numbers")
        try:
            return close_group([np.array(g, dtype=float) for g in gens])
        except SymrigError as exc:
            raise UnknownGroup(f"generator closure failed: {exc}") from exc
    _expect("schoenflies" in spec, "'group' needs 'schoenflies' or 'generators'")
    name = spec["schoenflies"]
    _expect(isinstance(name, str), "'schoenflies' must be a string")
    params = spec.get("params", {})
    _expect(isinstance(params, dict), "'params' must be an object")
    _reject_unknown(params, PARAM_FIELDS, "'group.params'")
    kwargs: dict = {}
    if "m" in params:
        _expect(isinstance(params["m"], int) and not isinstance(params["m"], bool), "'m' must be an integer")
        kwargs["m"] = params["m"]
    if "mirror_angle_deg" in params:
        _expect(_finite(params["mirror_angle_deg"]), "'mirror_angle_deg' must be a finite number")
        kwargs["mirror_angle"] = math.radians(float(params["mirror_angle_deg"]))
    for key in ("axis", "secondary_axis", "mirror_normal"):
        if key in params:
            _expect(_numbers(params[key], dim), f"'{key}' must be a list of {dim} finite numbers")
            kwargs[key] = params[key]
    try:
        return schoenflies_group(name, dim, **kwargs)
    except (UnknownName, BadParam) as exc:
        raise UnknownGroup(str(exc)) from exc


def _parse_type(spec, graph: Graph, group: SymmetryGroup) -> tuple[str, TypeAssignment | None, bool]:
    if isinstance(spec, str):
        _expect(spec in TYPE_MODES, f"'type' must be one of {TYPE_MODES} or an object")
        return spec, None, True
    _expect(isinstance(spec, dict), "'type' must be a mode string or an object of cycle strings")
    labels = group.labels
    _reject_unknown(spec, set(labels), "'type'")
    has_identity_entry = labels[0] in spec
    images = []
    for i, label in enumerate(labels):
        if label not in spec:
            _expect(i == 0, f"'type' is missing an entry for {label}")
            images.append(Permutation.identity(graph.n))
            continue
        text = spec[label]
        _expect(isinstance(text, str), f"'type' entry for {label} must be a cycle string")
        try:
            images.append(parse_cycles(text, graph.index))
        except BadPermutation as exc:
            raise ParseError(f"'type' entry for {label}: {exc}") from exc
    return "explicit", TypeAssignment(images=tuple(images)), has_identity_entry


def parse_problem(data: dict) -> ProblemFile:
    """Build a ProblemFile from decoded JSON, rejecting anything off-schema."""
    _expect(isinstance(data, dict), "problem must be a JSON object")
    _reject_unknown(data, TOP_FIELDS, "problem")

    name = data.get("name", "")
    _expect(isinstance(name, str), "'name' must be a string")
    description = data.get("description", "")
    _expect(isinstance(description, str), "'description' must be a string")

    _expect("dim" in data, "'dim' is required")
    dim = data["dim"]
    _expect(isinstance(dim, int) and dim in (2, 3), "'dim' must be the integer 2 or 3")

    _expect("vertices" in data, "'vertices' is required")
    vertices = data["vertices"]
    _expect(isinstance(vertices, list) and vertices
            and all(isinstance(v, str) for v in vertices),
            "'vertices' must be a non-empty list of strings")
    _expect(len(set(vertices)) == len(vertices), "'vertices' must be distinct")
    bad = next((v for v in vertices if not v or NAME_BREAK.search(v)), None)
    _expect(bad is None, f"vertex name {bad!r} must be non-empty, without whitespace, ',', '(' or ')'")
    labels = tuple(vertices)
    index = {v: i for i, v in enumerate(labels)}

    _expect("edges" in data, "'edges' is required")
    edges_raw = data["edges"]
    _expect(isinstance(edges_raw, list), "'edges' must be a list")
    pairs = []
    for e in edges_raw:  # a message is formatted only for a faulty edge: _expect would format one per check
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
            raise ParseError(f"each edge must be a pair of vertex names, got {e!r}")
        for x in e:
            if x not in index:
                raise ParseError(f"edge endpoint {x!r} is not a declared vertex")
        pairs.append((index[e[0]], index[e[1]]))
    try:
        graph = Graph.make(len(labels), pairs, labels)
    except InvalidGraph as exc:
        raise ParseError(str(exc)) from exc

    _expect("group" in data, "'group' is required")
    group = _parse_group(data["group"], dim)

    type_spec = data.get("type", "auto")
    type_mode, phi, has_identity_entry = _parse_type(type_spec, graph, group)

    coords = None
    if "coords" in data:
        raw = data["coords"]
        _expect(isinstance(raw, dict), "'coords' must map vertex names to points")
        _reject_unknown(raw, set(labels), "'coords'")
        missing = [v for v in labels if v not in raw]
        _expect(not missing, f"'coords' is missing {', '.join(missing)}")
        rows = []
        for v in labels:
            _expect(_numbers(raw[v], dim), f"'coords' entry for {v} must be a list of {dim} finite numbers")
            rows.append([float(c) for c in raw[v]])
        coords = np.array(rows, dtype=float)

    seed = data.get("seed", 0)
    _expect(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0, "'seed' must be a non-negative integer")

    return ProblemFile(
        name=name, description=description, dim=dim, graph=graph, group=group,
        group_spec=data["group"], type_mode=type_mode, phi=phi, coords=coords,
        seed=seed, has_identity_entry=has_identity_entry,
    )


def serialize_problem(problem: ProblemFile) -> dict:
    """Dict form of a problem, the inverse of parse_problem."""
    out: dict = {}
    if problem.name:
        out["name"] = problem.name
    if problem.description:
        out["description"] = problem.description
    out["dim"] = problem.dim
    out["vertices"] = list(problem.graph.labels)
    out["edges"] = [[problem.graph.labels[u], problem.graph.labels[v]]
                    for u, v in problem.graph.bars.tolist()]
    out["group"] = problem.group_spec
    if problem.type_mode == "explicit":
        assert problem.phi is not None
        out["type"] = problem.phi.as_dict(problem.group, problem.graph)
        if not problem.has_identity_entry:
            del out["type"][problem.group.labels[0]]
    else:
        out["type"] = problem.type_mode
    if problem.coords is not None:
        out["coords"] = dict(zip(problem.graph.labels, problem.coords.tolist()))
    out["seed"] = problem.seed
    return out


def load_problem(path: str) -> ProblemFile:
    """Parse the JSON problem file at path."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read problem file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"problem file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    return parse_problem(data)


def fixture_names() -> list[str]:
    """Names of the problem files shipped with the package."""
    root = resources.files("symrig").joinpath("fixtures")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def fixture_path(name: str) -> str:
    """Filesystem path of a shipped problem file."""
    path = resources.files("symrig").joinpath("fixtures", f"{name}.json")
    if not path.is_file():
        raise ParseError(f"no shipped problem named {name!r}; have: {', '.join(fixture_names())}")
    return str(path)


def load_fixture(name: str) -> ProblemFile:
    """Parse a shipped problem file by name."""
    return load_problem(fixture_path(name))
