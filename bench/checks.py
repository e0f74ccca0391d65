"""Output checks, written with the benchmark's own numpy code.

``check_command`` compares one command's exit code and JSON output with the
expected values its workload attached to it. ``check_problem`` is the
generator check run before any timing. Sampled coordinates are never
compared byte for byte: a member of a class only has to satisfy
x(p_v) = p_{phi_x(v)} for every operation x.
"""

from __future__ import annotations

import json

import numpy as np

MEMBER_TOL = 1e-8
RESIDUAL_TOL = 1e-9
TOP_FIELDS = {"name", "description", "dim", "vertices", "edges", "group", "type", "coords", "seed"}


def parse_cycle_string(text: str) -> dict[str, str]:
    """Moved vertex names and their images, from cycle notation like "(v1 v2)(v5 v6)"."""
    image = {}
    for body in text.replace(")", "(").split("("):
        cyc = body.replace(",", " ").split()
        for pos, v in enumerate(cyc):
            if cyc[(pos + 1) % len(cyc)] != v:
                image[v] = cyc[(pos + 1) % len(cyc)]
    return image


def _ops(info: dict) -> list[tuple[str | None, np.ndarray]]:
    return [(label, np.array(m, dtype=float)) for label, m in info["ops"] or []]


def membership_error(info: dict, coords: dict) -> float:
    """Largest violation of x(p_v) = p_{phi_x(v)} over operations x and joints v.

    With no explicit type (``type: "auto"``) the operations only have to map
    the joint positions onto themselves.
    """
    names = info["vertices"]
    p = np.array([coords[v] for v in names], dtype=float)
    scale = max(1.0, float(np.max(np.abs(p)))) if p.size else 1.0
    worst = 0.0
    for label, mat in _ops(info):
        moved = p @ mat.T
        if info["phi"] is not None:
            image = info["phi"].get(label)
            target = p if image is None else p[[names.index(image[v]) for v in names]]
            worst = max(worst, float(np.max(np.abs(moved - target))))
        else:
            gaps = np.linalg.norm(moved[:, None, :] - p[None, :, :], axis=2)
            worst = max(worst, float(np.max(np.min(gaps, axis=1))))
    return worst / scale


def _expect_equal(failures: list[str], what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what} is {got!r}, expected {want!r}")


def _check_verdict(failures: list[str], where: str, got: dict, want: dict) -> None:
    for key, value in want.items():
        _expect_equal(failures, f"{where}.{key}", got.get(key), value)


def check_command(cmd: dict, code, text: str, info: dict) -> list[str]:
    """Failures of one command against its expectations; empty when correct."""
    expect = cmd["expect"]
    failures: list[str] = []
    if code != expect["exit"]:
        return [f"exit code {code!r}, expected {expect['exit']}"]
    kind = cmd["argv"][0]
    if kind == "svg" and code == 0:
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            failures.append("output is not an SVG document")
        return failures
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if code != 0:
        if set(out) != {"error"} or not isinstance(out["error"], str):
            failures.append("a failed command must print only an error message")
        return failures

    k = out["verdict"]["k"] if kind == "analyze" else out.get("k")
    if "k" in expect:
        _expect_equal(failures, "k", k, expect["k"])
    if kind == "analyze":
        verdict = out["verdict"]
        if "empty" in expect:
            _expect_equal(failures, "verdict.empty", verdict["empty"], expect["empty"])
        if "max_rank" in expect:
            _expect_equal(failures, "verdict.max_rank", verdict["max_rank"], expect["max_rank"])
        if "order" in expect:
            _expect_equal(failures, "group.order", out["group"]["order"], expect["order"])
        _check_verdict(failures, "verdict", verdict, expect.get("verdict", {}))
        if "given" in expect:
            given = out.get("given_configuration", {})
            _expect_equal(failures, "given_configuration.satisfies_type",
                          given.get("satisfies_type"), True)
            _check_verdict(failures, "given_configuration.rigidity", given.get("rigidity", {}),
                           expect["given"])
        if "witness" in verdict and membership_error(info, verdict["witness"]) > MEMBER_TOL:
            failures.append("the witness is not a member of the class")
    elif kind == "sample":
        rows = out["samples"]
        _expect_equal(failures, "sample count", len(rows), expect["count"])
        for i, row in enumerate(rows):
            if membership_error(info, row["coords"]) > MEMBER_TOL:
                failures.append(f"sample {i} is not a member of the class")
            _check_verdict(failures, f"samples[{i}]", row, expect.get("verdict", {}))
    elif kind == "basis":
        if not out["max_residual"] <= RESIDUAL_TOL:
            failures.append(f"max_residual {out['max_residual']} exceeds {RESIDUAL_TOL}")
        if len(out["vectors"]) != k:
            failures.append(f"{len(out['vectors'])} vectors for k = {k}")
        elif k:
            vectors = np.array(out["vectors"], dtype=float)
            if np.max(np.abs(vectors @ vectors.T - np.eye(k))) > RESIDUAL_TOL:
                failures.append("basis vectors are not orthonormal")
            d = info["dim"]
            for j, vec in enumerate(vectors):
                coords = dict(zip(info["vertices"], vec.reshape(-1, d).tolist()))
                if membership_error(info, coords) > RESIDUAL_TOL:
                    failures.append(f"basis vector {j} is not in the class space")
                    break
    elif kind == "empty-check":
        if "empty" in expect:
            _expect_equal(failures, "empty", out["empty"], expect["empty"])
        if "forced" in expect:
            _expect_equal(failures, "forced edge count", len(out["forced_edges"]), expect["forced"])
    elif kind == "types":
        # Valid images of each operation form a coset of the coincidence group.
        order = len(out["coincidence_automorphisms"])
        sizes = set(out["valid_set_sizes"].values())
        if sizes != {order}:
            failures.append(f"valid set sizes {sorted(sizes)} differ from |coincidence| = {order}")
        _expect_equal(failures, "count", out["count"], out["normalized_count"] * order)
        _expect_equal(failures, "listed types", len(out["types"]), out["count"])
        if "types" in expect:
            _expect_equal(failures, "count", out["count"], expect["types"])
    return failures


def check_problem(data: dict, info: dict) -> list[str]:
    """Generator check: schema, edge set, and that the type maps bars onto bars.

    For an explicit type every entry must be an automorphism, which is the
    same as the bar set being closed under the type. Without a type the
    given operations must permute the joints and map bars onto bars.
    """
    failures: list[str] = []
    extra = set(data) - TOP_FIELDS
    if extra:
        failures.append(f"unknown fields {sorted(extra)}")
    names = data["vertices"]
    if len(set(names)) != len(names):
        failures.append("vertex names repeat")
    bars = {frozenset(e) for e in data["edges"]}
    if len(bars) != len(data["edges"]) or any(len(b) != 2 or not b <= set(names) for b in bars):
        failures.append("edges must be distinct pairs of declared vertices")
    if "coords" in data and set(data["coords"]) != set(names):
        failures.append("coords must name every vertex once")
    if info["phi"] is not None:
        maps = list(info["phi"].items())
        for label, text in data["type"].items():
            if parse_cycle_string(text) != {v: w for v, w in info["phi"][label].items() if v != w}:
                failures.append(f"type entry {label} differs from the checker's type")
    elif "coords" in data:
        p = np.array([data["coords"][v] for v in names], dtype=float)
        maps = []
        for label, mat in _ops(info):
            gaps = np.linalg.norm((p @ mat.T)[:, None, :] - p[None, :, :], axis=2)
            nearest = np.argmin(gaps, axis=1)
            if np.max(gaps[np.arange(len(names)), nearest]) > MEMBER_TOL * max(1.0, np.max(np.abs(p))):
                failures.append(f"the joints are not symmetric under operation {label or '?'}")
                continue
            maps.append((label, {v: names[j] for v, j in zip(names, nearest)}))
    else:
        maps = []
    for label, image in maps:
        if sorted(image.values()) != sorted(names):
            failures.append(f"the image of {label} is not a permutation")
        elif {frozenset((image[u], image[v])) for u, v in map(tuple, bars)} != bars:
            failures.append(f"the image of {label} does not map bars onto bars")
    return failures
