"""Command line front end.

Every subcommand reads a problem file (or a shipped fixture by name),
prints deterministic JSON (or SVG) to stdout, and uses exit codes:
0 success, 2 usage error, 3 domain error with {"error": ...} on stdout.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys

import numpy as np

from .classify import (
    TypeAssignment,
    enumerate_types,
    find_base_type,
    is_homomorphism,
    verify_type,
)
from .errors import BadParam, InvalidFramework, NotInSymmetryClass, SymrigError
from .graphs import format_cycles
from .problem import ProblemFile, load_fixture, load_problem
from .rigidity import Framework, rigidity_verdict, rigidity_verdicts
from .symspace import (
    class_is_empty,
    config_space_basis,
    constraint_residual,
    draw_samples,
    sample_config,
    sym_generic_verdict,
)
from .svg import render_svg


def _check_numbers(args) -> None:
    """Reject a tolerance that is not a finite number >= 0, and a negative seed."""
    for flag, value in (("--tol-rank", args.tol_rank), ("--tol-geom", args.tol_geom)):
        if not (math.isfinite(value) and value >= 0):
            raise BadParam(f"{flag} must be a finite number >= 0, got {value}")
    if args.seed is not None and args.seed < 0:
        raise BadParam(f"--seed must be >= 0, got {args.seed}")


def _seed(args, problem: ProblemFile) -> int:
    return problem.seed if args.seed is None else args.seed


def _resolve_phi(problem: ProblemFile, tol: float) -> TypeAssignment:
    if problem.type_mode == "explicit":
        assert problem.phi is not None
        return problem.phi
    if problem.type_mode == "enumerate":
        raise NotInSymmetryClass(
            "type mode 'enumerate' does not pick a single type; use the types command "
            "or set an explicit type"
        )
    if problem.coords is None:
        raise NotInSymmetryClass("type mode 'auto' needs coords to classify against")
    phi = find_base_type(problem.graph, problem.coords, problem.group, tol)
    if phi is None:
        raise NotInSymmetryClass("the given configuration admits no type for this group")
    return phi


def _need_coords(problem: ProblemFile) -> None:
    if problem.coords is None:
        raise NotInSymmetryClass("this command needs explicit coords in the problem file")


def _framework(problem: ProblemFile, phi: TypeAssignment, args) -> Framework:
    if problem.coords is not None:
        return Framework(problem.graph, problem.coords)
    basis = config_space_basis(problem.graph, problem.group, phi)
    return sample_config(basis, seed=_seed(args, problem), framework_tol=args.tol_geom)


def _json_text(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) plus a newline, without json's Python encoder.

    indent forces json onto its pure-Python encoder, which is slow on long
    coordinate lists. This writes the same text: dicts with string keys and
    lists are laid out here, lists of finite floats joined through
    float.__repr__, strings, ints, bools and None through json's C encoder,
    and everything else through json.dumps with those arguments.
    """
    out: list[str] = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    inner = newline + "  "
    if type(value) is dict and value and all(type(key) is str for key in value):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            out.append(("," if i else "") + inner + json.dumps(key) + ": ")
            _write_json(value[key], inner, out)
        out.append(newline + "}")
    elif type(value) is list and value:
        if all(type(item) is float for item in value):
            text = ("," + inner).join(map(float.__repr__, value))
            if "n" not in text:  # nan and inf, which json spells NaN and Infinity
                out.append("[" + inner + text + newline + "]")
                return
        out.append("[")
        for i, item in enumerate(value):
            out.append("," + inner if i else inner)
            _write_json(item, inner, out)
        out.append(newline + "]")
    elif value is None or type(value) in (str, int, bool):
        out.append(json.dumps(value))  # a scalar prints the same without a new indenting encoder
    else:
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


def cmd_analyze(problem: ProblemFile, args) -> str:
    phi = _resolve_phi(problem, args.tol_geom)
    report = sym_generic_verdict(
        problem.graph, problem.group, phi,
        trials=args.trials, seed=_seed(args, problem),
        rank_rtol=args.tol_rank, framework_tol=args.tol_geom,
    )
    payload = {
        "name": problem.name,
        "dim": problem.dim,
        "group": {
            "name": problem.group.name,
            "order": len(problem.group),
            "elements": list(problem.group.labels),
        },
        "type": {
            "assignment": phi.as_dict(problem.group, problem.graph),
            "homomorphism": is_homomorphism(problem.group, phi),
        },
        "verdict": report.to_dict(problem.graph.labels),
    }
    if problem.coords is not None:
        framework = Framework(problem.graph, problem.coords)
        section = {"satisfies_type": verify_type(problem.graph, problem.coords,
                                                 problem.group, phi, args.tol_geom)}
        try:
            section["rigidity"] = rigidity_verdict(framework, args.tol_rank, args.tol_geom).to_dict()
        except InvalidFramework as exc:
            section["rigidity"] = {"error": str(exc)}
        payload["given_configuration"] = section
    return _json_text(payload)


def cmd_sample(problem: ProblemFile, args) -> str:
    phi = _resolve_phi(problem, args.tol_geom)
    basis = config_space_basis(problem.graph, problem.group, phi)
    samples = draw_samples(basis, args.count, seed=_seed(args, problem), framework_tol=args.tol_geom)
    verdicts = rigidity_verdicts(problem.graph, np.array([f.coords for f in samples]), args.tol_rank, basis.phases)
    rows = []
    for f, verdict in zip(samples, verdicts):
        rows.append({
            "coords": dict(zip(problem.graph.labels, f.coords.tolist())),
            "rank": verdict.rank,
            "infinitesimally_rigid": verdict.infinitesimally_rigid,
            "independent": verdict.independent,
            "isostatic": verdict.isostatic,
        })
    return _json_text({"name": problem.name, "k": basis.k, "samples": rows})


def cmd_types(problem: ProblemFile, args) -> str:
    _need_coords(problem)
    catalog, types = enumerate_types(
        problem.graph, problem.coords, problem.group,
        tol=args.tol_geom, normalized=args.normalized,
    )
    payload = {
        "name": problem.name,
        "count": catalog.count,
        "normalized_count": catalog.normalized_count(),
        "coincidence_automorphisms": [
            format_cycles(perm, problem.graph.labels) for perm in catalog.coincidence_group
        ],
        "valid_set_sizes": {
            label: len(vs) for label, vs in zip(problem.group.labels, catalog.valid_sets)
        },
        "types": [t.as_dict(problem.group, problem.graph) for t in types],
    }
    return _json_text(payload)


def cmd_basis(problem: ProblemFile, args) -> str:
    phi = _resolve_phi(problem, args.tol_geom)
    basis = config_space_basis(problem.graph, problem.group, phi)
    return _json_text({
        "name": problem.name,
        "k": basis.k,
        "max_residual": constraint_residual(basis, problem.group, phi, basis.basis),
        "vectors": basis.basis.tolist(),
    })


def cmd_empty_check(problem: ProblemFile, args) -> str:
    phi = _resolve_phi(problem, args.tol_geom)
    basis = config_space_basis(problem.graph, problem.group, phi)
    empty, offending = class_is_empty(problem.graph, basis)
    labels = problem.graph.labels
    return _json_text({
        "name": problem.name,
        "k": basis.k,
        "empty": empty,
        "forced_edges": [[labels[u], labels[v]] for u, v in offending],
    })


def cmd_svg(problem: ProblemFile, args) -> str:
    phi = _resolve_phi(problem, args.tol_geom)
    framework = _framework(problem, phi, args)
    return render_svg(framework, problem.group, label_joints=args.labels)


def cmd_oracle_types(problem: ProblemFile, args) -> str:
    from .oracle import brute_force_type_search  # loaded only for the oracle subcommands

    _need_coords(problem)
    brute = brute_force_type_search(problem.graph, problem.coords, problem.group, tol=args.tol_geom)
    _, fast = enumerate_types(problem.graph, problem.coords, problem.group, tol=args.tol_geom)
    fast_normalized = [t for t in fast if t[0].is_identity()]  # the normalized catalog, in its order
    return _json_text({
        "name": problem.name,
        "brute_count": len(brute.types),
        "fast_count": len(fast),
        "brute_normalized_count": len(brute.normalized),
        "fast_normalized_count": len(fast_normalized),
        "match": set(brute.types) == set(fast),
        "normalized_match": set(brute.normalized) == set(fast_normalized),
    })


def cmd_oracle_generic(problem: ProblemFile, args) -> str:
    from .oracle import exhaustive_generic_check

    phi = _resolve_phi(problem, args.tol_geom)
    framework = _framework(problem, phi, args)
    report = exhaustive_generic_check(
        framework.coords, problem.group, phi.images,
        evals=args.evals, seed=_seed(args, problem), tol=args.tol_geom,
    )
    return _json_text({
        "name": problem.name,
        "generic": report.generic,
        "minors_checked": report.minors_checked,
        "vanishing_at_point": report.vanishing_at_point,
        "failing_minor": list(report.failing_minor) if report.failing_minor else None,
    })


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symrig",
        description="Classify and sample symmetric bar-joint frameworks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    source = common.add_mutually_exclusive_group(required=True)
    source.add_argument("--problem", metavar="PATH", help="path to a problem JSON file")
    source.add_argument("--fixture", metavar="NAME", help="name of a shipped problem file")
    common.add_argument("--seed", type=int, default=None, help="override the problem seed")
    common.add_argument("--tol-rank", type=float, default=1e-8, dest="tol_rank",
                        help="relative tolerance for rank decisions")
    common.add_argument("--tol-geom", type=float, default=1e-8, dest="tol_geom",
                        help="tolerance for geometric coincidence checks")
    common.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")

    p = sub.add_parser("analyze", parents=[common],
                       help="classify the whole class by seeded sampling")
    p.add_argument("--trials", type=int, default=20, help="sampled witnesses to try")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sample", parents=[common], help="draw configurations from the class")
    p.add_argument("--count", type=int, default=1, help="number of samples")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("types", parents=[common],
                       help="enumerate the type catalog for the given coords")
    p.add_argument("--normalized", action="store_true",
                   help="only types sending the identity operation to the identity")
    p.set_defaults(func=cmd_types)

    p = sub.add_parser("basis", parents=[common],
                       help="orthonormal basis of the symmetric configuration space")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("empty-check", parents=[common],
                       help="decide whether the class contains any framework")
    p.set_defaults(func=cmd_empty_check)

    p = sub.add_parser("svg", parents=[common], help="draw the configuration as SVG")
    p.add_argument("--labels", action="store_true", help="draw joint names")
    p.set_defaults(func=cmd_svg)

    p = sub.add_parser("oracle", help="slow independent checks")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("types", parents=[common],
                        help="brute force the type catalog and compare with the fast path")
    q.set_defaults(func=cmd_oracle_types)
    q = osub.add_parser("generic", parents=[common],
                        help="all-minors genericity check of a configuration")
    q.add_argument("--evals", type=int, default=8, help="sample points for identical vanishing")
    q.set_defaults(func=cmd_oracle_generic)

    return parser


def _join_negative_numbers(argv: list[str]) -> list[str]:
    """Write `--tol-rank -1e-8` as `--tol-rank=-1e-8`, so that the value reaches _check_numbers.

    argparse reads a separate word that starts with '-' as an option unless it
    looks like a plain negative number, so -1e-8, -inf and -nan never reach
    the tolerance flags as values. Abbreviated flags (`--tol-g`) are joined too.
    """
    joined: list[str] = []
    for word in argv:
        flag = joined[-1] if joined else ""
        if len(flag) > 2 and ("--tol-rank".startswith(flag) or "--tol-geom".startswith(flag)) and word.startswith("-"):
            try:
                float(word)
            except ValueError:
                pass
            else:
                joined[-1] += "=" + word
                continue
        joined.append(word)
    return joined


def _pin_blas() -> None:
    """Pin numpy's bundled OpenBLAS to one thread, unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set.

    The ranks run on one thread per CPU (rigidity.rigidity_verdicts), and
    OpenBLAS threads inside each SVD would compete with them. A numpy without
    the bundled library or its symbol is left as it is.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for name in os.listdir(libs) if os.path.isdir(libs) else ():
        if name.startswith("libscipy_openblas"):
            setter = getattr(ctypes.CDLL(os.path.join(libs, name)), "scipy_openblas_set_num_threads64_", None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_numbers(sys.argv[1:] if argv is None else list(argv)))
    _pin_blas()
    try:
        _check_numbers(args)
        problem = load_fixture(args.fixture) if args.fixture else load_problem(args.problem)
        text = args.func(problem, args)
    except SymrigError as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}) + "\n")
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stdout.write(json.dumps({"error": f"cannot write output file {args.out}: {exc.strerror or exc}"}) + "\n")
            return 3
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
