"""Spans and work counts around symrig's module boundaries, from outside symrig.

``install`` replaces the names that one symrig module imported from another
(for example ``symrig.symspace.rigidity_verdict``) with wrappers. Each call
through such a name becomes a span named after the layer (module) that
defines the function. Spans stay in memory; the caller writes them out at
the end. A layer's self time is its spans' durations minus the durations of
their direct child spans.

Counts are computed at the same boundaries from arguments and results, so
they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "problem", "groups", "graphs", "classify", "symspace", "rigidity", "svg")


def _tally(key: str):
    def hook(args, kwargs, result, counts):
        counts[key] += 1
    return hook


def _framework_cells(args, kwargs, result, counts):
    f = args[0]
    counts["rigidity.calls"] += 1
    counts["rigidity.matrix_cells"] += f.graph.edge_count * f.n * f.dim


def _group_size(args, kwargs, result, counts):
    counts["groups.elements_built"] += len(result)


def _listed(args, kwargs, result, counts):
    counts["graphs.automorphisms_listed"] += len(result)


def _types(args, kwargs, result, counts):
    counts["classify.types_listed"] += len(result[1])


def _trials(args, kwargs, result, counts):
    counts["symspace.trials"] += result.samples_drawn
    counts["symspace.draws_accepted"] += result.samples_drawn


def _drawn(args, kwargs, result, counts):
    counts["symspace.draws_accepted"] += len(result)


def _stack(args, kwargs, result, counts):
    rows, cols = args[0].shape
    counts["symspace.stack_cells"] += rows * cols
    # full_matrices=True allocates a square U with one side per stack row.
    counts["symspace.svd_u_bytes"] += rows * rows * 8


# (importing module, name, defining layer or None for a count without a
# span, count hook). The names are the ones cli, symspace, classify,
# problem and svg import from the other symrig modules.
BOUNDARIES = (
    ("problem", "schoenflies_group", "groups", _group_size),
    ("problem", "close_group", "groups", _group_size),
    ("problem", "parse_cycles", "graphs", None),
    ("cli", "load_problem", "problem", None),
    ("cli", "load_fixture", "problem", None),
    ("cli", "find_base_type", "classify", None),
    ("cli", "enumerate_types", "classify", _types),
    ("cli", "is_homomorphism", "classify", _tally("classify.homomorphism_checks")),
    ("cli", "verify_type", "classify", None),
    ("cli", "format_cycles", "graphs", None),
    ("cli", "rigidity_verdict", "rigidity", _framework_cells),
    ("cli", "config_space_basis", "symspace", None),
    ("cli", "class_is_empty", "symspace", None),
    ("cli", "constraint_residual", "symspace", None),
    ("cli", "draw_samples", "symspace", _drawn),
    ("cli", "sample_config", "symspace", _tally("symspace.draws_accepted")),
    ("cli", "sym_generic_verdict", "symspace", _trials),
    ("cli", "render_svg", "svg", None),
    ("classify", "automorphisms", "graphs", _listed),
    ("classify", "coincidence_automorphisms", "graphs", None),
    ("classify", "is_automorphism", "graphs", _tally("graphs.automorphism_checks")),
    ("classify", "format_cycles", "graphs", None),
    ("symspace", "config_space_basis", "symspace", None),
    ("symspace", "is_homomorphism", "classify", _tally("classify.homomorphism_checks")),
    ("symspace", "is_automorphism", "graphs", _tally("graphs.automorphism_checks")),
    ("symspace", "rigidity_verdict", "rigidity", _framework_cells),
    ("symspace", "kernel_basis", None, _stack),
    ("symspace", "Framework", None, _tally("symspace.draws_attempted")),
    ("svg", "fixed_subspace", "groups", None),
)
# Methods counted without spans: they run thousands of times per command.
COUNTED_METHODS = (
    ("groups", "SymmetryGroup", "multiply", _tally("groups.multiply_calls")),
    ("groups", "SymmetryGroup", "index_of", _tally("groups.index_of_calls")),
)


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        # Each span: [id, parent id, layer, name, request, start, end].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []

    def wrap(self, layer: str | None, name: str, fn, hook=None):
        counts = self.counts

        if layer is None:
            # No functools.wraps: fn may be a class (symspace.Framework), and a
            # plain function set on a class still binds as a method.
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(args, kwargs, result, counts)
                return result
            return counted

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, layer, name, self.request,
                    perf_counter(), None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, counts)
            return result
        return traced

    def self_times(self) -> dict[str, float]:
        """Per layer: total span time minus the time of direct child spans."""
        out = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            out[span[2]] += span[6] - span[5]
            if span[1] is not None:
                parent = self.spans[span[1]]
                out[parent[2]] -= span[6] - span[5]
        return out

    def total(self, function: str) -> float:
        """Total span time of one function, through whichever module imported it."""
        return sum(s[6] - s[5] for s in self.spans if s[3].endswith("." + function))


def install(tracer: Tracer) -> None:
    """Patch every boundary name in the symrig modules."""
    for module_name, attr, layer, hook in BOUNDARIES:
        module = importlib.import_module(f"symrig.{module_name}")
        setattr(module, attr, tracer.wrap(layer, f"{module_name}.{attr}", getattr(module, attr), hook))
    for module_name, cls_name, method, hook in COUNTED_METHODS:
        cls = getattr(importlib.import_module(f"symrig.{module_name}"), cls_name)
        setattr(cls, method, tracer.wrap(None, f"{cls_name}.{method}", getattr(cls, method), hook))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    counts = tracer.counts
    out = {f"{layer}.self_s": t for layer, t in tracer.self_times().items()}
    out["symspace.basis_s"] = tracer.total("config_space_basis")
    for key in ("groups.elements_built", "groups.multiply_calls", "groups.index_of_calls",
                "graphs.automorphisms_listed", "graphs.automorphism_checks",
                "classify.types_listed", "classify.homomorphism_checks",
                "symspace.stack_cells", "symspace.svd_u_bytes", "symspace.trials",
                "symspace.draws_attempted", "rigidity.calls", "rigidity.matrix_cells"):
        out[key] = counts[key]
    attempted = counts["symspace.draws_attempted"]
    out["symspace.draw_accept_ratio"] = counts["symspace.draws_accepted"] / attempted if attempted else 0.0
    return out
