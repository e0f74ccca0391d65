"""symrig: symmetry classes of bar-joint frameworks and their rigidity.

The pieces fit together like this: graphs and permutations (graphs),
orthogonal point groups (groups), rigidity of a single framework
(rigidity), type assignments tying group operations to graph
automorphisms (classify), the symmetric configuration space of a class
with sampling and class-level verdicts (symspace), slow independent
cross-checks (oracle), the JSON problem format (problem), drawings
(svg), and the command line (cli).
"""

from .classify import (
    TypeAssignment,
    TypeCatalog,
    enumerate_types,
    find_base_type,
    find_homomorphic_type,
    identity_type,
    is_homomorphism,
    restrict_type,
    verify_type,
)
from .errors import SymrigError
from .graphs import (
    Graph,
    Permutation,
    automorphisms,
    coincidence_automorphisms,
    format_cycles,
    is_automorphism,
    parse_cycles,
)
from .groups import (
    LinearSubspace,
    OrthogonalOp,
    SymmetryGroup,
    close_group,
    element_order,
    fixed_subspace,
    schoenflies_group,
)
from .oracle import (
    BruteForceTypes,
    GenericCheckReport,
    OrbitStructure,
    brute_force_type_search,
    constraint_stack,
    exhaustive_generic_check,
    kernel_oracle,
    orbit_sample,
    orbit_structure,
    symmetry_constraint_matrix,
    trivial_motion_basis,
    validate_group,
)
from .problem import (
    ProblemFile,
    fixture_names,
    fixture_path,
    load_fixture,
    load_problem,
    parse_problem,
    serialize_problem,
)
from .rigidity import (
    Framework,
    RigidityReport,
    affine_span_dim,
    rigidity_matrix,
    rigidity_verdict,
)
from .svg import render_svg
from .symspace import (
    ConfigSpaceBasis,
    SymGenericReport,
    class_is_empty,
    config_space_basis,
    constraint_residual,
    draw_samples,
    sample_config,
    sym_generic_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "SymrigError",
    "Graph", "Permutation", "automorphisms", "coincidence_automorphisms",
    "is_automorphism", "format_cycles", "parse_cycles",
    "OrthogonalOp", "LinearSubspace", "SymmetryGroup", "schoenflies_group",
    "close_group", "element_order", "fixed_subspace", "validate_group",
    "Framework", "RigidityReport", "rigidity_matrix", "rigidity_verdict",
    "affine_span_dim", "trivial_motion_basis",
    "TypeAssignment", "TypeCatalog", "identity_type", "verify_type",
    "find_base_type", "enumerate_types", "is_homomorphism",
    "find_homomorphic_type", "restrict_type",
    "ConfigSpaceBasis", "OrbitStructure", "SymGenericReport",
    "symmetry_constraint_matrix", "config_space_basis", "constraint_residual",
    "class_is_empty", "sample_config", "draw_samples",
    "orbit_structure", "orbit_sample", "sym_generic_verdict",
    "BruteForceTypes", "GenericCheckReport", "brute_force_type_search",
    "constraint_stack", "exhaustive_generic_check", "kernel_oracle",
    "ProblemFile", "parse_problem", "serialize_problem", "load_problem",
    "load_fixture", "fixture_path", "fixture_names",
    "render_svg",
    "__version__",
]
