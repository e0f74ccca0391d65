"""Exception taxonomy shared across the library.

Every domain failure raises a subclass of SymrigError so callers (and the
command line front end) can distinguish our errors from programming bugs.
"""


class SymrigError(Exception):
    """Base class for all symrig domain errors."""


class CapExceeded(SymrigError):
    """An instance is larger than a documented search cap."""


class LengthMismatch(SymrigError):
    """A permutation or assignment does not match the expected length."""


class UnknownName(SymrigError):
    """A Schoenflies name outside the supported catalog."""


class BadParam(SymrigError):
    """A structurally valid name with an unusable parameter value."""


class NotClosedWithinBound(SymrigError):
    """Generator closure exceeded the group order bound."""


class NonOrthogonalGenerator(SymrigError):
    """A supplied matrix is not orthogonal within tolerance."""


class OrderBoundExceeded(SymrigError):
    """No power of an operation returned to the identity within the bound."""


class DimensionMismatch(SymrigError):
    """Coordinates, group, and graph dimensions disagree."""


class NotAnAutomorphism(SymrigError):
    """A vertex map that does not preserve the edge set."""


class ExplosionGuard(SymrigError):
    """An enumeration would produce more items than the guard allows."""


class InvalidFramework(SymrigError):
    """Adjacent joints coincide, so the bar lengths are not all positive."""


class SamplingExhausted(SymrigError):
    """No admissible sample was found within the retry budget."""


class NotInSymmetryClass(SymrigError):
    """A realization admits no type for the requested group."""


class NotRationalizable(SymrigError):
    """A matrix entry has no nearby rational with a small denominator."""


class ParseError(SymrigError):
    """A problem file that violates the input schema."""


class UnknownGroup(SymrigError):
    """A problem file naming a group outside the catalog."""


class BadPermutation(SymrigError):
    """A cycle string that does not describe a vertex permutation."""


class SelfLoop(SymrigError):
    """An edge joining a vertex to itself."""


class InvalidGraph(SymrigError, ValueError):
    """A vertex count, label list or edge list that makes no simple graph."""


class InvalidGroup(SymrigError, ValueError):
    """An element list that makes no group: empty, element 0 not the identity, or a broken invariant."""


class UnsupportedDim(SymrigError):
    """A dimension other than 2 or 3 where geometry is required."""
