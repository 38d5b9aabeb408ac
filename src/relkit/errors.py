"""Exception hierarchy shared by all modules."""


class RelkitError(Exception):
    """Base class for all toolkit errors."""


class MalformedSyntax(RelkitError):
    """Cycle notation or input file that cannot be parsed."""


class RepeatedPoint(MalformedSyntax):
    """A point occurs twice in disjoint-cycle notation."""


class PointOutOfRange(RelkitError):
    """A point index is outside {0..degree-1}."""


class VertexOutOfRange(RelkitError):
    """A vertex index is outside the structure's vertex set."""


class DegreeMismatch(RelkitError):
    """Permutations or groups of different degrees were combined."""


class LengthMismatch(RelkitError):
    """Tuples of different lengths were paired."""


class NotTransitive(RelkitError):
    """Operation requires a transitive group."""


class NotInGroup(RelkitError):
    """A permutation was expected to be a group element but is not."""


class NotNormal(RelkitError):
    """A subgroup was expected to be normal but is not."""


class NotFrobenius(RelkitError):
    """The action does not satisfy the Frobenius hypotheses."""


class AbelianInput(RelkitError):
    """Operation requires a nonabelian group."""


class BadParameter(RelkitError):
    """Constructor parameter outside the supported range."""


class PrimeDoesNotDivide(RelkitError):
    """The supplied prime does not divide the group order."""


class TooLarge(RelkitError):
    """Input exceeds the size cap for this operation."""


class DegreeTooLarge(TooLarge):
    """Degree exceeds the cap for this operation."""


class GroupTooLarge(TooLarge):
    """Group order exceeds the cap for this operation."""


class ArityTooLarge(TooLarge):
    """Requested relation arity exceeds the supported maximum."""


class CapExceeded(RelkitError):
    """A configured search cap was reached before the answer was found."""

    def __init__(self, message, fallback=None):
        super().__init__(message)
        self.fallback = fallback


class ParseError(RelkitError):
    """An input file is malformed."""


class InternalInconsistency(RelkitError):
    """An internal invariant failed: a bug in relkit, not in the input."""
