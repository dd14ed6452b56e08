"""Exception types shared across the package.

Every error raised by the library derives from :class:`BasiskitError`, so
callers (and the command line tool) can distinguish "the check failed" from
"the input was malformed" without string matching.
"""

from __future__ import annotations

__all__ = [
    "BasiskitError",
    "BackendMismatch",
    "DimensionMismatch",
    "Singular",
    "CayleyTableError",
    "MembershipError",
    "MixedGroups",
    "EnumerationCapExceeded",
    "CarrierMismatch",
    "GroupMismatch",
    "SideMismatch",
    "InfeasibleExhaustive",
    "NotCovariant",
    "NotSingleTransitive",
    "NoSolution",
    "GroupSpaceMismatch",
    "DegenerateBasis",
    "DegenerateReference",
    "NotInOrbit",
    "DependentInput",
    "NullVector",
    "TypeMismatch",
    "AnchorMismatch",
    "ParseError",
]


class BasiskitError(Exception):
    """Base class for all library errors."""


class BackendMismatch(BasiskitError):
    """Exact and approximate scalars were mixed in one computation."""


class DimensionMismatch(BasiskitError):
    """Operands have incompatible shapes."""


class Singular(BasiskitError):
    """A matrix that must be invertible is not."""


class CayleyTableError(BasiskitError):
    """A multiplication table violates the group axioms.

    Carries the full list of violations so a caller sees every defect at
    once, not just the first.  Each violation is a ``(kind, witness)`` pair;
    kinds are ``"not-closed"``, ``"no-identity"``, ``"not-associative"`` and
    ``"not-invertible"``.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = ", ".join(f"{kind}{witness!r}" for kind, witness in self.violations)
        super().__init__(f"invalid Cayley table: {lines}")


class MembershipError(BasiskitError):
    """A matrix or affine map does not satisfy its family's predicate.

    The message ends with the defect the predicate measured, when it
    measured one.
    """

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message += f" (residual {residual:.3g})"
        super().__init__(message)
        self.residual = residual


class MixedGroups(BasiskitError):
    """Elements of two different groups were combined."""


class EnumerationCapExceeded(BasiskitError):
    """Generated-set closure exceeded the configured cap."""


class CarrierMismatch(BasiskitError):
    """A point does not belong to the representation's carrier."""


class GroupMismatch(BasiskitError):
    """Two representations over different groups were combined."""


class SideMismatch(BasiskitError):
    """Two representations of different sides were combined."""


class InfeasibleExhaustive(BasiskitError):
    """An exhaustive check was requested over a non-enumerable domain."""


class NotCovariant(BasiskitError):
    """The contragredient construction needs a covariant input."""


class NotSingleTransitive(BasiskitError):
    """Transport is not unique (or the action is not transitive)."""


class NoSolution(BasiskitError):
    """No group element transports the source point to the target."""


class GroupSpaceMismatch(BasiskitError):
    """A group element cannot act on this space or basis."""


class DegenerateBasis(BasiskitError):
    """The proposed basis vectors are linearly dependent."""


class DegenerateReference(BasiskitError):
    """The reference basis of a coordinate computation is degenerate."""


class NotInOrbit(BasiskitError):
    """No element of the structure group connects the two bases."""


class DependentInput(BasiskitError):
    """Orthogonalisation received linearly dependent input vectors."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"input vector {index} is dependent on its predecessors")


class NullVector(BasiskitError):
    """Orthogonalisation produced a vector of zero scalar square."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"residue of input vector {index} has zero scalar square")


class TypeMismatch(BasiskitError):
    """Objects of different functor types cannot be combined."""


class AnchorMismatch(BasiskitError):
    """Objects anchored at different bases cannot be combined directly."""


class ParseError(BasiskitError):
    """A descriptor file or inline descriptor could not be parsed."""
