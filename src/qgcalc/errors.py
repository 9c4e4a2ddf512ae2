"""Exception types raised by the verification routines.

Every failure that corresponds to a violated mathematical property carries
the offending residual where one is available, so callers can report it.
"""

__all__ = [
    "CalculusError",
    "ParseError",
    "DimensionMismatch",
    "NotUnitary",
    "PentagonViolation",
    "AlgebraNotClosed",
    "NotManageable",
    "NotKacType",
    "BicharacterViolation",
    "SourceTargetMismatch",
    "ExtractionFailure",
    "HopfHomViolation",
    "RangeViolation",
    "CoactionViolation",
    "SolveFailure",
    "RecoveryFailure",
    "NotAGroup",
    "NotAbelian",
    "gate",
    "gate_all",
]


class CalculusError(Exception):
    """Base class for all verification failures.

    The optional ``residual`` records how badly the violated identity missed
    and ``tolerance`` the bound it had to meet.
    """

    def __init__(self, message, residual=None, tolerance=None):
        super().__init__(message)
        self.residual = residual
        self.tolerance = tolerance


class ParseError(CalculusError):
    """A file or dictionary does not match the expected JSON layout."""


class DimensionMismatch(CalculusError):
    """Operands live on tensor factors of incompatible sizes."""


class NotUnitary(CalculusError, ValueError):
    """An operator required to be unitary is not.

    Also a ValueError, so callers that catch ValueError keep working.
    """


class PentagonViolation(CalculusError):
    """The pentagon identity fails beyond tolerance."""


class AlgebraNotClosed(CalculusError):
    """A candidate operator system is not closed under product or adjoint."""


class NotManageable(CalculusError):
    """The manageability witness is not unitary."""


class NotKacType(CalculusError):
    """The antipode construction does not close into an involutive map."""


class BicharacterViolation(CalculusError):
    """One of the two defining equations of a bicharacter fails."""


class SourceTargetMismatch(CalculusError):
    """Arrows are composed whose middle objects differ."""


class ExtractionFailure(CalculusError):
    """A tensor factor expected to be trivial carries nontrivial content."""


class HopfHomViolation(CalculusError):
    """A map fails multiplicativity, *-preservation, unitality, or intertwining."""


class RangeViolation(CalculusError):
    """Images escape the stated target algebra."""


class CoactionViolation(CalculusError):
    """A coaction axiom (morphism property, coassociativity, density) fails."""


class SolveFailure(CalculusError):
    """An induced map fails, beyond tolerance, the commuting square that certifies it."""


class RecoveryFailure(CalculusError):
    """A pushed-forward corepresentation cannot be recovered from its coaction."""


class NotAGroup(CalculusError):
    """A multiplication table violates the group axioms."""


class NotAbelian(CalculusError):
    """A commutative-group construction was applied to a nonabelian group."""


def gate(residual, tolerance, exc, what):
    """Raise exc unless residual <= tolerance, so a NaN residual fails too.

    The message is what the check found, followed by the residual; the
    exception carries both the residual and the tolerance it missed.
    """
    if not residual <= tolerance:
        raise exc(f"{what}, residual {residual:.2e}", residual=residual, tolerance=tolerance)


def gate_all(residuals, table, exc):
    """Gate each (key, tolerance, what) entry of table whose key residuals
    holds, in order; a None tolerance marks a boolean that must be true."""
    for key, tolerance, what in table:
        if key not in residuals:
            continue
        if tolerance is None:
            if not residuals[key]:
                raise exc(what)
        else:
            gate(residuals[key], tolerance, exc, what)
