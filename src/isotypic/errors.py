"""Domain error hierarchy.

Every computational error raised by this package derives from
:class:`IsotypicError`; the CLI maps these to exit code 1 and prints the
class name, so the names below are part of the external contract.
"""


class IsotypicError(Exception):
    """Base class for all domain errors."""


class NotDecreasing(IsotypicError):
    """Signature parts are not weakly decreasing."""


class RankTooSmall(IsotypicError):
    """A signature is longer than the ambient rank allows."""


class RankMismatch(IsotypicError):
    """Mixed signatures with different declared ranks were combined."""


class RankConstraint(IsotypicError):
    """Signature violates the length constraint of its group family."""


class OddRankForSp(IsotypicError):
    """Sp(k) requires even k."""


class OddRank(IsotypicError):
    """Operation requires an even rank."""


class RankTooLarge(IsotypicError):
    """Rank exceeds the desk-scale limit of the character oracle."""


class SignatureTooLong(IsotypicError):
    """SO character requested outside the irreducible (non-split) range."""


class DivisionNotExact(IsotypicError):
    """Alternant division left a remainder; indicates an implementation bug."""


class NegativeMultiplicity(IsotypicError):
    """Greedy character peeling went negative; input was not a character sum."""


class OutsideStableRange(IsotypicError):
    """Littlewood restriction invoked outside the stable range 2*len < k."""


class ShapeMismatch(IsotypicError):
    """Polynomials over different variable sets were combined."""


class DimensionMismatch(IsotypicError):
    """Matrix dimensions incompatible with the polynomial's shape."""


class NotHomogeneous(IsotypicError):
    """Harmonic projection requires a homogeneous input."""


class ReconstructionFailed(IsotypicError):
    """Exact components did not rebuild their input; indicates an implementation bug."""


class BadSignature(IsotypicError):
    """Signature data invalid for the requested highest weight vector."""
