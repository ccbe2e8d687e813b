"""Exception types shared across the package."""


class KnotSurgeryError(Exception):
    """Base class for all package-specific errors."""


class UnknownGeneratorError(KnotSurgeryError):
    """A word refers to a generator outside the presentation."""


class DuplicateGeneratorError(KnotSurgeryError):
    """Generator names collide where disjoint names were required."""


class BraidSyntaxError(KnotSurgeryError):
    """Unparseable braid input."""


class IndexOutOfRangeError(KnotSurgeryError):
    """A braid letter references a crossing outside 1..n-1."""


class NotAKnotError(KnotSurgeryError):
    """The braid closure has more than one component."""


class InvalidMonodromyError(KnotSurgeryError):
    """Fibered-surface data failed its automorphism or boundary certificate."""


class InvalidSlopeError(KnotSurgeryError):
    """Surgery slope with q < 1, gcd(p, q) != 1, or |p| or q past its limit."""


class NotAKnotGroupError(KnotSurgeryError):
    """Operation requires a group whose abelianization is infinite cyclic."""


class PeripheralValidationError(KnotSurgeryError):
    """A knot's peripheral checks failed; the message lists them."""


class ClosureCapExceededError(KnotSurgeryError):
    """Permutation closure grew past the configured cap."""


class MismatchedTargetsError(KnotSurgeryError):
    """Spectra being compared were computed over different target lists."""
