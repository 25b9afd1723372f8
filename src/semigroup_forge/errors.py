"""Exception types shared across the package."""


class SemigroupError(ValueError):
    """Base class for every domain error raised by this package."""


class EmptyInput(SemigroupError):
    """No generators were supplied."""


class InvalidGenerator(SemigroupError):
    """A generator is zero, negative or not an integer."""


class NotNumerical(SemigroupError):
    """The generators have gcd > 1, so they do not span a numerical semigroup."""


class NotMember(SemigroupError):
    """The requested modulus is not a nonzero element of the semigroup."""


class BadDimension(SemigroupError):
    """A multiplicity/embedding-dimension pair outside m >= e >= 2.

    `classification` carries the three-way family classification
    (`core.existence`).  Every refusal sets it: the interval formulas, the
    packed enumeration and the searches all go through `core.require_family`.
    """

    def __init__(self, message, classification=None):
        super().__init__(message)
        self.classification = classification


class Degenerate(SemigroupError):
    """Operation undefined on the semigroup of all non-negative integers."""


class NotPacked(SemigroupError):
    """Operation requires every minimal generator to lie in [m, 2m-1]."""


class Uncertified(SemigroupError):
    """The sieve could not certify its result within the table cap."""
