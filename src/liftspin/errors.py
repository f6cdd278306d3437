"""Error types shared across the package.

The CLI maps UnsupportedInput (and subclasses) to exit code 3, and a plain
ValueError (a malformed argument) or an OSError (a file it cannot read or
write) to exit code 2; everything else that escapes, IndexError included,
is a genuine bug and keeps its traceback.
"""


class UnsupportedInput(ValueError):
    """Input is well-formed but outside what this package supports."""


class UnsupportedWeight(UnsupportedInput):
    """Weight is odd, too small, or has no rational Hecke eigenbasis."""


class IrrationalEigenspace(UnsupportedWeight):
    """The Hecke eigenvalues of this space generate a nontrivial number field."""


class EmptySpace(UnsupportedInput):
    """The requested space of cusp forms is zero-dimensional."""


class InsufficientPrecision(UnsupportedInput):
    """A q-expansion coefficient beyond the computed precision was requested."""


class NonPrime(UnsupportedInput):
    """A prime argument was not prime."""


class DeligneBoundViolation(UnsupportedInput):
    """A Hecke eigenvalue lies outside Deligne's bound for its weight and prime."""


class EisensteinCongruenceViolation(UnsupportedInput):
    """A Hecke eigenvalue breaks the Eisenstein congruence of its weight."""


class NonIntegralEigenvalue(UnsupportedInput):
    """A Hecke eigenvalue of a level-one eigenform with rational eigenvalues
    is not an integer."""


class InputTooLarge(UnsupportedInput):
    """A size flag (precision, prime bound) exceeds its declared cap."""


class GenusTooLarge(UnsupportedInput):
    """Genus (or derived degree) exceeds the supported cap."""


class ExpansionTooLarge(UnsupportedInput):
    """An expanded coefficient list was requested above the expansion cap."""


class OutOfConvergenceRegion(UnsupportedInput):
    """Evaluation point lies outside the stated half-plane of convergence."""


class NumericOverflow(UnsupportedInput):
    """An instantiated root overflows double range at the requested prime."""
