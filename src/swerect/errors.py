"""Exception taxonomy shared across the package.

Every error raised deliberately by this package derives from SweRectError so
callers can catch one base type. The CLI maps InvalidValue/ParseError-style
usage errors to exit code 2 and runtime failures to exit code 1.
"""


class SweRectError(Exception):
    """Base class for all package errors."""


class InvalidValue(SweRectError):
    """A parameter is outside its documented domain (e.g. nx < 4)."""


class NonPositiveParameter(InvalidValue):
    """u0, v0, phi0 or g is not strictly positive."""


class DegenerateCase(SweRectError):
    """Base state sits on (or numerically too close to) a regime boundary."""


class NotHyperbolic(SweRectError):
    """Operation requires u0^2 + v0^2 - g*phi0 > 0 but it is not."""


class NotElliptic(SweRectError):
    """Operation requires u0^2 + v0^2 - g*phi0 < 0 but it is not."""


class RegimeMismatch(SweRectError):
    """A catalog was requested for a regime that does not match the constants."""


class ShapeMismatch(SweRectError):
    """Array arguments disagree on shape."""


class SingularSystem(SweRectError):
    """A linear system that should be invertible is numerically singular."""


class NonConvergence(SweRectError):
    """An iterative or time-stepping process failed to produce a usable result."""


class NonFinite(SweRectError):
    """A NaN or Inf appeared in a state or diagnostic that must be finite."""


class ViolatesCondition(SweRectError):
    """Elliptic coefficients violate alpha1, alpha2 > 0 or the determinant condition."""


class BcViolation(SweRectError):
    """A field claimed to satisfy boundary conditions does not (nodally)."""


class ParseError(SweRectError):
    """Config file syntax error; carries 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class MissingKey(SweRectError):
    """Required config key absent; message carries 'section.key'."""


class UnknownKey(SweRectError):
    """Config key not in the schema; message carries 'section.key'."""


class IoError(SweRectError):
    """Filesystem-level failure while reading or writing run artifacts."""
