"""Exception types shared across the package.

Every error raised on bad input derives from both :class:`StclabError` and a
builtin (ValueError or RuntimeError), so callers may catch either.  Each is
an :class:`InputError` (bad input; the command line exits with code 2) or a
:class:`NumericError` (a numerical failure; exit code 3).
"""


class StclabError(Exception):
    """Base class for all package-specific errors."""


class InputError(StclabError):
    """Malformed or inconsistent configuration, code definition or argument."""


class NumericError(StclabError):
    """Numerical failure on well-formed input."""


class NotPSD(NumericError, ValueError):
    """Matrix is not positive semidefinite (factorization failed after jitter)."""


class LengthMismatch(InputError, ValueError):
    """Sequence length violates a divisibility or size requirement."""


class ShapeMismatch(InputError, ValueError):
    """Array shapes do not agree."""


class ParseError(InputError, ValueError):
    """Malformed code-definition or config text.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(InputError, ValueError):
    """Structurally well-formed input violates a semantic invariant."""


class ConfigError(InputError, ValueError):
    """Bad sweep configuration.  Carries the offending key path."""

    def __init__(self, message, key=None):
        self.key = key
        if key is not None:
            message = f"{key}: {message}"
        super().__init__(message)


class ModelMismatch(InputError, ValueError):
    """Code has no representation in the requested decoder's model class."""


class NonStaticBlock(NumericError, ValueError):
    """Channel varies within a block where a static block is required."""


class SingularCovariance(NumericError, RuntimeError):
    """Covariance solve failed even after diagonal jitter."""


class DepthTooLarge(NumericError, RuntimeError):
    """Error-event enumeration exceeded the configured event cap."""


class InvalidCount(InputError, ValueError):
    """A count argument is out of range or incompatible."""
