"""Exception types shared across the package.

Every error raised on bad input derives from both :class:`StclabError` and a
builtin (ValueError or RuntimeError), so callers may catch either.
"""


class StclabError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(StclabError, ValueError):
    """Matrix is not Hermitian within tolerance."""


class NotPSD(StclabError, ValueError):
    """Matrix is not positive semidefinite (factorization failed after jitter)."""


class LengthMismatch(StclabError, ValueError):
    """Sequence length violates a divisibility or size requirement."""


class ShapeMismatch(StclabError, ValueError):
    """Array shapes do not agree."""


class ParseError(StclabError, ValueError):
    """Malformed code-definition or config text.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(StclabError, ValueError):
    """Structurally well-formed input violates a semantic invariant."""


class ConfigError(StclabError, ValueError):
    """Bad sweep configuration.  Carries the offending key path."""

    def __init__(self, message, key=None):
        self.key = key
        if key is not None:
            message = f"{key}: {message}"
        super().__init__(message)


class ModelMismatch(StclabError, ValueError):
    """Code has no representation in the requested decoder's model class."""


class NonStaticBlock(StclabError, ValueError):
    """Channel varies within a block where a static block is required."""


class SingularCovariance(StclabError, RuntimeError):
    """Covariance solve failed even after diagonal jitter."""


class DepthTooLarge(StclabError, RuntimeError):
    """Error-event enumeration exceeded the configured event cap."""


class InvalidCount(StclabError, ValueError):
    """A count argument is out of range or incompatible."""
