"""The package's two error families, one per ``stc-lab`` exit code.

:class:`InputError` is bad input: a malformed or inconsistent config, code
definition or argument (exit code 2).  :class:`NumericError` is a numerical
failure on well-formed input (exit code 3).  Each also derives from a
builtin (ValueError, RuntimeError), so callers may catch either.
:func:`check_es` is the symbol-energy refusal that several layers share.
"""

import math


class StclabError(Exception):
    """Base class of the package's errors."""


class InputError(StclabError, ValueError):
    """Bad input.  ``key`` says where (a config key, ``line N`` of a file);
    when given, the message starts with ``key: ``."""

    def __init__(self, message, key=None):
        self.key = key
        super().__init__(message if key is None else f"{key}: {message}")


class NumericError(StclabError, RuntimeError):
    """Numerical failure on well-formed input."""


def check_es(es):
    """Refuse a symbol energy that is not finite and > 0."""
    if not (math.isfinite(es) and es > 0):
        raise InputError(f"symbol energy es={es} must be finite and > 0")
