"""The package's error taxonomy.

Every error the package raises on purpose derives from AffineLogicError,
and each class carries the exit code and the stderr label the CLI gives
it: 2 and "error" for bad input, 3 and "internal error" when a re-check
of the package's own result fails, which is a bug and not bad input.
A class that means something else, such as a check that came back false,
sets its own pair.
"""

from __future__ import annotations


class AffineLogicError(Exception):
    """Bad input or a refused request."""

    exit_code = 2
    label = "error"


class InternalError(AffineLogicError, RuntimeError):
    """A result failed the re-check that guards it before it is returned."""

    exit_code = 3
    label = "internal error"


class FormatError(AffineLogicError, ValueError):
    """A file or a value in one that does not decode to its format."""
