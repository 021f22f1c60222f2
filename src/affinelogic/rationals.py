"""Exact rational parsing/formatting shared across the package.

Every number in this package is a fractions.Fraction; serialized form is
always the bit-exact string "p/q".
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FormatError


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' (or a plain integer string) into a Fraction.

    ASCII '[-]digits/digits' and '[-]digits', the form format_rational
    writes, are converted with int(); any other text goes to Fraction's
    own parser, which accepts the same values more slowly.  A value that
    is not a string, such as a JSON number, is malformed too.  Malformed
    input raises FormatError, which is a ValueError.
    """
    if not isinstance(text, str):
        raise FormatError(f"malformed rational {text!r}: not a 'p/q' string")
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    try:
        if text.isascii() and digits.isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den) if slash else 1)
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"malformed rational {text!r}: {exc}") from None


def format_rational(value: Fraction) -> str:
    """Serialize a Fraction as 'p/q', denominator always present."""
    return f"{value.numerator}/{value.denominator}"
