"""Exact rational parsing/formatting shared across the package.

Every number in this package is a fractions.Fraction; serialized form is
always the bit-exact string "p/q".  A file's rationals are exactly
'[-]p' or '[-]p/q' in ASCII digits, the form format_rational writes.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import FormatError

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse '[-]p/q' or '[-]p' into a Fraction, ignoring surrounding
    whitespace; q must be nonzero.

    Nothing else is accepted: no '+', decimal point, exponent, '_' or
    non-ASCII digit, and no value that is not a string, such as a JSON
    number.  The parts are read with int(); since no exponent is
    accepted, no text can ask for a huge power of ten.  Malformed input
    raises FormatError, which is a ValueError.
    """
    if not isinstance(text, str):
        raise FormatError(f"malformed rational {text!r}: not a 'p/q' string")
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise FormatError(f"malformed rational {text!r}: not of the form '[-]p' or '[-]p/q'")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"malformed rational {text!r}: {exc}") from None


def format_rational(value: Fraction) -> str:
    """Serialize a Fraction as 'p/q', denominator always present.

    A numerator or denominator longer than Python's int/str conversion
    limit (sys.get_int_max_str_digits(), 4300 digits by default) raises
    FormatError naming the limit.
    """
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise FormatError(
            f"cannot write a rational whose numerator or denominator has more than "
            f"{limit} digits, Python's int/str conversion limit"
        ) from None
