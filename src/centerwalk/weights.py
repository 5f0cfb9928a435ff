"""Weight arithmetic, parsing and identity checks.

Kernel weights, cycle weights and probabilities are exact
``fractions.Fraction`` values whenever the inputs are rational, and floats
otherwise.  Identities that hold exactly (row sums, centering residuals,
mass conservation) go through :func:`vanishes`: zero slack in the rational
case, ``DEFAULT_TOL`` in the float case.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Union

Weight = Union[int, Fraction, float]

#: slack of a float identity residual; an exact residual gets none
DEFAULT_TOL = 1e-12

#: most digits, and largest decimal exponent, of a rational literal: CPython's
#: default limit on the digits of an int-string conversion
MAX_DIGITS = getattr(sys.int_info, "default_max_str_digits", 4300)

_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*$")


def is_exact(w: Weight) -> bool:
    return isinstance(w, (int, Fraction)) and not isinstance(w, bool)


def vanishes(r: Weight) -> bool:
    """Whether an identity residual is zero: exactly when exact, within ``DEFAULT_TOL`` when a float."""
    return r == 0 if is_exact(r) else abs(r) <= DEFAULT_TOL


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)`` of at most ``MAX_DIGITS`` digits and decimal exponent; else ``ValueError``.

    ``Fraction("1e1000000000")`` builds 10**1000000000, which takes minutes,
    so the bounds are checked on the text first.
    """
    exponent = _EXPONENT.search(text)
    if sum(c.isdigit() for c in text) > MAX_DIGITS or (exponent and abs(int(exponent[1])) > MAX_DIGITS):
        raise ValueError(f"rational literal starting {text[:40]!r} has more than {MAX_DIGITS} digits "
                         f"or a decimal exponent beyond {MAX_DIGITS}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def parse_weight(raw) -> Weight:
    """Parse a weight from its wire form: "p/q" or "p" strings (see ``parse_rational``), or a number."""
    if isinstance(raw, str):
        return parse_rational(raw)
    if isinstance(raw, bool):
        raise ValueError(f"bad weight literal {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, (float, Fraction)):
        return raw
    raise ValueError(f"bad weight literal {raw!r}")


def format_weight(w: Weight):
    """Inverse of :func:`parse_weight`: exact weights as "p/q" strings, floats as-is."""
    if is_exact(w):
        return str(Fraction(w))
    return float(w)

