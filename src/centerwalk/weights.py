"""Weight arithmetic, parsing and identity checks.

Kernel weights, cycle weights and probabilities are exact
``fractions.Fraction`` values whenever the inputs are rational, and floats
otherwise.  Identities that hold exactly (row sums, centering residuals,
mass conservation) go through :func:`vanishes`: zero slack in the rational
case, ``DEFAULT_TOL`` in the float case.

The kernel checks compute on (numerator, denominator) pairs chosen by
:func:`scale`.  When every input is exact, a pair is two ints, numerators add
while the denominator stays (:func:`add`), and each result becomes one
``Fraction``, where a ``Fraction`` per operation would run a gcd each time.
Otherwise a pair is the weight itself over the int 1, so the same pair
arithmetic performs the weights' own operations in the same order and float
results keep their bits.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Tuple, Union

Weight = Union[int, Fraction, float]
Pair = Tuple[Weight, Weight]

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


def is_finite(w: Weight) -> bool:
    """Whether w is a finite number: every exact weight is, a float unless it is nan or infinite."""
    return is_exact(w) or math.isfinite(w)


class Scale(NamedTuple):
    """How one computation holds its weights: ``ratio(w)`` is w's pair, ``value(n, d)`` the weight n / d."""

    ratio: Callable[[Weight], Pair]
    value: Callable[[Weight, Weight], Weight]


_ZERO = Fraction(0)

#: every input exact: int numerators over positive int denominators, one Fraction per result
EXACT = Scale(lambda w: w.as_integer_ratio(), lambda n, d: Fraction(n, d) if n else _ZERO)

#: some input not exact: the weight over the int 1; only a division puts a weight in the denominator
AS_GIVEN = Scale(lambda w: (w, 1), lambda n, d: n if d == 1 else n / d)


def scale(*groups: Iterable[Weight]) -> Scale:
    """``EXACT`` when every weight in ``groups`` is exact, else ``AS_GIVEN``."""
    types = set(map(type, chain(*groups)))
    return EXACT if all(issubclass(t, (int, Fraction)) and t is not bool for t in types) else AS_GIVEN


def add(p: Pair, q: Pair) -> Pair:
    """The pair of p + q: numerators add over a shared denominator, else over the lcm of the two."""
    (n, d), (k, e) = p, q
    if d == e:
        return n + k, d
    g = math.gcd(d, e)
    return n * (e // g) + k * (d // g), d // g * e


def total(pairs: Iterable[Pair]) -> Pair:
    """The pair of the sum, added left to right from 0."""
    num, den = 0, 1
    for n, d in pairs:
        if d == den:
            num += n
        else:
            num, den = add((num, den), (n, d))
    return num, den


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
    if isinstance(raw, Fraction) or isinstance(raw, float) and math.isfinite(raw):
        return raw
    raise ValueError(f"bad weight literal {raw!r}")


def format_ratio(n: int, d: int) -> str:
    """The "p/q" string of the int ratio n / d, d > 0, in lowest terms, that of ``str(Fraction(n, d))``, by one gcd.

    A whole number is "p" and zero "0".
    """
    g = math.gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def format_weight(w: Weight):
    """Inverse of :func:`parse_weight`: exact weights as "p/q" strings, floats as-is."""
    if is_exact(w):
        return format_ratio(*w.as_integer_ratio())
    return float(w)

