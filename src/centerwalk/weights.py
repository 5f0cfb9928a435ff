"""Weight arithmetic and deterministic label ordering.

Kernel weights, cycle weights and probabilities are exact
``fractions.Fraction`` values whenever the inputs are rational, and floats
otherwise.  Identities that hold exactly (row sums, centering residuals,
mass conservation) go through :func:`vanishes`: zero slack in the rational
case, ``DEFAULT_TOL`` in the float case.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Union

Weight = Union[int, Fraction, float]

#: slack of a float identity residual; an exact residual gets none
DEFAULT_TOL = 1e-12


def is_exact(w: Weight) -> bool:
    return isinstance(w, (int, Fraction)) and not isinstance(w, bool)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


def vanishes(r: Weight) -> bool:
    """Whether an identity residual is zero: exactly when exact, within ``DEFAULT_TOL`` when a float."""
    return r == 0 if is_exact(r) else abs(r) <= DEFAULT_TOL


def parse_weight(raw) -> Weight:
    """Parse a weight from its wire form: "p/q" or "p" strings, or a number."""
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad weight literal {raw!r}") from exc
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


def sort_key(label: Any):
    """Total order on vertex labels, used for deterministic tie-breaking.

    Labels within one graph are homogeneous (ints, tuples of ints, or
    strings); the leading tag only keeps accidental mixtures comparable.
    """
    if isinstance(label, bool):
        return (3, (repr(label),))
    if isinstance(label, (int, float)):
        return (0, (label,))
    if isinstance(label, tuple):
        return (1, tuple(sort_key(part) for part in label))
    if isinstance(label, str):
        return (2, (label,))
    return (3, (repr(label),))


def edge_key(edge):
    src, dst = edge
    return (sort_key(src), sort_key(dst))
