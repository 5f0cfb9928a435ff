"""Built-in finitely generated groups with canonical element forms.

Elements are plain hashable values (ints or nested tuples of ints) owned by a
group object that implements the arithmetic.  Canonical means equal group
elements have identical representations, so dict/set deduplication over
elements is exact:

* ``z:d``        -- integer vectors, length-d tuples
* ``heisenberg`` -- upper-unitriangular integer triples (a, b, c)
* ``bs:q``       -- Baumslag-Solitar ``<a, b | ab = b^q a>``; normal form
                    (l, m, k) for a^-l b^m a^(l+k) with l >= 0 minimal
* ``wreath``     -- Z wr Z, pairs (shift, lamps) with sparse sorted lamps
* ``f2``         -- free group on a, b as reduced letter tuples
* ``zmod:p``     -- integers modulo p
"""

from __future__ import annotations

import ast
import struct
from bisect import bisect_left
from dataclasses import dataclass
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InputParseError, StructuralError


@dataclass(frozen=True)
class AbelianImage:
    """Image of an element in the abelianization, split into free and torsion parts."""

    free: Tuple[int, ...]
    torsion: Tuple[int, ...] = ()
    moduli: Tuple[int, ...] = ()


class Group:
    """Base interface; element values are canonical, hashable and immutable."""

    name: str = "group"
    spec_string: str = ""

    #: Optional interning hook: ``key(x)`` maps each canonical element to a
    #: hashable value, equal for equal elements only, that the exact evolution
    #: engine indexes in place of x.  A group sets it when its element values
    #: hash poorly; None indexes the elements themselves.
    key: Optional[Callable] = None

    @property
    def identity(self):
        raise NotImplementedError

    def multiply(self, x, y):
        raise NotImplementedError

    def inverse(self, x):
        raise NotImplementedError

    def validate(self, x):
        """Return x unchanged if it is a canonical element, else raise."""
        raise NotImplementedError

    def abelianization(self, x) -> AbelianImage:
        raise NotImplementedError

    def parse_element(self, text: str):
        raise NotImplementedError

    def format_element(self, x) -> str:
        return repr(x)

    def _parse_word(self, text: str, letters: Dict[str, object]):
        """The product of a word's letters, each mapped to an element by ``letters``; blanks are skipped."""
        acc = self.identity
        for ch in text:
            if ch.isspace():
                continue
            if ch not in letters:
                raise InputParseError(f"bad letter {ch!r} in {self.name} word {text!r}")
            acc = self.multiply(acc, letters[ch])
        return acc

    def product(self, elements: Iterable):
        acc = self.identity
        for g in elements:
            acc = self.multiply(acc, g)
        return acc

    def order(self, x) -> Optional[int]:
        """Order of x, or None when infinite."""
        return 1 if x == self.identity else None

    def elements(self) -> Sequence:
        raise StructuralError(f"{self.name} is infinite; cannot enumerate elements")

    def exact_metric(self, gens: Sequence) -> Optional[Callable]:
        """Closed-form word metric for this generating sequence, when known."""
        return None

    def distance_lower_bound(self, x) -> Optional[int]:
        """Certified lower bound on the standard-generator word length, if registered."""
        return None

    def __repr__(self) -> str:
        return f"<{self.name}>"


def _literal(text: str):
    try:
        return ast.literal_eval(text.strip())
    except (ValueError, SyntaxError) as exc:
        raise InputParseError(f"bad element literal {text!r}: {exc}") from exc


class _IntVector(Group):
    """Elements are length-``d`` integer tuples, written ``[a, b, c]``."""

    d = 3

    @property
    def identity(self):
        return (0,) * self.d

    def validate(self, x):
        if not (isinstance(x, tuple) and len(x) == self.d and all(isinstance(v, int) for v in x)):
            raise StructuralError(f"not a {self.name} element: {x!r}")
        return x

    def parse_element(self, text: str):
        obj = _literal(text)
        if isinstance(obj, int) and self.d == 1:
            obj = (obj,)
        if not (isinstance(obj, (tuple, list)) and len(obj) == self.d and all(isinstance(v, int) for v in obj)):
            raise InputParseError(f"expected a {self.name} element, a vector of {self.d} integers, got {obj!r}")
        return tuple(obj)

    def format_element(self, x) -> str:
        return "[" + ", ".join(map(str, x)) + "]"


class IntegerLattice(_IntVector):
    def __init__(self, d: int):
        if d < 1:
            raise StructuralError("lattice dimension must be >= 1")
        self.d = d
        self.name = f"Z^{d}"
        self.spec_string = f"z:{d}"

    def multiply(self, x, y):
        return tuple(map(add, x, y))

    def product(self, elements: Iterable):
        return tuple(map(sum, zip(self.identity, *elements)))

    def inverse(self, x):
        return tuple(-a for a in x)

    def abelianization(self, x) -> AbelianImage:
        return AbelianImage(free=tuple(x))

    def exact_metric(self, gens: Sequence) -> Optional[Callable]:
        basis = set()
        for i in range(self.d):
            e = tuple(1 if j == i else 0 for j in range(self.d))
            basis.add(e)
            basis.add(self.inverse(e))
        if set(gens) == basis:
            return lambda x: sum(abs(v) for v in x)
        return None


class Heisenberg(_IntVector):
    """Integer Heisenberg group: (a, b, c) with (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a b')."""

    name = "Heisenberg"
    spec_string = "heisenberg"

    def multiply(self, x, y):
        return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])

    def inverse(self, x):
        return (-x[0], -x[1], -x[2] + x[0] * x[1])

    def abelianization(self, x) -> AbelianImage:
        return AbelianImage(free=(x[0], x[1]))


class BaumslagSolitar(_IntVector):
    """BS(1, q) = <a, b | ab = b^q a> in the normal form (l, m, k).

    (l, m, k) stands for a^-l b^m a^(l+k); as an affine map it sends
    x to q^k x + m / q^l.  The form is canonical once l >= 0 is minimal,
    i.e. l = 0 or q does not divide m.  b-exponents are plain Python ints,
    which grow like q^l.
    """

    gen_a, gen_b = (0, 0, 1), (0, 1, 0)
    _letters = {"a": gen_a, "A": (0, 0, -1), "b": gen_b, "B": (0, -1, 0)}

    def __init__(self, q: int):
        if q < 2:
            raise StructuralError("Baumslag-Solitar parameter q must be >= 2")
        self.q = q
        self.name = f"BS(1,{q})"
        self.spec_string = f"bs:{q}"

    def _normalize(self, l: int, m: int, k: int):
        if m == 0:
            return (0, 0, k)
        while l > 0 and m % self.q == 0:
            m //= self.q
            l -= 1
        return (l, m, k)

    def multiply(self, x, y):
        # combine m1/q^l1 + q^k1 * m2/q^l2 over the common power q^L
        l1, m1, k1 = x
        l2, m2, k2 = y
        q = self.q
        big_l = max(l1, l2 - k1, 0)
        m = m1 * q ** (big_l - l1) + m2 * q ** (big_l + k1 - l2)
        return self._normalize(big_l, m, k1 + k2)

    def inverse(self, x):
        l, m, k = x
        q = self.q
        e = l + k
        if e >= 0:
            return self._normalize(e, -m, -k)
        return self._normalize(0, -m * q ** (-e), -k)

    def validate(self, x):
        l, m, k = super().validate(x)
        if l < 0 or (l > 0 and m % self.q == 0):
            raise StructuralError(f"non-canonical BS normal form: {x!r}")
        return x

    def abelianization(self, x) -> AbelianImage:
        l, m, k = x
        return AbelianImage(free=(k,), torsion=(m % (self.q - 1),), moduli=(self.q - 1,))

    def parse_element(self, text: str):
        return self._parse_word(text, self._letters)

    def format_element(self, x) -> str:
        l, m, k = x
        parts = []
        if l:
            parts.append(f"a^{-l}")
        if m:
            parts.append(f"b^{m}" if m != 1 else "b")
        if l + k:
            parts.append(f"a^{l + k}" if l + k != 1 else "a")
        return " ".join(parts) if parts else "id"


class WreathZZ(Group):
    """Lamplighter-style wreath product Z wr Z.

    Elements are (shift, lamps) where lamps is a sorted tuple of
    (position, value) pairs with nonzero integer values.  Multiplication
    shifts the right factor's lamps by the left factor's shift.
    """

    name = "Z wr Z"
    spec_string = "wreath"

    @property
    def identity(self):
        return (0, ())

    @staticmethod
    def _pack(lamps: Dict[int, int]) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted((p, v) for p, v in lamps.items() if v != 0))

    def multiply(self, x, y):
        # splice y's lamps into x's sorted tuple; untouched pairs are shared
        shift = x[0]
        lamps = list(x[1])
        i = 0
        for p, v in y[1]:
            p += shift
            i = bisect_left(lamps, (p,), i)
            if i < len(lamps) and lamps[i][0] == p:
                v += lamps[i][1]
                if v:
                    lamps[i] = (p, v)
                else:
                    del lamps[i]
            else:
                lamps.insert(i, (p, v))
        return (shift + y[0], tuple(lamps))

    def product(self, elements: Iterable):
        shift, lamps = 0, {}
        for s, ls in elements:
            for p, v in ls:
                lamps[p + shift] = lamps.get(p + shift, 0) + v
            shift += s
        return (shift, self._pack(lamps))

    def inverse(self, x):
        shift = -x[0]
        return (shift, self._pack({p + shift: -v for p, v in x[1]}))

    def validate(self, x):
        ok = (
            isinstance(x, tuple)
            and len(x) == 2
            and isinstance(x[0], int)
            and isinstance(x[1], tuple)
            and all(
                isinstance(pv, tuple) and len(pv) == 2 and isinstance(pv[0], int)
                and isinstance(pv[1], int) and pv[1] != 0
                for pv in x[1]
            )
            and list(x[1]) == sorted(x[1])
        )
        if not ok:
            raise StructuralError(f"not a canonical wreath element: {x!r}")
        return x

    def abelianization(self, x) -> AbelianImage:
        return AbelianImage(free=(x[0], sum(v for _, v in x[1])))

    def parse_element(self, text: str):
        obj = _literal(text)
        if not (isinstance(obj, tuple) and len(obj) == 2 and isinstance(obj[0], int) and isinstance(obj[1], dict)):
            raise InputParseError(f"expected '(shift, {{pos: val, ...}})', got {text!r}")
        return self.validate((obj[0], self._pack({int(p): int(v) for p, v in obj[1].items()})))

    def format_element(self, x) -> str:
        lamps = "{" + ", ".join(f"{p}: {v}" for p, v in x[1]) + "}"
        return f"({x[0]}, {lamps})"

    def distance_lower_bound(self, x) -> int:
        # lamp mass plus shift: every lamp unit needs one lamp generator,
        # every shift unit one translation, in the standard generating set
        return abs(x[0]) + sum(abs(v) for _, v in x[1])


#: ``struct`` packers of F2 words by length, filled on first use up to _PACKED_LETTERS
_WORD_PACKS: Dict[int, Callable] = {}
_PACKED_LETTERS = 64


class FreeGroup(Group):
    """Free group of rank 2; elements are reduced tuples of letters.

    Letters are +1/-1 for a/a^-1 and +2/-2 for b/b^-1.
    """

    name = "F2"
    spec_string = "f2"
    rank = 2

    @staticmethod
    def key(x):
        """The word's letters as signed bytes; a word longer than ``_PACKED_LETTERS`` is its own key.

        In CPython ``hash(-1) == hash(-2)``, so letter tuples that differ
        only by A <-> B share one hash; their byte strings hash apart.  The
        packer cache stays bounded: a longer word makes no packer.
        """
        try:
            return _WORD_PACKS[len(x)](*x)
        except KeyError:
            if len(x) > _PACKED_LETTERS:
                return x
        pack = _WORD_PACKS[len(x)] = struct.Struct(f"{len(x)}b").pack
        return pack(*x)

    @property
    def identity(self):
        return ()

    def multiply(self, x, y):
        if not (x and y and x[-1] == -y[0]):
            return x + y
        # cancel the longest suffix of x that is the inverse of a prefix of y
        k, n = 1, min(len(x), len(y))
        while k < n and x[-1 - k] == -y[k]:
            k += 1
        return x[:len(x) - k] + y[k:]

    def product(self, elements: Iterable):
        # one cancellation stack for the whole word
        buf: List[int] = []
        for x in elements:
            for letter in x:
                if buf and buf[-1] == -letter:
                    buf.pop()
                else:
                    buf.append(letter)
        return tuple(buf)

    def inverse(self, x):
        return tuple(-letter for letter in reversed(x))

    def validate(self, x):
        ok = isinstance(x, tuple) and all(
            isinstance(v, int) and v != 0 and abs(v) <= self.rank for v in x
        ) and all(x[i] != -x[i + 1] for i in range(len(x) - 1))
        if not ok:
            raise StructuralError(f"not a reduced F2 word: {x!r}")
        return x

    def abelianization(self, x) -> AbelianImage:
        ea = sum(1 if v == 1 else -1 for v in x if abs(v) == 1)
        eb = sum(1 if v == 2 else -1 for v in x if abs(v) == 2)
        return AbelianImage(free=(ea, eb))

    _letters = {"a": (1,), "A": (-1,), "b": (2,), "B": (-2,)}
    _names = {1: "a", -1: "A", 2: "b", -2: "B"}

    def parse_element(self, text: str):
        return self._parse_word(text, self._letters)

    def format_element(self, x) -> str:
        return "".join(self._names[v] for v in x) or "id"

    def exact_metric(self, gens: Sequence) -> Optional[Callable]:
        if set(gens) == {(1,), (-1,), (2,), (-2,)}:
            return len
        return None


class FiniteCyclic(Group):
    def __init__(self, p: int):
        if p < 1:
            raise StructuralError("modulus must be >= 1")
        self.p = p
        self.name = f"Z_{p}"
        self.spec_string = f"zmod:{p}"

    @property
    def identity(self):
        return 0

    def multiply(self, x, y):
        return (x + y) % self.p

    def inverse(self, x):
        return (-x) % self.p

    def validate(self, x):
        if not isinstance(x, int) or not 0 <= x < self.p:
            raise StructuralError(f"not a Z_{self.p} element: {x!r}")
        return x

    def abelianization(self, x) -> AbelianImage:
        return AbelianImage(free=(), torsion=(x % self.p,), moduli=(self.p,))

    def order(self, x) -> int:
        from math import gcd

        return self.p // gcd(x % self.p, self.p) if x % self.p else 1

    def elements(self) -> List[int]:
        return list(range(self.p))

    def parse_element(self, text: str):
        obj = _literal(text)
        if not isinstance(obj, int):
            raise InputParseError(f"expected an integer, got {text!r}")
        return obj % self.p


def group_from_spec(spec: str) -> Group:
    """Build a group from its CLI spec string: z:d, heisenberg, bs:q, wreath, f2, zmod:p."""
    spec = spec.strip().lower()
    head, _, arg = spec.partition(":")
    try:
        if head == "z":
            return IntegerLattice(int(arg or 1))
        if head == "heisenberg":
            return Heisenberg()
        if head == "bs":
            return BaumslagSolitar(int(arg))
        if head == "wreath":
            return WreathZZ()
        if head == "f2":
            return FreeGroup()
        if head == "zmod":
            return FiniteCyclic(int(arg))
    except ValueError as exc:
        raise InputParseError(f"bad group spec {spec!r}: {exc}") from exc
    raise InputParseError(f"unknown group spec {spec!r}")


def split_generator_literals(text: str) -> List[str]:
    """Split a comma-separated generator list at top-level commas only."""
    parts: List[str] = []
    buf: List[str] = []
    level = 0
    for ch in text:
        if ch in "([{":
            level += 1
        elif ch in ")]}":
            level -= 1
            if level < 0:
                raise InputParseError(f"unbalanced brackets in {text!r} near {ch!r}")
        if ch == "," and level == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if level != 0:
        raise InputParseError(f"unbalanced brackets in generator list {text!r}")
    parts.append("".join(buf))
    out = [p.strip() for p in parts]
    if any(not p for p in out):
        raise InputParseError(f"empty generator literal in {text!r}")
    return out


def parse_generators(group: Group, text: str) -> Tuple:
    return tuple(group.parse_element(part) for part in split_generator_literals(text))
