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
import itertools
import math
import operator
import re
import struct
from bisect import bisect_left
from dataclasses import dataclass
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InputParseError, StructuralError
from .weights import MAX_DIGITS

#: one letter of a word, with an optional exponent: ``a``, ``b^-3``
_LETTER = re.compile(r"(\S)(?:\^([-+]?[0-9]+))?")


#: steps that ``IntegerLattice.product`` folds per pass; a sampled path of up to this many steps folds in one
_FOLD_CHUNK = 65_536


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

    #: Optional memo hook of ``group_walks.c1_search``: ``key(x)`` maps each
    #: canonical element to a hashable value, equal for equal elements only,
    #: that the search stores in place of x.  A group sets it when its element
    #: values hash poorly; None stores the elements themselves.
    key: Optional[Callable] = None

    #: Optional int-code hooks, set together or not at all: ``code(x)`` maps
    #: each canonical element to a non-negative int, distinct for distinct
    #: elements; ``translate_codes(codes, g)`` maps a numpy array of codes to
    #: the codes of the right translates x·g in one array pass, int64 while
    #: the results fit, else object; ``decode(codes)`` is the list of the
    #: elements of an array of codes, in order.  ``code`` may raise TypeError
    #: or ValueError on a value that is not an element, and ``code(x, below)``
    #: may return None instead of a code that is not below the int ``below``.
    #: A group that sets them (F2, Z_p) is its own ``coder``: the exact laws
    #: hold its codes, and the word-ball searches of ``group_walks`` run over
    #: them.  Z^d and the Heisenberg group have no fixed code, since their
    #: coordinates are unbounded: their ``coder`` is a ``Packing`` of the
    #: coordinates into int fields, whose ``translate_codes`` raises
    #: ``FieldOverflow`` rather than let a coordinate leave its field; the law
    #: is then re-packed by the ``wider`` packing, object ints past 63 bits.
    #: The other groups have no coder, and their laws intern the elements.
    code: Optional[Callable] = None
    translate_codes: Optional[Callable] = None
    decode: Optional[Callable] = None

    #: Optional norm hook for ``group_walks.c1_search``: ``norm(x)`` is an int
    #: with N(e) = 0, N(x^-1) = N(x) and N(xy) <= N(x) + N(y).  The search
    #: then drops a partial product whose norm exceeds what the letters still
    #: to be placed can undo: they must multiply to its inverse, and by
    #: subadditivity their product has norm at most the sum of theirs.  None
    #: registers no norm, and the search prunes by its memo alone.
    norm: Optional[Callable] = None

    @property
    def identity(self):
        raise NotImplementedError

    def multiply(self, x, y):
        raise NotImplementedError

    def translates(self, xs: Iterable, g) -> List:
        """The right translates ``[x·g for x in xs]``, in order.

        The batch hook of word balls, Cayley windows and the exact evolution
        engine; a group that overrides it returns exactly these values.
        """
        return list(map(self.multiply, xs, itertools.repeat(g)))

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

    def _word(self, text: str, letters: Dict[str, object], exponents: bool = False) -> List[Tuple[object, int]]:
        """(letters[c], n) for each letter c^n of a word, n = 1 for a bare letter.

        Blanks are skipped, and ``id`` alone is the empty word, as
        ``format_element`` prints the identity.  Exponents are read only when
        ``exponents`` is set.
        """
        if text.strip() == "id":
            return []
        word = []
        for token in _LETTER.finditer(text):
            letter, n = token.groups()
            if letter not in letters:
                raise InputParseError(f"bad letter {letter!r} in {self.name} word {text!r}")
            if n is not None and not exponents:
                raise InputParseError(f"{self.name} words take no exponents, got {token[0][:40]!r}")
            if n is not None and len(n.lstrip("+-")) > MAX_DIGITS:
                raise InputParseError(f"exponent of more than {MAX_DIGITS} digits in {self.name} word")
            word.append((letters[letter], 1 if n is None else int(n)))
        return word

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

    def coder(self):
        """The int coder of the exact laws: an object with the code hooks, None to intern elements."""
        return self if self.code is not None else None

    def __repr__(self) -> str:
        return f"<{self.name}>"


def _literal(text: str):
    try:
        return ast.literal_eval(text.strip())
    except (ValueError, SyntaxError) as exc:
        raise InputParseError(f"bad element literal {text!r}: {exc}") from exc


def _ints(values) -> bool:
    """Whether every value is exactly an int: a bool, an int subclass, is not."""
    return all(type(v) is int for v in values)


class FieldOverflow(ArithmeticError):
    """A packed coordinate would leave its field: the codes must be re-packed by ``Packing.wider``."""


class Packing:
    """Integer coordinates packed into fixed-width fields of one int: the coder of Z^d and Heisenberg laws.

    Coordinate i, offset by 2**(w-1) into a field of w = ``widths[i]`` bits,
    sits above the fields of the later coordinates, with one zero guard bit
    above it, so codes ascend in the lexicographic order of the elements.  A
    translate adds a constant to every code (the Heisenberg ``shear`` also
    adds a·y to c, with a read from the code).  A field whose value leaves
    [0, 2**w) by at most 2**w sets its guard bit, by a carry or a borrow,
    and the lowest such field is not disturbed by the fields below it; so
    one ``&`` of the results with the guard bits detects every field that
    overflows, once each increment is checked to be that small.  Either
    check raises ``FieldOverflow``: no coordinate ever wraps.  Codes of at
    most 63 bits, guards included, are int64; ``wider`` doubles every width,
    into object ints past that.
    """

    def __init__(self, widths: Tuple[int, ...], shear: bool = False):
        self.widths, self.shear = widths, shear
        self.offsets = tuple(1 << (w - 1) for w in widths)
        bits, shifts = 0, []
        for w in reversed(widths):
            shifts.insert(0, bits)
            bits += w + 1
        self.shifts = tuple(shifts)
        #: whether the codes are object ints, past the 63 bits of an int64
        self.wide = bits > 63
        self.guards = sum(1 << (s + w) for s, w in zip(self.shifts, widths))
        self._deltas: Dict[object, int] = {}

    def wider(self) -> "Packing":
        return Packing(tuple(2 * w for w in self.widths), self.shear)

    def code(self, x, below: Optional[int] = None) -> Optional[int]:
        """x's code, None when a coordinate leaves its field; a value that is not a tuple of d ints raises."""
        if not isinstance(x, tuple) or len(x) != len(self.widths):
            raise TypeError(f"not a vector of {len(self.widths)} coordinates: {x!r}")
        c = 0
        for v, o, s in zip(map(operator.index, x), self.offsets, self.shifts):
            if not -o <= v < o:
                return None
            c += (v + o) << s
        return c

    def _delta(self, g) -> int:
        """What a translate by g adds to every code, but the shear's a·y; ``FieldOverflow`` when an
        increment may pass 2**w.  Kept per step."""
        delta = self._deltas.get(g)
        if delta is None:
            incs = [abs(v) for v in g]
            if self.shear:
                # c gains z + a·y, and |a| <= 2**(w_a - 1)
                incs[2] += self.offsets[0] * incs[1]
            if any(inc > 1 << w for inc, w in zip(incs, self.widths)):
                raise FieldOverflow(f"step {g!r} leaves the fields of {self.widths}")
            delta = sum(v << s for v, s in zip(g, self.shifts))
            if self.shear:
                delta -= self.offsets[0] * g[1]
            self._deltas[g] = delta
        return delta

    def translate_codes(self, codes, g):
        """The codes of the translates x·g, in one add (and one shear) pass; ``FieldOverflow`` if one leaves its field."""
        import numpy as np

        delta = self._delta(g)
        if self.wide and codes.dtype != object:
            codes = codes.astype(object)
        out = codes + delta
        if self.shear and g[1]:
            out += (codes >> self.shifts[0]) * g[1]
        if np.count_nonzero(out & self.guards):
            raise FieldOverflow(f"a translate by {g!r} leaves the fields of {self.widths}")
        return out

    def decode(self, codes) -> List[tuple]:
        """The elements of the codes, read field by field: one shift, mask and offset pass per coordinate."""
        cols = [(((codes >> s) & ((1 << w) - 1)) - o).tolist()
                for w, o, s in zip(self.widths, self.offsets, self.shifts)]
        return list(zip(*cols))


class _IntVector(Group):
    """Elements are length-``d`` integer tuples, written ``[a, b, c]``."""

    d = 3

    @property
    def identity(self):
        return (0,) * self.d

    def validate(self, x):
        if not (isinstance(x, tuple) and len(x) == self.d and _ints(x)):
            raise StructuralError(f"not a {self.name} element: {x!r}")
        return x

    def parse_element(self, text: str):
        obj = _literal(text)
        if isinstance(obj, int) and self.d == 1:
            obj = (obj,)
        if not (isinstance(obj, (tuple, list)) and len(obj) == self.d and _ints(obj)):
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

    def translates(self, xs: Iterable, g) -> List:
        """By columns: each coordinate of the batch is shifted in one ``map``, and the rows zipped back."""
        return list(zip(*[map(add, col, itertools.repeat(s)) for col, s in zip(zip(*xs), g)]))

    def product(self, elements: Iterable):
        # coordinate sums over bounded chunks: unpacking a whole long path into zip() holds all of it at once;
        # a list short enough is its own only chunk, with no copy
        if isinstance(elements, list) and len(elements) <= _FOLD_CHUNK:
            chunks = (elements,)
        else:
            steps = iter(elements)
            chunks = iter(lambda: tuple(itertools.islice(steps, _FOLD_CHUNK)), ())
        acc = self.identity
        for chunk in chunks:
            acc = tuple(map(sum, zip(acc, *chunk)))
        return acc

    def inverse(self, x):
        return tuple(-a for a in x)

    def coder(self) -> Packing:
        """d fields of equal width in 63 bits, guards included; at least one bit each."""
        return Packing((max(1, 63 // self.d - 1),) * self.d)

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

    def coder(self) -> Packing:
        """a and b in 15 bits, c (quadratic in the walk's length) in 30: 63 bits with the guards."""
        return Packing((15, 15, 30), shear=True)

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
        # m1/q^l1 + q^k1 * m2/q^l2 over the common power q^L; a zero term builds no (huge) power of q
        l1, m1, k1 = x
        l2, m2, k2 = y
        q = self.q
        big_l = max(l1, l2 - k1, 0)
        m = (m1 * q ** (big_l - l1) if m1 else 0) + (m2 * q ** (big_l + k1 - l2) if m2 else 0)
        return self._normalize(big_l, m, k1 + k2)

    def inverse(self, x):
        l, m, k = x
        q = self.q
        e = l + k
        if e >= 0 or not m:
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
        """A word in a, A, b, B with optional exponents, such as ``format_element``'s ``a^-1 b^3 a``.

        The product builds powers of q up to the spread of the running
        a-exponent, so a word whose q^spread, or whose b-exponent, would have
        more than ``MAX_DIGITS`` digits is a parse error.
        """
        word = self._word(text, self._letters, exponents=True)
        heights = list(itertools.accumulate((n * g[2] for g, n in word), initial=0))
        if (max(heights) - min(heights)) * math.log10(self.q) > MAX_DIGITS:
            raise InputParseError(f"the a-exponents of {self.name} word {text[:40]!r} spread past "
                                  f"q^N of {MAX_DIGITS} digits")
        x = self.product(tuple(n * v for v in g) for g, n in word)
        if abs(x[1]) >= 10 ** MAX_DIGITS:
            raise InputParseError(f"{self.name} word {text[:40]!r} has a b-exponent of more than {MAX_DIGITS} digits")
        return x

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
        if not y[1]:
            return (x[0] + y[0], x[1])
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
            and type(x[0]) is int
            and isinstance(x[1], tuple)
            and all(
                isinstance(pv, tuple) and len(pv) == 2 and type(pv[0]) is int
                and type(pv[1]) is int and pv[1] != 0
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
        if not (isinstance(obj, tuple) and len(obj) == 2 and type(obj[0]) is int and isinstance(obj[1], dict)
                and _ints(obj[1]) and _ints(obj[1].values())):
            raise InputParseError(f"expected '(shift, {{pos: val, ...}})' with int shift, positions and values, "
                                  f"got {text!r}")
        return self.validate((obj[0], self._pack(obj[1])))

    def format_element(self, x) -> str:
        lamps = "{" + ", ".join(f"{p}: {v}" for p, v in x[1]) + "}"
        return f"({x[0]}, {lamps})"

    @staticmethod
    def norm(x) -> int:
        """|shift| + lamp mass: the shift adds and the lamp masses add at most, so the norm is subadditive."""
        return abs(x[0]) + sum(abs(v) for _, v in x[1])

    # every standard generator (a shift by one, a lamp at 0) has norm 1, so by
    # subadditivity a word of length L has norm at most L
    distance_lower_bound = norm


#: ``struct`` packers of F2 words by length, filled on first use up to _PACKED_LETTERS
_WORD_PACKS: Dict[int, Callable] = {}
_PACKED_LETTERS = 64

#: F2 letters as the base-5 digits of their engine codes, a, A, b, B = 1, 2, 3, 4:
#: from the signed bytes of ``FreeGroup.key`` to ASCII digits, and by letter value
_CODE_DIGITS = bytes.maketrans(b"\x01\xff\x02\xfe", b"1234")
_DIGIT = {1: 1, -1: 2, 2: 3, -2: 4}
#: the letter of each digit, 0 for none
_LETTERS = (0, 1, -1, 2, -2)
#: the largest int64 code that still has room for one more letter, 5c + 4 < 2**63
_CODE_FITS = (2 ** 63 - 5) // 5
#: base-5 digits of one int64 chunk of an object code in ``FreeGroup.decode``, and its base
_CHUNK_DIGITS = 27
_CHUNK_BASE = 5 ** _CHUNK_DIGITS
#: base-5 digits that one ``int`` call reads, under any int/str length limit of the interpreter
_CODE_CHUNK = 512


def _base5(digits: bytes) -> int:
    """The int of ASCII base-5 digits, halved until each ``int`` call reads at most ``_CODE_CHUNK``."""
    if len(digits) <= _CODE_CHUNK:
        return int(digits or b"0", 5)
    half = len(digits) // 2
    return _base5(digits[:half]) * 5 ** (len(digits) - half) + _base5(digits[half:])


class FreeGroup(Group):
    """Free group of rank 2; elements are reduced tuples of letters.

    Letters are +1/-1 for a/a^-1 and +2/-2 for b/b^-1.  The exact laws hold
    words as their base-5 codes (``code``, ``translate_codes``, ``decode``),
    the word-ball searches of ``group_walks`` run over codes without building
    a word, and ``c1_search``'s memo stores packed bytes (``key``): in CPython
    ``hash(-1) == hash(-2)``, so letter tuples that differ only by A <-> B
    share one hash, while ints and byte strings hash apart.
    """

    name = "F2"
    spec_string = "f2"
    rank = 2

    #: reduced length, the word metric of the free basis
    norm = staticmethod(len)

    @staticmethod
    def key(x):
        """The word's letters as signed bytes; a word longer than ``_PACKED_LETTERS`` is its own key.

        The packer cache stays bounded: a longer word makes no packer.
        """
        try:
            return _WORD_PACKS[len(x)](*x)
        except KeyError:
            if len(x) > _PACKED_LETTERS:
                return x
        pack = _WORD_PACKS[len(x)] = struct.Struct(f"{len(x)}b").pack
        return pack(*x)

    @staticmethod
    def code(x, below: Optional[int] = None) -> Optional[int]:
        """The word's letters as base-5 digits, the first letter most significant; the empty word is 0.

        Distinct words have distinct codes, and a value that is not a word
        raises (one that is not a tuple, whatever its items) or has the code
        of no word equal to it.  A word of n letters has a code of at least
        5**(n-1) >= 2**(n-1), so it is None, unbuilt, when n exceeds the bit
        length of ``below``.  A word longer than ``_PACKED_LETTERS`` is
        packed once, by no cached packer.
        """
        if not isinstance(x, tuple):
            raise TypeError(f"not a letter tuple: {x!r}")
        if below is not None and len(x) > below.bit_length():
            return None
        packed = FreeGroup.key(x)
        if packed is x:
            packed = struct.pack(f"{len(x)}b", *x)
        return _base5(packed.translate(_CODE_DIGITS))

    @staticmethod
    def translate_codes(codes, g):
        """The codes of the words x·g, from those of the words x: one array pass per letter of g.

        x·l for a letter l drops x's last letter when it is l's inverse, so
        the code c goes to c // 5 when c % 5 is the inverse's digit, and to
        5c + digit(l) otherwise; a word g of several letters folds this, as
        x·(l1 l2) = (x·l1)·l2.  int64 codes are cast once to object before a
        letter that might not fit.
        """
        for letter in g:
            if codes.dtype != object and codes.max(initial=0) > _CODE_FITS:
                codes = codes.astype(object)
            out = codes * 5 + _DIGIT[letter]
            back = codes % 5 == _DIGIT[-letter]
            out[back] = codes[back] // 5
            codes = out
        return codes

    @staticmethod
    def decode(codes) -> List[tuple]:
        """The words of an array of codes, in order.

        Object codes are cut into int64 chunks of ``_CHUNK_DIGITS`` base-5
        digits; each chunk gives its digits in int64 passes, into one row of
        letters per word, right-aligned.  A word's length is the count of its
        nonzero digits, and the rows of each length are unpacked as signed
        bytes by one ``struct`` per length.  Ascending codes come in ascending
        length, so their words need no reordering.
        """
        import numpy as np

        chunks = []  # least significant first
        while codes.dtype == object and codes.max(initial=0) >= 2 ** 63:
            chunks.append((codes % _CHUNK_BASE).astype(np.int64))
            codes = codes // _CHUNK_BASE
        chunks.append(codes.astype(np.int64))
        top = int(chunks[-1].max(initial=0))
        width = _CHUNK_DIGITS * (len(chunks) - 1) + next(n for n in itertools.count() if 5 ** n > top)
        digits = np.zeros((len(codes), width), dtype=np.int8)
        col = width
        for chunk in chunks:
            for _ in range(min(_CHUNK_DIGITS, col)):
                col -= 1
                chunk, digits[:, col] = np.divmod(chunk, 5)
        letters = np.array(_LETTERS, dtype=np.int8)[digits]
        lengths = np.count_nonzero(digits, axis=1)
        order = np.argsort(lengths, kind="stable")
        words: List[tuple] = []
        start = 0
        for k, count in enumerate(np.bincount(lengths).tolist()):
            rows = order[start:start + count]
            start += count
            if k == 0:
                words += [()] * count
            elif count:
                words += struct.Struct(f"{k}b").iter_unpack(letters[rows, width - k:].tobytes())
        if (order[1:] > order[:-1]).all():
            return words
        out: List = [None] * len(words)
        for i, w in zip(order.tolist(), words):
            out[i] = w
        return out

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

    def translates(self, xs: Iterable, g) -> List:
        """One comprehension for a one-letter step: drop x's last letter when it cancels g, else append g."""
        if len(g) != 1:
            return super().translates(xs, g)
        undo = -g[0]
        return [x[:-1] if x and x[-1] == undo else x + g for x in xs]

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
        ok = isinstance(x, tuple) and _ints(x) and all(
            v != 0 and abs(v) <= self.rank for v in x
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
        return self.product(g for g, _ in self._word(text, self._letters))

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

    def code(self, x, below: Optional[int] = None) -> Optional[int]:
        """The residue itself; None for an int outside 0..p-1, and a value that is not an int raises."""
        x = operator.index(x)
        return x if 0 <= x < self.p else None

    def translate_codes(self, codes, g):
        """(c + g) mod p in one pass: int64 while p < 2**62, so that c + g fits, else object."""
        if self.p >= 2 ** 62 and codes.dtype != object:
            codes = codes.astype(object)
        return (codes + g) % self.p

    @staticmethod
    def decode(codes) -> List[int]:
        return codes.tolist()

    def inverse(self, x):
        return (-x) % self.p

    def validate(self, x):
        if not (_ints((x,)) and 0 <= x < self.p):
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
        if not _ints((obj,)):
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


def _directions(group: Group, gens: Sequence) -> List:
    """The generators and their inverses, sorted, each once: the steps of the word metric over gens."""
    dirs = {group.validate(g) for g in gens}
    dirs |= {group.inverse(g) for g in gens}
    return sorted(dirs)
