"""Exact distribution evolution, Monte Carlo sampling, and walk statistics.

Distributions are exact: integer numerators over a common integer
denominator, so convolution is pure integer arithmetic and mass is conserved
to the last bit.  Optional pruning, for groups whose supports explode, drops
small atoms and renormalizes in integers; everything computed from a law that
lost an atom is flagged approximate.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
import random
import statistics
import struct
import sys
from collections import abc, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import PreconditionError, StructuralError, SupportOverflowError
from .groups import FieldOverflow, Group, WreathZZ, _directions
from .group_walks import word_ball
from .markov_graph import MAX_SUPPORT, _collector_paused, check_budget


class SparseDistribution:
    """Finitely supported probability measure on group elements at time t.

    The atoms are two aligned numpy arrays: ascending int keys, and the
    Python-int numerators (object dtype) over the int ``denominator``.  The
    keys are the elements' codes under the law's coder: the group's own
    code hooks, a ``Packing`` of its coordinates (see ``Group.coder``), or,
    for a group with neither, the ids of an interning ``_Translates``.  A
    law built from its elements (a step law, ``point``) keeps them, in key
    order; an evolved law decodes them when ``support``, ``numerators`` or
    ``items`` are called.  ``prob``, ``log_prob`` and ``in`` binary-search
    x's code among the keys, and a code that is not below the largest key
    plus one is not built.
    """

    #: True once pruning dropped an atom of this law or of a law it was evolved from
    approximate = False
    #: the elements of a law built from them, in key order, and the largest key + 1, once read
    _decoded: Optional[List] = None
    _below: Optional[int] = None

    def __init__(self, group: Group, t: int, numerators: Dict[object, int], denominator: int = 1):
        import numpy as np

        if any(v <= 0 for v in numerators.values()):
            raise StructuralError("numerators must be positive")
        if sum(numerators.values()) != denominator:
            raise StructuralError("probabilities must sum to 1 exactly")
        elements = list(map(group.validate, numerators))
        weights = np.array(list(numerators.values()), dtype=object)
        coder = group.coder()
        if coder is None:
            coder = _Translates(group, [], elements)
            keys = np.arange(len(elements))
        else:
            coder, keys = _encode(coder, elements)
            order = np.argsort(keys, kind="stable")
            keys, weights = keys[order], weights[order]
            elements = [elements[i] for i in order.tolist()]
        self.group, self.t = group, t
        self._keys, self._weights, self._den, self._coder = keys, weights, denominator, coder
        self._decoded = elements

    @classmethod
    def _atoms(cls, group: Group, t: int, keys, weights, den: int, coder) -> "SparseDistribution":
        """A law from aligned ascending keys and numerators under ``coder``, unchecked."""
        law = cls.__new__(cls)
        law.group, law.t = group, t
        law._keys, law._weights, law._den, law._coder = keys, weights, den, coder
        return law

    def _release(self) -> None:
        """Trade an interning engine for a coder of the law's own elements, ids 0..n-1: the engine's tables go."""
        import numpy as np

        if isinstance(self._coder, _Translates) and self._coder.steps:
            self._coder = _Translates(self.group, [], self._coder.decode(self._keys))
            self._keys, self._below = np.arange(len(self._keys)), None

    @classmethod
    def point(cls, group: Group) -> "SparseDistribution":
        """The law of the walk at t = 0: all mass on the identity."""
        return cls(group, 0, numerators={group.identity: 1}, denominator=1)

    @property
    def denominator(self) -> int:
        return self._den

    def _elements(self) -> List:
        """The elements of the atoms in key order: those the law was built from, else decoded."""
        xs = self._decoded
        return self._coder.decode(self._keys) if xs is None else xs

    def support(self) -> Tuple:
        return tuple(self._elements())

    def __len__(self) -> int:
        return len(self._keys)

    def _weight(self, x):
        """x's numerator, None off the support: x's code, if it is below the largest key + 1, searched in the keys."""
        keys = self._keys
        if self._below is None:
            self._below = int(keys[-1]) + 1
        try:
            c = self._coder.code(x, self._below)
        except (TypeError, ValueError, struct.error):
            return None
        if c is None or c >= self._below:
            return None
        k = keys.searchsorted(c)
        return self._weights[k] if keys[k] == c else None

    def __contains__(self, x) -> bool:
        return self._weight(x) is not None

    def prob(self, x) -> Fraction:
        w = self._weight(x)
        return Fraction(w, self._den) if w else Fraction(0)

    def log_prob(self, x) -> float:
        """Natural log of the point mass; safe for huge denominators."""
        w = self._weight(x)
        if w is None:
            raise PreconditionError(f"element {x!r} outside the support")
        return math.log(w) - math.log(self._den)

    def numerators(self):
        """(x, integer numerator over ``denominator``) pairs."""
        return zip(self._elements(), self._weights.tolist())

    def items(self):
        den = self._den
        for x, n in self.numerators():
            yield x, Fraction(n, den)

    def total(self) -> Fraction:
        return Fraction(sum(self._weights.tolist()), self._den)

    def __repr__(self) -> str:
        mode = "approximate" if self.approximate else "exact"
        return f"SparseDistribution(t={self.t}, support={len(self)}, {mode})"


def step_measure(group: Group, gens: Sequence) -> SparseDistribution:
    """Law of one step: mu(x) = #{i : g_i = x} / K, exact."""
    if not gens:
        raise PreconditionError("empty generating sequence")
    counts: Dict[object, int] = {}
    for g in gens:
        g = group.validate(g)
        counts[g] = counts.get(g, 0) + 1
    return SparseDistribution(group, t=1, numerators=counts, denominator=len(gens))


def _int_array(codes: List):
    """A numpy array of int codes: int64 when every code fits, else object."""
    import numpy as np

    arr = np.array(codes, dtype=object)
    return arr.astype(np.int64) if arr.max(initial=0) < 2 ** 63 else arr


def _encode(coder, xs: List):
    """(coder, codes) of the elements xs: a packing too narrow for one of them is widened until all fit."""
    while True:
        codes = list(map(coder.code, xs))
        if None not in codes:
            return coder, _int_array(codes)
        coder = coder.wider()


class _Translates:
    """Interned group elements and their right translates by fixed steps: the coder of a group without one.

    Every element met gets an integer id once, and ``elements[i]`` is the
    element of id i; ids are the keys of the laws, and ``decode`` reads them.
    Ids are handed out a batch at a time (``ids``), so a slot whose batch
    entry was already interned is dead: its element is ``None`` and no id
    points at it.  ``x·g`` is computed once per (id, step) and kept in one
    numpy ``int32`` table per step (half the memory of ``intp``; a support
    of 2**31 elements cannot be held anyway), indexed by the id of x (-1
    where not yet computed or dead).  When g's inverse is a step too,
    computing y = x·g also fills the inverse's table at y with x, so
    translates back into a support cost no multiplication.  A coder made
    from a law's elements, with no steps, builds its index on first use.
    """

    def __init__(self, group: Group, steps: List, elements: Optional[List] = None):
        import numpy as np

        self.group = group
        self.steps = steps
        self.elements: List = [] if elements is None else elements
        self._index: Optional[Dict[object, int]] = None if elements else {}
        self.tables = [np.empty(0, dtype=np.int32) for _ in steps]
        self.position = {g: k for k, g in enumerate(steps)}
        #: the index of each step's inverse among the steps, None when it is not one
        self.inverses = [self.position.get(group.inverse(g)) for g in steps]

    @property
    def index(self) -> Dict[object, int]:
        if self._index is None:
            self._index = dict(zip(self.elements, itertools.count()))
        return self._index

    def ids(self, xs: List):
        """The ids of the elements of the list xs, as an ``intp`` array, in one C-level pass.

        With n = len(elements), xs[j] is given the provisional id n + j, which
        it keeps when it is new: the ids of new elements ascend in the order
        they first occur.  An xs[j] already interned, before this batch or
        earlier in it, gets its id and leaves slot n + j dead (``None``), so
        the duplicate is not kept.
        """
        import numpy as np

        elements, index = self.elements, self.index
        n, m, known = len(elements), len(xs), len(index)
        ids = np.fromiter(map(index.setdefault, xs, itertools.count(n)), np.intp, m)
        elements.extend(xs)
        if len(index) - known < m:
            dead = np.flatnonzero(ids != np.arange(n, n + m)) + n
            deque(map(elements.__setitem__, dead.tolist(), itertools.repeat(None)), maxlen=0)
        return ids

    def code(self, x, below: Optional[int] = None) -> Optional[int]:
        """The id of the interned element equal to x, as in a dict; None for any other value."""
        return self.index.get(x)

    def decode(self, ids) -> List:
        return list(map(self.elements.__getitem__, ids.tolist()))

    def _table(self, k: int, n: int):
        """Step k's table, grown to at least n entries, new entries -1."""
        import numpy as np

        table = self.tables[k]
        if len(table) < n:
            table = self.tables[k] = np.concatenate((table, np.full(n - len(table), -1, dtype=np.int32)))
        return table

    def translate_codes(self, ids, g):
        """The ids of the translates x·g of the ids' elements, by step g's table.

        Only entries still -1 are computed, in one ``group.translates``
        batch.  A skipped x·g is already interned, so new ids come in the
        same order as when every entry is computed.
        """
        k = self.position[g]
        inv = self.inverses[k]
        table = self._table(k, len(self.elements))
        fresh = ids[table[ids] < 0]
        ys = self.group.translates(map(self.elements.__getitem__, fresh.tolist()), g)
        table[fresh] = y_ids = self.ids(ys)
        if inv is not None:
            self._table(inv, len(self.elements))[y_ids] = fresh
        return table[ids]


def _merge(parts):
    """The ascending distinct keys of the parts, and each part's positions among them."""
    import numpy as np

    support, inverse = np.unique(np.concatenate(parts), return_inverse=True)
    n = len(parts[0])
    return support, [inverse[i:i + n] for i in range(0, len(inverse), n)]


def evolve(
    dist: SparseDistribution,
    step: SparseDistribution,
    prune_eps: Optional[float] = None,
    max_support: int = MAX_SUPPORT,
) -> SparseDistribution:
    """Right convolution: the law after one more independent step.

    Exact integer arithmetic over D = dist.denominator * step.denominator.
    Pruning keeps the atoms of mass at least ``prune_eps`` (a finite positive
    mass), that is the numerators n >= ceil(prune_eps * D), and makes their
    sum the new denominator, so a pruned law is exact too and has mass 1.
    The result is ``approximate`` once an atom was dropped, here or in an
    input; a threshold that drops nothing changes nothing.

    dist's keys are translated by every step atom g with the coder's
    ``translate_codes``: the group's code hooks, its packing (re-packed by
    the wider one, and retried, when a coordinate would leave its field),
    or the tables of an interning ``_Translates``, which the result keeps,
    so the next step by the same atoms reuses every translate computed.  One
    merge gives the new ascending keys and each translate's positions among
    them; the sum is one gather-add per step atom of weight c,
    ``new[positions_g] += weights * c``, into an object array as long as the
    new support.  A right translation is injective, so no position repeats
    within one gather.  A result of more than ``max_support`` atoms raises
    ``SupportOverflowError``: before any sum is built when nothing is
    pruned, after pruning otherwise.
    """
    if dist.group.spec_string != step.group.spec_string:
        raise PreconditionError(
            f"distributions live on different groups: {dist.group.name} vs {step.group.name}"
        )
    if prune_eps is not None and not (math.isfinite(prune_eps) and prune_eps > 0):
        raise PreconditionError(f"prune_eps must be a finite positive mass, got {prune_eps!r}")
    check_budget(max_support)
    import numpy as np

    t = dist.t + step.t
    with _collector_paused():
        coder, keys, steps = dist._coder, dist._keys, step._elements()
        if isinstance(coder, _Translates) and coder.steps != steps:
            coder = _Translates(dist.group, steps)
            keys = coder.ids(dist._elements())
        while True:
            try:
                parts = [coder.translate_codes(keys, g) for g in steps]
                break
            except FieldOverflow:
                coder, keys = _encode(coder.wider(), coder.decode(keys))
        support, where = _merge(parts)
        del parts  # the translated keys go before the sums are built
        if prune_eps is None:
            _check_support(len(support), max_support, prune_eps)
        weights = dist._weights
        new = np.zeros(len(support), dtype=object)
        for positions, c in zip(where, step._weights.tolist()):
            new[positions] += weights if c == 1 else weights * c
    den = dist._den * step._den
    approximate = dist.approximate or step.approximate
    if prune_eps is not None:
        keep = new >= math.ceil(Fraction(prune_eps) * den)
        if not keep.any():
            raise PreconditionError(f"pruning at prune_eps={prune_eps!r} removes every atom at t={t}")
        if not keep.all():
            support, new = support[keep], new[keep]
            den, approximate = sum(new.tolist()), True
        _check_support(len(support), max_support, prune_eps)
    law = SparseDistribution._atoms(dist.group, t, support, new, den, coder)
    law.approximate = approximate
    return law


def _check_support(size: int, max_support: int, prune_eps: Optional[float]) -> None:
    if size > max_support:
        hint = " or enable pruning" if prune_eps is None else ""
        raise SupportOverflowError(f"support {size} exceeds {max_support}; use a smaller t{hint}")


def walk_laws(
    group: Group,
    gens: Sequence,
    t_max: int,
    prune_eps: Optional[float] = None,
    max_support: int = MAX_SUPPORT,
) -> Iterator[SparseDistribution]:
    """mu^0 .. mu^t_max, one law at a time, each within ``max_support``; see ``evolve`` for pruning.

    Each law comes from the module-level ``evolve``.  A law of an interning
    group is yielded while it holds the engine, so its keyed lookups go
    through the engine, and released once the next law is computed; the last
    one when the consumer resumes past it.  A consumer that keeps only what
    it reads of each law holds one law at a time.  The collector is never
    paused across a ``yield`` (``evolve`` pauses itself), so an abandoned
    stream leaves it as it was.
    """
    if t_max < 0:
        raise PreconditionError(f"t_max must be >= 0, got {t_max}")
    step = step_measure(group, gens)
    law = SparseDistribution.point(group)
    yield law
    for _ in range(t_max):
        law, last = evolve(law, step, prune_eps=prune_eps, max_support=max_support), law
        last._release()
        yield law
    law._release()


def walk_distributions(
    group: Group,
    gens: Sequence,
    t_max: int,
    prune_eps: Optional[float] = None,
    max_support: int = MAX_SUPPORT,
) -> List[SparseDistribution]:
    """mu^0 .. mu^t_max as a list: the whole of ``walk_laws``."""
    with _collector_paused():
        return list(walk_laws(group, gens, t_max, prune_eps, max_support))


# -- Gaussian bound fitting ---------------------------------------------------


@dataclass
class CVReport:
    """Minimal constant C with mu^t(x) <= C m(x) t^(-d/2) exp(-d(x)^2 / (C t))."""

    c_star: float
    d_exponent: float
    margins: Dict[Tuple[int, object], float]
    approximate: bool = False

    @property
    def min_margin(self) -> float:
        return min(self.margins.values(), default=math.inf)

    @property
    def violated(self) -> bool:
        return self.min_margin < 0


def _no_distance(x) -> PreconditionError:
    return PreconditionError(f"no distance recorded for support point {x!r}")


def _distance_fn(distance) -> Callable:
    if callable(distance):
        return distance

    def look(x):
        try:
            return distance[x]
        except KeyError:
            raise _no_distance(x) from None

    return look


def _word_metric(group: Group, gens: Sequence, radius: Optional[int], max_support: int = MAX_SUPPORT):
    """The word metric over gens and inverses: the group's closed form, else the ``word_ball`` table to ``radius``.

    None when there is neither: no closed form and no radius.
    """
    exact = group.exact_metric(tuple(_directions(group, gens)))
    if exact is not None or radius is None:
        return exact
    return word_ball(group, gens, radius, max_support)


def fit_cv_constant(
    dists: Sequence[SparseDistribution],
    distance,
    m: Optional[Callable] = None,
    d_exp: float = 0.0,
) -> CVReport:
    """Fit the minimal Gaussian-bound constant in closed form.

    With a = d(x)^2 / t and b = p t^(d_exp/2) / m(x), a point holds at C iff
    C exp(-a/C) >= b, which increases in C: the least such C is b when a = 0
    and a / W0(a/b) otherwise (Lambert W, principal branch; Corless et al.,
    1996).  C* is their maximum, stepped up with ``math.nextafter`` until
    every margin, rounded as reported, is >= 0.

    The points are the (t, x) of the laws with t >= 1, in law order.  Their
    columns are built by C-level maps: p = n / denominator, the distance (a
    table's item or the callable's value) and the measure, which are
    called point by point, distance first, as a loop over the points would.
    A margin is c m(x) t^(-d_exp/2) exp(-d(x)^2 / (c t)) - p with the
    operations of that loop: float64 array products, -d(x) * d(x) taken
    exactly before it is rounded, t^(-d_exp/2) from ``pow`` once per t, and
    ``math.exp`` at each point, so every margin has the bits of libm's exp.
    """
    import numpy as np
    from scipy.special import wrightomega

    if not math.isfinite(d_exp):
        raise PreconditionError(f"d_exp must be finite, got {d_exp!r}")
    get = distance if callable(distance) else functools.partial(operator.getitem, distance)
    laws = [d for d in dists if d.t >= 1]
    keys: List[Tuple[int, object]] = []
    ps: List[float] = []
    columns: List = []  # d(x) and float(m(x)) of each point, interleaved
    with _collector_paused():
        for d in laws:
            xs = d._elements()
            keys += zip(itertools.repeat(d.t), xs)
            ps += map(operator.truediv, d._weights.tolist(), itertools.repeat(d._den))
            at_d, at_m = iter(xs), iter(xs)
            try:
                columns += itertools.chain.from_iterable(
                    zip(map(get, at_d), itertools.repeat(1.0) if m is None else map(float, map(m, at_m))))
            except KeyError:
                # the table raised when the distance has taken one point more than the measure
                if get is distance or operator.length_hint(at_d) == operator.length_hint(at_m):
                    raise
                raise _no_distance(xs[len(xs) - operator.length_hint(at_d) - 1]) from None
        if not keys:
            raise PreconditionError("no distributions with t >= 1 given")
        times = [d.t for d in laws]
        sizes = [len(d) for d in laws]
        if max(itertools.compress(times, sizes)) ** (-abs(d_exp) / 2.0) < sys.float_info.min:
            raise PreconditionError(f"t^(d_exp/2) leaves the normal float range at d_exp={d_exp!r}")

        distances = columns[0::2]
        t = np.repeat(np.array(times, dtype=float), sizes)
        p, dd, mv = (np.array(col, dtype=float) for col in (ps, distances, columns[1::2]))
        if not (mv.min() > 0 and mv.max() < math.inf):
            raise PreconditionError(f"measure must be finite and positive, got values in [{mv.min()}, {mv.max()}]")
        a = dd * dd / t
        moving = a > 0
        # W0(a/b) = omega(log a - log b), the Wright omega function, since a/b
        # overflows in the far tail; b = 0 gives C = 0, an infinite b is rejected
        with np.errstate(divide="ignore", over="ignore"):
            c = p * t ** (d_exp / 2.0) / mv
            c[moving] = a[moving] / wrightomega(np.log(a[moving]) - np.log(c[moving]))
        c_star = float(c.max())
        if not math.isfinite(c_star):
            raise PreconditionError(f"no finite constant: t^(d_exp/2) / m(x) overflows at d_exp={d_exp!r}")
        exponent = np.array(list(map(operator.mul, map(operator.neg, distances), distances)), dtype=float)
        scale = np.repeat([pow(s, -d_exp / 2.0) for s in times], sizes)
        # omega is good to a few tens of ulps: a margin still < 0 after 64 steps is a
        # bound that underflowed to a subnormal float, which ulps of C do not move
        for _ in range(64):
            with np.errstate(all="ignore"):
                decay = np.fromiter(map(math.exp, (exponent / (c_star * t)).tolist()), float, len(keys))
                margins = dict(zip(keys, (c_star * mv * scale * decay - p).tolist()))
            if min(margins.values()) >= 0:
                return CVReport(c_star=c_star, d_exponent=d_exp, margins=margins,
                                approximate=any(d.approximate for d in laws))
            c_star = math.nextafter(c_star, math.inf)
        raise PreconditionError(f"C* = {c_star!r} cannot be certified: the Gaussian bound underflows at some point")


def escape_probability(dist: SparseDistribution, distance, alpha) -> Fraction:
    """Tail mass P[d(id, X_t) >= alpha t] of the law, exact."""
    if not 0 < float(alpha) <= 1:
        raise PreconditionError("alpha must lie in (0, 1]")
    thr = Fraction(alpha) * dist.t
    dist_fn = _distance_fn(distance)
    return Fraction(sum(n for x, n in dist.numerators() if dist_fn(x) >= thr), dist.denominator)


# -- Monte Carlo --------------------------------------------------------------


def path_rng(seed: int, index: int) -> random.Random:
    """Per-path stream: MT19937 seeded with SHA-256 of "seed:index".

    Documented so identical seeds reproduce identical index streams across
    runs and platforms; paths are independent and may be generated in any
    order.  The stream contract of the samplers: step j of path i takes
    generator ``gens[r]``, where r is the j-th ``randrange(K)`` of
    ``path_rng(seed, i)`` and K = len(gens).  ``_sample_steps`` replays
    exactly these draws a block of paths at a time, and ``_path_indices``
    one path in bounded chunks.
    """
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


#: MT19937 words drawn per ``getrandbits`` call of ``_path_indices``: its bit count
#: is a C int, so one call for a whole long path (2**26 words or more) raises
#: OverflowError, and the chunks keep a long path's draws in bounded memory
_DRAW_WORDS = 1 << 20

#: MT19937 words in flight in one block pass of ``_sample_steps``; a path that
#: needs more takes ``_path_indices``
_BLOCK_WORDS = 1 << 14

#: standard deviations of slack in a path's block draw over its expected word count
_SLACK_SDS = 6


def _path_indices(seed: int, index: int, t: int, k: int) -> Iterator:
    """The first t ``randrange(k)`` draws of ``path_rng(seed, index)`` (k >= 1), as numpy chunks.

    ``randrange(k)`` takes the top ``k.bit_length()`` bits of the next
    32-bit MT19937 word and rejects values >= k (k < 2**32 here), and
    ``getrandbits(32 * n)`` returns the next n words, least significant
    first, the same words as n successive 32-bit draws.  So C-level draws
    of at most ``_DRAW_WORDS`` words, a shift and a mask replay the stream;
    each chunk holds at most ``_DRAW_WORDS`` draws.
    """
    import numpy as np

    rng = path_rng(seed, index)
    shift = 32 - k.bit_length()
    while t > 0:
        # enough words for the missing draws at the expected rejection rate, plus slack
        n = min(t * (1 << k.bit_length()) // k + 16, _DRAW_WORDS)
        words = np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4") >> shift
        chunk = words[words < k][:t]
        t -= len(chunk)
        yield chunk


def _sample_steps(gens: Tuple, t: int, seed: int, rows: range) -> Iterator:
    """The t steps of each path in ``rows``, in order, as generator elements from ``gens``.

    A block pass appends the first n words of each path's ``path_rng`` (n is
    its expected word count plus ``_SLACK_SDS`` standard deviations) to one
    buffer of at most ``_BLOCK_WORDS`` words, then shifts, rejects and keeps
    the first t draws of every path in one numpy pass.  The kept draws
    gather their steps from an object array of ``gens``, so a path comes out
    as a list of generator elements with no Python frame per step.  A path
    whose draw comes up short and a path whose words do not fit one block
    take ``_path_indices`` instead: a chain of its bounded chunks.  Both
    routes replay the same ``path_rng`` draws.
    """
    import numpy as np

    k = len(gens)
    table = np.empty(k, dtype=object)
    for j, g in enumerate(gens):
        table[j] = g

    def chunked(i):
        return itertools.chain.from_iterable(table[c].tolist() for c in _path_indices(seed, i, t, k))

    # a draw is kept with probability p = k / m (m = 2**k.bit_length()), so t draws take
    # t / p words on average, with standard deviation sqrt(t (1 - p)) / p
    m = 1 << k.bit_length()
    n = (t * m + _SLACK_SDS * math.isqrt(t * (m - k) * m)) // k + 1
    per_block = _BLOCK_WORDS // n if t > 0 else 0
    if not per_block:
        yield from map(chunked, rows)
        return
    shift = 32 - k.bit_length()
    for start in range(0, len(rows), per_block):
        block = rows[start:start + per_block]
        buf = bytearray()
        for i in block:
            buf += path_rng(seed, i).getrandbits(32 * n).to_bytes(4 * n, "little")
        words = np.frombuffer(buf, "<u4").reshape(len(block), n) >> shift
        keep = words < k
        count = np.cumsum(keep, axis=1)
        full = count[:, -1] >= t
        # the first t kept draws of every path with at least t of them
        keep &= (count <= t) & full[:, None]
        steps = iter(table[words[keep]].reshape(-1, t).tolist())
        for i, ok in zip(block, full.tolist()):
            yield next(steps) if ok else chunked(i)


def _sample_gens(group: Group, gens: Sequence, t: int, n_paths: int) -> Tuple:
    """The validated generators of a sample of n_paths paths of t steps, checked up front."""
    if t < 0 or n_paths < 0:
        raise PreconditionError(f"t and n_paths must be >= 0, got t={t}, n_paths={n_paths}")
    gens = tuple(group.validate(g) for g in gens)
    if not gens:
        raise PreconditionError("empty generating sequence")
    return gens


class SampledPaths(abc.Sequence):
    """The trajectories of ``mc_sample``, each replayed from its index stream on access.

    Path i is the ``path_rng`` stream of (seed, i) folded by ``multiply`` from
    the identity, a fresh list of t+1 elements on every access: its steps
    come from a one-row block pass of ``_sample_steps``.  Nothing is cached,
    so iterating holds one path at a time, and changes made to a returned
    list are not kept.  ``rows`` are the path indices i it holds, so a slice
    is a sample over the same streams; ``==`` compares paths with any
    sequence of paths.
    """

    def __init__(self, group: Group, gens: Tuple, t: int, seed: int, rows: range):
        self.group, self.gens, self.t, self.seed, self._rows = group, gens, t, seed, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SampledPaths(self.group, self.gens, self.t, self.seed, self._rows[i])
        row = self._rows[i]
        with _collector_paused():
            steps = next(_sample_steps(self.gens, self.t, self.seed, range(row, row + 1)))
            return list(itertools.accumulate(steps, self.group.multiply, initial=self.group.identity))

    def __eq__(self, other) -> bool:
        if not isinstance(other, abc.Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def mc_sample(group: Group, gens: Sequence, t: int, n_paths: int, seed: int) -> SampledPaths:
    """Sampled trajectories (length t+1 each, starting at the identity), replayed on access.

    Every index access costs a full replay of that path: its t draws in a
    one-row ``_sample_steps`` pass and t ``multiply`` calls.  A caller that
    reads the sample several times pays that each time; one pass that
    collects everything it needs pays it once.
    """
    return SampledPaths(group, _sample_gens(group, gens, t, n_paths), t, seed, range(n_paths))


def _mc_endpoints(group: Group, gens: Sequence, t: int, n_paths: int, seed: int) -> List:
    """X_t of each sampled path: the steps of ``_sample_steps`` folded by ``product``, a block at a time."""
    gens = _sample_gens(group, gens, t, n_paths)
    with _collector_paused():
        return list(map(group.product, _sample_steps(gens, t, seed, range(n_paths))))


@dataclass
class SpeedEstimate:
    value: float
    stderr: float
    t: int
    n_paths: int
    seed: int
    metric_kind: str  # "exact", "bfs", or "lower_bound"


@dataclass
class EntropyEstimate:
    value: float
    stderr: float
    t: int
    n_paths: int
    seed: int
    support: int = 0


def _mean_stderr(values: Sequence[float]) -> Tuple[float, float]:
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, statistics.stdev(values) / math.sqrt(len(values))


def speed_estimate(
    group: Group,
    gens: Sequence,
    t: int,
    n_paths: int,
    seed: int,
    radius: Optional[int] = None,
) -> SpeedEstimate:
    """Mean displacement rate d(id, X_t) / t over sampled paths.

    Distance resolution order: the word metric of ``_word_metric`` (a closed
    form registered for the generators and their inverses, else a
    ``word_ball`` table up to ``radius``), then the group's certified
    lower-bound metric (flagged, for groups whose balls are too big to
    enumerate).
    """
    if t < 1 or n_paths < 1:
        raise PreconditionError("t and n_paths must be >= 1")
    if radius is not None and radius < 0:
        raise PreconditionError("radius must be >= 0")
    endpoints = _mc_endpoints(group, gens, t, n_paths, seed)
    metric = _word_metric(group, gens, radius)
    if callable(metric):
        dists, kind = [metric(x) for x in endpoints], "exact"
    elif metric is not None and all(x in metric for x in endpoints):
        dists, kind = [metric[x] for x in endpoints], "bfs"
    elif group.distance_lower_bound(group.identity) is not None:
        dists, kind = [group.distance_lower_bound(x) for x in endpoints], "lower_bound"
    elif metric is None:
        raise PreconditionError("no metric available: pass a BFS radius")
    else:
        missing = next(x for x in endpoints if x not in metric)
        raise PreconditionError(
            f"endpoint {group.format_element(missing)} beyond BFS radius {radius} "
            "and no lower-bound metric is registered"
        )
    mean, err = _mean_stderr([d / t for d in dists])
    return SpeedEstimate(value=mean, stderr=err, t=t, n_paths=n_paths, seed=seed,
                         metric_kind=kind)


def entropy_estimate(
    group: Group,
    gens: Sequence,
    t: int,
    n_paths: int,
    seed: int,
    max_support: int = MAX_SUPPORT,
) -> EntropyEstimate:
    """Mean of -(1/t) log mu^t(X_t) over sampled paths, with exact mu^t."""
    if t < 1 or n_paths < 1:
        raise PreconditionError("t and n_paths must be >= 1")
    with _collector_paused():
        # the law keeps its engine: the stream is left before it releases mu^t
        dist = next(itertools.islice(walk_laws(group, gens, t, max_support=max_support), t, None))
        endpoints = _mc_endpoints(group, gens, t, n_paths, seed)
        values = [-dist.log_prob(x) / t for x in endpoints]
        mean, err = _mean_stderr(values)
        return EntropyEstimate(value=mean, stderr=err, t=t, n_paths=n_paths, seed=seed,
                               support=len(dist))


# -- the wreath lamp bookkeeping ---------------------------------------------

_WREATH = WreathZZ()

#: shift-two pair whose walk never returns: (+2, lamp +1 at 1), (-2, lamp -1 at 0)
WREATH_LAMP_PAIR = ((2, ((1, 1),)), (-2, ((0, -1),)))


def wreath_lamp_identity(paths: Sequence[Sequence]) -> bool:
    """Check the exact lamp-count identity along sampled wreath paths.

    For the shift-two pair every step adds +1 at an odd slot or -1 at an
    even slot (slots can be hit repeatedly), so odd lamps stay positive,
    even lamps stay negative, (sum of odd lamps) - (sum of even lamps) = t
    exactly, total lamp mass equals t, and the walker's shift stays even.
    Paths made with any other generating pair are rejected.

    Each step is checked against an incremental mirror of the lamps: it must
    move the shift by +-2, the lamp that move names (the touched lamp) must
    hold the mirror's new value, and the element must have as many lamps as
    the mirror.  The final element must equal the mirror in full.  The other
    lamps of an intermediate element are not read, so a path that corrupts
    an untouched lamp of an intermediate element, keeping its lamp count,
    passes.  The mirror satisfies the identity at every step, so the final
    element does: the shift starts at 0 and moves by +-2, so it stays even;
    a +2 step from shift s adds +1 at the odd slot s + 1 and a -2 step from
    s adds -1 at the even slot s, so an odd slot only grows from 0 and an
    even slot only falls from 0.  Hence odd lamps are positive, even lamps
    negative, and every step adds 1 both to (odd sum) - (even sum) and to
    the total mass.  A failed check raises ``PreconditionError``; otherwise
    the function returns True.
    """
    from bisect import bisect_left

    with _collector_paused():
        for path in paths:
            if not path or path[0] != _WREATH.identity:
                raise PreconditionError("paths must start at the identity")
            # each step touches one slot, so the per-step check costs O(log #lamps)
            # instead of a full rescan
            mirror: Dict[int, int] = {}
            prev_shift = path[0][0]
            for s, (shift, lamps) in enumerate(itertools.islice(path, 1, None), 1):
                delta = shift - prev_shift
                if delta == 2:
                    pos, inc = prev_shift + 1, 1
                elif delta == -2:
                    pos, inc = prev_shift, -1
                else:
                    raise PreconditionError(
                        f"step {s} changes the shift by {delta}; paths must come from the lamp pair"
                    )
                value = mirror[pos] = mirror.get(pos, 0) + inc
                if len(lamps) != len(mirror):
                    raise PreconditionError(
                        f"step {s} changes more than one lamp; paths must come from the lamp pair"
                    )
                i = bisect_left(lamps, (pos,))
                if i == len(lamps) or lamps[i][0] != pos or lamps[i][1] != value:
                    raise PreconditionError(
                        f"step {s} is not a single-lamp update; paths must come from the lamp pair"
                    )
                prev_shift = shift
            final = path[-1]
            _WREATH.validate(final)
            if tuple(sorted(mirror.items())) != final[1]:
                raise PreconditionError("path is inconsistent with its own increments")
    return True
