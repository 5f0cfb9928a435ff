"""Exact distribution evolution, Monte Carlo sampling, and walk statistics.

Distributions are exact: integer numerators over a common integer
denominator, so convolution is pure integer arithmetic and mass is conserved
to the last bit.  Optional pruning, for groups whose supports explode, drops
small atoms and renormalizes in integers; everything computed from a law that
lost an atom is flagged approximate.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import random
import statistics
import sys
from collections import Counter, abc
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import PreconditionError, StructuralError, SupportOverflowError
from .groups import Group, WreathZZ
from .group_walks import _directions, word_ball
from .markov_graph import MAX_SUPPORT, check_budget


class SparseDistribution:
    """Finitely supported probability measure on group elements at time t.

    The atoms are two aligned sequences: the elements and a numpy object
    array of their Python-int numerators over the int ``denominator``.
    ``prob``, ``log_prob`` and ``in`` read a table built on the first such
    call: a list by engine id while the law holds the evolution engine, else
    an {element: numerator} dict.
    """

    #: True once pruning dropped an atom of this law or of a law it was evolved from
    approximate = False

    def __init__(self, group: Group, t: int, numerators: Dict[object, int], denominator: int = 1):
        import numpy as np

        if any(v <= 0 for v in numerators.values()):
            raise StructuralError("numerators must be positive")
        if sum(numerators.values()) != denominator:
            raise StructuralError("probabilities must sum to 1 exactly")
        self.group, self.t = group, t
        self._elements, self._den = list(numerators), denominator
        self._weights = np.array(list(numerators.values()), dtype=object)
        self._lookup = self._ids = self._engine = None

    @classmethod
    def _atoms(cls, group: Group, t: int, elements: List, weights, den: int,
               ids=None, engine: Optional["_Translates"] = None) -> "SparseDistribution":
        """A law from aligned atoms, unchecked; ``ids`` index them in ``engine``."""
        law = cls.__new__(cls)
        law.group, law.t = group, t
        law._elements, law._weights, law._den = elements, weights, den
        law._lookup, law._ids, law._engine = None, ids, engine
        return law

    def _release(self) -> None:
        """Drop the evolution engine; the law keeps its atoms."""
        self._ids = self._engine = self._lookup = None

    @classmethod
    def point(cls, group: Group) -> "SparseDistribution":
        """The law of the walk at t = 0: all mass on the identity."""
        return cls(group, 0, numerators={group.identity: 1}, denominator=1)

    @property
    def denominator(self) -> int:
        return self._den

    def support(self) -> Tuple:
        return tuple(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def _weight(self, x):
        """x's numerator, None off the support, from a table built on the first call:
        a list by engine id while the law holds the evolution engine, else a dict."""
        if self._lookup is None:
            if self._engine is None:
                self._lookup = dict(zip(self._elements, self._weights.tolist())).get
            else:
                import numpy as np

                by_id = np.full(len(self._engine.elements), None, dtype=object)
                by_id[self._ids] = self._weights
                find, n = self._engine.find, len(by_id)
                self._lookup = lambda x: by_id[i] if (i := find(x)) < n else None
        return self._lookup(x)

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
        return zip(self._elements, self._weights.tolist())

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


class _Translates:
    """Interned group elements and their right translates by fixed steps.

    Every element met gets an integer id once, through ``group.key`` when the
    group sets that hook.  ``x·g`` is computed once per (id, step) and kept in
    one numpy ``int32`` table per step (half the memory of ``intp``; a support
    of 2**31 elements cannot be held anyway), indexed by the id of x (-1 where
    not yet computed).  When g's inverse is a step too, computing y = x·g also
    fills the inverse's table at y with x, so translates back into a support
    cost no multiplication.
    """

    def __init__(self, group: Group, steps: List):
        import numpy as np

        self.group = group
        self.steps = steps
        self.elements: List = []
        self.index: Dict[object, int] = {}
        self.tables = [np.empty(0, dtype=np.int32) for _ in steps]
        position = {g: k for k, g in enumerate(steps)}
        #: the index of each step's inverse among the steps, None when it is not one
        self.inverses = [position.get(group.inverse(g)) for g in steps]

    def ids(self, xs: List) -> Iterator[int]:
        """Yield the id of each x of the list xs, giving a new x the next free id."""
        elements, setdefault, key = self.elements, self.index.setdefault, self.group.key
        n = len(elements)
        for x, k in zip(xs, xs if key is None else map(key, xs)):
            i = setdefault(k, n)
            if i == n:
                elements.append(x)
                n += 1
            yield i

    def find(self, x) -> int:
        """x's id, or ``len(elements)`` when x was never interned; a non-element misses."""
        n, key = len(self.elements), self.group.key
        if key is None:
            return self.index.get(x, n)
        try:
            return self.index.get(key(self.group.validate(x)), n)
        except StructuralError:
            return n

    def _table(self, k: int, n: int):
        """Step k's table, grown to at least n entries, new entries -1."""
        import numpy as np

        table = self.tables[k]
        if len(table) < n:
            table = self.tables[k] = np.concatenate((table, np.full(n - len(table), -1, dtype=np.int32)))
        return table

    def translate(self, ids) -> List:
        """The tables, with the translates of every id in ``ids`` filled in.

        Only entries still -1 are computed.  A skipped x·g is already
        interned, so new ids come in the same order as when every entry is
        computed.
        """
        import numpy as np

        mul, n = self.group.multiply, len(self.elements)
        for k, (g, inv) in enumerate(zip(self.steps, self.inverses)):
            table = self._table(k, n)
            fresh = ids[table[ids] < 0]
            ys = list(map(mul, map(self.elements.__getitem__, fresh), itertools.repeat(g)))
            table[fresh] = y_ids = np.fromiter(self.ids(ys), np.int32, len(ys))
            if inv is not None:
                self._table(inv, len(self.elements))[y_ids] = fresh
        return self.tables


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

    The step is one gather-add per step atom g with weight c:
    ``new[table_g[ids]] += weights * c`` over the ids of dist's support in a
    ``_Translates`` engine.  A right translation is injective, so no index
    repeats within one gather.  The result carries the engine, so the next
    step by the same atoms reuses every translate already computed.  A
    result of more than ``max_support`` atoms raises ``SupportOverflowError``.
    """
    if dist.group.spec_string != step.group.spec_string:
        raise PreconditionError(
            f"distributions live on different groups: {dist.group.name} vs {step.group.name}"
        )
    if prune_eps is not None and not (math.isfinite(prune_eps) and prune_eps > 0):
        raise PreconditionError(f"prune_eps must be a finite positive mass, got {prune_eps!r}")
    check_budget(max_support)
    import numpy as np

    engine = dist._engine
    if engine is None or engine.steps != step._elements:
        engine = _Translates(dist.group, step._elements)
        ids = np.fromiter(engine.ids(dist._elements), np.intp, len(dist))
    else:
        ids = dist._ids
    tables = engine.translate(ids)
    weights = dist._weights
    acc = np.zeros(len(engine.elements), dtype=object)
    for table, c in zip(tables, step._weights.tolist()):
        acc[table[ids]] += weights if c == 1 else weights * c
    support = np.flatnonzero(acc)
    new = acc[support]
    den = dist._den * step._den
    approximate = dist.approximate or step.approximate
    if prune_eps is not None:
        keep = new >= math.ceil(Fraction(prune_eps) * den)
        if not keep.any():
            raise PreconditionError(
                f"pruning at prune_eps={prune_eps!r} removes every atom at t={dist.t + step.t}"
            )
        if not keep.all():
            support, new = support[keep], new[keep]
            den, approximate = sum(new.tolist()), True
    if len(support) > max_support:
        hint = " or enable pruning" if prune_eps is None else ""
        raise SupportOverflowError(f"support {len(support)} exceeds {max_support}; use a smaller t{hint}")
    law = SparseDistribution._atoms(
        dist.group, dist.t + step.t, list(map(engine.elements.__getitem__, support)), new,
        den, support, engine)
    law.approximate = approximate
    return law


def walk_distributions(
    group: Group,
    gens: Sequence,
    t_max: int,
    prune_eps: Optional[float] = None,
    max_support: int = MAX_SUPPORT,
) -> List[SparseDistribution]:
    """mu^0 .. mu^t_max as a list, each law within ``max_support``; see ``evolve`` for pruning."""
    if t_max < 0:
        raise PreconditionError(f"t_max must be >= 0, got {t_max}")
    step = step_measure(group, gens)
    out = [SparseDistribution.point(group)]
    for _ in range(t_max):
        out.append(evolve(out[-1], step, prune_eps=prune_eps, max_support=max_support))
        out[-2]._release()
    out[-1]._release()
    return out


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


def _distance_fn(distance) -> Callable:
    if callable(distance):
        return distance

    def look(x):
        try:
            return distance[x]
        except KeyError:
            raise PreconditionError(f"no distance recorded for support point {x!r}") from None

    return look


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
    """
    import numpy as np
    from scipy.special import wrightomega

    if not math.isfinite(d_exp):
        raise PreconditionError(f"d_exp must be finite, got {d_exp!r}")
    dist_fn = _distance_fn(distance)
    mval = m if m is not None else (lambda x: 1.0)
    points: List[Tuple[int, object, float, int, float]] = []
    approximate = False
    for d in dists:
        if d.t < 1:
            continue
        approximate = approximate or d.approximate
        for x, n in d.numerators():
            points.append((d.t, x, n / d.denominator, dist_fn(x), float(mval(x))))
    if not points:
        raise PreconditionError("no distributions with t >= 1 given")
    if max(pt[0] for pt in points) ** (-abs(d_exp) / 2.0) < sys.float_info.min:
        raise PreconditionError(f"t^(d_exp/2) leaves the normal float range at d_exp={d_exp!r}")

    t, p, dd, mv = (np.array([pt[i] for pt in points], dtype=float) for i in (0, 2, 3, 4))
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
    # omega is good to a few tens of ulps: a margin still < 0 after 64 steps is a
    # bound that underflowed to a subnormal float, which ulps of C do not move
    for _ in range(64):
        margins = {(t, x): c_star * mv * t ** (-d_exp / 2.0) * math.exp(-dd * dd / (c_star * t)) - p
                   for t, x, p, dd, mv in points}
        if min(margins.values()) >= 0:
            return CVReport(c_star=c_star, d_exponent=d_exp, margins=margins, approximate=approximate)
        c_star = math.nextafter(c_star, math.inf)
    raise PreconditionError(f"C* = {c_star!r} cannot be certified: the Gaussian bound underflows at some point")


def escape_probability(dist: SparseDistribution, distance, alpha) -> Fraction:
    """Tail mass P[d(id, X_t) >= alpha t] of the law, exact."""
    if not 0 < float(alpha) <= 1:
        raise PreconditionError("alpha must lie in (0, 1]")
    thr = Fraction(alpha) * dist.t
    dist_fn = _distance_fn(distance)
    return Fraction(sum(n for x, n in dist.numerators() if dist_fn(x) >= thr), dist.denominator)


def volume_growth(group: Group, gens: Sequence, t_max: int,
                  max_support: int = MAX_SUPPORT) -> List[int]:
    """V(0..t_max): cumulative word-metric ball sizes over gens and inverses.

    Raises ``SupportOverflowError`` once the ball holds more than
    ``max_support`` elements.
    """
    sizes = Counter(word_ball(group, gens, t_max, max_support).values())
    return list(itertools.accumulate(sizes[t] for t in range(t_max + 1)))


# -- Monte Carlo --------------------------------------------------------------


def path_rng(seed: int, index: int) -> random.Random:
    """Per-path stream: MT19937 seeded with SHA-256 of "seed:index".

    Documented so identical seeds reproduce identical index streams across
    runs and platforms; paths are independent and may be generated in any
    order.  The stream contract of the samplers: step j of path i takes
    generator ``gens[r]``, where r is the j-th ``randrange(K)`` of
    ``path_rng(seed, i)`` and K = len(gens).  ``_path_indices`` replays
    exactly these draws in bulk.
    """
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


#: MT19937 words drawn per ``getrandbits`` call: its bit count is a C int, so one
#: call for a whole long path (2**26 words or more) raises OverflowError
_DRAW_WORDS = 1 << 20


def _path_indices(seed: int, index: int, t: int, k: int) -> List[int]:
    """The first t ``randrange(k)`` draws of ``path_rng(seed, index)`` (k >= 1), in bulk.

    ``randrange(k)`` takes the top ``k.bit_length()`` bits of the next
    32-bit MT19937 word and rejects values >= k (k < 2**32 here), and
    ``getrandbits(32 * n)`` returns the next n words, least significant
    first, the same words as n successive 32-bit draws.  So C-level draws
    of at most ``_DRAW_WORDS`` words, a shift and a mask replay the stream.
    """
    if k == 1:
        return [0] * t
    import numpy as np

    rng = path_rng(seed, index)
    shift = 32 - k.bit_length()
    out: List[int] = []
    while len(out) < t:
        # enough words for the missing draws at the expected rejection rate, plus slack
        n = min((t - len(out)) * (1 << k.bit_length()) // k + 16, _DRAW_WORDS)
        words = np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4") >> shift
        out += words[words < k].tolist()
    return out[:t]


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
    the identity, a fresh list of t+1 elements on every access.  Nothing is
    cached, so iterating holds one path at a time, and changes made to a
    returned list are not kept.  ``rows`` are the path indices i it holds, so a
    slice is a sample over the same streams; ``==`` compares paths with any
    sequence of paths.
    """

    def __init__(self, group: Group, gens: Tuple, t: int, seed: int, rows: range):
        self.group, self.gens, self.t, self.seed, self._rows = group, gens, t, seed, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SampledPaths(self.group, self.gens, self.t, self.seed, self._rows[i])
        steps = map(self.gens.__getitem__, _path_indices(self.seed, self._rows[i], self.t, len(self.gens)))
        return list(itertools.accumulate(steps, self.group.multiply, initial=self.group.identity))

    def __eq__(self, other) -> bool:
        if not isinstance(other, abc.Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def mc_sample(group: Group, gens: Sequence, t: int, n_paths: int, seed: int) -> SampledPaths:
    """Sampled trajectories (length t+1 each, starting at the identity), replayed on access.

    Every index access costs a full replay of that path: t draws and t
    ``multiply`` calls.  A caller that reads the sample several times pays
    that each time; one pass that collects everything it needs pays it once.
    """
    return SampledPaths(group, _sample_gens(group, gens, t, n_paths), t, seed, range(n_paths))


def _mc_endpoints(group: Group, gens: Sequence, t: int, n_paths: int, seed: int) -> List:
    """X_t of each sampled path: its steps folded by ``product``."""
    gens = _sample_gens(group, gens, t, n_paths)
    k = len(gens)
    return [group.product(gens[j] for j in _path_indices(seed, i, t, k)) for i in range(n_paths)]


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

    Distance resolution order: a closed-form metric registered for the
    generators and their inverses (the word metric of ``word_ball``), then a
    BFS table up to ``radius``, then the group's certified lower-bound metric
    (flagged, for groups whose balls are too big to enumerate).
    """
    if t < 1 or n_paths < 1:
        raise PreconditionError("t and n_paths must be >= 1")
    if radius is not None and radius < 0:
        raise PreconditionError("radius must be >= 0")
    endpoints = _mc_endpoints(group, gens, t, n_paths, seed)
    exact = group.exact_metric(tuple(_directions(group, gens)))
    table = word_ball(group, gens, radius) if exact is None and radius is not None else {}
    if exact is not None:
        dists, kind = [exact(x) for x in endpoints], "exact"
    elif radius is not None and all(x in table for x in endpoints):
        dists, kind = [table[x] for x in endpoints], "bfs"
    elif group.distance_lower_bound(group.identity) is not None:
        dists, kind = [group.distance_lower_bound(x) for x in endpoints], "lower_bound"
    elif radius is None:
        raise PreconditionError("no metric available: pass a BFS radius")
    else:
        missing = next(x for x in endpoints if x not in table)
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
    step = step_measure(group, gens)
    dist = SparseDistribution.point(group)
    for _ in range(t):
        dist = evolve(dist, step, max_support=max_support)
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
    """
    from bisect import bisect_left

    for path in paths:
        if not path or path[0] != _WREATH.identity:
            raise PreconditionError("paths must start at the identity")
        # incremental mirror of the lamp configuration: each step touches one
        # slot, so the per-step invariants cost O(log #lamps) instead of a
        # full rescan; the mirror is compared against the final element
        # exactly at the end of the path
        mirror: Dict[int, int] = {}
        odd_sum = even_sum = mass = 0
        prev_shift = 0
        for s, x in enumerate(path):
            shift, lamps = x
            if s > 0:
                delta = shift - prev_shift
                if delta == 2:
                    pos, inc = prev_shift + 1, 1
                elif delta == -2:
                    pos, inc = prev_shift, -1
                else:
                    raise PreconditionError(
                        f"step {s} changes the shift by {delta}; paths must come from the lamp pair"
                    )
                mirror[pos] = mirror.get(pos, 0) + inc
                if pos % 2 != 0:
                    odd_sum += inc
                else:
                    even_sum += inc
                mass += 1 if mirror[pos] * inc > 0 else -1
                if len(lamps) != len(mirror):
                    raise PreconditionError(
                        f"step {s} changes more than one lamp; paths must come from the lamp pair"
                    )
                i = bisect_left(lamps, (pos,))
                if i == len(lamps) or lamps[i][0] != pos or lamps[i][1] != mirror[pos]:
                    raise PreconditionError(
                        f"step {s} is not a single-lamp update; paths must come from the lamp pair"
                    )
            prev_shift = shift
            if shift % 2 != 0:
                return False
            if odd_sum - even_sum != s or mass != s:
                return False
        final = path[-1]
        _WREATH.validate(final)
        if tuple(sorted(mirror.items())) != final[1]:
            raise PreconditionError("path is inconsistent with its own increments")
        if any(v <= 0 for p, v in final[1] if p % 2 != 0):
            return False
        if any(v >= 0 for p, v in final[1] if p % 2 == 0):
            return False
    return True
