"""Exact distribution evolution, Monte Carlo sampling, and walk statistics.

Distributions are exact by default: integer numerators over a common power
of the step denominator, so convolution is pure integer arithmetic and mass
is conserved to the last bit.  An optional pruning mode switches to floats
for groups whose supports explode; everything computed from a pruned
distribution is flagged approximate.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import PreconditionError, StructuralError, SupportOverflowError
from .groups import Group, WreathZZ
from .group_walks import word_ball
from .weights import Weight


class SparseDistribution:
    """Finitely supported probability measure on group elements at time t."""

    def __init__(self, group: Group, t: int, numerators: Optional[Dict[object, int]] = None,
                 denominator: int = 1, values: Optional[Dict[object, float]] = None):
        self.group = group
        self.t = t
        if (numerators is None) == (values is None):
            raise StructuralError("exactly one of numerators/values must be given")
        self._num = numerators
        self._den = denominator
        self._values = values
        if numerators is not None:
            if any(v <= 0 for v in numerators.values()):
                raise StructuralError("numerators must be positive")
            if sum(numerators.values()) != denominator:
                raise StructuralError("probabilities must sum to 1 exactly")
        else:
            if any(v <= 0 for v in values.values()):
                raise StructuralError("probabilities must be positive")
            if abs(sum(values.values()) - 1.0) > 1e-9:
                raise StructuralError("probabilities must sum to 1 within 1e-9")

    @classmethod
    def point(cls, group: Group, x=None, t: int = 0) -> "SparseDistribution":
        x = group.identity if x is None else group.validate(x)
        return cls(group, t, numerators={x: 1}, denominator=1)

    @property
    def approximate(self) -> bool:
        return self._num is None

    @property
    def denominator(self) -> Optional[int]:
        return self._den if self._num is not None else None

    def support(self):
        return (self._num or self._values).keys()

    def __len__(self) -> int:
        return len(self._num or self._values)

    def __contains__(self, x) -> bool:
        return x in (self._num or self._values)

    def prob(self, x) -> Weight:
        if self._num is not None:
            n = self._num.get(x, 0)
            return Fraction(n, self._den) if n else Fraction(0)
        return self._values.get(x, 0.0)

    def log_prob(self, x) -> float:
        """Natural log of the point mass; exact-mode safe for huge denominators."""
        if self._num is not None:
            n = self._num.get(x, 0)
            if n == 0:
                raise PreconditionError(f"element {x!r} outside the support")
            return math.log(n) - math.log(self._den)
        v = self._values.get(x, 0.0)
        if v <= 0:
            raise PreconditionError(f"element {x!r} outside the support")
        return math.log(v)

    def items(self):
        if self._num is not None:
            den = self._den
            for x, n in self._num.items():
                yield x, Fraction(n, den)
        else:
            yield from self._values.items()

    def total(self) -> Weight:
        if self._num is not None:
            return Fraction(sum(self._num.values()), self._den)
        return sum(self._values.values())

    def __repr__(self) -> str:
        mode = "float" if self.approximate else "exact"
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


def evolve(
    dist: SparseDistribution,
    step: SparseDistribution,
    prune_eps: Optional[float] = None,
    max_support: Optional[int] = None,
) -> SparseDistribution:
    """Right convolution: the law after one more independent step.

    Exact integer arithmetic unless either input is approximate or pruning
    is requested; pruning drops atoms below ``prune_eps`` (a finite
    positive mass) and renormalizes.
    """
    if dist.group.spec_string != step.group.spec_string:
        raise PreconditionError(
            f"distributions live on different groups: {dist.group.name} vs {step.group.name}"
        )
    if prune_eps is not None and not (math.isfinite(prune_eps) and prune_eps > 0):
        raise PreconditionError(f"prune_eps must be a finite positive mass, got {prune_eps!r}")
    group = dist.group
    exact = not dist.approximate and not step.approximate and prune_eps is None
    if exact:
        out: Dict[object, int] = {}
        for x, nx in dist._num.items():
            for g, cg in step._num.items():
                y = group.multiply(x, g)
                out[y] = out.get(y, 0) + nx * cg
        if max_support is not None and len(out) > max_support:
            raise SupportOverflowError(
                f"support {len(out)} exceeds {max_support}; use a smaller t or enable pruning"
            )
        return SparseDistribution(group, dist.t + step.t, numerators=out,
                                  denominator=dist._den * step._den)
    vals: Dict[object, float] = {}
    for x, px in (dist.items() if not dist.approximate else dist._values.items()):
        px = float(px)
        for g, pg in (step.items() if not step.approximate else step._values.items()):
            y = group.multiply(x, g)
            vals[y] = vals.get(y, 0.0) + px * float(pg)
    if prune_eps is not None:
        vals = {x: v for x, v in vals.items() if v >= prune_eps}
        if not vals:
            raise PreconditionError(
                f"pruning at prune_eps={prune_eps!r} removes every atom at t={dist.t + step.t}"
            )
        mass = sum(vals.values())
        vals = {x: v / mass for x, v in vals.items()}
    if max_support is not None and len(vals) > max_support:
        raise SupportOverflowError(
            f"support {len(vals)} exceeds {max_support}; use a smaller t"
        )
    return SparseDistribution(group, dist.t + step.t, values=vals)


def walk_distributions(
    group: Group,
    gens: Sequence,
    t_max: int,
    prune_eps: Optional[float] = None,
    max_support: Optional[int] = None,
) -> List[SparseDistribution]:
    """mu^0 .. mu^t_max as a list; exact unless pruning kicks in."""
    step = step_measure(group, gens)
    out = [SparseDistribution.point(group)]
    for _ in range(t_max):
        out.append(evolve(out[-1], step, prune_eps=prune_eps, max_support=max_support))
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
        for x, p in d.items():
            points.append((d.t, x, float(p), dist_fn(x), float(mval(x))))
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


def escape_probability(dist: SparseDistribution, distance, alpha) -> Weight:
    """Tail mass P[d(id, X_t) >= alpha t], exact for exact distributions."""
    if not 0 < float(alpha) <= 1:
        raise PreconditionError("alpha must lie in (0, 1]")
    athr = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    dist_fn = _distance_fn(distance)
    total = Fraction(0) if not dist.approximate else 0.0
    for x, p in dist.items():
        if dist_fn(x) >= athr * dist.t:
            total += p
    return total


def volume_growth(group: Group, gens: Sequence, t_max: int) -> List[int]:
    """V(0..t_max): cumulative word-metric ball sizes over gens and inverses."""
    dist = word_ball(group, gens, t_max)
    counts = [0] * (t_max + 1)
    for d in dist.values():
        counts[d] += 1
    out = []
    acc = 0
    for c in counts:
        acc += c
        out.append(acc)
    return out


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


def _path_indices(seed: int, index: int, t: int, k: int) -> List[int]:
    """The first t ``randrange(k)`` draws of ``path_rng(seed, index)``, in one pass.

    ``randrange(k)`` takes the top ``k.bit_length()`` bits of the next
    32-bit MT19937 word and rejects values >= k (k < 2**32 here), and
    ``getrandbits(32 * n)`` returns the next n words, least significant
    first.  So one C-level draw, a shift and a mask replay the stream.
    """
    if k < 1:
        raise PreconditionError("empty generating sequence")
    if k == 1:
        return [0] * t
    import numpy as np

    rng = path_rng(seed, index)
    shift = 32 - k.bit_length()
    out: List[int] = []
    while len(out) < t:
        # enough words for the missing draws at the expected rejection rate, plus slack
        n = (t - len(out)) * (1 << k.bit_length()) // k + 16
        words = np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4") >> shift
        out += words[words < k].tolist()
    return out[:t]


def mc_sample(group: Group, gens: Sequence, t: int, n_paths: int, seed: int) -> List[List]:
    """Sampled trajectories (length t+1 each, starting at the identity)."""
    gens = tuple(group.validate(g) for g in gens)
    k = len(gens)
    return [
        list(itertools.accumulate((gens[j] for j in _path_indices(seed, i, t, k)),
                                  group.multiply, initial=group.identity))
        for i in range(n_paths)
    ]


def _mc_endpoints(group: Group, gens: Sequence, t: int, n_paths: int, seed: int) -> List:
    gens = tuple(group.validate(g) for g in gens)
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
    generating set, then a BFS table up to ``radius``, then the group's
    certified lower-bound metric (flagged, for groups whose balls are too
    big to enumerate).
    """
    if t < 1 or n_paths < 1:
        raise PreconditionError("t and n_paths must be >= 1")
    endpoints = _mc_endpoints(group, gens, t, n_paths, seed)
    exact = group.exact_metric(tuple(group.validate(g) for g in gens))
    if exact is not None:
        dists = [exact(x) for x in endpoints]
        kind = "exact"
    elif radius is not None:
        table = word_ball(group, gens, radius)
        if all(x in table for x in endpoints):
            dists = [table[x] for x in endpoints]
            kind = "bfs"
        elif group.distance_lower_bound(group.identity) is not None:
            dists = [group.distance_lower_bound(x) for x in endpoints]
            kind = "lower_bound"
        else:
            missing = next(x for x in endpoints if x not in table)
            raise PreconditionError(
                f"endpoint {group.format_element(missing)} beyond BFS radius {radius} "
                "and no lower-bound metric is registered"
            )
    elif group.distance_lower_bound(group.identity) is not None:
        dists = [group.distance_lower_bound(x) for x in endpoints]
        kind = "lower_bound"
    else:
        raise PreconditionError("no metric available: pass a BFS radius")
    mean, err = _mean_stderr([d / t for d in dists])
    return SpeedEstimate(value=mean, stderr=err, t=t, n_paths=n_paths, seed=seed,
                         metric_kind=kind)


def entropy_estimate(
    group: Group,
    gens: Sequence,
    t: int,
    n_paths: int,
    seed: int,
    max_support: int = 5_000_000,
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
