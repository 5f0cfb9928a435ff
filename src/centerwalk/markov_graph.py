"""Weighted oriented graphs as Markov kernels, with centering cycle decompositions.

A kernel is materialized on a finite *window* of an (often infinite) vertex
set.  Every materialized row is the complete out-distribution of its vertex;
the window truncates reachability, never the rows themselves.  Vertex
labels are ints, strings or tuples of labels, and the labels of one kernel,
row targets included, compare under Python's own ``<``.  Every order here is
that label order: rows are stored in it, whatever order they were given in,
and in-rows, the float view, centering edges and circulation peels follow it.  Each vertex
carries a certified ``depth``: a lower bound on the number of undirected
steps needed to leave the window.  Checks that require complete
neighborhoods (invariance, cycle coverage) restrict themselves to vertices
of sufficient depth and report what they skipped.

One builder makes every translation-invariant window (:func:`step_kernel`,
and ``cayley_kernel`` and ``finite_group_kernel`` in
:mod:`centerwalk.group_walks`) with exact depths.  For kernels loaded from
edge lists the depth falls back to the visible distance to the frontier
(vertices with an edge leaving the window), which is exact for fully
materialized finite graphs.
"""

from __future__ import annotations

import gc
import heapq
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from fractions import Fraction
from itertools import chain, islice, repeat
from typing import Callable, Dict, Iterable, Iterator, KeysView, List, Mapping, Optional, Sequence, Tuple

from .errors import PreconditionError, StructuralError, SupportOverflowError
from .weights import Pair, Weight, add, is_finite, scale, total, vanishes

Vertex = object
Edge = Tuple[Vertex, Vertex]

#: elements a law or a searched ball may hold, the default of ``bfs`` and ``evolve``;
#: the F2 ball of radius 12 (1 062 881 elements) passes it
MAX_SUPPORT = 1_000_000

#: vertices of a materialized window (``cayley_kernel``, ``translated_cycle_decomposition``,
#: ``step_kernel(radius=...)``): a kernel vertex costs about 1.8-2.2 KB of RSS against 0.2 KB
#: for a ball vertex (CPython 3.11, x86-64; ``cayley_kernel`` on F2 r = 9 -> 10, Z^3 r = 20 -> 30,
#: Heisenberg r = 12 -> 16), so a 1 M window would take about 2 GB; Z^2 at r = 315 peaks at 376 MB
MAX_WINDOW = 200_000

#: certified depth at which a vertex's in-row is complete: its in-neighbors all have
#: complete rows.  Invariance residuals, form supports and Green balls stay at this depth.
SUPPORT_MARGIN = 2


#: vertices of a layer that ``bfs`` expands at a time without a target, so that the neighbors an
#: eager ``expand`` makes but the search does not keep are bounded, whatever the layer's size
_EXPAND_BATCH = 4096

#: layers of fewer vertices are walked vertex by vertex, as with a target: their neighbors are too
#: few to pay for the fixed cost of a bulk pass
_BULK_LAYER = 32


def check_budget(max_support: int) -> None:
    if max_support < 1:
        raise PreconditionError(f"max_support must be >= 1, got {max_support}")


class _collector_paused:
    """``with _collector_paused():`` turns CPython's cyclic collector off for the block.

    The bulk element passes (``bfs``, ``evolution.evolve`` and the path
    replays) allocate one tuple, list or int per element and make no
    reference cycles, so reference counting alone frees what they drop;
    the collector would only rescan the long-lived heap while it grows.
    ``tests/test_evolution.py::test_bulk_passes_make_no_cycles`` guards that
    premise.  The first collection after a pause scans every object the
    block made that is still alive, so a block that runs to its function's
    ``return`` lets the pass's temporaries die first.  The collector is
    turned off only when it is on, and turned back on in ``__exit__``, also
    when the block raises, only by the pause that turned it off: a nested
    pause, or a caller that turned it off itself, leaves it off.
    """

    def __enter__(self):
        self._paused = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc):
        if self._paused:
            gc.enable()


def bfs(sources: Iterable[Vertex], expand: Callable[[List[Vertex]], Iterable[Iterable[Vertex]]],
        radius: Optional[int] = None, target: Optional[Vertex] = None,
        *, max_support: int = MAX_SUPPORT) -> Tuple[Dict[Vertex, int], Dict[Vertex, Vertex]]:
    """Breadth-first distances from ``sources`` (all at distance 0), and parents when a target is given.

    The search advances one distance layer per pass.  ``expand(vertices)``
    gets consecutive vertices of a layer as a list, in discovery order, and
    returns each one's neighbors, aligned with it; ``partial(map,
    neighbors)`` adapts a per-vertex function.  Vertices at ``radius`` (at
    least 0) are not expanded.  Without a target, a layer of at least
    ``_BULK_LAYER`` vertices is expanded ``_EXPAND_BATCH`` vertices at a time
    and its neighbors go through ``dist.setdefault`` in one C-level pass, so
    each is hashed once.  The pass is fed in chunks of one more neighbor
    than the budget has room for, so discovering a vertex beyond the first
    ``max_support`` raises ``SupportOverflowError`` at the same distance as a
    per-vertex search, with at most one vertex over the budget held.  A
    smaller layer, and every layer of a search with a ``target``, is
    expanded whole and walked vertex by vertex; with a target, the search
    stops once it is found, and the second map holds each vertex's parent
    (a source is its own parent); without one, that map is empty, since only
    a path back to a target reads it.  The next layer is the dist map's new
    tail (insertion order is discovery order), and both maps are in the
    discovery order of a vertex-by-vertex FIFO search.
    """
    if radius is not None and radius < 0:
        raise PreconditionError("radius must be >= 0")
    check_budget(max_support)
    with _collector_paused():
        dist = dict.fromkeys(sources, 0)
        track = target is not None
        parent = {x: x for x in dist} if track else {}
        if track and target in dist:
            return dist, parent
        layer, d = list(dist), 0
        sink = deque(maxlen=0)  # extend() consumes an iterator in C and keeps nothing
        while layer and d != radius:
            d += 1
            known = len(dist)
            if track or len(layer) < _BULK_LAYER:
                for x, ys in zip(layer, expand(layer)):
                    for y in ys:
                        if y not in dist:
                            if len(dist) >= max_support:
                                _overflow(max_support, radius, d)
                            dist[y] = d
                            if track:
                                parent[y] = x
                                if y == target:
                                    return dist, parent
            else:
                parts = (expand(layer[i:i + _EXPAND_BATCH]) for i in range(0, len(layer), _EXPAND_BATCH))
                stream = chain.from_iterable(chain.from_iterable(parts))
                for first in stream:
                    chunk = chain((first,), islice(stream, max(max_support - len(dist), 0)))
                    sink.extend(map(dist.setdefault, chunk, repeat(d)))
                    if len(dist) > max_support:
                        _overflow(max_support, radius, d)
            layer = list(islice(reversed(dist), len(dist) - known))[::-1]
        return dist, parent


def _overflow(max_support: int, radius: Optional[int], d: int):
    within = "" if radius is None else f" to radius {radius}"
    raise SupportOverflowError(f"search{within} passed {max_support} vertices at distance {d}")


def _inward_depth(vertices: Iterable[Vertex], frontier: Iterable[Vertex], neighbors: Callable) -> Dict[Vertex, float]:
    """1 + the BFS distance to ``frontier`` under ``neighbors``; inf where no frontier vertex is reachable."""
    dist, _ = bfs(frontier, partial(map, neighbors))
    return {x: dist[x] + 1 if x in dist else math.inf for x in vertices}


def _bfs_path(neighbors: Callable, x: Vertex, y: Vertex, radius: Optional[int] = None) -> Optional[List[Vertex]]:
    """Shortest path [x, ..., y] under ``neighbors``; None when y is not within radius."""
    _, parent = bfs([x], partial(map, neighbors), radius, target=y)
    if y not in parent:
        return None
    path = [y]
    while path[-1] != x:
        path.append(parent[path[-1]])
    return path[::-1]


class Measure:
    """Positive vertex measure; defaults to the counting measure m(x) = 1.

    The default, the value off the given vertices, is checked like them: positive
    and finite, or None for a measure defined only where it is given.
    """

    def __init__(self, values: Optional[Mapping[Vertex, Weight]] = None, default: Optional[Weight] = Fraction(1)):
        self._values = dict(values) if values else {}
        self._default = default
        for x, v in self._values.items():
            if not (v > 0 and is_finite(v)):
                raise StructuralError(f"measure must be positive and finite, got m({x!r}) = {v}")
        if default is not None and not (default > 0 and is_finite(default)):
            raise StructuralError(f"measure default must be positive and finite or None, got {default}")

    @classmethod
    def counting(cls) -> "Measure":
        return cls()

    def __call__(self, x: Vertex) -> Weight:
        v = self._values.get(x, self._default)
        if v is None:
            raise PreconditionError(f"measure not defined at vertex {x!r}")
        return v

    def weights(self) -> Iterator[Weight]:
        """Every value the measure takes: its given values, then its default unless that is None."""
        return chain(self._values.values(), () if self._default is None else (self._default,))

    def __repr__(self) -> str:
        if not self._values:
            return f"Measure(default={self._default})"
        return f"Measure({len(self._values)} values, default={self._default})"


@dataclass(frozen=True)
class FloatView:
    """Float copies of a kernel's rows and in-rows, iterating in the same order as ``row`` and ``in_row``."""

    rows: Dict[Vertex, Dict[Vertex, float]]
    in_rows: Dict[Vertex, Dict[Vertex, float]]


class Kernel:
    """Row-stochastic (or explicitly substochastic) transition weights on a window, rows in label order."""

    def __init__(
        self,
        rows: Mapping[Vertex, Mapping[Vertex, Weight]],
        *,
        depth: Optional[Mapping[Vertex, float]] = None,
        substochastic: bool = False,
    ):
        self.substochastic = substochastic
        self._rows: Dict[Vertex, Dict[Vertex, Weight]] = {}
        ratio, value = scale(*(row.values() for row in rows.values()))
        sums: Dict[Vertex, Pair] = {}
        for x in sorted(rows):
            clean = self._rows[x] = {}
            num, den = 0, 1
            for y, w in rows[x].items():
                n, d = ratio(w)
                if n != 0:
                    if n < 0:
                        raise StructuralError(f"negative weight q({x!r}, {y!r}) = {w}")
                    clean[y] = w
                    num, den = (num + n, den) if d == den else add((num, den), (n, d))
            sums[x] = num, den
        for x, (num, den) in sums.items():
            if not (vanishes(num - den) or substochastic and num < den):
                raise StructuralError(f"row at {x!r} sums to {value(num, den)}, "
                                      + ("above 1" if substochastic else "not 1"))
        self._in: Dict[Vertex, Dict[Vertex, Weight]] = {x: {} for x in self._rows}
        for x, row in self._rows.items():
            for y, w in row.items():
                if y in self._in:
                    self._in[y][x] = w
        if depth is None:
            # fallback: the visible distance to the frontier, exact when no in-edge comes from outside
            frontier = [x for x, row in self._rows.items() if any(y not in self._rows for y in row)]
            self._depth = _inward_depth(self._rows, frontier, self.undirected_neighbors)
        else:
            self._depth = {x: depth[x] for x in self._rows}

    @property
    def window(self) -> KeysView:
        """The vertex set: a read-only view of the row keys, in label order."""
        return self._rows.keys()

    # -- row access ------------------------------------------------------

    def row(self, x: Vertex) -> Mapping[Vertex, Weight]:
        try:
            return self._rows[x]
        except KeyError:
            raise StructuralError(f"vertex {x!r} is outside the materialized window") from None

    def in_row(self, y: Vertex) -> Mapping[Vertex, Weight]:
        try:
            return self._in[y]
        except KeyError:
            raise StructuralError(f"vertex {y!r} is outside the materialized window") from None

    def weight(self, x: Vertex, y: Vertex) -> Weight:
        return self._rows.get(x, {}).get(y, 0)

    @cached_property
    def float_view(self) -> FloatView:
        """The weights as floats, built on first use; a kernel never changes after construction."""
        return FloatView(
            rows={x: {y: float(w) for y, w in row.items()} for x, row in self._rows.items()},
            in_rows={y: {x: float(w) for x, w in row.items()} for y, row in self._in.items()},
        )

    def defect(self, x: Vertex) -> Weight:
        """Killing mass 1 - sum(row); zero for stochastic rows."""
        row = self._rows[x].values()
        ratio, value = scale(row)
        num, den = total(map(ratio, row))
        return value(den - num, den)

    def weights(self) -> Iterator[Weight]:
        """Every weight, row by row."""
        return chain.from_iterable(map(dict.values, self._rows.values()))

    def edges(self) -> Iterator[Tuple[Vertex, Vertex, Weight]]:
        for x in self._rows:
            for y, w in self._rows[x].items():
                yield x, y, w

    def undirected_neighbors(self, x: Vertex) -> List[Vertex]:
        """In-window vertices adjacent to x in the undirected support."""
        seen = set(self._rows.get(x, ())) | set(self._in.get(x, ()))
        seen.discard(x)
        return sorted(y for y in seen if y in self._rows)

    def depth(self, x: Vertex) -> float:
        return self._depth.get(x, 0)

    def interior_vertices(self, margin: float = 1) -> List[Vertex]:
        return [x for x in self._rows if self.depth(x) >= margin]

    # -- derived kernels ---------------------------------------------------

    def restrict(self, keep: Iterable[Vertex]) -> "Kernel":
        """Kill the chain on exit from ``keep``: drop rows and targets outside it.

        The result is a complete substochastic kernel (depth is infinite:
        there is no unmaterialized state left).
        """
        keep = {x for x in keep if x in self._rows}
        rows = {x: {y: w for y, w in self._rows[x].items() if y in keep} for x in keep}
        return Kernel(rows, depth={x: math.inf for x in keep}, substochastic=True)

    def with_killing(self, rate: Weight) -> "Kernel":
        if not 0 < rate < 1:
            raise PreconditionError(f"killing rate must lie in (0, 1), got {rate}")
        factor = 1 - rate
        rows = {x: {y: w * factor for y, w in row.items()} for x, row in self._rows.items()}
        return Kernel(rows, depth=dict(self._depth), substochastic=True)

    def __repr__(self) -> str:
        kind = "substochastic" if self.substochastic else "stochastic"
        return f"Kernel({len(self._rows)} rows, {kind})"


def _shifts(xs: Iterable[Vertex], step) -> List[Vertex]:
    """The translates ``[x + step for x in xs]`` of integer points, ints or int tuples."""
    if isinstance(step, tuple):
        return [tuple(map(operator.add, x, step)) for x in xs]
    return [x + step for x in xs]


def _neg(step):
    if isinstance(step, tuple):
        return tuple(-a for a in step)
    return -step


def step_kernel(
    steps: Mapping[object, Weight],
    radius: Optional[int] = None,
    window: Optional[Iterable[Vertex]] = None,
) -> Kernel:
    """Translation-invariant walk on Z^d with the given step distribution.

    Steps are integers (d = 1) or integer tuples.  The window is either the
    ball of the given ``radius`` around the origin in the undirected step
    graph (at most ``MAX_WINDOW`` vertices), or an explicit vertex set.
    """
    steps = dict(steps)
    if not steps:
        raise PreconditionError("empty step distribution")
    first = next(iter(steps))
    origin = tuple(0 for _ in first) if isinstance(first, tuple) else 0
    return _window_kernel(origin, _shifts, _neg, steps, radius=radius, window=window, max_support=MAX_WINDOW)


def _window_kernel(origin: Vertex, translates: Callable, inverse: Callable, steps: Mapping[object, Weight], *,
                   radius: Optional[int] = None, window: Optional[Iterable[Vertex]] = None,
                   max_support: int = MAX_SUPPORT) -> Kernel:
    """Rows {x: {x·s: steps[s]}} on the ball of ``radius`` around ``origin`` or on ``window``.

    ``translates(xs, s)`` lists x·s for each x in xs, in order (``Group.translates``).
    Neighbors are x·s and x·inverse(s) over the steps, found one direction
    at a time for a whole layer; the ball holds at most ``max_support``
    vertices.  In both cases the certified depth is the exact step-graph
    distance to the complement.
    """
    if (radius is None) == (window is None):
        raise PreconditionError("specify exactly one of radius or window")
    directions = sorted(set(steps) | {inverse(s) for s in steps})

    def expand(layer):
        return zip(*[translates(layer, s) for s in directions])

    if radius is not None:
        ball, _ = bfs([origin], expand, radius, max_support=max_support)
        depth = {x: radius - d + 1 for x, d in ball.items()}
    else:
        vertices = set(window)
        neighbors = dict(zip(vertices, expand(list(vertices))))
        frontier = [x for x in vertices if any(y not in vertices for y in neighbors[x])]
        depth = _inward_depth(vertices, frontier, lambda x: [y for y in neighbors[x] if y in vertices])

    rows = {x: {} for x in depth}
    for s, w in steps.items():
        for row, y in zip(rows.values(), translates(list(rows), s)):
            row[y] = row[y] + w if y in row else w
    return Kernel(rows, depth=depth)


def rotation_kernel(n: int) -> Kernel:
    """Deterministic rotation on Z_n: q(x, x+1 mod n) = 1."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return Kernel({x: {(x + 1) % n: Fraction(1)} for x in range(n)})


# -- cycles ----------------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    """Closed directed path (x_0, ..., x_k) with x_k = x_0; length is k."""

    vertices: Tuple[Vertex, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise StructuralError("a cycle needs at least one edge")
        if self.vertices[0] != self.vertices[-1]:
            raise StructuralError("cycle is not closed")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def edges(self) -> Tuple[Edge, ...]:
        v = self.vertices
        return tuple((v[i], v[i + 1]) for i in range(len(v) - 1))

    def reversed(self) -> "Cycle":
        return Cycle(tuple(reversed(self.vertices)))


@dataclass(frozen=True)
class CycleDecomposition:
    """Weighted cycle family (gamma_i, q_i); the witness that a chain is centered."""

    entries: Tuple[Tuple[Cycle, Weight], ...]
    exceeds_max_len: bool = False

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((c, w) for c, w in self.entries))
        for cycle, w in self.entries:
            if not (w > 0 and is_finite(w)):
                raise StructuralError(f"cycle weight must be positive and finite, got {w}")

    @property
    def max_length(self) -> int:
        """C0, the longest cycle length (0 for an empty family)."""
        return max((c.length for c, _ in self.entries), default=0)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def weights(self) -> Iterator[Weight]:
        """The cycle weights, in entry order."""
        return (w for _, w in self.entries)

    def coverage(self) -> Dict[Edge, Weight]:
        """Edge -> sum of q_i times the edge's multiplicity in gamma_i."""
        ratio, value = scale(self.weights())
        return {e: value(n, d) for e, (n, d) in self._coverage(ratio).items()}

    def _coverage(self, ratio: Callable[[Weight], Pair]) -> Dict[Edge, Pair]:
        cov: Dict[Edge, Pair] = {}
        for cycle, w in self.entries:
            p = ratio(w)
            for e in cycle.edges():
                cov[e] = add(cov[e], p) if e in cov else p
        return cov

    def reversed(self) -> "CycleDecomposition":
        return CycleDecomposition(tuple((c.reversed(), w) for c, w in self.entries))


def split_edge_walk(vertices: Sequence[Vertex]) -> List[Tuple[Vertex, ...]]:
    """Split a closed walk into edge self-avoiding closed walks.

    Whenever an oriented edge repeats, the stretch between its two
    occurrences is itself closed and is split off, and both parts are split
    again, the stretch first; coverage multiplicities are preserved exactly.
    """
    out = []
    todo = [[(vertices[i], vertices[i + 1]) for i in range(len(vertices) - 1)]]
    while todo:
        es = todo.pop()
        seen: Dict[Edge, int] = {}
        for j, e in enumerate(es):
            if e in seen:
                i = seen[e]
                todo += [es[:i] + es[j:], es[i:j]]
                break
            seen[e] = j
        else:
            if es:
                out.append(tuple([es[0][0]] + [e[1] for e in es]))
    return out


# -- reports ----------------------------------------------------------------


@dataclass
class CenteringReport:
    """Residuals of m(x)q(x,y) = sum_i q_i N((x,y), gamma_i), edge by edge."""

    valid: bool
    residuals: Dict[Edge, Weight]
    max_abs_residual: Weight
    boundary_edges_skipped: List[Edge]
    zero_weight_covered: List[Edge] = field(default_factory=list)
    interior_edges: List[Edge] = field(default_factory=list)


@dataclass
class InvarianceReport:
    residuals: Dict[Vertex, Weight]
    boundary_skipped: List[Vertex]

    @property
    def max_abs_residual(self) -> Weight:
        return max((abs(r) for r in self.residuals.values()), default=0)


def verify_centering(
    kernel: Kernel,
    m: Measure,
    dec: CycleDecomposition,
) -> CenteringReport:
    """Check the centering identity on every edge the window fully sees.

    Residual(x, y) = m(x)q(x,y) - covered mass.  An edge is interior when
    its source is at certified depth >= C0, so that every cycle of the
    underlying infinite family that could cover it fits inside the window.
    Covered edges with q(x,y) = 0 are violations (positive weights on a
    cycle force positive transition weight).  The witness is valid when every
    interior residual vanishes.
    """
    ratio, value = scale(kernel.weights(), m.weights(), dec.weights())
    cov = dec._coverage(ratio)
    window = kernel.window
    for (u, v) in cov:
        if u not in window or v not in window:
            raise StructuralError(f"cycle edge ({u!r}, {v!r}) leaves the kernel window")
    c0 = dec.max_length
    residuals: Dict[Edge, Weight] = {}
    zero_covered: List[Edge] = []
    interior: List[Edge] = []
    boundary: List[Edge] = []
    valid, worst, source = True, None, None
    # label order; the kernel's edges come sorted by source, so this sort is mostly one run
    edges = [(x, y) for x in window for y in sorted(kernel.row(x))]
    for e in sorted(edges + [e for e in cov if e[1] not in kernel.row(e[0])]):
        x, y = e
        if x != source:  # edges come grouped by source
            source, row, (a, b), deep = x, kernel.row(x), ratio(m(x)), kernel.depth(x) >= c0
        c, d = ratio(row.get(y, 0))
        n, k = cov.get(e, (0, 1))
        num, den = a * c * k - n * b * d, b * d * k
        residuals[e] = value(num, den)
        covered_zero = c == 0 and e in cov
        if covered_zero:
            zero_covered.append(e)
        if deep and y in window:
            interior.append(e)
            valid = valid and (num == 0 or vanishes(num)) and not covered_zero
            if worst is None or abs(num) * worst[1] > abs(worst[0]) * den:
                worst = num, den
        else:
            boundary.append(e)
    return CenteringReport(
        valid=valid,
        residuals=residuals,
        max_abs_residual=0 if worst is None else abs(value(*worst)),
        boundary_edges_skipped=boundary,
        zero_weight_covered=zero_covered,
        interior_edges=interior,
    )


def reversible_decomposition(kernel: Kernel, m: Measure) -> CycleDecomposition:
    """Two-cycles (x, y, x) with weight m(x)q(x,y), one per unordered pair.

    Requires detailed balance m(x)q(x,y) = m(y)q(y,x) on the window; pairs
    with one endpoint outside the window are skipped (they sit on the
    boundary and cannot form an in-window cycle).
    """
    ratio, value = scale(kernel.weights(), m.weights())

    def flow(x, y):
        (a, b), (c, d) = ratio(m(x)), ratio(kernel.weight(x, y))
        return a * c, b * d

    bad = []
    for x, y, _ in kernel.edges():
        if y in kernel.window:
            (n, d), (k, e) = flow(x, y), flow(y, x)
            if not vanishes(gap := n * e - k * d):
                bad.append((abs(value(gap, d * e)), (x, y)))
    if bad:
        gap, e = max(bad, key=lambda ge: ge[0])
        raise PreconditionError(f"detailed balance fails at edge {e!r} by {gap}")
    entries: List[Tuple[Cycle, Weight]] = []
    for x in kernel.window:
        for y in sorted(kernel.row(x)):
            if y not in kernel.window:
                continue
            if x == y:
                entries.append((Cycle((x, x)), value(*flow(x, x))))
            elif x < y or kernel.weight(y, x) == 0:
                entries.append((Cycle((x, y, x)), value(*flow(x, y))))
    return CycleDecomposition(tuple(entries))


def circulation_to_cycles(
    flow: Mapping[Edge, Weight],
    max_len: int,
) -> CycleDecomposition:
    """Greedy peel of a circulation into edge self-avoiding weighted cycles.

    Repeatedly takes the heaviest remaining edge, the largest edge among
    equal weights, closes it through a shortest directed path (BFS,
    lexicographic tie-break), and peels the minimum weight along that cycle.
    Exact under rational arithmetic.  If some extracted cycle is longer than
    ``max_len`` the result is flagged ``exceeds_max_len`` rather than rejected.

    The heaviest edge comes from a lazy max-heap keyed by (weight, rank of
    the edge in sorted order); a peel pushes each lowered edge again, and an
    entry whose weight is no longer its edge's residual is skipped.
    """
    residual: Dict[Edge, Weight] = {}
    for e, w in flow.items():
        if w <= 0:
            raise StructuralError(f"flow values must be positive, got {w} at {e!r}")
        residual[e] = w

    div: Dict[Vertex, Weight] = {}
    for (x, y), w in residual.items():
        div[x] = div.get(x, 0) + w
        div[y] = div.get(y, 0) - w
    bad = sorted(((abs(d), v) for v, d in div.items() if not vanishes(d)), reverse=True)
    if bad:
        raise PreconditionError(
            f"not a circulation: divergence {bad[0][0]} at vertex {bad[0][1]!r}"
        )

    out_edges: Dict[Vertex, set] = {}
    for (x, y) in residual:
        out_edges.setdefault(x, set()).add(y)

    def drop(e: Edge):
        residual.pop(e)
        out_edges[e[0]].discard(e[1])

    rank = {e: r for r, e in enumerate(sorted(residual))}
    heap = [(-w, -rank[e], e) for e, w in residual.items()]
    heapq.heapify(heap)
    entries: List[Tuple[Cycle, Weight]] = []
    exceeded = False
    while residual:
        neg, _, start = heapq.heappop(heap)
        if residual.get(start) != -neg:
            continue
        src, dst = start
        if src == dst:
            cycle_vertices: Tuple[Vertex, ...] = (src, src)
        else:
            # shortest directed return path dst -> src in the residual support
            back = _bfs_path(lambda u: sorted(out_edges.get(u, ())), dst, src)
            if back is None:
                raise PreconditionError(
                    f"no directed cycle through edge {start!r}; flow is not decomposable"
                )
            cycle_vertices = (src,) + tuple(back)
        cycle = Cycle(cycle_vertices)
        qmin = min(residual[e] for e in cycle.edges())
        for e in cycle.edges():
            residual[e] -= qmin
            if vanishes(residual[e]):
                drop(e)
            else:
                heapq.heappush(heap, (-residual[e], -rank[e], e))
        if cycle.length > max_len:
            exceeded = True
        entries.append((cycle, qmin))
    return CycleDecomposition(tuple(entries), exceeds_max_len=exceeded)


def invariance_check(kernel: Kernel, m: Measure) -> InvarianceReport:
    """Residual sum_x m(x)q(x,y) - m(y) at every vertex whose in-flow is complete."""
    ratio, value = scale(kernel.weights(), m.weights())
    mass: Dict[Vertex, Pair] = {}  # m(x) as a pair, read once per vertex
    residuals: Dict[Vertex, Weight] = {}
    skipped: List[Vertex] = []
    for y, row in kernel._in.items():
        if kernel._depth[y] >= SUPPORT_MARGIN:
            num, den = 0, 1
            for x, w in row.items():
                a, b = mass[x] if x in mass else mass.setdefault(x, ratio(m(x)))
                c, d = ratio(w)
                if b * d == den:
                    num += a * c
                else:
                    num, den = add((num, den), (a * c, b * d))
            e, f = mass[y] if y in mass else mass.setdefault(y, ratio(m(y)))
            residuals[y] = value(num * f - e * den, den * f)
        else:
            skipped.append(y)
    return InvarianceReport(residuals=residuals, boundary_skipped=skipped)


def graph_distance(kernel: Kernel, x: Vertex, y: Vertex, radius: int) -> Optional[int]:
    """BFS distance in the undirected support within the window; None beyond radius."""
    if x not in kernel.window or y not in kernel.window:
        raise StructuralError("both endpoints must lie in the window")
    path = _bfs_path(kernel.undirected_neighbors, x, y, radius)
    return None if path is None else len(path) - 1


def directed_detour(
    kernel: Kernel,
    dec: CycleDecomposition,
    x: Vertex,
    y: Vertex,
    radius: int,
) -> List[Vertex]:
    """Directed path from x to y of length at most C0 * d(x, y).

    Follows an undirected geodesic; every step that only exists in the
    reverse orientation is replaced by the complement of a covering cycle,
    whose edges all have positive weight.
    """
    geo = _bfs_path(kernel.undirected_neighbors, x, y, radius)
    if geo is None:
        raise PreconditionError(f"no undirected path from {x!r} to {y!r} within radius {radius}")
    path = [x]
    for u, v in zip(geo, geo[1:]):
        if kernel.weight(u, v) > 0:
            path.append(v)
            continue
        detour = _cycle_complement(dec, (v, u))
        if detour is None:
            raise StructuralError(
                f"no covering cycle for reversed edge ({v!r}, {u!r}); decomposition is not centering"
            )
        path.extend(detour)
    return path


def _cycle_complement(dec: CycleDecomposition, edge: Edge) -> Optional[List[Vertex]]:
    # Walk the first covering cycle forward from just past ``edge`` until
    # the edge's source reappears; q > 0 on every step because cycle edges
    # carry positive weight.
    for cycle, _ in dec:
        es = cycle.edges()
        for p, e in enumerate(es):
            if e == edge:
                n = len(es)
                hop = []
                i = (p + 1) % n
                while True:
                    nxt = es[i][1]
                    hop.append(nxt)
                    if nxt == edge[0]:
                        return hop
                    i = (i + 1) % n
    return None


def time_reversal(kernel: Kernel, m: Measure) -> Kernel:
    """Adjoint kernel q*(y, x) = m(x) q(x, y) / m(y) on the same window.

    Requires m to be invariant on the in-complete part of the window.  Rows
    of vertices near the boundary lose the in-flow arriving from outside the
    window; the result is flagged substochastic when that happens and every
    certified depth drops by one.
    """
    bad = [(y, r) for y, r in invariance_check(kernel, m).residuals.items() if not vanishes(r)]
    if bad:
        y, r = max(bad, key=lambda yr: abs(yr[1]))
        raise PreconditionError(f"measure is not invariant: residual {r} at {y!r}")
    return adjoint_kernel(kernel, m)


def adjoint_kernel(kernel: Kernel, m: Measure) -> Kernel:
    """q*(x, y) = m(y) q(y, x) / m(x) without the invariance precondition, on the same window."""
    return _same_window(kernel, _adjoint_rows(kernel, m))


def _adjoint_rows(kernel: Kernel, m: Measure) -> Dict[Vertex, Dict[Vertex, Weight]]:
    """{y: {x: m(x) q(x, y) / m(y)}}, read from the in-rows."""
    ratio, value = scale(kernel.weights(), m.weights())
    rows: Dict[Vertex, Dict[Vertex, Weight]] = {}
    for y in kernel.window:
        e, f = ratio(m(y))
        row = rows[y] = {}
        for x, w in kernel.in_row(y).items():
            (a, b), (c, d) = ratio(m(x)), ratio(w)
            row[x] = value(a * c * f, b * d * e)
    return rows


def _same_window(kernel: Kernel, rows: Mapping[Vertex, Mapping[Vertex, Weight]]) -> Kernel:
    """``rows``, read from ``kernel``'s in-rows, on its window: complete where those are, so depths drop by one."""
    depth = {x: kernel.depth(x) - 1 for x in kernel.window}
    return Kernel(rows, depth=depth, substochastic=lost_mass(kernel, rows))


def lost_mass(kernel: Kernel, rows: Mapping[Vertex, Mapping[Vertex, Weight]]) -> bool:
    """Rows derived from ``kernel`` are substochastic if it is or some row sums below 1."""
    ratio, _ = scale(*(row.values() for row in rows.values()))
    sums = (total(map(ratio, row.values())) for row in rows.values())
    return kernel.substochastic or any(num < den and not vanishes(num - den) for num, den in sums)
