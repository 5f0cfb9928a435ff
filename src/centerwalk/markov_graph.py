"""Weighted oriented graphs as Markov kernels, with centering cycle decompositions.

A kernel is materialized on a finite *window* of an (often infinite) vertex
set.  Every materialized row is the complete out-distribution of its vertex;
the window truncates reachability, never the rows themselves.  Each vertex
carries a certified ``depth``: a lower bound on the number of undirected
steps needed to leave the window.  Checks that require complete
neighborhoods (invariance, cycle coverage) restrict themselves to vertices
of sufficient depth and report what they skipped.

Builders (:func:`step_kernel`, :func:`rotation_kernel`, and the Cayley
builder in :mod:`centerwalk.group_walks`) compute exact depths.  For kernels
loaded from edge lists the depth falls back to the visible distance to the
frontier (vertices with an edge leaving the window), which is exact for
fully materialized finite graphs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import PreconditionError, StructuralError, SupportOverflowError
from .weights import Weight, all_exact, edge_key, is_exact, sort_key, vanishes

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


def check_budget(max_support: int) -> None:
    if max_support < 1:
        raise PreconditionError(f"max_support must be >= 1, got {max_support}")


def bfs(sources: Iterable[Vertex], neighbors: Callable[[Vertex], Iterable[Vertex]],
        radius: Optional[int] = None, target: Optional[Vertex] = None,
        *, max_support: int = MAX_SUPPORT) -> Tuple[Dict[Vertex, int], Dict[Vertex, Vertex]]:
    """Breadth-first distances and parents from ``sources`` (all at distance 0).

    ``neighbors(x)`` lists x's neighbors in discovery order.  Vertices at
    ``radius`` are not expanded; the search stops once ``target`` is found.
    Both maps are in discovery order, and a source is its own parent.
    Discovering a vertex beyond the first ``max_support`` raises
    ``SupportOverflowError``.
    """
    check_budget(max_support)
    dist = dict.fromkeys(sources, 0)
    parent = {x: x for x in dist}
    if target in dist:
        return dist, parent
    queue = deque(dist)
    while queue:
        x = queue.popleft()
        d = dist[x]
        if d == radius:
            continue
        for y in neighbors(x):
            if y not in dist:
                if len(dist) >= max_support:
                    within = "" if radius is None else f" to radius {radius}"
                    raise SupportOverflowError(f"search{within} passed {max_support} vertices at distance {d + 1}")
                dist[y] = d + 1
                parent[y] = x
                if y == target:
                    return dist, parent
                queue.append(y)
    return dist, parent


def _bfs_path(neighbors: Callable, x: Vertex, y: Vertex, radius: Optional[int] = None) -> Optional[List[Vertex]]:
    """Shortest path [x, ..., y] under ``neighbors``; None when y is not within radius."""
    _, parent = bfs([x], neighbors, radius, target=y)
    if y not in parent:
        return None
    path = [y]
    while path[-1] != x:
        path.append(parent[path[-1]])
    return path[::-1]


class Measure:
    """Positive vertex measure; defaults to the counting measure m(x) = 1."""

    def __init__(self, values: Optional[Mapping[Vertex, Weight]] = None, default: Optional[Weight] = Fraction(1)):
        self._values = dict(values) if values else {}
        self._default = default
        for x, v in self._values.items():
            if v <= 0:
                raise StructuralError(f"measure must be positive, got m({x!r}) = {v}")

    @classmethod
    def counting(cls) -> "Measure":
        return cls()

    def __call__(self, x: Vertex) -> Weight:
        v = self._values.get(x, self._default)
        if v is None:
            raise PreconditionError(f"measure not defined at vertex {x!r}")
        return v

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
    """Row-stochastic (or explicitly substochastic) transition weights on a window."""

    def __init__(
        self,
        rows: Mapping[Vertex, Mapping[Vertex, Weight]],
        *,
        depth: Optional[Mapping[Vertex, float]] = None,
        substochastic: bool = False,
    ):
        self.substochastic = substochastic
        self._rows: Dict[Vertex, Dict[Vertex, Weight]] = {}
        for x, row in rows.items():
            clean = {y: w for y, w in dict(row).items() if w != 0}
            for y, w in clean.items():
                if w < 0:
                    raise StructuralError(f"negative weight q({x!r}, {y!r}) = {w}")
            self._rows[x] = clean
        self.window = frozenset(self._rows)
        self._row_sums: Dict[Vertex, Weight] = {}
        for x, row in self._rows.items():
            s = sum(row.values(), Fraction(0) if all_exact(row.values()) else 0.0)
            self._row_sums[x] = s
            if not (vanishes(s - 1) or substochastic and s < 1):
                raise StructuralError(f"row at {x!r} sums to {s}, " + ("above 1" if substochastic else "not 1"))
        self._in: Dict[Vertex, Dict[Vertex, Weight]] = {x: {} for x in self._rows}
        for x, row in self._rows.items():
            for y, w in row.items():
                if y in self._in:
                    self._in[y][x] = w
        if depth is None:
            self._depth = self._frontier_depth()
        else:
            self._depth = {x: depth[x] for x in self._rows}

    def _frontier_depth(self) -> Dict[Vertex, float]:
        # Fallback convention: depth = visible undirected distance to the
        # frontier, plus one; exact when no in-edges arrive from outside.
        frontier = [x for x in self._rows if any(y not in self.window for y in self._rows[x])]
        dist, _ = bfs(sorted(frontier, key=sort_key), self.undirected_neighbors)
        return {x: dist[x] + 1 if x in dist else math.inf for x in self._rows}

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
        return 1 - self._row_sums[x]

    def edges(self) -> Iterator[Tuple[Vertex, Vertex, Weight]]:
        for x in self._rows:
            for y, w in self._rows[x].items():
                yield x, y, w

    def sorted_vertices(self) -> List[Vertex]:
        return sorted(self.window, key=sort_key)

    def undirected_neighbors(self, x: Vertex) -> List[Vertex]:
        """In-window vertices adjacent to x in the undirected support."""
        seen = set(self._rows.get(x, ())) | set(self._in.get(x, ()))
        seen.discard(x)
        return sorted((y for y in seen if y in self.window), key=sort_key)

    def depth(self, x: Vertex) -> float:
        return self._depth.get(x, 0)

    def interior_vertices(self, margin: float = 1) -> List[Vertex]:
        return [x for x in self.sorted_vertices() if self.depth(x) >= margin]

    # -- derived kernels ---------------------------------------------------

    def restrict(self, keep: Iterable[Vertex]) -> "Kernel":
        """Kill the chain on exit from ``keep``: drop rows and targets outside it.

        The result is a complete substochastic kernel (depth is infinite:
        there is no unmaterialized state left).
        """
        keep = set(keep) & self.window
        rows = {x: {y: w for y, w in self._rows[x].items() if y in keep} for x in keep}
        return Kernel(rows, depth={x: math.inf for x in keep}, substochastic=True)

    def with_killing(self, rate: Weight) -> "Kernel":
        if not 0 < rate < 1:
            raise PreconditionError(f"killing rate must lie in (0, 1), got {rate}")
        factor = (1 - Fraction(rate)) if is_exact(rate) else (1 - rate)
        rows = {x: {y: w * factor for y, w in row.items()} for x, row in self._rows.items()}
        return Kernel(rows, depth=dict(self._depth), substochastic=True)

    def __repr__(self) -> str:
        kind = "substochastic" if self.substochastic else "stochastic"
        return f"Kernel({len(self._rows)} rows, {kind})"


def _add(x, step):
    if isinstance(x, tuple):
        return tuple(a + b for a, b in zip(x, step))
    return x + step


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
    graph, or an explicit vertex set; in both cases the certified depth is
    the exact step-graph distance to the complement.
    """
    steps = dict(steps)
    if not steps:
        raise PreconditionError("empty step distribution")
    offsets = sorted({s for s in steps} | {_neg(s) for s in steps}, key=sort_key)
    first = next(iter(steps))
    origin = tuple(0 for _ in first) if isinstance(first, tuple) else 0

    if (radius is None) == (window is None):
        raise PreconditionError("specify exactly one of radius or window")

    def neighbors(x):
        return [_add(x, s) for s in offsets]

    if radius is not None:
        dist, _ = bfs([origin], neighbors, radius, max_support=MAX_WINDOW)
        vertices = set(dist)
        depth = {x: radius - d + 1 for x, d in dist.items()}
    else:
        vertices = set(window)
        # inward BFS from the layer adjacent to the complement
        frontier = [x for x in sorted(vertices, key=sort_key)
                    if any(y not in vertices for y in neighbors(x))]
        dist, _ = bfs(frontier, lambda x: [y for y in neighbors(x) if y in vertices])
        depth = {x: dist[x] + 1 if x in dist else math.inf for x in vertices}

    rows = {x: {} for x in vertices}
    for x in vertices:
        for s, w in steps.items():
            y = _add(x, s)
            rows[x][y] = rows[x].get(y, 0) + w
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
            if w <= 0:
                raise StructuralError(f"cycle weight must be positive, got {w}")

    @property
    def max_length(self) -> int:
        """C0, the longest cycle length (0 for an empty family)."""
        return max((c.length for c, _ in self.entries), default=0)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def coverage(self) -> Dict[Edge, Weight]:
        """Edge -> sum of q_i times the edge's multiplicity in gamma_i."""
        cov: Dict[Edge, Weight] = {}
        for cycle, w in self.entries:
            for e in cycle.edges():
                cov[e] = cov.get(e, 0) + w
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
    cov = dec.coverage()
    for (u, v) in cov:
        if u not in kernel.window or v not in kernel.window:
            raise StructuralError(f"cycle edge ({u!r}, {v!r}) leaves the kernel window")
    c0 = dec.max_length
    residuals: Dict[Edge, Weight] = {}
    zero_covered: List[Edge] = []
    edges = {(x, y) for x, y, _ in kernel.edges()} | set(cov)
    for e in sorted(edges, key=edge_key):
        x, y = e
        q = kernel.weight(x, y)
        residuals[e] = m(x) * q - cov.get(e, 0)
        if q == 0 and e in cov:
            zero_covered.append(e)
    interior = [e for e in residuals if kernel.depth(e[0]) >= c0 and e[1] in kernel.window]
    inside = set(interior)
    boundary = [e for e in residuals if e not in inside]
    valid = all(vanishes(residuals[e]) for e in interior) and not any(e in inside for e in zero_covered)
    return CenteringReport(
        valid=valid,
        residuals=residuals,
        max_abs_residual=max((abs(residuals[e]) for e in interior), default=0),
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
    gaps = ((abs(m(x) * w - m(y) * kernel.weight(y, x)), (x, y))
            for x, y, w in kernel.edges() if y in kernel.window)
    bad = [(gap, e) for gap, e in gaps if not vanishes(gap)]
    if bad:
        gap, e = max(bad, key=lambda ge: ge[0])
        raise PreconditionError(f"detailed balance fails at edge {e!r} by {gap}")
    entries: List[Tuple[Cycle, Weight]] = []
    for x in kernel.sorted_vertices():
        for y in sorted(kernel.row(x), key=sort_key):
            if y not in kernel.window:
                continue
            if x == y:
                entries.append((Cycle((x, x)), m(x) * kernel.weight(x, x)))
            elif sort_key(x) < sort_key(y) or kernel.weight(y, x) == 0:
                entries.append((Cycle((x, y, x)), m(x) * kernel.weight(x, y)))
    return CycleDecomposition(tuple(entries))


def circulation_to_cycles(
    flow: Mapping[Edge, Weight],
    max_len: int,
) -> CycleDecomposition:
    """Greedy peel of a circulation into edge self-avoiding weighted cycles.

    Repeatedly takes the heaviest remaining edge, closes it through a
    shortest directed path (BFS, lexicographic tie-break), and peels the
    minimum weight along that cycle.  Exact under rational arithmetic.  If
    some extracted cycle is longer than ``max_len`` the result is flagged
    ``exceeds_max_len`` rather than rejected.
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

    entries: List[Tuple[Cycle, Weight]] = []
    exceeded = False
    while residual:
        start = max(residual, key=lambda e: (residual[e], tuple(map(sort_key, e))))
        src, dst = start
        if src == dst:
            cycle_vertices: Tuple[Vertex, ...] = (src, src)
        else:
            # shortest directed return path dst -> src in the residual support
            back = _bfs_path(lambda u: sorted(out_edges.get(u, ()), key=sort_key), dst, src)
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
        if cycle.length > max_len:
            exceeded = True
        entries.append((cycle, qmin))
    return CycleDecomposition(tuple(entries), exceeds_max_len=exceeded)


def invariance_check(kernel: Kernel, m: Measure) -> InvarianceReport:
    """Residual sum_x m(x)q(x,y) - m(y) at every vertex whose in-flow is complete."""
    residuals: Dict[Vertex, Weight] = {}
    skipped: List[Vertex] = []
    for y in kernel.sorted_vertices():
        if kernel.depth(y) >= 2:
            residuals[y] = sum(m(x) * w for x, w in kernel.in_row(y).items()) - m(y)
        else:
            skipped.append(y)
    return InvarianceReport(residuals=residuals, boundary_skipped=skipped)


def graph_distance(kernel: Kernel, x: Vertex, y: Vertex, radius: int) -> Optional[int]:
    """BFS distance in the undirected support within the window; None beyond radius."""
    if radius < 0:
        raise PreconditionError("radius must be >= 0")
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
    """q*(x, y) = m(y) q(y, x) / m(x) without the invariance precondition.

    Every certified depth drops by one, since a row of the adjoint is
    complete only where the in-row of the kernel is.
    """
    rows: Dict[Vertex, Dict[Vertex, Weight]] = {}
    for y in kernel.sorted_vertices():
        rows[y] = {x: m(x) * w / m(y) for x, w in kernel.in_row(y).items()}
    depth = {x: kernel.depth(x) - 1 for x in kernel.window}
    return Kernel(rows, depth=depth, substochastic=lost_mass(kernel, rows))


def lost_mass(kernel: Kernel, rows: Mapping[Vertex, Mapping[Vertex, Weight]]) -> bool:
    """Rows derived from ``kernel`` are substochastic if it is or some row sums below 1."""
    sums = (sum(row.values(), Fraction(0)) for row in rows.values())
    return kernel.substochastic or any(s < 1 and not vanishes(s - 1) for s in sums)
