"""Dirichlet forms, cycle Poincare constants, sector estimation, Green kernels.

The form E(f, g) = m(g . (I - Q)f) is computed from the operator; its
symmetrization is computed independently through the symmetric edge weights
p0(x, y) = (m(x)q(x,y) + m(y)q(y,x)) / 2, and the antisymmetric remainder
has a closed cycle representation once a centering decomposition is known.
Green kernels come in two modes: truncated series (iterated sparse
convolution) and exact linear solve on a killed window.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import PreconditionError, StructuralError
from .markov_graph import CycleDecomposition, Kernel, Measure, Vertex, bfs, lost_mass
from .weights import Weight, sort_key

TestFunction = Mapping[Vertex, Weight]

#: functions must sit at this certified depth before forms are evaluated
SUPPORT_MARGIN = 2

#: random test functions live on at most TEST_SUPPORT points; the sector search refines its
#: REFINE_TOP best pairs by up to REFINE_ROUNDS best responses on at most GROW_CAP points
TEST_SUPPORT, REFINE_TOP, REFINE_ROUNDS, GROW_CAP = 12, 5, 12, 200

#: random test pairs of a sector search by default
SECTOR_TRIALS = 1000


def _check_support(kernel: Kernel, *functions: TestFunction, margin: float = SUPPORT_MARGIN):
    for f in functions:
        for x, v in f.items():
            if v == 0:
                continue
            if kernel.depth(x) < margin:
                raise PreconditionError(
                    f"support touches the window boundary at {x!r} (depth {kernel.depth(x)})"
                )


def apply_kernel(kernel: Kernel, f: TestFunction, x: Vertex) -> Weight:
    """(Qf)(x); f is zero off its support."""
    return sum((w * f[y] for y, w in kernel.row(x).items() if y in f), start=Fraction(0))


def dirichlet_form(kernel: Kernel, m: Measure, f: TestFunction, g: TestFunction) -> Weight:
    """E(f, g) = sum_x m(x) g(x) ((I - Q)f)(x) for finitely supported f, g.

    For substochastic (killed) kernels the defect contributes the killing
    term; this is the operator definition, which the Green comparisons need.
    """
    _check_support(kernel, f, g)
    total = Fraction(0)
    for x, gx in g.items():
        if gx == 0:
            continue
        fx = f.get(x, 0)
        total += m(x) * gx * (fx - apply_kernel(kernel, f, x))
    return total


def symmetrized_weights(kernel: Kernel, m: Measure, pairs: Iterable[Tuple[Vertex, Vertex]]) -> Dict[Tuple[Vertex, Vertex], Weight]:
    """p0 on the given unordered pairs (keys are sort-ordered (x, y) tuples)."""
    out = {}
    for x, y in pairs:
        if sort_key(y) < sort_key(x):
            x, y = y, x
        out[(x, y)] = (m(x) * kernel.weight(x, y) + m(y) * kernel.weight(y, x)) / 2
    return out


def _touching_pairs(kernel: Kernel, f: TestFunction, g: TestFunction):
    support = {x for x in f if f[x] != 0} | {x for x in g if g[x] != 0}
    pairs = set()
    for x in support:
        for y in list(kernel.row(x)) + list(kernel.in_row(x)):
            if y == x:
                continue
            pairs.add((x, y) if sort_key(x) < sort_key(y) else (y, x))
    return support, pairs


def symmetrized_form(kernel: Kernel, m: Measure, f: TestFunction, g: TestFunction) -> Weight:
    """E0(f, g) via the symmetric edge weights; independent of dirichlet_form.

    E0(f, g) = sum over unordered pairs of p0(x,y)(f(x)-f(y))(g(x)-g(y)),
    plus the killing diagonal on substochastic kernels.
    """
    _check_support(kernel, f, g)
    support, pairs = _touching_pairs(kernel, f, g)
    total = Fraction(0)
    for (x, y) in pairs:
        df = f.get(x, 0) - f.get(y, 0)
        dg = g.get(x, 0) - g.get(y, 0)
        if df == 0 or dg == 0:
            continue
        total += ((m(x) * kernel.weight(x, y) + m(y) * kernel.weight(y, x)) / 2) * df * dg
    if kernel.substochastic:
        for x in support:
            fx, gx = f.get(x, 0), g.get(x, 0)
            if fx != 0 and gx != 0:
                total += m(x) * kernel.defect(x) * fx * gx
    return total


def antisymmetric_form_cycles(dec: CycleDecomposition, f: TestFunction, g: TestFunction) -> Weight:
    """Cycle representation of E(f, g) - E0(f, g).

    Equals (1/2) sum_i q_i sum_{(x,y) in gamma_i} (f(x)g(y) - f(y)g(x));
    antisymmetric in (f, g) and invariant under shifting f or g by a
    constant on each cycle.
    """
    support = {x for x, v in f.items() if v != 0} | {x for x, v in g.items() if v != 0}
    total = Fraction(0)
    for cycle, q in dec:
        if not any(v in support for v in cycle.vertices):
            continue
        acc = Fraction(0)
        for x, y in cycle.edges():
            acc += f.get(x, 0) * g.get(y, 0) - f.get(y, 0) * g.get(x, 0)
        total += q * acc
    return total / 2


def poincare_constant(k: int) -> float:
    """Best constant C with sum g^2 <= C sum of squared edge increments on a k-cycle.

    Mean-zero functions on the cycle (x_0, ..., x_k = x_0).  The edge Laplacian
    is circulant, so Fourier modes diagonalize it (Gray, "Toeplitz and circulant
    matrices: a review", 2006): its spectral gap is 4 sin^2(pi / k), and C is
    the inverse.  A length-1 cycle has only the zero mean-zero function: C = 0.
    """
    if k < 1:
        raise PreconditionError("cycle length must be >= 1")
    if k == 1:
        return 0.0
    return 1.0 / (4.0 * math.sin(math.pi / k) ** 2)


def random_test_function(
    interior: Sequence[Vertex],
    rng: random.Random,
    exact: bool = False,
) -> Dict[Vertex, Weight]:
    """Random finitely supported function: support <= TEST_SUPPORT, values in [-1, 1]."""
    size = rng.randint(1, min(TEST_SUPPORT, len(interior)))
    points = rng.sample(list(interior), size)
    if exact:
        return {x: Fraction(rng.randint(-64, 64), 64) for x in points}
    return {x: rng.uniform(-1.0, 1.0) for x in points}


class _FloatForm:
    """E(f, g) = m(g . (I - Q)f) on float test functions, from the kernel's float view.

    m(x) is converted once per vertex actually touched, so a measure defined
    only where the functions live is enough.  Every sum is a plain loop in
    row (or in-row) order starting from 0.0, never sum(), whose float path
    is compensated on Python 3.12+: that is what the exact path computes on
    float inputs (a Fraction times a float is float(w) * f), so each value is
    bit-identical to the one dirichlet_form gives.  The callers draw supports
    from the interior at the support margin, so dirichlet_form's boundary
    check is not repeated.
    """

    def __init__(self, kernel: Kernel, m: Measure):
        view = kernel.float_view
        self.rows, self.in_rows = view.rows, view.in_rows
        self._m = m
        self._mass: Dict[Vertex, float] = {}

    def mass(self, x: Vertex) -> float:
        v = self._mass.get(x)
        if v is None:
            v = self._mass[x] = float(self._m(x))
        return v

    def _apply(self, f, x) -> float:
        # (Qf)(x)
        acc = 0.0
        for y, w in self.rows[x].items():
            if y in f:
                acc += w * f[y]
        return acc

    def __call__(self, f, g) -> float:
        total = 0.0
        for x, gx in g.items():
            if gx != 0:
                total += self.mass(x) * gx * (f.get(x, 0.0) - self._apply(f, x))
        return total

    def g_coefficient(self, f, x) -> float:
        # E(f, g) = sum_x g(x) * this
        return self.mass(x) * (f.get(x, 0.0) - self._apply(f, x))

    def f_coefficient(self, g, y) -> float:
        # E(f, g) = sum_y f(y) * this
        acc = self.mass(y) * g.get(y, 0.0)
        for x, w in self.in_rows[y].items():
            if x in g:
                acc -= self.mass(x) * g[x] * w
        return acc

    def sym_matrix(self, support: Sequence[Vertex]):
        # restriction of the symmetric part B = (E + E^T) / 2 of E = M(I - Q)
        # to the support, from the sparse rows: E[i, i] = m(x)(1 - q(x, x)),
        # E[i, j] = -m(x) q(x, y)
        import numpy as np

        index = {x: i for i, x in enumerate(support)}
        e = np.zeros((len(support), len(support)))
        for i, x in enumerate(support):
            mx = self.mass(x)
            e[i, i] = mx
            for y, w in self.rows[x].items():
                j = index.get(y)
                if j is not None:
                    e[i, j] = mx * ((1.0 if i == j else 0.0) - w)
        return (e + e.T) / 2.0


def _ratio(form: _FloatForm, f, g) -> Optional[float]:
    eff = form(f, f)
    egg = form(g, g)
    if eff < 1e-14 or egg < 1e-14:
        return None
    return abs(form(f, g)) / math.sqrt(eff * egg)


def _best_response(form: _FloatForm, coeffs, support):
    # maximize <g, coeffs> / sqrt(g^T B g) over functions on the support
    import numpy as np

    sol, *_ = np.linalg.lstsq(form.sym_matrix(support), np.asarray(coeffs, dtype=float), rcond=None)
    return {x: float(v) for x, v in zip(support, sol)}


def _respond(kernel, form, h, neighbors, coefficient, margin):
    # the best response to h on h's support grown by one step along ``neighbors``,
    # cut to the GROW_CAP points with the largest coefficients
    cand = set(h)
    for x in h:
        cand.update(neighbors(x))
    cand = [x for x in cand if kernel.depth(x) >= margin]
    coeffs = {x: coefficient(h, x) for x in cand}
    support = sorted(cand, key=lambda x: (-abs(coeffs[x]), sort_key(x)))[:GROW_CAP]
    support.sort(key=sort_key)
    return _best_response(form, [coeffs[x] for x in support], support)


def _refine_pair(kernel, form, f, g, margin):
    # alternate optimal responses, letting supports grow into the
    # neighborhoods where the response coefficients are nonzero
    best = _ratio(form, f, g) or 0.0
    for _ in range(REFINE_ROUNDS):
        g = _respond(kernel, form, f, kernel.in_row, form.g_coefficient, margin)
        f = _respond(kernel, form, g, kernel.row, form.f_coefficient, margin)
        r = _ratio(form, f, g)
        if r is None:
            break
        if r <= best * (1 + 1e-12):
            best = max(best, r)
            break
        best = r
    return best


def sector_ratio(
    kernel: Kernel,
    m: Measure,
    dec: Optional[CycleDecomposition] = None,
    trials: int = SECTOR_TRIALS,
    seed: int = 0,
) -> float:
    """Empirical sector constant: max |E(f,g)| / sqrt(E(f,f) E(g,g)).

    Takes the max over random finitely supported pairs, then runs an
    adversarial local-search pass on the best few: alternating optimal
    responses (with f fixed, the maximizing g on a support solves a small
    linear system) while supports grow into the relevant neighborhoods.
    Every reported value is the ratio of actual finitely supported
    functions, hence a certified lower bound on the true constant;
    deterministic given the seed.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    margin = max(SUPPORT_MARGIN, (dec.max_length + 1) if dec is not None else SUPPORT_MARGIN)
    interior = kernel.interior_vertices(margin)
    if not interior:
        raise PreconditionError(f"window has no interior at depth {margin}")
    form = _FloatForm(kernel, m)
    rng = random.Random(seed)
    scored = []
    for i in range(trials):
        f = random_test_function(interior, rng)
        g = random_test_function(interior, rng)
        r = _ratio(form, f, g)
        if r is not None:
            scored.append((r, i, f, g))
    if not scored:
        return 0.0
    scored.sort(key=lambda item: (-item[0], item[1]))
    best = scored[0][0]
    for r, _, f, g in scored[:REFINE_TOP]:
        best = max(best, _refine_pair(kernel, form, f, g, margin))
    return best


def distance_map(kernel: Kernel, origin: Vertex) -> Dict[Vertex, int]:
    """Undirected BFS distances from origin across the whole window."""
    return bfs([origin], kernel.undirected_neighbors)[0]


def weighted_form_ratios(
    kernel: Kernel,
    m: Measure,
    origin: Vertex,
    s_values: Sequence[float],
    trials: int,
    seed: int,
) -> List[float]:
    """Samples of -E(w_s f, w_-s f) / (s^2 m(f^2)) for w_s = exp(s d(origin, .)).

    The form along conjugated exponential weights can only dip slightly
    negative for a centered chain; the returned ratios stay bounded over
    any sample when that holds.
    """
    dist = distance_map(kernel, origin)
    form = _FloatForm(kernel, m)
    rng = random.Random(seed)
    interior = kernel.interior_vertices(SUPPORT_MARGIN)
    out: List[float] = []
    for _ in range(trials):
        f = random_test_function(interior, rng)
        mass = sum(form.mass(x) * v * v for x, v in f.items())
        if mass < 1e-14:
            continue
        for s in s_values:
            ws_f = {x: math.exp(s * dist[x]) * v for x, v in f.items()}
            wms_f = {x: math.exp(-s * dist[x]) * v for x, v in f.items()}
            out.append(-form(ws_f, wms_f) / (s * s * mass))
    return out


# -- Green kernels -----------------------------------------------------------


def kernel_step(kernel: Kernel, dist: Mapping[Vertex, Weight]) -> Dict[Vertex, Weight]:
    """One transition of a vertex distribution; mass leaving the window is dropped."""
    out: Dict[Vertex, Weight] = {}
    for x, p in dist.items():
        if p == 0:
            continue
        for y, w in kernel.row(x).items():
            if y in kernel.window:
                out[y] = out.get(y, 0) + p * w
    return out


def green_partial(kernel: Kernel, x: Vertex, y: Vertex, horizon: int) -> Weight:
    """Partial sum of the visit series sum_t P[X_t = y | X_0 = x], t <= horizon.

    Evaluates the window-killed chain: exact for the full chain whenever
    the window radius exceeds the horizon.  Monotone nondecreasing in the
    horizon.
    """
    if horizon < 0:
        raise PreconditionError("horizon must be >= 0")
    dist: Dict[Vertex, Weight] = {x: Fraction(1)}
    total = dist.get(y, 0)
    for _ in range(horizon):
        dist = kernel_step(kernel, dist)
        total += dist.get(y, 0)
    return total


def _green_rows(kernel: Kernel, sources: Sequence[Vertex]):
    # Green rows g(x, .) = e_x (I - Q)^-1 of a killed chain, one per source,
    # from a single sparse LU factorization, as arrays over the returned
    # vertex index; a singular or non-finite system means nothing is killed.
    import numpy as np
    from scipy import sparse
    from scipy.sparse.linalg import splu

    order = kernel.sorted_vertices()
    index = {x: i for i, x in enumerate(order)}
    rows, cols, vals = [], [], []
    for x, row in kernel.float_view.rows.items():
        for y, w in row.items():
            if y in index:
                rows.append(index[x])
                cols.append(index[y])
                vals.append(w)
    n = len(order)
    q = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    try:
        lu = splu((sparse.identity(n, format="csr") - q).T.tocsc())
    except RuntimeError as exc:
        raise PreconditionError(f"singular system; the chain has no killing ({exc})") from exc
    out = []
    for x in sources:
        rhs = np.zeros(n)
        rhs[index[x]] = 1.0
        u = lu.solve(rhs)
        if not np.all(np.isfinite(u)):
            raise PreconditionError("singular system; the chain has no killing")
        out.append(u)
    return index, out


def green_absorbing(kernel: Kernel, x: Vertex) -> Dict[Vertex, float]:
    """Exact Green row g(x, .) of a killed chain by sparse linear solve.

    Requires the killed spectral radius to be < 1 (some state must leak
    mass); a singular system signals that nothing is killed.
    """
    if x not in kernel.window:
        raise StructuralError(f"vertex {x!r} outside the window")
    index, (u,) = _green_rows(kernel, [x])
    return {y: float(u[i]) for y, i in index.items()}


def symmetrized_kernel(kernel: Kernel, m: Measure) -> Kernel:
    """Q0 = (Q + Q*) / 2 with respect to m on the same window; Q*(x, y) = m(y) Q(y, x) / m(x)."""
    rows: Dict[Vertex, Dict[Vertex, Weight]] = {}
    for x in kernel.sorted_vertices():
        row: Dict[Vertex, Weight] = {}
        for y, w in kernel.row(x).items():
            row[y] = row.get(y, 0) + w / 2
        for y, w in kernel.in_row(x).items():
            row[y] = row.get(y, 0) + (m(y) * w / m(x)) / 2
        rows[x] = row
    depth = {x: kernel.depth(x) - 1 for x in kernel.window}
    return Kernel(rows, depth=depth, substochastic=lost_mass(kernel, rows))


@dataclass
class GreenReport:
    """Diagonal Green values of a killed chain and of its symmetrization."""

    g_diag: Dict[Vertex, float]
    g0_diag: Dict[Vertex, float]
    sector_m: float
    mode: str
    holds_upper: bool
    holds_lower: bool
    interior: List[Vertex] = field(default_factory=list)


def _interior_of_ball(parent: Kernel, killed: Kernel, margin: int) -> List[Vertex]:
    # distance to the truncation layer: vertices that lost edges when the
    # parent kernel was restricted to the ball (uniform killing is not a
    # spatial boundary and does not count)
    ball = killed.window
    leak = [
        x for x in killed.sorted_vertices()
        if any(y not in ball for y in parent.row(x))
    ]
    dist, _ = bfs(leak, killed.undirected_neighbors)
    return [x for x in killed.sorted_vertices() if dist.get(x, math.inf) >= margin]


def green_comparison(
    kernel: Kernel,
    m: Measure,
    dec: CycleDecomposition,
    ball: Iterable[Vertex],
    trials: int = 2000,
    seed: int = 1,
) -> GreenReport:
    """Compare the killed Green diagonal with its symmetrized counterpart.

    Kills both Q and Q0 = (Q + Q*)/2 outside the ball, solves the two
    linear systems, and reports whether g <= g0 pointwise and whether
    g0 <= M^2 g for the empirically estimated sector constant M, at
    interior points at least C0 steps from the leaking layer.
    """
    ball = set(ball)
    if not ball <= kernel.window:
        raise StructuralError("ball must lie inside the kernel window")
    shallow = [x for x in ball if kernel.depth(x) < 2]
    if shallow:
        raise PreconditionError(
            f"ball reaches vertices without complete in-rows, e.g. {shallow[0]!r}"
        )
    killed = kernel.restrict(ball)
    killed0 = symmetrized_kernel(kernel, m).restrict(ball)
    interior = _interior_of_ball(kernel, killed, dec.max_length)
    if not interior:
        raise PreconditionError("ball has no interior at the decomposition's cycle length")

    diags = []
    for kk in (killed, killed0):
        index, rows = _green_rows(kk, interior)
        diags.append({x: float(u[index[x]]) for x, u in zip(interior, rows)})
    g_diag, g0_diag = diags

    sector_m = sector_ratio(killed, m, dec=None, trials=trials, seed=seed)
    slack = 1e-9
    holds_upper = all(g_diag[x] <= g0_diag[x] * (1 + slack) for x in interior)
    holds_lower = all(g0_diag[x] <= sector_m ** 2 * g_diag[x] * (1 + slack) for x in interior)
    return GreenReport(
        g_diag=g_diag,
        g0_diag=g0_diag,
        sector_m=sector_m,
        mode="absorbing_ball",
        holds_upper=holds_upper,
        holds_lower=holds_lower,
        interior=interior,
    )
