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
from .markov_graph import (SUPPORT_MARGIN, CycleDecomposition, Kernel, Measure, Vertex, _adjoint_rows,
                           _inward_depth, _same_window, verify_centering)
from .weights import Pair, Weight, add, scale

TestFunction = Mapping[Vertex, Weight]

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
            if x not in kernel.window:
                raise PreconditionError(f"support vertex {x!r} is outside the kernel window")
            if kernel.depth(x) < margin:
                raise PreconditionError(
                    f"support touches the window boundary at {x!r} (depth {kernel.depth(x)})"
                )


def dirichlet_form(kernel: Kernel, m: Measure, f: TestFunction, g: TestFunction) -> Weight:
    """E(f, g) = sum_x m(x) g(x) ((I - Q)f)(x) for finitely supported f, g.

    For substochastic (killed) kernels the defect contributes the killing
    term; this is the operator definition, which the Green comparisons need.
    """
    _check_support(kernel, f, g)
    return _Form(kernel, m, exact=True)(f, g)


def symmetrized_weights(kernel: Kernel, m: Measure, pairs: Iterable[Tuple[Vertex, Vertex]]) -> Dict[Tuple[Vertex, Vertex], Weight]:
    """p0 on the given unordered pairs (keys are (x, y) tuples with x < y)."""
    out = {}
    for x, y in pairs:
        if y < x:
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
            pairs.add((x, y) if x < y else (y, x))
    return support, pairs


def symmetrized_form(kernel: Kernel, m: Measure, f: TestFunction, g: TestFunction) -> Weight:
    """E0(f, g) via the symmetric edge weights; independent of dirichlet_form.

    E0(f, g) = sum over unordered pairs of p0(x,y)(f(x)-f(y))(g(x)-g(y)),
    plus the killing diagonal on substochastic kernels.
    """
    _check_support(kernel, f, g)
    support, pairs = _touching_pairs(kernel, f, g)
    total = Fraction(0)
    for (x, y), p0 in symmetrized_weights(kernel, m, sorted(pairs)).items():
        df = f.get(x, 0) - f.get(y, 0)
        dg = g.get(x, 0) - g.get(y, 0)
        if df == 0 or dg == 0:
            continue
        total += p0 * df * dg
    if kernel.substochastic:
        for x in sorted(support):
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


def sector_bound(dec: CycleDecomposition) -> float:
    """Closed-form sector constant csc(pi / L) of a centered chain, L = dec.max_length; 1 when L <= 2.

    Claim: when ``verify_centering`` accepts ``dec`` on the kernel, then
    |E(f, g)| <= csc(pi / L) sqrt(E0(f, f) E0(g, g)) for every f, g supported
    where the decomposition is verified (Mathieu, "Carne-Varopoulos bounds
    for centered random walks", 2006).

    Proof sketch.  On one k-cycle with shift S, S - S^T and 2I - S - S^T are
    circulant, so Fourier modes diagonalize both (the argument behind
    poincare_constant); on mode j their eigenvalues are 2i sin(2 pi j / k)
    and 4 sin^2(pi j / k), whose ratio peaks at cot(pi / k), increasing in k.
    The decomposition's edge coverage is m(x)Q(x, y), which verify_centering
    checks, so E0 is the q-weighted sum of the cycles' symmetric forms (plus
    the killing term, which only adds to E0), and E - E0 the q-weighted sum
    of their antisymmetric forms; Cauchy-Schwarz over the cycle weights gives
    |E(f, g) - E0(f, g)| <= cot(pi / L) sqrt(E0(f, f) E0(g, g)).  Whitening E0
    turns E into I + K with K antisymmetric and ||K|| <= cot(pi / L), and
    ||I + K|| = sqrt(1 + ||K||^2) = csc(pi / L).  Loops and two-cycles carry
    no antisymmetric part, so L <= 2 gives 1.  On functions supported in a
    ball, the ball-killed form equals the full form, so the bound verified on
    the window also holds for the killed kernel of green_comparison.
    """
    length = dec.max_length
    if length <= 2:
        return 1.0
    return 1.0 / math.sin(math.pi / length)


def certified_sector_bound(kernel: Kernel, m: Measure, dec: CycleDecomposition) -> Optional[float]:
    """sector_bound(dec) when verify_centering accepts dec on the kernel, else None.

    A decomposition whose cycles leave the kernel window is rejected too.
    """
    try:
        valid = verify_centering(kernel, m, dec).valid
    except StructuralError:
        return None
    return sector_bound(dec) if valid else None


def random_test_function(
    interior: Sequence[Vertex],
    rng: random.Random,
    exact: bool = False,
) -> Dict[Vertex, Weight]:
    """Random finitely supported function: support <= TEST_SUPPORT, values in [-1, 1].

    Samples ``interior`` as given, without a copy: a window's interior runs to
    tens of thousands of vertices, and a search draws two functions per trial.
    """
    size = rng.randint(1, min(TEST_SUPPORT, len(interior)))
    points = rng.sample(interior, size)
    if exact:
        return {x: Fraction(rng.randint(-64, 64), 64) for x in points}
    return {x: rng.uniform(-1.0, 1.0) for x in points}


class _Form:
    """E(f, g) = m(g . (I - Q)f) on one of two views of a kernel.

    The exact view reads the kernel's own rows and in-rows with m(x); the
    float view reads ``kernel.float_view`` with float(m(x)), converted once
    per vertex actually touched, so a measure defined only where the
    functions live is enough.  Both run the same plain loops, in row (or
    in-row) order from the int 0: exact weights stay exact, and float sums
    never take sum()'s compensated float path (Python 3.12+).  On float test
    functions the two views give the same bits, since a Fraction times a
    float is float(w) * f.  The form does not check supports: dirichlet_form
    does, and the float callers draw supports from the interior at the
    support margin.
    """

    def __init__(self, kernel: Kernel, m: Measure, exact: bool = False):
        if exact:
            self.row, self.in_row, self._m = kernel.row, kernel.in_row, m
        else:
            view = kernel.float_view
            self.row, self.in_row = view.rows.__getitem__, view.in_rows.__getitem__
            self._m = lambda x: float(m(x))
        self._mass: Dict[Vertex, Weight] = {}

    def mass(self, x: Vertex) -> Weight:
        v = self._mass.get(x)
        if v is None:
            v = self._mass[x] = self._m(x)
        return v

    def _apply(self, f, x) -> Weight:
        # (Qf)(x)
        acc = 0
        for y, w in self.row(x).items():
            if y in f:
                acc += w * f[y]
        return acc

    def __call__(self, f, g) -> Weight:
        total = 0
        for x, gx in g.items():
            if gx != 0:
                total += self.mass(x) * gx * (f.get(x, 0) - self._apply(f, x))
        return total

    def g_coefficient(self, f, x) -> Weight:
        # E(f, g) = sum_x g(x) * this
        return self.mass(x) * (f.get(x, 0) - self._apply(f, x))

    def f_coefficient(self, g, y) -> Weight:
        # E(f, g) = sum_y f(y) * this
        acc = self.mass(y) * g.get(y, 0)
        for x, w in self.in_row(y).items():
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
            for y, w in self.row(x).items():
                j = index.get(y)
                if j is not None:
                    e[i, j] = mx * ((1.0 if i == j else 0.0) - w)
        return (e + e.T) / 2.0


def _ratio(form: _Form, f, g) -> Optional[float]:
    eff = form(f, f)
    egg = form(g, g)
    if eff < 1e-14 or egg < 1e-14:
        return None
    return abs(form(f, g)) / math.sqrt(eff * egg)


def _best_response(form: _Form, coeffs, support):
    # maximize <g, coeffs> / sqrt(g^T B g) over functions on the support: the
    # minimum-norm solution of B g = coeffs, by QR with column pivoting (LAPACK
    # gelsy) at numpy's rank cut-off eps * n; B is singular where constants
    # carry no energy (an unkilled finite chain)
    import numpy as np
    from scipy.linalg import lstsq

    sol, *_ = lstsq(form.sym_matrix(support), np.asarray(coeffs, dtype=float),
                    cond=np.finfo(float).eps * len(support), check_finite=False, lapack_driver="gelsy")
    return {x: float(v) for x, v in zip(support, sol)}


def _respond(kernel, form, h, neighbors, coefficient, margin):
    # the best response to h on h's support grown by one step along ``neighbors``,
    # cut to the GROW_CAP points with the largest coefficients
    cand = set(h)
    for x in h:
        cand.update(neighbors(x))
    cand = [x for x in cand if kernel.depth(x) >= margin]
    coeffs = {x: coefficient(h, x) for x in cand}
    support = sorted(cand, key=lambda x: (-abs(coeffs[x]), x))[:GROW_CAP]
    support.sort()
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
    functions, hence a certified lower bound on the true constant, which
    sector_bound(dec) bounds from above when verify_centering accepts dec;
    deterministic given the seed.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    margin = max(SUPPORT_MARGIN, (dec.max_length + 1) if dec is not None else SUPPORT_MARGIN)
    interior = kernel.interior_vertices(margin)
    if not interior:
        raise PreconditionError(f"window has no interior at depth {margin}")
    form = _Form(kernel, m)
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


# -- Green kernels -----------------------------------------------------------


def kernel_step(kernel: Kernel, dist: Mapping[Vertex, Weight]) -> Dict[Vertex, Weight]:
    """One transition of a vertex distribution; mass leaving the window is dropped."""
    ratio, value = scale(dist.values(), *(kernel.row(x).values() for x in dist))
    out: Dict[Vertex, Pair] = {}
    for x, p in dist.items():
        a, b = ratio(p)
        if a == 0:
            continue
        for y, w in kernel.row(x).items():
            if y in kernel.window:
                c, d = ratio(w)
                out[y] = add(out[y], (a * c, b * d)) if y in out else (a * c, b * d)
    return {y: value(n, d) for y, (n, d) in out.items()}


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

    index = {x: i for i, x in enumerate(kernel.window)}
    rows, cols, vals = [], [], []
    for x, row in kernel.float_view.rows.items():
        for y, w in row.items():
            if y in index:
                rows.append(index[x])
                cols.append(index[y])
                vals.append(w)
    n = len(index)
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
    adjoint = _adjoint_rows(kernel, m)
    ratio, value = scale(kernel.weights(), *(row.values() for row in adjoint.values()))
    h, k = ratio(Fraction(1, 2))  # halving multiplies: w * 0.5 rounds as w / 2 does
    rows: Dict[Vertex, Dict[Vertex, Weight]] = {}
    for x in kernel.window:
        row: Dict[Vertex, Pair] = {}
        for part in (kernel.row(x), adjoint[x]):
            for y, w in part.items():
                n, d = ratio(w)
                row[y] = add(row[y], (n * h, d * k)) if y in row else (n * h, d * k)
        rows[x] = {y: value(n, d) for y, (n, d) in row.items()}
    return _same_window(kernel, rows)


@dataclass
class GreenReport:
    """Diagonal Green values of a killed chain and of its symmetrization.

    ``sector_m`` is the search's lower estimate of the sector constant and
    ``sector_bound`` the certified csc(pi / L), or None when the decomposition
    does not verify on the parent kernel.  ``holds_lower`` checks g0 <= M^2 g
    with M = ``sector_bound`` when it is certified, else ``sector_m``;
    ``holds_lower_search`` checks it with ``sector_m`` always.
    """

    g_diag: Dict[Vertex, float]
    g0_diag: Dict[Vertex, float]
    sector_m: float
    sector_bound: Optional[float]
    mode: str
    holds_upper: bool
    holds_lower: bool
    holds_lower_search: bool
    interior: List[Vertex] = field(default_factory=list)


def _interior_of_ball(parent: Kernel, killed: Kernel, margin: int) -> List[Vertex]:
    # vertices at least ``margin`` steps from the truncation layer: those that
    # lost edges when the parent kernel was restricted to the ball (uniform
    # killing is not a spatial boundary and does not count)
    ball = killed.window
    leak = [x for x in ball if any(y not in ball for y in parent.row(x))]
    depth = _inward_depth(ball, leak, killed.undirected_neighbors)
    return [x for x in ball if depth[x] > margin]


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
    g0 <= M^2 g, at interior points at least C0 steps from the leaking
    layer.  M is the certified sector_bound(dec) when verify_centering
    accepts dec on ``kernel`` (the window, not the killed ball), else the
    search's estimate on the killed kernel; the check with the search's
    estimate is reported on its own as well.
    """
    ball = set(ball)
    if not ball <= kernel.window:
        raise StructuralError("ball must lie inside the kernel window")
    shallow = [x for x in kernel.window if x in ball and kernel.depth(x) < SUPPORT_MARGIN]
    if shallow:
        raise PreconditionError(
            f"ball reaches vertices without complete in-rows, e.g. {shallow[0]!r}"
        )
    killed = kernel.restrict(ball)
    killed0 = symmetrized_kernel(killed, m)
    interior = _interior_of_ball(kernel, killed, dec.max_length)
    if not interior:
        raise PreconditionError("ball has no interior at the decomposition's cycle length")

    diags = []
    for kk in (killed, killed0):
        index, rows = _green_rows(kk, interior)
        diags.append({x: float(u[index[x]]) for x, u in zip(interior, rows)})
    g_diag, g0_diag = diags

    sector_m = sector_ratio(killed, m, dec=None, trials=trials, seed=seed)
    bound = certified_sector_bound(kernel, m, dec)
    slack = 1e-9
    holds_upper = all(g_diag[x] <= g0_diag[x] * (1 + slack) for x in interior)

    def holds_lower(sector: float) -> bool:
        return all(g0_diag[x] <= sector ** 2 * g_diag[x] * (1 + slack) for x in interior)

    return GreenReport(
        g_diag=g_diag,
        g0_diag=g0_diag,
        sector_m=sector_m,
        sector_bound=bound,
        mode="absorbing_ball",
        holds_upper=holds_upper,
        holds_lower=holds_lower(sector_m if bound is None else bound),
        holds_lower_search=holds_lower(sector_m),
        interior=interior,
    )
