"""Independent computations the benchmark checks the program against.

Nothing here imports ``centerwalk``: every group is re-implemented in a
different representation (Heisenberg elements as 3x3 matrices, BS(1, q) as
affine maps with rational offsets, free words as strings, wreath lamps as
dicts), laws come from brute-force path enumeration, integer convolution or
closed forms, and the Monte Carlo streams are replayed from the documented
``path_rng`` recipe.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

# -- groups in their own representations --------------------------------------


class Lattice:
    """Z^d as integer tuples."""

    def __init__(self, d: int):
        self.identity = (0,) * d

    def mul(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def fold(self, gens, indices):
        # abelian: the endpoint only depends on how often each generator was drawn
        counts = [0] * len(gens)
        for i in indices:
            counts[i] += 1
        return tuple(sum(c * g[j] for c, g in zip(counts, gens)) for j in range(len(self.identity)))

    def from_program(self, x):
        return tuple(x)


class HeisenbergMatrices:
    """Upper unitriangular 3x3 integer matrices, multiplied as matrices."""

    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def mul(self, x, y):
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )

    def from_program(self, x):
        a, b, c = x
        return ((1, a, c), (0, 1, b), (0, 0, 1))


class AffineBS:
    """BS(1, q) as affine maps z -> q^k z + c, composed left to right."""

    identity = (0, Fraction(0))

    def __init__(self, q: int):
        self.q = q

    def mul(self, x, y):
        k1, c1 = x
        k2, c2 = y
        return (k1 + k2, c1 + Fraction(self.q) ** k1 * c2)

    def from_program(self, x):
        l, m, k = x
        return (k, Fraction(m, self.q ** l))


class Lamplighter:
    """Z wr Z as (shift, {position: value}) with a plain dict of lamps."""

    identity = (0, ())

    def mul(self, x, y):
        return self.fold((x, y), (0, 1))

    def fold(self, gens, indices):
        # one mutable lamp dict for the whole word
        shift, lamps = 0, {}
        for i in indices:
            step, ls = gens[i]
            for p, v in ls:
                lamps[p + shift] = lamps.get(p + shift, 0) + v
            shift += step
        return (shift, tuple(sorted((p, v) for p, v in lamps.items() if v)))

    def from_program(self, x):
        return (x[0], tuple(tuple(pv) for pv in x[1]))


class FreeWords:
    """F2 as reduced strings over a, A, b, B."""

    identity = ""
    _inv = {"a": "A", "A": "a", "b": "B", "B": "b"}

    def mul(self, x, y):
        return reduce_word(x + y)

    def fold(self, gens, indices):
        return reduce_word("".join(gens[i] for i in indices))

    def from_program(self, x):
        return "".join({1: "a", -1: "A", 2: "b", -2: "B"}[v] for v in x)


def reduce_word(word: str) -> str:
    """Free reduction of a word over a, A, b, B by a single stack pass."""
    inv = FreeWords._inv
    out: List[str] = []
    for ch in word:
        if out and out[-1] == inv[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def product(group, elements: Iterable):
    acc = group.identity
    for g in elements:
        acc = group.mul(acc, g)
    return acc


def brute_force_law(group, gens: Sequence, t: int) -> Dict[object, int]:
    """Number of the K^t index sequences whose product is each element."""
    counts: Dict[object, int] = {}
    for word in itertools.product(gens, repeat=t):
        x = product(group, word)
        counts[x] = counts.get(x, 0) + 1
    return counts


# -- closed forms and exact laws ----------------------------------------------


def z_laws(steps: Sequence[int], t_max: int) -> List[Dict[int, int]]:
    """Path counts at t = 0..t_max of a walk on Z with the given steps, by convolution."""
    laws = [{0: 1}]
    for _ in range(t_max):
        nxt: Dict[int, int] = {}
        for x, c in laws[-1].items():
            for s in steps:
                nxt[x + s] = nxt.get(x + s, 0) + c
        laws.append(nxt)
    return laws


def z2_count(t: int, x: int, y: int) -> int:
    """Path count of the simple walk on Z^2: u = x+y and v = x-y move independently."""
    u, v = x + y, x - y
    if (t + u) % 2 or abs(u) > t or abs(v) > t:
        return 0
    return math.comb(t, (t + u) // 2) * math.comb(t, (t + v) // 2)


def f2_sphere_size(r: int) -> int:
    return 1 if r == 0 else 4 * 3 ** (r - 1)


def f2_length_law(t: int) -> Dict[int, Fraction]:
    """Law of |X_t| for the simple walk on F2: the birth-death chain on lengths."""
    law = {0: Fraction(1)}
    for _ in range(t):
        nxt: Dict[int, Fraction] = {}
        for r, p in law.items():
            moves = ((1, Fraction(1)),) if r == 0 else ((r + 1, Fraction(3, 4)), (r - 1, Fraction(1, 4)))
            for s, w in moves:
                nxt[s] = nxt.get(s, 0) + p * w
        law = nxt
    return law


def f2_entropy(t: int) -> float:
    """H(mu^t) for the simple walk on F2, using uniformity on spheres."""
    return -sum(float(p) * math.log(float(p) / f2_sphere_size(r))
                for r, p in f2_length_law(t).items())


def z_entropy(steps: Sequence[int], t: int) -> float:
    total = len(steps) ** t
    return -sum(c / total * math.log(c / total) for c in z_laws(steps, t)[t].values())


def cv_constant(points: Iterable[Tuple[int, int, float]]) -> float:
    """Smallest C with p <= C exp(-d^2 / (C t)) at every (t, d, p): C = a / W(a / p)."""
    from scipy.special import lambertw

    best = 0.0
    for t, d, p in points:
        a = d * d / t
        c = p if a == 0 else a / float(lambertw(a / p).real)
        best = max(best, c)
    return best


def poincare(k: int) -> float:
    return 1.0 / (2.0 - 2.0 * math.cos(2.0 * math.pi / k))


def sector_sup(steps: Dict[int, float], grid: int = 200_001) -> float:
    """Sector constant of a translation-invariant walk on Z from its symbol.

    sup over theta of |1 - phi(theta)| / Re(1 - phi(theta)) on a fine grid,
    with phi the step characteristic function.
    """
    import numpy as np

    theta = np.linspace(1e-4, np.pi, grid)
    phi = sum(w * np.exp(1j * s * theta) for s, w in steps.items())
    sym = 1.0 - phi
    return float(np.max(np.abs(sym) / sym.real))


# -- Monte Carlo replay ---------------------------------------------------------


def replay_indices(k: int, t: int, n_paths: int, seed: int) -> List[List[int]]:
    """The documented per-path streams: MT19937 seeded by SHA-256("seed:i"), then randrange(k)."""
    out = []
    for i in range(n_paths):
        digest = hashlib.sha256(f"{seed}:{i}".encode()).digest()
        rng = random.Random(int.from_bytes(digest, "big"))
        out.append([rng.randrange(k) for _ in range(t)])
    return out


def replay_endpoints(group, gens: Sequence, t: int, n_paths: int, seed: int,
                     midpoint: bool = False) -> List:
    """Endpoints (and the points after t // 2 steps) of the replayed paths."""
    out = []
    for idx in replay_indices(len(gens), t, n_paths, seed):
        end = group.fold(gens, idx)
        out.append((group.fold(gens, idx[:t // 2]), end) if midpoint else end)
    return out


# -- cycles, coverage, Green kernels --------------------------------------------


def coverage(cycles: Iterable[Tuple[Sequence, Fraction]]) -> Dict[tuple, Fraction]:
    cov: Dict[tuple, Fraction] = {}
    for vertices, w in cycles:
        for e in zip(vertices, vertices[1:]):
            cov[e] = cov.get(e, 0) + w
    return cov


def acyclic(n: int, edges: Iterable[Tuple[int, int]]) -> bool:
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def green_diagonals(vertices: Sequence, q: Callable[[object, object], float],
                    at: Sequence) -> Tuple[Dict, Dict]:
    """Diagonals of (I - Q)^-1 and (I - Q0)^-1 on a killed vertex set, dense solve.

    Q0 = (Q + Q^T) / 2 is the symmetrization for the counting measure.
    """
    import numpy as np

    index = {x: i for i, x in enumerate(vertices)}
    n = len(vertices)
    mat = np.zeros((n, n))
    for x in vertices:
        for y in vertices:
            mat[index[x], index[y]] = q(x, y)
    eye = np.eye(n)
    g = np.linalg.solve(eye - mat, eye)
    g0 = np.linalg.solve(eye - (mat + mat.T) / 2.0, eye)
    return ({x: float(g[index[x], index[x]]) for x in at},
            {x: float(g0[index[x], index[x]]) for x in at})


def bfs(sources: Iterable, neighbors: Callable, radius: int = None) -> Dict[object, int]:
    dist = {s: 0 for s in sources}
    frontier = list(dist)
    while frontier:
        nxt = []
        for u in frontier:
            if radius is not None and dist[u] == radius:
                continue
            for v in neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist
