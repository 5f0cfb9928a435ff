"""Generating sequences, centering conditions, and Cayley-graph machinery.

A generating sequence is an ordered tuple of group elements (repetitions
allowed).  The strong centering condition asks for an n-to-1 reordering
whose product is the identity; the weak one only asks that the generator
sum die under every homomorphism to the reals.  This module searches for
strong witnesses, checks the weak condition through abelianizations, turns
witnesses into translated cycle decompositions over Cayley windows, and
implements the labeled cancellation algorithm on the free-group sequence
that separates the two conditions.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import PreconditionError, StructuralError
from .groups import FiniteCyclic, FreeGroup, Group, IntegerLattice
from .markov_graph import MAX_SUPPORT, MAX_WINDOW, Cycle, CycleDecomposition, Kernel, _window_kernel, bfs, split_edge_walk
from .weights import Weight, vanishes

#: default node budget of ``c1_search``
NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class C1Witness:
    """Reordering certificate: sigma is 1-based, uses each index exactly n times."""

    n: int
    sigma: Tuple[int, ...]

    def validate(self, group: Group, gens: Sequence) -> None:
        k = len(gens)
        if len(self.sigma) != self.n * k:
            raise StructuralError(
                f"witness length {len(self.sigma)} != n*K = {self.n * k}"
            )
        for i in range(1, k + 1):
            uses = sum(1 for j in self.sigma if j == i)
            if uses != self.n:
                raise StructuralError(f"index {i} used {uses} times, expected {self.n}")
        prod = group.product(gens[j - 1] for j in self.sigma)
        if prod != group.identity:
            raise StructuralError(
                f"witness product is {group.format_element(prod)}, not the identity"
            )


@dataclass
class C2Report:
    holds: bool
    free_sums: Tuple[int, ...]
    torsion_sums: Tuple[int, ...] = ()
    moduli: Tuple[int, ...] = ()


@dataclass
class C1SearchResult:
    """Outcome of the reordering search.

    status is "witness", "not_found" (exhaustive up to n_checked), or
    "budget_exhausted".  nodes counts group multiplications performed.
    """

    status: str
    witness: Optional[C1Witness] = None
    n_checked: int = 0
    nodes: int = 0
    method: str = "search"

    @property
    def found(self) -> bool:
        return self.status == "witness"


def c2_check(group: Group, gens: Sequence) -> C2Report:
    """Weak centering: the free abelianized parts of the generators sum to zero.

    Torsion components are reported but ignored; some power of the product
    kills them.
    """
    images = [group.abelianization(group.validate(g)) for g in gens]
    if not images:
        raise PreconditionError("empty generating sequence")
    dim = len(images[0].free)
    free = tuple(sum(im.free[i] for im in images) for i in range(dim))
    moduli = images[0].moduli
    torsion = tuple(
        sum(im.torsion[i] for im in images) % moduli[i] for i in range(len(moduli))
    )
    return C2Report(holds=all(v == 0 for v in free), free_sums=free,
                    torsion_sums=torsion, moduli=moduli)


def abelian_c1(group: Group, gens: Sequence) -> Optional[C1Witness]:
    """Closed-form witness for abelian groups.

    On Z^d a witness exists iff the generators sum to zero (n = 1, any
    order).  On Z_p the ordered product always has finite order p' and the
    blocked p'-to-1 map g_1^p' ... g_K^p' is a witness.  ``c2_check``
    validates the generators, as in ``c1_search``.
    """
    k = len(gens)
    report = c2_check(group, gens)
    if isinstance(group, IntegerLattice):
        if not report.holds:
            return None
        return C1Witness(n=1, sigma=tuple(range(1, k + 1)))
    if isinstance(group, FiniteCyclic):
        s = group.product(gens)
        n = group.order(s)
        sigma = tuple(1 + (i - 1) // n for i in range(1, n * k + 1))
        w = C1Witness(n=n, sigma=sigma)
        w.validate(group, gens)
        return w
    raise PreconditionError(f"abelian_c1 needs an abelian built-in group, got {group.name}")


def c1_search(
    group: Group,
    gens: Sequence,
    n_max: int,
    node_budget: int = NODE_BUDGET,
) -> C1SearchResult:
    """Depth-first search for an n-to-1 reordering with identity product.

    Iterates n = 1..n_max; states are (partial product, remaining counts)
    and failed states are memoized, so "not_found" is exhaustive for every
    n it reports.  Sequences whose abelianized free parts do not sum to
    zero are refuted outright for all n; values of n whose torsion sum
    cannot vanish are skipped, also exactly.

    Failed states are grouped by their remaining counts, coded as one int
    in the radix n_max + 1; the radix is the same for every n, so a state
    that failed at n still matches at n + 1.  Each group is the set of its
    products, stored by ``group.key`` when the group has one.

    When the group registers a ``Group.norm`` N, each state also carries its
    room, the sum of N(g_i) over the letters still to be placed.  A child
    x g_i is dead when N(x g_i) exceeds the room left after g_i: the rest of
    the word must multiply to (x g_i)^-1, which has the same norm, and by
    subadditivity its product has norm at most that room.  So no pruned
    child leads to a witness, the visit order is unchanged, and the first
    witness met is the one the memo alone would find.  The norm is tested
    before the memo, so a dead child needs no ``key``.  ``nodes`` counts every
    child made, whether the norm, the memo or neither rejects it.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    if node_budget < 1:
        raise PreconditionError(f"node_budget must be >= 1, got {node_budget}")
    gens = tuple(group.validate(g) for g in gens)
    k = len(gens)
    report = c2_check(group, gens)
    if not report.holds:
        return C1SearchResult(status="not_found", n_checked=n_max, method="abelianization")

    identity, multiply, key, norm = group.identity, group.multiply, group.key, group.norm
    place = [(n_max + 1) ** i for i in range(k)]
    sizes = [0] * k if norm is None else [norm(g) for g in gens]
    failed: Dict[int, set] = {}
    nodes = 0
    for n in range(1, n_max + 1):
        if any((n * t) % mod for t, mod in zip(report.torsion_sums, report.moduli)):
            continue
        # depth-first state on parallel lists: path holds the 0-based choices,
        # prods and codes the partial product and remaining-counts code of
        # each state on it; counts and room are the current state's counts
        # and norm room, in place
        counts = [n] * k
        room = n * sum(sizes)
        path: List[int] = []
        prods = [identity]
        codes = [n * sum(place)]
        i = 0
        while True:
            prod, code = prods[-1], codes[-1]
            while i < k:
                if counts[i]:
                    nodes += 1
                    if nodes > node_budget:
                        return C1SearchResult(status="budget_exhausted", n_checked=n - 1, nodes=nodes)
                    child = multiply(prod, gens[i])
                    if norm is None or norm(child) <= room - sizes[i]:
                        nxt = code - place[i]
                        dead = failed.get(nxt)
                        if dead is None or (child if key is None else key(child)) not in dead:
                            break
                i += 1
            if i < k:
                path.append(i)
                if not nxt and child == identity:
                    witness = C1Witness(n=n, sigma=tuple(j + 1 for j in path))
                    witness.validate(group, gens)
                    return C1SearchResult(status="witness", witness=witness,
                                          n_checked=n, nodes=nodes)
                counts[i] -= 1
                room -= sizes[i]
                prods.append(child)
                codes.append(nxt)
                i = 0
                continue
            # every continuation of this state failed
            if not path:
                break
            prods.pop()
            failed.setdefault(codes.pop(), set()).add(prod if key is None else key(prod))
            i = path.pop()
            counts[i] += 1
            room += sizes[i]
            i += 1
    return C1SearchResult(status="not_found", n_checked=n_max, nodes=nodes)


def brute_force_c1(group: Group, gens: Sequence, n: int) -> Optional[C1Witness]:
    """Independent oracle: try every distinct arrangement of the n-fold multiset."""
    k = len(gens)
    base = tuple(itertools.chain.from_iterable([i + 1] * n for i in range(k)))
    seen = set()
    for perm in itertools.permutations(base):
        if perm in seen:
            continue
        seen.add(perm)
        if group.product(gens[j - 1] for j in perm) == group.identity:
            return C1Witness(n=n, sigma=perm)
    return None


# -- word metric and Cayley windows -----------------------------------------


def _directions(group: Group, gens: Sequence) -> List:
    dirs = {group.validate(g) for g in gens}
    dirs |= {group.inverse(g) for g in gens}
    return sorted(dirs)


def word_ball(group: Group, gens: Sequence, radius: int,
              max_support: int = MAX_SUPPORT) -> Dict[object, int]:
    """BFS distances from the identity over gens and their inverses, at most ``max_support`` of them.

    Each layer is expanded by ``group.translates``, one batch per direction,
    and zipped back vertex by vertex, so the ball and its order are those of
    a per-vertex search over ``multiply``.
    """
    dirs = _directions(group, gens)

    def expand(layer):
        return zip(*[group.translates(layer, g) for g in dirs])

    return bfs([group.identity], expand, radius, max_support=max_support)[0]


def _code_expand(group: Group, dirs: Sequence) -> Callable:
    """The ``bfs`` expand of ``word_ball`` over the int codes of a group that sets the ``code`` hooks.

    A layer's codes go into one numpy array, int64 when every code fits and
    object otherwise, and take one ``group.translate_codes`` pass per
    direction; the lists are zipped back vertex by vertex, so the search
    meets the codes of the words ``word_ball`` meets, in the same order.
    """
    import numpy as np

    def expand(layer):
        try:
            codes = np.fromiter(layer, np.int64, len(layer))
        except OverflowError:
            codes = np.array(layer, dtype=object)
        return zip(*[group.translate_codes(codes, g).tolist() for g in dirs])

    return expand


def word_distance(group: Group, gens: Sequence, x, radius: int) -> Optional[int]:
    """Word length of x over gens and inverses (the group's closed form, else ``bfs``); None beyond radius.

    The search runs over int codes when the group sets the ``code`` hooks.
    """
    if radius < 0:
        raise PreconditionError("radius must be >= 0")
    x = group.validate(x)
    dirs = _directions(group, gens)
    exact = group.exact_metric(tuple(dirs))
    if exact is not None:
        return exact(x) if exact(x) <= radius else None
    if group.code is not None:
        target = group.code(x)
        dist, _ = bfs([group.code(group.identity)], _code_expand(group, dirs), radius, target=target)
        return dist.get(target)
    neighbors = partial(map, lambda y: (group.multiply(y, g) for g in dirs))
    dist, _ = bfs([group.identity], neighbors, radius, target=x)
    return dist.get(x)


def cayley_kernel(group: Group, gens: Sequence, radius: int) -> Kernel:
    """Uniform-step walk kernel materialized on the word-metric ball of at most ``MAX_WINDOW`` vertices."""
    gens = [group.validate(g) for g in gens]
    steps = {g: Fraction(c, len(gens)) for g, c in Counter(gens).items()}
    return _window_kernel(group.identity, group.translates, group.inverse, steps, radius=radius, max_support=MAX_WINDOW)


def finite_group_kernel(group: Group, mu: Mapping) -> Kernel:
    """Kernel q(x, y) = mu(x^-1 y) on a finite group."""
    return _window_kernel(group.identity, group.translates, group.inverse, mu, window=group.elements())


def translated_cycle_decomposition(
    group: Group,
    gens: Sequence,
    witness: C1Witness,
    ball_radius: int,
) -> CycleDecomposition:
    """Translate the witness cycle over the Cayley window.

    The base closed walk visits the partial products of the witness
    ordering; its translates by every window element are split into edge
    self-avoiding cycles, each weighted 1/(nK).  Translates that leave the
    window (at most ``MAX_WINDOW`` elements) are dropped: they sit on the boundary.
    """
    gens = tuple(group.validate(g) for g in gens)
    witness.validate(group, gens)
    k = len(gens)
    partial = [group.identity]
    for j in witness.sigma:
        partial.append(group.multiply(partial[-1], gens[j - 1]))
    ball = word_ball(group, gens, ball_radius, MAX_WINDOW)
    weight = Fraction(1, witness.n * k)
    entries: List[Tuple[Cycle, Weight]] = []
    for x in sorted(ball):
        walk = [group.multiply(x, t) for t in partial]
        if any(v not in ball for v in walk):
            continue
        for piece in split_edge_walk(walk):
            entries.append((Cycle(piece), weight))
    return CycleDecomposition(tuple(entries))


def torsion_decomposition(group: Group, mu: Mapping) -> CycleDecomposition:
    """Orbit cycles (x, x.g, ..., x.g^order(g)) with weight mu(g)/order(g).

    Defined on finite groups (every element has finite order); covers the
    kernel q(x, y) = mu(x^-1 y) exactly.
    """
    elements = group.elements()
    entries: List[Tuple[Cycle, Weight]] = []
    support = sorted(g for g, w in mu.items() if w != 0)
    total = sum((mu[g] for g in support), Fraction(0))
    if not vanishes(total - 1):
        raise PreconditionError(f"mu must be a probability measure, mass {total}")
    orders = {}
    for g in support:
        p = group.order(g)
        if p is None:
            raise PreconditionError(
                f"element {group.format_element(g)} has infinite order"
            )
        orders[g] = p
    for x in sorted(elements):
        for g in support:
            p = orders[g]
            orbit = [x]
            for _ in range(p):
                orbit.append(group.multiply(orbit[-1], g))
            entries.append((Cycle(tuple(orbit)), mu[g] / Fraction(p)))
    return CycleDecomposition(tuple(entries))


# -- the free-group cancellation algorithm -----------------------------------

F2 = FreeGroup()

#: the six-element free-group sequence whose weak centering does not upgrade:
#: (a, a^-1, b, b^-1, b^-2, ababa^-2)
F2_SEQUENCE: Tuple[Tuple[int, ...], ...] = (
    (1,),
    (-1,),
    (2,),
    (-2,),
    (-2, -2),
    (1, 2, 1, 2, -1, -1),
)


@dataclass
class CancellationGraph:
    """Pairing graph on the occurrences of the long generator.

    Nodes are the occurrence labels 1..n of the sixth generator; an edge
    joins i and j whenever an 'a'-letter of occurrence i cancels against an
    'a'-letter of occurrence j during the left-to-right reduction scan.
    """

    n: int
    edges: Tuple[Tuple[int, int], ...]
    reduced_word: Tuple[int, ...]

    def has_double_edge(self) -> bool:
        return len(set(self.edges)) != len(self.edges)

    def has_self_loop(self) -> bool:
        return any(i == j for i, j in self.edges)

    def is_acyclic(self) -> bool:
        parent = {i: i for i in range(1, self.n + 1)}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for i, j in self.edges:
            ri, rj = find(i), find(j)
            if ri == rj:
                return False
            parent[ri] = rj
        return True


def f2_reduce(arrangement: Sequence[int]) -> CancellationGraph:
    """Run the labeled left-to-right cancellation scan on an arrangement.

    ``arrangement`` lists generator indices 1..6, each appearing the same
    number n of times.  Letters coming from the i-th occurrence of the
    sixth generator carry label i.  The scan reads left to right, deletes
    adjacent inverse pairs as it finds them, and restarts at the end of the
    word until a full pass makes no deletion.
    """
    counts = [0] * 7
    for idx in arrangement:
        if not isinstance(idx, int) or not 1 <= idx <= 6:
            raise StructuralError(f"generator index out of range: {idx!r}")
        counts[idx] += 1
    n = counts[1]
    if n == 0 or any(c != n for c in counts[1:]):
        raise StructuralError(
            f"arrangement must use each of the six generators equally, got counts {counts[1:]}"
        )

    word: List[Tuple[int, Optional[int]]] = []
    label = 0
    for idx in arrangement:
        if idx == 6:
            label += 1
            word.extend((letter, label) for letter in F2_SEQUENCE[5])
        else:
            word.extend((letter, None) for letter in F2_SEQUENCE[idx - 1])

    edges: List[Tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(word):
            (l1, lab1), (l2, lab2) = word[i], word[i + 1]
            if l1 == -l2:
                if abs(l1) == 1 and lab1 is not None and lab2 is not None:
                    edges.append((min(lab1, lab2), max(lab1, lab2)))
                del word[i:i + 2]
                changed = True
            else:
                i += 1

    reduced = tuple(letter for letter, _ in word)
    F2.validate(reduced)
    return CancellationGraph(n=n, edges=tuple(edges), reduced_word=reduced)
