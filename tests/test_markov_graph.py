"""Kernels, cycles, centering verification and the graph metrics."""

import collections
import functools
import gc
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest

import centerwalk as cw
from centerwalk import markov_graph as mg
from centerwalk.markov_graph import lost_mass, split_edge_walk

from conftest import make_zwalk, make_zwalk_dec


def test_kernel_rejects_bad_rows():
    with pytest.raises(cw.StructuralError):
        cw.Kernel({0: {1: Fraction(1, 2)}})
    with pytest.raises(cw.StructuralError):
        cw.Kernel({0: {1: Fraction(3, 2), 2: Fraction(-1, 2)}})
    cw.Kernel({0: {1: Fraction(1, 2)}}, substochastic=True)


EPS = Fraction(1, 10**13)
HALF = Fraction(1, 2)
# parts that should sum to 1: exactly, exactly off by 1e-13, and off by float rounding
# (left to right, 0.7 + 0.2 + 0.1 is 1 - 2**-53 and 0.2 + 0.4 + 0.3 + 0.1 is 1 + 2**-52)
ONE, LOW, HIGH = (HALF, HALF), (HALF, HALF - EPS), (HALF, HALF + EPS)
FLOAT_LOW, FLOAT_HIGH = (0.7, 0.2, 0.1), (0.2, 0.4, 0.3, 0.1)


def _total(parts):
    return functools.reduce(operator.add, parts)


def _rotation_parts(parts):
    return cw.CycleDecomposition(tuple((cw.Cycle((0, 1, 2, 0)), p) for p in parts))


#: every identity check: (site, parts -> accepted?, exact parts it must reject, float parts it must accept)
IDENTITY_CHECKS = [
    ("Kernel row sum", lambda ps: cw.Kernel({0: dict(enumerate(ps))}), LOW, FLOAT_LOW),
    ("Kernel substochastic bound",
     lambda ps: cw.Kernel({0: dict(enumerate(ps))}, substochastic=True), HIGH, FLOAT_HIGH),
    ("verify_centering",
     lambda ps: cw.verify_centering(cw.rotation_kernel(3), cw.Measure(), _rotation_parts(ps)).valid,
     LOW, FLOAT_LOW),
    ("reversible_decomposition",
     lambda ps: cw.reversible_decomposition(cw.Kernel({0: {1: 1}, 1: {0: 1}}), cw.Measure({1: _total(ps)})),
     LOW, FLOAT_LOW),
    ("circulation_to_cycles", lambda ps: cw.circulation_to_cycles({(0, 1): 1, (1, 0): _total(ps)}, max_len=2),
     LOW, FLOAT_LOW),
    ("time_reversal",
     lambda ps: not cw.time_reversal(cw.rotation_kernel(3), cw.Measure({0: _total(ps)})).substochastic,
     LOW, FLOAT_LOW),
    ("lost_mass", lambda ps: not lost_mass(cw.rotation_kernel(3), {0: dict(enumerate(ps))}), LOW, FLOAT_LOW),
    ("torsion_decomposition", lambda ps: cw.torsion_decomposition(cw.FiniteCyclic(3), dict(enumerate(ps))),
     LOW, FLOAT_LOW),
]


def test_identity_checks_have_zero_slack_on_exact_values():
    def accepts(check, parts):
        try:
            return check(parts) is not False
        except (cw.StructuralError, cw.PreconditionError):
            return False

    for site, check, exact_off, float_off in IDENTITY_CHECKS:
        assert accepts(check, ONE), site
        assert not accepts(check, exact_off), site
        assert accepts(check, float_off), site


def test_float_view_mirrors_rows():
    # a window edge leaving the ring, a self-loop and a substochastic row
    kernel = cw.Kernel({0: {0: Fraction(1, 3), 1: Fraction(2, 3)},
                        1: {2: Fraction(1, 7), 0: Fraction(5, 7)},
                        2: {9: Fraction(1, 2)}}, substochastic=True)
    view = kernel.float_view
    assert kernel.float_view is view
    for x in kernel.window:
        assert list(view.rows[x].items()) == [(y, float(w)) for y, w in kernel.row(x).items()]
        assert list(view.in_rows[x].items()) == [(y, float(w)) for y, w in kernel.in_row(x).items()]
        assert all(type(w) is float for w in view.rows[x].values())


def test_kernel_order_does_not_depend_on_insertion_order():
    names = [f"v{i}" for i in range(7)]
    rows = {names[i]: {names[(i + 1) % 7]: Fraction(2, 3), names[(i - 2) % 7]: Fraction(1, 3)}
            for i in range(7)}
    a = cw.Kernel(rows)
    b = cw.Kernel({names[i]: rows[names[i]] for i in (3, 6, 0, 5, 1, 4, 2)})
    assert list(a.window) == list(b.window) == names
    assert list(a.edges()) == list(b.edges())
    for y in names:
        assert list(a.in_row(y)) == list(b.in_row(y))
        assert list(a.float_view.in_rows[y].items()) == list(b.float_view.in_rows[y].items())
    assert a.float_view == b.float_view


def test_measure_positive():
    with pytest.raises(cw.StructuralError):
        cw.Measure({0: 0})
    m = cw.Measure({0: Fraction(2)})
    assert m(0) == 2 and m(99) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0, 0.0, Fraction(0), -1, Fraction(-1, 2), -0.5])
def test_measure_default_is_positive_and_finite(bad):
    with pytest.raises(cw.StructuralError, match="default"):
        cw.Measure(default=bad)
    with pytest.raises(cw.StructuralError, match="default"):
        cw.Measure({0: Fraction(2)}, default=bad)


def test_measure_default_none_or_positive():
    assert cw.Measure(default=2)(5) == 2 and cw.Measure(default=0.5)(5) == 0.5
    partial = cw.Measure({0: Fraction(3)}, default=None)
    assert partial(0) == 3
    with pytest.raises(cw.PreconditionError):
        partial(1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_measure_and_cycle_weights_are_finite(bad):
    with pytest.raises(cw.StructuralError):
        cw.Measure({0: bad})
    with pytest.raises(cw.StructuralError):
        cw.CycleDecomposition(((cw.Cycle((0, 1, 0)), bad),))
    with pytest.raises(ValueError):
        cw.weights.parse_weight(bad)


def test_rotation_single_cycle_valid(rotation3, rotation3_dec, counting):
    report = cw.verify_centering(rotation3, counting, rotation3_dec)
    assert report.valid
    assert report.max_abs_residual == 0
    assert all(r == 0 for r in report.residuals.values())


def test_rotation_underweighted_cycle_invalid(rotation3, counting):
    dec = cw.CycleDecomposition(((cw.Cycle((0, 1, 2, 0)), Fraction(1, 2)),))
    report = cw.verify_centering(rotation3, counting, dec)
    assert not report.valid
    assert all(r == Fraction(1, 2) for r in report.residuals.values())


def test_zwalk_translated_cycles_valid(counting):
    kernel = make_zwalk(50)
    dec = make_zwalk_dec(kernel)
    report = cw.verify_centering(kernel, counting, dec)
    assert report.valid and report.max_abs_residual == 0
    # forward edges are covered twice at 1/3, the long back edge once
    cov = dec.coverage()
    assert cov[(0, 1)] == Fraction(2, 3)
    assert cov[(2, 0)] == Fraction(1, 3)


def test_covered_zero_weight_edge_is_violation(rotation3, counting):
    dec = cw.CycleDecomposition((
        (cw.Cycle((0, 1, 2, 0)), Fraction(1)),
        (cw.Cycle((0, 2, 0)), Fraction(1, 8)),  # q(0,2) = 0
    ))
    report = cw.verify_centering(rotation3, counting, dec)
    assert (0, 2) in report.zero_weight_covered
    assert not report.valid


def test_cycle_edge_outside_window_is_structural(counting):
    kernel = make_zwalk(5)
    far = max(kernel.window) + 5
    dec = cw.CycleDecomposition(((cw.Cycle((far, far + 1, far + 2, far)), Fraction(1)),))
    with pytest.raises(cw.StructuralError):
        cw.verify_centering(kernel, counting, dec)


def test_nonpositive_cycle_weight_rejected():
    with pytest.raises(cw.StructuralError):
        cw.CycleDecomposition(((cw.Cycle((0, 1, 0)), Fraction(0)),))


def test_unweighted_graph_outdegree_measure():
    # uniform-edge walk on the complete directed triangle: q = 1/out-degree,
    # m = out-degree, and the two directed triangles cover every edge once
    vertices = (0, 1, 2)
    rows = {
        x: {y: Fraction(1, 2) for y in vertices if y != x} for x in vertices
    }
    kernel = cw.Kernel(rows)
    m = cw.Measure({x: Fraction(2) for x in vertices})
    dec = cw.CycleDecomposition((
        (cw.Cycle((0, 1, 2, 0)), Fraction(1)),
        (cw.Cycle((0, 2, 1, 0)), Fraction(1)),
    ))
    report = cw.verify_centering(kernel, m, dec)
    assert report.valid and report.max_abs_residual == 0
    assert cw.invariance_check(kernel, m).max_abs_residual == 0


def test_reversible_decomposition_srw(srw, counting):
    dec = cw.reversible_decomposition(srw, counting)
    weights = {c.vertices: w for c, w in dec}
    assert weights[(0, 1, 0)] == Fraction(1, 2)
    assert all(c.length <= 2 for c, _ in dec)
    assert cw.verify_centering(srw, counting, dec).valid


def test_reversible_decomposition_lazy_loop(counting):
    lazy = cw.Kernel({"v": {"v": Fraction(1)}})
    dec = cw.reversible_decomposition(lazy, counting)
    assert [(c.vertices, w) for c, w in dec] == [(("v", "v"), Fraction(1))]
    assert cw.verify_centering(lazy, counting, dec).valid


def test_reversible_decomposition_rejects_drift(zwalk, counting):
    with pytest.raises(cw.PreconditionError):
        cw.reversible_decomposition(zwalk, counting)


def test_circulation_triangle():
    flow = {(0, 1): Fraction(1), (1, 2): Fraction(1), (2, 0): Fraction(1)}
    dec = cw.circulation_to_cycles(flow, max_len=3)
    assert len(dec) == 1 and not dec.exceeds_max_len
    assert dec.coverage() == flow


def test_circulation_two_triangles_shared_vertex():
    flow = {
        (0, 1): Fraction(1), (1, 2): Fraction(1), (2, 0): Fraction(1),
        (0, 3): Fraction(2), (3, 4): Fraction(2), (4, 0): Fraction(2),
    }
    dec = cw.circulation_to_cycles(flow, max_len=3)
    assert sorted(w for _, w in dec) == [Fraction(1), Fraction(2)]
    assert dec.coverage() == flow


def test_circulation_self_loop_and_cap():
    dec = cw.circulation_to_cycles({(7, 7): Fraction(3)}, max_len=1)
    assert [(c.vertices, w) for c, w in dec] == [((7, 7), Fraction(3))]
    square = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1}
    square = {e: Fraction(w) for e, w in square.items()}
    dec = cw.circulation_to_cycles(square, max_len=3)
    assert dec.exceeds_max_len and dec.coverage() == square


def _max_scan_peel(flow):
    """The peel with a full scan for the heaviest edge, largest edge on ties: (cycle, weight) pairs."""
    residual = dict(flow)
    out = []
    while residual:
        src, dst = max(residual, key=lambda e: (residual[e], e))
        support = lambda u: sorted(y for x, y in residual if x == u)
        vertices = (src, src) if src == dst else (src,) + tuple(mg._bfs_path(support, dst, src))
        cycle = cw.Cycle(vertices)
        qmin = min(residual[e] for e in cycle.edges())
        for e in cycle.edges():
            residual[e] -= qmin
            if cw.weights.vanishes(residual[e]):
                del residual[e]
        out.append((cycle.vertices, qmin))
    return out


@pytest.mark.parametrize("kind", ["fraction", "int", "float"])
def test_circulation_peel_order_matches_max_scan(kind):
    # few distinct weights, so many edges tie and the largest-edge rule decides
    make = {"fraction": lambda k: Fraction(k, 4), "int": int, "float": lambda k: k / 4}[kind]
    rng = random.Random(f"peel/{kind}")
    ties = 0
    for _ in range(40):
        flow = {}
        for _ in range(rng.randint(1, 12)):
            vs = rng.sample(range(8), rng.randint(1, 5))
            w = make(rng.randint(1, 3))
            for e in zip(vs, vs[1:] + vs[:1]):
                flow[e] = flow.get(e, 0) + w
        want = _max_scan_peel(flow)
        got = [(c.vertices, w) for c, w in cw.circulation_to_cycles(flow, max_len=8)]
        assert got == want
        assert [type(w) for _, w in got] == [type(w) for _, w in want]
        ties += len(set(flow.values())) < len(flow)
    assert ties > 30


def test_circulation_rejects_divergence():
    with pytest.raises(cw.PreconditionError, match="divergence"):
        cw.circulation_to_cycles({(0, 1): Fraction(1)}, max_len=2)


def test_circulation_roundtrip_from_walk(counting):
    kernel = make_zwalk(15)
    dec = make_zwalk_dec(kernel)
    flow = dec.coverage()
    again = cw.circulation_to_cycles(flow, max_len=3)
    assert not again.exceeds_max_len
    assert again.coverage() == flow
    report = cw.verify_centering(kernel, counting, again)
    assert report.valid and report.max_abs_residual == 0


def test_invariance_counting_zwalk(zwalk, counting):
    rep = cw.invariance_check(zwalk, counting)
    assert rep.max_abs_residual == 0
    assert rep.boundary_skipped  # the outermost shell cannot be checked


def test_invariance_detects_noninvariant_measure(srw):
    m = cw.Measure({x: Fraction(2) ** x for x in srw.window})
    rep = cw.invariance_check(srw, m)
    assert rep.max_abs_residual > 0


def test_valid_decomposition_implies_invariance(rotation3, rotation3_dec, counting):
    assert cw.verify_centering(rotation3, counting, rotation3_dec).valid
    rep = cw.invariance_check(rotation3, counting)
    assert rep.max_abs_residual == 0


def test_frontier_depth_of_loaded_kernel():
    # path 0 -> 1 -> ... -> 5 -> 6 with 6 outside the window, plus a closed
    # 2-cycle {7, 8} that no path connects to the frontier
    rows = {x: {x + 1: Fraction(1)} for x in range(6)}
    rows[7] = {8: Fraction(1)}
    rows[8] = {7: Fraction(1)}
    kernel = cw.Kernel(rows)
    assert [kernel.depth(x) for x in range(6)] == [6, 5, 4, 3, 2, 1]
    assert kernel.depth(7) == kernel.depth(8) == math.inf


def test_every_traversal_stops_at_its_budget(monkeypatch):
    # a budget binds as a default when its function is defined, so each case
    # patches what the callee reads at call time
    srw = {1: Fraction(1, 2), -1: Fraction(1, 2)}
    path = cw.Kernel({x: {x + 1: Fraction(1)} for x in range(30)})
    monkeypatch.setattr(mg, "MAX_WINDOW", 20)
    with pytest.raises(cw.SupportOverflowError, match="radius 10 passed 20 vertices at distance 10"):
        cw.step_kernel(srw, radius=10)
    assert len(cw.step_kernel(srw, radius=9).window) == 19
    # an explicit window is searched within MAX_SUPPORT, not MAX_WINDOW
    assert len(cw.step_kernel(srw, window=range(-10, 11)).window) == 21
    monkeypatch.setitem(mg.bfs.__kwdefaults__, "max_support", 10)
    for search in (lambda: cw.Kernel({x: {x + 1: Fraction(1)} for x in range(30)}),
                   lambda: cw.graph_distance(path, 0, 29, radius=40),
                   lambda: cw.directed_detour(path, cw.CycleDecomposition(()), 0, 29, radius=40),
                   lambda: mg.bfs([0], functools.partial(map, path.undirected_neighbors))):
        with pytest.raises(cw.SupportOverflowError, match="passed 10 vertices"):
            search()
    assert cw.graph_distance(path, 0, 9, radius=40) == 9


def test_bfs_paths_are_shortest_directed_paths():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 12)
        out = {u: {v for v in range(n) if rng.random() < 0.2} for u in range(n)}
        # reference distances: layer by layer over the directed edges
        dist = {}
        for x in range(n):
            layer, seen, d = {x}, {x}, 0
            while layer:
                dist.update({(x, y): d for y in layer})
                layer = {v for u in layer for v in out[u]} - seen
                seen |= layer
                d += 1
        for x in range(n):
            for y in range(n):
                path = mg._bfs_path(lambda u: sorted(out[u]), x, y)
                if (x, y) not in dist:
                    assert path is None
                    continue
                assert (path[0], path[-1], len(path) - 1) == (x, y, dist[x, y])
                assert all(v in out[u] for u, v in zip(path, path[1:]))
                if x != y:
                    assert mg._bfs_path(lambda u: sorted(out[u]), x, y, radius=dist[x, y] - 1) is None
    # parents are kept only for a search with a target
    line = functools.partial(map, lambda x: [x - 1, x + 1])
    assert mg.bfs([0], line, radius=3)[1] == {}
    dist, parent = mg.bfs([0], line, target=-2)
    assert dist == {0: 0, -1: 1, 1: 1, -2: 2} and parent == {0: 0, -1: 0, 1: 0, -2: -1}


def fifo_bfs(sources, neighbors, radius=None, target=None, max_support=mg.MAX_SUPPORT):
    """Reference: the vertex-by-vertex FIFO search that ``bfs`` must reproduce, order and errors included."""
    dist = dict.fromkeys(sources, 0)
    track = target is not None
    parent = {x: x for x in dist} if track else {}
    if track and target in dist:
        return dist, parent
    queue = collections.deque((x, 0) for x in dist)
    while queue:
        x, d = queue.popleft()
        if d == radius:
            continue
        d += 1
        for y in neighbors(x):
            if y not in dist:
                if len(dist) >= max_support:
                    within = "" if radius is None else f" to radius {radius}"
                    raise cw.SupportOverflowError(f"search{within} passed {max_support} vertices at distance {d}")
                dist[y] = d
                if track:
                    parent[y] = x
                    if y == target:
                        return dist, parent
                queue.append((y, d))
    return dist, parent


@pytest.mark.parametrize("batch", [1, 3, mg._EXPAND_BATCH])
def test_layered_bfs_matches_a_fifo_search(batch, monkeypatch):
    # every layer is expanded ``_EXPAND_BATCH`` vertices at a time: small values split it
    monkeypatch.setattr(mg, "_EXPAND_BATCH", batch)
    rng = random.Random(11)
    overflows = stops = 0
    for _ in range(600):
        n = rng.randrange(1, 40)
        # neighbor lists with repeats and self-loops, in a fixed order per vertex
        out = {u: [rng.randrange(n) for _ in range(rng.randrange(5))] for u in range(n)}
        sources = [rng.randrange(n) for _ in range(rng.randrange(1, 4))]
        radius = rng.choice([None, 0, 1, 2, 3, 5])
        budget = rng.choice([mg.MAX_SUPPORT, n, rng.randrange(1, n + 2)])
        target = rng.choice([None, None, rng.randrange(n), n])
        calls = {"fifo": 0, "layered": 0}

        def neighbors(who):
            def fn(u):
                calls[who] += 1
                return iter(out[u])
            return fn

        expands = [functools.partial(map, neighbors("layered"))]
        if target is None:
            # a layer-wide expand: neighbor lists of the whole layer at once
            expands.append(lambda layer: [out[u] for u in layer])
        try:
            expected = fifo_bfs(sources, neighbors("fifo"), radius, target, budget)
        except cw.SupportOverflowError as exc:
            overflows += 1
            for expand in expands:
                with pytest.raises(cw.SupportOverflowError) as info:
                    mg.bfs(sources, expand, radius, target, max_support=budget)
                assert str(info.value) == str(exc)
            continue
        for expand in expands:
            dist, parent = mg.bfs(sources, expand, radius, target, max_support=budget)
            assert list(dist.items()) == list(expected[0].items())
            assert list(parent.items()) == list(expected[1].items())
        if target is not None:
            # the same stopping point: both searches expanded the same vertices
            assert calls["layered"] == calls["fifo"]
            stops += target in dist
    assert overflows > 50 and stops > 50


def test_target_search_expands_a_batch_at_a_time(monkeypatch):
    # a star: the source's 10 leaves make one wide layer, and the target hangs off the last leaf
    monkeypatch.setattr(mg, "_EXPAND_BATCH", 3)
    out = {0: list(range(1, 11)), 10: [11]}
    seen = []

    def expand(layer):
        seen.append(list(layer))
        return [out.get(x, []) for x in layer]

    dist, parent = mg.bfs([0], expand, target=11)
    assert dist[11] == 2 and parent[11] == 10
    assert seen == [[0], [1, 2, 3], [4, 5, 6], [7, 8, 9], [10]]


def test_negative_radius_is_rejected_by_bfs():
    srw = {1: Fraction(1, 2), -1: Fraction(1, 2)}
    for search in (lambda: mg.bfs([0], functools.partial(map, lambda x: [x - 1, x + 1]), radius=-1),
                   lambda: cw.step_kernel(srw, radius=-1),
                   lambda: cw.graph_distance(cw.step_kernel(srw, radius=3), 0, 1, radius=-1),
                   lambda: cw.word_ball(cw.IntegerLattice(1), [(1,)], -1)):
        with pytest.raises(cw.PreconditionError, match="radius must be >= 0"):
            search()


def test_step_kernel_window_depth_oracle():
    # depth = number of undirected steps needed to leave the window,
    # against a brute-force layer search over all of Z^2
    steps = {(1, 0): Fraction(1, 3), (0, 1): Fraction(1, 3), (-1, -1): Fraction(1, 3)}
    moves = list(steps) + [(-a, -b) for a, b in steps]
    window = {(x, y) for x in range(-4, 5) for y in range(-3, 4) if (x, y) not in {(0, 2), (2, -1)}}
    kernel = cw.step_kernel(steps, window=window)

    def oracle(v):
        layer, seen, d = {v}, {v}, 0
        while layer <= window:
            layer = {(a + s, b + t) for a, b in layer for s, t in moves} - seen
            seen |= layer
            d += 1
        return d

    for v in window:
        assert kernel.depth(v) == oracle(v), v


def test_graph_distance_basics(srw, zwalk):
    assert cw.graph_distance(srw, 0, 5, radius=10) == 5
    assert cw.graph_distance(srw, 3, 3, radius=0) == 0
    assert cw.graph_distance(srw, 0, 20, radius=10) is None
    # brute-force BFS oracle on the undirected step set {+-1, +-2}
    def oracle(x):
        frontier, seen, d = {0}, {0}, 0
        while x not in frontier:
            frontier = {v + s for v in frontier for s in (1, -1, 2, -2)} - seen
            seen |= frontier
            d += 1
        return d

    for target in (-1, -5, 4, 9):
        assert cw.graph_distance(zwalk, 0, target, radius=20) == oracle(target)


def test_directed_detour_bound(zwalk, zwalk_dec):
    c0 = zwalk_dec.max_length
    for target in (-1, -2, 2, -7, 9):
        d = cw.graph_distance(zwalk, 0, target, radius=25)
        path = cw.directed_detour(zwalk, zwalk_dec, 0, target, radius=25)
        assert path[0] == 0 and path[-1] == target
        assert all(zwalk.weight(u, v) > 0 for u, v in zip(path, path[1:]))
        assert len(path) - 1 <= c0 * d


def test_directed_detour_on_rotation(rotation3, rotation3_dec):
    path = cw.directed_detour(rotation3, rotation3_dec, 0, 2, radius=3)
    assert path == [0, 1, 2]


def test_directed_detour_reversible_geodesic(srw, counting):
    dec = cw.reversible_decomposition(srw, counting)
    path = cw.directed_detour(srw, dec, 0, 4, radius=10)
    assert len(path) - 1 == 4


def test_directed_detour_missing_cycle(rotation3):
    # the geodesic 0 -> 2 needs the reversed edge (2, 0); a family that
    # does not cover it signals an invalid decomposition
    loop_only = cw.CycleDecomposition(((cw.Cycle((0, 0)), Fraction(1)),))
    with pytest.raises(cw.StructuralError):
        cw.directed_detour(rotation3, loop_only, 0, 2, radius=3)


def test_time_reversal_rotation(rotation3, rotation3_dec, counting):
    rev = cw.time_reversal(rotation3, counting)
    assert rev.weight(0, 2) == 1 and rev.weight(1, 0) == 1
    back = cw.time_reversal(rev, counting)
    assert all(dict(back.row(x)) == dict(rotation3.row(x)) for x in rotation3.window)
    # reversed cycles witness centering for the reversed kernel
    assert cw.verify_centering(rev, counting, rotation3_dec.reversed()).valid


def test_time_reversal_reversible_is_identity(srw, counting):
    rev = cw.time_reversal(srw, counting)
    for x in srw.window:
        if rev.depth(x) >= 1 and all(y in srw.window for y in srw.row(x)):
            assert dict(rev.row(x)) == dict(srw.row(x))


def test_time_reversal_zwalk(zwalk, zwalk_dec, counting):
    rev = cw.time_reversal(zwalk, counting)
    assert rev.weight(0, -1) == Fraction(2, 3)
    assert rev.weight(0, 2) == Fraction(1, 3)
    assert cw.verify_centering(rev, counting, zwalk_dec.reversed()).valid


def test_time_reversal_requires_invariance(srw):
    m = cw.Measure({x: Fraction(2) ** x for x in srw.window})
    with pytest.raises(cw.PreconditionError):
        cw.time_reversal(srw, m)


def test_split_edge_walk_multiplicity():
    # (0,1,0,1,0) uses the oriented edge (0,1) twice and must split
    pieces = split_edge_walk((0, 1, 0, 1, 0))
    assert sorted(pieces) == [(0, 1, 0), (0, 1, 0)]
    assert split_edge_walk((0, 1, 2, 0)) == [(0, 1, 2, 0)]
    # 1500 repeats of (0,1): deeper than the interpreter's recursion limit
    assert split_edge_walk([0, 1] * 1500 + [0]) == [(0, 1, 0)] * 1500


def test_killed_kernel_depth_infinite(zwalk):
    killed = zwalk.restrict(range(-5, 6))
    assert killed.substochastic
    assert killed.depth(0) == math.inf
    assert killed.weight(5, 6) == 0


def test_with_killing_scales_rows(rotation3):
    killed = rotation3.with_killing(Fraction(1, 10))
    assert killed.weight(0, 1) == Fraction(9, 10)
    assert killed.substochastic


def test_float_sums_are_plain_left_to_right():
    # ten 0.1s add up to 0.9999999999999999 from left to right, while the
    # compensated float sum() of Python 3.12+ gives exactly 1.0; row sums and
    # invariance residuals are plain sums on every interpreter
    plain = functools.reduce(operator.add, [0.1] * 10)
    assert cw.Kernel({0: {i: 0.1 for i in range(10)}}).defect(0) == 1 - plain == 1.1102230246251565e-16
    complete = cw.Kernel({x: {y: 0.1 for y in range(10)} for x in range(10)})
    residuals = cw.invariance_check(complete, cw.Measure.counting()).residuals
    assert residuals[0] == plain - 1 == -1.1102230246251565e-16


def test_collector_pause_nests_and_keeps_a_callers_choice():
    enabled = gc.isenabled()
    try:
        gc.enable()
        with mg._collector_paused():
            assert not gc.isenabled()
            with mg._collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # only the pause that turned it off turns it on
        assert gc.isenabled()
        with pytest.raises(ZeroDivisionError):
            with mg._collector_paused():
                1 / 0
        assert gc.isenabled()
        gc.disable()
        with mg._collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()  # a collector the caller turned off stays off
    finally:
        (gc.enable if enabled else gc.disable)()


# -- the exact kernel checks against plain Fraction arithmetic ----------------
# The oracles below are the checks written with Weight arithmetic, summed left
# to right from Fraction(0).  On exact inputs the library must give the same
# values as Fractions; wherever a float enters, the same bits.

SMALL_DENS = (1, 2, 3, 4, 6, 12)
BIG_PRIMES = (999_999_937, 1_000_000_007, 998_244_353)


def _same(a, b):
    return type(a) is type(b) and a == b


def _same_rows(a, b):
    return list(a) == list(b) and all(list(a[x]) == list(b[x]) and all(map(_same, a[x].values(), b[x].values()))
                                      for x in a)


def _oracle_sum(values):
    s = Fraction(0)
    for v in values:
        s = s + v
    return s


def _oracle_invariance(kernel, m):
    return {y: _oracle_sum(m(x) * w for x, w in kernel.in_row(y).items()) - m(y)
            for y in kernel.window if kernel.depth(y) >= mg.SUPPORT_MARGIN}


def _oracle_centering(kernel, m, dec):
    cov = {}
    for cycle, w in dec:
        for e in cycle.edges():
            cov[e] = cov.get(e, 0) + w
    edges = sorted({(x, y) for x, y, _ in kernel.edges()} | set(cov))
    residuals = {e: m(e[0]) * kernel.weight(*e) - cov.get(e, 0) for e in edges}
    c0 = dec.max_length
    interior = [e for e in edges if kernel.depth(e[0]) >= c0 and e[1] in kernel.window]
    valid = all(cw.weights.vanishes(residuals[e]) and not (kernel.weight(*e) == 0 and e in cov) for e in interior)
    return cov, residuals, valid, max((abs(residuals[e]) for e in interior), default=0)


def _oracle_adjoint(kernel, m):
    return {y: {x: m(x) * w / m(y) for x, w in kernel.in_row(y).items()} for y in kernel.window}


def _oracle_symmetrized(kernel, m):
    rows = {}
    for x in kernel.window:
        row = {}
        for y, w in kernel.row(x).items():
            row[y] = row.get(y, 0) + w / 2
        for y, w in kernel.in_row(x).items():
            row[y] = row.get(y, 0) + (m(y) * w / m(x)) / 2
        rows[x] = row
    return rows


def _oracle_lost_mass(kernel, rows):
    sums = [_oracle_sum(row.values()) for row in rows.values()]
    return kernel.substochastic or any(s < 1 and not cw.weights.vanishes(s - 1) for s in sums)


def _oracle_green_partial(kernel, x, y, horizon):
    dist = {x: Fraction(1)}
    total = dist.get(y, 0)
    for _ in range(horizon):
        out = {}
        for u, p in dist.items():
            if p != 0:
                for v, w in kernel.row(u).items():
                    if v in kernel.window:
                        out[v] = out.get(v, 0) + p * w
        dist = out
        total += dist.get(y, 0)
    return total


def _random_weight(rng, exact):
    if not exact:
        return rng.uniform(0.05, 1.0)
    den = rng.choice(BIG_PRIMES) if rng.random() < 0.2 else rng.choice(SMALL_DENS)
    return Fraction(rng.randint(1, den), den)


def _random_rows(rng, n, exact):
    """Rows on 0..n-1 with a few targets outside the window; exact rows mix small and prime denominators."""
    rows = {}
    for x in range(n):
        targets = rng.sample(range(n + 2), rng.randint(1, 4))
        parts = [_random_weight(rng, exact) for _ in targets]
        total = _oracle_sum(parts)
        rows[x] = {y: w / total for y, w in zip(targets, parts)}
        if exact and rng.random() < 0.3:
            # the last part takes what the others leave, over its own denominator
            first = dict(list(rows[x].items())[:-1])
            rows[x] = {**first, targets[-1]: 1 - _oracle_sum(first.values())}
    return rows


def _random_measure(rng, n, kind):
    if kind == "counting":
        return cw.Measure.counting()
    if kind == "exact":
        return cw.Measure({x: Fraction(rng.randint(1, 9), rng.choice(SMALL_DENS + BIG_PRIMES[:1])) for x in range(n + 2)})
    return cw.Measure({x: rng.uniform(0.5, 2.0) for x in range(n + 2)})


def _random_cycles(rng, n, exact):
    entries = []
    for _ in range(rng.randint(0, 6)):
        vs = rng.sample(range(n), rng.randint(1, min(n, 4)))
        entries.append((cw.Cycle(tuple(vs) + (vs[0],)), _random_weight(rng, exact)))
    return cw.CycleDecomposition(tuple(entries))


@pytest.mark.parametrize("seed", range(24))
def test_exact_kernel_checks_match_fraction_oracle(seed):
    rng = random.Random(f"kernel-oracle/{seed}")
    n = rng.randint(2, 9)
    exact = seed % 3 != 2
    rows = _random_rows(rng, n, exact)
    substochastic = rng.random() < 0.3
    if substochastic:
        rows = {x: {y: w * Fraction(rng.randint(1, 4), 4) for y, w in row.items()} for x, row in rows.items()}
    kernel = cw.Kernel(rows, substochastic=substochastic)
    for kind in ("counting", "exact", "float"):
        m = _random_measure(rng, n, kind)
        residuals = cw.invariance_check(kernel, m).residuals
        want = _oracle_invariance(kernel, m)
        assert list(residuals) == list(want) and all(map(_same, residuals.values(), want.values()))

        dec = _random_cycles(rng, n, exact)
        cov, want, valid, worst = _oracle_centering(kernel, m, dec)
        report = cw.verify_centering(kernel, m, dec)
        assert list(report.residuals) == list(want) and all(map(_same, report.residuals.values(), want.values()))
        assert report.valid == valid and _same(report.max_abs_residual, worst)
        assert list(dec.coverage().items()) == list(cov.items())

        for build, oracle in ((mg.adjoint_kernel, _oracle_adjoint), (cw.symmetrized_kernel, _oracle_symmetrized)):
            want_rows = oracle(kernel, m)
            assert lost_mass(kernel, want_rows) == _oracle_lost_mass(kernel, want_rows)
            sums = [_oracle_sum(row.values()) for row in want_rows.values()]
            if all(s <= 1 or cw.weights.vanishes(s - 1) for s in sums):
                derived = build(kernel, m)
                assert _same_rows({x: dict(derived.row(x)) for x in derived.window}, want_rows)
                assert derived.substochastic == lost_mass(kernel, want_rows)
            else:  # m is far from invariant: some derived row sums above 1
                with pytest.raises(cw.StructuralError):
                    build(kernel, m)

    x, y = rng.sample(range(n), 2)
    assert _same(cw.green_partial(kernel, x, y, 6), _oracle_green_partial(kernel, x, y, 6))
    for x in kernel.window:
        assert _same(kernel.defect(x), 1 - _oracle_sum(kernel.row(x).values()))


@pytest.mark.parametrize("seed", range(12))
def test_row_sum_acceptance_matches_fraction_oracle(seed):
    rng = random.Random(f"row-sums/{seed}")
    exact = seed % 4 != 3
    for _ in range(20):
        parts = [_random_weight(rng, exact) for _ in range(rng.randint(1, 5))]
        total = _oracle_sum(parts)
        row = [w / total for w in parts]
        if rng.random() < 0.5:
            # off by a little: an exact slip, or a float one far above rounding
            row[rng.randrange(len(row))] += rng.choice((1, -1)) * (Fraction(1, rng.choice(BIG_PRIMES)) if exact
                                                                   else 1e-9)
        for substochastic in (False, True):
            s = _oracle_sum(row)
            want = (min(row) >= 0 and (cw.weights.vanishes(s - 1) or substochastic and s < 1))
            try:
                cw.Kernel({0: dict(enumerate(row))}, substochastic=substochastic)
                accepted = True
            except cw.StructuralError:
                accepted = False
            assert accepted == want, (row, substochastic)


def _primes_from(lo, count):
    """The first ``count`` primes from ``lo`` on, by a sieve of the segment (gaps near 1e8 average 18)."""
    hi = lo + 30 * count
    sieve = bytearray([1]) * (hi - lo)
    for p in range(2, math.isqrt(hi) + 1):
        start = -lo % p
        sieve[start::p] = bytes(len(range(start, hi - lo, p)))
    return [lo + i for i, prime in enumerate(sieve) if prime][:count]


def _traced_peak(f):
    tracemalloc.start()
    try:
        result = f()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


#: tracemalloc peaks, in bytes, of ``invariance_check`` and ``verify_centering`` below when every sum
#: was a Fraction sum (CPython 3.11.7, x86-64); the checks may take at most twice as much
FRACTION_PEAKS = {"invariance": 2_750_712, "verify": 15_019_312}


def test_checks_scale_per_row_not_per_window():
    # 20 000 rows over distinct 9-digit primes: one window-wide common denominator would give
    # every numerator about 180 000 digits
    n = 20_000
    primes = _primes_from(10**8, n)
    kernel = cw.Kernel({x: {x: Fraction(1, p), (x + 1) % n: Fraction(p - 1, p)} for x, p in enumerate(primes)})
    dec = cw.CycleDecomposition(((cw.Cycle(tuple(range(n)) + (0,)), HALF),))
    m = cw.Measure.counting()
    peak, inv = _traced_peak(lambda: cw.invariance_check(kernel, m))
    assert peak <= 2 * FRACTION_PEAKS["invariance"]
    # the in-flow at y is q(y - 1, y) + q(y, y)
    same = inv.residuals == {y: Fraction(1, p) - Fraction(1, primes[y - 1]) for y, p in enumerate(primes)}
    assert same  # a bool, so a failure does not diff 20 000 entries
    peak, report = _traced_peak(lambda: cw.verify_centering(kernel, m, dec))
    assert peak <= 2 * FRACTION_PEAKS["verify"]
    want = {}
    for x, p in enumerate(primes):
        want[(x, x)] = Fraction(1, p)
        want[(x, (x + 1) % n)] = Fraction(p - 1, p) - HALF
    same = report.residuals == dict(sorted(want.items()))
    assert same and not report.valid and report.max_abs_residual == Fraction(1, 2) - Fraction(1, primes[-1])
