"""Kernels, cycles, centering verification and the graph metrics."""

import functools
import math
import operator
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


def test_measure_positive():
    with pytest.raises(cw.StructuralError):
        cw.Measure({0: 0})
    m = cw.Measure({0: Fraction(2)})
    assert m(0) == 2 and m(99) == 1


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
                   lambda: cw.dirichlet_forms.distance_map(path, 0)):
        with pytest.raises(cw.SupportOverflowError, match="passed 10 vertices"):
            search()
    assert cw.graph_distance(path, 0, 9, radius=40) == 9


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
