"""Centering conditions, witnesses, Cayley windows, and the cancellation scan."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import centerwalk as cw
from centerwalk import group_walks as gw
from centerwalk import markov_graph as mg
from centerwalk.groups import _directions


Z1 = cw.IntegerLattice(1)
Z2 = cw.IntegerLattice(2)
H = cw.Heisenberg()
F2 = cw.FreeGroup()
WR = cw.WreathZZ()

Z_GENS = ((1,), (1,), (-2,))
Z2_GENS = ((1, 0), (-1, 0), (0, 1), (0, -1))
H_GENS = ((1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0))


def test_c2_check_examples():
    assert cw.c2_check(F2, cw.F2_SEQUENCE).holds
    rep = cw.c2_check(Z1, ((1,), (1,), (-1,)))
    assert not rep.holds and rep.free_sums == (1,)
    assert cw.c2_check(WR, cw.WREATH_LAMP_PAIR).holds
    assert cw.c2_check(Z1, Z_GENS).holds


def test_abelian_c1():
    w = cw.abelian_c1(Z1, Z_GENS)
    assert w.n == 1
    w.validate(Z1, Z_GENS)
    assert cw.abelian_c1(Z1, ((1,),)) is None
    z5 = cw.FiniteCyclic(5)
    w5 = cw.abelian_c1(z5, (1, 1))
    assert w5.n == 5 and len(w5.sigma) == 10
    w5.validate(z5, (1, 1))
    with pytest.raises(cw.PreconditionError):
        cw.abelian_c1(H, H_GENS)
    # generators are validated as c1_search validates them
    with pytest.raises(cw.StructuralError):
        cw.abelian_c1(Z2, [(1, 0, 5), (-1, 0, -5)])
    for group in (Z2, z5):
        with pytest.raises(cw.PreconditionError, match="empty generating sequence"):
            cw.abelian_c1(group, [])


def test_c1_search_finds_small_witnesses():
    res = cw.c1_search(Z2, Z2_GENS, n_max=1)
    assert res.found and res.witness.n == 1
    res = cw.c1_search(H, H_GENS, n_max=1)
    assert res.found and res.witness.n == 1
    res.witness.validate(H, H_GENS)
    # ordering matters: the in-order product is the nontrivial commutator
    assert H.product(H_GENS) != H.identity


def test_c1_search_respects_c2_obstruction():
    res = cw.c1_search(Z1, ((1,), (1,), (-1,)), n_max=3)
    assert res.status == "not_found" and res.method == "abelianization"


def test_c1_search_f2_exhaustive_small():
    res = cw.c1_search(F2, cw.F2_SEQUENCE, n_max=1)
    assert res.status == "not_found" and res.n_checked == 1
    assert res.nodes == 321  # the memoized, norm-pruned search visits a fixed set of states
    # independent oracle: every one of the 720 orderings misses the identity
    assert cw.brute_force_c1(F2, cw.F2_SEQUENCE, 1) is None


class F2NoNorm(cw.FreeGroup):
    norm = None


class WreathNoNorm(cw.WreathZZ):
    norm = None


def _balanced_sequence(group, letters, rng):
    """2-4 short random words, the last one making the abelianized sum vanish.

    Half the time the last word inverts the product of the others in a random
    order, so a witness exists at n = 1; otherwise it inverts their product
    conjugated by a letter, which keeps the weak condition only.
    """
    words = [group.product(rng.choice(letters) for _ in range(rng.randint(1, 3)))
             for _ in range(rng.randint(1, 3))]
    order = rng.sample(words, len(words))
    last = group.inverse(group.product(order))
    if rng.random() < 0.5:
        c = rng.choice(letters)
        last = group.product((c, last, group.inverse(c)))
    return tuple(words) + (last,)


@pytest.mark.parametrize("pruned, plain, letters", [
    (F2, F2NoNorm(), ((1,), (-1,), (2,), (-2,))),
    (WR, WreathNoNorm(), ((1, ()), (-1, ()), (0, ((0, 1),)), (0, ((0, -1),)))),
], ids=["f2", "wreath"])
def test_c1_search_norm_prune_agrees_with_memo_alone(pruned, plain, letters):
    # the norm drops only children that lead to no witness: same outcome, never more nodes
    rng = random.Random(f"norm-prune/{pruned.spec_string}")
    witnesses = fewer = 0
    for _ in range(150):
        gens = _balanced_sequence(pruned, letters, rng)
        n_max = rng.randint(1, 2)
        res = cw.c1_search(pruned, gens, n_max=n_max)
        ref = cw.c1_search(plain, gens, n_max=n_max)
        assert (res.status, res.witness, res.n_checked) == (ref.status, ref.witness, ref.n_checked)
        assert res.nodes <= ref.nodes
        witnesses += res.found
        fewer += res.nodes < ref.nodes
    assert 50 < witnesses < 130 and fewer > 30  # both outcomes occur, and the prune bites


def test_c1_search_budget_status():
    res = cw.c1_search(F2, cw.F2_SEQUENCE, n_max=2, node_budget=100)
    assert res.status == "budget_exhausted"
    assert res.n_checked == 0


def test_c1_search_deep_witness():
    # the only witness on Z_1500 with generator 1 is 1500 steps deep
    res = cw.c1_search(cw.FiniteCyclic(1500), (1,), n_max=1500)
    assert res.found and res.witness.n == 1500
    assert res.witness.sigma == (1,) * 1500
    assert res.nodes == 1500


def test_c1_search_carries_failed_states_across_n():
    # n = 1 fails, and its failed states prune the n = 2 search, which must
    # still reach the same witness at the same node count; n_max = 3 codes
    # the counts in a wider radix and must not change either
    gens = ((-1, 1, -2), (2, -1, 1), (1, 2, -1), (-2, -2, 0))
    res = cw.c1_search(H, gens, n_max=1)
    assert (res.status, res.n_checked, res.nodes) == ("not_found", 1, 64)
    for n_max in (2, 3):
        res = cw.c1_search(H, gens, n_max=n_max)
        assert (res.status, res.n_checked, res.nodes) == ("witness", 2, 212)
        assert res.witness == cw.C1Witness(n=2, sigma=(1, 1, 3, 4, 4, 2, 3, 2))


def test_c1_search_agrees_with_brute_force():
    # c1_search finds a witness exactly when some n <= n_max has one, and at
    # the smallest such n; most sequences end in a word of the inverse
    # letters, shuffled, so their abelianization vanishes and only the
    # search can tell
    rng = random.Random(17)
    bs = cw.BaumslagSolitar(2)
    letters = (
        (cw.FiniteCyclic(5), (1, 2, 3, 4)),
        (H, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))),
        (bs, (bs.gen_a, bs.inverse(bs.gen_a), bs.gen_b, bs.inverse(bs.gen_b))),
        (F2, ((1,), (-1,), (2,), (-2,))),
    )
    outcomes = set()
    for group, steps in letters:
        for _ in range(16):
            words = [[rng.choice(steps) for _ in range(rng.randint(1, 3))]
                     for _ in range(rng.randint(2, 3))]
            if rng.random() < 0.75:
                close = [group.inverse(s) for w in words for s in w]
                rng.shuffle(close)
                words.append(close)
            gens = [group.product(w) for w in words]
            res = cw.c1_search(group, gens, n_max=2)
            smallest = next((n for n in (1, 2)
                             if cw.brute_force_c1(group, gens, n) is not None), None)
            if smallest is None:
                assert res.status == "not_found" and res.n_checked == 2
            else:
                assert res.found and res.witness.n == smallest
                res.witness.validate(group, gens)
            outcomes.add((smallest, res.method))
    assert outcomes == {(1, "search"), (2, "search"), (None, "search"), (None, "abelianization")}


def test_c1_witness_implies_c2():
    cases = [(Z2, Z2_GENS), (H, H_GENS), (Z1, Z_GENS)]
    for group, gens in cases:
        res = cw.c1_search(group, gens, n_max=2)
        assert res.found
        assert cw.c2_check(group, gens).holds


def test_c1_search_baumslag_solitar_uses_relation():
    # G = (b, a, B, B, A) on BS(1,2): the only identity orderings conjugate
    # b through a (e.g. B a b A B = b^-1 (a b a^-1) b^-1 = b^-1 b^2 b^-1),
    # so the search must exercise the rewriting, not just free cancellation
    bs = cw.BaumslagSolitar(2)
    a, b = bs.gen_a, bs.gen_b
    gens = (b, a, bs.inverse(b), bs.inverse(b), bs.inverse(a))
    assert cw.c2_check(bs, gens).holds
    res = cw.c1_search(bs, gens, n_max=1)
    assert res.found and res.witness.n == 1
    res.witness.validate(bs, gens)
    # free reduction alone cannot reach the identity: letter counts differ
    assert sum(1 for g in gens if g == b) != sum(1 for g in gens if g == bs.inverse(b))


def test_c1_search_bs_positive_lamp_refuted():
    # (b, a, A) never balances: every b contributes +2^s to the affine
    # offset, so no reordering at any n multiplies to the identity
    bs = cw.BaumslagSolitar(2)
    gens = (bs.gen_b, bs.gen_a, bs.inverse(bs.gen_a))
    assert cw.c2_check(bs, gens).holds  # torsion-free abelianization is blind to b
    res = cw.c1_search(bs, gens, n_max=2)
    assert res.status == "not_found" and res.n_checked == 2


def test_c1_search_wreath_lamp_pair_refuted():
    # weak condition holds but no product of the pair returns to the identity
    res = cw.c1_search(WR, cw.WREATH_LAMP_PAIR, n_max=2)
    assert res.status == "not_found" and res.n_checked == 2
    res = cw.c1_search(WR, cw.WREATH_LAMP_PAIR, n_max=8)
    assert res.status == "not_found" and res.n_checked == 8
    assert res.nodes == 4852  # 14 848 by the memo alone
    assert cw.brute_force_c1(WR, cw.WREATH_LAMP_PAIR, 1) is None
    assert cw.brute_force_c1(WR, cw.WREATH_LAMP_PAIR, 2) is None


def test_witness_validation_rejects_garbage():
    with pytest.raises(cw.StructuralError):
        cw.C1Witness(n=1, sigma=(1, 1, 2)).validate(Z1, Z_GENS)
    with pytest.raises(cw.StructuralError):
        cw.C1Witness(n=1, sigma=(1, 2)).validate(Z1, Z_GENS)
    with pytest.raises(cw.StructuralError):
        cw.C1Witness(n=1, sigma=(1, 1, 3, 3)).validate(Z2, Z2_GENS)


def test_word_distance_and_ball():
    # standard lattice generators give the l1 norm
    for x in ((3, 0), (2, -2), (0, 0)):
        assert cw.word_distance(Z2, Z2_GENS, x, radius=8) == abs(x[0]) + abs(x[1])
    assert cw.word_distance(Z2, Z2_GENS, (5, 5), radius=3) is None
    # an element exactly at the radius is found; one step beyond is not
    assert cw.word_distance(Z2, Z2_GENS, (2, -1), radius=3) == 3
    assert cw.word_distance(Z2, Z2_GENS, (2, -2), radius=3) is None
    # free group: reduced word length
    f2_gens = ((1,), (-1,), (2,), (-2,))
    assert cw.word_distance(F2, f2_gens, (1, 2, 1), radius=5) == 3
    ball = cw.word_ball(F2, f2_gens, 4)
    assert len(ball) == 2 * 3 ** 4 - 1


@pytest.mark.parametrize("group, gens", [(F2, ((1,), (2,))), (Z2, ((1, 0), (0, 1)))])
def test_word_distance_closed_form_matches_bfs(group, gens, monkeypatch):
    # gens plus inverses are the standard directions, so the closed-form
    # metric (reduced length, l1 norm) answers without a BFS
    ball = cw.word_ball(group, gens, 5)
    monkeypatch.setattr(gw, "bfs", None)
    for x, d in ball.items():
        if d <= 4:
            assert cw.word_distance(group, gens, x, radius=4) == d
        else:
            assert cw.word_distance(group, gens, x, radius=4) is None


def test_word_distance_long_free_word_without_bfs(monkeypatch):
    monkeypatch.setattr(gw, "bfs", None)
    x = F2.parse_element("aaaaaaaaaaaaaaaaaaaaaaaaab")
    assert cw.word_distance(F2, ((1,), (-1,), (2,), (-2,)), x, radius=30) == 26
    assert cw.word_distance(F2, ((1,), (-1,), (2,), (-2,)), x, radius=25) is None


def test_heisenberg_distance_against_enumeration():
    dirs = H_GENS
    # oracle: enumerate all products of words of length <= 6
    oracle = {H.identity: 0}
    frontier = [H.identity]
    for r in range(1, 7):
        new = []
        for x in frontier:
            for g in dirs:
                y = H.multiply(x, g)
                if y not in oracle:
                    oracle[y] = r
                    new.append(y)
        frontier = new
    ball = cw.word_ball(H, H_GENS, 6)
    assert ball == oracle
    assert cw.word_distance(H, H_GENS, (0, 0, 1), radius=6) == oracle[(0, 0, 1)] == 4


#: built-in groups with generators that have no closed-form word metric
NO_CLOSED_FORM = {
    "z2-tripod": (Z2, ((1, 0), (0, 1), (-1, -1))),
    "heisenberg": (H, ((1, 0, 0), (0, 1, 0))),
    "bs12": (cw.BaumslagSolitar(2), ((0, 0, 1), (0, 1, 0))),
    "wreath": (WR, ((1, ()), (0, ((0, 1),)))),
    "z7": (cw.FiniteCyclic(7), (1,)),
    "f2-a-b-ab": (F2, ((1,), (2,), (1, 2))),
}


@pytest.mark.parametrize("name", NO_CLOSED_FORM)
def test_word_searches_agree_with_the_ball(name):
    group, gens = NO_CLOSED_FORM[name]
    assert group.exact_metric(tuple(_directions(group, gens))) is None
    ball = cw.word_ball(group, gens, 6)
    rng = random.Random(name)
    for r in range(6):
        sizes = [sum(1 for d in ball.values() if d <= s) for s in range(r + 1)]
        assert cw.volume_growth(group, gens, r) == sizes
        # an element exactly at the radius is found; one beyond it is not
        at = [x for x, d in ball.items() if d == r]
        beyond = [x for x, d in ball.items() if d == r + 1]
        for x in rng.sample(at, min(4, len(at))):
            assert cw.word_distance(group, gens, x, r) == r
        for x in rng.sample(beyond, min(4, len(beyond))):
            assert cw.word_distance(group, gens, x, r) is None


def test_heisenberg_center_distances():
    # the word length of the central element (0, 0, n) over the standard generators is
    # 2 * ceil(2 sqrt(n)) (Blachere, Colloq. Math. 95, 2003)
    group, gens = NO_CLOSED_FORM["heisenberg"]
    ball = cw.word_ball(group, gens, 20)
    expected = {n: 2 * math.ceil(2 * math.sqrt(n)) for n in range(1, 26)}
    assert {n: ball[(0, 0, n)] for n in expected} == expected
    for n in (1, 2, 3, 5, 10, 25):
        assert cw.word_distance(group, gens, (0, 0, n), expected[n]) == expected[n]
        assert cw.word_distance(group, gens, (0, 0, n), expected[n] - 1) is None


def test_cayley_windows_stop_at_the_window_budget(monkeypatch):
    # the Z^2 ball of radius 3 has 25 elements; the builders read MAX_WINDOW at call time
    witness = cw.abelian_c1(Z2, Z2_GENS)
    monkeypatch.setattr(gw, "MAX_WINDOW", 25)
    assert len(cw.cayley_kernel(Z2, Z2_GENS, 3).window) == 25
    # one cycle (x, x+e1, x, x+e2, x) per x whose walk stays in the ball
    assert len(cw.translated_cycle_decomposition(Z2, Z2_GENS, witness, 3)) == 15
    monkeypatch.setattr(gw, "MAX_WINDOW", 24)
    with pytest.raises(cw.SupportOverflowError, match="radius 3 passed 24 vertices"):
        cw.cayley_kernel(Z2, Z2_GENS, 3)
    with pytest.raises(cw.SupportOverflowError, match="radius 3 passed 24 vertices"):
        cw.translated_cycle_decomposition(Z2, Z2_GENS, witness, 3)
    # a ball is not a window
    assert len(cw.word_ball(Z2, Z2_GENS, 3)) == 25


def test_word_distance_search_stops_at_the_budget(monkeypatch):
    # no closed form for the Heisenberg group, so the distance comes from the one BFS,
    # whose default budget is read from its keyword defaults at call time
    monkeypatch.setitem(mg.bfs.__kwdefaults__, "max_support", 135)
    assert cw.word_distance(H, H_GENS, (0, 0, 1), radius=6) == 4
    with pytest.raises(cw.SupportOverflowError, match="radius 200 passed 135 vertices at distance 5"):
        cw.word_distance(H, H_GENS, (0, 0, 1000), radius=200)


def test_cayley_kernel_matches_step_kernel():
    ck = cw.cayley_kernel(Z1, Z_GENS, radius=10)
    sk = cw.step_kernel({1: Fraction(2, 3), -2: Fraction(1, 3)}, radius=10)
    assert {x[0] for x in ck.window} == set(sk.window)
    for x in ck.window:
        assert {y[0]: w for y, w in ck.row(x).items()} == dict(sk.row(x[0]))
        assert ck.depth(x) == sk.depth(x[0])


def test_translated_cycles_z_match_hand_construction(counting):
    w = cw.abelian_c1(Z1, Z_GENS)
    dec = cw.translated_cycle_decomposition(Z1, Z_GENS, w, ball_radius=10)
    kernel = cw.cayley_kernel(Z1, Z_GENS, radius=10)
    assert dec.max_length == 3
    assert all(weight == Fraction(1, 3) for _, weight in dec)
    base = next(c for c, _ in dec if c.vertices[0] == (0,))
    assert base.vertices == ((0,), (1,), (2,), (0,))
    assert cw.verify_centering(kernel, counting, dec).valid


def test_translated_cycles_z2_unit_squares(counting):
    res = cw.c1_search(Z2, Z2_GENS, n_max=1)
    dec = cw.translated_cycle_decomposition(Z2, Z2_GENS, res.witness, ball_radius=6)
    kernel = cw.cayley_kernel(Z2, Z2_GENS, radius=6)
    report = cw.verify_centering(kernel, counting, dec)
    assert report.valid and report.max_abs_residual == 0


def test_translated_cycles_reversible_matches_two_cycle_coverage(counting):
    gens = ((1,), (-1,))
    witness = cw.C1Witness(n=1, sigma=(1, 2))
    dec = cw.translated_cycle_decomposition(Z1, gens, witness, ball_radius=8)
    kernel = cw.cayley_kernel(Z1, gens, radius=8)
    rev = cw.reversible_decomposition(kernel, counting)
    cov, rev_cov = dec.coverage(), rev.coverage()
    interior = [e for e in cov if kernel.depth(e[0]) >= 2 and kernel.depth(e[1]) >= 2]
    assert interior
    for e in interior:
        assert cov[e] == rev_cov[e]


def test_translated_cycles_support_detours(counting):
    # the witness cycles double as detour material: every undirected step has
    # a directed replacement of length at most C0
    res = cw.c1_search(Z2, Z2_GENS, n_max=1)
    dec = cw.translated_cycle_decomposition(Z2, Z2_GENS, res.witness, ball_radius=6)
    kernel = cw.cayley_kernel(Z2, Z2_GENS, radius=6)
    c0 = dec.max_length
    for target in ((1, 1), (-2, 0), (0, -3), (2, -1)):
        d = cw.graph_distance(kernel, (0, 0), target, radius=6)
        path = cw.directed_detour(kernel, dec, (0, 0), target, radius=6)
        assert path[0] == (0, 0) and path[-1] == target
        assert all(kernel.weight(u, v) > 0 for u, v in zip(path, path[1:]))
        assert len(path) - 1 <= c0 * d


def test_torsion_decomposition_z5(counting):
    z5 = cw.FiniteCyclic(5)
    mu = {1: Fraction(1, 2), 2: Fraction(1, 2)}
    dec = cw.torsion_decomposition(z5, mu)
    assert all(c.length == 5 for c, _ in dec)
    kernel = cw.finite_group_kernel(z5, mu)
    report = cw.verify_centering(kernel, counting, dec)
    assert report.valid and report.max_abs_residual == 0


def test_torsion_decomposition_z2_and_loops(counting):
    z2m = cw.FiniteCyclic(2)
    dec = cw.torsion_decomposition(z2m, {1: Fraction(1)})
    assert all(c.length == 2 for c, _ in dec)
    dec = cw.torsion_decomposition(z2m, {0: Fraction(1, 4), 1: Fraction(3, 4)})
    assert any(c.length == 1 for c, _ in dec)
    kernel = cw.finite_group_kernel(z2m, {0: Fraction(1, 4), 1: Fraction(3, 4)})
    assert cw.verify_centering(kernel, cw.Measure.counting(), dec).valid


def test_torsion_decomposition_rejects_infinite_order():
    with pytest.raises((cw.PreconditionError, cw.StructuralError)):
        cw.torsion_decomposition(Z1, {(1,): Fraction(1)})


def test_f2_reduce_known_ordering():
    graph = cw.f2_reduce([1, 6, 3, 5, 2, 4])
    # a^2 bab a^-2 b^-1 a^-1 b^-1, the commutator of a^2 and bab
    assert F2.format_element(graph.reduced_word) == "aababAABAB"
    assert graph.reduced_word == F2.product(cw.F2_SEQUENCE[j - 1] for j in (1, 6, 3, 5, 2, 4))
    assert F2.abelianization(graph.reduced_word).free == (0, 0)
    assert graph.n == 1 and not graph.has_double_edge() and graph.is_acyclic()


def test_cancellation_graph_cycles():
    def graph(n, edges):
        return cw.CancellationGraph(n=n, edges=tuple(edges), reduced_word=())

    assert graph(5, [(1, 2), (3, 4), (2, 3)]).is_acyclic()
    assert not graph(3, [(1, 2), (2, 3), (3, 1)]).is_acyclic()
    doubled = graph(3, [(1, 2), (1, 2)])
    assert doubled.has_double_edge() and not doubled.is_acyclic()


def test_f2_reduce_all_orderings_nonempty():
    for perm in itertools.permutations(range(1, 7)):
        graph = cw.f2_reduce(perm)
        assert graph.reduced_word != ()
        assert graph.reduced_word == F2.product(cw.F2_SEQUENCE[j - 1] for j in perm)
        assert not graph.has_double_edge()
        assert not graph.has_self_loop()
        assert graph.is_acyclic()
        if len(graph.edges) < graph.n:
            assert graph.reduced_word != ()


def test_f2_reduce_random_n2():
    rng = random.Random(2024)
    base = [i for i in range(1, 7) for _ in range(2)]
    for _ in range(200):
        arr = base[:]
        rng.shuffle(arr)
        graph = cw.f2_reduce(arr)
        assert graph.n == 2
        assert graph.reduced_word != ()
        assert graph.reduced_word == F2.product(cw.F2_SEQUENCE[j - 1] for j in arr)
        assert not graph.has_double_edge()
        assert not graph.has_self_loop()
        assert graph.is_acyclic()
        assert len(graph.edges) < 2 * graph.n  # acyclic forest on n nodes has < n edges per tree


def test_f2_reduce_rejects_malformed():
    with pytest.raises(cw.StructuralError):
        cw.f2_reduce([1, 2, 3])
    with pytest.raises(cw.StructuralError):
        cw.f2_reduce([0, 1, 2, 3, 4, 5])


def _reference_sort_key(label):
    """The former tagged-tuple label order, kept to check that Python's own < agrees with it."""
    if isinstance(label, bool):
        return (3, (repr(label),))
    if isinstance(label, (int, float)):
        return (0, (label,))
    if isinstance(label, tuple):
        return (1, tuple(_reference_sort_key(part) for part in label))
    if isinstance(label, str):
        return (2, (label,))
    return (3, (repr(label),))


@pytest.mark.parametrize("spec, gens, radius", [
    ("z:1", ((1,),), 20),
    ("z:2", ((1, 0), (0, 1)), 8),
    ("heisenberg", ((1, 0, 0), (0, 1, 0)), 5),
    ("bs:2", ((0, 0, 1), (0, 1, 0)), 6),
    ("wreath", ((1, ()), (0, ((0, 1),))), 5),
    ("f2", ((1,), (2,)), 5),
    ("zmod:7", (1,), 3),
])
def test_native_label_order_matches_reference_on_word_balls(spec, gens, radius):
    ball = list(gw.word_ball(cw.group_from_spec(spec), gens, radius))
    assert len(ball) > radius
    assert sorted(ball) == sorted(ball, key=_reference_sort_key)


def test_native_label_order_matches_reference_on_edges_and_strings():
    kernel = cw.cayley_kernel(H, H_GENS, 4)
    assert list(kernel.window) == sorted(kernel.window, key=_reference_sort_key)
    edges = [(x, y) for x, y, _ in kernel.edges()]
    assert sorted(edges) == sorted(edges, key=lambda e: tuple(map(_reference_sort_key, e)))
    words = ["v10", "v9", "v09", "a", "", "ab", "a b", "B", "é"]
    assert sorted(words) == sorted(words, key=_reference_sort_key)
    tuples = [("a", 1), ("a", 0), ("b",), (), ("a", 1, "x"), ("", -3)]
    assert sorted(tuples) == sorted(tuples, key=_reference_sort_key)
