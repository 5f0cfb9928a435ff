"""Exact evolution, Monte Carlo, bound fitting, escape, speed, entropy."""

import hashlib
import inspect
import itertools
import math
import statistics
import tracemalloc
from fractions import Fraction

import pytest

import centerwalk as cw
from centerwalk import markov_graph as mg
from centerwalk.evolution import _mc_endpoints, _path_indices, path_rng
from centerwalk.markov_graph import MAX_SUPPORT

Z1 = cw.IntegerLattice(1)
Z2 = cw.IntegerLattice(2)
F2 = cw.FreeGroup()

Z_GENS = ((1,), (1,), (-2,))
DRIFT_GENS = ((1,), (1,), (-1,))
SRW_GENS = ((1,), (-1,))
F2_GENS = ((1,), (-1,), (2,), (-2,))


def test_step_measure_counts():
    mu = cw.step_measure(Z1, Z_GENS)
    assert mu.prob((1,)) == Fraction(2, 3)
    assert mu.prob((-2,)) == Fraction(1, 3)
    mu4 = cw.step_measure(Z2, ((1, 0), (-1, 0), (0, 1), (0, -1)))
    assert all(p == Fraction(1, 4) for _, p in mu4.items())
    mu_f2 = cw.step_measure(F2, cw.F2_SEQUENCE)
    assert len(mu_f2) == 6 and all(p == Fraction(1, 6) for _, p in mu_f2.items())
    merged = cw.step_measure(Z1, ((1,), (1,)))
    assert len(merged) == 1 and merged.prob((1,)) == 1


def test_evolve_identity_and_mass():
    mu = cw.step_measure(Z1, Z_GENS)
    delta = cw.SparseDistribution.point(Z1)
    out = cw.evolve(delta, mu)
    assert dict(out.items()) == dict(mu.items())
    d = delta
    for _ in range(12):
        d = cw.evolve(d, mu)
        assert d.total() == 1
    assert d.t == 12


def test_evolve_srw_binomial_oracle():
    dists = cw.walk_distributions(Z1, SRW_GENS, 8)
    for t in (2, 4, 8):
        for x, p in dists[t].items():
            j = (t + x[0]) // 2
            assert (t + x[0]) % 2 == 0
            assert p == Fraction(math.comb(t, j), 2 ** t)
    assert dists[4].prob((0,)) == Fraction(6, 16)


def test_evolve_zwalk_path_enumeration_oracle():
    dists = cw.walk_distributions(Z1, Z_GENS, 7)
    steps = (1, 1, -2)
    for t in (3, 5, 7):
        counts = {}
        for path in itertools.product(steps, repeat=t):
            v = (sum(path),)
            counts[v] = counts.get(v, 0) + 1
        for x, p in dists[t].items():
            assert p == Fraction(counts[x], 3 ** t)
        assert set(counts) == set(dists[t].support())
    assert dists[3].prob((0,)) == Fraction(4, 9)


def test_evolve_mixed_groups_rejected():
    with pytest.raises(cw.PreconditionError):
        cw.evolve(cw.SparseDistribution.point(Z1), cw.step_measure(Z2, ((1, 0), (-1, 0))))


def test_evolve_support_overflow():
    mu = cw.step_measure(Z1, SRW_GENS)
    with pytest.raises(cw.SupportOverflowError):
        d = cw.SparseDistribution.point(Z1)
        for _ in range(10):
            d = cw.evolve(d, mu, max_support=5)


def test_budgets_and_horizons_below_range_are_rejected():
    mu = cw.step_measure(Z1, SRW_GENS)
    d = cw.SparseDistribution.point(Z1)
    for budget in (0, -1):
        with pytest.raises(cw.PreconditionError, match=f"max_support must be >= 1, got {budget}"):
            cw.evolve(d, mu, max_support=budget)
        with pytest.raises(cw.PreconditionError, match=f"max_support must be >= 1, got {budget}"):
            cw.volume_growth(Z1, SRW_GENS, 2, max_support=budget)
    with pytest.raises(cw.PreconditionError, match="t_max must be >= 0"):
        cw.walk_distributions(Z1, SRW_GENS, -3)
    assert len(cw.walk_distributions(Z1, SRW_GENS, 0)) == 1


def test_entropy_default_budget_is_the_shared_constant():
    default = inspect.signature(cw.entropy_estimate).parameters["max_support"].default
    assert default == MAX_SUPPORT == 1_000_000
    # every budget parameter of the package has this one name and this one default
    funcs = [f for f in vars(cw).values() if inspect.isfunction(f)] + [mg.bfs]
    params = {f.__name__: inspect.signature(f).parameters for f in funcs}
    budgets = {name: ps["max_support"].default for name, ps in params.items() if "max_support" in ps}
    assert set(budgets) == {"bfs", "word_ball", "volume_growth", "evolve", "walk_distributions",
                            "entropy_estimate"}
    assert all(default == MAX_SUPPORT for default in budgets.values())


def test_evolve_pruning_flags_approximate():
    mu = cw.step_measure(Z1, SRW_GENS)
    exact = cw.walk_distributions(Z1, SRW_GENS, 6)
    # the smallest SRW atom up to t = 6 is 1/64 > 1e-3: nothing is dropped
    kept = cw.walk_distributions(Z1, SRW_GENS, 6, prune_eps=1e-3)
    for d, e in zip(kept, exact):
        assert not d.approximate and (d.denominator, list(d.numerators())) == (e.denominator, list(e.numerators()))
    # 0.02 drops just the atoms at +-6 (1/64 each) at t = 6: 6, 15, 20, 15, 6 over 62 remain
    d = cw.SparseDistribution.point(Z1)
    for _ in range(6):
        d = cw.evolve(d, mu, prune_eps=0.02)
    assert d.approximate and len(d) == 5 and d.total() == 1 and type(d.denominator) is int
    assert d.prob((0,)) == Fraction(10, 31)
    # the flag is kept by later steps that drop nothing, pruned or not
    assert cw.evolve(d, mu).approximate and cw.evolve(d, mu, prune_eps=1e-300).approximate


def test_evolve_rejects_bad_prune_eps():
    mu = cw.step_measure(Z1, SRW_GENS)
    d = cw.SparseDistribution.point(Z1)
    for eps in (0, -1.0, math.nan, math.inf):
        with pytest.raises(cw.PreconditionError, match="prune_eps"):
            cw.evolve(d, mu, prune_eps=eps)
    # every atom at t = 2 has mass 1/4 or 1/2
    with pytest.raises(cw.PreconditionError, match=r"prune_eps=0\.6.*t=2"):
        cw.evolve(cw.evolve(d, mu, prune_eps=0.5), mu, prune_eps=0.6)


def _dict_evolve(group, atoms, den, step, prune_eps=None):
    """Reference: the former dict convolution, one multiply and one dict update per pair.

    ``atoms`` maps elements to integer numerators over ``den``; returns the
    next law in the same form.  Pruning keeps the atoms whose exact mass is at
    least ``prune_eps`` and makes the sum of their numerators the denominator.
    """
    out = {}
    for x, nx in atoms.items():
        for g, cg in step.numerators():
            y = group.multiply(x, g)
            out[y] = out.get(y, 0) + nx * cg
    den *= step.denominator
    if prune_eps is not None:
        out = {x: n for x, n in out.items() if Fraction(n, den) >= prune_eps}
        den = sum(out.values())
    return out, den


WALKS = {
    "z": (Z1, Z_GENS, 14),
    "z2": (Z2, ((1, 0), (-1, 0), (0, 1), (0, -1)), 12),
    "heisenberg": (cw.Heisenberg(), ((1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)), 8),
    "bs": (cw.BaumslagSolitar(2), ((0, 0, 1), (0, 1, 0), (0, 0, -1), (0, -1, 0)), 8),
    "wreath": (cw.WreathZZ(), ((1, ()), (-1, ()), (0, ((0, 1),)), (0, ((0, -1),))), 6),
    "f2": (F2, F2_GENS, 7),
    # repeated letters: step numerators 2 and 1 over 6
    "f2-repeats": (F2, ((1,), (1,), (-1,), (2,), (2,), (-2,)), 6),
}


@pytest.mark.parametrize("walk", sorted(WALKS))
def test_engine_matches_dict_convolution(walk):
    group, gens, t_max = WALKS[walk]
    step = cw.step_measure(group, gens)
    dists = cw.walk_distributions(group, gens, t_max)
    atoms, den = {group.identity: 1}, 1
    for d in dists[1:]:
        atoms, den = _dict_evolve(group, atoms, den, step)
        assert d.denominator == den == len(gens) ** d.t
        assert dict(d.numerators()) == atoms and len(d) == len(atoms)
        assert dict(d.items()) == {x: Fraction(n, den) for x, n in atoms.items()}
        assert d.total() == 1 and not d.approximate


@pytest.mark.parametrize("walk", ["z2", "heisenberg", "f2"])
def test_engine_from_hand_made_law(walk):
    group, gens, t_max = WALKS[walk]
    step = cw.step_measure(group, gens)
    # a non-point start, with atoms at word lengths 0, 1 and 2
    start = {group.identity: 2, gens[0]: 1, group.multiply(gens[0], gens[0]): 1}
    d = cw.SparseDistribution(group, 0, numerators=start, denominator=4)
    atoms, den = start, 4
    for t in range(1, t_max // 2 + 1):
        d = cw.evolve(d, step)
        atoms, den = _dict_evolve(group, atoms, den, step)
        assert (d.t, d.denominator, dict(d.numerators())) == (t, den, atoms)
    # a hand-made step law, not from step_measure: weights 3/8, 1/8, 4/8
    odd = cw.SparseDistribution(group, 1, numerators={gens[0]: 3, gens[1]: 1, gens[3]: 4}, denominator=8)
    d = cw.evolve(cw.evolve(d, odd), step)
    atoms, den = _dict_evolve(group, *_dict_evolve(group, atoms, den, odd), step)
    assert (d.denominator, dict(d.numerators())) == (den, atoms)


def test_engine_overflows_at_the_reference_t():
    group, gens, _ = WALKS["f2"]
    step = cw.step_measure(group, gens)
    atoms, den, sizes = {group.identity: 1}, 1, []
    for _ in range(6):
        atoms, den = _dict_evolve(group, atoms, den, step)
        sizes.append(len(atoms))
    for budget in (sizes[2], sizes[2] + 1, sizes[4] - 1):
        first = next(t for t, n in enumerate(sizes, 1) if n > budget)
        d = cw.SparseDistribution.point(group)
        with pytest.raises(cw.SupportOverflowError, match=f"support {sizes[first - 1]} exceeds {budget}"):
            for _ in range(6):
                d = cw.evolve(d, step, max_support=budget)
        assert d.t == first - 1
    with pytest.raises(cw.SupportOverflowError):
        cw.walk_distributions(group, gens, 6, max_support=sizes[3])


@pytest.mark.parametrize("eps", [1e-4, 1e-3])
@pytest.mark.parametrize("walk", ["z", "z2", "heisenberg", "f2-repeats"])
def test_engine_pruned_laws_within_4_ulps(walk, eps):
    # a pruned law is exact: each one equals the integer reference step from the
    # same predecessor, numerator for numerator, with no rounding left to allow for
    group, gens, t_max = WALKS[walk]
    step = cw.step_measure(group, gens)
    dists = cw.walk_distributions(group, gens, t_max, prune_eps=eps)
    atoms, den, dropped = {group.identity: 1}, 1, False
    for d in dists[1:]:
        full, _ = _dict_evolve(group, atoms, den, step)
        atoms, den = _dict_evolve(group, atoms, den, step, prune_eps=eps)
        dropped = dropped or len(atoms) < len(full)
        assert type(d.denominator) is int and d.denominator == den
        assert dict(d.numerators()) == atoms and len(d) == len(atoms)
        assert d.total() == 1 and d.approximate == dropped
    assert dropped


def test_pruned_law_bits_are_pinned():
    # the pruned Heisenberg law at t = 8, pinned exactly
    group, gens, _ = WALKS["heisenberg"]
    d = cw.walk_distributions(group, gens, 8, prune_eps=1e-4)[8]
    assert (len(d), d.denominator, d.total(), d.approximate) == (501, 63672, 1, True)
    assert d.prob(group.identity) == Fraction(77, 2274)
    assert float(d.prob(group.identity)).hex() == "0x1.1563be414b6d3p-5"
    atoms = sorted((x, str(p)) for x, p in d.items())
    assert hashlib.sha256(repr(atoms).encode()).hexdigest() == (
        "26a1ebc46be2d2afa611983562f62db0a7731c59dea468a6a69526894496588e")


def test_law_keyed_access_after_release():
    dists = cw.walk_distributions(Z2, WALKS["z2"][1], 6)
    d = dists[6]
    assert d._engine is None and d._lookup is None
    assert len(d) == 49 and d.total() == 1
    assert d._lookup is None  # len, total, items and numerators need no lookup table
    assert (0, 0) in d and (7, 0) not in d
    assert d.prob((0, 0)) == Fraction(400, 4 ** 6) and d.prob((7, 0)) == 0
    assert d.log_prob((6, 0)) == pytest.approx(-6 * math.log(4))
    with pytest.raises(cw.PreconditionError, match="outside the support"):
        d.log_prob((7, 0))
    # while a law holds the engine, keyed access goes through the engine's index
    step = cw.step_measure(Z2, WALKS["z2"][1])
    live = cw.evolve(cw.evolve(cw.SparseDistribution.point(Z2), step, prune_eps=0.1), step)
    ref = cw.evolve(cw.evolve(cw.SparseDistribution.point(Z2), step, prune_eps=0.1), step)
    ref._release()
    assert live._engine is not None
    for x in [(0, 0), (1, 1), (2, 0), (1, 0), (7, 0), (-2, 0)]:
        assert (x in live, live.prob(x)) == (x in ref, ref.prob(x))
        assert type(live.prob(x)) is Fraction
    # a list by engine id, not a dict over the support
    assert not isinstance(getattr(live._lookup, "__self__", None), dict)
    exact = cw.evolve(cw.evolve(cw.SparseDistribution.point(Z2), step), step)
    for x in [(0, 0), (1, 1), (2, 0), (1, 0), (7, 0)]:
        assert (x in exact, exact.prob(x)) == (x in dists[2], dists[2].prob(x))
    assert exact.log_prob((2, 0)) == dists[2].log_prob((2, 0))
    assert not isinstance(getattr(exact._lookup, "__self__", None), dict)


#: SHA-256 of [(t, denominator, list(numerators()))] of walk_distributions, recorded
#: before the engine filled inverse translates and keyed F2 words by their bytes
PINNED_LAWS = {
    "f2": (F2, F2_GENS, 9, "dfc33b195dc9d3f4bab2566b593d4334ee8198596f55b6587bb7395d7b815657"),
    # no step of the sequence but a and A has its inverse among the steps
    "f2-sequence": (F2, cw.F2_SEQUENCE, 5, "ded30a5eab0264098808b73e0b8177716bcdfd08dcada37c48d6736cbec5d7b2"),
    "z2": (Z2, WALKS["z2"][1], 20, "f82308269661c2f3d2b5856d40948b4231a9506a715ef6e5d3d763e978140cd7"),
    "heisenberg": (*WALKS["heisenberg"][:2], 10, "dc616002816a5898c32530993bc735226a65cf34997361364758e8131c95fd92"),
    "bs": (*WALKS["bs"][:2], 9, "f906902c95e6cc74f2ee028352b32e7126e0c35f201e03aadb3bcfabd9f94fc8"),
    "wreath": (*WALKS["wreath"][:2], 7, "0ec06946b9655bad95c39249b276baa1b68597784f779d689268cdda28c506d8"),
    "z": (Z1, Z_GENS, 30, "d61176a143c40fd465f6027f2fe62706393bfc5fe877a17887766d0343263267"),
}


@pytest.mark.parametrize("walk", sorted(PINNED_LAWS))
def test_engine_laws_are_pinned(walk):
    # the atoms and their order: translates filled from a step's inverse never
    # change which ids are new, nor the order in which they are interned
    group, gens, t_max, digest = PINNED_LAWS[walk]
    laws = cw.walk_distributions(group, gens, t_max)
    atoms = [(d.t, d.denominator, list(d.numerators())) for d in laws]
    assert hashlib.sha256(repr(atoms).encode()).hexdigest() == digest


def test_engine_fills_inverse_translates():
    calls = []

    class CountingF2(cw.FreeGroup):
        def multiply(self, x, y):
            calls.append(1)
            return super().multiply(x, y)

    group = CountingF2()
    step = cw.step_measure(group, F2_GENS)
    law = cw.SparseDistribution.point(group)
    for t in range(1, 8):
        law = cw.evolve(law, step)
        # only the 4 * 3**(t-2) words of the sphere of radius t - 1 are multiplied,
        # each by the 3 letters that lengthen it: every other translate came with
        # the word it was computed from
        assert len(calls) == 4 * 3 ** (t - 1)
        calls.clear()


def test_f2_keys_hash_apart():
    law = cw.SparseDistribution.point(F2)
    step = cw.step_measure(F2, F2_GENS)
    for _ in range(10):
        law = cw.evolve(law, step)
    words = law.support()
    assert len(words) == 88_573
    # in CPython hash(-1) == hash(-2): words that differ by A <-> B collide as tuples
    assert hash((-1,)) == hash((-2,)) and len(set(map(hash, words))) == 35_778
    assert len(set(map(hash, map(F2.key, words)))) == len(words)
    assert set(law._engine.index) >= set(map(F2.key, words))


def test_engine_lookups_of_non_words_miss():
    from centerwalk import groups

    step = cw.step_measure(F2, F2_GENS)
    law = cw.evolve(cw.evolve(cw.evolve(cw.SparseDistribution.point(F2), step), step), step)
    assert law._engine is not None and (1, 2, 1) in law and law.prob((1, 2, 1)) == Fraction(1, 64)
    packs = set(groups._WORD_PACKS)
    for x in [(3,), (300,), (1, -1), "ab", b"\x01", 5, (1,) * 10 ** 6]:
        assert law.prob(x) == 0 and x not in law
        with pytest.raises(cw.PreconditionError, match="outside the support"):
            law.log_prob(x)
    assert set(groups._WORD_PACKS) == packs
    assert (True, 2, True) in law  # equal to (1, 2, 1), as in a dict of tuples


def _bisection_c_star(dists, distance, m=lambda x: 1.0, d_exp=0.0, bracket=(1e-6, 1e12), rel_tol=1e-6):
    """Reference: the former fit, geometric bisection of log C inside a fixed bracket."""
    points = [(d.t, float(p), distance(x), float(m(x))) for d in dists if d.t >= 1 for x, p in d.items()]

    def ok(c):
        return all(p <= c * mv * t ** (-d_exp / 2.0) * math.exp(-dd * dd / (c * t))
                   for t, p, dd, mv in points)

    lo, hi = bracket
    if ok(lo):
        return lo
    assert ok(hi), "reference bracket too small"
    while hi / lo > 1 + rel_tol:
        mid = math.sqrt(lo * hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _fit_cases():
    z_dists = cw.walk_distributions(Z1, Z_GENS, 32)
    z_table = cw.word_ball(Z1, Z_GENS, 32)
    z2_gens = ((1, 0), (-1, 0), (0, 1), (0, -1))
    z2_dists = cw.walk_distributions(Z2, z2_gens, 16)
    z2_table = cw.word_ball(Z2, z2_gens, 16)
    weight = lambda x: 1 + abs(x[0]) / 3  # noqa: E731
    return {
        "z": (z_dists, z_table.__getitem__, {}),
        "z2": (z2_dists, z2_table.__getitem__, {}),
        "d_exp=1": (z_dists, z_table.__getitem__, {"d_exp": 1.0}),
        "nonconstant-m": (z_dists, z_table.__getitem__, {"m": weight, "d_exp": 1.0}),
        # a / b = t * 1e308 overflows a float at t >= 2, and t = 4 sets C*
        "far-tail": (cw.walk_distributions(Z1, ((1,),), 4), lambda x: abs(x[0]), {"m": lambda x: 1e308}),
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["z", "z2", "d_exp=1", "nonconstant-m", "far-tail"])
def test_fit_cv_closed_form_matches_bisection(case):
    dists, distance, kwargs = _fit_cases()[case]
    report = cw.fit_cv_constant(dists, distance, **kwargs)
    ref = _bisection_c_star(dists, distance, **kwargs)
    assert report.c_star <= ref
    assert ref - report.c_star <= 1e-6 * ref
    assert report.min_margin >= 0 and not report.violated


def test_fit_cv_large_d_exp_is_finite():
    # the minimal constant (about 9.6e12) lies above the former 1e12 bracket
    dists = cw.walk_distributions(Z1, DRIFT_GENS, 8)
    report = cw.fit_cv_constant(dists, cw.word_ball(Z1, DRIFT_GENS, 8), d_exp=30)
    assert 1e12 < report.c_star < math.inf
    assert report.min_margin >= 0 and not report.violated


def test_fit_cv_trivial_walk():
    dists = cw.walk_distributions(Z1, ((0,),), 8)
    report = cw.fit_cv_constant(dists, lambda x: 0)
    assert report.c_star == 1.0
    assert not report.violated


def test_fit_cv_margins_nonnegative_and_monotone(zwalk=None):
    dists = cw.walk_distributions(Z1, Z_GENS, 16)
    table = cw.word_ball(Z1, Z_GENS, 16)
    report = cw.fit_cv_constant(dists, table)
    assert report.min_margin >= 0
    # monotone predicate: just below c_star fails, slightly above holds
    def ok(c):
        return all(
            float(p) <= c * math.exp(-table[x] ** 2 / (c * d.t))
            for d in dists if d.t >= 1 for x, p in d.items()
        )
    assert ok(report.c_star * (1 + 1e-3))
    assert not ok(report.c_star * (1 - 1e-9))


def test_fit_cv_missing_distance_errors():
    dists = cw.walk_distributions(Z1, Z_GENS, 4)
    with pytest.raises(cw.PreconditionError):
        cw.fit_cv_constant(dists, {})
    for d_exp in (math.nan, math.inf, -math.inf):
        with pytest.raises(cw.PreconditionError, match="d_exp"):
            cw.fit_cv_constant(dists, lambda x: abs(x[0]), d_exp=d_exp)


def test_fit_cv_rejects_unrepresentable_scale():
    dists = cw.walk_distributions(Z1, Z_GENS, 4)
    for d_exp in (2000.0, -2000.0):
        with pytest.raises(cw.PreconditionError, match="float range"):
            cw.fit_cv_constant(dists, lambda x: abs(x[0]), d_exp=d_exp)
    with pytest.raises(cw.PreconditionError, match="no finite constant"):
        cw.fit_cv_constant(dists, lambda x: abs(x[0]), m=lambda x: 1e-320)
    # exp(-d^2 / (C t)) is subnormal at the point that sets C*
    with pytest.raises(cw.PreconditionError, match="cannot be certified"):
        cw.fit_cv_constant(cw.walk_distributions(Z1, Z_GENS, 32), lambda x: abs(x[0]), m=lambda x: 1e306)


@pytest.mark.parametrize("value", [0, -1.0, math.nan, math.inf])
def test_fit_cv_rejects_bad_measure(value):
    dists = cw.walk_distributions(Z1, Z_GENS, 4)
    with pytest.raises(cw.PreconditionError, match="measure"):
        cw.fit_cv_constant(dists, lambda x: abs(x[0]), m=lambda x: value if x == (1,) else 1.0)


def test_escape_probability_exact_and_monotone_alpha():
    dists = cw.walk_distributions(Z1, Z_GENS, 16)
    table = cw.word_ball(Z1, Z_GENS, 16)
    p_half = cw.escape_probability(dists[16], table, Fraction(1, 2))
    p_quarter = cw.escape_probability(dists[16], table, Fraction(1, 4))
    p_one = cw.escape_probability(dists[16], table, 1)
    assert isinstance(p_half, Fraction)
    assert p_one <= p_half <= p_quarter <= 1
    # alpha = 1: only the extreme corner |x| = 2t can reach distance t
    assert p_one < 1


def test_escape_probability_rejects_bad_alpha():
    dists = cw.walk_distributions(Z1, Z_GENS, 2)
    with pytest.raises(cw.PreconditionError):
        cw.escape_probability(dists[2], cw.word_ball(Z1, Z_GENS, 2), 0)


def test_volume_growth_closed_forms():
    assert cw.volume_growth(Z1, SRW_GENS, 6) == [2 * t + 1 for t in range(7)]
    assert cw.volume_growth(Z2, ((1, 0), (-1, 0), (0, 1), (0, -1)), 5) == [
        2 * t * t + 2 * t + 1 for t in range(6)
    ]
    assert cw.volume_growth(F2, F2_GENS, 6) == [2 * 3 ** t - 1 for t in range(7)]


def test_volume_growth_budget():
    # the radius-3 ball of F2 has 53 elements
    assert cw.volume_growth(F2, F2_GENS, 3, max_support=53) == [1, 5, 17, 53]
    with pytest.raises(cw.SupportOverflowError, match="52"):
        cw.volume_growth(F2, F2_GENS, 3, max_support=52)
    with pytest.raises(cw.SupportOverflowError):
        cw.word_ball(F2, F2_GENS, 40, max_support=1000)
    assert len(cw.word_ball(Z2, ((1, 0), (0, 1)), 4, max_support=41)) == 41


@pytest.mark.parametrize("k", [*range(1, 10), 1000])
def test_path_indices_replay_randrange(k, monkeypatch):
    for t in (0, 1, 7, 500):
        for seed, index in ((0, 0), (5, 3), (2 ** 40, 17)):
            rng = path_rng(seed, index)
            assert _path_indices(seed, index, t, k) == [rng.randrange(k) for _ in range(t)]
    # a long path draws its words in several calls: one call of 2**31 bits or more overflows
    monkeypatch.setattr("centerwalk.evolution._DRAW_WORDS", 3)
    for t in (1, 7, 500):
        rng = path_rng(9, 4)
        assert _path_indices(9, 4, t, k) == [rng.randrange(k) for _ in range(t)]


def test_mc_sample_determinism_and_shape():
    paths = cw.mc_sample(Z1, Z_GENS, t=0, n_paths=1, seed=5)
    assert paths == [[(0,)]]
    a = cw.mc_sample(Z1, Z_GENS, t=20, n_paths=8, seed=123)
    b = cw.mc_sample(Z1, Z_GENS, t=20, n_paths=8, seed=123)
    assert a == b
    c = cw.mc_sample(Z1, Z_GENS, t=20, n_paths=8, seed=124)
    assert a != c
    assert all(len(p) == 21 for p in a)
    with pytest.raises(cw.PreconditionError, match="empty"):
        cw.speed_estimate(Z1, (), t=3, n_paths=1, seed=0)


def test_mc_sample_is_a_replayed_sequence():
    paths = cw.mc_sample(Z1, Z_GENS, t=12, n_paths=6, seed=8)
    stored = list(paths)
    assert len(paths) == 6 and len(stored) == 6
    assert paths[-1] == stored[5] and paths[-6] == stored[0]
    assert list(paths[1:5:2]) == stored[1:5:2] and len(paths[4:]) == 2 and paths[7:] == []
    for i in (6, -7):
        with pytest.raises(IndexError):
            paths[i]
    assert list(paths) == stored and paths == stored and stored == paths
    assert paths == cw.mc_sample(Z1, Z_GENS, t=12, n_paths=6, seed=8)
    assert paths != cw.mc_sample(Z1, Z_GENS, t=12, n_paths=6, seed=9) and paths != stored[:5]
    # each access replays the path: a change to a returned list is not kept
    paths[0].append((99,))
    assert paths[0] == stored[0] and len(paths[0]) == 13


def test_mc_sample_checks_sizes_up_front():
    for sample in (cw.mc_sample, _mc_endpoints):
        for gens, t, n_paths in ((SRW_GENS, -3, 2), (SRW_GENS, 3, -2), ((), 3, 0)):
            with pytest.raises(cw.PreconditionError, match="empty|>= 0"):
                sample(Z1, gens, t=t, n_paths=n_paths, seed=1)
        assert len(sample(Z1, SRW_GENS, t=0, n_paths=0, seed=1)) == 0


def test_mc_sample_holds_one_path_at_a_time():
    # the 200 stored paths of t = 1000 steps took about 145 MB; one replayed path is well under 1 MB
    wr = cw.WreathZZ()
    # a first small sample imports numpy, which the sampler loads on first use
    assert cw.wreath_lamp_identity(cw.mc_sample(wr, cw.WREATH_LAMP_PAIR, t=10, n_paths=1, seed=0))
    tracemalloc.start()
    try:
        assert cw.wreath_lamp_identity(cw.mc_sample(wr, cw.WREATH_LAMP_PAIR, t=1000, n_paths=200, seed=1213))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


@pytest.mark.parametrize("group, gens, t", [
    (Z1, ((10 ** 30,), (-1,), (3,)), 50),  # int64 cannot hold this generator
    (Z2, ((1, 0), (-1, 0), (0, 1), (0, -1), (2, -3)), 200),
    (Z1, ((5,),), 17),  # K = 1 draws nothing from the stream
    (Z2, ((1, 0), (0, -1)), 0),
    (F2, F2_GENS, 60),
    (cw.WreathZZ(), cw.WREATH_LAMP_PAIR, 80),
])
def test_mc_endpoints_are_the_path_endpoints(group, gens, t):
    n, seed = 25, 4
    ends = _mc_endpoints(group, gens, t, n, seed)
    assert ends == [p[-1] for p in cw.mc_sample(group, gens, t=t, n_paths=n, seed=seed)]
    if t:
        assert len(set(ends)) > 1 or len(gens) == 1


def test_mc_matches_exact_distribution_tv():
    t, n = 10, 100_000
    exact = cw.walk_distributions(Z1, Z_GENS, t)[t]
    counts = {}
    for x in (p[-1] for p in cw.mc_sample(Z1, Z_GENS, t=t, n_paths=n, seed=7)):
        counts[x] = counts.get(x, 0) + 1
    support = set(exact.support()) | set(counts)
    tv = sum(abs(float(exact.prob(x)) - counts.get(x, 0) / n) for x in support) / 2
    assert tv <= 0.02
    assert tv <= 3 * math.sqrt(len(exact) / n)


def test_mc_tv_bound_free_group():
    t, n = 6, 20_000
    exact = cw.walk_distributions(F2, F2_GENS, t)[t]
    counts = {}
    for x in (p[-1] for p in cw.mc_sample(F2, F2_GENS, t=t, n_paths=n, seed=77)):
        counts[x] = counts.get(x, 0) + 1
    support = set(exact.support()) | set(counts)
    tv = sum(abs(float(exact.prob(x)) - counts.get(x, 0) / n) for x in support) / 2
    assert tv <= 3 * math.sqrt(len(exact) / n)


def test_fit_cv_approximate_flag():
    table = cw.word_ball(Z1, Z_GENS, 12)
    exact = cw.fit_cv_constant(cw.walk_distributions(Z1, Z_GENS, 6), table)
    # the smallest atom up to t = 6 is 1/729 > 1e-6: nothing is dropped, so nothing changes
    kept = cw.fit_cv_constant(cw.walk_distributions(Z1, Z_GENS, 6, prune_eps=1e-6), table)
    assert not exact.approximate and (kept.approximate, kept.c_star) == (False, exact.c_star)
    report = cw.fit_cv_constant(cw.walk_distributions(Z1, Z_GENS, 6, prune_eps=0.01), table)
    assert report.approximate


def test_speed_drifted_matches_lln():
    est = cw.speed_estimate(Z1, DRIFT_GENS, t=3000, n_paths=300, seed=11)
    assert est.metric_kind == "exact"
    assert abs(est.value - 1 / 3) <= 0.02


def test_speed_bfs_table_and_radius_error():
    est = cw.speed_estimate(Z1, Z_GENS, t=40, n_paths=50, seed=3, radius=90)
    assert est.metric_kind == "bfs"
    with pytest.raises(cw.PreconditionError):
        cw.speed_estimate(Z1, Z_GENS, t=200, n_paths=20, seed=3, radius=5)
    with pytest.raises(cw.PreconditionError):
        cw.speed_estimate(Z1, Z_GENS, t=40, n_paths=20, seed=3)


def test_speed_falls_back_to_the_lower_bound_beyond_the_ball():
    # the lamp pair has no closed-form word metric; endpoints beyond the radius-2
    # ball take the certified lower bound, as they do with no radius at all
    est = cw.speed_estimate(cw.WreathZZ(), cw.WREATH_LAMP_PAIR, t=20, n_paths=5, seed=1, radius=2)
    assert est.metric_kind == "lower_bound"
    assert est.value == 1.2


def test_speed_wreath_lower_bound_metric():
    wr = cw.WreathZZ()
    est = cw.speed_estimate(wr, cw.WREATH_LAMP_PAIR, t=100, n_paths=40, seed=9)
    assert est.metric_kind == "lower_bound"
    assert est.value >= 1.0  # lamp mass alone already equals t


def test_speed_free_group_metric_over_gens_and_inverses():
    # the word metric over a, b and their inverses is the reduced length
    gens = ((1,), (2,))
    ends = [p[-1] for p in cw.mc_sample(F2, gens, t=20, n_paths=5, seed=1)]
    for radius in (None, 8):
        est = cw.speed_estimate(F2, gens, t=20, n_paths=5, seed=1, radius=radius)
        assert est.metric_kind == "exact"
        assert est.value == statistics.fmean(len(x) / 20 for x in ends)


def test_speed_deterministic():
    a = cw.speed_estimate(Z1, DRIFT_GENS, t=500, n_paths=100, seed=21)
    b = cw.speed_estimate(Z1, DRIFT_GENS, t=500, n_paths=100, seed=21)
    assert a == b


def test_entropy_point_mass_zero():
    est = cw.entropy_estimate(Z1, ((0,),), t=16, n_paths=10, seed=1)
    assert est.value == 0.0


def test_entropy_decreases_for_centered_z_walk():
    vals = [cw.entropy_estimate(Z1, Z_GENS, t=t, n_paths=1500, seed=9).value
            for t in (8, 16, 32)]
    assert vals[0] > vals[1] > vals[2] > 0


def test_entropy_overflow_guard():
    with pytest.raises(cw.SupportOverflowError):
        cw.entropy_estimate(F2, F2_GENS, t=9, n_paths=10, seed=1, max_support=1000)


def test_wreath_lamp_identity_on_sampled_paths():
    wr = cw.WreathZZ()
    paths = cw.mc_sample(wr, cw.WREATH_LAMP_PAIR, t=300, n_paths=20, seed=31)
    assert cw.wreath_lamp_identity(paths)
    assert cw.wreath_lamp_identity([[wr.identity]])


def test_wreath_lamp_identity_rejects_other_generators():
    wr = cw.WreathZZ()
    other = ((1, ()), (-1, ()))
    bad = cw.mc_sample(wr, other, t=4, n_paths=1, seed=0)
    with pytest.raises(cw.PreconditionError):
        cw.wreath_lamp_identity(bad)


def test_diagonal_decay_refinement():
    # centered Z walk: sup over t <= 64 of sqrt(t) * mu^t(0) stays small
    dists = cw.walk_distributions(Z1, Z_GENS, 64)
    sup1 = max(math.sqrt(d.t) * float(d.prob((0,))) for d in dists if d.t >= 1)
    assert sup1 <= 1.0
    # Z^2 walk: sup of t * mu^t(0)
    g4 = ((1, 0), (-1, 0), (0, 1), (0, -1))
    dists2 = cw.walk_distributions(Z2, g4, 64)
    sup2 = max(d.t * float(d.prob((0, 0))) for d in dists2 if d.t >= 1)
    assert sup2 <= 1.0
