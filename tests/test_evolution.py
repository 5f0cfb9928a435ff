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
    d = cw.SparseDistribution.point(Z1)
    for _ in range(6):
        d = cw.evolve(d, mu, prune_eps=1e-3)
    assert d.approximate
    assert abs(d.total() - 1.0) < 1e-9


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

    ``atoms`` maps elements to integer numerators over ``den``, or to masses
    when ``den`` is None; returns the next law in the same form.
    """
    out = {}
    if den is not None and prune_eps is None:
        for x, nx in atoms.items():
            for g, cg in step.numerators():
                y = group.multiply(x, g)
                out[y] = out.get(y, 0) + nx * cg
        return out, den * step.denominator
    for x, px in atoms.items():
        px = float(Fraction(px, den)) if den is not None else px
        for g, cg in step.numerators():
            y = group.multiply(x, g)
            out[y] = out.get(y, 0.0) + px * float(Fraction(cg, step.denominator))
    if prune_eps is not None:
        out = {x: v for x, v in out.items() if v >= prune_eps}
        mass = math.fsum(out.values())
        out = {x: v / mass for x, v in out.items()}
    return out, None


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
    # each pruned law against the reference step from the same predecessor: the
    # engine adds a target's terms in step order, the reference in support order
    group, gens, t_max = WALKS[walk]
    step = cw.step_measure(group, gens)
    dists = cw.walk_distributions(group, gens, t_max, prune_eps=eps)
    prev = ({group.identity: 1}, 1)
    for d in dists[1:]:
        atoms, _ = _dict_evolve(group, *prev, step, prune_eps=eps)
        assert d.approximate and d.denominator is None
        got = dict(d.items())
        assert got.keys() == atoms.keys()
        assert all(abs(got[x] - v) <= 4 * math.ulp(v) for x, v in atoms.items())
        assert all(type(v) is float for v in got.values())
        with pytest.raises(cw.PreconditionError, match="numerators"):
            d.numerators()
        prev = (got, None)


def test_pruned_law_bits_are_pinned():
    # a pruned law is normalized by the correctly rounded math.fsum, so its bits do
    # not depend on the interpreter (sum() of floats is compensated on 3.12+)
    group, gens, _ = WALKS["heisenberg"]
    d = cw.walk_distributions(group, gens, 8, prune_eps=1e-4)[8]
    atoms = sorted((x, p.hex()) for x, p in d.items())
    assert len(atoms) == 501
    assert d.prob(group.identity).hex() == "0x1.1563be414b6d3p-5"
    assert hashlib.sha256(repr(atoms).encode()).hexdigest() == (
        "aa0d54c815707adb22c837fd844caf5af840f12d14b532a169958b9860d1fcb8")


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
        assert type(live.prob(x)) is float
    # a list by engine id, not a dict over the support
    assert not isinstance(getattr(live._lookup, "__self__", None), dict)
    exact = cw.evolve(cw.evolve(cw.SparseDistribution.point(Z2), step), step)
    for x in [(0, 0), (1, 1), (2, 0), (1, 0), (7, 0)]:
        assert (x in exact, exact.prob(x)) == (x in dists[2], dists[2].prob(x))
    assert exact.log_prob((2, 0)) == dists[2].log_prob((2, 0))
    assert not isinstance(getattr(exact._lookup, "__self__", None), dict)


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
def test_path_indices_replay_randrange(k):
    for t in (0, 1, 7, 500):
        for seed, index in ((0, 0), (5, 3), (2 ** 40, 17)):
            rng = path_rng(seed, index)
            assert _path_indices(seed, index, t, k) == [rng.randrange(k) for _ in range(t)]


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
    mu = cw.step_measure(Z1, Z_GENS)
    d = cw.SparseDistribution.point(Z1)
    dists = []
    for _ in range(6):
        d = cw.evolve(d, mu, prune_eps=1e-6)
        dists.append(d)
    table = cw.word_ball(Z1, Z_GENS, 12)
    report = cw.fit_cv_constant(dists, table)
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
