"""Exact evolution, Monte Carlo, bound fitting, escape, speed, entropy."""

import itertools
import math
from fractions import Fraction

import pytest

import centerwalk as cw
from centerwalk.evolution import _path_indices, path_rng

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
