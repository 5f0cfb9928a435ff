"""Exact evolution, Monte Carlo, bound fitting, escape, speed, entropy."""

import collections
import copy
import functools
import gc
import hashlib
import inspect
import itertools
import math
import random
import statistics
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import centerwalk as cw
from centerwalk import markov_graph as mg
from centerwalk.evolution import _Translates, _mc_endpoints, _path_indices, _sample_steps, path_rng
from centerwalk.groups import Packing
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
    with pytest.raises(cw.PreconditionError, match="t_max must be >= 0, got -1"):
        cw.volume_growth(Z1, SRW_GENS, -1)
    assert len(cw.walk_distributions(Z1, SRW_GENS, 0)) == 1


def test_entropy_default_budget_is_the_shared_constant():
    default = inspect.signature(cw.entropy_estimate).parameters["max_support"].default
    assert default == MAX_SUPPORT == 1_000_000
    # every budget parameter of the package has this one name and this one default
    funcs = [f for f in vars(cw).values() if inspect.isfunction(f)] + [mg.bfs]
    params = {f.__name__: inspect.signature(f).parameters for f in funcs}
    budgets = {name: ps["max_support"].default for name, ps in params.items() if "max_support" in ps}
    assert set(budgets) == {"bfs", "word_ball", "volume_growth", "evolve", "walk_laws",
                            "walk_distributions", "entropy_estimate"}
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
    # a coded law has no engine: keyed access searches x's code among its ascending keys
    dists = cw.walk_distributions(Z2, WALKS["z2"][1], 6)
    d = dists[6]
    assert not isinstance(d._coder, _Translates) and (d._keys[1:] > d._keys[:-1]).all()
    assert len(d) == 49 and d.total() == 1
    assert d._decoded is None  # an evolved law keeps no elements, and len and total decode none
    assert len(d.support()) == 49 and d._decoded is None
    assert (0, 0) in d and (7, 0) not in d
    assert d.prob((0, 0)) == Fraction(400, 4 ** 6) and d.prob((7, 0)) == 0
    assert d.log_prob((6, 0)) == pytest.approx(-6 * math.log(4))
    with pytest.raises(cw.PreconditionError, match="outside the support"):
        d.log_prob((7, 0))
    # an interning law looks up its engine's ids while it holds the engine, and its own
    # elements' ids 0..n-1 once released
    group, gens, _ = WALKS["wreath"]
    step = cw.step_measure(group, gens)
    live = cw.evolve(cw.evolve(cw.SparseDistribution.point(group), step, prune_eps=0.1), step)
    ref = cw.evolve(cw.evolve(cw.SparseDistribution.point(group), step, prune_eps=0.1), step)
    ref._release()
    assert live._coder.steps and not ref._coder.steps and ref._coder._index is None
    assert ref._keys.tolist() == list(range(len(ref))) and ref.support() == live.support()
    far = (5, ((0, 1),))
    for x in [group.identity, (2, ()), (1, ((0, 1),)), (0, ((0, 2),)), (-2, ()), far, [1]]:
        assert (x in live, live.prob(x)) == (x in ref, ref.prob(x))
        assert type(live.prob(x)) is Fraction
    assert ref._coder._index is not None
    # every atom at t = 1 has mass 1/4: the pruning dropped nothing
    exact = cw.walk_distributions(group, gens, 2)[2]
    assert not ref.approximate and dict(ref.numerators()) == dict(exact.numerators())
    for x in [group.identity, (2, ()), (1, ((0, 1),)), far]:
        assert (x in exact, exact.prob(x)) == (x in ref, ref.prob(x))


#: SHA-256 of [(t, denominator, atoms)] of walk_distributions.  The atoms are the
#: list(numerators()) of the interning groups (bs, wreath), whose law order is the order
#: of the engine's ids, and sorted for the coded groups, whose law order is code order;
#: the sorted digests were recorded on the element engine before laws held int codes
PINNED_LAWS = {
    "f2": (F2, F2_GENS, 9, "de6c0392571237d058a5802234129046e9f893f8bed4f02f1de06c1980b902d9"),
    # no step of the sequence but a and A has its inverse among the steps
    "f2-sequence": (F2, cw.F2_SEQUENCE, 5, "f128b52ca911105194c094bacc3b0338bdba55fdfb8e8d3154568eb11e870701"),
    "z2": (Z2, WALKS["z2"][1], 20, "30b50b0d61a09ec27327f666a895fc55b67532b566be99b3368715c9f25e2691"),
    "heisenberg": (*WALKS["heisenberg"][:2], 10, "2d5cdc61e5b02dab7741cc8d38a1a4bdb492eb1cb67754f7d7415e318c10138f"),
    "bs": (*WALKS["bs"][:2], 9, "f906902c95e6cc74f2ee028352b32e7126e0c35f201e03aadb3bcfabd9f94fc8"),
    "wreath": (*WALKS["wreath"][:2], 7, "0ec06946b9655bad95c39249b276baa1b68597784f779d689268cdda28c506d8"),
    "z": (Z1, Z_GENS, 30, "3edc8f556bf804d79f3f844efd65f0a1ed9f83e82d4110518f35f2f151965dcd"),
}


@pytest.mark.parametrize("walk", sorted(PINNED_LAWS))
def test_engine_laws_are_pinned(walk):
    # interning groups: translates filled from a step's inverse never change which ids
    # are new, nor the order in which they are interned
    group, gens, t_max, digest = PINNED_LAWS[walk]
    order = list if group.coder() is None else sorted
    for laws in (cw.walk_distributions(group, gens, t_max), cw.walk_laws(group, gens, t_max)):
        atoms = [(d.t, d.denominator, order(d.numerators())) for d in laws]
        assert hashlib.sha256(repr(atoms).encode()).hexdigest() == digest


class _TupleF2(cw.FreeGroup):
    """F2 without the code hooks: its laws intern the word tuples themselves."""

    code = translate_codes = decode = None


def test_engine_fills_inverse_translates():
    calls = []

    class CountingF2(_TupleF2):
        # the interning engine computes translates in batches, one per step
        def translates(self, xs, g):
            ys = super().translates(xs, g)
            calls.extend(ys)
            return ys

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
    # the law's keys are the words' int codes, ascending, and the codes hash apart
    codes = list(map(F2.code, words))
    assert len(set(codes)) == len(set(map(hash, codes))) == len(words)
    assert law._keys.dtype == np.int64 and law._keys.tolist() == codes == sorted(codes)


def _random_f2_word(rng, longest):
    """A random reduced word of 1 to ``longest`` letters."""
    w = [rng.choice(F2_GENS)[0]]
    for _ in range(rng.randint(1, longest) - 1):
        w.append(rng.choice([v for v in (1, -1, 2, -2) if v != -w[-1]]))
    return tuple(w)


def _random_f2_steps(rng, longest):
    """2 or 3 random reduced words of 1 to ``longest`` letters, their inverses, and the first word again."""
    words = [_random_f2_word(rng, longest) for _ in range(rng.randint(2, 3))]
    return tuple(words + [F2.inverse(w) for w in words] + words[:1])


@pytest.mark.parametrize("seed", range(12))
def test_engine_codes_match_a_tuple_index(seed):
    # the same laws, as maps, and the same lookups, from the int codes as from the interned tuples
    rng = random.Random(f"codes/{seed}")
    steps = _random_f2_steps(rng, longest=1 if seed % 3 == 0 else 3)
    eps, t_max = (None, 6) if seed % 2 else (1e-4, 10)
    coded = cw.walk_distributions(F2, steps, t_max, prune_eps=eps)
    plain = cw.walk_distributions(_TupleF2(), steps, t_max, prune_eps=eps)
    assert coded[-1].approximate == (eps is not None) == plain[-1].approximate
    for law, ref in zip(coded, plain):
        assert (law.denominator, dict(law.numerators())) == (ref.denominator, dict(ref.numerators()))
        assert [law.prob(x) for x in ref.support()[:50]] == [ref.prob(x) for x in ref.support()[:50]]


def test_engine_codes_cross_into_object_dtype():
    # four-letter steps reach words of 28 letters at t = 7, past the 27 letters of every int64 code
    steps = ((1, 1, 2, 2), (1, 2, 1, 2), (2, 2, 1, 1), (-1,))
    laws = []
    for group in (F2, _TupleF2()):
        step, law = cw.step_measure(group, steps), cw.SparseDistribution.point(group)
        for _ in range(7):
            law = cw.evolve(law, step)
        laws.append(law)
    law, ref = laws
    assert (law.denominator, dict(law.numerators())) == (ref.denominator, dict(ref.numerators()))
    assert law._keys.dtype == object and max(map(len, law.support())) == 28
    assert law._keys.tolist() == sorted(map(F2.code, law.support()))
    assert law.prob((1, 1, 2, 2) * 7) == Fraction(1, 4 ** 7) and (1,) * 40 not in law
    # a step by other atoms translates the object codes as they are
    again = cw.evolve(law, cw.step_measure(F2, steps[:1]))
    assert again._keys.dtype == object
    assert dict(again.numerators()) == dict(cw.evolve(ref, cw.step_measure(ref.group, steps[:1])).numerators())


def test_engine_lookups_of_non_words_miss():
    from centerwalk import groups

    step = cw.step_measure(F2, F2_GENS)
    law = cw.evolve(cw.evolve(cw.evolve(cw.SparseDistribution.point(F2), step), step), step)
    assert law._coder is F2 and (1, 2, 1) in law and law.prob((1, 2, 1)) == Fraction(1, 64)
    packs = set(groups._WORD_PACKS)
    for x in [(3,), (300,), (1, -1), "ab", b"\x01", [1], 5, (1,) * 10 ** 6]:
        assert law.prob(x) == 0 and x not in law
        with pytest.raises(cw.PreconditionError, match="outside the support"):
            law.log_prob(x)
    assert set(groups._WORD_PACKS) == packs
    assert (True, 2, True) in law  # equal to (1, 2, 1), as in a dict of tuples


@pytest.mark.parametrize("group, batch", [
    (Z1, ((1,), (2,), (3,), (-1,))),
    (F2, ((1,), (2,), (1, 1), (-1,))),
], ids=["no-key", "keyed"])
def test_engine_batch_leaves_dead_slots(group, batch):
    # the interning engine, on vectors and on words alike
    x = [group.validate(g) for g in batch]
    engine = _Translates(group, [x[0]])
    assert engine.ids([x[0], x[1]]).tolist() == [0, 1]
    # ids 2..6 are provisional: x[1] and x[0] were interned before the batch, the
    # second x[2] earlier in it; each of those leaves its slot dead
    assert engine.ids([x[1], x[2], x[2], x[0], x[3]]).tolist() == [1, 3, 3, 0, 6]
    assert engine.elements == [x[0], x[1], None, x[2], None, None, x[3]]
    assert sorted(engine.index.values()) == [0, 1, 3, 6]
    assert engine.ids([]).tolist() == [] and len(engine.elements) == 7


@pytest.mark.parametrize("walk", ["z2", "heisenberg", "wreath", "f2"])
def test_engine_ids_ascend_and_find_live_slots(walk):
    # every law's keys ascend and are its elements' codes; only the interning
    # engine (wreath) has slots, and some of them die
    group, gens, t_max = WALKS[walk]
    step = cw.step_measure(group, gens)
    law = cw.SparseDistribution.point(group)
    for _ in range(t_max):
        law = cw.evolve(law, step)
        coder, keys = law._coder, law._keys
        assert (keys[1:] > keys[:-1]).all()
        assert [coder.code(x) for x in law.support()] == keys.tolist()
    if walk == "wreath":
        live = [i for i, y in enumerate(coder.elements) if y is not None]
        assert live == sorted(coder.index.values()) and len(live) < len(coder.elements)
    else:
        assert not isinstance(coder, _Translates)
    far = group.identity
    for _ in range(t_max + 3):
        far = group.multiply(far, gens[0])
    for x in [far, None, "x", (1,) * 40]:
        assert x not in law and law.prob(x) == 0


#: the groups whose laws hold int codes: their own hooks (zmod, f2) or a packing
CODED = {
    "z": Z1, "z2": Z2, "z3": cw.IntegerLattice(3), "heisenberg": cw.Heisenberg(),
    "zmod7": cw.FiniteCyclic(7), "f2": F2,
}


def _interning(group):
    """The same group with no coder: its laws intern the elements, the reference engine."""
    ref = copy.copy(group)
    ref.coder = lambda: None
    return ref


def _random_steps(name, rng):
    """2 to 4 random steps of the group, mostly without their inverses, and the first again."""
    group = CODED[name]
    if name == "f2":
        steps = [_random_f2_word(rng, 3) for _ in range(rng.randint(2, 4))]
    elif name == "zmod7":
        steps = [rng.randrange(7) for _ in range(rng.randint(2, 4))]
    else:
        steps = [tuple(rng.randint(-2, 2) for _ in group.identity) for _ in range(rng.randint(2, 4))]
    return tuple(steps + steps[:1])


def _assert_same_laws(laws, refs):
    """Equal as maps, with the same t, denominators and ``approximate`` flags."""
    laws, refs = list(laws), list(refs)
    assert len(laws) == len(refs)
    for law, ref in zip(laws, refs):
        assert (law.t, law.denominator, law.approximate, len(law)) == (ref.t, ref.denominator, ref.approximate, len(ref))
        assert dict(law.numerators()) == dict(ref.numerators())
        assert law.support() == tuple(law._coder.decode(law._keys)) and (law._keys[1:] > law._keys[:-1]).all()


@pytest.mark.parametrize("eps", [None, 2e-3])
@pytest.mark.parametrize("name", sorted(CODED))
def test_coded_laws_match_the_element_engine(name, eps):
    group, ref = CODED[name], _interning(CODED[name])
    for seed in range(6):
        steps = _random_steps(name, random.Random(f"coded/{name}/{seed}"))
        t_max = 5 if name in ("f2", "z3", "heisenberg") else 8
        _assert_same_laws(cw.walk_distributions(group, steps, t_max, prune_eps=eps),
                          cw.walk_distributions(ref, steps, t_max, prune_eps=eps))


@pytest.mark.parametrize("name", ["z", "z2", "z3", "heisenberg"])
def test_packing_overflow_repacks_wider(name, monkeypatch):
    # fields of 2 bits (c: 3) hold coordinates -2..1: the walk re-packs as it spreads
    group, ref = CODED[name], _interning(CODED[name])
    shear = name == "heisenberg"
    narrow = Packing((2, 2, 3) if shear else (2,) * len(group.identity), shear=shear)
    monkeypatch.setattr(type(group), "coder", lambda self: narrow)
    for seed in range(4):
        steps = _random_steps(name, random.Random(f"narrow/{name}/{seed}"))
        laws = cw.walk_distributions(group, steps, 6)
        _assert_same_laws(laws, cw.walk_distributions(ref, steps, 6))
        assert laws[0]._coder is narrow
    assert laws[-1]._coder.widths > narrow.widths
    # one step past a field at once, and a re-pack that needs more than one doubling
    far = tuple(9 for _ in group.identity)
    _assert_same_laws(cw.walk_distributions(group, (far, group.identity), 3),
                      cw.walk_distributions(ref, (far, group.identity), 3))


@pytest.mark.parametrize("name, steps", [
    ("z", ((10 ** 30,), (-1,), (-1,))),
    ("z2", ((2 ** 40, 0), (0, -(2 ** 70)), (-1, 1))),
    ("z3", ((2 ** 19, 0, 0), (0, 0, 1), (-1, -1, -1))),
    ("heisenberg", ((10 ** 20, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0))),
    ("heisenberg", ((1, 0, 0), (0, 2 ** 20, 0), (0, 0, -1))),
    ("zmod7", (3, 5, 5)),
])
def test_codes_cast_into_object_ints(name, steps):
    group, ref = CODED[name], _interning(CODED[name])
    for eps in (None, 1e-2):
        laws = cw.walk_distributions(group, steps, 5, prune_eps=eps)
        _assert_same_laws(laws, cw.walk_distributions(ref, steps, 5, prune_eps=eps))
    if name != "zmod7":
        law = laws[-1]
        assert law._keys.dtype == object and law._coder.wide
        small = [x for x in law.support() if max(map(abs, x)) < 2 ** 62]
        assert small and all(law.prob(tuple(map(np.int64, x))) == law.prob(x) > 0 for x in small)


def test_zmod_codes_past_int64():
    group = cw.FiniteCyclic(2 ** 64 + 13)
    steps = (2 ** 64, 1, 2 ** 63)
    laws = cw.walk_distributions(group, steps, 5)
    _assert_same_laws(laws, cw.walk_distributions(_interning(group), steps, 5))
    assert laws[-1]._keys.dtype == object


@pytest.mark.parametrize("name", sorted(CODED))
def test_hand_made_coded_laws(name):
    group, ref = CODED[name], _interning(CODED[name])
    rng = random.Random(f"hand/{name}")
    steps = _random_steps(name, rng)
    start = {group.identity: 3}
    for g in steps[:3]:
        start[group.multiply(group.multiply(g, g), g)] = rng.randint(1, 4)
    if name not in ("zmod7", "f2"):
        # an atom past the default fields
        start[tuple(10 ** 25 * (-1) ** i for i, _ in enumerate(group.identity))] = 2
    den = sum(start.values())
    law, base = cw.SparseDistribution(group, 0, start, den), cw.SparseDistribution(ref, 0, start, den)
    assert dict(law.numerators()) == start and all(law.prob(x) == Fraction(n, den) for x, n in start.items())
    odd = {steps[0]: 3, steps[1]: 1}
    odd_law, odd_ref = cw.SparseDistribution(group, 1, odd, 4), cw.SparseDistribution(ref, 1, odd, 4)
    laws, refs = [law], [base]
    for step, step_ref in [(odd_law, odd_ref), (cw.step_measure(group, steps),) * 2, (odd_law, odd_ref)]:
        laws.append(cw.evolve(laws[-1], step))
        refs.append(cw.evolve(refs[-1], step_ref))
    _assert_same_laws(laws, refs)
    with pytest.raises(cw.StructuralError):
        cw.SparseDistribution(group, 0, {"x": 1}, 1)


NON_ELEMENTS = {
    "z": [(), (1, 2), (0.5,), ("1",), [0], None, "0", (2 ** 80,), 0],
    "z2": [(0,), (0, 0, 0), (0.5, 0), [0, 0], None, (2 ** 80, 0), (0, -(2 ** 90))],
    "z3": [(0, 0), (0, 0, 0.5), None, (0, 0, 2 ** 70)],
    "heisenberg": [(0, 0), (0, 0, 0, 0), (0.5, 0, 0), (2 ** 64, 0, 0), (0, 0, -(2 ** 64)), None],
    "zmod7": [7, -1, 3.5, "3", (3,), None, 2 ** 70],
    "f2": [(3,), (1, -1), "ab", b"\x01", [1], 5, None, (1,) * 40],
}


@pytest.mark.parametrize("name", sorted(CODED))
def test_coded_lookups_of_non_elements_miss(name):
    group = CODED[name]
    steps = _random_steps(name, random.Random(f"miss/{name}"))
    law = cw.walk_distributions(group, steps, 4)[-1]
    for x in NON_ELEMENTS[name]:
        assert x not in law and law.prob(x) == 0
        with pytest.raises(cw.PreconditionError, match="outside the support"):
            law.log_prob(x)
    for x, n in law.numerators():
        assert x in law and law.prob(x) == Fraction(n, law.denominator)
        # numpy ints equal to the coordinates find the atom, as in a dict
        y = tuple(map(np.int64, x)) if isinstance(x, tuple) else np.int64(x)
        assert law.prob(y) == law.prob(x)


def test_long_word_lookup_codes_nothing(monkeypatch):
    # a,a,b,B pruned reaches words past 27 letters: the law's keys are object ints
    from centerwalk import groups

    law = cw.walk_distributions(F2, ((1,), (1,), (2,), (-2,)), 40, prune_eps=1e-4)[-1]
    assert law._keys.dtype == object and max(map(len, law.support())) > 27
    word = max(law.support(), key=len)

    def no_coding(digits):
        raise AssertionError("a word longer than every word of the law was coded")

    monkeypatch.setattr(groups, "_base5", no_coding)
    for x in [(1,) * 10 ** 6, word + (1,) * 70]:
        assert x not in law and law.prob(x) == 0
    monkeypatch.undo()
    assert law.prob(word) > 0 and word + (1,) not in law


def test_unpruned_overflow_ends_before_the_sums():
    # numerators that cannot be added: the overflow must come from the merge's count alone
    class Unsummable:
        def __add__(self, other):
            raise AssertionError("a numerator sum was built")

        __radd__ = __mul__ = __rmul__ = __add__

    step = cw.step_measure(F2, F2_GENS)
    law = cw.walk_distributions(F2, F2_GENS, 4)[-1]
    law._weights = np.array([Unsummable() for _ in range(len(law))], dtype=object)
    with pytest.raises(cw.SupportOverflowError, match="support 364 exceeds 240"):
        cw.evolve(law, step, max_support=240)


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


def _fit_cv_loop(dists, distance, m=None, d_exp=0.0):
    """Reference: the former fit, one tuple per point and one Python-float margin per point."""
    import numpy as np
    from scipy.special import wrightomega

    if not math.isfinite(d_exp):
        raise cw.PreconditionError(f"d_exp must be finite, got {d_exp!r}")
    if callable(distance):
        dist_fn = distance
    else:
        def dist_fn(x):
            try:
                return distance[x]
            except KeyError:
                raise cw.PreconditionError(f"no distance recorded for support point {x!r}") from None
    mval = m if m is not None else (lambda x: 1.0)
    points = []
    approximate = False
    for d in dists:
        if d.t < 1:
            continue
        approximate = approximate or d.approximate
        for x, n in d.numerators():
            points.append((d.t, x, n / d.denominator, dist_fn(x), float(mval(x))))
    if not points:
        raise cw.PreconditionError("no distributions with t >= 1 given")
    if max(pt[0] for pt in points) ** (-abs(d_exp) / 2.0) < sys.float_info.min:
        raise cw.PreconditionError(f"t^(d_exp/2) leaves the normal float range at d_exp={d_exp!r}")
    t, p, dd, mv = (np.array([pt[i] for pt in points], dtype=float) for i in (0, 2, 3, 4))
    if not (mv.min() > 0 and mv.max() < math.inf):
        raise cw.PreconditionError(f"measure must be finite and positive, got values in [{mv.min()}, {mv.max()}]")
    a = dd * dd / t
    moving = a > 0
    with np.errstate(divide="ignore", over="ignore"):
        c = p * t ** (d_exp / 2.0) / mv
        c[moving] = a[moving] / wrightomega(np.log(a[moving]) - np.log(c[moving]))
    c_star = float(c.max())
    if not math.isfinite(c_star):
        raise cw.PreconditionError(f"no finite constant: t^(d_exp/2) / m(x) overflows at d_exp={d_exp!r}")
    for _ in range(64):
        margins = {(t, x): c_star * mv * t ** (-d_exp / 2.0) * math.exp(-dd * dd / (c_star * t)) - p
                   for t, x, p, dd, mv in points}
        if min(margins.values()) >= 0:
            return cw.CVReport(c_star=c_star, d_exponent=d_exp, margins=margins, approximate=approximate)
        c_star = math.nextafter(c_star, math.inf)
    raise cw.PreconditionError(f"C* = {c_star!r} cannot be certified: the Gaussian bound underflows at some point")


def _fit_outcome(fit, *args, **kwargs):
    """Everything a fit reports, margin bits included, or the type and message of what it raised."""
    try:
        r = fit(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)
    return (r.c_star.hex(), r.d_exponent, r.approximate, list(r.margins),
            [v.hex() for v in r.margins.values()])


_HEIS_GENS = ((1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0))
_Z2_GENS = ((1, 0), (-1, 0), (0, 1), (0, -1))
FIT_WALKS = {
    "z": lambda: (cw.walk_distributions(Z1, Z_GENS, 24), cw.word_ball(Z1, Z_GENS, 24)),
    "drifted-z": lambda: (cw.walk_distributions(Z1, DRIFT_GENS, 24), cw.word_ball(Z1, DRIFT_GENS, 24)),
    "z2": lambda: (cw.walk_distributions(Z2, _Z2_GENS, 12), cw.word_ball(Z2, _Z2_GENS, 12)),
    "heisenberg": lambda: (cw.walk_distributions(cw.Heisenberg(), _HEIS_GENS, 7),
                           cw.word_ball(cw.Heisenberg(), _HEIS_GENS, 7)),
    "heisenberg-pruned": lambda: (cw.walk_distributions(cw.Heisenberg(), _HEIS_GENS, 7, prune_eps=1e-3),
                                  cw.word_ball(cw.Heisenberg(), _HEIS_GENS, 7)),
}


@pytest.mark.parametrize("walk", sorted(FIT_WALKS))
def test_fit_cv_matches_the_point_loop_bit_for_bit(walk):
    dists, table = FIT_WALKS[walk]()
    weight = lambda x: 1 + abs(x[0]) / 3 + (x[-1] % 2) / 7  # noqa: E731
    for d_exp in (0.0, 2.0, 3.5):
        for distance in (table, table.__getitem__):
            for m in (None, weight):
                new = _fit_outcome(cw.fit_cv_constant, dists, distance, m=m, d_exp=d_exp)
                assert new == _fit_outcome(_fit_cv_loop, dists, distance, m=m, d_exp=d_exp)
                assert isinstance(new[0], str) and len(new[3]) == sum(len(d) for d in dists[1:])


def test_fit_cv_raises_what_the_point_loop_raises():
    # Z_GENS supports: t = 1 {1, -2}, t = 2 {2, -1, -4}, t = 3 {3, 0, -3, -6}, ...
    dists = cw.walk_distributions(Z1, Z_GENS, 6)
    table = cw.word_ball(Z1, Z_GENS, 12)

    def lacking(*xs):
        return {x: v for x, v in table.items() if x not in xs}

    def raising(at, exc):
        def m(x):
            if x == at:
                raise exc
            return 1.0 + (x[0] % 3)
        return m

    cases = [
        (lacking((3,)), None),
        (lacking((2,)), raising((3,), ZeroDivisionError("at 3"))),  # the distance fails first
        (lacking((3,)), raising((2,), ValueError("at 2"))),  # the measure fails first
        (lacking((2,)), raising((2,), ValueError("at 2"))),  # one point: the distance comes first
        (table, raising((-4,), ZeroDivisionError("at -4"))),
        # a KeyError from the measure or from a callable distance is not a missing table entry
        (table, raising((2,), KeyError((2,)))),
        (lacking((3,)), raising((2,), KeyError((3,)))),
        (lacking((3,)).__getitem__, None),
        (lacking((3,)).__getitem__, raising((3,), ValueError("at 3"))),
        ({**table, (2,): None}, None),
        (table, lambda x: "heavy" if x == (2,) else 1.0),
        (table, lambda x: None if x == (2,) else 1.0),
    ]
    for distance, m in cases:
        new = _fit_outcome(cw.fit_cv_constant, dists, distance, m=m)
        assert new == _fit_outcome(_fit_cv_loop, dists, distance, m=m)
        assert isinstance(new[0], type) and issubclass(new[0], Exception)
    missing = _fit_outcome(cw.fit_cv_constant, dists, lacking((2,)), m=raising((3,), ZeroDivisionError()))
    assert missing == (cw.PreconditionError, "no distance recorded for support point (2,)")
    assert _fit_outcome(cw.fit_cv_constant, dists, table, m=raising((2,), KeyError((2,))))[0] is KeyError
    assert _fit_outcome(cw.fit_cv_constant, dists, lacking((3,)).__getitem__)[0] is KeyError


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


def _ball_volumes(ball, radius):
    """V(0..radius) of a ``word_ball`` map of at least that radius."""
    sizes = collections.Counter(ball.values())
    return list(itertools.accumulate(sizes[t] for t in range(radius + 1)))


@pytest.mark.parametrize("seed", range(30))
def test_code_searches_match_the_element_ball(seed):
    # 1 to 4 generators of 1 to 4 letters, now and then a repeat or an inverse of an earlier one
    rng = random.Random(f"balls/{seed}")
    gens = [_random_f2_word(rng, 4)]
    for _ in range(rng.randint(0, 3)):
        pick = rng.random()
        gens.append(rng.choice(gens) if pick < 0.25 else F2.inverse(rng.choice(gens)) if pick < 0.5
                    else _random_f2_word(rng, 4))
    ball = cw.word_ball(F2, gens, 6)
    for r in range(7):
        assert cw.volume_growth(F2, gens, r) == _ball_volumes(ball, r)
    layers = collections.defaultdict(list)
    for x, d in ball.items():
        layers[d].append(x)
    for d, xs in layers.items():
        for x in rng.sample(xs, min(3, len(xs))):
            assert [cw.word_distance(F2, gens, x, r) for r in range(7)] == [d if d <= r else None for r in range(7)]


def test_code_searches_cross_into_object_codes():
    # a^28 and A^28 have codes past int64, so the layers beyond 27 letters go through object arrays
    assert F2.code((1,) * 28) >= 2 ** 63 and F2.code((-1,) * 28) >= 2 ** 63 > F2.code((1,) * 27)
    gens = ((1,),)
    assert cw.volume_growth(F2, gens, 40) == [2 * r + 1 for r in range(41)] == _ball_volumes(cw.word_ball(F2, gens, 40), 40)
    for x, d in [((1,) * 40, 40), ((-1,) * 33, 33), ((1,) * 41, None), ((2,), None), ((), 0)]:
        assert cw.word_distance(F2, gens, x, 40) == d


def test_code_searches_build_no_words(monkeypatch):
    gens = cw.F2_SEQUENCE
    ball = cw.word_ball(F2, gens, 3)
    far = max(ball, key=ball.get)

    def refuse(*args):
        raise AssertionError("a word was built")

    monkeypatch.setattr(cw.FreeGroup, "translates", refuse)
    monkeypatch.setattr(cw.FreeGroup, "multiply", refuse)
    assert cw.volume_growth(F2, gens, 3) == _ball_volumes(ball, 3)
    assert cw.word_distance(F2, gens, far, 3) == 3 and cw.word_distance(F2, gens, far, 2) is None
    with pytest.raises(AssertionError, match="a word was built"):
        cw.word_ball(F2, gens, 3)


@pytest.mark.parametrize("gens", [F2_GENS, cw.F2_SEQUENCE], ids=["basis", "sequence"])
def test_code_searches_overflow_as_the_element_path(gens, monkeypatch):
    # the same volumes or the same overflow message, budget by budget, as over the word tuples
    def outcome(run):
        try:
            return run()
        except cw.SupportOverflowError as exc:
            return str(exc)

    # one more generator keeps word_distance off the closed form of the free basis
    steps, far = gens + ((1, 2),), (1, 2, 1, 2, -1, -1, 2, 2)
    seen = set()
    for budget in (1, 2, 4, 5, 9, 16, 17, 18, 52, 53, 54, 352, 353, 3000, 10000):
        coded = outcome(lambda: cw.volume_growth(F2, gens, 3, max_support=budget))
        assert coded == outcome(lambda: cw.volume_growth(_TupleF2(), gens, 3, max_support=budget))
        monkeypatch.setitem(mg.bfs.__kwdefaults__, "max_support", budget)
        found = outcome(lambda: cw.word_distance(F2, steps, far, 6))
        assert found == outcome(lambda: cw.word_distance(_TupleF2(), steps, far, 6))
        seen |= {type(coded), type(found)}
    assert seen == {str, list, int}


def _replayed(seed, index, t, gens):
    """The steps of path ``index`` by the stream contract: one ``randrange`` call per step."""
    rng = path_rng(seed, index)
    return [gens[rng.randrange(len(gens))] for _ in range(t)]


@pytest.mark.parametrize("k", [*range(1, 10), 1000])
def test_path_indices_replay_randrange(k, monkeypatch):
    for t in (0, 1, 7, 500):
        for seed, index in ((0, 0), (5, 3), (2 ** 40, 17)):
            rng = path_rng(seed, index)
            got = list(itertools.chain.from_iterable(_path_indices(seed, index, t, k)))
            assert got == [rng.randrange(k) for _ in range(t)]
    # a long path draws its words in several calls, one chunk of at most _DRAW_WORDS
    # draws each: one call of 2**31 bits or more overflows
    monkeypatch.setattr("centerwalk.evolution._DRAW_WORDS", 3)
    for t in (1, 7, 500):
        rng = path_rng(9, 4)
        chunks = list(_path_indices(9, 4, t, k))
        assert all(len(c) <= 3 for c in chunks)
        assert list(itertools.chain.from_iterable(chunks)) == [rng.randrange(k) for _ in range(t)]


def _gens(k):
    return tuple((j,) for j in range(k))


@pytest.mark.parametrize("k", range(1, 9))
def test_sample_steps_replay_the_streams(k):
    gens = _gens(k)
    for t in (0, 1, 7, 300, 5000):
        rows = range(5, 5 + (3 if t == 5000 else 40))
        got = [list(steps) for steps in _sample_steps(gens, t, 17, rows)]
        assert got == [_replayed(17, i, t, gens) for i in rows]
    # a slice of a sample replays its own rows
    paths = cw.mc_sample(Z1, gens, t=30, n_paths=12, seed=3)[7:1:-2]
    assert [[b[0] - a[0] for a, b in zip(p, p[1:])] for p in paths] == \
        [[g[0] for g in _replayed(3, i, 30, gens)] for i in (7, 5, 3)]


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_sample_steps_fallbacks_replay_the_streams(k, monkeypatch):
    gens, rows = _gens(k), range(2, 42)
    want = {t: [_replayed(8, i, t, gens) for i in rows] for t in (1, 7, 300)}

    def sample(t):
        return [list(steps) for steps in _sample_steps(gens, t, 8, rows)]

    # no slack: about half the block draws come up short and replay on their own
    monkeypatch.setattr("centerwalk.evolution._SLACK_SDS", 0)
    assert all(sample(t) == want[t] for t in want)
    # a block too small for one path, and small draw chunks: every path is a chain of chunks
    monkeypatch.setattr("centerwalk.evolution._BLOCK_WORDS", 8)
    monkeypatch.setattr("centerwalk.evolution._DRAW_WORDS", 5)
    assert all(sample(t) == want[t] for t in want)


def _fold_endpoints(group, gens, t, n_paths, seed):
    """Reference: each path's replayed steps folded by ``multiply``, one path at a time."""
    return [functools.reduce(group.multiply, _replayed(seed, i, t, gens), group.identity) for i in range(n_paths)]


@pytest.mark.parametrize("group, gens, t", [
    (Z1, Z_GENS, 33),
    (Z2, ((1, 0), (-1, 0), (0, 1), (0, -1), (2, -3)), 200),
    (F2, F2_GENS, 60),
    (cw.WreathZZ(), cw.WREATH_LAMP_PAIR, 80),
])
def test_mc_endpoints_match_a_per_path_fold(group, gens, t, monkeypatch):
    want = _fold_endpoints(group, gens, t, 60, 12)
    assert _mc_endpoints(group, gens, t, 60, 12) == want
    monkeypatch.setattr("centerwalk.evolution._BLOCK_WORDS", 64)
    monkeypatch.setattr("centerwalk.evolution._DRAW_WORDS", 16)
    assert _mc_endpoints(group, gens, t, 60, 12) == want


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
    (Z1, ((5,),), 17),  # K = 1: every draw is 0
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


def _lamp_identity_loop(paths):
    """Reference: the former lamp check, with its per-step parity, sum and mass tests and final sign scans."""
    from bisect import bisect_left

    wr = cw.WreathZZ()
    for path in paths:
        if not path or path[0] != wr.identity:
            raise cw.PreconditionError("paths must start at the identity")
        mirror = {}
        odd_sum = even_sum = mass = 0
        prev_shift = 0
        for s, x in enumerate(path):
            shift, lamps = x
            if s > 0:
                delta = shift - prev_shift
                if delta == 2:
                    pos, inc = prev_shift + 1, 1
                elif delta == -2:
                    pos, inc = prev_shift, -1
                else:
                    raise cw.PreconditionError(
                        f"step {s} changes the shift by {delta}; paths must come from the lamp pair"
                    )
                mirror[pos] = mirror.get(pos, 0) + inc
                if pos % 2 != 0:
                    odd_sum += inc
                else:
                    even_sum += inc
                mass += 1 if mirror[pos] * inc > 0 else -1
                if len(lamps) != len(mirror):
                    raise cw.PreconditionError(
                        f"step {s} changes more than one lamp; paths must come from the lamp pair"
                    )
                i = bisect_left(lamps, (pos,))
                if i == len(lamps) or lamps[i][0] != pos or lamps[i][1] != mirror[pos]:
                    raise cw.PreconditionError(
                        f"step {s} is not a single-lamp update; paths must come from the lamp pair"
                    )
            prev_shift = shift
            if shift % 2 != 0:
                return False
            if odd_sum - even_sum != s or mass != s:
                return False
        final = path[-1]
        wr.validate(final)
        if tuple(sorted(mirror.items())) != final[1]:
            raise cw.PreconditionError("path is inconsistent with its own increments")
        if any(v <= 0 for p, v in final[1] if p % 2 != 0):
            return False
        if any(v >= 0 for p, v in final[1] if p % 2 == 0):
            return False
    return True


def _lamp_outcome(check, paths):
    try:
        return check(paths)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


#: one-element perturbations of a wreath path element (shift, lamps)
LAMP_PERTURBATIONS = {
    "extra lamp": lambda x, r: (x[0], tuple(sorted(x[1] + ((max((p for p, _ in x[1]), default=0) + 1 + r, 1),)))),
    "shift off by 2": lambda x, r: (x[0] + (2 if r % 2 else -2), x[1]),
    "changed lamp value": lambda x, r: (x[0], tuple((p, v + 1) if j == r % len(x[1]) else (p, v)
                                                    for j, (p, v) in enumerate(x[1]))) if x[1] else x,
    "3-tuple lamp entry": lambda x, r: (x[0], tuple((p, v, 0) if j == r % len(x[1]) else (p, v)
                                                    for j, (p, v) in enumerate(x[1]))) if x[1] else x,
}


def _perturbed(path, kind, at, r):
    return [LAMP_PERTURBATIONS[kind](x, r) if s == at else x for s, x in enumerate(path)]


def test_wreath_lamp_identity_matches_the_former_loop():
    wr = cw.WreathZZ()
    cases = [[[wr.identity]], [[]], [[(2, ((1, 1),))]], [[(0, ()), (2, ((1, 1),)), (0, ((0, -1), (1, 1)))]]]
    for t in (0, 1, 2, 5, 40, 400):
        sample = cw.mc_sample(wr, cw.WREATH_LAMP_PAIR, t=t, n_paths=6, seed=t)
        cases.append(list(sample))
        for path in sample:
            for kind in LAMP_PERTURBATIONS:
                for at in {0, 1, t // 2, t}:
                    cases.append([path, _perturbed(path, kind, at, t + at)])
    cases += [list(cw.mc_sample(wr, ((1, ()), (-1, ())), t=t, n_paths=3, seed=1)) for t in (0, 1, 9)]
    outcomes = set()
    for paths in cases:
        got = _lamp_outcome(cw.wreath_lamp_identity, paths)
        assert got == _lamp_outcome(_lamp_identity_loop, paths)
        outcomes.add(got if got is True else got[0])
    # every kind of end is covered: the identity holds, a step is refused, a final element is invalid
    assert outcomes == {True, cw.PreconditionError, cw.StructuralError}


def test_the_former_lamp_loop_never_returns_false():
    # its parity, sum, mass and sign tests are implied by the per-step checks and the final mirror
    wr, rng = cw.WreathZZ(), random.Random(2027)
    seen = set()
    for n in range(2000):
        t = rng.randrange(60)
        path = cw.mc_sample(wr, cw.WREATH_LAMP_PAIR, t=t, n_paths=n + 1, seed=5)[n]
        if rng.random() < 0.1:
            path = _perturbed(path, rng.choice(sorted(LAMP_PERTURBATIONS)), rng.randrange(t + 1), rng.randrange(99))
        got = _lamp_outcome(_lamp_identity_loop, [path])
        assert got is not False
        assert got == _lamp_outcome(cw.wreath_lamp_identity, [path])
        seen.add(got if got is True else got[0])
    assert True in seen and len(seen) > 1


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


# -- the collector pause ------------------------------------------------------

WREATH = cw.WreathZZ()

#: one small call of each bulk pass that pauses the cyclic collector
PAUSED_PASSES = {
    "walk_distributions": lambda: cw.walk_distributions(F2, F2_GENS, 6),
    "abandoned walk_laws": lambda: list(itertools.islice(cw.walk_laws(F2, F2_GENS, 50), 3)),
    "word_ball": lambda: cw.word_ball(F2, F2_GENS, 5),
    "volume_growth": lambda: cw.volume_growth(Z2, ((1, 0), (0, 1)), 8),
    "F2 volume_growth": lambda: cw.volume_growth(F2, cw.F2_SEQUENCE, 4),
    "cayley_kernel": lambda: cw.cayley_kernel(Z2, ((1, 0), (-1, 0), (0, 1), (0, -1)), radius=4),
    "mc_sample replay": lambda: list(cw.mc_sample(WREATH, cw.WREATH_LAMP_PAIR, t=60, n_paths=4, seed=2)),
    "entropy_estimate": lambda: cw.entropy_estimate(F2, F2_GENS, t=5, n_paths=20, seed=1),
    "fit_cv_constant": lambda: cw.fit_cv_constant(cw.walk_distributions(Z1, SRW_GENS, 12), lambda x: abs(x[0])),
    "wreath_lamp_identity": lambda: cw.wreath_lamp_identity(
        cw.mc_sample(WREATH, cw.WREATH_LAMP_PAIR, t=60, n_paths=4, seed=2)),
}

#: passes that stop at their support budget
OVERFLOWING_PASSES = {
    "word_ball": lambda: cw.word_ball(F2, F2_GENS, 9, max_support=50),
    "F2 volume_growth": lambda: cw.volume_growth(F2, F2_GENS, 9, max_support=50),
    "walk_distributions": lambda: cw.walk_distributions(F2, F2_GENS, 9, max_support=50),
    "walk_laws": lambda: list(cw.walk_laws(F2, F2_GENS, 9, max_support=50)),
    "evolve": lambda: cw.evolve(cw.SparseDistribution.point(F2), cw.step_measure(F2, F2_GENS), max_support=2),
}


@pytest.fixture
def collector():
    """Restore the collector's state after the test, whatever the test set it to."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_bulk_passes_restore_the_collector(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    for name, run in PAUSED_PASSES.items():
        run()
        assert gc.isenabled() is enabled, name
    for name, run in OVERFLOWING_PASSES.items():
        with pytest.raises(cw.SupportOverflowError):
            run()
        assert gc.isenabled() is enabled, name


def test_bulk_passes_make_no_cycles(collector):
    # the premise that makes the pause safe: reference counting alone frees
    # everything these passes drop, so a collection right after one finds nothing
    gc.disable()
    for name, run in PAUSED_PASSES.items():
        run()  # the first call may import modules and fill caches
        gc.collect()
        run()
        assert gc.collect() == 0, name
