"""Group arithmetic: axioms, canonical forms, and independent oracles."""

import functools
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import centerwalk as cw
from centerwalk.groups import split_generator_literals


def random_element(group, rng, length=8):
    gens = GENS[group.spec_string]
    out = group.identity
    for _ in range(rng.randrange(length + 1)):
        g = rng.choice(gens)
        out = group.multiply(out, g if rng.random() < 0.5 else group.inverse(g))
    return out


GROUPS = {
    "z:2": cw.IntegerLattice(2),
    "heisenberg": cw.Heisenberg(),
    "bs:2": cw.BaumslagSolitar(2),
    "bs:3": cw.BaumslagSolitar(3),
    "wreath": cw.WreathZZ(),
    "f2": cw.FreeGroup(),
    "zmod:5": cw.FiniteCyclic(5),
}

GENS = {
    "z:2": ((1, 0), (0, 1)),
    "heisenberg": ((1, 0, 0), (0, 1, 0)),
    "bs:2": ((0, 0, 1), (0, 1, 0)),
    "bs:3": ((0, 0, 1), (0, 1, 0)),
    "wreath": ((1, ()), (0, ((0, 1),))),
    "f2": ((1,), (2,)),
    "zmod:5": (1, 2),
}


@pytest.mark.parametrize("spec", sorted(GROUPS))
def test_group_axioms(spec):
    group = GROUPS[spec]
    rng = random.Random(f"axioms/{spec}")
    e = group.identity
    for _ in range(1000):
        x = random_element(group, rng)
        y = random_element(group, rng)
        z = random_element(group, rng)
        assert group.multiply(group.multiply(x, y), z) == group.multiply(x, group.multiply(y, z))
        assert group.multiply(x, group.inverse(x)) == e
        assert group.multiply(group.inverse(x), x) == e
        assert group.multiply(x, e) == x and group.multiply(e, x) == x


@pytest.mark.parametrize("spec", sorted(s for s, g in GROUPS.items() if g.norm is not None))
def test_norm_laws(spec):
    # the laws c1_search's norm prune rests on: N(e) = 0, N(x^-1) = N(x), N(xy) <= N(x) + N(y)
    group = GROUPS[spec]
    norm = group.norm
    rng = random.Random(f"norm/{spec}")
    assert norm(group.identity) == 0
    for _ in range(1000):
        x = random_element(group, rng, length=20)
        y = random_element(group, rng, length=20)
        assert type(norm(x)) is int and norm(x) >= 0
        assert norm(group.inverse(x)) == norm(x)
        assert norm(group.multiply(x, y)) <= norm(x) + norm(y)


def test_norm_registrations():
    assert {s for s, g in GROUPS.items() if g.norm is not None} == {"f2", "wreath"}
    for group in (cw.Heisenberg(), cw.BaumslagSolitar(2), cw.FiniteCyclic(5)):
        assert group.norm is None
    # the L1 norm of the integer triples is not subadditive on the Heisenberg group:
    # (1, 0, 0)(0, 1, 0) is (1, 1, 1), of L1 3 > 1 + 1
    h = cw.Heisenberg()
    assert sum(map(abs, h.multiply((1, 0, 0), (0, 1, 0)))) == 3
    wr = cw.WreathZZ()
    assert wr.norm((2, ((1, 1), (4, -1)))) == wr.distance_lower_bound((2, ((1, 1), (4, -1)))) == 4
    assert cw.FreeGroup().norm((1, 2, -1)) == 3


@pytest.mark.parametrize("spec", sorted(GROUPS))
def test_canonical_forms_validate(spec):
    group = GROUPS[spec]
    rng = random.Random(f"canonical/{spec}")
    for _ in range(300):
        x = random_element(group, rng)
        assert group.validate(x) == x
        assert group.validate(group.inverse(x)) == group.inverse(x)


def test_heisenberg_matrix_oracle():
    import numpy as np

    group = cw.Heisenberg()

    def mat(g):
        a, b, c = g
        return np.array([[1, a, c], [0, 1, b], [0, 0, 1]], dtype=object)

    rng = random.Random(5)
    for _ in range(300):
        x = random_element(group, rng)
        y = random_element(group, rng)
        p = group.multiply(x, y)
        assert (mat(p) == mat(x) @ mat(y)).all()
    # the commutator of the two standard generators is central
    x, y = (1, 0, 0), (0, 1, 0)
    comm = group.product([x, y, group.inverse(x), group.inverse(y)])
    assert comm == (0, 0, 1)
    for _ in range(100):
        z = random_element(group, rng)
        assert group.multiply(comm, z) == group.multiply(z, comm)


def test_bs_relation_and_normal_form():
    for q in (2, 3):
        group = cw.BaumslagSolitar(q)
        a, b = group.gen_a, group.gen_b
        lhs = group.multiply(a, b)
        rhs = group.multiply(group.product([b] * q), a)
        assert lhs == rhs
        # normal form is minimal: q never divides m when l > 0
        rng = random.Random(q)
        for _ in range(500):
            x = random_element(group, rng, length=12)
            l, m, k = x
            assert l >= 0 and (l == 0 or m % q != 0)


def test_bs_affine_oracle():
    # x -> q^s x + r with r = m / q^l, under functional composition
    for q in (2, 3):
        group = cw.BaumslagSolitar(q)

        def affine(g):
            l, m, k = g
            return (k, Fraction(m, q ** l))

        def compose(f1, f2):
            s1, r1 = f1
            s2, r2 = f2
            return (s1 + s2, r1 + Fraction(q) ** s1 * r2)

        rng = random.Random(11 * q)
        letters = [group.gen_a, group.gen_b, group.inverse(group.gen_a), group.inverse(group.gen_b)]
        for _ in range(500):
            word = [rng.choice(letters) for _ in range(rng.randrange(1, 14))]
            prod = group.product(word)
            oracle = (0, Fraction(0))
            for w in word:
                oracle = compose(oracle, affine(w))
            assert affine(prod) == oracle


def test_wreath_action_convention():
    group = cw.WreathZZ()
    g1, g2 = cw.WREATH_LAMP_PAIR
    x = group.multiply(group.identity, g1)
    assert x == (2, ((1, 1),))
    x = group.multiply(x, g1)  # second lamp lands at 2 + 1 = 3
    assert x == (4, ((1, 1), (3, 1)))
    x = group.multiply(x, g2)  # lamp -1 lands at the current shift 4
    assert x == (2, ((1, 1), (3, 1), (4, -1)))
    assert group.multiply(x, group.inverse(x)) == group.identity


def random_wreath(rng):
    """A wreath element drawn directly: few slots and small values, so sums often cancel."""
    lamps = {rng.randrange(-6, 7): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randrange(8))}
    return (rng.randrange(-4, 5), tuple(sorted(lamps.items())))


def test_wreath_multiply_matches_dict_and_sort():
    def dict_and_sort(x, y):
        lamps = dict(x[1])
        for p, v in y[1]:
            lamps[p + x[0]] = lamps.get(p + x[0], 0) + v
        return (x[0] + y[0], tuple(sorted((p, v) for p, v in lamps.items() if v != 0)))

    group = cw.WreathZZ()
    rng = random.Random(2024)
    for _ in range(3000):
        x, y = random_wreath(rng), random_wreath(rng)
        for a, b in ((x, y), (x, group.inverse(x)), (x, group.multiply(group.inverse(x), y))):
            got = group.multiply(a, b)
            assert got == dict_and_sort(a, b)
            assert group.validate(got) is got


@pytest.mark.parametrize("spec", sorted(GROUPS))
def test_product_matches_multiply_fold(spec):
    group = GROUPS[spec]
    rng = random.Random(f"product/{spec}")
    for _ in range(300):
        word = [random_element(group, rng, length=4) for _ in range(rng.randrange(12))]
        if word and rng.random() < 0.5:
            # a suffix that undoes the word: free letters cancel, wreath lamps sum to 0
            word += [group.inverse(x) for x in reversed(word[rng.randrange(len(word)):])]
        expected = functools.reduce(group.multiply, word, group.identity)
        assert group.product(word) == expected
        assert group.product(iter(word)) == expected
    assert group.product([]) == group.identity
    wr, f2 = cw.WreathZZ(), cw.FreeGroup()
    assert wr.product([(1, ((0, 1),)), (0, ((-1, -1),))]) == (1, ())
    assert f2.product([(1, 2), (-2,), (-1, 1)]) == (1,)


@pytest.mark.parametrize("spec", sorted(GROUPS))
def test_translates_match_multiply(spec):
    group = GROUPS[spec]
    rng = random.Random(f"translates/{spec}")
    xs = [random_element(group, rng) for _ in range(300)]
    gens = GENS[spec]
    # the generators and their inverses (one F2 letter, a wreath shift without lamps), longer
    # random steps, inverses of some xs (an F2 step that cancels all of x) and the identity
    steps = [*gens, *map(group.inverse, gens), *(random_element(group, rng, length=4) for _ in range(20)),
             *map(group.inverse, xs[:10]), group.identity]
    for g in steps:
        expected = [group.multiply(x, g) for x in xs]
        assert group.translates(xs, g) == expected
        assert group.translates(iter(xs), g) == expected
    assert group.translates([], gens[0]) == []
    if spec == "f2":
        # one-letter and longer steps, each cancelling into some xs and not into others
        for g in ((1,), (-2,), (1, 2), (-2, -1, -1)):
            lengths = {len(y) - len(x) for x, y in zip(xs, group.translates(xs, g))}
            assert len(g) in lengths and min(lengths) < len(g)
    if spec == "wreath":
        assert group.translates([(2, ((0, 3),))], (1, ())) == [(3, ((0, 3),))]
        assert group.translates([(2, ((0, 3),))], (0, ((-2, -3),))) == [(2, ())]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lattice_translates_by_columns_match_multiply(d):
    # coordinates past 2**64, one- and two-row batches, empty batches and iterator input
    z = cw.IntegerLattice(d)
    rng = random.Random(f"columns/{d}")
    big = 2 ** 64
    xs = [tuple(rng.randint(-3 * big, 3 * big) for _ in range(d)) for _ in range(40)]
    for g in [z.identity, (big + 1,) * d, tuple(rng.randint(-5, 5) for _ in range(d))]:
        for batch in (xs, xs[:1], xs[:2]):
            expected = list(map(z.multiply, batch, itertools.repeat(g)))
            assert z.translates(batch, g) == expected == z.translates(iter(batch), g)
            assert all(type(y) is tuple and len(y) == d for y in z.translates(batch, g))
        assert z.translates([], g) == [] == z.translates(iter(()), g)


def test_lattice_product_folds_a_long_path_in_bounded_memory():
    # a long sampled path folds chunk by chunk; unpacked whole into zip(), 10**6 steps held about 72 MB
    z = cw.IntegerLattice(3)
    steps = ((1, 0, 0), (0, -1, 0), (0, 0, 1), (-1, 0, 0))
    tracemalloc.start()
    try:
        total = z.product(steps[i % 3] for i in range(10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total == (333_334, -333_333, 333_333)
    assert peak < 8_000_000
    # the chunk boundaries are seamless
    chunk = cw.groups._FOLD_CHUNK
    for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 5):
        path = [steps[(i * 7) % 4] for i in range(n)]
        assert z.product(iter(path)) == functools.reduce(z.multiply, path, z.identity)


def test_lattice_product_folds_lists_of_any_length():
    # a list of at most _FOLD_CHUNK steps is folded as it is; a longer one in chunks like any iterable
    z, chunk = cw.IntegerLattice(2), cw.groups._FOLD_CHUNK
    for n in (0, 1, 33, chunk, chunk + 1):
        path = [((i * 5) % 3 - 1, (i * 7) % 5 - 2) for i in range(n)]
        assert z.product(path) == z.product(iter(path)) == functools.reduce(z.multiply, path, z.identity)


def test_free_group_reduction():
    f2 = cw.FreeGroup()
    a, b = (1,), (2,)
    assert f2.multiply(a, f2.inverse(a)) == ()
    w = f2.parse_element("abA B")
    assert w == (1, 2, -1, -2)
    assert f2.format_element(w) == "abAB"
    assert f2.parse_element("aA") == ()


def test_free_group_multiply_matches_a_cancellation_stack():
    f2, rng = cw.FreeGroup(), random.Random(7)

    def word(n):
        w = []
        while len(w) < n:
            letter = rng.choice((1, -1, 2, -2))
            if not w or w[-1] != -letter:
                w.append(letter)
        return tuple(w)

    def stack(x, y):
        buf = list(x)
        for letter in y:
            if buf and buf[-1] == -letter:
                buf.pop()
            else:
                buf.append(letter)
        return tuple(buf)

    for _ in range(3000):
        x = word(rng.randrange(8))
        # y often starts with the inverse of a suffix of x, so that some or all cancels
        y = f2.inverse(x[rng.randrange(len(x) + 1):]) + word(rng.randrange(4)) if rng.random() < 0.7 else word(6)
        y = stack((), y)
        assert f2.multiply(x, y) == stack(x, y) == f2.validate(f2.multiply(x, y))
    assert f2.multiply((1, 2), (-2, -1)) == () and f2.multiply((), ()) == ()


def test_free_group_key_is_injective_on_words():
    f2 = cw.FreeGroup()
    words = [w for n in range(5) for w in itertools.product((1, -1, 2, -2), repeat=n)
             if all(w[i] != -w[i + 1] for i in range(n - 1))]
    keys = [f2.key(w) for w in words]
    assert len(set(keys)) == len(words) and all(type(k) is bytes for k in keys)
    assert f2.key((1, -2)) == b"\x01\xfe"
    long = (1,) * 65  # beyond the packed lengths a word is its own key
    assert f2.key(long) is long and cw.Group.key is None


def test_free_group_code_is_injective_and_follows_translates():
    import numpy as np

    f2 = cw.FreeGroup()
    words = [w for n in range(7) for w in itertools.product((1, -1, 2, -2), repeat=n)
             if all(w[i] != -w[i + 1] for i in range(n - 1))]
    codes = [f2.code(w) for w in words]
    assert len(words) == 1457 and len(set(codes)) == len(words) and all(type(c) is int for c in codes)
    assert f2.code(()) == 0 and f2.code((1, -1, 2, -2)) == 1 * 125 + 2 * 25 + 3 * 5 + 4
    # each word's code is the one-letter path from the empty word's 0, in int64 and in object codes
    for dtype in (np.int64, object):
        path = np.zeros(len(words), dtype=dtype)
        for k in range(6):
            for letter in (1, -1, 2, -2):
                rows = [i for i, w in enumerate(words) if len(w) > k and w[k] == letter]
                path[rows] = f2.translate_codes(path[rows], (letter,))
        assert path.dtype == dtype and path.tolist() == codes
    # a step of several letters cancels as multiply does
    for g in [(-1,), (2, 1), (-2, -1, 2), (1, 2, -1, -2, 1)]:
        assert f2.translate_codes(np.array(codes), g).tolist() == [f2.code(f2.multiply(w, g)) for w in words]
    # a word of n letters has a code of at least 2**(n-1): past 64 letters none is below 2**63
    assert f2.code((1,) * 65, below=2 ** 63) is None and f2.code((1,) * 64, below=2 ** 63) == (5 ** 64 - 1) // 4
    long = (1, 2) * 3000  # past the digits that one int() call reads
    assert f2.code(long) == functools.reduce(lambda c, d: 5 * c + d, (1, 3) * 3000, 0)


def test_abelianization_images():
    f2 = cw.FreeGroup()
    comm = f2.parse_element("aabab AABAB".replace(" ", ""))
    # [a^2, bab] lies in the commutator subgroup
    assert f2.abelianization(comm).free == (0, 0)
    wr = cw.WreathZZ()
    g1 = (2, ((1, 1),))
    assert wr.abelianization(g1).free == (2, 1)
    z2 = cw.IntegerLattice(2)
    assert z2.abelianization(z2.identity).free == (0, 0)
    h = cw.Heisenberg()
    assert h.abelianization((3, -4, 99)).free == (3, -4)
    bs = cw.BaumslagSolitar(3)
    img = bs.abelianization(bs.multiply(bs.gen_b, bs.gen_a))
    assert img.free == (1,) and img.torsion == (1,) and img.moduli == (2,)
    z5 = cw.FiniteCyclic(5)
    assert z5.abelianization(3).torsion == (3,)


def test_finite_cyclic_orders():
    z6 = cw.FiniteCyclic(6)
    assert [z6.order(x) for x in z6.elements()] == [1, 6, 3, 2, 3, 6]


def test_group_from_spec_and_parsing():
    g = cw.group_from_spec("z:3")
    assert isinstance(g, cw.IntegerLattice) and g.d == 3
    assert g.parse_element("[1, 0, -2]") == (1, 0, -2)
    assert isinstance(cw.group_from_spec("bs:4"), cw.BaumslagSolitar)
    wr = cw.group_from_spec("wreath")
    assert wr.parse_element("(2, {1: 1})") == (2, ((1, 1),))
    with pytest.raises(cw.InputParseError):
        cw.group_from_spec("so3")
    with pytest.raises(cw.InputParseError):
        cw.group_from_spec("bs:x")
    with pytest.raises(cw.InputParseError):
        wr.parse_element("(2, [1])")


def test_element_codecs_round_trip():
    bs = cw.BaumslagSolitar(2)
    assert bs.parse_element("ab") == (0, 2, 1)
    assert bs.format_element((0, 2, 1)) == "b^2 a"
    assert bs.format_element((1, 1, 0)) == "a^-1 b a"
    assert bs.format_element(bs.identity) == "id"
    assert bs.parse_element("a^-1 b a") == (1, 1, 0)
    assert bs.parse_element("b^2 a") == bs.parse_element("ab") == (0, 2, 1)
    assert bs.parse_element(" id ") == bs.identity
    assert cw.FreeGroup().parse_element("id") == ()
    with pytest.raises(cw.InputParseError):
        bs.parse_element("aX")
    z7 = cw.FiniteCyclic(7)
    assert z7.parse_element("-1") == 6
    with pytest.raises(cw.InputParseError):
        z7.parse_element("1.5")
    wr = cw.WreathZZ()
    text = wr.format_element((2, ((1, 1),)))
    assert text == "(2, {1: 1})"
    assert wr.parse_element(text) == (2, ((1, 1),))

    rng = random.Random("codecs")

    def vector(d):
        return lambda: tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(d))

    def free_word():
        # a reduced word, the identity "id" included
        word = []
        for _ in range(rng.randint(0, 12)):
            word.append(rng.choice([v for v in (1, -1, 2, -2) if not word or v != -word[-1]]))
        return tuple(word)

    draws = [
        (cw.IntegerLattice(1), vector(1)),
        (cw.IntegerLattice(3), vector(3)),
        (cw.Heisenberg(), vector(3)),
        (wr, lambda: random_element(wr, rng, length=20)),
        (bs, lambda: random_element(bs, rng, length=20)),
        (cw.BaumslagSolitar(3), lambda: random_element(cw.BaumslagSolitar(3), rng, length=20)),
        (cw.FreeGroup(), free_word),
        (z7, lambda: rng.randrange(7)),
    ]
    for group, draw in draws:
        for _ in range(200):
            x = group.validate(draw())
            assert group.parse_element(group.format_element(x)) == x, (group, x)
    assert cw.IntegerLattice(1).parse_element("-4") == (-4,)

    for q in (2, 3):
        bs = cw.BaumslagSolitar(q)
        letters = {"a": bs.gen_a, "A": bs.inverse(bs.gen_a), "b": bs.gen_b, "B": bs.inverse(bs.gen_b)}
        for _ in range(200):
            word = "".join(rng.choice("aAbB ") for _ in range(rng.randrange(16)))
            expected = functools.reduce(bs.multiply, (letters[c] for c in word if c != " "), bs.identity)
            assert bs.validate(bs.parse_element(word)) == expected, word

    bad = [
        (cw.IntegerLattice(3), "[1, 2]"),
        (cw.IntegerLattice(3), "5"),
        (cw.IntegerLattice(1), "[1, 2]"),
        (cw.Heisenberg(), "[1, 2, 3, 4]"),
        (cw.IntegerLattice(2), "[1, 'x']"),
        (cw.IntegerLattice(2), "[True, 0]"),
        (cw.Heisenberg(), "(0, 0, False)"),
        (cw.WreathZZ(), "(True, {})"),
        (cw.WreathZZ(), "(0, {1.5: 1})"),
        (cw.WreathZZ(), "(0, {1: True})"),
        (cw.WreathZZ(), "(0, {'a': 1})"),
        (cw.FreeGroup(), "a^2"),
        (cw.BaumslagSolitar(2), "a^"),
        # the product would build 2**20000, past the digits any exponent can print with
        (cw.BaumslagSolitar(2), "a^-20000 b"),
        (cw.BaumslagSolitar(2), "b^" + "9" * 5000),
        # a b-exponent that format_element could not print
        (cw.BaumslagSolitar(2), "a^14000 b^1" + "0" * 4290),
        (cw.Heisenberg(), "[1.5, 0, 0]"),
        (cw.FreeGroup(), "abc"),
        (cw.BaumslagSolitar(3), "ab-"),
        (z7, "1.5"),
        (z7, "True"),
    ]
    for group, text in bad:
        with pytest.raises(cw.InputParseError):
            group.parse_element(text)
    for x in ((1, 4, 0), (-1, 1, 0), (2, 0, 1)):
        with pytest.raises(cw.StructuralError, match="non-canonical"):
            cw.BaumslagSolitar(2).validate(x)
    for group, x in ((cw.IntegerLattice(2), (True, 0)), (cw.WreathZZ(), (0, ((1, True),))),
                     (cw.FreeGroup(), (True,)), (z7, True)):
        with pytest.raises(cw.StructuralError):
            group.validate(x)
    with pytest.raises(cw.StructuralError):
        cw.step_measure(cw.FreeGroup(), [(True,), (-1,)])


def _bs_reference(q):
    # the normal-form formulas that build every power of q, zero terms included
    def normalize(l, m, k):
        if m == 0:
            return (0, 0, k)
        while l > 0 and m % q == 0:
            m, l = m // q, l - 1
        return (l, m, k)

    def multiply(x, y):
        (l1, m1, k1), (l2, m2, k2) = x, y
        big_l = max(l1, l2 - k1, 0)
        return normalize(big_l, m1 * q ** (big_l - l1) + m2 * q ** (big_l + k1 - l2), k1 + k2)

    def inverse(x):
        l, m, k = x
        e = l + k
        return normalize(e, -m, -k) if e >= 0 else normalize(0, -m * q ** (-e), -k)

    return multiply, inverse


def test_bs_zero_terms_build_no_power_of_q():
    class SmallPowers(int):
        # a q that refuses the huge powers that only a zero b-term would need
        def __pow__(self, n, mod=None):
            if n > 10 ** 4:
                raise OverflowError(f"q ** {n}")
            return int(self) ** n

    big = 3 * 10 ** 7
    for q in (2, 3):
        bs = cw.BaumslagSolitar(SmallPowers(q))
        assert bs.multiply((0, 0, big), (0, 0, big)) == (0, 0, 2 * big)
        assert bs.multiply((0, 0, -big), (0, 0, big)) == bs.identity
        assert bs.inverse((0, 0, -big)) == (0, 0, big)

        multiply, inverse = _bs_reference(q)
        rng = random.Random(f"bs{q}")
        elements = [random_element(bs, rng, length=24) for _ in range(150)]
        elements += [(0, 0, k) for k in range(-4, 5)]
        for x in elements:
            assert bs.validate(bs.inverse(x)) == inverse(x), x
            for y in rng.sample(elements, 20):
                assert bs.validate(bs.multiply(x, y)) == multiply(x, y), (x, y)


def test_generator_literal_splitting():
    assert split_generator_literals("[1],[1],[-2]") == ["[1]", "[1]", "[-2]"]
    assert split_generator_literals("(2, {1: 1}), (-2, {0: -1})") == [
        "(2, {1: 1})", "(-2, {0: -1})"
    ]
    with pytest.raises(cw.InputParseError):
        split_generator_literals("[1,,")
    z1 = cw.group_from_spec("z:1")
    assert cw.parse_generators(z1, "[1],[1],[-2]") == ((1,), (1,), (-2,))


def test_mixed_group_rejected():
    h = cw.Heisenberg()
    with pytest.raises(cw.StructuralError):
        h.validate((1, 2))
    f2 = cw.FreeGroup()
    with pytest.raises(cw.StructuralError):
        f2.validate((1, -1))  # unreduced
    with pytest.raises(cw.StructuralError):
        cw.WreathZZ().validate((0, ((1, 0),)))  # zero lamp stored


def test_exact_metrics():
    z2 = cw.IntegerLattice(2)
    metric = z2.exact_metric(((1, 0), (-1, 0), (0, 1), (0, -1)))
    assert metric((3, -4)) == 7
    assert z2.exact_metric(((1, 0), (0, 1))) is None
    f2 = cw.FreeGroup()
    assert f2.exact_metric(((1,), (-1,), (2,), (-2,)))((1, 2, 1)) == 3
    wr = cw.WreathZZ()
    assert wr.distance_lower_bound((2, ((1, 1), (4, -1)))) == 4
