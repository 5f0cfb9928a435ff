"""Group arithmetic: axioms, canonical forms, and independent oracles."""

import functools
import itertools
import random
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
        # a nonempty reduced word: F2 prints the identity as "id", which is not a word
        word, n = [rng.choice((1, -1, 2, -2))], rng.randint(1, 12)
        while len(word) < n:
            word.append(rng.choice([v for v in (1, -1, 2, -2) if v != -word[-1]]))
        return tuple(word)

    draws = [
        (cw.IntegerLattice(1), vector(1)),
        (cw.IntegerLattice(3), vector(3)),
        (cw.Heisenberg(), vector(3)),
        (wr, lambda: random_element(wr, rng, length=20)),
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
        (cw.Heisenberg(), "[1.5, 0, 0]"),
        (cw.FreeGroup(), "abc"),
        (cw.BaumslagSolitar(3), "ab-"),
        (z7, "1.5"),
    ]
    for group, text in bad:
        with pytest.raises(cw.InputParseError):
            group.parse_element(text)
    for x in ((1, 4, 0), (-1, 1, 0), (2, 0, 1)):
        with pytest.raises(cw.StructuralError, match="non-canonical"):
            cw.BaumslagSolitar(2).validate(x)


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
