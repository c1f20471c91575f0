import random
from fractions import Fraction

from mellinops import ShiftPolynomial


def random_poly(rng, arity=1, degree=4):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        expo = tuple(rng.randint(0, degree) for _ in range(arity))
        terms[expo] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return ShiftPolynomial(arity, terms)


def test_shift_examples():
    s = ShiftPolynomial.variable(1)
    assert s.shift(1, 1) == s + 1
    assert (s * s).shift(1, -1) == s * s - 2 * s + 1
    assert ShiftPolynomial.constant(5).shift(1, 3) == 5


def test_shift_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        f = random_poly(rng, arity=rng.randint(1, 3))
        j = rng.randint(1, f.arity)
        assert f.shift(j, 1).shift(j, -1) == f
        assert f.shift(j, -4).shift(j, 4) == f


def test_shift_is_ring_morphism():
    rng = random.Random(11)
    for _ in range(100):
        arity = rng.randint(1, 3)
        f = random_poly(rng, arity)
        g = random_poly(rng, arity)
        j = rng.randint(1, arity)
        k = rng.choice([-2, -1, 1, 2])
        assert (f * g).shift(j, k) == f.shift(j, k) * g.shift(j, k)
        assert (f + g).shift(j, k) == f.shift(j, k) + g.shift(j, k)


def test_zero_and_pruning():
    s = ShiftPolynomial.variable(1)
    assert (s - s).is_zero()
    assert ShiftPolynomial(1, {(3,): 0}).is_zero()
