from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from mellinops import ShiftPolynomial


def polys(arity, degree=4):
    """One to six terms with exponents in 0..degree and small rational coefficients."""
    expo = st.sampled_from(list(product(range(degree + 1), repeat=arity)))
    coeff = st.sampled_from([Fraction(n, d) for n in range(-9, 10) for d in range(1, 8)])
    return st.dictionaries(expo, coeff, min_size=1, max_size=6).map(
        lambda terms: ShiftPolynomial(arity, terms)
    )


# (f, g, j): two polynomials of one arity in 1..3 and a variable index
arity_pairs = st.one_of(
    [st.tuples(polys(arity), polys(arity), st.integers(1, arity)) for arity in (1, 2, 3)]
)


def test_shift_examples():
    s = ShiftPolynomial.variable(1)
    assert s.shift(1, 1) == s + 1
    assert (s * s).shift(1, -1) == s * s - 2 * s + 1
    assert ShiftPolynomial.constant(5).shift(1, 3) == 5


@settings(max_examples=100, deadline=None, database=None)
@given(arity_pairs)
def test_shift_inverse_roundtrip(case):
    f, _, j = case
    assert f.shift(j, 1).shift(j, -1) == f
    assert f.shift(j, -4).shift(j, 4) == f


@settings(max_examples=100, deadline=None, database=None)
@given(arity_pairs, st.sampled_from([-2, -1, 1, 2]))
def test_shift_is_ring_morphism(case, k):
    f, g, j = case
    assert (f * g).shift(j, k) == f.shift(j, k) * g.shift(j, k)
    assert (f + g).shift(j, k) == f.shift(j, k) + g.shift(j, k)


def test_zero_and_pruning():
    s = ShiftPolynomial.variable(1)
    assert (s - s).is_zero()
    assert ShiftPolynomial(1, {(3,): 0}).is_zero()
