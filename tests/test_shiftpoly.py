from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellinops import ShiftPolynomial
from mellinops.shiftpoly import binomial_shift


def polys(arity, degree=4, coeffs=None):
    """One to six terms with exponents in 0..degree and small rational
    coefficients (or ones drawn from ``coeffs``)."""
    expo = st.sampled_from(list(product(range(degree + 1), repeat=arity)))
    if coeffs is None:
        coeffs = st.sampled_from([Fraction(n, d) for n in range(-9, 10) for d in range(1, 8)])
    return st.dictionaries(expo, coeffs, min_size=1, max_size=6).map(
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


def value_at(f, point):
    """f at an integer point, exactly."""
    total = 0
    for expo, coeff in f.terms.items():
        for x, e in zip(point, expo):
            coeff *= x**e
        total += coeff
    return total


@settings(max_examples=100, deadline=None, database=None)
@given(arity_pairs, st.sampled_from([-3, -1, 1, 2]))
def test_shift_is_substitution(case, k):
    # the Taylor-shift kernel against its definition: f.shift(j, k) at x is f
    # at x with x_j + k, exactly, at every point of a small integer box
    f, _, j = case
    shifted = f.shift(j, k)
    for point in product(range(-2, 3), repeat=f.arity):
        moved = tuple(x + k if i == j - 1 else x for i, x in enumerate(point))
        assert value_at(shifted, point) == value_at(f, moved)


# (p, q, jj): two polynomials of one arity in 1..3 with exponents in 0..4 and
# coefficients in halves and thirds, so that sums and weighted terms can come
# out integral, and a 0-based variable
HALVES_AND_THIRDS = st.sampled_from([Fraction(n, d) for n in range(-6, 7) if n for d in (1, 2, 3)])
kernel_cases = st.one_of([
    st.tuples(polys(arity, coeffs=HALVES_AND_THIRDS), polys(arity, coeffs=HALVES_AND_THIRDS),
              st.integers(0, arity - 1))
    for arity in (1, 2, 3)
])


def moved(point, jj, k):
    """point with k added to its coordinate jj (0-based)."""
    return tuple(x + k if i == jj else x for i, x in enumerate(point))


@settings(max_examples=100, deadline=None, database=None)
@given(kernel_cases, st.integers(-5, 5))
def test_shift_kernel_is_substitution_less_the_other(case, steps):
    # _shift_sub against the ring operations, and both it and shift against
    # pointwise values, which use no binomial row: on the box -2..2 a
    # polynomial of degree <= 4 in each variable is fixed by its values
    p, q, jj = case
    r, shifted = p._shift_sub(jj, q), p.shift(jj + 1, steps)
    assert r == p.shift(jj + 1, 1) - q
    for point in product(range(-2, 3), repeat=p.arity):
        assert value_at(r, point) == value_at(p, moved(point, jj, 1)) - value_at(q, point)
        assert value_at(shifted, point) == value_at(p, moved(point, jj, steps))
    assert_validated(r)  # no zero kept, and an int wherever a coefficient is integral
    assert_validated(shifted)


def test_zero_and_pruning():
    s = ShiftPolynomial.variable(1)
    assert (s - s).is_zero()
    assert ShiftPolynomial(1, {(3,): 0}).is_zero()


def assert_validated(r):
    """r equals its validated reconstruction, term types included: each
    coefficient is an int or a non-integral Fraction, and no zero is kept."""
    twin = ShiftPolynomial(r.arity, r.terms)
    assert r == twin
    assert {e: type(c) for e, c in r.terms.items()} == {e: type(c) for e, c in twin.terms.items()}


SCALARS = st.sampled_from([Fraction(4, 2), Fraction(1, 2), Fraction(-2, 3), 3, -1])


@settings(max_examples=100, deadline=None, database=None)
@given(arity_pairs, st.sampled_from([-2, -1, 1, 3]), SCALARS)
def test_results_equal_their_validated_reconstruction(case, k, c):
    f, g, j = case
    for r in (f.shift(j, k), f * g, f * c, f + g, f + c, f - g, f - c, -f, f.scale(c)):
        assert_validated(r)


def test_integer_arguments_must_be_integers():
    # a float index would otherwise be truncated, or cached as a float Taylor row
    with pytest.raises(TypeError):
        ShiftPolynomial(1, {(1.5,): 1})
    with pytest.raises(TypeError):
        ShiftPolynomial(1.0, {(1,): 1})
    p = ShiftPolynomial(1, {(3,): 2, (1,): -1})
    want = 2 * (ShiftPolynomial.variable(1) + 1) ** 3 - ShiftPolynomial.variable(1) - 1
    binomial_shift.cache_clear()
    with pytest.raises(TypeError):
        binomial_shift(3, 1.0)  # a row is built from ints only
    for _ in range(2):  # on a cold row cache, then with p's int rows cached
        for j, steps in ((1, 1.0), (1.0, 1)):
            with pytest.raises(TypeError):
                p.shift(j, steps)
        shifted = p.shift(1, 1)
        assert shifted == want
        assert all(type(c) is int for c in shifted.terms.values())
    assert p.shift(1, True) == p.shift(np.int64(1), np.int64(1)) == shifted
    q = ShiftPolynomial(np.int64(2), {(np.int64(1), True): 1})
    assert q.terms == {(1, 1): 1}
    assert all(type(n) is int for n in (q.arity, *next(iter(q.terms))))
