import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellinops import (
    Axis,
    GenKind,
    Generator,
    ShiftPolynomial,
    TailSeries,
    TruncationOverflow,
    kernel_element,
    koszul,
    shift_cycle,
    solve_inf,
    solve_zero,
)

S1 = ShiftPolynomial.variable(1)


def monomial(kinds, idx, poly, n_max=12):
    """poly at one stored index over axes of the given kinds (variables 1..p)."""
    axes = tuple(Axis(j, kind, n_max) for j, kind in enumerate(kinds, start=1))
    return TailSeries(len(kinds), axes, {tuple(idx): poly})


def test_twisted_euler_on_monomial():
    # the twisted Euler action on b(s) t^n multiplies by (n - s - 1): at stored
    # index 3 the actual exponent is 3 on a zero axis and -3 on an inf axis
    for kind, n in (("zero", 3), ("inf", -3)):
        x = monomial((kind,), (3,), S1)
        out = x.apply_generator(Generator(GenKind.THETA, 1))
        assert out.terms == {(3,): (n - 1 - S1) * S1}


def test_t_shifts_exponent():
    # t raises the actual exponent: stored 3 -> 4 on a zero axis (t^3 -> t^4),
    # stored 3 -> 2 on an inf axis (t^-3 -> t^-2)
    for kind, stored in (("zero", 4), ("inf", 2)):
        out = monomial((kind,), (3,), S1).apply_generator(Generator(GenKind.T, 1))
        assert out.terms == {(stored,): S1}


def test_shift_cycle_on_inf_series():
    # (tau/t - 1) applied to a0 + a1/t over the infinity-type window
    a0, a1 = S1, S1 * S1
    g = TailSeries(1, (Axis(1, "inf", 4),), {(0,): a0, (1,): a1})
    out = shift_cycle(g, 1)
    assert out.coefficient((0,)) == -a0
    assert out.coefficient((1,)) == a0.shift(1, 1) - a1
    assert out.coefficient((2,)) == a1.shift(1, 1)
    assert out.coefficient((3,)).is_zero()


def test_quotient_drops():
    # zero-type: division by t kills the exponent-1 slice (constants are not
    # part of the space); multiplication past the window top is the defect
    z = TailSeries(1, (Axis(1, "zero", 3),), {(1,): 1, (3,): 2})
    down = z.apply_generator(Generator(GenKind.TINV, 1))
    assert down.coefficient((2,)) == 2 and len(down.terms) == 1
    up = z.apply_generator(Generator(GenKind.T, 1))
    assert up.coefficient((2,)) == 1 and len(up.terms) == 1
    # infinity-type: multiplication by t kills the would-be positive power
    w = TailSeries(1, (Axis(1, "inf", 3),), {(0,): 1, (3,): 5})
    up_w = w.apply_generator(Generator(GenKind.T, 1))
    assert up_w.coefficient((2,)) == 5 and len(up_w.terms) == 1


def test_window_construction_raises():
    with pytest.raises(TruncationOverflow):
        TailSeries(1, (Axis(1, "zero", 3),), {(0,): 1})
    with pytest.raises(TruncationOverflow):
        TailSeries(1, (Axis(1, "inf", 3),), {(4,): 1})


def word(*pairs):
    return [Generator(kind, j) for kind, j in pairs]


def cycle_word(j):
    return [(GenKind.TAU, j), (GenKind.TINV, j)]


def apply_cycle(x, j):
    return x.apply_word(word(*cycle_word(j))) - x


def test_cycle_commutes_with_twisted_generators():
    # the shift-cycle operator commutes with every twisted t_k and th_k
    # action: the computable reason the reductions stay equivariant.  Both
    # sides touch the stored indices n - 1..n + 1, so n stays inside the
    # window (at inf index 0, t kills the term on one side only)
    p = 2
    poly = ShiftPolynomial.variable(1, p) * ShiftPolynomial.variable(2, p) + 3
    for kinds in itertools.product(("zero", "inf"), repeat=p):
        for n in itertools.product((2, 6, 11), repeat=p):
            x = monomial(kinds, n, poly)
            for j in range(1, p + 1):
                for k in range(1, p + 1):
                    for kind in (GenKind.T, GenKind.THETA):
                        lhs = apply_cycle(x.apply_generator(Generator(kind, k)), j)
                        rhs = apply_cycle(x, j).apply_generator(Generator(kind, k))
                        assert lhs == rhs, (kinds, n, j, k, kind)


def test_series_addition_and_interior():
    a = TailSeries(1, (Axis(1, "zero", 4),), {(1,): 1, (4,): 2})
    b = TailSeries(1, (Axis(1, "zero", 4),), {(1,): -1, (2,): 3})
    c = a + b
    assert c.coefficient((1,)).is_zero()
    assert c.coefficient((2,)) == 3
    interior = c.interior_terms(1)
    assert (4,) not in interior and (2,) in interior


def test_indices_must_be_integers():
    axes = (Axis(1, "zero", 4),)
    with pytest.raises(TypeError):
        TailSeries(1, axes, {(2.7,): 1})
    for bad in ((Axis(1, "zero", 4.0),), (Axis(1.0, "zero", 4),)):
        with pytest.raises(TypeError):
            TailSeries(1, bad, {})
    with pytest.raises(TypeError):
        TailSeries(1.0, axes, {})
    x = TailSeries(np.int64(1), (Axis(np.int64(1), "zero", np.int64(4)),), {(np.int64(2),): 1})
    assert x == TailSeries(1, axes, {(2,): 1})
    (axis,), (idx,) = x.axes, x.terms
    assert all(type(n) is int for n in (x.coeff_arity, axis.var, axis.n_max, *idx))


def coefficient_polys(arity):
    expo = st.sampled_from(list(itertools.product(range(3), repeat=arity)))
    coeff = st.sampled_from([Fraction(4, 2), Fraction(1, 2), Fraction(-2, 3), 3, -1])
    return st.dictionaries(expo, coeff, max_size=3).map(lambda t: ShiftPolynomial(arity, t))


def series_cases(arity, axes):
    """A series of this shape and a generator that acts on it."""
    idx = st.sampled_from(list(itertools.product(*(axis.window for axis in axes))))
    series = st.dictionaries(idx, coefficient_polys(arity), max_size=5).map(
        lambda t: TailSeries(arity, axes, t)
    )
    gens = [Generator(kind, axis.var) for kind in (GenKind.T, GenKind.TINV, GenKind.THETA)
            for axis in axes]
    gens += [Generator(kind, j) for kind in (GenKind.S, GenKind.TAU, GenKind.TAUINV)
             for j in range(1, arity + 1)]
    return st.tuples(series, st.sampled_from(gens))


SERIES_CASES = st.one_of([
    series_cases(1, (Axis(1, "zero", 4),)),
    series_cases(1, (Axis(1, "inf", 4),)),
    series_cases(2, (Axis(1, "inf", 3), Axis(2, "zero", 3))),
    series_cases(2, (Axis(2, "zero", 3),)),
])


@settings(max_examples=100, deadline=None, database=None)
@given(SERIES_CASES)
def test_results_equal_their_validated_reconstruction(case):
    # the operations build through the unchecked _like: each result must be
    # what the validating constructor makes of its terms, coefficient types too
    x, gen = case
    results = [x.apply_generator(gen)]
    for axis in x.axes:
        solve = solve_zero if axis.kind == "zero" else solve_inf
        results += [shift_cycle(x, axis.var), solve(x, axis.var)]
    for r in results:
        assert_validated(r)


def assert_validated(r):
    """r equals what the validating constructors make of its terms, coefficient
    types too: no zero polynomial, no zero scalar and no integral Fraction."""
    assert r == TailSeries(r.coeff_arity, r.axes, r.terms)
    for poly in r.terms.values():
        assert poly == ShiftPolynomial(poly.arity, poly.terms)
        assert all(type(c) is int or type(c) is Fraction and c.denominator != 1
                   for c in poly.terms.values())


def test_kernel_elements_and_samples_equal_their_validated_reconstruction():
    # kernel_element wraps shifted polynomials, and the reductions' sample
    # series build their coefficients directly: each series, and the cycle of
    # each kernel element (zero inside the window), must be validated too.
    # Halves shift to integral Fractions (s/2 at even steps), and the zero phi
    # gives zero polynomials, which the series must drop
    for arity in (1, 2, 3):
        for kinds in itertools.product(("zero", "inf"), repeat=arity):
            for n_max in (1, 6):
                axes = tuple(Axis(v, kind, n_max) for v, kind in enumerate(kinds, start=1))
                for salt in range(3):
                    assert_validated(koszul._sample_series(arity, axes, salt))
        for var in range(1, arity + 1):
            s = ShiftPolynomial.variable(var, arity)
            halves = [s.scale(Fraction(1, 2)), (s * s + s).scale(Fraction(1, 2)) - Fraction(3, 2)]
            for phi in koszul._sample_phis(arity, var) + halves + [s - s]:
                k = kernel_element(phi, var, 6, arity)
                assert_validated(k)
                assert_validated(shift_cycle(k, var))


def cycle_cases(arity, kinds, first_var=1):
    """A series over axes of these kinds on consecutive variables from
    first_var, and one of its axis variables."""
    axes = tuple(Axis(j, kind, 3) for j, kind in enumerate(kinds, start=first_var))
    idx = st.sampled_from(list(itertools.product(*(axis.window for axis in axes))))
    series = st.dictionaries(idx, coefficient_polys(arity), max_size=8).map(
        lambda t: TailSeries(arity, axes, t)
    )
    return st.tuples(series, st.sampled_from([axis.var for axis in axes]))


# every mix of axis kinds over arity 1..3, and axes that leave a variable inert
CYCLE_CASES = st.one_of(
    [cycle_cases(arity, kinds) for arity in (1, 2, 3)
     for kinds in itertools.product(("zero", "inf"), repeat=arity)]
    + [cycle_cases(2, ("inf",), 2), cycle_cases(3, ("zero", "inf"), 2)]
)


@settings(max_examples=150, deadline=None, database=None)
@given(CYCLE_CASES)
def test_shift_cycle_is_the_generic_word_minus_the_identity(case):
    x, var = case
    assert shift_cycle(x, var) == apply_cycle(x, var)
