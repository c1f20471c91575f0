"""Property tests for the paths shared by the exact value types: the one
binomial Taylor shift and the one additive structure (SparseSum)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellinops import Axis, OreOperator, ShiftPolynomial, TailSeries, ZERO_TYPE, parse
from mellinops.shiftpoly import binomial_shift
from mellinops.sparse import rational

PROPERTY = settings(max_examples=60, deadline=None, database=None)

small = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@PROPERTY
@given(st.integers(0, 8), st.integers(-4, 4))
def test_binomial_shift_expands_the_power(e, k):
    s = ShiftPolynomial.variable(1)
    power = ShiftPolynomial.constant(1)
    for _ in range(e):
        power = power * (s + k)
    assert binomial_shift(e, k) == tuple((i, power.terms.get((i,), 0)) for i in range(e + 1))
    assert set(power.terms) <= {(i,) for i in range(e + 1)}


def shift_polys(arity=2, coeff=small):
    expo = st.tuples(*[st.integers(0, 3)] * arity)
    return st.dictionaries(expo, coeff, max_size=5).map(lambda t: ShiftPolynomial(arity, t))


def ore_operators(algebra, arity, coeff=small):
    half = [st.integers(-2, 2)] * arity + [st.integers(0, 2)] * arity  # exponents, degrees
    keys = st.tuples(*half * (2 if algebra == "Dtilde" else 1))
    return st.dictionaries(keys, coeff, max_size=4).map(lambda t: OreOperator(algebra, arity, t))


SHAPES = [(algebra, arity) for algebra in ("D", "S", "Dtilde") for arity in (1, 2)]
AXES = (Axis(1, ZERO_TYPE, 6),)
series = st.dictionaries(st.tuples(st.integers(1, 6)), shift_polys(1), max_size=4).map(
    lambda t: TailSeries(1, AXES, t)
)
PAIRS = st.one_of(
    st.tuples(shift_polys(), shift_polys()),
    *[st.tuples(ops, ops) for ops in (ore_operators(*shape) for shape in SHAPES)],
    st.tuples(series, series),
)


@PROPERTY
@given(PAIRS)
def test_add_then_subtract_is_identity(pair):
    x, y = pair
    back = (x + y) - y
    assert back == x
    assert hash(back) == hash(x)


@PROPERTY
@given(PAIRS)
def test_negation_cancels(pair):
    x, _ = pair
    assert (x + (-x)).is_zero()
    assert (x - x).is_zero()


@PROPERTY
@given(PAIRS, small)
def test_scale_distributes_over_add(pair, c):
    x, y = pair
    assert x.scale(c) + y.scale(c) == (x + y).scale(c)


@PROPERTY
@given(PAIRS)
def test_equal_values_hash_equal(pair):
    x, _ = pair
    reordered = dict(reversed(list(x.terms.items())))
    twin = type(x)(*x.shape, reordered)
    assert twin == x and hash(twin) == hash(x)


# one coefficient set for every case: an integral Fraction, and pairs that cancel
EXACT = st.sampled_from(
    [Fraction(4, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-2, 3), 1, -1, 3]
)
PRODUCT_PAIRS = st.one_of(
    [st.tuples(ops, ops) for ops in (ore_operators(*shape, EXACT) for shape in SHAPES)]
    + [st.tuples(ps, ps) for ps in (shift_polys(arity, EXACT) for arity in (1, 2))]
)


@settings(max_examples=100, deadline=None, database=None)
@given(PRODUCT_PAIRS, EXACT)
def test_results_equal_their_validated_reconstruction(pair, c):
    # every result is built by the unchecked _like: it must be what the
    # validating constructor makes of its terms, coefficient types too
    x, y = pair
    results = [x * y, x + y, x - y, -x, x.scale(c), x ** 2]
    if isinstance(x, ShiftPolynomial):
        results += [x.shift(x.arity, k) for k in (-2, 1, 3)]
    for r in results:
        assert r == type(r)(*r.shape, r.terms)
        assert all(type(v) is int or type(v) is Fraction and v.denominator != 1
                   for v in r.terms.values())


def test_ore_operator_equals_scalar():
    assert OreOperator.scalar(1, "D") == 1
    assert OreOperator.scalar(Fraction(3, 2), "S", 2) == Fraction(3, 2)
    assert OreOperator.scalar(1, "D") != 2


def test_scalar_valued_elements_hash_like_their_scalar():
    assert len({OreOperator.scalar(1, "D"), 1}) == 1
    assert hash(ShiftPolynomial.constant(Fraction(3, 2), 2)) == hash(Fraction(3, 2))
    assert hash(ShiftPolynomial.zero()) == hash(0)


@pytest.mark.parametrize(
    "x, y",
    [
        (ShiftPolynomial.variable(1), parse("th")),
        (parse("th"), ShiftPolynomial.variable(1)),
        (TailSeries(1, AXES, {(1,): 1}), ShiftPolynomial.variable(1)),
        (ShiftPolynomial.variable(1), TailSeries(1, AXES, {(1,): 1})),
        (parse("th"), TailSeries(1, AXES, {(1,): 1})),
        (ShiftPolynomial.variable(1), 1.5),
        (parse("th"), 1.5),
    ],
)
def test_other_operand_types_are_rejected(x, y):
    expected = f"{type(x).__name__} expected, got {type(y).__name__}"
    with pytest.raises(TypeError, match=expected):
        x + y
    if not isinstance(x, TailSeries):
        with pytest.raises(TypeError, match=expected):
            x * y


def test_agrees_on_interior_rejects_other_types():
    g = TailSeries(1, AXES, {(1,): 1})
    with pytest.raises(TypeError, match="TailSeries expected, got ShiftPolynomial"):
        g.agrees_on_interior(ShiftPolynomial.variable(1), 1)


def test_series_have_no_powers():
    # a series has no unit to start a power from, so ** is Python's unsupported operand
    g = TailSeries(1, AXES, {(1,): 1})
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \*\* or pow\(\)"):
        g ** 2
    assert ShiftPolynomial.variable(1) ** 2 == ShiftPolynomial(1, {(2,): 1})


def test_rational_is_the_one_exact_scalar():
    for x, expected in [(3, 3), (True, 1), (Fraction(4, 2), 2), (Fraction(-6, 3), -2)]:
        value = rational(x)
        assert type(value) is int and value == expected
    assert rational(Fraction(1, 2)) == Fraction(1, 2)
    assert type(rational(Fraction(1, 2))) is Fraction


@pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(2.0), np.int64(2), np.int32(-1)])
def test_floats_and_numpy_ints_are_refused(bad):
    half = Fraction(1, 2)
    with pytest.raises(TypeError, match="exact rational expected"):
        rational(bad)
    with pytest.raises(TypeError, match="exact rational expected"):
        ShiftPolynomial(1, {(0,): bad})
    with pytest.raises(TypeError, match="exact rational expected"):
        OreOperator("D", 1, {(0, 0): bad})
    with pytest.raises(TypeError, match="exact rational expected"):
        ShiftPolynomial.constant(bad)
    with pytest.raises(TypeError, match="exact rational expected"):
        OreOperator.scalar(bad, "S")
    for x in (ShiftPolynomial.constant(half, 2), parse("1/2*th")):
        with pytest.raises(TypeError, match="exact rational expected"):
            x.scale(bad)
