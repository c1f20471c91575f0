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


def shift_polys(arity=2):
    expo = st.tuples(*[st.integers(0, 3)] * arity)
    return st.dictionaries(expo, small, max_size=5).map(lambda t: ShiftPolynomial(arity, t))


@st.composite
def ore_pairs(draw):
    algebra = draw(st.sampled_from(["D", "S", "Dtilde"]))
    arity = draw(st.integers(1, 2))
    vec = st.tuples(*[st.integers(-2, 2)] * arity)
    deg = st.tuples(*[st.integers(0, 2)] * arity)
    zero = st.just((0,) * arity)
    torus = (vec, deg) if algebra != "S" else (zero, zero)
    shift = (vec, deg) if algebra != "D" else (zero, zero)
    keys = st.tuples(*torus, *shift)
    ops = st.dictionaries(keys, small, max_size=4).map(lambda t: OreOperator(algebra, arity, t))
    return draw(ops), draw(ops)


AXES = (Axis(1, ZERO_TYPE, 6),)
series = st.dictionaries(st.tuples(st.integers(1, 6)), shift_polys(1), max_size=4).map(
    lambda t: TailSeries(1, AXES, t)
)
PAIRS = st.one_of(
    st.tuples(shift_polys(), shift_polys()),
    ore_pairs(),
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
    twin = type(x)(*x._shape(), reordered)
    assert twin == x and hash(twin) == hash(x)


def test_ore_operator_equals_scalar():
    assert OreOperator.one("D") == 1
    assert OreOperator.scalar(Fraction(3, 2), "S", 2) == Fraction(3, 2)
    assert OreOperator.one("D") != 2


def test_scalar_valued_elements_hash_like_their_scalar():
    assert len({OreOperator.one("D"), 1}) == 1
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
        OreOperator("D", 1, {((0,), (0,), (0,), (0,)): bad})
    with pytest.raises(TypeError, match="exact rational expected"):
        ShiftPolynomial.constant(bad)
    with pytest.raises(TypeError, match="exact rational expected"):
        OreOperator.scalar(bad, "S")
    for x in (ShiftPolynomial.constant(half, 2), parse("1/2*th")):
        with pytest.raises(TypeError, match="exact rational expected"):
            x.scale(bad)
