import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellinops import (
    MixedAlgebra,
    OreOperator,
    ParseError,
    format_operator,
    parse,
)
from mellinops.ore import MAX_INDEX, GenKind, Generator, normalize


def test_parse_examples():
    assert parse("th*t") == parse("t*th + t")
    assert parse("t*th + t") == normalize(
        [(1, [Generator(GenKind.T, 1), Generator(GenKind.THETA, 1)]),
         (1, [Generator(GenKind.T, 1)])]
    )
    assert parse("s*tau") == parse("tau*s - tau")


def test_format_examples():
    assert format_operator(parse("t*th + t")) == "t*th + t"
    assert format_operator(parse("-tau*s + tau")) == "-tau*s + tau"
    assert format_operator(OreOperator.zero("D")) == "0"
    assert parse("0") == OreOperator.zero("D")


def test_rational_coefficients():
    op = parse("3/2*t - 1/3")
    assert op.terms[1, 0] == Fraction(3, 2)
    assert format_operator(op) == "3/2*t - 1/3"


def test_precedence_and_parens():
    assert parse("t*th^2") == parse("t") * parse("th") * parse("th")
    assert parse("(t*th)^2") == (parse("t") * parse("th")) ** 2
    assert parse("t + t*th") == parse("t*th + t")
    assert parse("-(t - th)") == parse("th - t")


def test_derivative_token():
    # Dt is sugar for tinv*th = d/dt written through the Euler operator
    assert parse("Dt") == parse("tinv*th")
    assert parse("t*Dt") == parse("th")


def test_multivariable_indices():
    op = parse("t_2*th_2 + s_0*0 + t_1") if False else parse("t_2*th_2 + t_1")
    assert op.arity == 2
    assert parse("tau_3").arity == 3
    with pytest.raises(MixedAlgebra, match=r"^index 3 not in 1\.\.2$"):
        parse("t_3", arity=2)


def test_algebra_inference_and_hints():
    assert parse("t").algebra.value == "D"
    assert parse("tau*s").algebra.value == "S"
    with pytest.raises(MixedAlgebra):
        parse("t*tau")
    assert parse("t*tau", algebra="Dtilde").algebra.value == "Dtilde"
    with pytest.raises(MixedAlgebra):
        parse("tau", algebra="D")


def test_an_arity_too_large_to_hold_is_an_algebra_error():
    # a monomial key holds arity entries per slot, so the arity is bounded
    with pytest.raises(MixedAlgebra, match=f"^index {sys.maxsize} not in 1..{MAX_INDEX}$"):
        parse("t", arity=sys.maxsize)
    with pytest.raises(MixedAlgebra, match=f"^index {MAX_INDEX + 1} not in 1..{MAX_INDEX}$"):
        parse(f"t_{MAX_INDEX + 1}")


def test_syntax_error_offsets():
    fixtures = [
        ("t**th", 2),        # empty factor after '*'
        ("t*+th", 2),        # operator where an atom is expected
        ("(t + th", 7),      # unclosed parenthesis: failure at end of input
        ("t^x", 2),          # exponent must be a natural number
        ("t^1/2", 2),        # rational exponent rejected at the literal
        ("2 @ t", 2),        # unknown character
        ("t th", 2),         # implicit multiplication is not in the grammar
        ("tx", 0),           # glued identifier characters
        ("", 0),             # empty input has no atom
        ("t + 3/0", 4),      # zero denominator, at its literal
        ("(t+1)^1001", 6),   # exponent above MAX_EXPONENT, at the exponent
    ]
    for text, offset in fixtures:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset, text


# ints and Fractions, integral ones among them, so that products collect both
COEFFS = st.sampled_from(
    list(range(-9, 10)) + [Fraction(n, d) for n in range(-9, 10) for d in (2, 3, 7)]
)


def operators(side, p):
    """One to five terms of up to five generators of one side in p variables."""
    kinds = [GenKind.T, GenKind.TINV, GenKind.THETA, GenKind.S, GenKind.TAU, GenKind.TAUINV]
    pool = kinds[:3] if side == "D" else kinds[3:]
    word = st.lists(st.sampled_from([Generator(k, i) for k in pool for i in range(1, p + 1)]),
                    max_size=5)
    # pin the arity with a power no random word is long enough to cancel
    pin = (1, [Generator(pool[0], p)] * 7)
    return st.lists(st.tuples(COEFFS, word), min_size=1, max_size=5).map(
        lambda terms: normalize(terms + [pin], algebra=side, arity=p)
    )


@settings(max_examples=500, deadline=None, database=None)
@given(st.one_of([operators(side, p) for side in ("D", "S") for p in (1, 2, 3)]))
def test_round_trip_500_random_operators(op):
    assert parse(format_operator(op)) == op
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in op.terms.values())


def test_format_deterministic_order():
    op = parse("t + th + t^2 + 1 + tinv")
    assert format_operator(op) == format_operator(parse(format_operator(op)))
