import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from mellinops import (
    MixedAlgebra,
    OreOperator,
    QuadratureFailure,
    apply_difference,
    inverse_mellin_op,
    mellin_op,
    parse,
)
from mellinops.ore import Algebra, GenKind, Generator, normalize
from mellinops.transform import apply_difference_terms


def operators(algebra, p, degree=4, n_terms=3):
    """Sums of n_terms words of up to ``degree`` generators in p variables."""
    kinds = (
        [GenKind.T, GenKind.TINV, GenKind.THETA]
        if algebra == "D"
        else [GenKind.TAU, GenKind.TAUINV, GenKind.S]
    )
    word = st.lists(st.sampled_from([Generator(k, i) for k in kinds for i in range(1, p + 1)]),
                    max_size=degree)
    coeff = st.sampled_from([Fraction(n, d) for n in range(-5, 6) for d in range(1, 5)])
    return st.lists(st.tuples(coeff, word), min_size=n_terms, max_size=n_terms).map(
        lambda terms: normalize(terms, algebra=algebra, arity=p)
    )


def operator_pairs(first, second):
    """Two operators in one number of variables p = 1..3."""
    return st.one_of([st.tuples(operators(first, p), operators(second, p)) for p in (1, 2, 3)])


def test_forward_examples():
    assert mellin_op(parse("t")) == parse("tau")
    assert mellin_op(parse("1", algebra="D")) == parse("1", algebra="S")
    assert mellin_op(parse("t*th + t")) == parse("-tau*s + tau")
    assert mellin_op(parse("th + t")) == parse("tau - s")
    assert mellin_op(parse("th")) == parse("-s")
    assert mellin_op(OreOperator.zero("D")) == OreOperator.zero("S")


def test_inverse_examples():
    assert inverse_mellin_op(parse("tau")) == parse("t")
    assert inverse_mellin_op(parse("s")) == parse("-th")
    assert inverse_mellin_op(parse("tauinv")) == parse("tinv")


def test_unit_inverse_preservation():
    assert mellin_op(parse("tinv")) == parse("tauinv")


@settings(max_examples=200, deadline=None, database=None)
@given(operator_pairs("D", "S"))
def test_roundtrip_random(pair):
    P, Q = pair
    assert inverse_mellin_op(mellin_op(P)) == P
    assert mellin_op(inverse_mellin_op(Q)) == Q


@settings(max_examples=200, deadline=None, database=None)
@given(operator_pairs("D", "D"))
def test_ring_morphism_200_pairs(pair):
    P, Q = pair
    assert mellin_op(P * Q) == mellin_op(P) * mellin_op(Q)


@settings(max_examples=50, deadline=None, database=None)
@given(st.one_of([operators("D", p) for p in (1, 2, 3)]))
def test_degree_transport(P):
    Q = mellin_op(P)
    # t exponents -> tau exponents, th degrees -> s degrees: one key set
    assert set(P.terms) == set(Q.terms)


def test_wrong_side_rejected():
    with pytest.raises(MixedAlgebra):
        mellin_op(parse("tau"))
    with pytest.raises(MixedAlgebra):
        inverse_mellin_op(parse("t"))


# -- the difference action ---------------------------------------------------------


def gamma_quad(s):
    """Independent oracle: the ray integral of e^-t t^(s-1) via scipy."""
    re = scipy.integrate.quad(
        lambda t: math.exp(-t) * t ** (s.real - 1) * math.cos(s.imag * math.log(t)),
        0, np.inf, limit=400)[0]
    im = scipy.integrate.quad(
        lambda t: math.exp(-t) * t ** (s.real - 1) * math.sin(s.imag * math.log(t)),
        0, np.inf, limit=400)[0]
    return complex(re, im)


def test_apply_difference_identity():
    Q = parse("1", algebra="S")
    assert apply_difference(Q, lambda s: s * s + 1, 2.5) == 2.5 ** 2 + 1


def test_apply_difference_gamma_functional_equation():
    Q = parse("tau - s")
    for s in (0.75, 1.5, 2.25, 1.0 + 0.5j):
        res = apply_difference(Q, gamma_quad, complex(s))
        assert abs(res) <= 1e-8 * abs(gamma_quad(complex(s) + 1))


def test_apply_difference_gaussian_case():
    # F(s) = (1/2) Gamma(s/2) solves -s F + 2 F(s+2) = 0
    def F(s):
        return 0.5 * gamma_quad(s / 2)

    Q = parse("2*tau^2 - s")
    for s in (0.8, 1.6, 2.4):
        assert abs(apply_difference(Q, F, complex(s))) <= 1e-8 * abs(F(complex(s)))


def test_apply_difference_monomial_order():
    # normal form tau*s acts as: multiply by s first, then shift the
    # argument, i.e. (tau s F)(s) = (s+1) F(s+1) and not s F(s+1)
    F = lambda s: s * s
    Q = parse("tau*s")
    out = apply_difference(Q, F, 2.0)
    assert out == pytest.approx((2.0 + 1) * F(2.0 + 1))
    assert out != pytest.approx(2.0 * F(3.0))


def test_apply_difference_multivariate():
    Q = normalize(
        [(1, [Generator(GenKind.TAU, 1)]), (2, [Generator(GenKind.S, 2)])],
        algebra="S", arity=2,
    )
    F = lambda s: s[0] + 10 * s[1]
    val = apply_difference(Q, F, (1.0, 2.0))
    assert val == pytest.approx((1 + 1 + 10 * 2) + 2 * 2 * (1 + 20))


def test_apply_difference_failures():
    Q = parse("tau")

    def bad(_s):
        raise RuntimeError("no data")

    with pytest.raises(QuadratureFailure, match=r"^grid function failed at \(2\.0,\): no data$"):
        apply_difference(Q, bad, 1.0)
    with pytest.raises(QuadratureFailure, match=r"^grid function returned NaN at \(2\.0,\)$"):
        apply_difference(Q, lambda s: float("nan"), 1.0)
    with pytest.raises(MixedAlgebra):
        apply_difference(parse("t"), lambda s: s, 1.0)
    # the per-term form, which the commutation harness uses, keeps the guards
    with pytest.raises(QuadratureFailure, match="^grid function returned NaN at "):
        apply_difference_terms(parse("tau - s"), lambda s: float("nan"), 1.0)
    with pytest.raises(ValueError):
        apply_difference_terms(parse("tau - s"), lambda s: s, (1.0, 2.0))
