import itertools

import pytest

from mellinops import (
    Axis,
    GenKind,
    Generator,
    ShiftPolynomial,
    TailSeries,
    TruncationOverflow,
    shift_cycle,
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
