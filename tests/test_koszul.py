from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellinops import (
    Axis,
    ShiftPolynomial,
    TailSeries,
    induced_action_congruence,
    kernel_element,
    koszul,
    koszul_reduce,
    product_kernel,
    shift_cycle,
    solve_inf,
    solve_zero,
)

S = ShiftPolynomial.variable(1)


def inf_series(n_max, coeffs):
    return TailSeries(1, (Axis(1, "inf", n_max),), dict(coeffs))


def zero_series(n_max, coeffs):
    return TailSeries(1, (Axis(1, "zero", n_max),), dict(coeffs))


def polys(degree=3):
    """One to four powers of s in 0..degree with small rational coefficients."""
    expo = st.sampled_from([(e,) for e in range(degree + 1)])
    coeff = st.sampled_from([Fraction(n, d) for n in range(-6, 7) for d in range(1, 5)])
    return st.dictionaries(expo, coeff, min_size=1, max_size=4).map(
        lambda terms: ShiftPolynomial(1, terms)
    )


def full_window(kind):
    """A series on one ``kind`` axis, window 4..10, with a polynomial at every index."""

    def on(axis):
        size = len(axis.window)
        return st.lists(polys(), min_size=size, max_size=size).map(
            lambda ps: TailSeries(1, (axis,), {(n,): p for n, p in zip(axis.window, ps)})
        )

    return st.one_of([on(Axis(1, kind, n_max)) for n_max in range(4, 11)])


PROPERTY = settings(max_examples=50, deadline=None, database=None)


# -- the upward (bijective) solve ----------------------------------------------


def test_solve_inf_constant_source():
    # g = 1 concentrated at the constant slot: a_n = -1 throughout
    g = inf_series(6, {(0,): 1})
    a = solve_inf(g, 1)
    for n in range(7):
        assert a.coefficient((n,)) == -1


def test_solve_inf_zero():
    g = inf_series(5, {})
    assert solve_inf(g, 1).is_zero()


def test_solve_inf_shifted_source():
    # g = s/t: hand recursion gives a_0 = 0, a_n = -(s + n - 1)
    g = inf_series(6, {(1,): S})
    a = solve_inf(g, 1)
    assert a.coefficient((0,)).is_zero()
    assert a.coefficient((1,)) == -S
    assert a.coefficient((2,)) == -(S + 1)
    for n in range(1, 7):
        assert a.coefficient((n,)) == -(S + (n - 1))


@PROPERTY
@given(full_window("inf"))
def test_solve_inf_bijective_at_truncation(g):
    a = solve_inf(g, 1)
    assert shift_cycle(a, 1) == g  # exact on the whole window
    assert solve_inf(shift_cycle(a, 1), 1) == a
    assert solve_inf(shift_cycle(g, 1), 1) == g


# -- the downward (surjective) solve ---------------------------------------------


def test_solve_zero_single_power():
    # g = t with window 3: b = -t, and the cycle image recovers g exactly
    g = zero_series(3, {(1,): 1})
    b = solve_zero(g, 1)
    assert b.coefficient((1,)) == -1
    assert len(b.terms) == 1
    assert shift_cycle(b, 1).coefficient((1,)) == 1


def test_solve_zero_zero():
    assert solve_zero(zero_series(4, {}), 1).is_zero()


def test_solve_zero_shifted_source():
    # g = s t^2 with window 3: b_2 = -s, b_1 = -(s+1)
    g = zero_series(3, {(2,): S})
    b = solve_zero(g, 1)
    assert b.coefficient((3,)).is_zero()
    assert b.coefficient((2,)) == -S
    assert b.coefficient((1,)) == -(S + 1)


@PROPERTY
@given(full_window("zero"))
def test_solve_zero_interior_exactness_random(g):
    b = solve_zero(g, 1)
    image = shift_cycle(b, 1)
    assert image.agrees_on_interior(g, 1)
    defect = image - g
    assert all(idx[0] >= g.axes[0].n_max for idx in defect.terms)


# -- kernel representatives -------------------------------------------------------


def test_kernel_constant():
    k = kernel_element(ShiftPolynomial.constant(1), 1, 5)
    for n in range(1, 6):
        assert k.coefficient((n,)) == 1


def test_kernel_linear_and_square():
    k = kernel_element(S, 1, 5)
    for n in range(1, 6):
        assert k.coefficient((n,)) == S - (n - 1)
    k2 = kernel_element(S * S, 1, 5)
    assert k2.coefficient((2,)) == (S - 1) * (S - 1)
    # interior kernel relation b_n = tau b_(n+1)
    for n in range(1, 5):
        assert k2.coefficient((n,)) == k2.coefficient((n + 1,)).shift(1, 1)


@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(4, 9), polys())
def test_kernel_characterization(n_max, phi):
    # a window series is cycle-annihilated on the interior exactly when it
    # is the kernel representative of its own first slice (top slice free)
    x = kernel_element(phi, 1, n_max)
    assert all(p.is_zero() for p in shift_cycle(x, 1).interior_terms(1).values())
    # perturb an interior slice: the kernel property must break
    bad = x + zero_series(n_max, {(2,): 1})
    broken = shift_cycle(bad, 1).interior_terms(1)
    assert any(not p.is_zero() for p in broken.values())


def test_product_kernel_extraction():
    phi = ShiftPolynomial.variable(1, 2) + 2 * ShiftPolynomial.variable(2, 2)
    k = product_kernel(phi, (1, 2), 4, coeff_arity=2)
    assert k.coefficient((1, 1)) == phi
    assert k.coefficient((2, 3)) == phi.shift(1, -1).shift(2, -2)


# -- induced actions ---------------------------------------------------------------


def test_congruence_witness_matches_hand_computation():
    # t k(phi) - k(tau phi) = cycle(tau phi * t): single defect at the first
    # slice, witnessed exactly
    phi = S * S - 3
    res = induced_action_congruence(phi, "t", 1, 8)
    assert res.ok
    assert sorted(res.defect.terms) == [(1,)]
    assert res.defect.coefficient((1,)) == -phi.shift(1, 1)
    assert sorted(res.witness.terms) == [(1,)]
    assert res.witness.coefficient((1,)) == phi.shift(1, 1)


def test_congruence_zero_phi():
    for action in ("t", "theta"):
        res = induced_action_congruence(ShiftPolynomial.zero(1), action, 1, 6)
        assert res.ok and res.witness.is_zero() and res.defect.is_zero()


def test_congruence_euler_constant():
    # th~ k(1) has coefficients (n - s - 1) = tau^(1-n)(-s): zero defect
    res = induced_action_congruence(ShiftPolynomial.constant(1), "theta", 1, 6)
    assert res.ok and res.defect.is_zero()


def test_scalar_phi_is_a_constant_polynomial():
    # an integral Fraction is the same phi as the int; a non-integral one works
    for action in ("t", "theta"):
        three = induced_action_congruence(3, action, 1, 12)
        assert induced_action_congruence(Fraction(3), action, 1, 12) == three
        half = induced_action_congruence(Fraction(1, 2), action, 1, 12)
        assert half.ok and half.defect == three.defect.scale(Fraction(1, 6))
    assert kernel_element(Fraction(3), 1, 6) == kernel_element(3, 1, 6)
    assert kernel_element(Fraction(1, 2), 1, 6).coefficient((4,)) == Fraction(1, 2)
    with pytest.raises(TypeError, match="exact rational expected"):
        kernel_element(0.5, 1, 6)


@PROPERTY
@given(polys(degree=6))
def test_congruences_random_50(phi):
    for action in ("t", "theta"):
        assert induced_action_congruence(phi, action, 1, 12).ok


def test_congruence_detects_wrong_transport():
    # moving by t but transporting without the shift must NOT be congruent
    phi = S
    k = kernel_element(phi, 1, 8)
    from mellinops import GenKind, Generator

    moved = k.apply_generator(Generator(GenKind.T, 1))
    wrong = moved - kernel_element(phi, 1, 8)  # no tau applied
    assert any(idx[0] >= 2 for idx in wrong.terms)


# -- full reductions ----------------------------------------------------------------


@pytest.mark.parametrize(
    "i_set,j_set",
    [((), ()), ((1,), ()), ((2,), ()), ((), (1,)), ((), (2,)),
     ((1,), (2,)), ((2,), (1,)), ((1, 2), ()), ((), (1, 2))],
)
def test_koszul_reduce_all_partitions_of_two(i_set, j_set):
    report = koszul_reduce(i_set, j_set, 12)
    assert report.verdict == ("acyclic" if j_set else "h0")
    assert report.matches_prediction
    assert report.checks_passed
    if report.verdict == "h0":
        assert report.extraction_index == (1,) * len(i_set)
        assert all(c.ok for c in report.congruences)


def test_koszul_reduce_all_partitions_up_to_three_variables():
    # every disjoint (I, J) over {1, 2, 3}, window 12: acyclic iff J nonempty
    import itertools

    for assign in itertools.product("ijn", repeat=3):
        i_set = tuple(k + 1 for k, a in enumerate(assign) if a == "i")
        j_set = tuple(k + 1 for k, a in enumerate(assign) if a == "j")
        report = koszul_reduce(i_set, j_set, 12, n_samples=1)
        assert report.verdict == ("acyclic" if j_set else "h0"), (i_set, j_set)
        assert report.checks_passed


def test_round_trip_is_checked_off_the_samples(monkeypatch):
    # a solver that is right only on the sample inputs passes solve_exact; the
    # round trip solves on a sample's image, so it must catch that solver
    right = koszul.solve_inf

    def right_on_samples_only(g, var):
        samples = [koszul._sample_series(g.coeff_arity, g.axes, salt) for salt in range(2)]
        return right(g, var) if g in samples else g

    monkeypatch.setattr(koszul, "solve_inf", right_on_samples_only)
    report = koszul_reduce((1,), (2,), 8)
    (step,) = report.steps
    assert step["solve_exact"] and not step["round_trip_exact"]
    assert not report.checks_passed


def test_koszul_report_serializes():
    report = koszul_reduce((1,), (), 8)
    d = report.to_dict()
    assert d["verdict"] == "h0" and d["matches_prediction"] is True
    assert d["extraction_index"] == [1]


def test_koszul_disjointness_required():
    with pytest.raises(ValueError):
        koszul_reduce((1,), (1,), 8)
