import hashlib
import itertools
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
    shift_cycle,
    solve_inf,
    solve_zero,
)
from mellinops import shiftpoly

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


def solve_cases(kind):
    """(g, v): a sparse series over 1..3 axes of mixed kinds, with rational
    coefficients in every variable, and an axis v of this kind."""
    coeff = st.sampled_from([Fraction(n, d) for n in range(-6, 7) for d in range(1, 5)])
    cases = []
    for arity in (1, 2, 3):
        expo = st.sampled_from(list(itertools.product(range(3), repeat=arity)))
        poly = st.dictionaries(expo, coeff, min_size=1, max_size=3).map(
            lambda t, arity=arity: ShiftPolynomial(arity, t)
        )
        for kinds in itertools.product(("zero", "inf"), repeat=arity):
            if kind not in kinds:
                continue
            axes = tuple(Axis(j, k, 4) for j, k in enumerate(kinds, start=1))
            idx = st.sampled_from(list(itertools.product(*(axis.window for axis in axes))))
            series = st.dictionaries(idx, poly, max_size=8).map(
                lambda t, arity=arity, axes=axes: TailSeries(arity, axes, t)
            )
            var = st.sampled_from([axis.var for axis in axes if axis.kind == kind])
            cases.append(st.tuples(series, var))
    return st.one_of(cases)


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


@PROPERTY
@given(solve_cases("inf"))
def test_solve_inf_round_trips_over_mixed_axes(case):
    g, var = case
    assert shift_cycle(solve_inf(g, var), var) == g
    assert solve_inf(shift_cycle(g, var), var) == g


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


@PROPERTY
@given(solve_cases("zero"))
def test_solve_zero_interior_exactness_over_mixed_axes(case):
    g, var = case
    assert shift_cycle(solve_zero(g, var), var).agrees_on_interior(g, var)


def test_solvers_share_one_zero(monkeypatch):
    # each column starts from zero and every missing index reads as zero; all
    # of them are the one zero of the arity, built at most once
    s2 = ShiftPolynomial.variable(2, 2)
    g = TailSeries(2, (Axis(1, "zero", 6), Axis(2, "inf", 6)), {(2, 1): s2, (5, 4): 3})
    built = []
    init = ShiftPolynomial.__init__
    monkeypatch.setattr(ShiftPolynomial, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    solve_zero(g, 1)
    solve_inf(g, 2)
    assert len(built) <= 1


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


def test_kernel_extraction_on_a_second_variable():
    phi = ShiftPolynomial.variable(1, 2) + 2 * ShiftPolynomial.variable(2, 2)
    k = kernel_element(phi, 2, 4, coeff_arity=2)
    assert k.axes == (Axis(2, "zero", 4),)
    assert k.coefficient((1,)) == phi
    assert k.coefficient((3,)) == phi.shift(2, -2)


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
    for assign in itertools.product("ijn", repeat=3):
        i_set = tuple(k + 1 for k, a in enumerate(assign) if a == "i")
        j_set = tuple(k + 1 for k, a in enumerate(assign) if a == "j")
        report = koszul_reduce(i_set, j_set, 12)
        assert report.verdict == ("acyclic" if j_set else "h0"), (i_set, j_set)
        assert report.checks_passed


def test_round_trip_is_checked_off_the_samples(monkeypatch):
    # a solver that is right only on the sample inputs passes solve_exact; the
    # round trip solves on a sample's image, so it must catch that solver
    right = koszul.solve_inf

    def right_on_samples_only(g, var):
        samples = [koszul._sample_series(g.coeff_arity, g.axes, salt)
                   for salt in range(koszul._SAMPLES)]
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


def kernel_values():
    """The solves, cycles and kernel elements of the reductions, on the sample
    series over every mix of one to three zero and inf axes at window 6."""
    for arity in (1, 2, 3):
        for kinds in itertools.product(("zero", "inf"), repeat=arity):
            axes = tuple(Axis(v, kind, 6) for v, kind in enumerate(kinds, start=1))
            for salt in range(koszul._SAMPLES):
                g = koszul._sample_series(arity, axes, salt)
                for axis in axes:
                    solve = solve_inf if axis.kind == "inf" else solve_zero
                    yield solve(g, axis.var)
                    yield shift_cycle(g, axis.var)
            for var in range(1, arity + 1):
                for phi in koszul._sample_phis(arity, var):
                    yield kernel_element(phi, var, 6, arity)


def test_kernel_values_are_pinned():
    # the reports pin verdicts, and an inf-only elimination is self-consistent
    # for any linear tau, so the values themselves are pinned here: a unit
    # shift stepped by 2 leaves the report digests but changes this one
    digest = hashlib.sha256()
    for value in kernel_values():
        digest.update(repr(value).encode() + b"\n")
    assert digest.hexdigest() == "05d33080b679c0bc13b9a9d025892d744e2afcae00f46ba5831e0d8a1d5f8f71"


def test_shift_rows_stay_few_and_exact(monkeypatch):
    # one table per (variable, steps), one row per exponents in it, built from
    # ints alone on its first lookup and then reused
    builds, lookups = [], []

    class Counted(shiftpoly._Rows):
        __slots__ = ()

        def __getitem__(self, expo):
            lookups.append(expo)
            return super().__getitem__(expo)

        def __missing__(self, expo):
            builds.append(expo)
            return super().__missing__(expo)

    monkeypatch.setattr(shiftpoly, "_ROWS", {})
    monkeypatch.setattr(shiftpoly, "_Rows", Counted)
    koszul_reduce((1, 2, 3), (), 12)
    tables = shiftpoly._ROWS.values()
    rows = [row for table in tables for row in table.values()]
    assert all(type(table) is Counted for table in tables)
    assert 0 < len(rows) == len(builds) < 500 and len(lookups) > 10 * len(builds)
    assert all(type(x) is int for row in rows for key, w in row for x in (*key, w))
