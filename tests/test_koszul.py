import hashlib
import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellinops import (
    Axis,
    ShiftPolynomial,
    TailSeries,
    TruncationOverflow,
    induced_action_congruence,
    kernel_element,
    koszul,
    koszul_reduce,
    shift_cycle,
    solve_inf,
    solve_zero,
)
from mellinops import cli, shiftpoly
from mellinops.ore import MAX_INDEX
from mellinops.sparse import binomial_shift

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
    # is the kernel representative of its own first slice (top slice free);
    # a series holds no zero coefficient, so that is an empty interior
    x = kernel_element(phi, 1, n_max)
    assert not shift_cycle(x, 1).interior_terms(1)
    # perturb an interior slice: the kernel property must break
    bad = x + zero_series(n_max, {(2,): 1})
    assert shift_cycle(bad, 1).interior_terms(1)


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


def partitions_of_up_to_three():
    """The 26 splits into (I, J) of the non-empty subsets of 1, 2, 3."""
    for p in (1, 2, 3):
        for variables in itertools.combinations((1, 2, 3), p):
            for in_j in itertools.product((False, True), repeat=p):
                yield (tuple(v for v, j in zip(variables, in_j) if not j),
                       tuple(v for v, j in zip(variables, in_j) if j))


# an order-preserving renaming of the variables 1, 2, 3 into 1..MAX_INDEX
RENAMED = {1: 7, 2: 300, 3: MAX_INDEX}


def renamed(report):
    """A report's dict with every variable index renamed by RENAMED."""
    d = report.to_dict()
    d["i_set"], d["j_set"] = [RENAMED[v] for v in d["i_set"]], [RENAMED[v] for v in d["j_set"]]
    for entry in d["steps"] + d["congruences"]:
        entry["variable"] = RENAMED[entry["variable"]]
    return d


def test_reports_are_the_same_under_a_renaming_of_the_variables():
    # a reduction computes in its own variables, ranked by index, so an index
    # only names a variable: each of the 26 partitions of up to three of 1, 2,
    # 3 reports the same under the renaming, at any size of the indices
    for i_set, j_set in partitions_of_up_to_three():
        moved = koszul_reduce([RENAMED[v] for v in i_set], [RENAMED[v] for v in j_set], 4)
        assert moved.to_dict() == renamed(koszul_reduce(i_set, j_set, 4)), (i_set, j_set)


@pytest.mark.parametrize("name, i_set, j_set, check", [
    ("_solve_terms", (1,), (2,), "solve_exact"),
    # the kernel rows carry short ids, so their names differ early on
    pytest.param("kernel_element", (2,), (1,), "kernel_check",
                 id="kernel-i_set1-j_set1-kernel_check"),
    ("_solve_terms", (1, 2), (), "solve_exact_interior"),
    pytest.param("kernel_element", (1, 2), (), "kernel_check",
                 id="kernel-i_set3-j_set3-kernel_check"),
])
def test_each_elimination_check_fails_on_a_pass_that_drops_a_term(
        monkeypatch, name, i_set, j_set, check):
    # the checks read the solves and kernel elements at every index they
    # judge, so a solve pass that loses the term at its lowest index, or a
    # kernel element that loses its top slice (the last one the interior
    # relation reads), must turn the check it is judged by false
    assert koszul_reduce(i_set, j_set, 8).steps[0][check]
    right = getattr(koszul, name)

    def dropping_one_term(*args):
        out = right(*args)
        if name == "kernel_element":
            return out._like({i: p for i, p in out.terms.items() if i != max(out.terms)})
        out = dict(out)
        if out:  # the congruences' solve_zero runs this pass on zero defects too
            del out[min(out)]
        return out

    monkeypatch.setattr(koszul, name, dropping_one_term)
    report = koszul_reduce(i_set, j_set, 8)
    assert not report.steps[0][check] and not report.checks_passed


def tau_by(factor):
    """A row map that translates by factor * steps where tau translates by steps."""

    def rows(self, expo):
        jj = self.jj
        head, tail = expo[:jj], expo[jj + 1 :]
        row = self[expo] = tuple(
            (head + (i,) + tail, w) for i, w in binomial_shift(expo[jj], factor * self.steps))
        return row

    return rows


def three_times(self, expo):
    row = self[expo] = ((expo, 3),)
    return row


def raise_and_subtract(self, expo):
    # s^e -> s^(e+1) - 2 s^e in the translated variable
    jj = self.jj
    row = self[expo] = ((expo[:jj] + (expo[jj] + 1,) + expo[jj + 1 :], 1), (expo, -2))
    return row


RIGHT_SOLVE = koszul._solve_terms


def solve_dropping(pick):
    """A _solve_terms that loses the term at the index ``pick`` chooses."""

    def solve(terms, pos, axis):
        out = RIGHT_SOLVE(terms, pos, axis)
        if out:
            del out[pick(sorted(out))]
        return out

    return solve


def solve_dropping_a_monomial(terms, pos, axis):
    """A _solve_terms that loses one monomial inside one coefficient."""
    out = RIGHT_SOLVE(terms, pos, axis)
    if out:
        idx = min(out)
        coeff = dict(out[idx])
        del coeff[min(coeff)]
        if coeff:
            out[idx] = coeff
        else:
            del out[idx]
    return out


@pytest.mark.parametrize("target, attr, wrong", [
    (shiftpoly._Rows, "__missing__", tau_by(0)),
    (shiftpoly._Rows, "__missing__", tau_by(2)),
    (shiftpoly._Rows, "__missing__", tau_by(-1)),
    (shiftpoly._Rows, "__missing__", three_times),
    (shiftpoly._Rows, "__missing__", raise_and_subtract),
    (koszul, "_solve_terms", solve_dropping(lambda idx: idx[0])),
    (koszul, "_solve_terms", solve_dropping(lambda idx: idx[len(idx) // 2])),
    (koszul, "_solve_terms", solve_dropping(lambda idx: idx[-1])),
    (koszul, "_solve_terms", solve_dropping_a_monomial),
], ids=["tau-by-0", "tau-by-2-steps", "tau-by-minus-steps", "three-times-identity",
        "raise-and-subtract", "drop-lowest-index", "drop-middle-index",
        "drop-highest-index", "drop-one-monomial"])
def test_a_wrong_shift_or_solve_fails_every_partition(monkeypatch, target, attr, wrong):
    # the solves are judged by the differential's definition read as numbers,
    # not by a second pass through the same rows, so a translation that is not
    # tau, or a solve that loses a term, fails each partition of up to three
    # variables; its verdict then says so, and the prediction is not met
    monkeypatch.setattr(shiftpoly, "_ROWS", {})
    monkeypatch.setattr(target, attr, wrong)
    for i_set, j_set in partitions_of_up_to_three():
        report = koszul_reduce(i_set, j_set, 8)
        assert not report.checks_passed, (i_set, j_set)
        assert report.verdict == "unverified" and not report.matches_prediction


def test_a_wrong_shift_makes_the_koszul_command_exit_1(monkeypatch):
    # the verdict reads the evidence: under tau by 0 it is not the predicted
    # outcome, and the command fails
    monkeypatch.setattr(shiftpoly, "_ROWS", {})
    monkeypatch.setattr(shiftpoly._Rows, "__missing__", tau_by(0))
    out = io.StringIO()
    assert cli.main(["koszul", "--I", "1", "--J", "2", "--N", "8"], stream=out) == 1
    report = json.loads(out.getvalue())["report"]
    assert report["verdict"] == "unverified" and report["predicted"] == "acyclic"
    assert report["matches_prediction"] is False and report["checks_passed"] is False


def test_koszul_report_serializes():
    report = koszul_reduce((1,), (), 8)
    d = report.to_dict()
    assert d["verdict"] == "h0" and d["matches_prediction"] is True
    assert d["extraction_index"] == [1]


def test_koszul_disjointness_required():
    with pytest.raises(ValueError):
        koszul_reduce((1,), (1,), 8)


def test_a_window_too_long_to_index_overflows():
    # a window of more than sys.maxsize indices has no len(); it is refused as
    # any window above MAX_WINDOW is
    with pytest.raises(TruncationOverflow, match=r"is above 10000$"):
        koszul_reduce((1,), (2,), 10 ** 20)


def sample_series(arity, axes, salt):
    """The reductions' raw sample series, wrapped as a TailSeries."""
    return TailSeries(arity, axes)._wrapped(koszul._sample_terms(arity, axes, salt))


def kernel_values():
    """The solves, cycles and kernel elements of the reductions, on the sample
    series over every mix of one to three zero and inf axes at window 6."""
    for arity in (1, 2, 3):
        for kinds in itertools.product(("zero", "inf"), repeat=arity):
            axes = tuple(Axis(v, kind, 6) for v, kind in enumerate(kinds, start=1))
            for salt in range(koszul._SAMPLES):
                g = sample_series(arity, axes, salt)
                for axis in axes:
                    solve = solve_inf if axis.kind == "inf" else solve_zero
                    yield solve(g, axis.var)
                    yield shift_cycle(g, axis.var)
            for var in range(1, arity + 1):
                for phi in koszul._sample_phis(arity, var):
                    yield kernel_element(phi, var, 6, arity)


def test_kernel_values_are_pinned():
    # the reports pin verdicts, which a wrong translation now turns (see
    # test_a_wrong_shift_or_solve_fails_every_partition); the values
    # themselves, which no report carries, are pinned here
    digest = hashlib.sha256()
    for value in kernel_values():
        digest.update(repr(value).encode() + b"\n")
    assert digest.hexdigest() == "05d33080b679c0bc13b9a9d025892d744e2afcae00f46ba5831e0d8a1d5f8f71"


def test_shift_rows_stay_few_and_exact(monkeypatch):
    # at most two tables per variable, of the unit steps +1 (the passes) and
    # -1 (the kernel elements), one row per exponents in each, built from ints
    # alone on its first lookup and then reused
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
    assert set(shiftpoly._ROWS) <= {(jj, steps) for jj in range(3) for steps in (1, -1)}
    tables = shiftpoly._ROWS.values()
    rows = [row for table in tables for row in table.values()]
    assert all(type(table) is Counted for table in tables)
    assert 0 < len(rows) == len(builds) < 500 and len(lookups) > 10 * len(builds)
    assert all(type(x) is int for row in rows for key, w in row for x in (*key, w))
