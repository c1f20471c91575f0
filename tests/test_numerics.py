import math
from math import factorial

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from mellinops import (
    PreconditionFailed,
    QuadratureFailure,
    ResidualReport,
    SFactor,
    asymptotic_remainder_check,
    build_builtin,
    cauchy_convolve,
    convolution_remainder,
    epsilon_commutation_check,
    haar_integral,
    moment_table,
    parameter_expansion,
    parse,
    ray_mellin,
    stokes_identity_check,
    verify_commutation,
)
from mellinops import cli, numerics
from mellinops.cli import BUILTIN_NAMES
from mellinops.numerics import (
    ABS_TOL,
    _HAAR_LEVELS,
    _cpx,
    _haar_integral_once,
    _predicted_order,
    _radial_nodes,
    _ray_transforms,
    annihilation_guard,
    stokes_checks,
)
from mellinops.quadrature import _ROUNDING_ULPS, csum, periodic_nodes, refine_failure, refine_step
from mellinops.testfunctions import (
    Term,
    TestFunction,
    envelope_mode,
    ray_exponential,
)

# frozen oracle values (scipy.integrate.quad on the radial reductions):
#   int_0^inf r^(k-1) exp(-r - 1/r) dr  for k = 1, 2, 3
RADIAL_ENVELOPE_MOMENT = {1: 0.2797317636330449, 2: 0.5075195091321115, 3: 1.2947707818972598}
SQRT_PI = 1.7724538509055159


def radial_oracle(k, r_power=0):
    """1-D reduction of a matched-mode Haar moment via scipy quadrature."""
    val, _ = scipy.integrate.quad(
        lambda r: r ** (k - 1 + r_power) * math.exp(-r - 1 / r), 0, np.inf, limit=400
    )
    return -2.0 * val


# -- moments ------------------------------------------------------------------------


def test_moment_matched_mode_against_radial_oracle():
    # the angular integral collapses to the matching mode; the rest is radial
    for k in (1, 2, 3):
        tab = moment_table(build_builtin(f"mode{k}"), k, 0)
        value = tab.values[k]
        assert tab.errors[k] < 1e-10
        assert value == pytest.approx(radial_oracle(k), abs=1e-9)
        assert value == pytest.approx(-2 * RADIAL_ENVELOPE_MOMENT[k], abs=1e-9)


def test_moment_mismatched_modes_vanish():
    f1 = moment_table(build_builtin("mode1"), 2, 0)
    assert abs(f1.values[2]) < 1e-12
    assert abs(moment_table(build_builtin("radial"), 1, 0).values[1]) < 1e-12
    # zero-side moments couple to the opposite angular sign
    assert abs(f1.values[-1]) < 1e-12


# angular modes (weight) of the envelope built-ins, all on exp(-r - 1/r)
ENVELOPE_MODES = {
    "radial": {0: 1.0},
    "mode1": {1: 1.0},
    "mode2": {2: 1.0},
    "mode3": {3: 1.0},
    "modeblend": {m: 1.0 / factorial(m) for m in range(6)},
    "mode9": {9: 1.0},
    "mode13": {13: 1.0},
    "mode20": {20: 1.0},
}


@pytest.mark.parametrize("name", sorted(ENVELOPE_MODES))
def test_haar_integral_against_bessel_closed_form(name):
    # (1/2i*pi) int xi^p e^(-i m theta) exp(-r - 1/r) dmu is -2 int r^(m-1)
    # exp(-r - 1/r) dr = -4 K_m(2) for p = m and exactly 0 otherwise; no code
    # shared with the quadrature
    modes, powers = ENVELOPE_MODES[name], range(-21, 22)
    values, _, _ = haar_integral(build_builtin(name), powers)
    for p, value in zip(powers, values):
        if p in modes:
            exact = -4.0 * modes[p] * scipy.special.kv(p, 2.0)
            assert abs(value - exact) <= 1e-12 * abs(exact), (p, value, exact)
        else:
            assert value == 0, (p, value)


@pytest.mark.parametrize("name", sorted(ENVELOPE_MODES))
def test_moment_error_estimate_covers_the_closed_form(name):
    # the coarse-to-fine increment alone misses rounding both levels share:
    # mode3 at k_max 5 reported 5.5e-15 with its order-5 entry 7.1e-15 off
    modes = ENVELOPE_MODES[name]
    for k_max in range(9):
        table = moment_table(build_builtin(name), k_max)
        exact = [-4.0 * modes[k] * scipy.special.kv(k, 2.0) if k in modes else 0.0
                 for k in range(k_max + 1)]
        for p in range(-k_max, 0):
            assert abs(table.values[p]) <= table.error, (k_max, p, table.values[p])
        for k, want in enumerate(exact):
            value = table.values[k]
            assert abs(value - want) <= table.error, (k_max, k, value, want)


def _haar_grid(panel_width, order, n_theta):
    """The polar grid on the Haar panels in u = log r times uniform angles, as (xi, weights)."""
    u, wu = _radial_nodes(panel_width, order)
    theta, wth = periodic_nodes(n_theta)
    return np.exp(u)[:, None] * np.exp(1j * theta), wu[:, None] * wth


@pytest.mark.parametrize("name, s", [("modeblend", 0.5), ("sep-modeblend", 1.0 + 0.25j)])
def test_haar_transform_matches_the_direct_sum_on_its_grid(name, s):
    # reference: each order summed over the 2-D polar grid on the same radial
    # panels with its own e^(i p theta); 96 uniform angles keep the angular
    # order -p of f alone, so the radial rule agrees with the 2-D sum to
    # rounding of the integral of |xi^p f|, which bounds the radial scale
    f, powers = build_builtin(name), range(-9, 10)
    for level in _HAAR_LEVELS[:2]:  # the levels the moments settle on
        values, scales = _haar_integral_once(f, powers, s, level)
        xi, w = _haar_grid(*level, 96)
        vals = f(xi, s)
        for p, value, scale in zip(powers, values, scales):
            direct = -np.sum(vals * xi ** p * w) / math.pi
            modulus = np.sum(np.abs(vals * xi ** p) * w) / math.pi
            assert abs(value - direct) <= 1e-13 * modulus, (p, value, direct)
            assert scale <= modulus * (1 + 1e-13)


def test_moment_table_scale_is_the_integral_of_the_modulus():
    # mode2 has the one angular order -2, so only order 2 has an integrand:
    # 2 r^2 exp(-r - 1/r) du, whose integral is 4 K_2(2)
    table = moment_table(build_builtin("mode2"), 6, 1.0)
    assert table.scales[2] == pytest.approx(4.0 * scipy.special.kv(2, 2.0), rel=1e-12)
    assert all(table.scales[p] == 0 for p in range(-6, 7) if p != 2)


def test_moment_negative_mode_couples_on_zero_side():
    # the mode (xi/|xi|) couples only to the order-1 coefficient at zero;
    # the radial factor there is r^-2 E(r), equal to E under r <-> 1/r, so
    # the same radial oracle applies (with the zero-side sign flip)
    tab = moment_table(TestFunction((envelope_mode(-1),), "mode-1"), 3, 0)
    assert -tab.values[-1] == pytest.approx(-radial_oracle(1), abs=1e-9)
    for k in range(0, 4):
        assert abs(tab.values[k]) < 1e-12


def test_moment_zero_function():
    zero = TestFunction((envelope_mode(0, weight=0.0),), "null")
    assert moment_table(zero, 3, 0).values[3] == 0


def test_moment_linearity_and_scaling():
    f = build_builtin("mode2")
    a = 2.5 - 1.5j
    scaled = moment_table(TestFunction(tuple(t.moved(a, 0, 0) for t in f.terms), "af"), 2, 0).values[2]
    base = moment_table(f, 2, 0).values[2]
    assert abs(scaled - a * base) <= 1e-10 * abs(a * base)


def test_moment_preconditions():
    with pytest.raises(QuadratureFailure):
        moment_table(build_builtin("gamma"), 1, 0)  # no all-angle decay
    # exp(-t) has no finite angular split, whatever the radial envelope
    holomorphic = TestFunction((Term(exp_t=((1, -1 + 0j),), exp_r=((1, -1.0), (-1, -1.0))),),
                               "holomorphic-envelope")
    assert all(holomorphic.decay())
    with pytest.raises(QuadratureFailure, match="holomorphic-envelope"):
        moment_table(holomorphic, 1, 0)


@pytest.mark.parametrize("name", ["mode100", "mode150"])
def test_moment_table_of_an_unsettled_order_fails(name):
    # order 100 moves by about 9e150 between the levels, and e^(150 u)
    # overflows on both: neither may be reported, and no warning escapes
    with pytest.raises(QuadratureFailure):
        moment_table(build_builtin(name), int(name[4:]))


def test_moment_table_layout():
    # modeblend weights mode m by 1/m!, so the order-k coefficient at
    # infinity is the matched radial integral divided by k!
    tab = moment_table(build_builtin("modeblend"), 4, 0.5)
    assert list(tab.values) == list(tab.errors) == list(tab.scales) == list(range(-4, 5))
    for k in (0, 2, 4):
        assert tab.values[k] == pytest.approx(radial_oracle(k) / factorial(k), abs=1e-9)
    assert all(abs(tab.values[p]) < 1e-10 for p in range(-4, 0))
    floor = _ROUNDING_ULPS * np.finfo(float).eps
    assert tab.error == max(max(tab.errors.values()), floor * max(tab.scales.values()))


def test_moment_table_report_lists_the_sides():
    # order k is the coefficient of t^-k at infinity, order -k minus that of t^k at zero
    tab = moment_table(INNERBLEND, 4, 0.5)
    report = tab.to_dict()
    assert report["zero_side"] == [_cpx(-tab.values[-k]) for k in range(1, 5)]
    assert report["inf_side"] == [_cpx(tab.values[k]) for k in range(5)]


class CountingFunction:
    """Duck-typed test function that counts its splits into angular orders."""

    def __init__(self, f):
        self.f, self.name, self.calls = f, f.name, 0

    def modes(self, r, s=0j):
        self.calls += 1
        return self.f.modes(r, s)

    def decay(self):
        return self.f.decay()


def test_moment_table_evaluates_once_per_level():
    f = CountingFunction(build_builtin("mode2"))
    moment_table(f, 8, 1.0)
    assert f.calls == 2  # the table settles on the second of the shared levels


# -- the moment transport identity ----------------------------------------------------


def test_stokes_identity_k0_left_side_vanishes():
    rep = stokes_identity_check(build_builtin("radial"), 0, 0)
    assert rep.verdict
    assert abs(complex(*([rep.extras["lhs"][0], rep.extras["lhs"][1]]))) < 1e-10


def test_stokes_identity_matched_mode_k2():
    # both sides reduce to radial integrals; compare against scipy:
    # lhs = -k * (-2 * int r^(k-1) E dr)
    rep = stokes_identity_check(build_builtin("mode2"), 2, 0)
    assert rep.verdict and rep.max_relative <= 1e-6
    lhs = complex(rep.extras["lhs"][0], rep.extras["lhs"][1])
    assert lhs == pytest.approx(-2 * radial_oracle(2), abs=1e-8)


def test_stokes_identity_family_k_le_8():
    for k in range(9):
        f = build_builtin("radial") if k == 0 else build_builtin(f"mode{k}")
        rep = stokes_identity_check(f, k, 0)
        assert rep.verdict, (k, rep.max_relative)


def test_stokes_zero_function():
    zero = TestFunction((envelope_mode(1, weight=0.0),), "null")
    rep = stokes_identity_check(zero, 2, 0)
    assert rep.verdict


class ScaledDerivative(TestFunction):
    """A test function whose d/dt is off by the factor 1 + 1e-5."""

    def wirtinger_t(self):
        return super().wirtinger_t().scale(1 + 1e-5)


@pytest.mark.parametrize("name, coupling", [("mode2", {2}), ("modeblend", {1, 2, 3, 4, 5}),
                                            ("gaussblend", {1, 2, 3, 4, 5})])
def test_stokes_checks_fail_a_broken_identity_at_coupling_orders(name, coupling):
    f = build_builtin(name)
    broken = ScaledDerivative(f.terms, f.name)
    table = moment_table(f, 6, 1.0)
    verdicts = [rep.verdict for rep in stokes_checks(broken, table)]
    assert [k for k, ok in enumerate(verdicts) if not ok] == sorted(coupling)
    assert all(rep.verdict for rep in stokes_checks(f, table))
    assert not stokes_identity_check(broken, 2, 1.0).verdict


def test_transport_checks_settle_every_integral_at_the_tables_tolerance(monkeypatch):
    # every Haar integral the checks add, the derivative's and the tables of
    # the Euler, shifted and cycled functions, reads the table's tolerance
    tols = []
    haar = numerics.haar_integral
    monkeypatch.setattr(numerics, "haar_integral",
                        lambda f, powers, s, tol: tols.append(tol) or haar(f, powers, s, tol))
    f = build_builtin("sep-modeblend")
    table = moment_table(f, 4, 0.75 + 0.25j, 1e-13)
    assert table.tol == 1e-13 and tols == [1e-13]
    stokes_checks(f, table)
    epsilon_commutation_check(f, table)
    assert tols == [1e-13] * 5


@pytest.mark.parametrize("name", ["mode3", "modeblend", "gaussblend", "sep-modeblend"])
def test_a_tables_entries_do_not_depend_on_its_k_max(name):
    # Haar integrals settle entry by entry on their last level, so the checks
    # may read f's moments from the run's table at any larger k_max
    f = build_builtin(name)

    def bits(table, k_max):
        orders = range(-k_max, k_max + 1)
        return [np.array([column[p] for p in orders]).tobytes()
                for column in (table.values, table.errors, table.scales)]

    for k_max in range(9):
        assert bits(moment_table(f, k_max, 0.5 + 0.25j), k_max) == \
            bits(moment_table(f, k_max + 1, 0.5 + 0.25j), k_max), k_max


def test_stokes_quad_error_is_floored_at_the_rounding_of_its_scale():
    # the increments of these rows are 0 to 2 ulps, below the rounding the two
    # levels share
    f = build_builtin("modeblend")
    table = moment_table(f, 6)
    for k, rep in enumerate(stokes_checks(f, table)):
        assert rep.extras["quad_error"] >= _ROUNDING_ULPS * np.finfo(float).eps * table.scales[k]


# -- the singular convolution ---------------------------------------------------------


def test_convolve_zero_function():
    zero = TestFunction((envelope_mode(0, weight=0.0),), "null")
    assert cauchy_convolve(zero, 3.0 + 1.0j) == 0


def test_convolve_requires_nonzero_center():
    with pytest.raises(ValueError, match="^the convolution kernel is centered on t != 0$"):
        cauchy_convolve(build_builtin("modeblend"), 0.0)


def test_convolve_linearity():
    f = build_builtin("mode1")
    g = build_builtin("mode2")
    t = 5.0 + 2.0j
    fg = TestFunction(tuple(tm.moved(2.0, 0, 0) for tm in f.terms) + g.terms, "mix")
    combined = cauchy_convolve(fg, t)
    separate = 2.0 * cauchy_convolve(f, t) + cauchy_convolve(g, t)
    assert abs(combined - separate) <= 1e-8 * max(abs(combined), 1e-6)


def test_convolve_decomposition_consistency():
    # K*f equals the order-n partial sum plus the exact remainder integral
    f = build_builtin("modeblend")
    t = 12.0
    total = cauchy_convolve(f, t)
    n = 2
    tab = moment_table(f, n)
    partial = sum(tab.values[k] * t ** (-k) for k in range(n + 1))
    rem, _ = convolution_remainder(f, t, n=n)
    assert abs(total - (partial + rem)) <= 2e-9


# the innerblend of test_remainder_ratios_zero_side: inner angular modes only
INNERBLEND = TestFunction(
    tuple(envelope_mode(-mm, weight=1.0 / factorial(mm), radial={2: -1.0, -2: -1.0})
          for mm in range(5)),
    "innerblend",
)


@pytest.mark.parametrize("t", [0.1, 0.08 + 0.03j])
@pytest.mark.parametrize("n", [1, 2])
def test_convolve_decomposition_zero_side(t, n):
    # near 0, K*f is sum_k zero-moment_k t^k plus the zero-side remainder
    total = cauchy_convolve(INNERBLEND, t)
    tab = moment_table(INNERBLEND, n)
    partial = sum(-tab.values[-k] * t ** k for k in range(1, n + 1))
    rem, _ = convolution_remainder(INNERBLEND, t, n=n, side="zero")
    assert abs(total - (partial + rem)) <= 1e-12


# the blends, the costliest near 0, are left out to keep this under a second
@pytest.mark.parametrize("t", [12.0, 0.08 + 0.03j])
@pytest.mark.parametrize("name", ["radial", "mode1", "mode2", "mode3", "sep-mode2", "sep-modeblend"])
def test_convolve_is_the_zero_side_remainder_after_no_terms(name, t):
    # one entry point and one target: q = 0 divides by t^0 = 1 exactly
    f = build_builtin(name)
    assert cauchy_convolve(f, t) == convolution_remainder(f, t, 0j, 0, "zero")[0]


def test_remainder_scaling_bound_across_radii():
    # |K*f - sum_{k<=2}| <= C |t|^-3 with C estimated at |t| = 10
    f = build_builtin("gaussblend")
    r10, _ = convolution_remainder(f, 10.0, n=2)
    c_est = abs(r10) * 10.0 ** 3
    r20, _ = convolution_remainder(f, 20.0, n=2)
    assert abs(r20) <= 1.25 * c_est / 20.0 ** 3


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_remainder_ratios_infinity_side(n):
    rep = asymptotic_remainder_check(build_builtin("gaussblend"), n, (10.0, 20.0, 40.0))
    assert rep.verdict, rep.extras["ratios"]
    for ratio in rep.extras["ratios"]:
        assert 2 ** (n + 0.5) <= ratio <= 2 ** (n + 1.5)


def test_remainder_ratios_zero_side():
    inner = TestFunction(
        tuple(envelope_mode(-mm, weight=1.0 / factorial(mm), radial={2: -1.0, -2: -1.0})
              for mm in range(5)),
        "innerblend",
    )
    rep = asymptotic_remainder_check(inner, 1, (10.0, 20.0, 40.0), side="zero")
    assert rep.verdict, rep.extras["ratios"]


def test_remainder_zero_function():
    zero = TestFunction((envelope_mode(0, weight=0.0),), "null")
    rep = asymptotic_remainder_check(zero, 1, (10.0, 20.0))
    assert rep.verdict  # identically-zero remainders count as in-order


def test_remainder_radius_validation():
    with pytest.raises(ValueError):
        asymptotic_remainder_check(build_builtin("gaussblend"), 1, (0.5, 2.0))


@pytest.mark.parametrize("name", ["radial", "mode1", "mode2", "sep-mode2"])
def test_remainder_order_single_modes(name):
    # every moment past order 2 vanishes for one angular mode, so the tail after
    # two terms decays faster than radius^-3: at least past the moment table
    rep = asymptotic_remainder_check(build_builtin(name), 2, (10.0, 20.0, 40.0), s=1.0)
    assert rep.verdict, rep.extras
    assert rep.extras["one_sided"] and rep.extras["predicted_order"] == 7
    assert all(order >= 6.5 for order in rep.extras["observed_orders"])


def test_remainder_order_predicted_from_moments():
    rep = asymptotic_remainder_check(build_builtin("mode3"), 2, (10.0, 20.0, 40.0), s=1.0)
    assert rep.verdict and rep.extras["predicted_order"] == 3 and not rep.extras["one_sided"]
    assert all(abs(order - 3) <= 0.5 for order in rep.extras["observed_orders"])
    rep = asymptotic_remainder_check(INNERBLEND, 1, (10.0, 20.0, 40.0), side="zero")
    assert rep.verdict and rep.extras["predicted_order"] == 2 and not rep.extras["one_sided"]
    # gaussblend has no order past 5: orders 9..12 are exact zeros
    rep = asymptotic_remainder_check(build_builtin("gaussblend"), 8, (10.0, 20.0, 40.0))
    assert rep.verdict and rep.extras["predicted_order"] == 13 and rep.extras["one_sided"]


HAAR_BUILTINS = [name for name in BUILTIN_NAMES if all(build_builtin(name).decay())]


@pytest.mark.parametrize("s", [0j, 0.75 + 0.25j])
@pytest.mark.parametrize("name", HAAR_BUILTINS)
def test_predicted_order_is_the_first_nonzero_moment(name, s):
    # the angular orders f carries name the same order as the exact zeros of
    # its moment table, on both sides
    f = build_builtin(name)
    for n in range(8):
        values = moment_table(f, n + 4, s).values
        for side, sign in (("infinity", 1), ("zero", -1)):
            leading = [k for k in range(n + 1, n + 5) if values[sign * k]]
            expected = (leading[0], False) if leading else (n + 5, True)
            assert _predicted_order(f, n, side, s) == expected, (n, side)


def test_negative_orders_are_named():
    f = build_builtin("modeblend")
    with pytest.raises(ValueError, match="k_max"):
        moment_table(f, -1)
    with pytest.raises(ValueError, match="order n"):
        asymptotic_remainder_check(f, -3, (10.0, 20.0))


@pytest.mark.parametrize("name, call", [
    ("k_max", lambda f: moment_table(f, 1.5)),
    ("k_max", lambda f: stokes_identity_check(f, -1)),
    ("order n", lambda f: convolution_remainder(f, 10.0, n=-1)),
    ("order n", lambda f: convolution_remainder(f, 0.1, n=-2, side="zero")),
    ("order n", lambda f: convolution_remainder(f, 10.0, n=1.5)),
    ("order n", lambda f: asymptotic_remainder_check(f, 1.5, (10.0, 20.0))),
    ("alpha_max", lambda f: parameter_expansion(geometric, 0j, 0.5, 1.5)),
], ids=["table-1.5", "stokes-neg", "conv-neg", "conv-zero-neg", "conv-1.5", "tail-1.5",
        "expand-1.5"])
def test_orders_are_non_negative_integers_checked_before_any_grid(name, call):
    f = CountingFunction(build_builtin("modeblend"))
    with pytest.raises(ValueError, match=name):
        call(f)
    assert f.calls == 0


def test_sides_are_spelled_out():
    f = build_builtin("modeblend")
    for side in ("inf", "0", "infinty"):
        with pytest.raises(ValueError, match="unknown side"):
            convolution_remainder(f, 0.1, n=1, side=side)
        with pytest.raises(ValueError, match="unknown side"):
            asymptotic_remainder_check(f, 1, (10.0, 20.0), side=side)


def test_convolution_requires_two_sided_decay():
    gamma = build_builtin("gamma")
    for call in (lambda: cauchy_convolve(gamma, 10.0), lambda: convolution_remainder(gamma, 10.0)):
        with pytest.raises(QuadratureFailure, match="two-sided rapid-decay certificate"):
            call()


@pytest.mark.parametrize("call", [
    lambda f, s: haar_integral(f, range(3), s=s),
    lambda f, s: moment_table(f, 2, s),
    lambda f, s: convolution_remainder(f, 10.0, s=s),
    lambda f, s: asymptotic_remainder_check(f, 1, (20.0, 40.0), s=s),
], ids=["haar_integral", "moment_table", "convolution_remainder", "asymptotic_remainder_check"])
@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan, complex(0, math.inf)])
def test_non_finite_s_is_a_usage_error_at_every_haar_entry(monkeypatch, call, s):
    # bad input (exit 7) ahead of the decay certificate, not a non-finite
    # increment (exit 6): with the grid builder gone no integral is summed
    monkeypatch.setattr(numerics, "_radial_nodes", None)
    with pytest.raises(ValueError, match="^s must be finite, got "):
        call(build_builtin("mode2"), s)
    with pytest.raises(ValueError, match="^s must be finite, got "):
        call(build_builtin("gamma"), s)  # no two-sided decay certificate either


@pytest.mark.parametrize("call", [
    lambda f, t: convolution_remainder(f, t, n=1),
    lambda f, t: cauchy_convolve(f, t),
    lambda f, t: asymptotic_remainder_check(f, 1, (10.0, t)),
], ids=["convolution_remainder", "cauchy_convolve", "asymptotic_remainder_check"])
@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_centers_are_usage_errors(monkeypatch, call, t):
    # bad input (exit 7), not a quadrature failure (exit 6) or an OverflowError;
    # with the grid builders gone, a check after the first grid would not raise it
    monkeypatch.setattr(numerics, "_radial_nodes", None)
    monkeypatch.setattr(numerics, "panel_nodes", None)
    with pytest.raises(ValueError, match="t must be finite"):
        call(build_builtin("mode2"), t)


def test_a_complex_radius_is_a_usage_error(monkeypatch):
    monkeypatch.setattr(numerics, "_radial_nodes", None)
    monkeypatch.setattr(numerics, "panel_nodes", None)
    with pytest.raises(ValueError, match=r"real, got radii \[\(10\+0j\), \(10\+1j\)\]"):
        asymptotic_remainder_check(build_builtin("mode2"), 1, (10.0, 10 + 1j))


@pytest.mark.parametrize("radii, side", [
    ((10.0,), "infinity"), ((10.0, 10.0, 20.0), "infinity"), ((), "infinity"),
    ((0.0, 10.0), "zero"), ((-10.0, 20.0), "zero"), ((-10.0, -20.0), "zero"),
], ids=["one", "repeated", "none", "zero-radius", "negative", "both-negative"])
def test_a_remainder_order_needs_two_distinct_positive_radii(monkeypatch, radii, side):
    # one radius judges no pair, a repeated one divides by log2(1) = 0, and a
    # zero-side radius r <= 0 puts t = 1/r at or across the origin
    monkeypatch.setattr(numerics, "_predicted_order", None)
    monkeypatch.setattr(numerics, "convolution_remainder", None)
    with pytest.raises(ValueError, match="two or more distinct positive radii"):
        asymptotic_remainder_check(build_builtin("mode2"), 1, radii, side=side)


def test_the_convolution_refuses_a_function_without_an_angular_split():
    # Q(r) certifies decay on both sides, but exp(P(t)) has no angular split
    f = TestFunction((Term(exp_t=((1, -1 + 0j),), exp_r=((-1, -1.0), (1, -1.0))),), "ray-bessel")
    assert all(f.decay())
    for call in (lambda: convolution_remainder(f, 10.0, n=1), lambda: cauchy_convolve(f, 10.0)):
        with pytest.raises(QuadratureFailure, match="ray-bessel: exp\\(P\\(t\\)\\) has no angular split"):
            call()


@pytest.mark.parametrize("side", ["infinity", "zero"])
def test_every_tail_order_holds_at_the_cli_radii(side):
    # each Haar built-in's tail after n = 0..12 terms settles and decays at its
    # predicted order across the radii the moments command reads
    failed = [(name, n) for name in HAAR_BUILTINS for n in range(13)
              if not asymptotic_remainder_check(build_builtin(name), n, cli._REMAINDER_RADII,
                                                side).verdict]
    assert not failed


def radial_formula_oracle(f, t, s, n, side):
    """R_n(t) at 40 digits from f's terms: each term c g(s) r^N e^(ik theta) exp(Q(r))
    adds -2 c g(s) t^k times its integral of rho^(N-k-1) exp(Q(rho)) over (0, |t|)
    when k + q <= 0, and +2 c g(s) t^k times the one over (|t|, inf) otherwise."""
    q = n + 1 if side == "infinity" else -n
    with mpmath.workdps(40):
        t, s, total = mpmath.mpc(t), mpmath.mpc(s), mpmath.mpc(0)
        for tm in f.terms:
            k, g = tm.order, 1 if tm.s_factor is None else tm.s_factor(s)

            def radial(rho, tm=tm, k=k):
                return rho ** (tm.power - k - 1) * mpmath.exp(sum(c * rho ** j for j, c in tm.exp_r))

            if k + q <= 0:
                total -= 2 * tm.coeff * g * t ** k * mpmath.quad(radial, [0, abs(t)])
            else:
                total += 2 * tm.coeff * g * t ** k * mpmath.quad(radial, [abs(t), mpmath.inf])
        return complex(total)


@pytest.mark.parametrize("name, n, side, t", [
    ("modeblend", 0, "infinity", 3 + 1j), ("mode3", 2, "infinity", 10.0),
    ("gaussblend", 1, "infinity", 4 - 2j), ("sep-modeblend", 3, "infinity", 20.0),
    ("innerblend", 2, "zero", 0.2 + 0.1j), ("modeblend", 0, "zero", 0.5j),
    ("sep-mode2", 1, "zero", 0.6),
])
def test_tails_hold_their_estimates_of_the_radial_formula(name, n, side, t):
    # both parts, inside and outside |t|, at real and complex t
    f = INNERBLEND if name == "innerblend" else build_builtin(name)
    s = 0.75 + 0.25j
    value, est = convolution_remainder(f, t, s, n, side)
    assert abs(value - radial_formula_oracle(f, t, s, n, side)) <= est


# tails by an independent route, the singular integral over the whole plane:
# xi^q f / (1 - xi/t) on a polar grid at the origin and a locally polar one at
# t, joined by a smooth partition of unity, settled to 3e-6 relative.  At
# s = 0.75 + 0.25i, keyed by (name, n, side, t)
PLANE_TAILS = {
    ("modeblend", 0, "infinity", 3 + 1j): -0.1655348591600568 + 0.07864501421113619j,
    ("modeblend", 1, "infinity", 10.0): -0.00552383251528047,
    ("mode3", 2, "infinity", 4 - 2j): -0.0039937392162475984 - 0.02196556369930691j,
    ("sep-modeblend", 0, "infinity", 2.5 + 0.5j): -0.22504328909736568 + 0.05608928654851313j,
    ("gaussblend", 1, "infinity", 3.0): -0.01858938246301394,
    ("mode1", 0, "infinity", 1.5 - 1j): -0.15473802951249876 - 0.10315868709749362j,
    ("radial", 0, "zero", 0.5 + 0.2j): -0.07971656041299092,
    ("modeblend", 0, "zero", 0.8j): -0.12878318687139736 + 0.10339649619998806j,
    ("sep-mode2", 1, "zero", 0.6): -0.07745439697974153 - 0.007041308816340143j,
    ("mode2", 0, "zero", 2 + 1j): -0.060650617835484255 + 0.0808674904506693j,
}


@pytest.mark.parametrize("key", PLANE_TAILS, ids=lambda key: f"{key[0]}-{key[1]}-{key[2]}")
def test_tails_match_the_plane_integral(key):
    # holds the kernel's expansion inside and outside |t|, which the radial
    # oracle shares with the program
    name, n, side, t = key
    value, _ = convolution_remainder(build_builtin(name), t, 0.75 + 0.25j, n, side)
    assert abs(value - PLANE_TAILS[key]) <= 3e-6 * abs(PLANE_TAILS[key])


@pytest.mark.parametrize("name, side, t", [
    ("modeblend", "infinity", 10.0), ("sep-modeblend", "infinity", 3 + 1j),
    ("gaussblend", "infinity", 4 - 2j), ("innerblend", "zero", 0.1),
    ("innerblend", "zero", 0.2 + 0.1j),
])
def test_consecutive_tails_differ_by_one_moment(name, side, t):
    # at infinity t^(n+1) (R_n - R_(n+1)) is the moment values[n+1]; at zero
    # (R_n - R_(n+1)) / t^(n+1) is -values[-(n+1)]; each within the summed estimates
    f = INNERBLEND if name == "innerblend" else build_builtin(name)
    s = 0.75 + 0.25j
    table = moment_table(f, 7, s)
    tails = [convolution_remainder(f, t, s, n, side) for n in range(8)]
    for n, ((r0, e0), (r1, e1)) in enumerate(zip(tails, tails[1:])):
        p = n + 1 if side == "infinity" else -(n + 1)
        got, want = (r0 - r1) * t ** p, table.values[p] * (1 if side == "infinity" else -1)
        assert abs(got - want) <= (e0 + e1) * abs(t) ** p + table.errors[p], (n, got, want)


# -- commutation of the expansion map ---------------------------------------------------


def test_epsilon_commutation_separable():
    f = build_builtin("sep-modeblend")
    rep = epsilon_commutation_check(f, moment_table(f, 6, 0.7 + 0.3j))
    assert rep.verdict and rep.max_relative <= 1e-6


class ScaledEuler(TestFunction):
    """A test function whose Euler derivative is off by the factor 1 + 1e-5."""

    def euler(self):
        return super().euler().scale(1 + 1e-5)


@pytest.mark.parametrize("name, coupling", [("sep-mode2", {2}), ("sep-modeblend", {1, 2, 3}),
                                            ("modeblend", {1, 2, 3, 4, 5}),
                                            ("gaussblend", {1, 2, 3, 4, 5})])
def test_epsilon_commutation_fails_a_broken_euler_table_at_coupling_orders(name, coupling):
    f = build_builtin(name)
    table = moment_table(f, 6, 0.75 + 0.25j)
    rep = epsilon_commutation_check(ScaledEuler(f.terms, f.name), table)
    failed = {label for label, rel in zip(rep.extras["checks"], rep.relative) if rel > rep.tolerance}
    assert failed == {f"euler:inf:{k}" for k in coupling}
    assert epsilon_commutation_check(f, table).verdict


class ScaledShift(TestFunction):
    """A test function whose shift in s is off by the factor 1 + 1e-5."""

    def shift_s(self, delta):
        return super().shift_s(delta).scale(1 + 1e-5)


@pytest.mark.parametrize("name, orders", [("sep-mode2", {3}), ("sep-modeblend", {1, 2, 3, 4}),
                                          ("modeblend", {1, 2, 3, 4, 5, 6}),
                                          ("gaussblend", {1, 2, 3, 4, 5, 6})])
def test_epsilon_commutation_fails_a_broken_shift_at_cycle_rows(name, orders):
    # the unbroken functions pass in the Euler-table test above
    f = build_builtin(name)
    rep = epsilon_commutation_check(ScaledShift(f.terms, f.name), moment_table(f, 6, 0.75 + 0.25j))
    failed = {label for label, rel in zip(rep.extras["checks"], rep.relative) if rel > rep.tolerance}
    assert failed == {f"cycle:inf:{k}" for k in orders}


def test_moment_table_zero_scale_is_the_integral_of_the_modulus():
    # under r <-> 1/r the zero-side order 2 of the mode (xi/|xi|)^-2 is the
    # infinity-side order 2 of mode2, so its scale is 4 K_2(2) as well, and
    # every other order has no integrand
    f = TestFunction((envelope_mode(-2),), "mode-2")
    table = moment_table(f, 4, 1.0)
    assert table.scales[-2] == pytest.approx(4.0 * scipy.special.kv(2, 2.0), rel=1e-12)
    assert all(table.scales[p] == 0 for p in range(-4, 5) if p != -2)


def test_epsilon_commutation_constant_in_s():
    # with no s-dependence the shift-cycle case degenerates to f/t - f
    f = build_builtin("modeblend")
    tab = moment_table(f, 4, 1.25)
    assert epsilon_commutation_check(f, tab).verdict
    h = f.times_t(-1) + f.scale(-1)
    tab_h = moment_table(h, 3, 1.25)
    assert tab_h.values[2] == pytest.approx(tab.values[1] - tab.values[2], abs=1e-9)


def test_epsilon_commutation_theta_k0_transport():
    # order-0 transported coefficient is (-s-1) c_inf_0
    f = build_builtin("sep-modeblend")
    s = 0.4
    tab = moment_table(f, 1, s)
    tab_theta = moment_table(f.euler(), 0, s)
    lhs = tab_theta.values[0] - (s + 1) * tab.values[0]
    assert lhs == pytest.approx((-s - 1) * tab.values[0], abs=1e-9)


def test_epsilon_commutation_zero_function():
    zero = TestFunction((envelope_mode(0, weight=0.0),), "null")
    rep = epsilon_commutation_check(zero, moment_table(zero, 3, 1.0))
    assert rep.verdict and max(rep.residuals) == 0.0


def test_epsilon_commutation_rows_are_labelled_infinity_first():
    f = build_builtin("sep-mode2")
    rep = epsilon_commutation_check(f, moment_table(f, 3, 1.0))
    inf, zero = [f"inf:{k}" for k in range(4)], [f"zero:{k}" for k in range(1, 4)]
    assert rep.extras["checks"] == [f"{kind}:{side}" for kind in ("euler", "cycle")
                                    for side in inf + zero]


# inner and outer angular modes under one s-factor, so that both sides of
# every table couple
SEP_TWOSIDED = TestFunction(
    tuple(envelope_mode(m, s_factor=SFactor((1 + 0j, 0.25 + 0j)), weight=1.0 / factorial(abs(m)))
          for m in range(-3, 4)),
    "sep-twosided",
)


def test_epsilon_commutation_on_both_sides():
    table = moment_table(SEP_TWOSIDED, 4, 0.75 + 0.25j)
    rep = epsilon_commutation_check(SEP_TWOSIDED, table)
    assert rep.verdict and rep.max_relative <= 1e-6
    broken = epsilon_commutation_check(ScaledEuler(SEP_TWOSIDED.terms, "broken"), table)
    failed = {label for label, rel in zip(broken.extras["checks"], broken.relative)
              if rel > broken.tolerance}
    assert {"euler:zero:1", "euler:zero:2", "euler:inf:1", "euler:inf:2"} <= failed


# -- the ray transform -------------------------------------------------------------------


def test_verdict_is_read_from_the_relative_residuals():
    def report(relative):
        return ResidualReport("op", "f", (1j,), relative, relative, 1e-6)

    assert report((0.0, 1e-6)).verdict and report(()).verdict
    assert not report((0.0, 2e-6)).verdict
    assert not report((0.0, math.nan)).verdict
    assert report((math.nan,)).to_dict()["verdict"] is False
    # a closed-form distance in the extras is judged like a residual
    closed = ResidualReport("op", "f", (1j,), (0.0,), (0.0,), 1e-6, {"closed_form_relative": [2e-6]})
    assert not closed.verdict and closed.to_dict()["closed_form_relative"] == [2e-6]


def test_ray_mellin_gamma_values():
    f = build_builtin("gamma")
    assert abs(ray_mellin(f, 1.0)[0] - 1.0) <= 1e-10
    assert abs(ray_mellin(f, 2.0)[0] - 1.0) <= 1e-10
    assert abs(ray_mellin(f, 0.5)[0] - SQRT_PI) <= 1e-9


def test_ray_mellin_functional_equation():
    f = build_builtin("gamma")
    for i in range(8):
        s = 0.5 + i * (2.5 / 7)
        lhs = ray_mellin(f, s + 1)[0]
        rhs = s * ray_mellin(f, s)[0]
        assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


# gamma at s = 0.5 also leaves its innermost probe active, but with about
# 5e-13 of mass below it; the closed-form test on the verify grid covers it
@pytest.mark.parametrize(
    "f, s",
    [
        (build_builtin("gamma"), 0.05),  # the mass below the probes is about 1.1
        (build_builtin("gamma"), -0.5),  # diverges at 0
        (ray_exponential({1: 1}, "growth"), 1.0),  # exp(+t) overflows on the probes
    ],
)
def test_ray_mellin_requires_a_decay_certificate(f, s):
    with pytest.raises(QuadratureFailure, match="ray-decay certificate"):
        ray_mellin(f, s)


def test_ray_mellin_at_large_re_s_fails_on_its_non_finite_sum():
    # e^(su) overflows at the window's outer nodes; the step names the NaN sum,
    # and no overflow warning escapes
    with pytest.raises(QuadratureFailure, match="quadrature increment nan is not finite"):
        ray_mellin(build_builtin("gaussian"), 200)


def test_ray_mellin_zero_function():
    zero = TestFunction((envelope_mode(0, weight=0.0),), "null")
    assert ray_mellin(zero, 1.0) == (0j, 0.0)


def test_ray_mellin_against_scipy_oracle():
    # independent check at complex s for the two-sided-decay function
    f = build_builtin("bessel")
    s = 1.7
    oracle, _ = scipy.integrate.quad(
        lambda t: math.exp(-t - 1 / t) * t ** (s - 1), 0, np.inf, limit=400
    )
    assert ray_mellin(f, s)[0] == pytest.approx(oracle, abs=1e-10)
    # frozen: 2 K_1(2)
    assert ray_mellin(f, 1.0)[0] == pytest.approx(0.2797317636330449, abs=1e-10)


GRID = tuple(0.5 + i * (2.5 / 19) for i in range(20))  # the CLI's default verify grid


@pytest.mark.parametrize(
    "name, closed_form",
    [
        ("gamma", scipy.special.gamma),
        ("gaussian", lambda s: scipy.special.gamma(s / 2) / 2),
        ("bessel", lambda s: 2 * scipy.special.kv(s, 2.0)),
    ],
)
def test_ray_mellin_closed_forms_on_verify_grid(name, closed_form):
    f = build_builtin(name)
    for s in GRID:
        exact = closed_form(s)
        assert abs(ray_mellin(f, s)[0] - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("name", ["gamma", "gaussian", "bessel"])
@pytest.mark.parametrize("imag", [0.0, 0.25, 1.5])
def test_ray_estimates_bound_the_error_on_the_verify_grids(name, imag):
    # the estimate carries the mass beyond the window: left of 2^-86 at s = 0.5
    # it is the integral of t^(-1/2) up to 2^-86, 2^-42, the error of the value
    f, points = build_builtin(name), [complex(s, imag) for s in GRID]
    probed = np.abs(f(np.exp2(numerics._RAY_PROBES).astype(complex), 0j))
    tail = numerics._ray_windows(f, probed, np.array([0.5]), ABS_TOL)[0][2]
    assert abs(tail - (0.0 if name == "bessel" else 2.0 ** -42)) <= 1e-9 * 2.0 ** -42
    for s, (value, estimate) in zip(points, _ray_transforms(f, points, ABS_TOL)):
        assert abs(value - ray_oracle(name, s)) <= estimate, s


# s = x + iy up to y = 60: a level pair is judged only once its coarse level
# resolves e^(iyu), h (|y| + 1) <= pi, so no point settles on an aliased
# increment.  y = 34 aliases to -2.3 on levels 2 and 4 alike: judged there, it
# would settle 0.07 off.  Past y = 35.26 not even levels 8 and 16 resolve it
ALIASING_SWEEP = [complex(x, y) for x in (0.5, 1.5, 3.0) for y in (0, 1.5, 5, 10, 20, 30, 34, 40, 60)]


@pytest.mark.parametrize("name", ["gamma", "gaussian", "bessel"])
def test_no_ray_point_settles_on_an_aliased_level(name):
    outcomes = _ray_transforms(build_builtin(name), ALIASING_SWEEP, ABS_TOL)
    failed = {s for s, outcome in zip(ALIASING_SWEEP, outcomes) if isinstance(outcome, Exception)}
    assert failed == {complex(x, y) for x in (0.5, 1.5, 3.0) for y in (40, 60)}
    for s, outcome in zip(ALIASING_SWEEP, outcomes):
        if s not in failed:
            assert abs(outcome[0] - ray_oracle(name, s)) <= outcome[1], s
    assert str(outcomes[ALIASING_SWEEP.index(0.5 + 60j)]) == "the ray lattice resolves |Im s| <= 35.26 only"


def ray_oracle(name, s):
    """mpmath's value of the ray transform of a built-in: Gamma(s), Gamma(s/2)/2,
    2 K_s(2), and (1 + s/2) 2 K_s(2) for sep-mode2 (its envelope on the ray)."""
    s = mpmath.mpc(s)
    return complex({"gamma": lambda: mpmath.gamma(s), "gaussian": lambda: mpmath.gamma(s / 2) / 2,
                    "bessel": lambda: 2 * mpmath.besselk(s, 2),
                    "sep-mode2": lambda: (1 + s / 2) * 2 * mpmath.besselk(s, 2)}[name]())


RAY_FUNCTIONS = st.sampled_from(["gamma", "gaussian", "bessel", "sep-mode2"])
RAY_POINTS = st.builds(complex, st.sampled_from([0.5 + 0.25 * i for i in range(17)]),
                       st.sampled_from([0.0, 1.5]))


def _bits(value, estimate):
    return value.real.hex(), value.imag.hex(), float(estimate).hex()


@settings(max_examples=40, deadline=None, database=None)
@given(RAY_FUNCTIONS, st.lists(RAY_POINTS, min_size=1, max_size=8))
def test_ray_grid_equals_the_scalar_calls_bit_for_bit(name, points):
    # each s sums over its own window only, whatever the other points widen
    f = build_builtin(name)
    grid = _ray_transforms(f, points, ABS_TOL)
    assert [_bits(*outcome) for outcome in grid] == [_bits(*ray_mellin(f, s)) for s in points]


@pytest.mark.parametrize(
    "name, s, bits",
    [  # frozen: the bits of the transform taken one s at a time, each probing f alone;
       # each estimate is the last increment (or its rounding floor) plus the mass
       # beyond the window
        ("gamma", 1.75, ("0x1.d68f5d0f9713ap-1", "0x0.0p+0", "0x1.13611249250aep-36")),
        ("gaussian", 2.5 + 1.5j, ("0x1.542f3ba79debap-2", "-0x1.ee78ee3d3f85bp-6",
                                  "0x1.f4e70f809d06ap-37")),
        ("bessel", 0.5, ("0x1.eb43de8286e12p-3", "0x0.0p+0", "0x1.2b73000004932p-39")),
        ("sep-mode2", 3.25 + 1.5j,
         ("-0x1.9341b81d49515p+0", "0x1.8a28f452c28a1p+1", "0x1.2b8b7df9b9622p-47")),
        # integral and half-integral s
        ("gamma", 1.0, ("0x1.fffffffffffe2p-1", "0x0.0p+0", "0x1.0565000000000p-37")),
        ("gamma", 1.5, ("0x1.c5bf891b4ef64p-1", "0x0.0p+0", "0x1.ef5915beef0e0p-38")),
        ("gamma", 2.0, ("0x1.ffffffffffffep-1", "0x0.0p+0", "0x1.8a270000005c5p-34")),
        ("gamma", 3.0, ("0x1.0000000000000p+1", "0x0.0p+0", "0x1.756dd95555f98p-29")),
        ("bessel", 1.0, ("0x1.1e7200e1d3482p-2", "0x0.0p+0", "0x1.f35f00000047bp-38")),
        ("bessel", 1.5, ("0x1.7072e6e1e528cp-2", "0x0.0p+0", "0x1.58a800000008cp-38")),
        ("bessel", 2.0, ("0x1.03d998db9bd98p-1", "0x0.0p+0", "0x1.aa25c00000001p-34")),
        ("bessel", 3.0, ("0x1.4b76191410ab7p+0", "0x0.0p+0", "0x1.689bc80000000p-29")),
        ("sep-mode2", 1.75 + 0.25j,
         ("0x1.86b32d29f27ebp-1", "0x1.7c8380c3a287cp-3", "0x1.30351789c9980p-34")),
    ],
)
def test_ray_mellin_values_are_frozen(name, s, bits):
    value, estimate = ray_mellin(build_builtin(name), s)
    assert _bits(value, estimate) == bits
    assert abs(value - ray_oracle(name, s)) <= estimate


def per_point_ray_transforms(f, points, tol):
    """The reference rule: each s refined on its own by the trapezoid rule on the
    nested lattice u = j log 2 / m, m = 2..16, its integrand f(e^u) e^(su) laid
    on the whole lattice with zeros outside its window and summed alone, each
    level after the first judged once the coarser one resolves e^(i Im(s) u);
    windows as in numerics."""
    probed = np.abs(f(np.exp2(numerics._RAY_PROBES).astype(complex), 0j))
    windows = numerics._ray_windows(f, probed, np.real(points), tol)
    lattice = np.arange(numerics._RAY_U.size)

    def transform(s, a, b, tail):
        if abs(s.imag) > numerics._RAY_IM_MAX:  # no level pair resolves e^(i Im(s) u)
            return QuadratureFailure(f"the ray lattice resolves |Im s| <= {numerics._RAY_IM_MAX:.2f} only")
        value, scale = np.zeros(1, complex), np.zeros(1)
        for m in (2, 4, 8, 16):
            step, h = 16 // m, math.log(2) / m
            nodes = lattice[::step] if m == 2 else lattice[step::2 * step]
            inside = nodes[((a + 86) * 16 <= nodes) & (nodes <= (b + 86) * 16)]
            fx = f(numerics._RAY_X[inside][None, :], np.array([[s]]))[0]
            terms = np.zeros((1, nodes.size), complex)
            terms[0, np.searchsorted(nodes, inside)] = fx * np.exp(s * numerics._RAY_U[inside])
            previous = value
            value = h * csum(terms, axis=-1) + previous / 2
            scale = h * np.abs(terms).sum(axis=-1) + scale / 2
            if m == 2:
                continue
            increment, estimate, settled = refine_step(previous, value, scale, tol, 1e-8)
            if settled[0] and 2 * h * (abs(s.imag) + 1) <= math.pi:
                return complex(value[0]), float(estimate[0]) + tail
            if not increment[0] < np.inf or m == 16:
                return refine_failure(increment[0], tol)

    outcomes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for s, window in zip(points, windows):
            if not isinstance(window, tuple):
                outcomes.append(window)
            else:
                outcomes.append(transform(complex(s), *window) if window[0] < window[1] else (0j, 0.0))
    return outcomes


def _outcome(outcome):
    """The bits of a settled transform, or the message of a failed one."""
    return str(outcome) if isinstance(outcome, Exception) else _bits(*outcome)


@pytest.mark.parametrize(
    "name, points",
    [
        ("gamma", [0.5 + 3.0 * i / 19 for i in range(20)]),
        ("gaussian", [0.5 + 3.0 * (7 * i % 48) / 47 for i in range(48)]),
        # windows 2^-7..2^6, 2^-7..2^7, 2^-6..2^7 and 2^-5..2^7 among others
        ("bessel", [-0.5 + 8.0 * (5 * i % 32) / 31 for i in range(32)]),
        ("sep-mode2", [complex(-0.5 + 8.0 * i / 11, im) for i in range(12) for im in (-1.5, 0.25, 1.5)]),
        ("bessel", [-2.0, -1.0, 0.0, 1.0, 2.0, 2.5, 3.0, 4.25]),  # real integral s among others
        # points that fail (a NaN sum, an unsettled increment, no certificate, an
        # unresolved Im s) among ones that settle on each level pair
        ("gaussian", [1.0, 150.0, 2.5, 200.0, 0.05, 3.0, 1.75, 0.5 + 60j, 2.5 + 10j, 0.5 + 30j]),
    ],
)
def test_ray_grid_equals_the_per_point_rule_bit_for_bit(name, points):
    f = build_builtin(name)
    expected = [_outcome(o) for o in per_point_ray_transforms(f, points, ABS_TOL)]
    assert [_outcome(o) for o in _ray_transforms(f, points, ABS_TOL)] == expected


@pytest.mark.parametrize(
    "name, points, failures",
    [  # an uncertified point among settled ones
        ("gamma", [1.0, 0.05, 2.0, 1.5, 3.25],
         {0.05: "gamma: no ray-decay certificate at Re s = 0.05"}),
        # points that fail on their own increments among ones that settle
        ("gaussian", [1.0, 200.0, 2.5, 150.0, 0.05, 3.0],
         {200.0: "quadrature increment nan is not finite",
          150.0: "quadrature did not settle below 1.000e-10 (last increment 5.659e+103)",
          0.05: "gaussian: no ray-decay certificate at Re s = 0.05"}),
    ],
)
def test_each_failing_ray_point_carries_its_own_failure(name, points, failures):
    f = build_builtin(name)
    outcomes = _ray_transforms(f, points, ABS_TOL)
    for s, outcome in zip(points, outcomes):
        if s in failures:
            assert isinstance(outcome, QuadratureFailure) and str(outcome) == failures[s]
        else:
            assert _bits(*outcome) == _bits(*ray_mellin(f, s))


# ray points that fail (no certificate, an unsettled or a non-finite increment)
# and points that settle, for some function or other
RAY_POINTS = st.sampled_from(
    [0.05, -0.5, 150.0, 200.0, 0.5 + 60j, 0.5, 1.0, 1.75, 2.5, 3.25, 2.5 + 1.5j]).map(complex)


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(["gamma", "gaussian", "bessel", "sep-mode2"]),
       st.lists(RAY_POINTS, min_size=1, max_size=8))
def test_each_ray_point_is_judged_alone(name, points):
    # a point settles or fails as it does alone, whatever else its grid holds
    f = build_builtin(name)
    alone = [_outcome(_ray_transforms(f, [s], ABS_TOL)[0]) for s in points]
    assert [_outcome(o) for o in _ray_transforms(f, points, ABS_TOL)] == alone


@pytest.mark.parametrize(
    "grid, message",
    [
        ((1.0, 200.0, 0.05), "((200+0j),): quadrature increment nan is not finite"),
        ((1.0, 0.05, 200.0), "((0.05+0j),): gaussian: no ray-decay certificate at Re s = 0.05"),
    ],
)
def test_verify_raises_the_first_failing_point_in_residual_order(grid, message):
    with pytest.raises(QuadratureFailure) as caught:
        verify_commutation(parse("th + 2*t^2"), build_builtin("gaussian"), grid)
    assert str(caught.value) == f"grid function failed at {message}"
    assert isinstance(caught.value.__cause__, QuadratureFailure)


# -- the end-to-end commutation shadow ------------------------------------------------------


def test_verify_commutation_gamma():
    rep = verify_commutation(parse("th + t"), build_builtin("gamma"), GRID, tol=1e-8)
    assert rep.verdict and rep.max_relative <= 1e-8
    assert rep.extras["difference_operator"] == "tau - s"


def test_verify_commutation_gaussian():
    rep = verify_commutation(parse("th + 2*t^2"), build_builtin("gaussian"), GRID, tol=1e-8)
    assert rep.verdict


def test_verify_commutation_bessel():
    rep = verify_commutation(parse("th + t - tinv"), build_builtin("bessel"), GRID, tol=1e-6)
    assert rep.verdict
    assert rep.extras["difference_operator"] == "tau - s - tauinv"


def test_verify_evaluates_f_once_per_level(monkeypatch):
    # one probe and one evaluation per refinement level for the whole grid;
    # the guard evaluates only the operator's images of f
    f, calls = build_builtin("gamma"), []
    call = TestFunction.__call__

    def counted(self, t, s=0j):
        calls.append(self is f)
        return call(self, t, s)

    monkeypatch.setattr(TestFunction, "__call__", counted)
    assert verify_commutation(parse("th + t"), f, GRID).verdict
    assert sum(calls) == 3


@pytest.mark.parametrize("point", [math.nan, math.inf, complex(1.0, math.nan)])
def test_verify_rejects_a_non_finite_grid_point_before_any_transform(monkeypatch, point):
    monkeypatch.setattr(numerics, "_ray_transforms", None)
    with pytest.raises(ValueError, match="grid points must be finite"):
        verify_commutation(parse("th + t"), build_builtin("gamma"), (1.0, point, 2.0))


def test_verify_rejects_an_empty_grid_before_any_transform(monkeypatch):
    monkeypatch.setattr(numerics, "annihilation_guard", None)
    monkeypatch.setattr(numerics, "_ray_transforms", None)
    with pytest.raises(ValueError, match="the grid has no points"):
        verify_commutation(parse("th + t"), build_builtin("gamma"), [])


def test_verify_commutation_guard_failure():
    with pytest.raises(PreconditionFailed):
        verify_commutation(parse("th + t"), build_builtin("gaussian"), GRID)


def test_verify_commutation_rejects_zero_operator():
    with pytest.raises(ValueError, match="zero operator"):
        verify_commutation(parse("t - t"), build_builtin("gamma"), GRID)


def test_guard_accepts_true_annihilator():
    assert annihilation_guard(parse("th + t"), build_builtin("gamma")) <= 1e-12


def test_guard_fails_a_nan_residual():
    # mode600 evaluates to NaN at t = 0.25, one of the guard's samples
    with pytest.raises(PreconditionFailed, match="relative residual nan"):
        annihilation_guard(parse("th"), build_builtin("mode600"))


# -- disc expansions --------------------------------------------------------------------------


def geometric(t, T):
    return np.exp(-np.asarray(t, dtype=complex)) / (1.0 - T)


def linear(t, T):
    return np.exp(-np.asarray(t, dtype=complex)) * T


def power2(t, T):
    return np.asarray(t, dtype=complex) ** 2 / (1.0 - T)


def dpower2(t, T):
    return 2.0 * np.asarray(t, dtype=complex) / (1.0 - T)


def _bit_rows(rows):
    return [[(z.real.hex(), z.imag.hex()) for z in row] for row in rows]


def _expansion_node_by_node(f2, center, radius, alpha_max, t_grid, dfdt):
    """Reference: the coefficient rows, the sup on the ring, the relative
    reconstruction residual and the dfdt rows, f2 called at one scalar T per node."""
    ts = np.asarray(t_grid, dtype=complex)
    phis, _ = periodic_nodes(256)
    ring = center + radius * np.exp(1j * phis)

    def coefficients(g):
        samples = np.array([np.asarray(g(ts, T), dtype=complex) for T in ring])
        rows = []
        for a in range(alpha_max + 1):
            w = np.exp(-1j * a * phis) / (256 * radius ** a)
            rows.append(tuple(complex(z) for z in (w[:, None] * samples).sum(axis=0)))
        return samples, rows

    samples, rows = coefficients(f2)
    sup, worst, rho = float(np.max(np.abs(samples))), 0.0, radius / 2.0
    for psi in periodic_nodes(16)[0]:
        T = center + rho * np.exp(1j * psi)
        series = np.zeros_like(ts)
        for a in range(alpha_max, -1, -1):
            series = series * (T - center) + np.asarray(rows[a])
        worst = max(worst, float(np.max(np.abs(series - np.asarray(f2(ts, T), dtype=complex)))))
    return rows, sup, worst / sup, dfdt and coefficients(dfdt)[1]


@pytest.mark.parametrize(
    "f2, dfdt, center, radius",
    [(f2, None, center, radius) for f2 in (geometric, linear, power2)
     for center in (0j, 0.1 - 0.2j) for radius in (0.3, 0.5)]
    + [(power2, dpower2, 0.1 - 0.2j, 0.5)],
)
def test_expansion_evaluates_each_circle_once_bit_for_bit(f2, dfdt, center, radius):
    # one call of f2 per circle (ring, then the reconstruction circle) and one
    # of dfdt on the ring, each with T as a column; every bit as node by node
    shapes = []

    def counted(g):
        return lambda t, T: shapes.append(np.shape(T)) or g(t, T)

    res = parameter_expansion(counted(f2), center, radius, 20, dfdt=dfdt and counted(dfdt))
    assert shapes == [(256, 1), (16, 1)] + [(256, 1)] * (dfdt is not None)
    rows, sup, recon, deriv = _expansion_node_by_node(f2, center, radius, 20, res.t_grid, dfdt)
    assert _bit_rows(res.coefficients) == _bit_rows(rows)
    assert (res.sup_on_circle, res.reconstruction_residual) == (sup, recon)
    assert _bit_rows(res.derivative_coefficients or ()) == _bit_rows(deriv or ())


def test_expansion_linear_family():
    res = parameter_expansion(linear, 0j, 1.0, 6)
    sups = [max(abs(v) for v in row) for row in res.coefficients]
    expect = math.exp(-1.0)
    assert sups[1] == pytest.approx(expect, rel=1e-12)
    for a in (0, 2, 3, 4, 5, 6):
        assert sups[a] <= 1e-13


def test_expansion_geometric_family():
    res = parameter_expansion(geometric, 0j, 0.5, 12)
    expect = np.exp(-np.asarray(res.t_grid))
    for row in res.coefficients:
        assert np.max(np.abs(np.asarray(row) - expect)) <= 1e-12
    assert res.bound_ok
    assert res.reconstruction_ok and res.reconstruction_residual <= 1e-8


def test_expansion_circle_bound_is_sharp_for_geometric():
    res = parameter_expansion(geometric, 0j, 0.5, 12)
    # sup_t |u_alpha| R^alpha = e^-1 2^-alpha <= sup_circle = 2 e^-1
    assert res.bound_margin <= 1.0
    assert res.normal_sums[-1] <= res.sup_on_circle / (1 - 0.5)


def test_expansion_coefficients_inherit_annihilator():
    # f = t^2 w(T) satisfies (t d/dt - 2) f = 0; every extracted u_alpha must too
    def fam(t, T):
        return np.asarray(t, dtype=complex) ** 2 / (1.0 - T)

    def dfam(t, T):
        return 2.0 * np.asarray(t, dtype=complex) / (1.0 - T)

    res = parameter_expansion(fam, 0j, 0.5, 12, t_grid=(1.0, 1.7, 2.4), dfdt=dfam)
    for u_row, du_row in zip(res.coefficients, res.derivative_coefficients):
        for t, u, du in zip(res.t_grid, u_row, du_row):
            residual = t * du - 2.0 * u
            assert abs(residual) <= 1e-8 * max(abs(u), 1e-30)


@pytest.mark.parametrize("radius", [0.0, -0.5, math.inf, math.nan])
def test_expansion_rejects_bad_radius(radius):
    with pytest.raises(ValueError, match="radius"):
        parameter_expansion(geometric, 0j, radius, 12)


def test_expansion_rejects_negative_alpha_max():
    with pytest.raises(ValueError, match="alpha_max"):
        parameter_expansion(geometric, 0j, 0.5, -1)


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_expansion_through_a_pole_fails(radius):
    # R = 1 puts the pole T = 1 on the ring, R = 2 on the reconstruction circle
    with pytest.raises(QuadratureFailure, match="^disc function is not finite at T = "):
        parameter_expansion(geometric, 0j, radius, 12)
