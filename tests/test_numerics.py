import math
from math import factorial

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from mellinops import (
    EvaluationFailure,
    PreconditionFailed,
    QuadratureFailure,
    SingularEvaluation,
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
from mellinops.numerics import (
    _HAAR_LEVELS,
    _haar_grid,
    _haar_integral_once,
    annihilation_guard,
    stokes_checks,
)
from mellinops.testfunctions import TestFunction, envelope_mode, ray_exponential

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
        value = tab.at_inf(k)
        assert tab.inf_error[k] < 1e-10
        assert value == pytest.approx(radial_oracle(k), abs=1e-9)
        assert value == pytest.approx(-2 * RADIAL_ENVELOPE_MOMENT[k], abs=1e-9)


def test_moment_mismatched_modes_vanish():
    f1 = moment_table(build_builtin("mode1"), 2, 0)
    assert abs(f1.at_inf(2)) < 1e-12
    assert abs(moment_table(build_builtin("radial"), 1, 0).at_inf(1)) < 1e-12
    # zero-side moments couple to the opposite angular sign
    assert abs(f1.at_zero(1)) < 1e-12


# angular modes (weight) of the envelope built-ins, all on exp(-r - 1/r)
ENVELOPE_MODES = {
    "radial": {0: 1.0},
    "mode1": {1: 1.0},
    "mode2": {2: 1.0},
    "mode3": {3: 1.0},
    "modeblend": {m: 1.0 / factorial(m) for m in range(6)},
}


@pytest.mark.parametrize("name", sorted(ENVELOPE_MODES))
def test_haar_integral_against_bessel_closed_form(name):
    # (1/2i*pi) int xi^p e^(-i m theta) exp(-r - 1/r) dmu is -2 int r^(m-1)
    # exp(-r - 1/r) dr = -4 K_m(2) for p = m and 0 otherwise; no code shared
    # with the quadrature
    modes = ENVELOPE_MODES[name]
    values, _, _ = haar_integral(build_builtin(name), range(-4, 6))
    for p, value in zip(range(-4, 6), values):
        if p in modes:
            exact = -4.0 * modes[p] * scipy.special.kv(p, 2.0)
            assert abs(value - exact) <= 1e-12 * abs(exact), (p, value, exact)
        elif p <= 4:
            assert abs(value) <= 1e-12, (p, value)


@pytest.mark.parametrize("name, s", [("modeblend", 0.5), ("sep-modeblend", 1.0 + 0.25j)])
def test_haar_transform_matches_the_direct_sum_on_its_grid(name, s):
    # reference: each order summed over the grid with its own e^(i p theta);
    # the FFT sums in another order, so they agree to rounding of the scale
    f, powers = build_builtin(name), range(-9, 10)
    for level in _HAAR_LEVELS:
        values, scales = _haar_integral_once(f, powers, s, level)
        xi, w, _ = _haar_grid(*level)
        vals = f(xi, s)
        for p, value, scale in zip(powers, values, scales):
            direct = -np.sum(vals * xi ** p * w) / math.pi
            assert abs(value - direct) <= 1e-13 * scale, (p, value, direct)
            assert scale == pytest.approx(np.sum(np.abs(vals * xi ** p) * w) / math.pi, rel=1e-13)


def test_moment_table_scale_is_the_integral_of_the_modulus():
    # |xi^k mode2| = r^k exp(-r - 1/r), whose Haar integral over pi is 4 K_k(2)
    table = moment_table(build_builtin("mode2"), 6, 1.0)
    for k, scale in enumerate(table.inf_scale):
        assert scale == pytest.approx(4.0 * scipy.special.kv(k, 2.0), rel=1e-12)


def test_moment_negative_mode_couples_on_zero_side():
    # the mode (xi/|xi|) couples only to the order-1 coefficient at zero;
    # the radial factor there is r^-2 E(r), equal to E under r <-> 1/r, so
    # the same radial oracle applies (with the zero-side sign flip)
    tab = moment_table(TestFunction((envelope_mode(-1),), "mode-1"), 3, 0)
    assert tab.at_zero(1) == pytest.approx(-radial_oracle(1), abs=1e-9)
    for k in range(0, 4):
        assert abs(tab.at_inf(k)) < 1e-12


def test_moment_zero_function():
    zero = TestFunction((envelope_mode(0, weight=0.0),), "null")
    assert moment_table(zero, 3, 0).at_inf(3) == 0


def test_moment_linearity_and_scaling():
    f = build_builtin("mode2")
    a = 2.5 - 1.5j
    scaled = moment_table(TestFunction(tuple(t.scaled(a) for t in f.terms), "af"), 2, 0).at_inf(2)
    base = moment_table(f, 2, 0).at_inf(2)
    assert abs(scaled - a * base) <= 1e-10 * abs(a * base)


def test_moment_preconditions():
    with pytest.raises(QuadratureFailure):
        moment_table(build_builtin("gamma"), 1, 0)  # no all-angle decay


def test_moment_table_layout():
    # modeblend weights mode m by 1/m!, so the order-k coefficient at
    # infinity is the matched radial integral divided by k!
    tab = moment_table(build_builtin("modeblend"), 4, 0.5)
    assert len(tab.zero_side) == 4 and len(tab.inf_side) == 5
    for k in (0, 2, 4):
        assert tab.at_inf(k) == pytest.approx(radial_oracle(k) / factorial(k), abs=1e-9)
    assert all(abs(v) < 1e-10 for v in tab.zero_side)
    assert tab.error == max(tab.zero_error + tab.inf_error)


class CountingFunction:
    """Duck-typed test function that counts its grid evaluations."""

    def __init__(self, f):
        self.f, self.name, self.calls = f, f.name, 0

    def __call__(self, t, s=0j):
        self.calls += 1
        return self.f(t, s)

    def decay(self):
        return self.f.decay()


def test_moment_table_evaluates_once_per_level():
    f = CountingFunction(build_builtin("mode2"))
    moment_table(f, 8, 1.0)
    assert f.calls == len(_HAAR_LEVELS)


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
    """A test function whose d/dt is off by the factor 1 + 1e-4."""

    def wirtinger_t(self):
        return super().wirtinger_t().scale(1 + 1e-4)


@pytest.mark.parametrize("name, coupling", [("mode2", {2}), ("modeblend", {1, 2, 3, 4, 5})])
def test_stokes_checks_fail_a_broken_identity_at_coupling_orders(name, coupling):
    f = build_builtin(name)
    broken = ScaledDerivative(f.terms, f.name)
    table = moment_table(f, 6, 1.0)
    verdicts = [rep.verdict for rep in stokes_checks(broken, table)]
    assert [k for k, ok in enumerate(verdicts) if not ok] == sorted(coupling)
    assert all(rep.verdict for rep in stokes_checks(f, table))
    assert not stokes_identity_check(broken, 2, 1.0).verdict


# -- the singular convolution ---------------------------------------------------------


def test_convolve_zero_function():
    zero = TestFunction((envelope_mode(0, weight=0.0),), "null")
    assert cauchy_convolve(zero, 3.0 + 1.0j) == 0


def test_convolve_requires_nonzero_center():
    with pytest.raises(SingularEvaluation):
        cauchy_convolve(build_builtin("modeblend"), 0.0)


def test_convolve_linearity():
    f = build_builtin("mode1")
    g = build_builtin("mode2")
    t = 5.0 + 2.0j
    fg = TestFunction(tuple(tm.scaled(2.0) for tm in f.terms) + g.terms, "mix")
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
    partial = sum(tab.at_inf(k) * t ** (-k) for k in range(n + 1))
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
    partial = sum(tab.at_zero(k) * t ** k for k in range(1, n + 1))
    rem, _ = convolution_remainder(INNERBLEND, t, n=n, side="zero")
    assert abs(total - (partial + rem)) <= 1e-12


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
    # nothing past order 8 is tabulated: the band stays at n + 1
    rep = asymptotic_remainder_check(build_builtin("gaussblend"), 8, (10.0, 20.0, 40.0))
    assert rep.extras["predicted_order"] == 9 and not rep.extras["one_sided"]


def test_negative_orders_are_named():
    f = build_builtin("modeblend")
    with pytest.raises(ValueError, match="k_max"):
        moment_table(f, -1)
    with pytest.raises(ValueError, match="order n"):
        asymptotic_remainder_check(f, -3, (10.0, 20.0))


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


# -- commutation of the expansion map ---------------------------------------------------


def test_epsilon_commutation_separable():
    rep = epsilon_commutation_check(build_builtin("sep-modeblend"), 0.7 + 0.3j, 6)
    assert rep.verdict and rep.max_relative <= 1e-6


class ScaledEuler(TestFunction):
    """A test function whose Euler derivative is off by the factor 1 + 1e-4."""

    def euler(self):
        return super().euler().scale(1 + 1e-4)


@pytest.mark.parametrize("name, coupling", [("sep-mode2", {2}), ("sep-modeblend", {1, 2, 3})])
def test_epsilon_commutation_fails_a_broken_euler_table_at_coupling_orders(name, coupling):
    f = build_builtin(name)
    rep = epsilon_commutation_check(ScaledEuler(f.terms, f.name), 0.75 + 0.25j, 6)
    failed = {label for label, rel in zip(rep.extras["checks"], rep.relative) if rel > rep.tolerance}
    assert failed == {f"euler:inf:{k}" for k in coupling}
    assert epsilon_commutation_check(f, 0.75 + 0.25j, 6).verdict


def test_moment_table_zero_scale_is_the_integral_of_the_modulus():
    # under r <-> 1/r the zero-side order k of the mode (xi/|xi|)^-2 is the
    # infinity-side order k of mode2, so its scale is 4 K_k(2) as well
    f = TestFunction((envelope_mode(-2),), "mode-2")
    table = moment_table(f, 4, 1.0)
    for k in range(1, 5):
        assert table.scale(-k) == table.zero_scale[k - 1]
        assert table.scale(-k) == pytest.approx(4.0 * scipy.special.kv(k, 2.0), rel=1e-12)


def test_epsilon_commutation_constant_in_s():
    # with no s-dependence the shift-cycle case degenerates to f/t - f
    f = build_builtin("modeblend")
    rep = epsilon_commutation_check(f, 1.25, 4)
    assert rep.verdict
    tab = moment_table(f, 4, 1.25)
    h = f.times_t(-1) + f.scale(-1)
    tab_h = moment_table(h, 3, 1.25)
    assert tab_h.at_inf(2) == pytest.approx(tab.at_inf(1) - tab.at_inf(2), abs=1e-9)


def test_epsilon_commutation_theta_k0_transport():
    # order-0 transported coefficient is (-s-1) c_inf_0
    f = build_builtin("sep-modeblend")
    s = 0.4
    tab = moment_table(f, 1, s)
    tab_theta = moment_table(f.euler(), 0, s)
    lhs = tab_theta.at_inf(0) - (s + 1) * tab.at_inf(0)
    assert lhs == pytest.approx((-s - 1) * tab.at_inf(0), abs=1e-9)


def test_epsilon_commutation_zero_function():
    zero = TestFunction((envelope_mode(0, weight=0.0),), "null")
    rep = epsilon_commutation_check(zero, 1.0, 3)
    assert rep.verdict and max(rep.residuals) == 0.0


def test_epsilon_commutation_rejects_opaque_s_dependence():
    from mellinops import NotSeparable

    opaque = TestFunction((envelope_mode(2),), "opaque", separable=False)
    with pytest.raises(NotSeparable):
        epsilon_commutation_check(opaque, 1.0, 3)


# -- the ray transform -------------------------------------------------------------------


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


def test_verify_commutation_guard_failure():
    with pytest.raises(PreconditionFailed):
        verify_commutation(parse("th + t"), build_builtin("gaussian"), GRID)


def test_verify_commutation_rejects_zero_operator():
    with pytest.raises(ValueError, match="zero operator"):
        verify_commutation(parse("t - t"), build_builtin("gamma"), GRID)


def test_guard_accepts_true_annihilator():
    assert annihilation_guard(parse("th + t"), build_builtin("gamma")) <= 1e-12


# -- disc expansions --------------------------------------------------------------------------


def geometric(t, T):
    return np.exp(-np.asarray(t, dtype=complex)) / (1.0 - T)


def linear(t, T):
    return np.exp(-np.asarray(t, dtype=complex)) * T


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
    with pytest.raises(EvaluationFailure, match="not finite"):
        parameter_expansion(geometric, 0j, radius, 12)
