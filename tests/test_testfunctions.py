import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellinops import MixedAlgebra, SFactor, TestFunction, build_builtin, parse
from mellinops.numerics import _HAAR_LEVELS, _RAY_PROBES, _radial_nodes
from mellinops.quadrature import panel_nodes, periodic_nodes
from mellinops.cli import BUILTIN_NAMES
from mellinops.testfunctions import Term, apply_operator_terms, envelope_mode


def wirtinger_fd(f, t, s=0j, h=1e-5):
    """Finite-difference oracle for the (1,0) Wirtinger derivative d/dt."""
    fx = (f(t + h, s) - f(t - h, s)) / (2 * h)
    fy = (f(t + 1j * h, s) - f(t - 1j * h, s)) / (2 * h)
    return 0.5 * (fx - 1j * fy)


POINTS = [0.7 + 0.4j, 1.5 - 0.8j, -0.6 + 1.1j, 2.0 + 0j]


WIRTINGER_CASES = {  # the sums of several rules on one row, and orders of both signs
    **{name: partial(build_builtin, name)
       for name in ("radial", "mode2", "modeblend", "bessel", "gaussian", "mode-2")},
    "modeblend-euler": lambda: build_builtin("modeblend").euler(),
    "gamma-times_t2": lambda: build_builtin("gamma").times_t(2),
    "sep-mode2-times_t-3": lambda: build_builtin("sep-mode2").times_t(-3),
    "term": lambda: TestFunction((Term(order=-1, power=3, exp_r=((1, -1.0), (-1, -1.0))),)),
}


@pytest.mark.parametrize("name", WIRTINGER_CASES)
def test_wirtinger_partials_match_finite_differences(name):
    f = WIRTINGER_CASES[name]()
    dt = f.wirtinger_t()
    for t in POINTS:
        scale = max(abs(complex(f(t))), 1.0)
        assert abs(complex(dt(t)) - wirtinger_fd(f, t)) <= 2e-6 * scale


def test_euler_operator_on_exponentials():
    # t d/dt of e^-t is -t e^-t; of e^(-t - 1/t) is (1/t - t) e^(-t-1/t)
    f = build_builtin("gamma")
    tf = f.euler()
    for t in POINTS:
        assert complex(tf(t)) == pytest.approx(-t * np.exp(-t), rel=1e-12)
    g = build_builtin("bessel")
    tg = g.euler()
    for t in POINTS:
        expect = (1 / t - t) * np.exp(-t - 1 / t)
        assert complex(tg(t)) == pytest.approx(expect, rel=1e-12)


def test_apply_operator_annihilates_builtin_pairs():
    ts = np.exp(np.linspace(-1.2, 1.4, 9)).astype(complex)
    cases = [("th + t", "gamma"), ("th + 2*t^2", "gaussian"), ("th + t - tinv", "bessel")]
    for optext, fname in cases:
        vals = sum(part(ts) for part in apply_operator_terms(parse(optext), build_builtin(fname)))
        f_vals = build_builtin(fname)(ts)
        assert np.max(np.abs(vals)) <= 1e-13 * np.max(np.abs(f_vals) * np.abs(ts) * 2 + 1)


def test_apply_operator_wrong_algebra():
    with pytest.raises(MixedAlgebra):
        apply_operator_terms(parse("tau"), build_builtin("gamma"))


def test_decay_certificates():
    assert build_builtin("radial").decay() == (True, True)
    assert build_builtin("modeblend").decay() == (True, True)
    assert build_builtin("gamma").decay() == (False, False)  # ray decay only
    assert build_builtin("gaussblend").decay() == (True, True)


def test_rapid_decay_spot_check():
    # flat at both circles: |f| * max(r, 1/r)^N falls off past the weight's
    # peak (at radius N) toward either boundary, along several rays
    f = build_builtin("modeblend")
    for N in (2, 6, 10):
        for direction in (1.0, 1j, np.exp(0.77j)):
            radii = (20.0, 40.0, 80.0)
            outer = [abs(complex(f(r * direction))) * r ** N for r in radii]
            inner = [abs(complex(f(direction / r))) * r ** N for r in radii]
            assert outer == sorted(outer, reverse=True)
            assert inner == sorted(inner, reverse=True)
            assert outer[-1] < 1e-6 and inner[-1] < 1e-6


def test_sfactor_shift_and_eval():
    g = SFactor((1 + 0j, 2 + 0j, 1 + 0j))  # (1 + s)^2
    for s in (0.3, 1.7 + 0.2j):
        direct = g(s + 1)
        shifted = g.shifted(1)(s)
        assert abs(direct - shifted) <= 1e-12 * abs(direct)


def test_shift_s_on_function():
    f = build_builtin("sep-mode2")
    t = 0.9 + 0.3j
    for s in (0.25, 1.5):
        assert complex(f.shift_s(1)(t, s)) == pytest.approx(complex(f(t, s + 1)), rel=1e-13)


def test_angular_modes_are_phases():
    f = build_builtin("mode3")
    t = 2.0 * np.exp(0.7j)
    ratio = complex(f(t)) / complex(f(2.0))
    assert abs(ratio - np.exp(-3 * 0.7j)) < 1e-12


def test_builtin_registry_complete():
    for name in BUILTIN_NAMES:
        assert build_builtin(name).terms
    for k in range(4, 9):  # modes beyond the registry are selected by their suffix
        assert build_builtin(f"mode{k}").terms == (envelope_mode(k),)
    for name in ("no-such-function", "mode", "modex"):
        with pytest.raises(ValueError, match="^unknown built-in function "):
            build_builtin(name)


# -- evaluation against the term-by-term formula ----------------------------------------


def term_values(f, t, s=0j):
    """Each term c g(s) r^N e^(ik theta) exp(P(t) + Q(r)) of f on its own, as
    c g(s) r^(N-|k|) t^k (or conj(t)^|k|) exp(P(t) + Q(r)), with complex powers
    and one complex exponential per term."""
    t = np.asarray(t, dtype=complex)
    r = np.abs(t)
    values = []
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for term in f.terms:
            val = np.full_like(t, term.coeff)
            if term.s_factor is not None:
                val = val * term.s_factor(s)
            if term.order:
                val = val * (t if term.order > 0 else np.conj(t)) ** abs(term.order)
            if term.power - abs(term.order):
                val = val * r ** (term.power - abs(term.order))
            expo = np.zeros_like(t)
            for k, c in term.exp_t:
                expo = expo + c * t ** k
            for k, c in term.exp_r:
                expo = expo + c * r ** k
            if term.exp_t or term.exp_r:
                val = val * np.exp(expo)
            values.append(val)
    return values


def _haar_grid(panel_width, order, n_theta):
    """The polar grid on the Haar panels in u = log r times uniform angles, as (xi, weights)."""
    u, wu = _radial_nodes(panel_width, order)
    theta, wth = periodic_nodes(n_theta)
    return np.exp(u)[:, None] * np.exp(1j * theta), wu[:, None] * wth


def _near_grid(t, panels, order, n_phi):
    """A locally polar grid around t, out to |t|/2: Gauss-Legendre panels in
    the distance from t times uniform angles."""
    rho, _ = panel_nodes(np.linspace(0.0, 0.5 * abs(t), panels + 1), order)
    phi, _ = periodic_nodes(n_phi)
    return t + rho[:, None] * np.exp(1j * phi[None, :])


EVAL_GRIDS = {  # name: (t, s); the ray probes carry a column of s, as the ray transform does
    "haar": (_haar_grid(*_HAAR_LEVELS[1], 96)[0], 0.75 + 0.25j),
    "near": (_near_grid(10.0, 20, 18, 224), 0.75 + 0.25j),
    "ray": (np.exp2(_RAY_PROBES).astype(complex)[None, :], np.array([[0.5], [1.75 + 1.5j]])),
}
IMAGES = {
    "f": lambda f: f,
    "wirtinger_t": TestFunction.wirtinger_t,
    "euler": TestFunction.euler,
    "shift_s": lambda f: f.shift_s(1),
    "times_t": lambda f: f.times_t(1),
    "times_tinv": lambda f: f.times_t(-1),
}


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(BUILTIN_NAMES + tuple(f"mode{k}" for k in range(4, 9))),
       st.sampled_from(sorted(IMAGES)), st.sampled_from(sorted(EVAL_GRIDS)))
def test_evaluation_matches_the_term_by_term_formula(name, image, grid):
    f = IMAGES[image](build_builtin(name))
    t, s = EVAL_GRIDS[grid]
    terms = term_values(f, t, s)
    evaluators = [f]
    if grid == "haar" and all(f.decay()):  # Haar-capable: the sum of its angular orders
        evaluators.append(partial(angular_sum, f))
    with np.errstate(over="ignore", invalid="ignore"):  # off the ray, gaussian overflows
        expect = sum(terms, np.zeros_like(t))
        scale = sum(np.abs(term) for term in terms)
    finite = np.isfinite(expect)
    for evaluate in evaluators:
        got = evaluate(t, s)
        with np.errstate(invalid="ignore"):
            error = np.abs(got - expect)
        assert got.shape == expect.shape and got.dtype == complex
        assert np.array_equal(np.isfinite(got), finite)
        assert np.all(error[finite] <= 8 * np.finfo(float).eps * scale[finite])


def angular_sum(f, t, s):
    """The sum of e^(ik theta) f_k(r) over f's angular orders k, with the
    phase e^(ik theta) taken as t^k / r^k or conj(t)^|k| / r^|k|."""
    r = np.abs(t)
    return sum((f_k * (t if k >= 0 else np.conj(t)) ** abs(k) / r ** abs(k)
                for k, f_k in f.modes(r, s).items()), np.zeros_like(t))


@pytest.mark.parametrize("t", [np.ones((3, 4), dtype=complex), 2.0 + 1j, np.arange(1.0, 6.0)])
def test_empty_function_is_zero_on_the_shape_of_t(t):
    value = TestFunction(())(t)
    assert np.shape(value) == np.shape(t) and not np.any(value)


@pytest.mark.parametrize("s", [np.array([0.5, 1.5 + 0.25j]), np.array([[0.5], [1.5 + 0.25j], [2.0]])],
                         ids=["row", "column"])
@pytest.mark.parametrize("name", ["gamma", "sep-mode2"])
def test_a_scalar_t_takes_the_shape_of_s(name, s):
    # an s-free function and a separable one, against t broadcast to the shape of s
    f = build_builtin(name)
    value = f(2.0 - 0.5j, s)
    assert value.shape == s.shape
    assert np.array_equal(value, f(np.full(s.shape, 2.0 - 0.5j), s))


def test_one_evaluation_holds_few_grid_arrays():
    # a cache of powers or phases per order would show here before it shows in
    # the process's peak memory
    xi = _haar_grid(0.22, 24, 448)[0]  # 516,096 points on the Haar window
    f = build_builtin("modeblend")
    for g in (f, f.wirtinger_t(), f.euler()):
        tracemalloc.start()
        try:
            g(xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * xi.nbytes


def test_radial_exponents_are_real():
    assert all(type(c) is float for tm in build_builtin("modeblend").terms for _, c in tm.exp_r)
    assert TestFunction((Term(exp_r=((1, -1 + 0j),)),))(2.0) == pytest.approx(np.exp(-2.0))
    with pytest.raises(ValueError, match="radial exponent coefficient .* is not real"):
        TestFunction((Term(exp_r=((1, -1 + 0.5j),)),))
