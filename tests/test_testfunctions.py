import numpy as np
import pytest

from mellinops import MixedAlgebra, SFactor, build_builtin, parse
from mellinops.testfunctions import BUILTIN_NAMES, apply_operator_terms, envelope_mode


def wirtinger_fd(f, t, s=0j, h=1e-5):
    """Finite-difference oracle for the (1,0) Wirtinger derivative d/dt."""
    fx = (f(t + h, s) - f(t - h, s)) / (2 * h)
    fy = (f(t + 1j * h, s) - f(t - 1j * h, s)) / (2 * h)
    return 0.5 * (fx - 1j * fy)


POINTS = [0.7 + 0.4j, 1.5 - 0.8j, -0.6 + 1.1j, 2.0 + 0j]


@pytest.mark.parametrize("name", ["radial", "mode2", "modeblend", "bessel", "gaussian"])
def test_wirtinger_partials_match_finite_differences(name):
    f = build_builtin(name)
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
        with pytest.raises(KeyError, match="unknown built-in function"):
            build_builtin(name)
