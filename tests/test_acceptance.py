"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the line per
criterion; every tolerance is pinned here and nowhere else.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from mellinops import (
    ParseError,
    ShiftPolynomial,
    asymptotic_remainder_check,
    build_builtin,
    epsilon_commutation_check,
    format_operator,
    induced_action_congruence,
    inverse_mellin_op,
    koszul_reduce,
    mellin_op,
    moment_table,
    parameter_expansion,
    parse,
    stokes_identity_check,
    verify_commutation,
)
from mellinops.ore import GenKind, Generator, normalize


def _report(number, label, ok):
    print(f"criterion {number} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def _random_d_operator(rng, p, degree=4):
    kinds = [GenKind.T, GenKind.TINV, GenKind.THETA]
    terms = []
    for _ in range(rng.randint(1, 3)):
        word = [Generator(rng.choice(kinds), rng.randint(1, p)) for _ in range(rng.randint(0, degree))]
        terms.append((Fraction(rng.randint(-5, 5), rng.randint(1, 4)), word))
    return normalize(terms, algebra="D", arity=p)


def test_criterion_1_algebra_correctness():
    start = time.perf_counter()
    rng = random.Random(1001)
    ok = True
    for _ in range(200):
        p = rng.randint(1, 3)
        P = _random_d_operator(rng, p)
        Q = _random_d_operator(rng, p)
        ok &= mellin_op(P * Q) == mellin_op(P) * mellin_op(Q)
    for _ in range(200):
        p = rng.randint(1, 3)
        P = _random_d_operator(rng, p)
        ok &= inverse_mellin_op(mellin_op(P)) == P
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report(1, f"homomorphism + round trips, {elapsed:.2f}s", ok)


def test_criterion_2_commutation_shadow():
    start = time.perf_counter()
    grid = tuple(0.5 + i * (2.5 / 19) for i in range(20))
    cases = [
        ("th + t", "gamma", 1e-8),
        ("th + 2*t^2", "gaussian", 1e-8),
        ("th + t - tinv", "bessel", 1e-6),
    ]
    ok = True
    worst = []
    for optext, fname, tol in cases:
        rep = verify_commutation(parse(optext), build_builtin(fname), grid, tol=tol)
        ok &= rep.verdict
        worst.append(f"{fname}:{rep.max_relative:.1e}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(2, f"commutation shadow {'/'.join(worst)}, {elapsed:.1f}s", ok)


def test_criterion_3_koszul_partitions():
    start = time.perf_counter()
    ok = True
    subsets = [(), (1,), (2,), (1, 2)]
    seen = 0
    for i_set in subsets:
        for j_set in subsets:
            if set(i_set) & set(j_set):
                continue
            seen += 1
            report = koszul_reduce(i_set, j_set, 12)
            ok &= report.matches_prediction and report.checks_passed
            ok &= report.verdict == ("acyclic" if j_set else "h0")
    ok &= seen == 9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(3, f"{seen} partitions at window 12, {elapsed:.2f}s", ok)


def test_criterion_4_induced_actions():
    rng = random.Random(1004)
    ok = True
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 6),)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        phi = ShiftPolynomial(1, terms)
        for action in ("t", "theta"):
            ok &= induced_action_congruence(phi, action, 1, 12).ok
    _report(4, "50 random first-slice classes, both actions", ok)


def test_criterion_5_moments_stokes_remainders():
    ok = True
    worst = 0.0
    for k in range(9):
        f = build_builtin("radial") if k == 0 else build_builtin(f"mode{k}")
        rep = stokes_identity_check(f, k, 0)
        worst = max(worst, rep.max_relative)
        ok &= rep.verdict and rep.tolerance == 1e-6
    blend = build_builtin("gaussblend")
    for n in range(4):
        rep = asymptotic_remainder_check(blend, n, (10.0, 20.0, 40.0))
        ok &= rep.verdict
        for ratio in rep.extras["ratios"]:
            ok &= 2 ** (n + 0.5) <= ratio <= 2 ** (n + 1.5)
    _report(5, f"transport k<=8 (worst {worst:.1e}) + tail orders n<=3", ok)


def test_criterion_6_epsilon_commutation():
    ok = True
    worst = 0.0
    for name in ("sep-modeblend", "sep-mode2"):
        f = build_builtin(name)
        rep = epsilon_commutation_check(f, moment_table(f, 6, 0.75 + 0.25j))
        worst = max(worst, rep.max_relative)
        ok &= rep.verdict and rep.tolerance == 1e-6
    _report(6, f"moment transport, both operators, worst {worst:.1e}", ok)


def test_criterion_7_parameter_expansion():
    def geometric(t, T):
        return np.exp(-np.asarray(t, dtype=complex)) / (1.0 - T)

    res = parameter_expansion(geometric, 0j, 0.5, 12, recon_tol=1e-8)
    ok = res.reconstruction_ok and res.bound_ok

    def fam(t, T):
        return np.asarray(t, dtype=complex) ** 2 / (1.0 - T)

    def dfam(t, T):
        return 2.0 * np.asarray(t, dtype=complex) / (1.0 - T)

    res2 = parameter_expansion(fam, 0j, 0.5, 12, t_grid=(1.0, 2.0, 3.0), dfdt=dfam)
    ok &= res2.bound_ok
    for u_row, du_row in zip(res2.coefficients, res2.derivative_coefficients):
        for t, u, du in zip(res2.t_grid, u_row, du_row):
            ok &= abs(t * du - 2.0 * u) <= 1e-8 * max(abs(u), 1e-30)
    _report(7, f"disc coefficients (recon {res.reconstruction_residual:.1e})", ok)


def test_criterion_8_parser():
    rng = random.Random(1008)
    ok = True
    kinds_d = [GenKind.T, GenKind.TINV, GenKind.THETA]
    kinds_s = [GenKind.TAU, GenKind.TAUINV, GenKind.S]
    for _ in range(500):
        p = rng.randint(1, 3)
        pool = rng.choice([kinds_d, kinds_s])
        terms = [
            (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
             [Generator(rng.choice(pool), rng.randint(1, p)) for _ in range(rng.randint(0, 5))])
            for _ in range(rng.randint(1, 5))
        ]
        terms.append((1, [Generator(pool[0], p)] * 7))
        op = normalize(terms, algebra="D" if pool is kinds_d else "S", arity=p)
        ok &= parse(format_operator(op)) == op
    fixtures = [("t**th", 2), ("t*+th", 2), ("(t + th", 7), ("t^x", 2), ("2 @ t", 2), ("", 0)]
    for text, offset in fixtures:
        try:
            parse(text)
            ok = False
        except ParseError as err:
            ok &= err.offset == offset
    _report(8, "500 round trips + error offsets", ok)
