"""Seeded workloads: each yields CLI operations plus what their output must be.

A workload is an endless stream of periods built from one seed; a period is
a list of operations in seeded order.  Draws are stratified: every period
holds the same operation classes the same number of times (for instance
each partition of the variables, or each test function, once or a fixed
number of times), and the continuous parameters of a class are spread over
their range, one draw per equal-width slot.  Two seeds therefore load the
program alike while still feeding it different inputs, and a benchmark run
that measures whole periods measures the same mix whatever the seed.

Every operation is judged by ``Op.check(rc, text)``, which returns one of
``OK``, ``FAILED`` (the program signalled a failure: nonzero exit, or an
exception) or ``WRONG`` (exit 0 with a wrong answer, or an exit code that
contradicts the report).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Op:
    argv: list
    check: Callable = field(repr=False)  # (rc, stdout text) -> OK | FAILED | WRONG


def _judge(rc, good, report_admits_failure):
    """Map an exit code and the oracle's verdict to an outcome."""
    if rc == 0:
        return OK if good else WRONG
    return FAILED if report_admits_failure else WRONG


def _report(text):
    try:
        return json.loads(text)["report"]
    except (ValueError, KeyError, TypeError):
        return None


def _slots(rng, lo, hi, count):
    """One uniform draw from each of ``count`` equal slots of [lo, hi), shuffled."""
    width = (hi - lo) / count
    values = [lo + (i + rng.random()) * width for i in range(count)]
    rng.shuffle(values)
    return values


def _periods(rng, make_period):
    while True:
        ops = make_period(rng)
        rng.shuffle(ops)
        yield ops


# -- exact-koszul ----------------------------------------------------------------

# Passes over all partitions per period, and window N range, by variable
# count p: 6 x 6 one-variable, 5 x 12 two-variable and 1 x 8 three-variable
# operations.  The work grows like N^p, so the windows shrink with p; the
# median falls among the two-variable operations and p90 at their top.
KOSZUL_PASSES = {1: 6, 2: 5, 3: 1}
KOSZUL_WINDOW = {1: (12, 48), 2: (12, 16), 3: (12, 12)}


def _koszul_check(i_set, j_set, n_max):
    want = "acyclic" if j_set else "h0"

    def check(rc, text):
        rep = _report(text)
        if rep is None:
            return FAILED if rc else WRONG
        good = (
            rep["verdict"] == want
            and rep["checks_passed"] is True
            and rep["i_set"] == list(i_set)
            and rep["j_set"] == list(j_set)
            and rep["n_max"] == n_max
        )
        admits = not (rep["matches_prediction"] and rep["checks_passed"])
        return _judge(rc, good, admits)

    return check


def _koszul_op(i_set, j_set, n_max):
    argv = ["koszul", "--I", ",".join(map(str, i_set)), "--J", ",".join(map(str, j_set)),
            "--N", str(n_max)]
    return Op(argv, _koszul_check(i_set, j_set, n_max))


def _partitions(p):
    """Every split into (I, J) of every p-subset of the variables 1, 2, 3."""
    out = []
    for variables in itertools.combinations((1, 2, 3), p):
        for mask in itertools.product((False, True), repeat=p):
            i_set = tuple(v for v, in_j in zip(variables, mask) if not in_j)
            j_set = tuple(v for v, in_j in zip(variables, mask) if in_j)
            out.append((i_set, j_set))
    return out


def exact_koszul(seed, workdir):
    def period(rng):
        ops = []
        for p, passes in KOSZUL_PASSES.items():
            lo, hi = KOSZUL_WINDOW[p]
            for split in _partitions(p):
                ops += [_koszul_op(*split, int(w)) for w in _slots(rng, lo, hi + 1, passes)]
        return ops

    return _periods(random.Random(seed), period)


# -- exact-algebra ---------------------------------------------------------------

ALGEBRA_COMMANDS = (  # (argv prefix, input side, output side)
    (("transform",), "D", "S"),
    (("transform", "--inverse"), "S", "D"),
    (("parse", "--algebra", "D"), "D", "D"),
    (("parse", "--algebra", "S"), "S", "S"),
)
ALGEBRA_DEGREE = (4, 12)  # total degree of the product, stratified per period
# Operations per command and variable count p, per period: 600 in all, so
# that one period outlasts a run's --seconds.  A run that measured more
# periods would see a warmer monomial-product cache.
ALGEBRA_PASSES = 50
ALGEBRA_REUSE = 0.3  # chance that a factor reuses an earlier sum of the same shape
ALGEBRA_MAX_SIZE = 200  # cap on _size(), so that one operation stays request-sized
_COEFFS = (1, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2))


def _format_sum(terms, p):
    pieces = []
    for coeff, word in terms:
        names = "*".join(f"{g}_{j}" if p > 1 else g for g, j in word)
        mag = abs(coeff)
        body = (f"{mag}*{names}" if mag != 1 else names) if names else str(mag)
        pieces.append(("-" if coeff < 0 else "+", body))
    (sign, body), rest = pieces[0], pieces[1:]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


def _draw_sum(rng, gens, p):
    words = set()
    while len(words) < rng.choice((2, 2, 3)):
        words.add(((rng.choice(gens), rng.randint(1, p)),))
    terms = [(Fraction(rng.choice(_COEFFS)), w) for w in sorted(words)]
    if rng.random() < 0.25:
        terms.append((Fraction(rng.randint(1, 4)), ()))
    return tuple(terms)


def _split(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _size(factors):
    """Monomial count of the product before reordering: a cost estimate."""
    return math.prod(math.comb(power + len(terms) - 1, power) for terms, power in factors)


def _draw_factors(rng, gens, p, degree, shelf):
    """Powers of sums, redrawn until the product is request-sized and uses index p."""
    while True:
        factors, fresh = [], []
        for power in _split(rng, degree, rng.randint(1, 3)):
            if shelf and rng.random() < ALGEBRA_REUSE:
                terms = rng.choice(shelf)
            else:
                terms = _draw_sum(rng, gens, p)
                fresh.append(terms)
            factors.append((terms, power))
        top = max(j for terms, _ in factors for _, word in terms for _, j in word)
        if _size(factors) <= ALGEBRA_MAX_SIZE and top == p:
            shelf.extend(fresh)
            return tuple(factors)


def exact_algebra(seed, workdir):
    # Imported here so that sympy loads only in the workload that checks with it.
    import algebra_oracle as oracle

    shelves = {}

    def make_op(rng, prefix, side, out_side, p, degree):
        gens = oracle.D_GENS if side == "D" else oracle.S_GENS
        factors = _draw_factors(rng, gens, p, degree, shelves.setdefault((side, p), []))
        text = "*".join(f"({_format_sum(terms, p)})^{power}" for terms, power in factors)

        def check(rc, out):
            try:
                good = oracle.printed_matches(out, factors, side, out_side, p)
            except ValueError:
                good = False
            return _judge(rc, good, report_admits_failure=True)

        return Op([*prefix, text], check)

    def period(rng):
        ops = []
        lo, hi = ALGEBRA_DEGREE
        for prefix, side, out_side in ALGEBRA_COMMANDS:
            for p in (1, 2, 3):
                for degree in _slots(rng, lo, hi + 1, ALGEBRA_PASSES):
                    ops.append(make_op(rng, prefix, side, out_side, p, int(degree)))
        return ops

    return _periods(random.Random(seed), period)


# -- numeric -----------------------------------------------------------------------

# The three annihilating pairs of the acceptance gate.
VERIFY_PAIRS = (
    ("th + t", "gamma"),
    ("th + 2*t^2", "gaussian"),
    ("th + t - tinv", "bessel"),
)
EXPAND_FAMILIES = ("geometric", "linear", "power2")
EXPAND_T_GRID = (1.0, 2.0, 3.0, 4.0)  # the CLI's fixed t grid
# Haar-capable built-ins, split into single angular modes and blends.  Each
# period runs every flavour below once on each of its functions.  Single
# modes other than mode3 hit the known remainder-order defect with
# --remainders (exit 1), and those operations are kept.
SINGLE_MODES = ("radial", "mode1", "mode2", "mode3", "sep-mode2")
BLENDS = ("modeblend", "gaussblend", "sep-modeblend")
MOMENTS_FLAVOURS = {  # name: (extra flags, functions)
    "moments": ((), SINGLE_MODES + BLENDS),
    "moments-remainders": (("--remainders",), SINGLE_MODES + BLENDS),
    "moments-commutation": (("--commutation",), ("sep-mode2", "sep-modeblend")),
}
# Passes per period over the verify pairs and the expand families, next to
# the 18 moments operations: 75 verify and 9 expand runs.  Moments make up
# 18 of 102 operations, so p50 falls among the verify runs and p90 among
# the moments.
NUMERIC_PASSES = {"verify": 25, "expand": 3}
VERIFY_GRID = {"start": (0.5, 1.0), "stop": (2.5, 3.5), "count": (12, 24)}
MOMENTS_KMAX = (4, 8)
EXPAND_RADIUS = (0.3, 0.5)
EXPAND_CENTERS = (-0.2, 0.0, 0.1)
CHECK_TOL = 1e-8  # the CLI's default check tolerance
CLOSED_FORM_TOL = 1e-9  # relative, for ray transforms against mpmath


def _closed_form(name, s):
    """Ray transform F(s) = int_0^inf f(t) t^(s-1) dt of a verify function."""
    import mpmath

    if name == "gamma":
        return complex(mpmath.gamma(s))
    if name == "gaussian":
        return complex(mpmath.gamma(s / 2) / 2)
    return complex(2 * mpmath.besselk(s, 2))


@lru_cache(maxsize=None)
def _transforms_match(name, grid):
    """Ray transforms the verify run used, against their closed forms.

    The report carries residuals, not the transform values, so the values are
    recomputed through the same deterministic call and compared with mpmath.
    """
    from mellinops.numerics import ray_mellin
    from mellinops.testfunctions import build_builtin

    f = build_builtin(name)
    ok = True
    for s in grid:
        value, _err = ray_mellin(f, s)
        exact = _closed_form(name, s)
        ok &= abs(value - exact) <= CLOSED_FORM_TOL * max(1.0, abs(exact))
    return ok


def _verify_op(workdir, pair, start, stop, count):
    optext, name = pair
    conf = workdir / f"verify_{start:.6f}_{stop:.6f}_{count}.conf"
    if not conf.exists():
        conf.write_text(f"grid_start = {start!r}\ngrid_stop = {stop!r}\ngrid_count = {count}\n")
    step = (stop - start) / (count - 1)
    grid = tuple(complex(start + i * step, 0.0) for i in range(count))

    def check(rc, text):
        rep = _report(text)
        if rep is None:
            return FAILED if rc else WRONG
        rel = rep["relative_residuals"]
        good = (
            rep["verdict"] is True
            and rep["function"] == name
            and rep["tolerance"] == CHECK_TOL
            and len(rel) == count
            and all(r <= CHECK_TOL for r in rel)
            and _transforms_match(name, grid)
        )
        return _judge(rc, good, rep["verdict"] is not True)

    return Op(["verify", optext, "--function", name, "--config", str(conf)], check)


def _moments_check(kmax):
    def check(rc, text):
        rep = _report(text)
        if rep is None:
            return FAILED if rc else WRONG
        checks = rep["checks"]
        passed = [c["verdict"] is True for c in checks]
        table = rep["moments"]
        values = [x for pair in table["zero_side"] + table["inf_side"] for x in pair]
        good = (
            all(passed)
            and all(r <= c["tolerance"] for c in checks for r in c["relative_residuals"])
            and table["k_max"] == kmax
            and len(table["inf_side"]) == kmax + 1
            and all(math.isfinite(x) for x in values)
        )
        return _judge(rc, good, not all(passed))

    return check


def _moments_op(flavour, name, kmax):
    flags, _ = MOMENTS_FLAVOURS[flavour]
    argv = ["moments", "--function", name, "--kmax", str(kmax), *flags]
    return Op(argv, _moments_check(kmax))


def _expand_coefficients(family, center, alpha_max):
    """Closed-form sup over the t grid of each disc coefficient u_alpha(t)."""
    e = math.exp(-min(EXPAND_T_GRID))
    if family == "linear":  # e^-t * T = e^-t * (T0 + (T - T0))
        return [e * abs(center), e] + [0.0] * (alpha_max - 1)
    scale = e if family == "geometric" else max(EXPAND_T_GRID) ** 2
    return [scale / abs(1.0 - center) ** (a + 1) for a in range(alpha_max + 1)]


def _expand_alpha_min(radius, center):
    """Smallest order whose truncation tail stays 100x under the check tolerance."""
    q = (radius / 2) / (1.0 - center)
    scale = (1.0 - center - radius) / (1.0 - center) / (1.0 - q)
    alpha = 1
    while q ** (alpha + 1) * scale > CHECK_TOL / 100:
        alpha += 1
    return alpha


def _expand_op(rng, family, radius):
    center = rng.choice(EXPAND_CENTERS)
    radius = round(radius, 3)
    alpha_max = _expand_alpha_min(radius, center) + rng.randint(0, 4)
    exact = _expand_coefficients(family, center, alpha_max)

    def check(rc, text):
        rep = _report(text)
        if rep is None:
            return FAILED if rc else WRONG
        sup = rep["sup_on_circle"]
        coeff_ok = all(
            abs(got - want) <= 64 * 2.3e-16 * sup / radius ** a + 1e-12 * want
            for a, (got, want) in enumerate(zip(rep["coefficient_sup"], exact))
        )
        good = (
            rep["bound_ok"] is True
            and rep["reconstruction_ok"] is True
            and rep["reconstruction_residual"] <= CHECK_TOL
            and len(rep["coefficient_sup"]) == alpha_max + 1
            and coeff_ok
        )
        admits = not (rep["bound_ok"] and rep["reconstruction_ok"])
        return _judge(rc, good, admits)

    argv = ["expand", "--function", family, "--T0", repr(center), "--R", repr(radius),
            "--alpha-max", str(alpha_max)]
    return Op(argv, check)


def numeric(seed, workdir):
    workdir = Path(workdir)

    def period(rng):
        n = NUMERIC_PASSES["verify"]
        lo, hi = VERIFY_GRID["count"]
        ops = []
        for pair in VERIFY_PAIRS:
            grids = zip(_slots(rng, *VERIFY_GRID["start"], n), _slots(rng, *VERIFY_GRID["stop"], n),
                        _slots(rng, lo, hi + 1, n))
            ops += [_verify_op(workdir, pair, a, b, int(c)) for a, b, c in grids]
        families = EXPAND_FAMILIES * NUMERIC_PASSES["expand"]
        radii = _slots(rng, *EXPAND_RADIUS, len(families))
        ops += [_expand_op(rng, f, r) for f, r in zip(families, radii)]
        # The same 18 moments operations in every period: kmax cycles through
        # its range in a fixed order.  p90 sits among these operations, whose
        # cost doubles from kmax 4 to 8, and a seeded kmax moved it by some
        # 15 % from seed to seed.
        kmax = itertools.cycle(range(MOMENTS_KMAX[0], MOMENTS_KMAX[1] + 1))
        for flavour, (_, names) in MOMENTS_FLAVOURS.items():
            ops += [_moments_op(flavour, name, next(kmax)) for name in names]
        return ops

    return _periods(random.Random(seed), period)


WORKLOADS = {
    "exact-koszul": exact_koszul,
    "exact-algebra": exact_algebra,
    "numeric": numeric,
}

# The generator parameters of each workload, printed with every result.
PARAMETERS = {
    "exact-koszul": {"passes_by_p": KOSZUL_PASSES, "window_by_p": KOSZUL_WINDOW},
    "exact-algebra": {
        "commands": [" ".join(prefix) for prefix, _, _ in ALGEBRA_COMMANDS],
        "p": [1, 2, 3], "passes": ALGEBRA_PASSES, "degree": ALGEBRA_DEGREE, "reuse": ALGEBRA_REUSE,
        "max_size": ALGEBRA_MAX_SIZE,
    },
    "numeric": {
        "passes": NUMERIC_PASSES, "moments": {f: spec[1] for f, spec in MOMENTS_FLAVOURS.items()},
        "verify_grid": VERIFY_GRID, "moments_kmax": MOMENTS_KMAX,
        "expand_radius": EXPAND_RADIUS, "expand_centers": EXPAND_CENTERS,
    },
}
