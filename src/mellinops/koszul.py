"""Koszul-complex computations on truncated tail series.

The differential in direction j is the shift-cycle operator
tau_j t_j^-1 - 1.  On an ``inf`` axis it acts bijectively (solvable upward
from the constant term), on a ``zero`` axis it acts surjectively with kernel
parameterized by the first slice, where the element with extraction phi has
coefficients tau^(1-n) phi.  Iterating the eliminations variable by variable,
highest index first, the complex over a mixed partition (I, J) is acyclic
exactly when J is nonempty; when J is empty the degree-zero cohomology
survives, is read off by extracting the (1,...,1) coefficient, and carries
the induced actions: multiplication by t_j becomes the coefficient shift
tau_j, and the twisted Euler operator becomes multiplication by -s_j.

A reduction's coefficients are polynomials in its own variables: the
variable of rank r among I and J is s_r, whatever its index, and the report
names it by its index again.  The checks are the same identities under that
order-preserving renaming, so an index only names a variable.

All claims are checked inside the finite window: one-step recursions are
exact on the window interior, and boundary defects are confined to the top
exponent (for the induced-action congruences, to the first slice, where they
are witnessed as explicit images of the differential).

The eliminations solve their sample series on raw terms (index -> the
coefficient's own term dict) by :func:`_solve_terms`, which :func:`solve_inf`
and :func:`solve_zero` wrap, and judge each solve by the definition of the
differential read at one integer point s0: g_n(s0) = x_(n-step)(s0 + e_r) -
x_n(s0) at every index of the window, the coefficients evaluated as plain
numbers.  Those values share no row with the solve, so a wrong translation
fails them, where a second pass through the same rows would agree with the
first for any linear map.  Kernel elements and the induced-action
congruences, whose supports are reported, stay on
:class:`~mellinops.series.TailSeries`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from operator import mul

from .errors import TruncationOverflow
from .ore import MAX_INDEX, GenKind, Generator
from .series import Axis, INF_TYPE, TailSeries, ZERO_TYPE, shift_cycle
from .shiftpoly import ShiftPolynomial, as_poly, shift_rows, shift_sub


def _solve_terms(terms, pos, axis):
    """Solve (tau t^-1 - 1) x = g along one axis, column by column, on the raw
    terms of g (``axis`` at place ``pos`` of each index); x is raw too.

    The recursion x_n = tau x_prev - g_n starts from x_prev = 0 and walks an
    ``inf`` axis upward from 0 and a ``zero`` axis downward from N; empty
    coefficients drop.
    """
    indices = axis.window if axis.kind == INF_TYPE else axis.window[::-1]
    columns = {idx[:pos] + idx[pos + 1 :] for idx in terms}
    get, rows, empty = terms.get, shift_rows(axis.var - 1, 1), {}
    out = {}
    for col in columns:
        prev = empty  # the terms of x_prev, clean
        for n in indices:
            idx = col[:pos] + (n,) + col[pos:]
            prev = shift_sub(prev, rows, get(idx, empty))
            if prev:
                out[idx] = prev
    return out


def _solve_cycle(g, var, kind):
    """Solve (tau t^-1 - 1) x = g along the ``kind`` axis of ``var``."""
    pos, axis = g.axis_for(var)
    if axis.kind != kind:
        raise ValueError(f"variable {var} is not an axis of type {kind}")
    return g._wrapped(_solve_terms(g._raw(), pos, axis))


def solve_inf(g, var):
    """Invert the shift-cycle operator on an ``inf`` axis.

    Solves (tau t^-1 - 1) a = g exactly on the whole window by the upward
    recursion a_0 = -g_0, a_n = tau a_(n-1) - g_n.  The map is bijective at
    truncation: solving after applying recovers the input exactly.
    """
    return _solve_cycle(g, var, INF_TYPE)


def solve_zero(g, var):
    """One solution of (tau t^-1 - 1) b = g on a ``zero`` axis.

    Downward recursion seeded above the window: b_(N+1) = 0,
    b_n = tau b_(n+1) - g_n.  This witnesses surjectivity; the solution is
    exact on the window interior (and, with this seed, at the top as well).
    """
    return _solve_cycle(g, var, ZERO_TYPE)


def kernel_element(phi, var, n_max, coeff_arity=None):
    """The kernel representative with first-slice extraction phi.

    Coefficients are b_n = tau^(1-n) phi for n in 1..N, built one unit step
    at a time (b_1 = phi, b_(n+1) = tau^-1 b_n), so b_n = tau b_(n+1) holds
    at every interior index.
    """
    phi = as_poly(phi, coeff_arity)
    series = TailSeries(phi.arity, (Axis(var, ZERO_TYPE, n_max),))
    (axis,) = series.axes
    rows, raw = shift_rows(axis.var - 1, -1), {(1,): phi.terms}
    for n in range(2, axis.n_max + 1):
        raw[(n,)] = shift_sub(raw[(n - 1,)], rows, {})
    return series._wrapped(raw) if phi else series


# -- induced actions on the surviving cohomology ------------------------------


@dataclass(frozen=True)
class CongruenceResult:
    action: str
    variable: int
    ok: bool
    witness: TailSeries
    defect: TailSeries

    def to_dict(self):
        return {
            "action": self.action,
            "variable": self.variable,
            "ok": self.ok,
            "witness_support": sorted(self.witness.terms),
            "defect_support": sorted(self.defect.terms),
        }


def induced_action_congruence(phi, action, var=1, n_max=12, coeff_arity=None):
    """Check the induced action of t (-> tau) or of the twisted Euler
    operator (-> -s) on a kernel class, modulo the image of the differential.

    The moved kernel element must agree with the transported one at every
    index above the first slice; the first-slice defect is exhibited as the
    image under the shift-cycle operator of the returned witness.  (Naive
    image membership carries no information here: the differential is
    exactly surjective inside the window.)
    """
    phi = as_poly(phi, coeff_arity)
    arity = phi.arity
    k = kernel_element(phi, var, n_max, arity)
    if action == "t":
        moved = k.apply_generator(Generator(GenKind.T, var))
        target = kernel_element(phi.shift(var, 1), var, n_max, arity)
    elif action == "theta":
        moved = k.apply_generator(Generator(GenKind.THETA, var))
        s_var = ShiftPolynomial.variable(var, arity)
        target = kernel_element(-(s_var * phi), var, n_max, arity)
    else:
        raise ValueError("action must be 't' or 'theta'")
    defect = moved - target
    confined = all(idx[0] <= 1 for idx in defect.terms)
    witness = solve_zero(defect, var)
    exact = shift_cycle(witness, var).agrees_on_interior(defect, var)
    return CongruenceResult(action, var, confined and exact, witness, defect)


# -- the full reduction --------------------------------------------------------


@dataclass(frozen=True)
class KoszulReport:
    i_set: tuple
    j_set: tuple
    n_max: int
    verdict: str  # "acyclic" | "h0", or "unverified" when a check fails
    predicted: str
    checks_passed: bool
    steps: tuple = ()
    extraction_index: tuple | None = None
    congruences: tuple = ()

    @property
    def matches_prediction(self):
        return self.verdict == self.predicted

    def to_dict(self):
        return {
            "i_set": list(self.i_set),
            "j_set": list(self.j_set),
            "n_max": self.n_max,
            "verdict": self.verdict,
            "predicted": self.predicted,
            "matches_prediction": self.matches_prediction,
            "checks_passed": self.checks_passed,
            "steps": [dict(s) for s in self.steps],
            "extraction_index": (
                list(self.extraction_index) if self.extraction_index is not None else None
            ),
            "congruences": [c.to_dict() for c in self.congruences],
        }


def _sample_terms(coeff_arity, axes, salt):
    """Deterministic full-support sample, as raw terms: at index idx, the
    monomial (1 + salt + sum(idx)) * prod_v s_v^((n_v + salt) mod 3).

    The axes must be the variables 1..len(axes) in order, so an index's
    exponents fill the first places; the places above them, of the variables
    already eliminated, hold zeros."""
    pad = (0,) * (coeff_arity - len(axes))
    return {
        idx: {tuple((n + salt) % 3 for n in idx) + pad: 1 + salt + sum(idx)}
        for idx in itertools.product(*(axis.window for axis in axes))
    }


def _sample_phis(coeff_arity, var):
    s = ShiftPolynomial.variable(var, coeff_arity)
    return [ShiftPolynomial.constant(1, coeff_arity), s, s * s - 3]


class _Values(dict):
    """The monomials' values at one integer point: exponents -> the exact
    product of s_i^e_i, built on first lookup and kept (a reduction's
    coefficients have at most 3^p distinct exponents)."""

    __slots__ = ("point",)

    def __init__(self, point):
        super().__init__()
        self.point = point

    def __missing__(self, expo):
        value = self[expo] = math.prod(map(pow, self.point, expo))
        return value


def _at(terms, values):
    """Raw terms (index -> coefficient terms) read at the point of ``values``:
    index -> the coefficient's value there."""
    get = values.__getitem__
    return {idx: sum(map(mul, p.values(), map(get, p))) for idx, p in terms.items()}


def _solves(x, g, pos, axis, indices, here, there):
    """Whether (tau t^-1 - 1) x = g at each of ``indices``, by the definition
    read at one point s0: g_n(s0) = x_(n-step)(s0 + e_r) - x_n(s0), for the
    variable r of ``axis`` (at place ``pos`` of an index), where step is
    t^-1's move of the stored index and x is 0 off its terms and its window.
    ``here`` and ``there`` hold the monomial values at s0 and s0 + e_r."""
    step = 1 if axis.kind == INF_TYPE else -1
    window = axis.window
    gs, xs, shifted = _at(g, here).get, _at(x, here).get, _at(x, there).get
    for idx in indices:
        n = idx[pos] - step
        moved = shifted(idx[:pos] + (n,) + idx[pos + 1 :], 0) if n in window else 0
        if gs(idx, 0) != moved - xs(idx, 0):
            return False
    return True


_SAMPLES = 2  # sample series solved per elimination

# The most indices a reduction's window may hold: the product over its axes of
# N on a zero axis and N + 1 on an inf axis.  The largest windows in use are
# 13^3 = 2197 (three variables at N = 12) and 49 (one at N = 48); one at the
# cap runs in seconds, and a larger request is refused before any series.
MAX_WINDOW = 10_000


def koszul_reduce(i_set, j_set, n_max):
    """Eliminate variables highest-index first and report the outcome.

    The coefficients are polynomials in the partition's own variables (s_r
    for the variable of rank r in sorted I and J); the report names each
    variable by its index.  Each elimination solves its sample series and
    judges the solves by plain evaluation of the differential at every index
    of the window; a ``zero`` elimination also checks its kernel elements
    the same way.  When J is empty the report carries the extraction index
    (1,...,1) and the induced-action congruence results for every remaining
    direction.  The verdict is the outcome the checks witness, "acyclic" or
    "h0", or "unverified" when one of them fails.  A variable index outside
    1..``ore.MAX_INDEX`` raises ValueError; a window of more than
    ``MAX_WINDOW`` indices raises TruncationOverflow.
    """
    i_set = tuple(sorted(set(i_set)))
    j_set = tuple(sorted(set(j_set)))
    for var in i_set + j_set:
        if not 1 <= var <= MAX_INDEX:
            raise ValueError(f"variable index {var} not in 1..{MAX_INDEX}")
    if set(i_set) & set(j_set):
        raise ValueError("I and J must be disjoint")
    predicted = "acyclic" if j_set else "h0"
    names = sorted(i_set + j_set)  # the variable of rank r is names[r - 1]
    arity = len(names) or 1

    axes = tuple(
        Axis(r, INF_TYPE if var in j_set else ZERO_TYPE, n_max)
        for r, var in enumerate(names, start=1)
    )
    # the windows' lengths, as stop - start: len() of a range of more than
    # sys.maxsize indices raises OverflowError, and such a window must overflow
    size = math.prod(axis.window.stop - axis.window.start for axis in axes)
    if size > MAX_WINDOW:
        raise TruncationOverflow(
            f"truncation window of {size} indices (N={n_max}) is above {MAX_WINDOW}")
    steps = []
    checks = True
    verdict = None
    point = tuple(range(3, 2 * arity + 3, 2))  # s0 = (3, 5, 7, ...)
    here = _Values(point)

    for pos in reversed(range(len(axes))):  # axis pos is the variable pos + 1
        axis, current = axes[pos], axes[: pos + 1]
        there = _Values(point[:pos] + (point[pos] + 1,) + point[pos + 1 :])
        window = list(itertools.product(*(a.window for a in current)))
        solve_ok = True
        for salt in range(_SAMPLES):
            g = _sample_terms(arity, current, salt)
            solve_ok &= _solves(_solve_terms(g, pos, axis), g, pos, axis, window, here, there)
        if axis.kind == INF_TYPE:
            steps.append({
                "variable": names[pos],
                "kind": "inf",
                "samples": _SAMPLES,
                "solve_exact": solve_ok,
            })
            checks &= solve_ok
            verdict = "acyclic"
            break
        # zero-type elimination: surjectivity plus kernel transport, whose
        # elements are annihilated on the window interior
        kernel_ok = True
        interior = [(n,) for n in axis.window[:-1]]
        for phi in _sample_phis(arity, axis.var):
            k = kernel_element(phi, axis.var, n_max, arity)
            kernel_ok &= k.coefficient(1) == phi
            kernel_ok &= _solves(k._raw(), {}, 0, axis, interior, here, there)
        steps.append({
            "variable": names[pos],
            "kind": "zero",
            "samples": _SAMPLES,
            "solve_exact_interior": solve_ok,
            "kernel_check": kernel_ok,
        })
        checks &= solve_ok and kernel_ok

    extraction = None
    congruences = []
    if verdict is None:  # J is empty, so the variables are I's
        verdict = "h0"
        extraction = (1,) * len(i_set)
        for r, var in enumerate(i_set, start=1):
            for phi in _sample_phis(arity, r):
                for action in ("t", "theta"):
                    res = induced_action_congruence(phi, action, r, n_max, arity)
                    congruences.append(replace(res, variable=var))
                    checks &= res.ok

    return KoszulReport(
        i_set=i_set,
        j_set=j_set,
        n_max=n_max,
        verdict=verdict if checks else "unverified",
        predicted=predicted,
        checks_passed=checks,
        steps=tuple(steps),
        extraction_index=extraction,
        congruences=tuple(congruences),
    )
