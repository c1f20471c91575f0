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

All claims are checked inside the finite window: one-step recursions are
exact on the window interior, and boundary defects are confined to the top
exponent (for the induced-action congruences, to the first slice, where they
are witnessed as explicit images of the differential).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .ore import GenKind, Generator
from .series import (
    Axis,
    INF_TYPE,
    TailSeries,
    ZERO_TYPE,
    shift_cycle,
)
from .shiftpoly import ShiftPolynomial, as_poly


def _solve_cycle(g, var, kind):
    """Solve (tau t^-1 - 1) x = g along one axis, column by column.

    The recursion x_n = tau x_prev - g_n starts from x_prev = 0 and walks an
    ``inf`` axis upward from 0 and a ``zero`` axis downward from N.
    """
    pos, axis = g.axis_for(var)
    if axis.kind != kind:
        raise ValueError(f"variable {var} is not an axis of type {kind}")
    indices = axis.window if kind == INF_TYPE else axis.window[::-1]
    columns = {idx[:pos] + idx[pos + 1 :] for idx in g.terms}
    terms = {}
    for col in columns:
        prev = ShiftPolynomial.zero(g.coeff_arity)
        for n in indices:
            idx = col[:pos] + (n,) + col[pos:]
            x_n = prev.shift(var, 1) - g.coefficient(idx)
            if not x_n.is_zero():
                terms[idx] = x_n
            prev = x_n
    return TailSeries(g.coeff_arity, g.axes, terms)


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

    Coefficients are b_n = tau^(1-n) phi for n in 1..N, so b_1 = phi and
    b_n = tau b_(n+1) holds at every interior index.
    """
    return product_kernel(phi, (var,), n_max, coeff_arity)


def product_kernel(phi, variables, n_max, coeff_arity=None):
    """Joint kernel representative across several ``zero`` axes."""
    phi = as_poly(phi, coeff_arity)
    variables = tuple(sorted(variables))
    axes = tuple(Axis(v, ZERO_TYPE, n_max) for v in variables)
    terms = {}
    for idx in itertools.product(*(axis.window for axis in axes)):
        poly = phi
        for v, n in zip(variables, idx):
            poly = poly.shift(v, 1 - n)
        if not poly.is_zero():
            terms[idx] = poly
    return TailSeries(phi.arity, axes, terms)


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
    verdict: str  # "acyclic" | "h0"
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


def _sample_series(coeff_arity, axes, salt):
    """Deterministic full-support sample: at index idx, the monomial
    (1 + salt + sum(idx)) * prod_v s_v^((n_v + salt) mod 3)."""
    terms = {}
    for idx in itertools.product(*(axis.window for axis in axes)):
        expo = [0] * coeff_arity
        for axis, n in zip(axes, idx):
            expo[axis.var - 1] = (n + salt) % 3
        terms[idx] = ShiftPolynomial(coeff_arity, {tuple(expo): 1 + salt + sum(idx)})
    return TailSeries(coeff_arity, axes, terms)


def _sample_phis(coeff_arity, var):
    s = ShiftPolynomial.variable(var, coeff_arity)
    return [ShiftPolynomial.constant(1, coeff_arity), s, s * s - 3]


def koszul_reduce(i_set, j_set, n_max, n_samples=2):
    """Eliminate variables highest-index first and report the outcome.

    Nonexpansion variables (outside I and J) are inert.  Each ``inf``
    elimination is witnessed by exact full-window round-trip solves; each
    ``zero`` elimination by interior-exact solves plus a kernel check.  When
    J is empty the report carries the extraction index (1,...,1) and the
    induced-action congruence results for every remaining direction.
    """
    i_set = tuple(sorted(set(i_set)))
    j_set = tuple(sorted(set(j_set)))
    if set(i_set) & set(j_set):
        raise ValueError("I and J must be disjoint")
    predicted = "acyclic" if j_set else "h0"
    arity = max(i_set + j_set, default=1)

    axes = tuple(
        Axis(v, INF_TYPE if v in j_set else ZERO_TYPE, n_max)
        for v in sorted(i_set + j_set)
    )
    steps = []
    checks = True
    verdict = None

    current = axes
    for axis in reversed(axes):
        var = axis.var
        if axis.kind == INF_TYPE:
            solve_ok = round_trip_ok = True
            for salt in range(n_samples):
                g = _sample_series(arity, current, salt)
                a = solve_inf(g, var)
                solve_ok &= shift_cycle(a, var) == g
                round_trip_ok &= solve_inf(shift_cycle(g, var), var) == g
            steps.append({
                "variable": var,
                "kind": "inf",
                "samples": n_samples,
                "solve_exact": solve_ok,
                "round_trip_exact": round_trip_ok,
            })
            checks &= solve_ok and round_trip_ok
            verdict = "acyclic"
            break
        # zero-type elimination: surjectivity plus kernel transport
        solve_ok = kernel_ok = True
        for salt in range(n_samples):
            g = _sample_series(arity, current, salt)
            b = solve_zero(g, var)
            solve_ok &= shift_cycle(b, var).agrees_on_interior(g, var)
        for phi in _sample_phis(arity, var):
            k = kernel_element(phi, var, n_max, arity)
            kernel_ok &= all(
                poly.is_zero() for poly in shift_cycle(k, var).interior_terms(var).values()
            )
            kernel_ok &= k.slice_at(var, 1) == TailSeries(arity, (), {(): phi})
        steps.append({
            "variable": var,
            "kind": "zero",
            "samples": n_samples,
            "solve_exact_interior": solve_ok,
            "kernel_check": kernel_ok,
        })
        checks &= solve_ok and kernel_ok
        current = current[:-1]

    extraction = None
    congruences = []
    if verdict is None:
        verdict = "h0"
        extraction = (1,) * len(i_set)
        for var in i_set:
            for phi in _sample_phis(arity, var):
                for action in ("t", "theta"):
                    res = induced_action_congruence(phi, action, var, n_max, arity)
                    congruences.append(res)
                    checks &= res.ok

    return KoszulReport(
        i_set=i_set,
        j_set=j_set,
        n_max=n_max,
        verdict=verdict,
        predicted=predicted,
        checks_passed=checks,
        steps=tuple(steps),
        extraction_index=extraction,
        congruences=tuple(congruences),
    )
