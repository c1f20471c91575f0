"""Quadrature realizations of the moment, convolution, and transform checks.

Conventions fixed here once:

* Haar measure on the punctured plane in polar coordinates:
  d(xi)/xi ^ d(xibar)/xibar = -2i dr dtheta / r, so with u = log r every
  integral (1/2i*pi) * integral(xi^k f ...) becomes
  (-1/pi) * double integral of e^(k u) f(e^(u+i theta)) du dtheta.
* Moments are read by Haar order p: (1/2i*pi) integral(xi^p f dmu) is the
  coefficient of t^-k at infinity for p = k >= 0, and minus the coefficient
  of t^k at zero for p = -k <= -1.  With f = sum of e^(ik theta) f_k(r), it
  is the radial integral -2 * integral of e^(p u) f_-p(e^u) du: an exact 0
  when f has no angular order -p.
* The singular convolution kernel 1/(1 - xi/t) is the geometric series in
  xi/t inside |xi| = |t| and minus the one in t/xi outside it.  Term by term
  against f = sum of e^(ik theta) f_k, with q = n + 1 at infinity and q = -n
  at zero, the tail after n expansion terms is a sum of radial integrals
  split at |t|, which do not cancel:
  R_n(t) = -2 sum_k t^k ([k+q <= 0] int_0^|t| - [k+q >= 1] int_|t|^inf) f_k rho^-k drho/rho.
  ``convolution_remainder`` is its one entry point (``cauchy_convolve`` is the
  zero-side tail after no terms, q = 0), on the Haar levels over the Haar
  window widened to log|t| +- 1, settling at 1e-13 relative or at its
  rounding floor.  A function with an exp(P(t)) factor has no angular split:
  QuadratureFailure.
* The ray transform, the integral of f(t) t^(s-1) dt = f(e^u) e^(su) du, is
  the trapezoid rule on the nested lattice u = j log 2 / m, m = 2, 4, 8, 16,
  over each s's window 2^a..2^b of whole doublings, chosen and certified from
  probes of f at t = 2^k.  A grid takes one probe and one evaluation of f per
  level, later levels on their new odd nodes only.  Each point's terms lie on
  the lattice of 2^-86..2^86, zero outside its window, so they sum to the bits
  they have alone; a level pair judges a point once its coarse level resolves
  e^(i Im(s) u), h (|Im s| + 1) <= pi.  The estimate adds the mass beyond.
* The disc expansion evaluates its family once per circle: on the 256-node
  ring, on the 16-point reconstruction circle, and (dfdt) on the ring again.
* The transport checks extend f's moment table at its tolerance, ``table.tol``.

Every integral is summed by :func:`quadrature.csum` in a fixed order;
identical configurations give identical results.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate

import numpy as np

from .errors import PreconditionFailed, QuadratureFailure
from .quadrature import (csum, panel_nodes, periodic_nodes, refine, refine_failure,
                         refine_step, uniform_edges)
from .testfunctions import apply_operator_terms, build_builtin
from .transform import apply_difference_terms, mellin_op
from .syntax import format_operator

ABS_TOL = 1e-10  # default quadrature target
_TRANSPORT_TOL = 1e-6  # the relative band of every transport row


def _check_order(name, value):
    """An order ``value`` as a non-negative int, checked before any grid is
    built; a ValueError naming ``name`` otherwise."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def _cpx(z):
    """z as the [real, imag] pair of a report; + 0.0 turns a -0.0 part into 0.0."""
    return [float(np.real(z)) + 0.0, float(np.imag(z)) + 0.0]


@dataclass(frozen=True)
class ResidualReport:
    """Per-grid-point residuals, judged against a tolerance."""

    operator: str
    function_id: str
    grid: tuple
    residuals: tuple
    relative: tuple
    tolerance: float
    extras: dict = field(default_factory=dict)

    @property
    def verdict(self):
        """Whether every relative residual, and every closed-form distance the
        extras carry, is within the tolerance (a NaN is not)."""
        checked = (*self.relative, *self.extras.get("closed_form_relative", ()))
        return all(r <= self.tolerance for r in checked)

    @property
    def max_relative(self):
        return max(self.relative) if self.relative else 0.0

    def to_dict(self):
        return {
            "operator": self.operator,
            "function": self.function_id,
            "grid": [_cpx(z) for z in self.grid],
            "residuals": [float(x) for x in self.residuals],
            "relative_residuals": [float(x) for x in self.relative],
            "tolerance": self.tolerance,
            "verdict": bool(self.verdict),
            **{k: v for k, v in self.extras.items()},
        }


@dataclass(frozen=True)
class MomentTable:
    """The Haar integrals of orders p = -k_max..k_max of f at one s value, as
    dicts keyed by p: ``values[p]``, its floored quadrature estimate
    ``errors[p]`` and ``scales[p]``, the integral of |2 e^(p u) f_-p(e^u)|,
    settled at ``tol``.  ``values[k]`` is the coefficient of t^-k at infinity
    and ``-values[-k]`` that of t^k at zero; the report lists the two sides."""

    s: complex
    k_max: int
    values: dict
    errors: dict
    scales: dict
    tol: float

    @property
    def error(self):
        return max(self.errors.values())

    def to_dict(self):
        return {
            "s": _cpx(self.s),
            "k_max": self.k_max,
            "zero_side": [_cpx(-self.values[-k]) for k in range(1, self.k_max + 1)],
            "inf_side": [_cpx(self.values[k]) for k in range(self.k_max + 1)],
            "error_estimate": self.error,
        }


# -- Haar-measure integrals -----------------------------------------------------


_HAAR_WINDOW = (-5.2, 5.2)  # the Haar integrals' range of u = log r


def _radial_nodes(panel_width, order, window=_HAAR_WINDOW):
    return panel_nodes(uniform_edges(*window, panel_width), order)


# (panel width, order) in u = log r, shared by the Haar integrals and the tails
_HAAR_LEVELS = ((0.9, 12), (0.55, 16), (0.3, 20), (0.2, 24), (0.12, 28))


def _haar_integral_once(f, powers, s, level):
    """The order-p integrals on one level and the integrals of the moduli of
    their integrands, both exact zeros when f has no angular order -p."""
    u, w = _radial_nodes(*level)
    modes = f.modes(np.exp(u), s)
    values, scales = np.zeros(len(powers), complex), np.zeros(len(powers))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, p in enumerate(powers):
            if -p in modes:
                integrand = -2.0 * np.exp(p * u) * w * modes[-p]  # an overflow is inf
                values[i], scales[i] = csum(integrand), np.abs(integrand).sum()
    return values, scales


def _require_haar_input(f, s):
    """A finite s (a usage error), then f's two-sided rapid-decay certificate."""
    if not np.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if not all(f.decay()):
        raise QuadratureFailure(
            f"{f.name}: no two-sided rapid-decay certificate for a Haar integral"
        )


def _check_side(side):
    if side not in ("infinity", "zero"):
        raise ValueError(f"unknown side {side!r}; expected 'infinity' or 'zero'")
    return side


def haar_integral(f, powers, s=0j, tol=ABS_TOL):
    """(1/2i*pi) integral of xi^p * f over the Haar measure for each p in
    ``powers``, as (values, estimates, scales) arrays; one split of f into
    angular orders per level.  A scale is the integral of the modulus of the
    value's radial integrand on the settled level: |value| <= scale."""
    _require_haar_input(f, s)
    # only the first two levels: on finer ones the fixed window settles integrands
    # it cuts off (order 100 of mode100 peaks past u = 5.2); such an order fails
    return refine(_HAAR_LEVELS[:2], partial(_haar_integral_once, f, powers, s), tol, 1e-8)


def moment_table(f, k_max, s=0j, tol=ABS_TOL):
    k_max = _check_order("k_max", k_max)
    orders = range(-k_max, k_max + 1)
    columns = haar_integral(f, orders, s, tol)
    return MomentTable(complex(s), k_max, *(dict(zip(orders, column)) for column in columns), tol)


def stokes_identity_check(f, k, s=0j):
    """Row k of :func:`stokes_checks` on f's table of orders -k..k: the moment
    of the holomorphic derivative against -k times the plain moment."""
    return stokes_checks(f, moment_table(f, k, s))[k]


def stokes_checks(f, table):
    """The transport identity for k = 0..table.k_max, reading each moment of f
    from ``table`` (f's moment table at ``table.s``) and every moment of the
    derivative from one integral.  Row k is judged against the larger side or
    the table's scale of order k, of which two vanishing sides are rounding."""
    lhs, est, _ = haar_integral(f.wirtinger_t(), range(1, table.k_max + 2), table.s, table.tol)
    reports = []
    for k in range(table.k_max + 1):
        rhs = -k * table.values[k]
        residual = abs(lhs[k] - rhs)
        reports.append(ResidualReport(
            f"moment transport order {k}", f.name, (table.s,), (residual,),
            relative=(residual / max(abs(lhs[k]), abs(rhs), table.scales[k], 1e-300),),
            tolerance=_TRANSPORT_TOL,
            extras={"lhs": _cpx(lhs[k]), "rhs": _cpx(rhs),
                    "quad_error": max(est[k], table.errors[k])},
        ))
    return reports


# -- the convolution's tails ------------------------------------------------------


def _tail_once(f, t, s, q, level):
    """The tail's radial integrals on one level, split at log|t|, and the sum of
    the moduli of every order's integrand over the whole window."""
    split = math.log(abs(t))
    u_in, w_in = _radial_nodes(*level, (min(_HAAR_WINDOW[0], split - 1), split))
    u_out, w_out = _radial_nodes(*level, (split, max(_HAAR_WINDOW[1], split + 1)))
    u, w, cut = np.concatenate((u_in, u_out)), np.concatenate((w_in, w_out)), len(u_in)
    value, scale = 0j, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, f_k in f.modes(np.exp(u), s).items():
            integrand = 2.0 * np.exp(-k * u) * w * f_k  # an overflow is inf
            value += t ** k * (-csum(integrand[:cut]) if k + q <= 0 else csum(integrand[cut:]))
            scale += abs(t) ** k * np.abs(integrand).sum()
    return value, scale


def cauchy_convolve(f, t, s=0j):
    """Value of the kernel convolution (1/2i*pi) int f(xi,s)/(1-xi/t) dmu: the
    zero-side tail after no terms (q = 0) of :func:`convolution_remainder`."""
    return convolution_remainder(f, t, s, 0, "zero")[0]


def convolution_remainder(f, t, s=0j, n=0, side="infinity"):
    """Exact tail after n expansion terms, t^-q (1/2i*pi) int xi^q f / (1 - xi/t)
    dmu with q = n + 1 at infinity and q = -n at zero, as (value, estimate):
    the radial formula of the module docstring, settled at 1e-13 relative or
    at its rounding floor."""
    t = complex(t)
    if t == 0:
        raise ValueError("the convolution kernel is centered on t != 0")
    n = _check_order("remainder order n", n)
    q = n + 1 if _check_side(side) == "infinity" else -n
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    _require_haar_input(f, s)
    return refine(_HAAR_LEVELS, partial(_tail_once, f, t, s, q), 0.0, 1e-13)[:2]


def _predicted_order(f, n, side, s):
    """(m, one_sided) for the tail after n terms: m is the first order k in
    n+1..n+4 whose moment on ``side`` can be non-zero, that is, whose angular
    order of f (-k at infinity, k at zero) is not identically zero on the first
    Haar level's radii; when none is, (n + 5, True)."""
    _require_haar_input(f, s)
    u, _ = _radial_nodes(*_HAAR_LEVELS[0])
    carried = {k for k, row in f.modes(np.exp(u), s).items() if np.any(row)}
    sign = -1 if side == "infinity" else 1
    leading = [k for k in range(n + 1, n + 5) if sign * k in carried]
    return (leading[0], False) if leading else (n + 5, True)


def asymptotic_remainder_check(f, n, radii, side="infinity", s=0j):
    """Verify that tails after n terms scale like radius^-m across consecutive
    radius doublings, within half an order.  m is the first order k in
    n+1..n+4 whose moment on that side f carries (see :func:`_predicted_order`);
    when none is, m = n + 5 and only a shortfall below m counts (one-sided).
    A tail at or below its quadrature estimate counts as vanishing."""
    n = _check_order("remainder order n", n)
    _check_side(side)
    radii = np.sort(tuple(radii))
    if np.iscomplexobj(radii) or not np.isfinite(radii).all():
        raise ValueError(f"t must be finite and real, got radii {radii.tolist()}")
    if radii.size < 2 or radii[0] <= 0 or not np.all(np.diff(radii)):
        raise ValueError(f"an order needs two or more distinct positive radii, got {radii.tolist()}")
    if side == "infinity" and radii[0] <= 1.0:
        raise ValueError("infinity-side radii must lie outside the unit circle")
    predicted, one_sided = _predicted_order(f, n, side, s)
    rems = []
    for r in radii:
        t = r if side == "infinity" else 1.0 / r
        value, est = convolution_remainder(f, t, s, n, side)
        rems.append(abs(value) if abs(value) > est else 0.0)  # at or below its estimate: vanishing
    ratios, observed, offsets = [], [], []
    for lo, hi, a, b in zip(radii[:-1], radii[1:], rems[:-1], rems[1:]):
        ratios.append(a / b if b else (math.inf if a else 1.0))
        if a == b == 0.0:  # identically vanishing tails are in order
            observed.append(None)
            offsets.append(0.0)
            continue
        order = math.log2(ratios[-1]) / math.log2(hi / lo) if a else -math.inf
        observed.append(order)
        offsets.append(max(0.0, predicted - order) if one_sided else abs(order - predicted))
    return ResidualReport(
        operator=f"remainder order after {n} terms ({side} side)",
        function_id=f.name,
        grid=tuple(complex(r) for r in radii),
        residuals=tuple(rems),
        relative=tuple(offsets),
        tolerance=0.5,
        extras={"ratios": [float(x) for x in ratios], "predicted_order": predicted,
                "one_sided": one_sided, "observed_orders": observed},
    )


# -- commutation of the expansion map with the operators ---------------------------


def epsilon_commutation_check(f, table):
    """Transport checks for the two displayed operators on f's ``table``.

    Both compare Haar orders p, at infinity (p = 0..k_max) and then at zero
    (p = -1..-k_max), where order p carries the actual exponent n = -p:

    (a) Euler case: the table of (t d/dt - s - 1) f must equal the table of
        f transported coefficient-wise by (n - s - 1) = (-p - s - 1).
    (b) Shift-cycle case: the table of f(t, s+1)/t - f(t, s) must equal the
        table at s + 1 moved up one order, minus the table at s; the order
        -1 entry at s + 1 moves into order 0, across the sides.
    """
    s, k_max = table.s, table.k_max
    table_up = moment_table(f, k_max + 1, s + 1, table.tol)
    table_theta = moment_table(f.euler(), k_max, s, table.tol)
    table_h = moment_table(f.shift_s(1).times_t(-1) + f.scale(-1), k_max, s, table.tol)
    # each row is judged against the scales of the entries it compares, the
    # moduli of their radial integrands: entries of angular orders that f
    # lacks are exact zeros, and entries that cancel are rounding of them
    orders = [*range(k_max + 1), *range(-1, -k_max - 1, -1)]
    side = {p: f"inf:{p}" if p >= 0 else f"zero:{-p}" for p in orders}
    f0, up, theta, h = table.values, table_up.values, table_theta.values, table_h.values
    # (label, lhs, rhs, scale) for each transported coefficient
    rows = [(f"euler:{side[p]}", theta[p] - (s + 1) * f0[p], (-p - s - 1) * f0[p],
             table_theta.scales[p] + (abs(s) + abs(p) + 1) * table.scales[p]) for p in orders]
    rows += [(f"cycle:{side[p]}", h[p], up[p - 1] - f0[p],
              table_h.scales[p] + table_up.scales[p - 1] + table.scales[p]) for p in orders]
    residuals = tuple(abs(lhs - rhs) for _, lhs, rhs, _ in rows)
    relative = tuple(res / max(row[3], 1e-300) for res, row in zip(residuals, rows))
    return ResidualReport(
        operator="expansion-map commutation (euler and shift-cycle)",
        function_id=f.name,
        grid=(s,),
        residuals=residuals,
        relative=relative,
        tolerance=_TRANSPORT_TOL,
        extras={"checks": [row[0] for row in rows], "k_max": k_max},
    )


# -- the ray transform -----------------------------------------------------------


_RAY_PROBES = np.arange(-84.0, 85.0)  # the window's dyadic probes are t = 2^k
_RAY_LEVELS = (2, 4, 8, 16)  # nodes per doubling
_RAY_IM_MAX = math.pi * 8 / math.log(2) - 1  # h (|Im s| + 1) <= pi at h = log 2 / 8
# the finest lattice u = j log 2 / 16 over 2^-86..2^86, the widest windows
_RAY_U = np.arange(-86 * 16, 86 * 16 + 1) * (math.log(2) / 16)
_RAY_X = np.exp(_RAY_U).astype(complex)


def _ray_windows(f, probed, re_s, tol):
    """Windows on the ray from the dyadic probes, given |f| on them, one per
    real part in ``re_s``.  An active end probe needs the mass beyond it,
    w_end / a at the rate a = log2(w_inner / w_end) per doubling, to be at most
    ``tol``; a non-finite probe has no certificate, and the point gets its
    QuadratureFailure.  A window (a, b, tail) spans 2^a..2^b, two doublings
    past the outer active probes and always reaching 1, or is (0, 0, 0.0) with
    no active probe; tail bounds the mass beyond it by each side's w / a two
    doublings out, w the outer active probe and a its rate against the one
    outside it (inside, at an end)."""
    threshold = tol * 1e-4
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        weight = np.where(probed == 0, 0.0, probed * np.exp2(_RAY_PROBES) ** re_s[:, None])
        certified = np.isfinite(weight).all(axis=1)
        for w_end, w_inner in ((weight[:, 0], weight[:, 1]), (weight[:, -1], weight[:, -2])):
            decays = (w_inner > w_end) & (w_end / np.log2(w_inner / w_end) <= tol)
            certified &= (w_end <= threshold) | decays
        active = weight > threshold
        outer = np.stack((active.argmax(1), active.shape[1] - 1 - active[:, ::-1].argmax(1)))
        # weight widened by one column each way, an end probe's inner neighbour mirrored outside it
        padded = np.concatenate((weight[:, 1:2], weight, weight[:, -2:-1]), axis=1)
        rows = np.arange(len(weight))
        w = weight[rows, outer]
        rate = np.abs(np.log2(w / padded[rows, outer + [[0], [2]]]))
        tail = (w * np.exp2(-2 * rate) / rate).sum(axis=0)
    starts, ends = _RAY_PROBES[outer[0]] - 2, np.maximum(_RAY_PROBES[outer[1]] + 2, 0)
    return [QuadratureFailure(f"{f.name}: no ray-decay certificate at Re s = {x:g}") if not ok
            else (int(a), int(b), float(t)) if any_ else (0, 0, 0.0)
            for x, ok, any_, a, b, t in zip(re_s, certified, active.any(1), starts, ends, tail)]


def _settled(outcome):
    """The (value, estimate) pair of a :func:`_ray_transforms` outcome, or its exception raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _ray_transforms(f, points, tol):
    """The ray transform at each complex s of ``points``, as its (value,
    estimate) pair or the exception raised for it, by the module docstring's
    rule: f probed once, then evaluated once per level for the points still
    open, their terms summed by one row-wise :func:`csum` per level."""
    points = np.array(points, dtype=complex)
    windows = _ray_windows(f, np.abs(f(np.exp2(_RAY_PROBES).astype(complex), 0j)), points.real, tol)
    # a point leaves at once with no certificate, as 0 with no active probe, or
    # when no level pair resolves its Im s; None marks the points refined below
    outcomes = [w if not isinstance(w, tuple) else (0j, 0.0) if w[0] == w[1]
                else QuadratureFailure(f"the ray lattice resolves |Im s| <= {_RAY_IM_MAX:.2f} only")
                if abs(y) > _RAY_IM_MAX else None for y, w in zip(points.imag, windows)]
    rows = np.array([i for i, outcome in enumerate(outcomes) if outcome is None], np.intp)
    # the windows' first and last nodes, as indices into _RAY_U
    ends = (np.array([w[:2] if isinstance(w, tuple) else (0, 0) for w in windows]) + 86) * 16
    value, scale = np.zeros(points.size, complex), np.zeros(points.size)
    for level, m in enumerate(_RAY_LEVELS):
        if not rows.size:
            break
        step, h, s, previous = 16 // m, math.log(2) / m, points[rows], value[rows]
        nodes = np.arange(step, _RAY_U.size, 2 * step) if level else np.arange(0, _RAY_U.size, step)
        first = nodes.searchsorted(ends[rows, 0].min())
        hull = nodes[first:nodes.searchsorted(ends[rows, 1].max(), "right")]
        r, c = np.nonzero((ends[rows, :1] <= hull) & (hull <= ends[rows, 1:]))
        fx = np.broadcast_to(f(_RAY_X[hull][None, :], s[:, None]), (rows.size, hull.size))
        terms = np.zeros((rows.size, nodes.size), complex)
        with np.errstate(over="ignore", invalid="ignore"):  # the step judges a non-finite sum
            terms[r, first + c] = fx[r, c] * np.exp(s[r] * _RAY_U[hull][c])
            value[rows] = h * csum(terms, axis=-1) + previous / 2
            scale[rows] = h * np.abs(terms).sum(axis=-1) + scale[rows] / 2
            if not level:
                continue
            increment, estimate, settled = refine_step(previous, value[rows], scale[rows], tol, 1e-8)
        # judged once the coarse level resolves e^(i Im(s) u): an aliased increment is blind
        settled &= 2 * h * (np.abs(s.imag) + 1) <= math.pi
        done = settled | ~(increment < np.inf) | (level == len(_RAY_LEVELS) - 1)
        for i, inc, est, ok in zip(rows[done], increment[done], estimate[done], settled[done]):
            outcomes[i] = ((complex(value[i]), float(est) + windows[i][2]) if ok
                           else refine_failure(inc, tol))
        rows = rows[~done]
    return outcomes


def ray_mellin(f, s):
    """The integral of f(t) t^(s-1) dt along the positive ray as (value, error
    estimate); QuadratureFailure when no judged increment settles within
    ``ABS_TOL`` or 1e-8 of the value."""
    return _settled(_ray_transforms(f, (complex(s),), ABS_TOL)[0])


_GUARD_SAMPLES = np.exp(np.linspace(math.log(0.25), math.log(4.0), 12)).astype(complex)
_GUARD_TOL = 1e-8


def annihilation_guard(P, f):
    """Numeric check that P annihilates f pointwise on a sample grid."""
    parts = [g(_GUARD_SAMPLES, 0j) for g in apply_operator_terms(P, f)]
    total = np.sum(parts, axis=0)
    scale = np.max(np.abs(parts), axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    worst = float(np.max(np.abs(total) / scale))
    if not worst <= _GUARD_TOL:  # a NaN residual fails
        raise PreconditionFailed(
            f"operator does not annihilate {f.name}: relative residual {worst:.3e}"
        )
    return worst


# The ray transforms that have a closed form in the standard library, keyed by
# the function's terms: Gamma(s) for exp(-t) and Gamma(s/2)/2 for exp(-t^2).
_CLOSED_FORMS = {
    build_builtin("gamma").terms: math.gamma,
    build_builtin("gaussian").terms: lambda s: math.gamma(s / 2) / 2,
}


def verify_commutation(P, f, s_grid, tol=1e-8, quad_tol=ABS_TOL):
    """End-to-end commutation check: P annihilates f on the ray, so the
    transform image of P must annihilate the ray transform of f.

    The residuals cannot tell F from F times a 1-periodic function.  So on a
    real grid, for f with a closed form, the report also carries for each grid
    point the largest relative distance from it among the values its residual
    read (``closed_form_relative``), and the verdict judges those against the
    same tolerance."""
    if P.is_zero():
        raise ValueError("the zero operator annihilates every function; there is nothing to verify")
    grid = tuple(complex(s) for s in s_grid)
    if not grid:
        raise ValueError("the grid has no points; there is nothing to verify")
    if not np.isfinite(grid).all():
        raise ValueError(f"grid points must be finite, got {grid}")
    annihilation_guard(P, f)
    Q = mellin_op(P)
    closed_form = _CLOSED_FORMS.get(f.terms) if all(s.imag == 0 for s in grid) else None
    shifts = [tau for tau, _ in Q.terms]  # p = 1: each key is (tau, s)
    points = tuple(dict.fromkeys(s + c for s in grid for c in shifts))  # in first-use order
    transforms = dict(zip(points, _ray_transforms(f, points, quad_tol)))

    def F(z):
        return _settled(transforms[z])[0]

    residuals = []
    relative = []
    for s in grid:
        parts = apply_difference_terms(Q, F, s)
        total = abs(sum(parts))
        scale = max(max(abs(p) for p in parts), 1e-300)
        residuals.append(total)
        relative.append(total / scale)
    extras = {"difference_operator": format_operator(Q)}
    if closed_form:
        def distance(z):
            exact = closed_form(z.real)
            return abs(F(z) - exact) / abs(exact)

        extras["closed_form_relative"] = [max(distance(s + c) for c in shifts) for s in grid]
    return ResidualReport(
        operator=format_operator(P),
        function_id=f.name,
        grid=grid,
        residuals=tuple(residuals),
        relative=tuple(relative),
        tolerance=tol,
        extras=extras,
    )


# -- parameter-disc expansions ------------------------------------------------------


@dataclass(frozen=True)
class ExpansionResult:
    """Contour-extracted disc coefficients and their certified bounds."""

    center: complex
    radius: float
    alpha_max: int
    t_grid: tuple
    coefficients: tuple  # coefficients[alpha][i] over the t grid
    sup_on_circle: float
    bound_ok: bool
    bound_margin: float
    normal_sums: tuple  # partial sums of ||u_alpha|| rho^alpha at rho = R/2
    reconstruction_residual: float
    reconstruction_ok: bool
    derivative_coefficients: tuple | None = None

    def to_dict(self):
        return {
            "center": _cpx(self.center),
            "radius": self.radius,
            "alpha_max": self.alpha_max,
            "t_grid": [_cpx(t) for t in self.t_grid],
            "coefficient_sup": [
                max(abs(v) for v in row) for row in self.coefficients
            ],
            "sup_on_circle": self.sup_on_circle,
            "bound_ok": bool(self.bound_ok),
            "bound_margin": self.bound_margin,
            "normal_sum": self.normal_sums[-1] if self.normal_sums else 0.0,
            "reconstruction_residual": self.reconstruction_residual,
            "reconstruction_ok": bool(self.reconstruction_ok),
        }


_DISC_NODES = 256  # nodes of the uniform rule on the disc's circle


def parameter_expansion(
    f2,
    center=0j,
    radius=0.5,
    alpha_max=12,
    t_grid=(1.0, 2.0, 3.0, 4.0),
    recon_tol=1e-8,
    dfdt=None,
):
    """Disc coefficients u_alpha(t) of T -> f2(t, T) by contour quadrature.

    The uniform circle rule is spectrally accurate here; coefficients obey
    the circle bound sup_t |u_alpha| <= sup_circle |f2| / radius^alpha, the
    partial sums of ||u_alpha|| (R/2)^alpha converge, and the truncated
    series reconstructs f2 on the half-radius circle.  f2 (and ``dfdt``) is
    called once per circle, t as a row and T as a column; orders >= 256 alias.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if not np.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    alpha_max = _check_order("alpha_max", alpha_max)
    # the circle rule divides by _DISC_NODES * radius ** alpha; past the float
    # range that quotient and the coefficient sums overflow
    overflow = f"coefficients up to alpha_max={alpha_max} overflow at radius={radius}"
    try:
        top = radius ** alpha_max
    except OverflowError:
        top = math.inf
    if not (0 < top < math.inf and 1 / (_DISC_NODES * top) < math.inf):
        raise ValueError(overflow)
    if alpha_max >= _DISC_NODES:  # before any evaluation, whose loop runs over every order
        raise ValueError(f"alpha_max={alpha_max} aliases on the {_DISC_NODES}-node circle")
    t_grid = tuple(complex(t) for t in t_grid)
    ts = np.asarray(t_grid, dtype=complex)
    phis, _ = periodic_nodes(_DISC_NODES)
    ring = center + radius * np.exp(1j * phis)

    def evaluate(g, T):
        """g(ts, T) with a row per T; QuadratureFailure names the first non-finite row's T."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = np.broadcast_to(np.asarray(g(ts, T[:, None]), complex), (len(T), len(ts)))
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            raise QuadratureFailure(f"disc function is not finite at T = {complex(T[bad[0]]):.6g}")
        return values

    def disc_coefficients(g):
        """Samples of g(ts, .) on the ring and their coefficients u_0..u_alpha_max."""
        samples = evaluate(g, ring)
        coeffs = []
        with np.errstate(over="ignore", invalid="ignore"):
            for alpha in range(alpha_max + 1):
                w = np.exp(-1j * alpha * phis) / (_DISC_NODES * radius ** alpha)
                coeffs.append(tuple(complex(z) for z in (w[:, None] * samples).sum(axis=0)))
        if not np.all(np.isfinite(coeffs)):
            raise ValueError(overflow)
        return samples, tuple(coeffs)

    samples, coeffs = disc_coefficients(f2)
    sup_circle = float(np.max(np.abs(samples)))

    sup_alpha = [max(abs(v) for v in row) for row in coeffs]
    margin = max(
        (sup_alpha[a] * radius ** a) / max(sup_circle, 1e-300)
        for a in range(alpha_max + 1)
    )
    bound_ok = margin <= 1.0 + 1e-6

    rho = radius / 2.0
    sums = tuple(accumulate(sup_alpha[a] * rho ** a for a in range(alpha_max + 1)))

    # reconstruction on the half-radius circle, by Horner's rule at all 16 nodes
    recon = center + rho * np.exp(1j * periodic_nodes(16)[0])
    series = np.polyval(np.array(coeffs[::-1]), (recon - center)[:, None])
    worst = float(np.max(np.abs(series - evaluate(f2, recon))))
    recon_rel = worst / max(sup_circle, 1e-300)

    deriv = None if dfdt is None else disc_coefficients(dfdt)[1]

    return ExpansionResult(
        center=complex(center),
        radius=float(radius),
        alpha_max=alpha_max,
        t_grid=t_grid,
        coefficients=coeffs,
        sup_on_circle=sup_circle,
        bound_ok=bound_ok,
        bound_margin=float(margin),
        normal_sums=sums,
        reconstruction_residual=recon_rel,
        reconstruction_ok=recon_rel <= recon_tol,
        derivative_coefficients=deriv,
    )
