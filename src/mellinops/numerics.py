"""Quadrature realizations of the moment, convolution, and transform checks.

Conventions fixed here once:

* Haar measure on the punctured plane in polar coordinates:
  d(xi)/xi ^ d(xibar)/xibar = -2i dr dtheta / r, so with u = log r every
  integral (1/2i*pi) * integral(xi^k f ...) becomes
  (-1/pi) * double integral of e^(k u) f(e^(u+i theta)) du dtheta.
* Moments: the order-k coefficient of the expansion at infinity is
  (1/2i*pi) integral(xi^k f dmu); at zero it is
  -(1/2i*pi) integral(xi^-k f dmu), k >= 1.  The angular grid is uniform, so
  the trapezoid rule is spectrally accurate on it (Trefethen-Weideman, SIAM
  Review 2014) and one FFT per radial row gives every angular order at once.
* The singular convolution kernel 1/(1 - xi/t) is integrable in the plane;
  the point xi = t is covered by a smooth partition of unity and a locally
  polar grid centered at t, on which the 1/|xi - t| singularity cancels
  against the area element.
* The ray transform is integral over (0, inf) of f(t) t^(s-1) dt, split
  geometrically around t = 1 with windows chosen by probing the integrand.

Every integral is summed by :func:`quadrature.csum` in a fixed order;
identical configurations give identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate

import numpy as np

from .errors import (
    EvaluationFailure,
    NotSeparable,
    PreconditionFailed,
    QuadratureFailure,
    SingularEvaluation,
)
from .quadrature import bump, csum, geometric_edges, panel_nodes, periodic_nodes, uniform_edges
from .quadrature import refine
from .testfunctions import apply_operator_terms
from .transform import apply_difference_terms, mellin_op
from .syntax import format_operator

ABS_TOL = 1e-10  # default quadrature target


def _cpx(z):
    return [float(np.real(z)), float(np.imag(z))]


@dataclass(frozen=True)
class ResidualReport:
    """Per-grid-point residuals with a verdict against a tolerance."""

    operator: str
    function_id: str
    grid: tuple
    residuals: tuple
    relative: tuple
    tolerance: float
    verdict: bool
    extras: dict = field(default_factory=dict)

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
    """Expansion coefficients at both boundary circles for one s value, each
    with its quadrature estimate (``zero_error``, ``inf_error``) and the Haar
    integral of |xi^k f| (``zero_scale``, ``inf_scale``), the size that the
    rounding of the order-k coefficient is relative to."""

    s: complex
    k_max: int
    zero_side: tuple  # k = 1..k_max
    inf_side: tuple  # k = 0..k_max
    zero_error: tuple
    inf_error: tuple
    zero_scale: tuple
    inf_scale: tuple

    @property
    def error(self):
        return max(self.zero_error + self.inf_error)

    def at_zero(self, k):
        return self.zero_side[k - 1]

    def at_inf(self, k):
        return self.inf_side[k]

    def scale(self, p):
        """The integral of |xi^p f| behind Haar order p (order -p at zero if p < 0)."""
        return self.inf_scale[p] if p >= 0 else self.zero_scale[-p - 1]

    def to_dict(self):
        return {
            "s": _cpx(self.s),
            "k_max": self.k_max,
            "zero_side": [_cpx(z) for z in self.zero_side],
            "inf_side": [_cpx(z) for z in self.inf_side],
            "error_estimate": self.error,
        }


# -- Haar-measure integrals -----------------------------------------------------


def _haar_grid(panel_width, order, n_theta, u_lo=-5.2, u_hi=5.2):
    u, wu = panel_nodes(uniform_edges(u_lo, u_hi, panel_width), order)
    theta, wth = periodic_nodes(n_theta)
    xi = np.exp(u)[:, None] * np.exp(1j * theta)[None, :]
    weights = wu[:, None] * wth
    return xi, weights, u


_HAAR_LEVELS = ((0.9, 12, 64), (0.55, 16, 96))


def _haar_integral_once(f, powers, s, level):
    """The order-p integrals on one level and the integrals of |xi^p f|."""
    xi, w, u = _haar_grid(*level)
    vals = f(xi, s)
    # the angular rule is uniform, so on each row the angular sum of
    # f e^(i p theta) is the (-p mod n)-th DFT coefficient, for every p at once
    rows, n = np.fft.fft(vals, axis=1), vals.shape[1]
    row_abs = np.abs(vals).sum(axis=1)
    values, scales = [], []
    for p in powers:
        radial = np.exp(p * u) * w[:, 0]
        values.append((-1.0 / math.pi) * csum(radial * rows[:, -p % n]))
        scales.append(csum(radial * row_abs).real / math.pi)
    return np.array(values), np.array(scales)


def _require_two_sided_decay(f):
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
    ``powers``, as (values, estimates, scales) tuples; one evaluation of f per
    level.  A scale is the integral of |xi^p f|, normalized like the value so
    that |value| <= scale, on the settled level: a value that cancels to 0 is
    left as rounding of its scale."""
    _require_two_sided_decay(f)
    scales = []  # those of the last level evaluated, the settled one

    def values_at(level):
        values, scales[:] = _haar_integral_once(f, powers, s, level)
        return values

    values, increments = refine(_HAAR_LEVELS, values_at, tol, 1e-8)
    return tuple(values), tuple(increments), tuple(scales)


def moment_table(f, k_max, s=0j, tol=ABS_TOL):
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    orders = tuple(-k for k in range(1, k_max + 1)) + tuple(range(k_max + 1))
    values, errors, scales = haar_integral(f, orders, s, tol)
    zero = tuple(-v for v in values[:k_max])
    return MomentTable(complex(s), k_max, zero, values[k_max:], errors[:k_max], errors[k_max:],
                       scales[:k_max], scales[k_max:])


def stokes_identity_check(f, k, s=0j, tol=1e-6, quad_tol=ABS_TOL, scale_floor=0.0):
    """Compare the moment of the holomorphic derivative against -k times
    the plain moment (integration by parts; both sides by quadrature).

    The relative residual is taken against the larger side, ``scale_floor``
    and the integral of |xi^k f|: when both sides vanish, e.g. for an angular
    mode that does not couple to order k, they are rounding of that integral.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    (lhs,), (e1,), _ = haar_integral(f.wirtinger_t(), (k + 1,), s, quad_tol)
    (base,), (e2,), (scale,) = haar_integral(f, (k,), s, quad_tol)
    return _stokes_report(f, k, complex(s), lhs, base, max(e1, e2), tol, max(scale_floor, scale))


def stokes_checks(f, table, tol=1e-6, quad_tol=ABS_TOL):
    """:func:`stokes_identity_check` for k = 0..table.k_max, reading each moment
    of f from ``table`` (f's moment table at ``table.s``) and every moment of
    the derivative from one integral; the scale floor is the largest entry of
    the table, or the integral of |xi^k f| when that is larger."""
    lhs, est, _ = haar_integral(f.wirtinger_t(), range(1, table.k_max + 2), table.s, quad_tol)
    floor = max(abs(v) for v in table.inf_side + table.zero_side)
    return [_stokes_report(f, k, table.s, lhs[k], table.at_inf(k),
                           max(est[k], table.inf_error[k]), tol, max(floor, table.inf_scale[k]))
            for k in range(table.k_max + 1)]


def _stokes_report(f, k, s, lhs, base, quad_error, tol, scale_floor):
    rhs = -k * base
    scale = max(abs(base), abs(lhs), scale_floor, 1e-300)
    residual = abs(lhs - rhs)
    rel = residual / scale
    return ResidualReport(
        operator=f"moment transport order {k}",
        function_id=f.name,
        grid=(s,),
        residuals=(residual,),
        relative=(rel,),
        tolerance=tol,
        verdict=rel <= tol,
        extras={"lhs": _cpx(lhs), "rhs": _cpx(rhs), "quad_error": quad_error},
    )


# -- the singular convolution ------------------------------------------------------


_CONV_LEVELS = (
    (0.7, 12, 128, 8, 10, 72),
    (0.45, 16, 192, 12, 12, 108),
    (0.3, 20, 288, 16, 16, 160),
    (0.22, 24, 448, 20, 18, 224),
)


def _convolution_once(f, t, s, extra_power, level):
    panel_w, order, n_theta, near_panels, near_order, n_phi = level
    h = 0.5 * abs(t)
    u_lo = min(-5.2, math.log(abs(t)) - 1.5)
    u_hi = max(5.2, math.log(2.5 * abs(t)))
    # far part: polar grid at the origin, kernel masked near xi = t
    xi, w, _ = _haar_grid(panel_w, order, n_theta, u_lo, u_hi)
    mask = 1.0 - bump((np.abs(xi - t) / h - 0.5) * 2.0)
    vals = f(xi, s) * mask * (1.0 / (1.0 - xi / t))
    if extra_power:
        vals = vals * xi ** extra_power
    far = (-1.0 / math.pi) * csum(vals * w)
    # near part: polar grid centered at t; the kernel singularity cancels
    # against the area element, leaving a smooth integrand
    rho, wr = panel_nodes(np.linspace(0.0, h, near_panels + 1), near_order)
    phi, wp = periodic_nodes(n_phi)
    xi_n = t + rho[:, None] * np.exp(1j * phi[None, :])
    chi = bump((rho / h - 0.5) * 2.0)[:, None]
    vals_n = f(xi_n, s) * chi * np.exp(-1j * phi)[None, :] / np.abs(xi_n) ** 2
    if extra_power:
        vals_n = vals_n * xi_n ** extra_power
    near = t / math.pi * csum(vals_n * (wr[:, None] * wp))
    return far + near


def _convolution_integral(f, t, s, extra_power, tol, rel_tol=1e-7):
    _require_two_sided_decay(f)
    return refine(_CONV_LEVELS, partial(_convolution_once, f, t, s, extra_power), tol, rel_tol)


def cauchy_convolve(f, t, s=0j, tol=1e-9):
    """Value of the kernel convolution (1/2i*pi) int f(xi,s)/(1-xi/t) dmu."""
    if t == 0:
        raise SingularEvaluation("the convolution kernel is centered on t != 0")
    value, _est = _convolution_integral(f, complex(t), s, 0, tol)
    return value


def convolution_remainder(f, t, s=0j, n=0, side="infinity", tol=1e-9):
    """Exact tail after n expansion terms, as a single well-conditioned
    integral t^-q (1/2i*pi) int xi^q f / (1 - xi/t) dmu with q = n + 1 at
    infinity and q = -n at zero (there xi/(xi - t) = -(xi/t)/(1 - xi/t)
    turns the zero-side kernel into the same one, one power up)."""
    t = complex(t)
    if t == 0:
        raise SingularEvaluation("remainders are evaluated away from 0")
    # the raw integral is O(1); relative accuracy carries through the
    # division by t^q, which is what the ratio checks need
    q = n + 1 if _check_side(side) == "infinity" else -n
    value, est = _convolution_integral(f, t, s, q, tol, rel_tol=3e-6)
    return value / t ** q, est / abs(t) ** q


def asymptotic_remainder_check(f, n, radii, side="infinity", s=0j, tol=1e-9):
    """Verify that tails after n terms scale like radius^-m across consecutive
    radius doublings, within half an order.  m is the first order past n, up to
    k_top = min(n + 4, 8), whose moment on that side exceeds 1e-10 of the
    largest moment of orders -k_top..k_top; when none does, m = k_top + 1 and
    only a shortfall below m counts (one-sided).  For n >= 8, m = n + 1."""
    if n < 0:
        raise ValueError(f"remainder order n must be >= 0, got {n}")
    _check_side(side)
    radii = tuple(sorted(float(r) for r in radii))
    if side == "infinity" and radii[0] <= 1.0:
        raise ValueError("infinity-side radii must lie outside the unit circle")
    k_top = min(n + 4, 8)  # moments past order 8 of the built-in envelopes do not settle
    predicted, one_sided = n + 1, False
    if k_top > n:
        # a vanishing moment cancels to rounding on any uniform angular grid, so
        # the coarse Haar level separates it from the others at a fifth of the
        # cost of a refined table
        _require_two_sided_decay(f)
        coarse, _ = _haar_integral_once(f, range(-k_top, k_top + 1), s, _HAAR_LEVELS[0])
        floor = 1e-10 * max(abs(v) for v in coarse)
        sign = 1 if side == "infinity" else -1  # coarse[k_top + p] is the order-p integral
        leading = [k for k in range(n + 1, k_top + 1) if abs(coarse[k_top + sign * k]) > floor]
        predicted, one_sided = (leading[0], False) if leading else (k_top + 1, True)
    rems = []
    for r in radii:
        t = r if side == "infinity" else 1.0 / r
        value, _ = convolution_remainder(f, t, s, n, side, tol)
        rems.append(abs(value))
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
        verdict=all(off <= 0.5 for off in offsets),
        extras={"ratios": [float(x) for x in ratios], "predicted_order": predicted,
                "one_sided": one_sided, "observed_orders": observed},
    )


# -- commutation of the expansion map with the operators ---------------------------


def epsilon_commutation_check(f, s, k_max, tol=1e-6, quad_tol=ABS_TOL):
    """Moment-table transport checks for the two displayed operators.

    (a) Euler case: the table of (t d/dt - s - 1) f must equal the table of
        f transported coefficient-wise by (n - s - 1) at actual exponent n,
        i.e. by (-k - s - 1) at infinity and (k - s - 1) at zero.
    (b) Shift-cycle case: the table of f(t, s+1)/t - f(t, s) must equal the
        index-shifted table with s -> s+1; the zero-side order-1 coefficient
        overflows into the constant term at infinity with a minus sign.
    """
    if not f.separable:
        raise NotSeparable(f"{f.name} does not expose its s-dependence")
    s = complex(s)
    table = moment_table(f, k_max + 1, s, quad_tol)
    table_up = moment_table(f, k_max + 1, s + 1, quad_tol)
    table_theta = moment_table(f.euler(), k_max, s, quad_tol)
    table_h = moment_table(f.shift_s(1).times_t(-1) + f.scale(-1), k_max, s, quad_tol)
    # each row is judged against the integrals of |xi^k f| of the entries it
    # compares: entries that vanish (mismatched angular modes) are rounding
    # of those integrals
    inf, zero = range(k_max + 1), range(1, k_max + 1)
    # (label, lhs, rhs, scale) for each transported coefficient
    rows = [(f"euler:inf:{k}", table_theta.at_inf(k) - (s + 1) * table.at_inf(k),
             (-k - s - 1) * table.at_inf(k),
             table_theta.scale(k) + (abs(s) + k + 1) * table.scale(k)) for k in inf]
    rows += [(f"euler:zero:{k}", table_theta.at_zero(k) - (s + 1) * table.at_zero(k),
              (k - s - 1) * table.at_zero(k),
              table_theta.scale(-k) + (abs(s) + k + 1) * table.scale(-k)) for k in zero]
    rows += [(f"cycle:inf:{k}", table_h.at_inf(k),
              (table_up.at_inf(k - 1) if k else -table_up.at_zero(1)) - table.at_inf(k),
              table_h.scale(k) + table_up.scale(k - 1) + table.scale(k)) for k in inf]
    rows += [(f"cycle:zero:{k}", table_h.at_zero(k), table_up.at_zero(k + 1) - table.at_zero(k),
              table_h.scale(-k) + table_up.scale(-k - 1) + table.scale(-k)) for k in zero]
    residuals = tuple(abs(lhs - rhs) for _, lhs, rhs, _ in rows)
    relative = tuple(res / max(row[3], 1e-300) for res, row in zip(residuals, rows))
    return ResidualReport(
        operator="expansion-map commutation (euler and shift-cycle)",
        function_id=f.name,
        grid=(s,),
        residuals=residuals,
        relative=relative,
        tolerance=tol,
        verdict=all(r <= tol for r in relative),
        extras={"checks": [row[0] for row in rows], "k_max": k_max},
    )


# -- the ray transform -----------------------------------------------------------


def _ray_window(f, re_s, tol):
    """Window on the ray from dyadic probes.  An active end probe needs the mass
    beyond it, w_end / a at the rate a = log2(w_inner / w_end) per doubling,
    to be at most ``tol``; a non-finite probe has no certificate."""
    k = np.arange(-84.0, 85.0)
    probes = np.exp2(k)
    vals = f(probes.astype(complex), 0j)
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.where(vals == 0, 0.0, np.abs(vals) * probes ** re_s)
    threshold = tol * 1e-4
    certified = bool(np.all(np.isfinite(weight)))
    for w_end, w_inner in (weight[:2], weight[:-3:-1]):  # (end, next inner) probes
        if certified and w_end > threshold:
            certified = w_inner > w_end and w_end / math.log2(w_inner / w_end) <= tol
    if not certified:
        raise QuadratureFailure(f"{f.name}: no ray-decay certificate at Re s = {re_s:g}")
    active = np.nonzero(weight > threshold)[0]
    if active.size == 0:
        return None
    return 2.0 ** (k[active[0]] - 2), 2.0 ** (k[active[-1]] + 2)


def ray_mellin(f, s, tol=ABS_TOL):
    """Adaptive transform along the positive ray: integral of f(t) t^(s-1) dt.

    Returns (value, error estimate); raises QuadratureFailure when the
    estimate exceeds the tolerance.
    """
    s = complex(s)
    window = _ray_window(f, s.real, tol)
    if window is None:
        return 0j, 0.0
    lo, hi = window
    edges = np.concatenate([
        geometric_edges(lo, 1.0, 2.0) if lo < 1.0 else [lo],
        geometric_edges(max(lo, 1.0), hi, 2.0)[1:] if hi > 1.0 else [],
    ])
    edges = np.unique(edges)

    def integrate(order):
        x, w = panel_nodes(edges, order)
        xc = x.astype(complex)
        vals = f(xc, s) * xc ** (s - 1)
        return csum(vals * w)

    return refine((16, 24), integrate, tol, 1e-8)


_GUARD_SAMPLES = np.exp(np.linspace(math.log(0.25), math.log(4.0), 12)).astype(complex)
_GUARD_TOL = 1e-8


def annihilation_guard(P, f):
    """Numeric check that P annihilates f pointwise on a sample grid."""
    parts = [g(_GUARD_SAMPLES, 0j) for g in apply_operator_terms(P, f)]
    total = np.sum(parts, axis=0)
    scale = np.max(np.abs(parts), axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    worst = float(np.max(np.abs(total) / scale))
    if worst > _GUARD_TOL:
        raise PreconditionFailed(
            f"operator does not annihilate {f.name}: relative residual {worst:.3e}"
        )
    return worst


def verify_commutation(P, f, s_grid, tol=1e-8, quad_tol=ABS_TOL):
    """End-to-end commutation check: P annihilates f on the ray, so the
    transform image of P must annihilate the ray transform of f."""
    if P.is_zero():
        raise ValueError("the zero operator annihilates every function; there is nothing to verify")
    annihilation_guard(P, f)
    Q = mellin_op(P)
    cache = {}

    def F(z):
        if z not in cache:
            cache[z] = ray_mellin(f, z, quad_tol)[0]
        return cache[z]

    residuals = []
    relative = []
    for s in s_grid:
        parts = apply_difference_terms(Q, F, complex(s))
        total = abs(sum(parts))
        scale = max(max(abs(p) for p in parts), 1e-300)
        residuals.append(total)
        relative.append(total / scale)
    verdict = all(r <= tol for r in relative)
    return ResidualReport(
        operator=format_operator(P),
        function_id=f.name,
        grid=tuple(complex(s) for s in s_grid),
        residuals=tuple(residuals),
        relative=tuple(relative),
        tolerance=tol,
        verdict=verdict,
        extras={"difference_operator": format_operator(Q)},
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
    series reconstructs f2 on the half-radius circle.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if alpha_max < 0:
        raise ValueError(f"alpha_max must be >= 0, got {alpha_max}")
    # the circle rule divides by radius ** alpha; past the float range that
    # quotient and the coefficient sums overflow
    overflow = f"coefficients up to alpha_max={alpha_max} overflow at radius={radius}"
    try:
        top = radius ** alpha_max
    except OverflowError:
        top = math.inf
    if not 0 < top < math.inf:
        raise ValueError(overflow)
    t_grid = tuple(complex(t) for t in t_grid)
    ts = np.asarray(t_grid, dtype=complex)
    phis, _ = periodic_nodes(_DISC_NODES)
    ring = center + radius * np.exp(1j * phis)

    def evaluate(g, T):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = np.asarray(g(ts, T), dtype=complex)
        if not np.all(np.isfinite(values)):
            raise EvaluationFailure(f"disc function is not finite at T = {complex(T):.6g}")
        return values

    def disc_coefficients(g):
        """Samples of g(ts, .) on the ring and their coefficients u_0..u_alpha_max."""
        samples = np.array([evaluate(g, xi) for xi in ring])
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

    # reconstruction on the half-radius circle
    recon_phis, _ = periodic_nodes(16)
    worst = 0.0
    for psi in recon_phis:
        T = center + rho * np.exp(1j * psi)
        series = np.zeros_like(ts)
        for a in range(alpha_max, -1, -1):
            series = series * (T - center) + np.asarray(coeffs[a])
        exact = evaluate(f2, T)
        worst = max(worst, float(np.max(np.abs(series - exact))))
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
