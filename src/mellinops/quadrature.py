"""Shared quadrature building blocks.

The radial and disc rules are composite Gauss-Legendre panels and uniform
periodic grids (the ray transform's trapezoid lattice is in numerics); node
layouts are fixed functions of the parameters.  :func:`csum` is the one
summation rule: numpy's pairwise sum, whose rounding error grows like log n
(Higham, "The accuracy of floating point summation", SISC 1993), in a fixed
order, so a given configuration always reproduces the same value.  Along the
last axis it sums a stack of equal-length rows in one call, each row to the
bits it has alone: a grid of ray transforms is summed one row-wise reduction
per level.  :func:`refine_step` is the one rule that judges a coarse value
against a finer one, a number or an array alike, and sets the estimate: the
last increment, floored at eps times the sum of the terms' moduli.
:func:`refine` is its level loop; a ray grid takes one step per level.
"""

from __future__ import annotations

from functools import lru_cache
from math import pi

import numpy as np

from .errors import QuadratureFailure

# An estimate's rounding floor, in units of eps times its scale.  The
# coarse-to-fine increment misses rounding that both levels share; with this
# floor the moment tables' error estimate covers the distance of every entry
# of radial, mode1..3 and modeblend from its Bessel closed form at k_max 0..8
# (the largest need is 4.8, mode3's order 3 at k_max 3).
_ROUNDING_ULPS = 8


@lru_cache(maxsize=64)
def gauss_legendre(order):
    return np.polynomial.legendre.leggauss(order)


def panel_nodes(edges, order):
    """Gauss-Legendre nodes and weights on consecutive panels ``edges``."""
    x, w = gauss_legendre(order)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    return (half * (x + 1.0) + edges[:-1, None]).ravel(), (half * w).ravel()


def uniform_edges(lo, hi, width):
    n = max(1, int(np.ceil((hi - lo) / width)))
    return np.linspace(lo, hi, n + 1)


def periodic_nodes(count):
    """Uniform angular grid on [0, 2*pi); the matching weight is 2*pi/count."""
    theta = np.arange(count) * (2.0 * pi / count)
    return theta, 2.0 * pi / count


def csum(values, axis=None):
    """Sum of an array as a Python complex (numpy's pairwise summation), or
    with ``axis=-1`` the array of its row sums; numpy sums each contiguous
    row in the order it sums that row alone, so a row's sum has the same bits."""
    total = np.sum(values, axis=axis)
    return complex(total) if axis is None else total


def refine_step(previous, value, scale, tol, rel_tol):
    """Judge ``value`` against the coarser ``previous`` entry by entry, a number
    or an ndarray alike.  Returns (increment, estimate, settled): |value -
    previous|, that floored at _ROUNDING_ULPS ulps of ``scale``, and whether it
    is finite and at most max(tol, rel_tol * |value|, floor)."""
    # numpy's abs always: Python's complex abs() can differ in the last bit, and
    # of a NaN it can raise OverflowError when an earlier overflow left errno set
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN increment
        increment = np.abs(value - previous)
    floor = _ROUNDING_ULPS * np.finfo(float).eps * scale
    target = np.maximum(np.maximum(tol, rel_tol * np.abs(value)), floor)
    return increment, np.maximum(increment, floor), (increment < np.inf) & (increment <= target)


def refine_failure(increment, tol):
    """The QuadratureFailure of an unsettled increment (a grid's largest)."""
    if not increment < np.inf:  # nan or inf
        return QuadratureFailure(f"quadrature increment {increment} is not finite")
    return QuadratureFailure(
        f"quadrature did not settle below {tol:.3e} (last increment {increment:.3e})")


def refine(levels, evaluate, tol, rel_tol):
    """Evaluate ``levels`` in order, ``evaluate(level)`` giving (value, scale),
    the sums of the terms and of their moduli, until :func:`refine_step` settles
    every entry; returns (value, estimate, scale).  Raises :func:`refine_failure`
    of the largest last increment when no level settles, at once on a non-finite one."""
    previous = None
    for level in levels:
        value, scale = evaluate(level)
        if previous is not None:
            increment, estimate, settled = refine_step(previous, value, scale, tol, rel_tol)
            if not (increment < np.inf).all():  # the largest is nan when there is one
                raise refine_failure(np.max(increment), tol)
            if settled.all():
                return value, estimate, scale
        previous = value
    raise refine_failure(np.max(increment), tol)
