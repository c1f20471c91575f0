"""Shared quadrature building blocks.

All rules are tensor products of composite Gauss-Legendre panels with
uniform periodic grids; node layouts are fixed functions of the parameters,
and accumulation is compensated (math.fsum) in a fixed index order, so a
given configuration always reproduces the same value.  Every adaptive rule
refines through :func:`refine`, the one place where a coarse value is
compared with a finer one.
"""

from __future__ import annotations

from functools import lru_cache
from math import fsum, pi

import numpy as np

from .errors import QuadratureFailure


@lru_cache(maxsize=64)
def gauss_legendre(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(edges, order):
    """Gauss-Legendre nodes and weights on consecutive panels ``edges``."""
    x, w = gauss_legendre(order)
    nodes = []
    weights = []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(half * (x + 1.0) + a)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def uniform_edges(lo, hi, width):
    n = max(1, int(np.ceil((hi - lo) / width)))
    return np.linspace(lo, hi, n + 1)


def geometric_edges(lo, hi, ratio=2.0):
    """Panel edges from lo to hi growing geometrically (lo, hi > 0)."""
    edges = [lo]
    x = lo
    while x * ratio < hi:
        x *= ratio
        edges.append(x)
    edges.append(hi)
    return np.asarray(edges)


def periodic_nodes(count):
    """Uniform angular grid on [0, 2*pi); the matching weight is 2*pi/count."""
    theta = np.arange(count) * (2.0 * pi / count)
    return theta, 2.0 * pi / count


def csum(values):
    """Compensated sum of a complex array in flat index order."""
    flat = np.ravel(np.asarray(values))
    return complex(fsum(flat.real.tolist()), fsum(flat.imag.tolist()))


def refine(levels, evaluate, tol, rel_tol):
    """Evaluate ``levels`` in order until two consecutive values agree.

    Returns (value, increment) for the first level at which every entry of the
    value (a number or an array) moved by at most max(tol, rel_tol * |entry|);
    raises QuadratureFailure with the largest last increment when none does.
    """
    previous = None
    for level in levels:
        value = evaluate(level)
        if previous is not None:
            increment = abs(value - previous)
            if np.all(increment <= np.maximum(tol, rel_tol * abs(value))):
                return value, increment
        previous = value
    raise QuadratureFailure(
        f"quadrature did not settle below {tol:.3e} (last increment {np.max(increment):.3e})"
    )


def bump(x):
    """Smooth transition: 1 for x <= 0, 0 for x >= 1, C-infinity between."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[x <= 0.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    if np.any(mid):
        y = x[mid]
        with np.errstate(over="ignore", under="ignore"):
            a = np.exp(-1.0 / y)
            b = np.exp(-1.0 / (1.0 - y))
        out[mid] = b / (a + b)
    return out
