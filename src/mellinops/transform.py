"""The exponent-to-shift algebra isomorphism and the difference-side action.

The isomorphism sends t_j to tau_j and the Euler operator th_j to -s_j; on
normal monomials t^a th^b it acts by t^a th^b -> tau^a (-s)^b, extended
linearly, with the inverse mapping tau^c s^d -> t^c (-th)^d.  The action
convention for difference operators on functions of s is pinned by the
classical pairing F(s) = integral over the positive ray of f(t) t^(s-1) dt,
under which the image of an operator annihilating f annihilates F.
(Monodromy convention, recorded once: the deck transformation of the shift
cover corresponds to multiplication by the inverse torus coordinate
e^{2i*pi*s}.)
"""

from __future__ import annotations

from .errors import MixedAlgebra, QuadratureFailure
from .ore import Algebra, OreOperator


def _flipped(P, algebra):
    """P's terms on unchanged keys as an operator of ``algebra``, each
    coefficient times (-1)^(the sum of its key's degrees).  P is clean, so the
    result is built trusted."""
    p = P.arity
    return OreOperator.zero(algebra, p)._like(
        {key: -c if sum(key[p:]) % 2 else c for key, c in P.terms.items()})


def mellin_op(P):
    """Image in the difference algebra of a torus-side operator: a D key
    (t, th) is the S key (tau, s) of its image."""
    if P.algebra is not Algebra.D:
        raise MixedAlgebra("forward transform expects a D operator")
    return _flipped(P, Algebra.S)


def inverse_mellin_op(Q):
    """Two-sided inverse of :func:`mellin_op`."""
    if Q.algebra is not Algebra.S:
        raise MixedAlgebra("inverse transform expects an S operator")
    return _flipped(Q, Algebra.D)


def apply_difference(Q, F, s):
    """Evaluate (Q.F)(s); the sum of :func:`apply_difference_terms`."""
    return sum(apply_difference_terms(Q, F, s), 0j)


def apply_difference_terms(Q, F, s):
    """Each normal monomial's contribution to (Q.F)(s), in term order.

    tau acts by (tau F)(s) = F(s+1) and s by pointwise multiplication, so the
    normal monomial tau^a s^b (multiply by s^b first, then shift) contributes
    (s+a)^b F(s+a).  For several variables, shifts and multiplications apply
    per index and F takes the coordinate tuple.  Residual reports use the
    parts to set a relative scale.
    """
    if Q.algebra is not Algebra.S:
        raise MixedAlgebra("difference action expects an S operator")
    p = Q.arity
    scalar_mode = p == 1 and not isinstance(s, (tuple, list))
    point = (s,) if scalar_mode else tuple(s)
    if len(point) != p:
        raise ValueError(f"expected {p} coordinates, got {len(point)}")

    out = []
    for key, coeff in Q.terms.items():
        c, d = key[:p], key[p:]
        shifted = tuple(z + cj for z, cj in zip(point, c))
        weight = complex(coeff)
        for z, cj, dj in zip(point, c, d):
            if dj:
                weight *= (z + cj) ** dj
        try:
            value = F(shifted[0]) if scalar_mode else F(shifted)
        except Exception as exc:  # noqa: BLE001 - surface as the contract error
            raise QuadratureFailure(f"grid function failed at {shifted}: {exc}") from exc
        if value is None:
            raise QuadratureFailure(f"grid function returned nothing at {shifted}")
        value = complex(value)
        if value != value:  # NaN
            raise QuadratureFailure(f"grid function returned NaN at {shifted}")
        out.append(weight * value)
    return out
