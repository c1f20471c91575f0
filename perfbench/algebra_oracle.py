"""Independent meaning of operator text, for checking `transform` and `parse`.

An operator is read as a composition of generators and evaluated with sympy's
sparse polynomial rings, without any mellinops code:

* torus side (t, tinv, th) acting on the test monomial t^m with symbolic
  exponents m: P(t^m) = sum_a c_a(m) t^(m+a), where t_j shifts a, tinv_j
  shifts it back and th_j (the Euler operator) multiplies by m_j + a_j;
* shift side (tau, tauinv, s) acting on a generic function F of s:
  (Q F)(s) = sum_a c_a(s) F(s+a), with (tau_j F)(s) = F(s + e_j) and s_j a
  multiplier.

Both actions are faithful, so two texts denote the same operator exactly when
their state dictionaries {a: c_a} agree.  The exponent-to-shift map sends
t -> tau, tinv -> tauinv and th -> -s.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from sympy.polys.domains import QQ
from sympy.polys.rings import ring

D_GENS = ("t", "tinv", "th")
S_GENS = ("tau", "tauinv", "s")
_TO_S = {"t": ("tau", 1), "tinv": ("tauinv", 1), "th": ("s", -1)}
_TO_D = {"tau": ("t", 1), "tauinv": ("tinv", 1), "s": ("th", -1)}

# A sum is a tuple of (Fraction coefficient, word); a word is a tuple of
# (generator name, variable index) read left to right as a product.


@lru_cache(maxsize=None)
def _ring(p):
    R, *xs = ring(",".join(f"x{j}" for j in range(1, p + 1)), QQ)
    return R, tuple(xs)


def _bump(a, j, step):
    return a[:j] + (a[j] + step,) + a[j + 1:]


def _add_into(out, key, value):
    total = out.get(key)
    total = value if total is None else total + value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def _left_mul_d(state, name, j, xs):
    """Apply one torus-side generator to P(t^m), i.e. multiply on the left."""
    j -= 1
    if name == "t":
        return {_bump(a, j, 1): c for a, c in state.items()}
    if name == "tinv":
        return {_bump(a, j, -1): c for a, c in state.items()}
    if name == "th":
        out = {}
        for a, c in state.items():
            _add_into(out, a, c * (xs[j] + a[j]))
        return out
    raise ValueError(f"{name} is not a torus-side generator")


def _right_mul_s(state, name, j, xs):
    """Multiply sum_a c_a(s) tau^a on the right by one shift-side generator."""
    j -= 1
    if name == "tau":
        return {_bump(a, j, 1): c for a, c in state.items()}
    if name == "tauinv":
        return {_bump(a, j, -1): c for a, c in state.items()}
    if name == "s":
        # tau^a s_j = (s_j + a_j) tau^a
        out = {}
        for a, c in state.items():
            _add_into(out, a, c * (xs[j] + a[j]))
        return out
    raise ValueError(f"{name} is not a shift-side generator")


def _apply_sum(state, terms, side, xs):
    out = {}
    for coeff, word in terms:
        part = state
        if side == "D":
            for name, j in reversed(word):
                part = _left_mul_d(part, name, j, xs)
        else:
            for name, j in word:
                part = _right_mul_s(part, name, j, xs)
        for a, c in part.items():
            _add_into(out, a, c * QQ(coeff.numerator, coeff.denominator))
    return out


def action(factors, side, p):
    """State dictionary of the product of ``factors`` = ((terms, power), ...)."""
    R, xs = _ring(p)
    state = {(0,) * p: R.one}
    chain = [terms for terms, power in factors for _ in range(power)]
    if side == "D":  # act on t^m: the rightmost factor acts first
        chain.reverse()
    for terms in chain:
        state = _apply_sum(state, terms, side, xs)
    return state


def map_side(factors, target):
    """Image of an expression under t->tau, th->-s (or back, for target 'D')."""
    table = _TO_S if target == "S" else _TO_D
    out = []
    for terms, power in factors:
        mapped = []
        for coeff, word in terms:
            sign = 1
            new_word = []
            for name, j in word:
                new_name, factor = table[name]
                sign *= factor
                new_word.append((new_name, j))
            mapped.append((coeff * sign, tuple(new_word)))
        out.append((tuple(mapped), power))
    return tuple(out)


_PIECE_RE = re.compile(r"^([a-z]+)(?:_(\d+))?(?:\^(\d+))?$")


def read_printed(text, p):
    """Terms of the canonical printer's output ``c*g^e*... + ...``."""
    text = text.strip()
    if text == "0":
        return ()
    terms = []
    for chunk in re.split(r" (?=[+-] )", text):
        sign = 1
        if chunk.startswith("- "):
            sign, chunk = -1, chunk[2:]
        elif chunk.startswith("+ "):
            chunk = chunk[2:]
        elif chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        coeff = Fraction(sign)
        word = []
        for piece in chunk.split("*"):
            if piece[0].isdigit():
                coeff *= Fraction(piece)
                continue
            m = _PIECE_RE.match(piece)
            if not m:
                raise ValueError(f"unreadable factor {piece!r} in {text!r}")
            name, idx, power = m.groups()
            if (idx is None) != (p == 1):
                raise ValueError(f"index suffix of {piece!r} does not fit arity {p}")
            word += [(name, int(idx or 1))] * int(power or 1)
        terms.append((coeff, tuple(word)))
    return tuple(terms)


def printed_matches(printed, factors, expr_side, out_side, p):
    """True when the printed operator equals the (mapped) input expression."""
    if expr_side != out_side:
        factors = map_side(factors, out_side)
    expected = action(factors, out_side, p)
    got = action(((read_printed(printed, p), 1),), out_side, p)
    return got == expected
