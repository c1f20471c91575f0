import random
from fractions import Fraction

import pytest

from mellinops import (
    Algebra,
    GenKind,
    Generator,
    IndexOutOfRange,
    MixedAlgebra,
    OreOperator,
    normalize,
    parse,
)

T, TINV, TH = GenKind.T, GenKind.TINV, GenKind.THETA
S, TAU, TAUINV = GenKind.S, GenKind.TAU, GenKind.TAUINV


def gens(*pairs):
    return [Generator(kind, idx) for kind, idx in pairs]


# -- single-relation rewriting oracle ----------------------------------------
#
# Rewrites one adjacent generator pair using exactly one defining relation
# and returns the equivalent list of (coeff, word) terms.  Words related by
# such a step must normalize identically.

_D_SIDE = {T, TINV, TH}


def rewrite_adjacent(word, i):
    a, b = word[i], word[i + 1]
    head, tail = list(word[:i]), list(word[i + 2 :])

    def out(*terms):
        return [(c, head + mid + tail) for c, mid in terms]

    if a.index == b.index:
        j = a.index
        pair = (a.kind, b.kind)
        if pair == (TH, T):  # th t = t th + t
            return out((1, [Generator(T, j), Generator(TH, j)]), (1, [Generator(T, j)]))
        if pair == (T, TH):  # t th = th t - t
            return out((1, [Generator(TH, j), Generator(T, j)]), (-1, [Generator(T, j)]))
        if pair == (TH, TINV):  # th tinv = tinv th - tinv
            return out((1, [Generator(TINV, j), Generator(TH, j)]), (-1, [Generator(TINV, j)]))
        if pair == (TINV, TH):
            return out((1, [Generator(TH, j), Generator(TINV, j)]), (1, [Generator(TINV, j)]))
        if pair == (S, TAU):  # s tau = tau s - tau
            return out((1, [Generator(TAU, j), Generator(S, j)]), (-1, [Generator(TAU, j)]))
        if pair == (TAU, S):  # tau s = s tau + tau  (i.e. (s+1) tau)
            return out((1, [Generator(S, j), Generator(TAU, j)]), (1, [Generator(TAU, j)]))
        if pair == (S, TAUINV):  # s tauinv = tauinv s + tauinv
            return out((1, [Generator(TAUINV, j), Generator(S, j)]), (1, [Generator(TAUINV, j)]))
        if pair == (TAUINV, S):
            return out((1, [Generator(S, j), Generator(TAUINV, j)]), (-1, [Generator(TAUINV, j)]))
        if pair in ((T, TINV), (TINV, T), (TAU, TAUINV), (TAUINV, TAU)):
            return out((1, []))
    # distinct indices, or cross-side pairs: plain commutation
    return out((1, [b, a]))


def random_word(rng, p, max_len=8):
    kinds = [T, TINV, TH, S, TAU, TAUINV]
    return [Generator(rng.choice(kinds), rng.randint(1, p)) for _ in range(rng.randint(2, max_len))]


def test_normalize_examples():
    # th*t -> t*th + t; the commutation relation itself
    assert normalize([(1, gens((TH, 1), (T, 1)))]) == parse("t*th + t")
    # already normal
    assert normalize([(1, gens((T, 1), (TH, 1)))]) == parse("t*th")
    # th^2*t -> t*th^2 + 2 t*th + t, checked against step-by-step rewriting
    word = gens((TH, 1), (TH, 1), (T, 1))
    target = normalize(rewrite_adjacent(word, 1))  # rewrite the inner th t once
    assert normalize([(1, word)]) == target == parse("t*th^2 + 2*t*th + t")


def test_normalize_uniqueness_under_single_relation_steps():
    rng = random.Random(2024)
    for _ in range(300):
        p = rng.randint(1, 3)
        word = random_word(rng, p)
        i = rng.randrange(len(word) - 1)
        direct = normalize([(1, word)], algebra="Dtilde", arity=p)
        stepped = normalize(
            [(c, w) for c, w in rewrite_adjacent(word, i)], algebra="Dtilde", arity=p
        )
        assert direct == stepped


def test_multiply_examples():
    s, tau = parse("s"), parse("tau")
    assert s * tau == parse("tau*s - tau")
    assert tau * s == parse("tau*s")
    assert parse("th") * parse("t") == parse("t*th + t")


def test_add_negate_examples():
    tth = parse("t*th")
    assert (tth + (-tth)).is_zero()
    assert parse("th") + parse("t") == parse("th + t")
    # the commutator [th, t] = t
    assert parse("th") * parse("t") + (-(parse("t") * parse("th"))) == parse("t")


def test_commutators_multi_variable():
    for p in (2, 3):
        for j in range(1, p + 1):
            th = OreOperator.generator(TH, j, "D", p)
            for k in range(1, p + 1):
                t = OreOperator.generator(T, k, "D", p)
                comm = th * t - t * th
                if j == k:
                    assert comm == t
                else:
                    assert comm.is_zero()


def test_inverses_cancel():
    assert parse("t") * parse("tinv") == parse("1")
    assert parse("tauinv") * parse("tau") == OreOperator.one("S")


def test_associativity_200_random_triples():
    rng = random.Random(5)
    for _ in range(200):
        p = rng.randint(1, 3)
        ops = []
        for _ in range(3):
            terms = [
                (Fraction(rng.randint(-4, 4), rng.randint(1, 3)), random_word(rng, p, 4))
                for _ in range(rng.randint(1, 3))
            ]
            ops.append(normalize(terms, algebra="Dtilde", arity=p))
        a, b, c = ops
        assert (a * b) * c == a * (b * c)


def test_mixed_algebra_errors():
    with pytest.raises(MixedAlgebra):
        normalize([(1, gens((T, 1), (S, 1)))], algebra="D")
    with pytest.raises(MixedAlgebra):
        normalize([(1, gens((T, 1), (TAU, 1)))])  # no combined hint
    with pytest.raises(MixedAlgebra):
        parse("t") * parse("s")
    # the combined algebra accepts both sides
    both = normalize([(1, gens((T, 1), (S, 1)))], algebra="Dtilde")
    assert not both.is_zero()


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        normalize([(1, gens((T, 3),))], arity=2)
    with pytest.raises(IndexOutOfRange):
        OreOperator.generator(T, 5, "D", 2)


def test_scalar_arithmetic_and_power():
    t = parse("t")
    assert 2 * t - t == t
    assert (t + 1) ** 2 == parse("t^2 + 2*t + 1")
    assert t ** 0 == OreOperator.one("D")
