import hashlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellinops import (
    Algebra,
    GenKind,
    Generator,
    MixedAlgebra,
    OreOperator,
    ShiftPolynomial,
    normalize,
    parse,
)
from mellinops.ore import MAX_INDEX, _mono_mul

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


def words(p, max_len=8):
    """Words of 2..max_len generators of both sides in p variables."""
    gens = [Generator(kind, i) for kind in (T, TINV, TH, S, TAU, TAUINV) for i in range(1, p + 1)]
    return st.lists(st.sampled_from(gens), min_size=2, max_size=max_len)


# ints and Fractions, integral ones among them, so that products collect both
COEFFS = st.sampled_from(
    list(range(-4, 5)) + [Fraction(n, d) for n in range(-4, 5) for d in (2, 3)]
)


def exact_scalars(op):
    """Every stored coefficient is an int or a non-integral Fraction."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in op.terms.values())


def operators(p):
    """Sums of one to three coefficient-times-word terms in the combined algebra."""
    terms = st.lists(st.tuples(COEFFS, words(p, 4)), min_size=1, max_size=3)
    return terms.map(lambda t: normalize(t, algebra="Dtilde", arity=p))


# (p, word, position seed) and (a, b, c), in p = 1..3 variables
word_cases = st.one_of([st.tuples(st.just(p), words(p), st.integers(0, 6)) for p in (1, 2, 3)])
triples = st.one_of([st.tuples(operators(p), operators(p), operators(p)) for p in (1, 2, 3)])


def test_normalize_examples():
    # th*t -> t*th + t; the commutation relation itself
    assert normalize([(1, gens((TH, 1), (T, 1)))]) == parse("t*th + t")
    # already normal
    assert normalize([(1, gens((T, 1), (TH, 1)))]) == parse("t*th")
    # th^2*t -> t*th^2 + 2 t*th + t, checked against step-by-step rewriting
    word = gens((TH, 1), (TH, 1), (T, 1))
    target = normalize(rewrite_adjacent(word, 1))  # rewrite the inner th t once
    assert normalize([(1, word)]) == target == parse("t*th^2 + 2*t*th + t")


@settings(max_examples=300, deadline=None, database=None)
@given(word_cases)
def test_normalize_uniqueness_under_single_relation_steps(case):
    p, word, seed = case
    i = seed % (len(word) - 1)
    direct = normalize([(1, word)], algebra="Dtilde", arity=p)
    stepped = normalize(
        [(c, w) for c, w in rewrite_adjacent(word, i)], algebra="Dtilde", arity=p
    )
    assert direct == stepped
    assert exact_scalars(direct)


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
    assert parse("tauinv") * parse("tau") == OreOperator.scalar(1, "S")


@settings(max_examples=200, deadline=None, database=None)
@given(triples)
def test_associativity_200_random_triples(ops):
    a, b, c = ops
    left = (a * b) * c
    assert left == a * (b * c)
    assert all(exact_scalars(op) for op in (a, b, c, a * b, left))


# -- composition oracle -------------------------------------------------------
#
# Operators act on sums of t^n F(s), stored as {n: ShiftPolynomial F}: per
# variable, t^a th^b tau^c s^d sends t^n F(s) to n^b t^(n+a) (s+c)^d F(s+c).
# The action is evaluated term by term and never multiplies two operators.


def int_tuples(p, lo, hi):
    return st.tuples(*[st.integers(lo, hi)] * p)


def normal_operators(algebra, p):
    """One to three normal-form terms, built from flat keys: t^a th^b in D,
    tau^c s^d in S, and t^a th^b tau^c s^d in the combined algebra."""
    half = [st.integers(-2, 2)] * p + [st.integers(0, 2)] * p
    key = st.tuples(*half * (2 if algebra == "Dtilde" else 1))
    terms = st.dictionaries(key, COEFFS, min_size=1, max_size=3)
    return terms.map(lambda t: OreOperator(algebra, p, t))


def vectors(p):
    """One or two t^n F(s), with halves and thirds among the coefficients of F."""
    polys = st.dictionaries(int_tuples(p, 0, 2), COEFFS, min_size=1, max_size=3)
    polys = polys.map(lambda t: ShiftPolynomial(p, t)).filter(bool)
    return st.dictionaries(int_tuples(p, -3, 3), polys, min_size=1, max_size=2)


def split_key(op, key):
    """(a, b, c, d) of a flat key: its t, th, tau and s entries, with zeros for
    the side that its algebra does not have."""
    p, z = op.arity, (0,) * (2 * op.arity)
    key = {"D": key + z, "S": z + key, "Dtilde": key}[op.algebra.value]
    return key[:p], key[p:2 * p], key[2 * p:3 * p], key[3 * p:]


def act(op, vec):
    weights = {}  # (n, a, c, d): the sum of x n^b over the terms x t^a th^b tau^c s^d
    for key, x in op.terms.items():
        a, b, c, d = split_key(op, key)
        for n in vec:
            w = x * math.prod(u ** v for u, v in zip(n, b))
            weights[n, a, c, d] = weights.get((n, a, c, d), 0) + w
    out = {}
    for (n, a, c, d), w in weights.items():
        g = ShiftPolynomial(op.arity, {d: w}) * vec[n]
        for j, steps in enumerate(c, start=1):
            g = g.shift(j, steps)
        m = tuple(u + v for u, v in zip(n, a))
        out[m] = g + out.get(m, 0)
    return {m: g for m, g in out.items() if g}


# one-sided operators too: a D or S product works on its own half of each key
product_cases = st.one_of([
    st.tuples(normal_operators(algebra, p), normal_operators(algebra, p), vectors(p))
    for algebra in ("Dtilde", "D", "S") for p in (1, 2, 3)
])


@settings(max_examples=240, deadline=None, database=None)
@given(product_cases)
def test_products_act_as_compositions(case):
    x, y, vec = case
    assert act(x * y, vec) == act(x, act(y, vec))
    assert act(y * x, vec) == act(y, act(x, vec))
    assert exact_scalars(x * y) and exact_scalars(y * x)


def test_product_rows_are_one_variable_and_cached():
    # (x + 3)^2 x = x^3 + 6x^2 + 9x; a zero weight drops
    assert _mono_mul(2, 3, 1) == ((1, 9), (2, 6), (3, 1))
    assert _mono_mul(2, 0, 1) == ((3, 1),)
    _mono_mul.cache_clear()
    parse("(th_1 + t_2 + th_3 + t_1)^4 * (t_1 + tinv_3 + th_2)^3")
    info = _mono_mul.cache_info()
    assert info.maxsize is None and 0 < info.currsize < 100


def test_arithmetic_builds_no_validated_operator(monkeypatch):
    # operands are already clean, so results skip the validating constructor
    x, y = parse("th^2 + 1/2*t"), parse("3*t*th - tinv")
    init, calls = OreOperator.__init__, []

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(OreOperator, "__init__", counting_init)
    results = [x * y, x + y, x - y, -x, x.scale(Fraction(2, 3))]
    assert calls == []
    monkeypatch.undo()
    assert results[0] == parse("(th^2 + 1/2*t) * (3*t*th - tinv)")


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
    with pytest.raises(MixedAlgebra, match=r"^index 3 not in 1\.\.2$"):
        normalize([(1, gens((T, 3),))], arity=2)
    with pytest.raises(MixedAlgebra, match=r"^index 5 not in 1\.\.2$"):
        OreOperator.generator(T, 5, "D", 2)
    with pytest.raises(MixedAlgebra, match=r"^index 0 not in 1\.\.2$"):
        OreOperator.generator(T, 0, "D", 2)
    with pytest.raises(MixedAlgebra, match=r"^index 0 not in 1\.\.0$"):
        OreOperator.generator(TAU, 0)


def test_a_product_costs_linear_time_in_the_arity():
    # one untransported row per variable: collected once, not re-concatenated
    p = 30000
    th, t = OreOperator.generator(TH, p), OreOperator.generator(T, p)
    start = time.perf_counter()
    product = th * t
    elapsed = time.perf_counter() - start
    assert str(product) == f"t_{p}*th_{p} + t_{p}"
    assert elapsed < 1.0


@pytest.mark.parametrize("algebra, p, key", [
    ("D", 1, (0,)),                              # too short
    ("S", 1, (0, 0, 0)),                         # too long
    ("Dtilde", 2, (0,) * 4),                     # the length of p = 1
    ("D", 1, ((0,), (0,), (0,), (0,))),          # one nested tuple per slot
    ("Dtilde", 1, ((0,), (0,), (0,), (0,))),     # nested, of the right length
    ("Dtilde", 2, ((0, 0),) * 4),
    ("D", 1, (1.0, 0)),                          # entries that are not ints
    ("S", 1, (0, Fraction(1))),
    ("Dtilde", 1, (0, 0, True, 0)),
    ("D", 1, (0, -1)),                           # a negative th degree
    ("S", 2, (0, 0, 0, -1)),                     # a negative s degree
    ("Dtilde", 1, (0, -1, 0, 0)),
    ("Dtilde", 1, (0, 0, 0, -1)),
])
def test_the_constructor_takes_flat_keys_of_its_algebra_only(algebra, p, key):
    with pytest.raises((ValueError, TypeError)):
        OreOperator(algebra, p, {key: 1})


def test_keys_round_trip_through_the_constructor():
    # D keys are (t, th), S keys (tau, s), combined keys (t, th, tau, s)
    assert parse("3*tinv_2*th_1^2").terms == {(0, -1, 2, 0): 3}
    assert parse("tau*s^2").terms == {(1, 2): 1}
    assert parse("s_1*t_2*th_1", algebra="Dtilde").terms == {(0, 1, 1, 0, 0, 0, 1, 0): 1}
    for P in (parse("(th_1 + t_2 - 1/2*tinv_1)^3"), parse("(s - 1/3*tauinv)^2*tau"),
              parse("(t*s + th*tau)^2 - tinv", algebra="Dtilde")):
        assert OreOperator(P.algebra, P.arity, P.terms) == P
    with pytest.raises(ValueError):
        OreOperator("D", MAX_INDEX + 1, {})


def test_generator_infers_its_algebra():
    assert OreOperator.generator(TH, 2).algebra is Algebra.D
    assert OreOperator.generator(TH, 2).arity == 2
    assert OreOperator.generator(TAUINV).algebra is Algebra.S
    assert OreOperator.generator(S, 1, "Dtilde", 3).arity == 3
    with pytest.raises(MixedAlgebra, match="^s is not a D generator$"):
        OreOperator.generator(S, 1, "D")
    with pytest.raises(MixedAlgebra, match="^th is not an S generator$"):
        OreOperator.generator(TH, 1, "S")


def test_scalar_arithmetic_and_power():
    t = parse("t")
    assert 2 * t - t == t
    assert (t + 1) ** 2 == parse("t^2 + 2*t + 1")
    assert t ** 0 == 1


# -- term order ----------------------------------------------------------------
#
# The residual sums of verify and the annihilation guard add an operator's
# terms in their insertion order, so a product must insert its terms in one
# fixed order: left term outside, right term inside, each expansion in row
# order.  The other pins sort the terms; this one hashes them as stored.

PIN_KINDS = {"D": (T, TINV, TH), "S": (TAU, TAUINV, S), "Dtilde": (T, TINV, TH, TAU, TAUINV, S)}
PIN_COEFFS = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3),
              Fraction(3, 2))


def pinned_products():
    """About 300 products and powers from a seeded table of sums of one- and
    two-generator words, in D, S and Dtilde at p = 1..3."""
    rng = random.Random(38)
    for algebra, kinds in PIN_KINDS.items():
        for p in (1, 2, 3):
            gens = [OreOperator.generator(kind, j, algebra, p) for kind in kinds for j in range(1, p + 1)]

            def draw():
                total = OreOperator.zero(algebra, p)
                for _ in range(rng.randint(2, 4)):
                    word = math.prod(rng.sample(gens, rng.randint(1, 2)), start=OreOperator.scalar(1, algebra, p))
                    total = total + word * rng.choice(PIN_COEFFS)
                return total

            for _ in range(4):
                x, y, z = draw(), draw(), draw()
                yield x * y
                yield y * x
                yield x ** rng.randint(2, 4)
                yield (x * y) * z - x * (y * z)  # cancels to zero
                yield (x + y) * (x - y)  # cancels the squares' cross terms in part
                yield x * OreOperator.zero(algebra, p)
                yield (x * y) ** 2 * z
                yield z ** 3 * (y - x)
                yield x * y * z


def test_products_insert_their_terms_in_a_pinned_order():
    digest, count = hashlib.sha256(), 0
    for P in pinned_products():
        digest.update(repr(list(P.terms.items())).encode())
        count += 1
    assert count == 324
    assert digest.hexdigest() == "d6564f14c8e0b5463a2cf0bacae8da630ca802adcd93d49873db540f1289c1f8"
