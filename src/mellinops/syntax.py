"""Text syntax for operators: tokenizer, parser, canonical printer.

Grammar (whitespace ignored; '*' is noncommutative and order-preserving):

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := generator | rational | '(' expr ')'

Generators are ``t``, ``tinv``, ``th`` (the Euler operator t*d/dt), ``s``,
``tau``, ``tauinv``, with an underscore index suffix for several variables
(``t_2``, ``tau_3``); the suffix may be omitted when p = 1.  ``Dt`` is a
convenience token for the plain derivative d/dt and expands to tinv*th.
Rational literals look like ``5`` or ``3/2``.  An exponent is at most
``MAX_EXPONENT`` (1000), since a power is that many products; a larger one is
a parse error at the exponent.  So is an integer with more digits than
Python's ``int`` converts (``sys.get_int_max_str_digits()``, 4300 by
default), at its token.  Parse errors carry the byte offset of the offending
token.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .ore import SLOTS, GenKind, OreOperator, resolve_algebra

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<gen>(?:tauinv|tinv|tau|th|t|s|Dt)(?:_(?P<idx>\d+))?)
  | (?P<rat>\d+(?:/\d+)?)
  | (?P<op>[-+*^()])
    """,
    re.VERBOSE,
)

MAX_EXPONENT = 1000


def _integer(text, offset):
    """int(text), or a ParseError at offset where text has too many digits."""
    try:
        return int(text)
    except ValueError:
        raise ParseError("integer literal too long", offset) from None


class _Token:
    __slots__ = ("kind", "text", "index", "offset")

    def __init__(self, kind, text, index, offset):
        self.kind = kind
        self.text = text
        self.index = index
        self.offset = offset

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}@{self.offset})"


def _byte_offset(text, pos):
    return len(text[:pos].encode("utf-8"))


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", _byte_offset(text, pos))
        if m.lastgroup != "ws" and not m.group("ws"):
            offset = _byte_offset(text, pos)
            if m.group("gen"):
                name = m.group("gen")
                idx = m.group("idx")
                base = name.split("_")[0]
                # reject things like "tx" or "t2": the generator must not be
                # glued to more identifier characters
                end = m.end()
                if end < len(text) and (text[end].isalnum() or text[end] == "_"):
                    raise ParseError(f"malformed symbol near {name!r}", offset)
                index = _integer(idx, offset) if idx else None
                tokens.append(_Token("gen", base, index, offset))
            elif m.group("rat"):
                tokens.append(_Token("rat", m.group("rat"), None, offset))
            else:
                tokens.append(_Token(m.group("op"), m.group("op"), None, offset))
        pos = m.end()
    tokens.append(_Token("end", "", None, _byte_offset(text, len(text))))
    return tokens


class _Parser:
    def __init__(self, tokens, algebra, arity):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra
        self.arity = arity

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.offset)
        self.pos += 1
        return tok

    def parse_expr(self):
        negate = self.peek().kind in ("+", "-") and self.take().kind == "-"
        total = self.parse_term()
        if negate:
            total = -total
        while self.peek().kind in ("+", "-"):
            if self.take().kind == "+":
                total = total + self.parse_term()
            else:
                total = total - self.parse_term()
        return total

    def parse_term(self):
        out = self.parse_factor()
        while self.peek().kind == "*":
            self.take()
            out = out * self.parse_factor()
        return out

    def parse_factor(self):
        atom = self.parse_atom()
        if self.peek().kind == "^":
            self.take()
            tok = self.take("rat")
            if "/" in tok.text:
                raise ParseError("exponent must be a natural number", tok.offset)
            n = _integer(tok.text, tok.offset)
            if n > MAX_EXPONENT:
                raise ParseError(f"exponent above {MAX_EXPONENT}", tok.offset)
            return atom ** n
        return atom

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "gen":
            self.take()
            index = tok.index if tok.index is not None else 1
            if tok.text == "Dt":
                return OreOperator.generator(
                    GenKind.TINV, index, self.algebra, self.arity
                ) * OreOperator.generator(GenKind.THETA, index, self.algebra, self.arity)
            return OreOperator.generator(GenKind(tok.text), index, self.algebra, self.arity)
        if tok.kind == "rat":
            self.take()
            try:
                value = Fraction(tok.text)
            except ZeroDivisionError:
                raise ParseError("zero denominator", tok.offset) from None
            except ValueError:  # a numerator or denominator with too many digits
                raise ParseError("integer literal too long", tok.offset) from None
            return OreOperator.scalar(value, self.algebra, self.arity)
        if tok.kind == "(":
            self.take()
            inner = self.parse_expr()
            self.take(")")
            return inner
        raise ParseError(f"expected an atom, found {tok.text or 'end of input'!r}", tok.offset)


def parse(text, algebra=None, arity=None):
    """Parse operator text into normal form.

    The algebra is inferred from the generators present when no hint is
    given; mixing the two sides without the combined-algebra hint raises
    MixedAlgebra.  The arity defaults to the largest index seen.
    """
    tokens = tokenize(text)
    kinds = set()
    max_index = 1
    for tok in tokens:
        if tok.kind == "gen":
            if tok.text == "Dt":
                kinds.add(GenKind.TINV)
            else:
                kinds.add(GenKind(tok.text))
            if tok.index is not None:
                max_index = max(max_index, tok.index)
    algebra, arity = resolve_algebra(kinds, max_index, algebra, arity)

    parser = _Parser(tokens, algebra, arity)
    out = parser.parse_expr()
    end = parser.take()
    if end.kind != "end":
        raise ParseError(f"trailing input {end.text!r}", end.offset)
    return out


# -- canonical printing ------------------------------------------------------

def _place_names(algebra, arity):
    """Each key place's generator name, for a positive and for a negative
    entry; a degree, never negative, has its one name twice."""
    suffixes = [f"_{j}" if arity > 1 else "" for j in range(1, arity + 1)]
    return [(up.value + x, down.value + x)
            for exponent, inverse, degree, _ in SLOTS[algebra]
            for up, down in ((exponent, inverse), (degree, degree)) for x in suffixes]


def _format_monomial(key, names):
    parts = []
    for (up, down), e in zip(names, key):
        if e:
            name = up if e > 0 else down
            parts.append(name if -1 <= e <= 1 else f"{name}^{abs(e)}")
    return "*".join(parts)


def format_operator(P):
    """Deterministic canonical text; ``parse(format_operator(P)) == P`` while
    no exponent of P exceeds ``MAX_EXPONENT``."""
    if P.is_zero():
        return "0"
    names = _place_names(P.algebra, P.arity)
    pieces = []
    for key in sorted(P.terms, reverse=True):
        text = str(P.terms[key])  # a minus sign, if any, then the magnitude
        sign, mag = ("-", text[1:]) if text[0] == "-" else ("+", text)
        mono = _format_monomial(key, names)
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append((sign, body))
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
