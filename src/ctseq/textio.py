"""Expression parsing and printing for Laurent polynomials, plus the
built-in example polynomials and the JSON classification record.

Grammar (whitespace insignificant)::

    poly   := term (('+'|'-') term)*
    term   := ['-'] factor (('*'|'/') factor)*
    factor := integer | variable ['^' signed-integer] | '(' poly ')'
    variable := 'x' | 'y' | 'z' | 'x' digits

Division is only a Laurent shift: the divisor must reduce to a single
monomial with coefficient 1 or -1.  The names x, y, z address the first
three variable axes; x1, x2, ... address axes by index.  Mixing y or z
with indexed names is rejected.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .laurent import LaurentPoly


# name -> (P, Q) expression pair
PRESETS = {
    "pascal": ("x^-1 + x", "1"),
    "catalan": ("x^-1 + 2 + x", "1 - x"),
    "motzkin": ("x^-1 + 1 + x", "1 - x^2"),
    "trinomial": ("x^-1 + 1 + x", "1"),
    "apery": ("(1+x)*(1+y)*(1+z)*(1+y+z+y*z+x*y*z)/(x*y*z)", "1"),
}


def preset(name):
    """The (P, Q) pair for a named preset, as exact integer polynomials."""
    try:
        p_text, q_text = PRESETS[name]
    except KeyError:
        raise KeyError("unknown preset %r (have %s)" % (name, ", ".join(sorted(PRESETS))))
    p = parse_poly(p_text)
    q = parse_poly(q_text)
    nvars = max(p.nvars, q.nvars)
    return _widen(p, nvars), _widen(q, nvars)


def _widen(poly, nvars):
    """Re-embed into a ring with more variables (extra exponents zero)."""
    if poly.nvars == nvars:
        return poly
    pad = (0,) * (nvars - poly.nvars)
    return LaurentPoly(nvars, {e + pad: c for e, c in poly.terms.items()}, poly.modulus)


# ---------------------------------------------------------------------------
# tokenizer / recursive descent
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text):
    tokens = []  # (kind, value, position)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch in "xyz":
            if ch == "x" and i + 1 < n and text[i + 1].isdigit():
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                index = int(text[i + 1 : j])
                if index < 1:
                    raise ParseError("variable index must be >= 1", i)
                tokens.append(("ivar", index, i))
                i = j
            else:
                tokens.append(("var", "xyz".index(ch) + 1, i))
                i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.named_axes = set()  # 'x','y','z' style usage (axis numbers)
        self.indexed = False
        self.max_axis = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[0]), tok[2])
        return tok

    # each production returns {exponent tuple over axes 1..max_axis seen so far}
    # as a dict keyed by variable-axis exponent dicts; to keep arity flexible
    # until the end, terms are {frozen exponent mapping: coeff}

    def parse(self):
        acc = self.poly()
        tok = self.take()
        if tok[0] != "end":
            raise ParseError("trailing input", tok[2])
        nvars = max(self.max_axis, 1)
        terms = {}
        for emap, c in acc.items():
            exp = [0] * nvars
            for axis, e in emap:
                exp[axis - 1] = e
            key = tuple(exp)
            terms[key] = terms.get(key, 0) + c
        return LaurentPoly(nvars, terms, None)

    def poly(self):
        acc = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            for emap, c in rhs.items():
                if op == "-":
                    c = -c
                acc[emap] = acc.get(emap, 0) + c
        return acc

    def term(self):
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        acc = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            rhs = self.factor()
            if op == "/":
                rhs = self._invert(rhs, pos)
            acc = self._mul(acc, rhs)
        if negate:
            acc = {e: -c for e, c in acc.items()}
        return acc

    def factor(self):
        tok = self.take()
        kind, value, pos = tok
        if kind == "int":
            return {(): value}
        if kind in ("var", "ivar"):
            axis = value
            if kind == "var":
                if self.indexed and axis > 1:
                    raise ParseError("cannot mix y/z with indexed variables", pos)
                if axis > 1:
                    self.named_axes.add(axis)
            else:
                if self.named_axes:
                    raise ParseError("cannot mix y/z with indexed variables", pos)
                self.indexed = True
            self.max_axis = max(self.max_axis, axis)
            exponent = 1
            if self.peek()[0] == "^":
                self.take()
                exponent = self._signed_int()
            if exponent == 0:
                return {(): 1}
            return {((axis, exponent),): 1}
        if kind == "(":
            inner = self.poly()
            self.expect(")")
            return inner
        raise ParseError("expected a factor", pos)

    def _signed_int(self):
        sign = 1
        tok = self.take()
        if tok[0] == "-":
            sign = -1
            tok = self.take()
        if tok[0] != "int":
            raise ParseError("expected an integer exponent", tok[2])
        return sign * tok[1]

    @staticmethod
    def _mul(a, b):
        out = {}
        for ea, ca in a.items():
            da = dict(ea)
            for eb, cb in b.items():
                d = dict(da)
                for axis, e in eb:
                    d[axis] = d.get(axis, 0) + e
                key = tuple(sorted((k, v) for k, v in d.items() if v))
                out[key] = out.get(key, 0) + ca * cb
        return {e: c for e, c in out.items() if c}

    @staticmethod
    def _invert(factor, pos):
        terms = {e: c for e, c in factor.items() if c}
        if len(terms) != 1:
            raise ParseError("division only by a monomial", pos)
        (emap, c), = terms.items()
        if c not in (1, -1):
            raise ParseError("division only by a monomial with coefficient 1 or -1", pos)
        return {tuple((axis, -e) for axis, e in emap): c}


def parse_poly(text):
    """Parse an expression into an exact integer Laurent polynomial."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def variable_names(nvars):
    if nvars <= 3:
        return ["x", "y", "z"][:nvars]
    return ["x%d" % (i + 1) for i in range(nvars)]


def _monomial_text(exponents, names):
    parts = []
    for name, e in zip(names, exponents):
        if e == 0:
            continue
        parts.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(parts)


def format_poly(poly):
    """Canonical text: lexicographic term order, '*' between factors.

    parse_poly(format_poly(A)) == A for every exact integer polynomial.
    """
    if poly.is_zero():
        return "0"
    names = variable_names(poly.nvars)
    pieces = []
    for exponents, c in poly.sorted_terms():
        mono = _monomial_text(exponents, names)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%d*%s" % (mag, mono)
        pieces.append((c < 0, body))
    first_neg, first_body = pieces[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


# ---------------------------------------------------------------------------
# JSON classification record
# ---------------------------------------------------------------------------

VERDICT_KEYS = (
    "p",
    "a",
    "m",
    "window_size",
    "settle_s",
    "reachable_states",
    "zero_witness",
    "linearly_recurrent",
    "recurrence_guaranteed",
    "conjecture_bound",
    "naive_bound_digits",
    "status",
)


def verdict_to_json(verdict):
    """Serialize a classification verdict with a fixed key order."""
    record = {key: getattr(verdict, key) for key in VERDICT_KEYS}
    return json.dumps(record, separators=(", ", ": "))
