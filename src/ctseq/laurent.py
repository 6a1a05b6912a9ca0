"""Sparse Laurent polynomial arithmetic over Z and Z/mZ.

Polynomials are stored as a mapping from exponent vectors (tuples of r
signed integers) to nonzero coefficients.  When a modulus m is set,
coefficients are kept reduced to [0, m); otherwise they are exact
integers.  Values are immutable after construction, so they can be
hashed, used as automaton state keys, and shared across threads.
"""

from __future__ import annotations

from .errors import ResourceLimitError, RingMismatchError

# Abort limit for the number of terms a single product may produce.
DEFAULT_TERM_GUARD = 10**7


class LaurentPoly:
    """A Laurent polynomial in ``nvars`` variables.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero
    coefficients.  ``modulus`` is either None (exact integers) or an
    integer >= 2, in which case coefficients are canonical residues.
    """

    __slots__ = ("nvars", "modulus", "terms", "_hash")

    def __init__(self, nvars, terms=None, modulus=None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if modulus is not None and modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.nvars = nvars
        self.modulus = modulus
        clean = {}
        if terms:
            for exp, c in terms.items():
                if len(exp) != nvars:
                    raise RingMismatchError(
                        "exponent vector %r has length %d, expected %d"
                        % (exp, len(exp), nvars)
                    )
                if modulus is not None:
                    c %= modulus
                if c:
                    clean[tuple(exp)] = c
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars, modulus=None):
        return cls(nvars, {}, modulus)

    @classmethod
    def one(cls, nvars, modulus=None):
        return cls.constant(nvars, 1, modulus)

    @classmethod
    def constant(cls, nvars, value, modulus=None):
        return cls(nvars, {(0,) * nvars: value}, modulus)

    @classmethod
    def monomial(cls, nvars, exponents, coefficient=1, modulus=None):
        return cls(nvars, {tuple(exponents): coefficient}, modulus)

    # -- ring bookkeeping ---------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, LaurentPoly):
            raise RingMismatchError("expected a LaurentPoly, got %r" % (other,))
        if self.nvars != other.nvars:
            raise RingMismatchError(
                "variable counts differ: %d vs %d" % (self.nvars, other.nvars)
            )
        if self.modulus != other.modulus:
            raise RingMismatchError(
                "coefficient rings differ: %r vs %r" % (self.modulus, other.modulus)
            )

    def with_modulus(self, modulus):
        """The same polynomial with coefficients reduced mod ``modulus``;
        itself when it already carries that modulus."""
        if modulus == self.modulus:
            return self
        return LaurentPoly(self.nvars, self.terms, modulus)

    def lift(self):
        """Forget the modulus, keeping the stored representatives."""
        return LaurentPoly(self.nvars, self.terms, None)

    # -- inspection ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def coeff(self, exponents):
        """Coefficient at the given exponent vector (0 if absent)."""
        exponents = tuple(exponents)
        if len(exponents) != self.nvars:
            raise RingMismatchError(
                "exponent vector has length %d, expected %d"
                % (len(exponents), self.nvars)
            )
        return self.terms.get(exponents, 0)

    def ct(self):
        """The constant term, i.e. the coefficient at the zero vector."""
        return self.terms.get((0,) * self.nvars, 0)

    def degree(self):
        """Largest absolute value of any exponent entry; 0 for constants."""
        deg = 0
        for exp in self.terms:
            for e in exp:
                if e > deg:
                    deg = e
                elif -e > deg:
                    deg = -e
        return deg

    def canonical_key(self):
        """Hashable identity: ring data plus sorted terms."""
        return (self.nvars, self.modulus, tuple(sorted(self.terms.items())))

    def sorted_terms(self):
        """Terms in ascending lexicographic exponent order."""
        return sorted(self.terms.items())

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        mod = self.modulus
        for exp, c in other.terms.items():
            v = terms.get(exp, 0) + c
            if mod is not None:
                v %= mod
            if v:
                terms[exp] = v
            elif exp in terms:
                del terms[exp]
        out = LaurentPoly.__new__(LaurentPoly)
        out.nvars, out.modulus, out.terms, out._hash = self.nvars, mod, terms, None
        return out

    def __neg__(self):
        mod = self.modulus
        terms = {e: (-c if mod is None else (-c) % mod) for e, c in self.terms.items()}
        return LaurentPoly(self.nvars, terms, mod)

    def __sub__(self, other):
        return self + (-other)

    def mul(self, other, term_guard=None):
        """Convolution product; aborts if the result exceeds the term guard."""
        self._check_compatible(other)
        if term_guard is None:
            term_guard = DEFAULT_TERM_GUARD
        mod = self.modulus
        # iterate over the smaller factor on the outside
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms = {}
        r = self.nvars
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(ea[i] + eb[i] for i in range(r))
                v = terms.get(e, 0) + ca * cb
                if mod is not None:
                    v %= mod
                if v:
                    terms[e] = v
                elif e in terms:
                    del terms[e]
            if len(terms) > term_guard:
                raise ResourceLimitError(
                    "product exceeds %d terms" % term_guard
                )
        out = LaurentPoly.__new__(LaurentPoly)
        out.nvars, out.modulus, out.terms, out._hash = self.nvars, mod, terms, None
        return out

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return self.mul(other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        mod = self.modulus
        if mod is not None:
            c %= mod
        if c == 0:
            return LaurentPoly.zero(self.nvars, mod)
        terms = {}
        for e, v in self.terms.items():
            w = v * c
            if mod is not None:
                w %= mod
            if w:
                terms[e] = w
        return LaurentPoly(self.nvars, terms, mod)

    def pow(self, n, term_guard=None):
        """n-th power by repeated squaring, reducing at every step."""
        if n < 0:
            raise ValueError("negative exponent")
        result = LaurentPoly.one(self.nvars, self.modulus)
        base = self
        while n:
            if n & 1:
                result = result.mul(base, term_guard)
            n >>= 1
            if n:
                base = base.mul(base, term_guard)
        return result

    def __pow__(self, n):
        return self.pow(n)

    # -- structural operators --------------------------------------------

    def lambda_k(self, k):
        """Keep terms with all exponents divisible by k, dividing them by k."""
        if k < 1:
            raise ValueError("section index must be >= 1")
        if k == 1:
            return self
        terms = {}
        for e, c in self.terms.items():
            for x in e:
                if x % k:
                    break
            else:
                terms[tuple(x // k for x in e)] = c
        return LaurentPoly(self.nvars, terms, self.modulus)

    def dilate(self, k):
        """Substitute x_i -> x_i^k for every variable."""
        if k < 1:
            raise ValueError("dilation factor must be >= 1")
        if k == 1:
            return self
        terms = {tuple(x * k for x in e): c for e, c in self.terms.items()}
        return LaurentPoly(self.nvars, terms, self.modulus)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.modulus == other.modulus
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.canonical_key())
        return self._hash

    def __repr__(self):
        from .textio import format_poly

        ring = "Z" if self.modulus is None else "Z/%d" % self.modulus
        return "<LaurentPoly %s over %s>" % (format_poly(self), ring)
