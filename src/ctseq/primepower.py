"""Reduction of mod-p^a sequences to a stable base polynomial.

Write B = p^(a-1).  The B-th power of P mod p^a always has the shape
R = T(x^(p^ell)) for a polynomial T that commutes with the digit
machinery mod p^a (raising T to the p-th power equals substituting
x -> x^p).  Splitting an index n' as B*n + k with 0 <= k < B gives

    ct(P^n' Q) = ct(T^n * section_{p^ell}(P^k Q))   (mod p^a),

so one matrix family for T plus B coding rows reproduces the whole
sequence.  With a = 1 everything degenerates to the plain machinery.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from ._dense import DenseChain, _box, power_mod
from .errors import ResourceLimitError, RingMismatchError
from .laurent import LaurentPoly
from .linrep import LinRep, build_index, check_window, digits_lsd
from .morphism import MorphicStream
from .reduced import valuation

DEFAULT_BLOCK_CAP = 2**16
# indices evaluated together by TildeReduction.terms
_TERMS_CHUNK = 256


# ---------------------------------------------------------------------------
# the reduction
# ---------------------------------------------------------------------------


def reduce_p_tilde(P, p, a):
    """The stable base for P mod p^a, as (polynomial, ell).

    Computes R = P^(p^(a-1)) mod p^a and divides every exponent by the
    largest power p^ell dividing all nonzero exponent entries.  Constant
    R (including a = 1, where R = P by convention) yields ell = 0.
    """
    if a < 1:
        raise ValueError("exponent a must be >= 1")
    mod = p**a
    if a == 1:
        return P.with_modulus(mod), 0
    R = power_mod(P.with_modulus(mod), p ** (a - 1), mod)
    if R.is_constant():
        return R, 0
    ell = None
    for e in R.terms:
        for x in e:
            if x:
                v = valuation(x, p)
                if ell is None or v < ell:
                    ell = v
    if ell == 0:
        return R, 0
    pl = p**ell
    terms = {tuple(x // pl for x in e): c for e, c in R.terms.items()}
    return LaurentPoly(R.nvars, terms, mod), ell


class TildeReduction:
    """Everything needed to produce ct(P^n Q) mod p^a termwise.

    ``block_rows[k]`` is the coding row for residue k of the index mod
    p^(a-1), i.e. the window coefficients of section_{p^ell}(P^k Q); the
    matrices of ``tilde_rep`` advance the quotient index.  Immutable
    after construction except for the letter stream, which is created
    once under a lock and grown by one extender at a time.
    """

    def __init__(self, P, Qs, p, a):
        if not Qs:
            raise ValueError("need at least one coding polynomial")
        if any(q.nvars != P.nvars for q in Qs):
            raise RingMismatchError("P and Q variable counts differ")
        self.p = p
        self.a = a
        self.modulus = p**a
        self.block_count = p ** (a - 1)
        if self.block_count > DEFAULT_BLOCK_CAP:
            raise ResourceLimitError(
                "p^(a-1) = %d residue classes exceed cap %d"
                % (self.block_count, DEFAULT_BLOCK_CAP)
            )
        mod = self.modulus
        self.P = P.with_modulus(mod)
        self.Qs = [q.with_modulus(mod) for q in Qs]
        self.p_tilde, self.ell = reduce_p_tilde(P, p, a)
        # the window radius is at least deg P~ - 1, so a window over the
        # cap is refused exactly before any coding chain runs
        check_window(P.nvars, max(self.p_tilde.degree() - 1, 0))
        pl = p**self.ell
        # reduced codings: section_{p^ell}(P^k Q) for every residue k
        self.reduced_codings = []
        for q in self.Qs:
            chain = DenseChain(q, self.P, self.block_count - 1, mod)
            codings = [chain.section_poly(pl)]
            for _ in range(self.block_count - 1):
                chain.step()
                codings.append(chain.section_poly(pl))
            self.reduced_codings.append(codings)
        index = build_index(self.p_tilde,
                            itertools.chain.from_iterable(self.reduced_codings))
        self.tilde_rep = LinRep(
            self.p_tilde, self.reduced_codings[0][0], p, a, index_set=index,
            _chain_base=self._chain_base(),
        )
        # per coding, its rows stacked as one (p^(a-1), |T|) block
        self._rows = []
        for codings in self.reduced_codings:
            block = np.stack([self.tilde_rep.row_vector(q) for q in codings])
            block.setflags(write=False)
            self._rows.append(block)
        self.block_rows = list(self._rows[0])
        self._stream = None
        self._stream_lock = threading.Lock()

    def _chain_base(self):
        """(B, s) whose power chain gives P~^k at step k * s.

        With ell = 0, P~ = P^(p^(a-1)), so the chain of P read every
        p^(a-1) steps holds the same arrays as the chain of P~.  It is
        taken when it multiplies by fewer terms in all and its box equals
        that of P~ on every axis (no face of P vanishes in P~), so the
        dense cap refuses the same inputs; else the chain of P~ is kept.
        """
        P, tilde, stride = self.P, self.p_tilde, self.block_count
        if self.ell == 0 and stride * len(P.terms) < len(tilde.terms):
            lo, hi = _box(P.terms, P.nvars)
            if (([stride * x for x in lo], [stride * x for x in hi])
                    == _box(tilde.terms, P.nvars)):
                return P, stride
        return tilde, 1

    def stream(self):
        """The shared letter stream of the stable base (grown lazily)."""
        stream = self._stream
        if stream is None:
            with self._stream_lock:
                if self._stream is None:
                    self._stream = MorphicStream(self.tilde_rep)
                stream = self._stream
        return stream

    def term(self, n, which=0):
        """ct(P^n Q) mod p^a for a single index n >= 0."""
        if n < 0:
            raise ValueError("index must be >= 0")
        quotient, k = divmod(n, self.block_count)
        row = self._rows[which][k]
        return self.tilde_rep.eval_digits(digits_lsd(quotient, self.p), row=row)

    def terms(self, ns, which=0):
        """ct(P^n Q) mod p^a for every n in ns, in order, as a list.

        Indices go through LinRep.eval_many in chunks of a few hundred,
        so memory does not grow with len(ns).  They must be >= 0 and fit
        in int64; term() takes any single index.
        """
        block = self._rows[which]
        rep = self.tilde_rep
        out = []
        ns = iter(ns)
        while True:
            chunk = list(itertools.islice(ns, _TERMS_CHUNK))
            if not chunk:
                return out
            try:
                n = np.array(chunk, dtype=np.int64)
            except OverflowError:
                raise ValueError("indices must fit in int64") from None
            # a negative index has a negative quotient, which eval_many refuses
            quotients, residues = np.divmod(n, self.block_count)
            out.extend(rep.eval_many(quotients, block[residues]))

    def prefix(self, n, which=0):
        """The first n terms of ct(P^*) mod p^a, via the letter stream."""
        return self.stream().coded_prefix(self._rows[which], n)

    def __repr__(self):
        return "<TildeReduction p=%d a=%d ell=%d window=%d>" % (
            self.p, self.a, self.ell, len(self.tilde_rep.index_set),
        )


def build_reduction(P, Q, p, a):
    """The single-coding reduction for ct(P^n Q) mod p^a."""
    return TildeReduction(P, [Q], p, a)
