"""Dense integer arrays for polynomial multiply chains.

Used where dictionary products would thrash: high powers and
section extraction for multivariate bases.  All arithmetic is int64
with eager reduction; guards refuse sizes that could overflow or blow
the memory budget.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError
from .laurent import LaurentPoly

# elements, not bytes
DEFAULT_DENSE_CAP = 2**26


def _box(exponents, nvars):
    """Per-axis least and greatest entries of the exponent vectors and 0."""
    lo = [0] * nvars
    hi = [0] * nvars
    for e in exponents:
        for i, x in enumerate(e):
            lo[i] = min(lo[i], x)
            hi[i] = max(hi[i], x)
    return lo, hi


class DenseChain:
    """Iterates cur, cur*P, cur*P^2, ... as dense integer arrays.

    ``steps`` is the number of multiplications the size guard was
    checked for (see ``reserve``).
    """

    def __init__(self, start, P, steps, mod):
        self.nvars = start.nvars
        self.mod = mod
        pterms = sorted(P.with_modulus(mod).terms.items())
        self.lo_p, self.hi_p = _box((e for e, _ in pterms), self.nvars)
        # where each term of P lands in a product, grouped by coefficient
        self._starts = {}
        for e, c in pterms:
            self._starts.setdefault(c, []).append(
                [e[i] - self.lo_p[i] for i in range(self.nvars)])
        start = start.with_modulus(mod)
        lo_s, hi_s = _box(start.terms, self.nvars)
        self._start_shape = [(hi_s[i] - lo_s[i]) + 1 for i in range(self.nvars)]
        self.reserve(steps)
        # reduce after every term when a whole step could overflow int64
        self._reduce_each = (mod - 1) ** 2 * max(len(pterms), 1) >= 2**63
        if (mod - 1) ** 2 + mod >= 2**63:
            raise ResourceLimitError(
                "modulus %d too large for exact int64 dense arithmetic" % mod
            )
        self.arr = np.zeros(self._start_shape, dtype=np.int64)
        for e, c in start.terms.items():
            self.arr[tuple(e[i] - lo_s[i] for i in range(self.nvars))] = c
        self.offset = lo_s

    def reserve(self, steps):
        """Check the size guard for ``steps`` multiplications in total."""
        cells = 1
        for i in range(self.nvars):
            cells *= self._start_shape[i] + steps * (self.hi_p[i] - self.lo_p[i])
        if cells > DEFAULT_DENSE_CAP:
            raise ResourceLimitError(
                "dense power chain needs %d cells, cap is %d"
                % (cells, DEFAULT_DENSE_CAP)
            )
        self.steps = steps

    def step(self):
        """Multiply the current array by P once: one scaled copy of it
        per distinct coefficient, added in place at each of its terms."""
        arr = self.arr
        out = np.zeros([n + hi - lo for n, lo, hi in
                        zip(arr.shape, self.lo_p, self.hi_p)], dtype=np.int64)
        for c, starts in self._starts.items():
            scaled = c * arr
            for start in starts:
                sl = tuple(slice(s, s + n) for s, n in zip(start, arr.shape))
                out[sl] += scaled
                if self._reduce_each:
                    out[sl] %= self.mod
        out %= self.mod
        self.arr = out
        self.offset = [o + lo for o, lo in zip(self.offset, self.lo_p)]

    def section_poly(self, k):
        """section_k of the current value (keep exponents divisible by k);
        k = 1 gives the value itself."""
        starts = [(-o) % k for o in self.offset]
        view = self.arr[tuple(slice(s, None, k) for s in starts)]
        at = np.nonzero(view)
        # cell idx of the view holds exponent k * idx + start + offset
        exps = np.transpose(at) + [(s + o) // k for s, o in zip(starts, self.offset)]
        terms = dict(zip(map(tuple, exps.tolist()), view[at].tolist()))
        return LaurentPoly(self.nvars, terms, self.mod)


def power_mod(P, exponent, mod):
    """P^exponent mod ``mod`` through a dense multiply chain."""
    chain = DenseChain(LaurentPoly.one(P.nvars, mod), P, exponent, mod)
    for _ in range(exponent):
        chain.step()
    return chain.section_poly(1)
