"""The p-uniform morphism on window vectors and its fixed point.

Each window vector u maps to the p-letter word

    sigma(u) = (gamma(0).u)(gamma(1).u) ... (gamma(p-1).u)

and iterating from V(0) (fixed by gamma(0)) yields the infinite word
V(0)V(1)V(2)...  Prefixes grow level by level: the letters at [m, pm)
are the images of those at [m/p, m) under the lazy reverse automaton
(closure.Interner), so N letters cost O(N) numpy work plus one product
per distinct (letter, digit) pair ever met.  Letters are held in the
coordinates of the reach module (LinRep.reach_module), and their window
vectors are rebuilt only where they are read.
"""

from __future__ import annotations

import threading

import numpy as np

from .closure import Interner
from .errors import ResourceLimitError
from .linrep import StateVector

DEFAULT_PREFIX_CAP = 10**8


class MorphicStream:
    """A growing prefix of the fixed point, with numbered letters.

    ``prefix[n]`` is the letter id of V(n) and ``letters[i]`` the i-th
    distinct window vector (as a tuple), in order of first appearance;
    ``letters`` builds that list on each read, from the coordinates of
    the states.
    Both only grow, one extender at a time under a lock; ``prefix`` is
    replaced by a longer view once a level is written, so reading an
    already generated prefix is safe concurrently.
    """

    def __init__(self, rep):
        self.rep = rep
        # the letters are the states of the lazy reverse automaton; this
        # also fails early if p exceeds the digit cap
        self._module = module = rep.reach_module()
        self._walk = Interner(module.start, module, False)
        self.prefix = self._buffer = np.zeros(1, dtype=np.int64)
        self._lock = threading.Lock()  # held by the one extender

    def __len__(self):
        return len(self.prefix)

    @property
    def letters(self):
        walk = self._walk
        return list(map(tuple, self._module.vectors(walk.states[:walk.count]).tolist()))

    def extend(self, n):
        """Grow the prefix to at least n letters; returns self.

        V(pm + k) = gamma(k).V(m), so the positions [lo, min(n, p lo))
        come from one Interner.step on the letters at pos // p with the
        digits pos % p.
        """
        if n > DEFAULT_PREFIX_CAP:
            raise ResourceLimitError(
                "prefix length %d exceeds cap %d" % (n, DEFAULT_PREFIX_CAP)
            )
        if len(self.prefix) >= n:
            return self
        with self._lock:
            lo, p = len(self.prefix), self.rep.p
            if n > len(self._buffer):
                buffer = np.empty(max(n, 2 * len(self._buffer)), dtype=np.int64)
                buffer[:lo] = self.prefix
                self._buffer = buffer
            buffer = self._buffer
            while lo < n:
                hi = min(n, p * lo)
                pos = np.arange(lo, hi)
                buffer[lo:hi] = self._walk.step(buffer[pos // p], pos % p)
                self.prefix, lo = buffer[:hi], hi
        return self

    def state_vector(self, n):
        """The n-th letter V(n) (generating up to it if needed)."""
        if n < 0:
            raise ValueError("index must be >= 0")
        self.extend(n + 1)
        return StateVector(self._module.vectors(self._walk.states[self.prefix[n]]),
                           self.rep.index_set.constant_index)

    def coded_prefix(self, rows, n):
        """The first n values of k -> row . V(k), or for a stack of B
        rows of k -> rows[k mod B] . V(k div B) (a TildeReduction's)."""
        rows = np.asarray(rows, dtype=np.int64)
        width = len(self.rep.index_set)
        if rows.ndim not in (1, 2) or rows.shape[-1] != width or not rows.size:
            raise ValueError("coding rows of shape %s do not match window size %d"
                             % (rows.shape, width))
        rows = rows.reshape(-1, width)
        length = max(0, -(-n // len(rows)))
        self.extend(length)
        ids, walk = self.prefix[:length], self._walk
        rho = self._module.dual(rows)
        codes = walk.states[:walk.count].astype(np.int64) @ rho.T % self.rep.modulus
        return codes[ids].ravel()[:max(n, 0)].tolist()

    def letter_count(self):
        return self._walk.count
