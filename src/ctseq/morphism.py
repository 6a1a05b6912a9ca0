"""The p-uniform morphism on window vectors and its fixed point.

Each window vector u maps to the p-letter word

    sigma(u) = (gamma(0).u)(gamma(1).u) ... (gamma(p-1).u)

and iterating from V(0) (fixed by gamma(0)) yields the infinite word
V(0)V(1)V(2)...  Prefixes are generated block-wise: every produced
letter expands to p letters, so N letters cost O(N) table lookups plus
p matrix-vector products per distinct letter ever seen.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ResourceLimitError
from .linrep import StateVector

DEFAULT_PREFIX_CAP = 10**8


def sigma_image(rep, u):
    """The p-letter image of one window vector, as StateVectors."""
    vec = np.asarray(
        u.entries if isinstance(u, StateVector) else u, dtype=np.int64
    )
    if vec.shape != (len(rep.index_set),):
        raise ValueError(
            "vector length %d does not match window size %d"
            % (vec.size, len(rep.index_set))
        )
    c = rep.index_set.constant_index
    return [
        StateVector(g @ vec % rep.modulus, c) for g in rep.all_gammas()
    ]


class MorphicStream:
    """A growing prefix of the fixed point, with interned letters.

    ``letters[i]`` holds the i-th distinct window vector (as a tuple) in
    order of first appearance; ``prefix[n]`` is the letter id of V(n).
    Both lists only grow.  Extension holds a lock, so one thread at a
    time grows them, and reading an already generated prefix is safe
    concurrently.
    """

    def __init__(self, rep, prefix_cap=DEFAULT_PREFIX_CAP):
        self.rep = rep
        self.prefix_cap = prefix_cap
        rep.all_gammas()  # fail early if p exceeds the digit cap
        v0 = tuple(int(x) for x in rep.v0)
        self.letters = [v0]
        self._letter_ids = {v0: 0}
        self._images = {}  # letter id -> tuple of p letter ids
        self.prefix = [0]
        self._cursor = 0  # next prefix position to expand
        self._lock = threading.Lock()  # held by the one extender

    def __len__(self):
        return len(self.prefix)

    def _image_ids(self, letter_id):
        cached = self._images.get(letter_id)
        if cached is not None:
            return cached
        rep = self.rep
        vec = np.array(self.letters[letter_id], dtype=np.int64)
        ids = []
        for g in rep.all_gammas():
            w = tuple(int(x) for x in g @ vec % rep.modulus)
            wid = self._letter_ids.get(w)
            if wid is None:
                wid = len(self.letters)
                self.letters.append(w)
                self._letter_ids[w] = wid
            ids.append(wid)
        ids = tuple(ids)
        self._images[letter_id] = ids
        return ids

    def extend(self, n):
        """Grow the prefix to at least n letters; returns self."""
        if n > self.prefix_cap:
            raise ResourceLimitError(
                "prefix length %d exceeds cap %d" % (n, self.prefix_cap)
            )
        prefix = self.prefix
        if len(prefix) >= n:
            return self
        with self._lock:
            while len(prefix) < n:
                ids = self._image_ids(prefix[self._cursor])
                if self._cursor == 0:
                    # prolongability: the first image letter is V(0) itself
                    prefix.extend(ids[1:])
                else:
                    prefix.extend(ids)
                self._cursor += 1
        return self

    def state_vector(self, n):
        """The n-th letter V(n) (generating up to it if needed)."""
        self.extend(n + 1)
        return StateVector(
            self.letters[self.prefix[n]], self.rep.index_set.constant_index
        )

    def coded_prefix(self, row, n):
        """The first n values of k -> row . V(k)."""
        self.extend(n)
        row = np.asarray(row, dtype=np.int64)
        if row.shape != (len(self.rep.index_set),):
            raise ValueError(
                "coding row length %d does not match window size %d"
                % (row.size, len(self.rep.index_set))
            )
        mod = self.rep.modulus
        codes = [int(row @ np.array(w, dtype=np.int64) % mod) for w in self.letters]
        return [codes[i] for i in self.prefix[:n]]

    def letter_count(self):
        return len(self.letters)
