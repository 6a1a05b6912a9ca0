"""The module the window vectors V(n) span, in Howell coordinates.

The V(n) span a submodule M of the window (Z/p^a)^T that is closed
under the digit maps and often far smaller than the window: Apery mod
27 has 8 rows in a window of 4,913 entries.  ``reach`` closes V(0)
under the gamma(k) and keeps the span in Howell form (Howell, Linear
Multilinear Algebra 1986; Storjohann-Mulders, ESA 1998): rows h_i in
echelon form whose pivots are p^(v_i), such that the elements of M
vanishing on the first columns are spanned by the later rows.  Every
element of M then has unique canonical coordinates y, with
0 <= y_i < p^(a - v_i) and vector y @ H, so states are interned and
terms evaluated in d dimensions:

- ``maps[k]`` is C(k), with gamma(k) h_j = sum_i C(k)[i, j] h_i;
- ``start`` holds the coordinates of V(0);
- ``dual(rows)`` turns coding rows into rho = row . H^T, and the term
  row . gamma(d_0) ... gamma(d_t) . V(0) is rho . C(d_0) ... C(d_t) . start.

A product C(k) y gives valid coordinates that need not be canonical;
``reduce`` makes them canonical through the relations
p^(a - v_i) h_i = sum_(j > i) R[i, j] h_j.  With no basis the module is
the whole window: coordinates are the vectors and the maps are the
digit matrices, which is how forward walks and narrow windows run.
"""

from __future__ import annotations

import numpy as np

# windows of at most this many entries keep the identity basis
_IDENTITY_WINDOW = 48


def valuation(x, p):
    """The exponent of the largest power of p dividing x != 0."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class Module:
    """A submodule of the window that holds every V(n), in coordinates.

    ``basis`` is None for the whole window (the identity basis), else
    the d x |T| Howell form H as a read-only int64 array.  ``start`` and
    the maps hold residues in the LinRep's dtype, so every product of
    residues with a map stays exact.
    """

    def __init__(self, rep, basis=None, maps=None, start=None, relations=()):
        self.rep, self.modulus = rep, rep.modulus
        self.basis = basis
        self._maps = maps
        # C(k) for one digit; without a basis the digit matrix, built on its own
        self.map = rep.gamma if maps is None else maps.__getitem__
        self.start = rep.v0 if basis is None else start
        self._relations = relations
        if basis is not None:
            self._constants = basis[:, rep.index_set.constant_index].copy()

    @property
    def rank(self):
        """The number of coordinates: d, or |T| for the whole window."""
        return len(self.start)

    @property
    def maps(self):
        """C(k) for every digit; the digit matrices (cap checked) without a basis."""
        return self.rep.all_gammas() if self._maps is None else self._maps

    def reduce(self, y):
        """Make the int64 coordinate rows y canonical, in place."""
        mod = self.modulus
        np.remainder(y, mod, out=y)
        for i, unit, relation in self._relations:
            q = y[:, i] // unit
            y[:, i] -= q * unit
            y += q[:, None] * relation
            np.remainder(y, mod, out=y)
        return y

    def vectors(self, y):
        """The window vectors y @ H % p^a of coordinate rows y."""
        if self.basis is None:
            return y
        return np.asarray(y, dtype=np.int64) @ self.basis % self.modulus

    def constants(self, y):
        """The constant entries y @ H[:, c] % p^a of coordinate rows y."""
        if self.basis is None:
            return y[..., self.rep.index_set.constant_index]
        return np.asarray(y, dtype=np.int64) @ self._constants % self.modulus

    def dual(self, rows):
        """Coding rows as covectors rho = row . H^T on coordinates."""
        if self.basis is None:
            return rows
        return np.asarray(rows, dtype=np.int64) @ self.basis.T % self.modulus

    def __repr__(self):
        return "<Module rank=%d of window %d>" % (self.rank, len(self.rep.index_set))


class _Howell:
    """Rows in Howell form over Z/p^a, keyed by pivot column."""

    def __init__(self, p, a):
        self.p, self.a, self.modulus = p, a, p**a
        self.rows = {}  # pivot column -> (v, row with pivot entry p^v)

    def insert(self, x):
        """Add the int64 residues x to the span; returns the rows added.

        x is reduced by the rows at its leading columns.  Where its
        leading entry has a lower valuation than the row there (or no
        row is there), x, scaled to the pivot p^w, takes that column;
        the row it displaces is reduced and inserted in turn, and
        p^(a - w) x, which vanishes at the pivot, is inserted too, so
        the rows keep the Howell property.
        """
        p, a, mod = self.p, self.a, self.modulus
        added, todo = [], [x]
        while todo:
            x = todo.pop()
            while True:
                nonzero = np.flatnonzero(x)
                if not nonzero.size:
                    break
                c = int(nonzero[0])
                lead = int(x[c])
                w = valuation(lead, p)
                have = self.rows.get(c)
                if have is not None and have[0] <= w:
                    x = (x - lead // p ** have[0] * have[1]) % mod
                    continue
                x = x * pow(lead // p**w, -1, mod) % mod
                self.rows[c] = (w, x)
                added.append(x)
                if w:
                    todo.append(x * p ** (a - w) % mod)
                if have is None:
                    break
                x = (have[1] - p ** (have[0] - w) * x) % mod

        return added

    def coordinates(self, cols, vals, basis, vecs):
        """Canonical coordinates of the int64 rows ``vecs``, all in the span."""
        p, mod = self.p, self.modulus
        left = np.array(vecs, dtype=np.int64) % mod
        out = np.zeros((len(left), len(cols)), dtype=np.int64)
        for i, (c, v) in enumerate(zip(cols, vals)):
            lead = left[:, c]
            assert not (lead % p**v).any(), "vector outside the reach module"
            out[:, i] = lead // p**v
            left -= out[:, i, None] * basis[i]
            left %= mod
        assert not left.any(), "vector outside the reach module"
        return out


def reach(rep):
    """The Module spanned by the V(n) of ``rep``, in Howell form.

    Closes V(0) under the stored digit maps: each round applies every
    gamma(k) to the rows that the previous round added.  Each final row
    was added in some round, so C(k) comes from the images already
    taken; the build asserts that gamma(k) H^T = H^T C(k) (mod p^a).
    The relation rows p^(a - v_i) h_i give the canonical reduction.
    """
    p, a, mod = rep.p, rep.a, rep.modulus
    gammas, dtype = rep.all_gammas(), rep.v0.dtype
    howell = _Howell(p, a)
    fresh, taken = howell.insert(rep.v0.astype(np.int64)), []
    while fresh:
        block = np.array(fresh, dtype=dtype).T
        # images[j, k] = gamma(k) applied to row j of the block
        images = np.stack([np.asarray(g @ block) for g in gammas]).transpose(2, 0, 1) % mod
        taken += zip(fresh, images.astype(np.int64))
        fresh = []
        for x in images.reshape(-1, block.shape[0]).astype(np.int64):
            fresh += howell.insert(x)
    cols = sorted(howell.rows)
    vals = [howell.rows[c][0] for c in cols]
    rows = [howell.rows[c][1] for c in cols]
    basis = np.array(rows, dtype=np.int64)
    basis.setflags(write=False)

    def coords(vecs):
        return howell.coordinates(cols, vals, basis, vecs)

    # images of the final rows, as (d, p, |T|)
    images = np.array([next(im for x, im in taken if x is row) for row in rows])
    maps = []
    for k in range(p):
        c = coords(images[:, k]).T
        assert np.array_equal(basis.T @ c % mod, images[:, k].T), "gamma H^T != H^T C"
        c = c.astype(dtype)
        c.setflags(write=False)
        maps.append(c)
    relations = []
    for i, v in enumerate(vals):
        if v:
            unit = p ** (a - v)
            relation = coords(basis[i:i + 1] * unit)[0]
            assert not relation[:i + 1].any(), "relation row leaves the later rows"
            relations.append((i, unit, relation))
    start = coords(rep.v0[None])[0].astype(dtype)
    start.setflags(write=False)
    return Module(rep, basis, maps, start, tuple(relations))
