"""Modules of window vectors closed under the digit maps, in Howell coordinates.

The V(n) span a submodule M of the window (Z/p^a)^T that is closed
under the digit maps and often far smaller than the window: Apery mod
27 has 8 rows in a window of 4,913 entries.  ``span`` closes a start row
under x -> gamma(k) x (reverse) or x -> x gamma(k) (forward) and keeps
the span in Howell form (Howell, Linear Multilinear Algebra 1986;
Storjohann-Mulders, ESA 1998): rows h_i in echelon form whose pivots
are p^(v_i), such that the elements of M vanishing on the first
columns are spanned by the later rows.  Every element of M then has
unique canonical coordinates y, with 0 <= y_i < p^(a - v_i) and vector
y @ H, so states are interned and terms evaluated in d dimensions.
``reach`` is the reverse span of V(0):

- ``maps[k]`` is C(k), with gamma(k) h_j = sum_i C(k)[i, j] h_i;
- ``start`` holds the coordinates of V(0);
- ``dual(rows)`` turns coding rows into rho = row . H^T, and the term
  row . gamma(d_0) ... gamma(d_t) . V(0) is rho . C(d_0) ... C(d_t) . start.

On a forward span ``maps[k]`` is D(k), with h_i gamma(k) =
sum_j D(k)[i, j] h_j, so a state y steps to y @ D(k).  A product
C(k) y or y D(k) gives valid coordinates that need not be canonical;
``reduce`` makes them canonical through the relations
p^(a - v_i) h_i = sum_(j > i) R[i, j] h_j.  With no basis the module is
the whole window: coordinates are the vectors and the maps are the
digit matrices, which is how the lazy forward engine, narrow windows
and forward automata on windows up to _FORWARD_WINDOW entries run.
"""

from __future__ import annotations

import numpy as np

# windows of at most this many entries keep the identity basis
_IDENTITY_WINDOW = 48
# forward automata keep it up to this many entries: below, building the
# forward module mostly cost more than it saved, up to 23 times (see
# README, "Known computational limits")
_FORWARD_WINDOW = 512


def valuation(x, p):
    """The exponent of the largest power of p dividing x != 0."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class Module:
    """A submodule of the window closed under the digit maps, in coordinates.

    ``basis`` is None for the whole window (the identity basis), else
    the d x |T| Howell form H as a read-only int64 array.  ``start``
    holds the coordinates of the row the span was closed from (V(0)
    without a basis).  It and the maps hold residues in the LinRep's
    dtype, so every product of residues with a map stays exact.
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


def _product(y, basis, modulus):
    """y @ basis % modulus for int64 residues; the product runs in float64
    BLAS, which is exact while every dot product stays below 2^53."""
    if len(basis) * (modulus - 1) ** 2 < 2**53:
        y = (y.astype(np.float64) @ basis.astype(np.float64)).astype(np.int64)
    else:
        y = y @ basis
    return y % modulus


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
        """Canonical coordinates of the int64 rows ``vecs``, all in the span.

        The rows are echelon with pivots at ``cols``, so the entries
        there alone fix the coordinates; one product then checks the
        whole row.  ``left[i]`` holds the entries at pivot i, reduced only
        when read: each of the d steps adds less than p^(2a) to them, and
        LinRep keeps |T| p^(2a) below 2^62."""
        p, mod = self.p, self.modulus
        vecs = np.array(vecs, dtype=np.int64) % mod
        left = vecs[:, cols].T.copy()
        # row i of the basis is zero at the pivots before its own
        pivots = basis[:, cols]
        out = np.empty(left.shape, dtype=np.int64)
        for i, v in enumerate(vals):
            lead = left[i] % mod
            assert not (lead % p**v).any(), "vector outside the module"
            out[i] = lead // p**v
            left[i + 1:] -= pivots[i, i + 1:, None] * out[i]
        out = out.T
        assert np.array_equal(_product(out, basis, mod), vecs), \
            "vector outside the module"
        return out


def span(rep, start, forward):
    """The Module that the row ``start`` spans under x -> x gamma(k)
    (``forward``) or x -> gamma(k) x, in Howell form.

    Each round applies every gamma(k) to the rows that the previous
    round added.  Each final row was added in some round, so its images
    are already taken; their coordinates give C(k), asserted as
    gamma(k) H^T = H^T C(k) (mod p^a), or D(k), asserted as
    H gamma(k) = D(k) H, both by the product with which the coordinates
    are checked.  The relation rows p^(a - v_i) h_i give the canonical
    reduction.  A start that vanishes mod p^a spans the zero module, of
    rank 0.
    """
    p, a, mod = rep.p, rep.a, rep.modulus
    gammas, dtype, width = rep.all_gammas(), rep.v0.dtype, len(rep.index_set)
    x = np.asarray(start).astype(np.int64)
    # the bytes of each row added -> its images under every digit
    howell, taken = _Howell(p, a), {}
    fresh = howell.insert(x)
    while fresh:
        block = np.array(fresh, dtype=dtype)
        # images[j, k] = row j of the block under gamma(k)
        images = np.stack([block @ g if forward else (g @ block.T).T
                           for g in gammas], axis=1) % mod
        taken.update(zip((row.tobytes() for row in fresh), images.astype(np.int64)))
        fresh = []
        for y in images.reshape(-1, width).astype(np.int64):
            fresh += howell.insert(y)
    cols = sorted(howell.rows)
    vals = [howell.rows[c][0] for c in cols]
    rows = [howell.rows[c][1] for c in cols]
    basis = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    basis.setflags(write=False)

    d = len(rows)
    # one coordinates call for the images of the final rows under every
    # digit, the relation rows p^(a - v_i) h_i and the start
    units = [(i, p ** (a - v)) for i, v in enumerate(vals) if v]
    scaled = basis[[i for i, _ in units]] * np.array(
        [unit for _, unit in units], dtype=np.int64).reshape(-1, 1)
    images = [taken[row.tobytes()] for row in rows]
    coords = howell.coordinates(cols, vals, basis, np.concatenate(
        images + [scaled, x[None]]).reshape(-1, width))
    # (j, k): the coordinates of row j's image under gamma(k)
    images = coords[:d * p].reshape(d, p, d)
    maps = []
    for k in range(p):
        c = (images[:, k] if forward else images[:, k].T).astype(dtype)
        c.setflags(write=False)
        maps.append(c)
    relations = []
    for (i, unit), relation in zip(units, coords[d * p:-1]):
        assert not relation[:i + 1].any(), "relation row leaves the later rows"
        relations.append((i, unit, relation))
    start = coords[-1].astype(dtype)
    start.setflags(write=False)
    return Module(rep, basis, maps, start, tuple(relations))


def reach(rep):
    """The Module spanned by the V(n) of ``rep``: V(0) under x -> gamma(k) x."""
    return span(rep, rep.v0, forward=False)
