"""Digit-indexed matrix representation of ct(P^n Q) sequences.

For a window radius m covering both P and Q, the coefficients of P^n
with exponents in T = [-m, m]^r form a column vector V(n), and for each
base-p digit k there is a matrix gamma(k) with

    gamma(k)[i, j] = coefficient of x^(p*j - i) in P^k,

satisfying gamma(k) . V(n) = V(p*n + k).  The sequence value is
vec(Q) . V(n).  Digits are taken least significant first throughout.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from . import reduced
from ._dense import DenseChain
from .errors import ResourceLimitError, RingMismatchError
from .laurent import LaurentPoly

DEFAULT_WINDOW_CAP = 5000
# building every digit matrix is refused for primes above this
DEFAULT_DIGIT_CAP = 101
# entries gathered, or candidate keys expanded, per chunk of one digit
# matrix, so that no temporary grows with the whole matrix
_GATHER_CHUNK = 2**18
# windows larger than this hold their digit matrices as SparseDigitMap
_SPARSE_WINDOW = 1024
# a 2-D operand of a SparseDigitMap goes in blocks of this many rows, each
# block taking about _BLOCK_ENTRIES products per chunk of entries
_ROW_BLOCK = 8
_BLOCK_ENTRIES = 2**16


def check_digit_cap(p):
    """Refuse building all p digit matrices for primes above the cap."""
    if p > DEFAULT_DIGIT_CAP:
        raise ResourceLimitError(
            "materializing %d digit matrices exceeds cap %d"
            % (p, DEFAULT_DIGIT_CAP)
        )


def digits_lsd(n, p):
    """Base-p digits of n >= 0, least significant first; [0] for n = 0."""
    if n < 0:
        raise ValueError("index must be >= 0, got %d" % n)
    if n == 0:
        return [0]
    out = []
    while n:
        out.append(n % p)
        n //= p
    return out


class IndexSet:
    """The ordered exponent window T = [-m, m]^r.

    ``vectors`` lists the window lexicographically ascending and
    ``constant_index`` is the position of the all-zero vector.
    ``_np_vectors`` holds the same vectors as an (|T|, r) array.
    """

    __slots__ = ("r", "m", "vectors", "position", "constant_index",
                 "_np_vectors")

    def __init__(self, r, m):
        if r < 1 or m < 0:
            raise ValueError("need r >= 1 and m >= 0")
        self.r = r
        self.m = m
        self.vectors = tuple(itertools.product(range(-m, m + 1), repeat=r))
        self.position = {v: i for i, v in enumerate(self.vectors)}
        self.constant_index = self.position[(0,) * r]
        self._np_vectors = np.array(self.vectors, dtype=np.int64).reshape(
            len(self.vectors), r
        )

    def __len__(self):
        return len(self.vectors)

    def __repr__(self):
        return "<IndexSet [-%d,%d]^%d, size %d>" % (self.m, self.m, self.r, len(self))


def build_index(P, Qs):
    """Window radius m = max(deg P - 1, max deg Q_i, 0) as an IndexSet."""
    r = P.nvars
    m = P.degree() - 1
    for q in Qs:
        if q.nvars != r:
            raise RingMismatchError("P and Q variable counts differ")
        m = max(m, q.degree())
    m = max(m, 0)
    check_window(r, m)
    return IndexSet(r, m)


def check_window(r, m):
    """Refuse the window [-m, m]^r if it has more entries than the cap."""
    size = (2 * m + 1) ** r
    if size > DEFAULT_WINDOW_CAP:
        raise ResourceLimitError(
            "window size %d exceeds cap %d" % (size, DEFAULT_WINDOW_CAP)
        )


class StateVector:
    """A window of coefficients of some P^n, with its constant entry."""

    __slots__ = ("entries", "constant_index")

    def __init__(self, entries, constant_index):
        self.entries = tuple(int(x) for x in entries)
        self.constant_index = constant_index

    @property
    def constant_entry(self):
        return self.entries[self.constant_index]

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, StateVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "StateVector%r" % (self.entries,)


def _key_bits(n, modulus):
    """Widths (b, c) of the int64 keys ((major << b | minor) << c) + value
    of an n x n SparseDigitMap of residues mod ``modulus``."""
    bits = ((n - 1).bit_length(), (modulus - 1).bit_length())
    assert 2 * bits[0] + bits[1] <= 63, "digit map keys overflow int64"
    return bits


def _layout(keys, n, bits, dtype):
    """Sort the keys of an n x n map in place and read one layout off
    them: (majors present, where each major's run starts, minors,
    values), all read-only.  A column layout has column majors and row
    minors.
    """
    b, c = bits
    keys.sort()
    # the run of major k starts at the first key >= k << (b + c)
    bounds = np.searchsorted(keys, np.arange(n + 1) << (b + c))
    at = np.flatnonzero(np.diff(bounds))
    low = keys & ((1 << c) - 1)
    vals = low.astype(dtype, copy=False)
    # the minors go into the integer values' buffer once they are copied
    minors = np.right_shift(keys, c, out=None if vals is low else low)
    minors &= (1 << b) - 1
    out = (at, bounds[at], minors, vals)
    for a in out:
        a.setflags(write=False)
    return out


def _left_product(x, layout):
    """x @ M for a 1-D or 2-D x, given the column layout of M.

    Each nonempty column of M is one reduceat segment of x[rows] * vals;
    the empty ones stay zero (reduceat would return x[start] for them).
    A 1-D x takes all entries in one pass.  A 2-D x goes in blocks of
    _ROW_BLOCK rows; each block reads the entries once, in chunks cut at
    column starts whose temporaries hold about _BLOCK_ENTRIES values, so
    they stay in cache.
    """
    at, starts, idx, vals = layout
    dtype = np.result_type(x.dtype, vals.dtype)
    out = np.zeros(x.shape, dtype=dtype)
    if not vals.size:
        return out
    x = x.astype(dtype, copy=False)
    if x.ndim == 1:
        out[at] = np.add.reduceat(x[idx] * vals, starts)
        return out
    ends = np.append(starts, idx.size)
    for r in range(0, len(x), _ROW_BLOCK):
        src = x[r:r + _ROW_BLOCK]
        width = _BLOCK_ENTRIES // len(src)
        cuts = np.flatnonzero(np.diff(starts // width, prepend=-1)).tolist()
        cuts.append(at.size)
        sums = np.empty((len(src), at.size), dtype=dtype)
        for k0, k1 in zip(cuts, cuts[1:]):
            lo, hi = ends[k0], ends[k1]
            t = src.take(idx[lo:hi], axis=1)
            t *= vals[lo:hi]
            np.add.reduceat(t, starts[k0:k1] - lo, axis=1, out=sums[:, k0:k1])
        out[r:r + len(src), at] = sums
    return out


class SparseDigitMap:
    """A read-only n x n digit matrix held as its nonzero entries.

    The entries are stored twice: by column (CSC) for ``x @ g`` and by
    row (CSR) for ``g @ x``.  A product is one gather, one multiply and
    one ``np.add.reduceat``.  Values keep the dense dtype, so every
    partial sum stays an integer under the bound LinRep checks for that
    dtype and the products are exact.  ``__array_ufunc__ = None`` makes
    ``ndarray @ map`` defer to ``__rmatmul__``; ``np.asarray(map)`` is
    the dense matrix.  Both layouts are built in the constructor and
    never change.
    """

    __array_ufunc__ = None

    def __init__(self, keys, n, modulus, dtype):
        """Entries (i, j) = v, v a residue mod ``modulus``, given in any
        order as the int64 keys ((j << b | i) << c) + v of _key_bits;
        ``keys`` is sorted and rewritten in place."""
        bits = _key_bits(n, modulus)
        self.shape = (n, n)
        self.size = n * n
        self.dtype = np.dtype(dtype)
        self._csc = _layout(keys, n, bits, dtype)
        # rekey as ((i << b | j) << c) + v: add (i - j) * ((1 << b) - 1 << c)
        at, starts, rows, _ = self._csc
        shift = np.repeat(at, np.diff(starts, append=rows.size))
        np.subtract(rows, shift, out=shift)
        shift *= ((1 << bits[0]) - 1) << bits[1]
        keys += shift
        del shift  # the second layout sets the peak memory of a build
        self._csr = _layout(keys, n, bits, dtype)

    @property
    def nnz(self):
        return self._csc[3].size

    @property
    def nbytes(self):
        return sum(a.nbytes for a in self._csc + self._csr)

    def _operand(self, x, axis):
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[axis] != self.shape[0]:
            raise ValueError("operand of shape %r does not match %r"
                             % (x.shape, self.shape))
        return x

    def __matmul__(self, x):
        # g @ x = (x^T @ g^T)^T, and the row layout of g is the column
        # layout of g^T
        x = self._operand(x, 0)
        return _left_product(np.ascontiguousarray(x.T), self._csr).T

    def __rmatmul__(self, x):
        return _left_product(self._operand(x, -1), self._csc)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a sparse digit map has no dense buffer to share")
        at, starts, rows, vals = self._csc
        g = np.zeros(self.shape, dtype=self.dtype)
        g[rows, np.repeat(at, np.diff(starts, append=rows.size))] = vals
        return g if dtype is None else g.astype(dtype, copy=False)

    def tobytes(self):
        """The shape, then the column layout's arrays, as raw bytes."""
        return b"".join(a.tobytes() for a in (np.array(self.shape),) + self._csc)

    def __repr__(self):
        return "<SparseDigitMap %dx%d nnz=%d %s>" % (
            self.shape + (self.nnz, self.dtype))


class LinRep:
    """The triple (vec(Q), gamma, V(0)) over Z/p^a Z.

    Matrices are built lazily in ascending digit order from one dense
    power chain, which only moves forward, and cached in an append-only
    dict: gamma(k) builds every missing matrix through k.  The chain
    steps P once per digit.  Given ``_chain_base=(B, s)``, with
    B^s = P mod p^a and of the same box, it steps B s times per digit
    and holds the same arrays (primepower.TildeReduction passes the P it
    reduced, with s = p^(a-1), where that multiplies by fewer terms).
    Builds hold a lock, so threads sharing an instance all get the one
    cached matrix per digit.  For a > 1 the base polynomial must satisfy
    P(x)^p = P(x^p) mod p^a, which primepower.build_reduction arranges;
    with a = 1 any P qualifies.

    Matrix and vector entries are residues; they are stored as float64
    when every accumulated dot product fits below 2^53 (BLAS is far
    faster than integer loops and remains exact there), else as int64.
    Windows above _SPARSE_WINDOW entries hold each matrix as a
    SparseDigitMap built from the nonzeros of P^k, which supports the
    same ``@`` products; everywhere else a matrix is a read-only ndarray
    gathered from P^k in strided passes.  Terms and state vectors are
    computed on the reach module (reduced.Module), in its coordinates.
    """

    def __init__(self, P, Q, p, a=1, index_set=None, _chain_base=None):
        if a < 1:
            raise ValueError("exponent a must be >= 1")
        self.p = p
        self.a = a
        self.modulus = p**a
        if index_set is None:
            index_set = build_index(P, [Q])
        self.index_set = index_set
        # matrix products accumulate |T| products of residues in int64
        if len(index_set) * (self.modulus - 1) ** 2 >= 2**62:
            raise ResourceLimitError(
                "modulus %d too large for exact int64 matrix arithmetic"
                % self.modulus
            )
        # float64 BLAS is much faster than int64 loops and stays exact as
        # long as every accumulated dot product is below 2^53
        if len(index_set) * (self.modulus - 1) ** 2 < 2**53:
            self._dtype = np.float64
        else:
            self._dtype = np.int64
        self.P = P.with_modulus(self.modulus)
        self.Q = Q.with_modulus(self.modulus)
        self.row_Q = self.row_vector(self.Q)
        v0 = np.zeros(len(index_set), dtype=self._dtype)
        v0[index_set.constant_index] = 1
        v0.setflags(write=False)
        self.v0 = v0
        self._gammas = {}
        # the power chain of P, taken in strides of a base polynomial;
        # builds run one at a time under the lock
        self._base, self._stride = (self.P, 1) if _chain_base is None else _chain_base
        self._chain = None
        self._module = None
        self._lock = threading.Lock()

    # -- vectors ---------------------------------------------------------

    def row_vector(self, Q):
        """vec(Q): the coefficients of Q at the ordered window indices."""
        Q = Q.with_modulus(self.modulus)
        if Q.degree() > self.index_set.m:
            raise RingMismatchError(
                "polynomial of degree %d does not fit window radius %d"
                % (Q.degree(), self.index_set.m)
            )
        if Q.nvars != self.index_set.r:
            raise RingMismatchError("variable count differs from the window")
        row = np.zeros(len(self.index_set), dtype=self._dtype)
        for e, c in Q.terms.items():
            row[self.index_set.position[e]] = c
        row.setflags(write=False)
        return row

    # -- matrices ----------------------------------------------------------

    def gamma(self, k):
        """The digit matrix for k in 0..p-1."""
        if not 0 <= k < self.p:
            raise ValueError("digit %d out of range for base %d" % (k, self.p))
        g = self._gammas.get(k)
        if g is None:
            g = self._gamma_built(k)
        return g

    def _gamma_built(self, k):
        """Build every digit matrix through gamma(k) once, in ascending
        order, from the power chain of P, checked up to P^k."""
        stride = self._stride
        with self._lock:
            if k not in self._gammas:
                if self._chain is None:
                    self._chain = DenseChain(
                        LaurentPoly.one(self.P.nvars, self.modulus),
                        self._base, k * stride, self.modulus)
                chain = self._chain
                if chain.steps < k * stride:
                    chain.reserve(k * stride)
                for j in range(len(self._gammas), k + 1):
                    for _ in range(stride if j else 0):
                        chain.step()
                    self._gammas[j] = self._gather_gamma(chain.arr, chain.offset)
                if len(self._gammas) == self.p:
                    self._chain = None
            return self._gammas[k]

    def _gather_gamma(self, arr, offset):
        """gamma(k) from P^k, given densely from exponent vector ``offset``."""
        if len(self.index_set) > _SPARSE_WINDOW:
            return self._sparse_gamma(arr, offset)
        return self._dense_gamma(arr, offset)

    def _sparse_gamma(self, arr, offset):
        """gamma(k) as a SparseDigitMap built from the nonzeros of P^k.

        The coefficient of x^e lands in (p*j - e, j) for each j of the
        window with p*j - e in it too, at most ceil((2m+1)/p) per axis.
        A key is a sum of one part per axis, so each chunk of about
        _GATHER_CHUNK candidates adds one table row per axis to its
        values by broadcasting and masks out the j that do not exist.
        """
        index = self.index_set
        p, m, r = self.p, index.m, index.r
        b, c = _key_bits(len(index), self.modulus)
        width = -(-(2 * m + 1) // p)
        exps = np.nonzero(arr)
        tables, masks, counts = [], [], 1
        for axis, o in enumerate(offset):
            e = np.arange(o, o + arr.shape[axis])[:, None]
            j = np.maximum(-m, -((m - e) // p)) + np.arange(width)
            ok = j <= np.minimum(m, (e + m) // p)
            counts = counts * ok.sum(axis=1)[exps[axis]]
            # entry (i, j) has key ((j << b | i) << c) + value
            part = (((j + m) << b) + p * j - e + m) * ((2 * m + 1) ** (r - 1 - axis) << c)
            shape = (-1,) + (1,) * axis + (width,) + (1,) * (r - 1 - axis)
            tables.append(part.reshape(shape))
            masks.append(ok.reshape(shape))
        vals = arr[exps]
        keys = np.empty(int(np.sum(counts)), dtype=np.int64)
        filled, step = 0, max(1, _GATHER_CHUNK // width**r)
        for lo in range(0, vals.size, step):
            cand, keep = vals[lo:lo + step].reshape((-1,) + (1,) * r), True
            for axis in range(r):
                at = exps[axis][lo:lo + step]
                cand = cand + tables[axis][at]
                keep = keep & masks[axis][at]
            cand = cand[keep]
            keys[filled:filled + cand.size] = cand
            filled += cand.size
        return SparseDigitMap(keys, len(index), self.modulus, self._dtype)

    def _dense_gamma(self, arr, offset):
        """gamma(k) as a read-only ndarray gathered from P^k.

        Entry (i, j) is the coefficient of x^(p*j - i), so each column is
        a window of P^k read backwards from p*j: one strided gather over
        the box of P^k that the columns meeting its support reach, done
        in chunks of columns.  Only nonzero entries are written, so the
        untouched pages of the zeroed matrix stay free.
        """
        index = self.index_set
        p, m, n = self.p, index.m, len(index)
        g = np.zeros((n, n), dtype=self._dtype)
        # per axis, the columns j whose exponents p*j - i (|i| <= m) meet
        # the exponents o .. o + s - 1 that arr holds
        lo = [max(-m, -((m - o) // p)) for o in offset]
        hi = [min(m, (o + s - 1 + m) // p) for o, s in zip(offset, arr.shape)]
        if all(a <= b for a, b in zip(lo, hi)):
            # box[e - base] is the coefficient of x^e, e in [p*lo - m, p*hi + m]
            base = [p * a - m for a in lo]
            box = np.zeros([p * (b - a) + 2 * m + 1 for a, b in zip(lo, hi)],
                           dtype=np.int64)
            src, dst = [], []
            for b, w, o, s in zip(base, box.shape, offset, arr.shape):
                first, stop = max(b, o), min(b + w, o + s)
                src.append(slice(first - o, stop - o))
                dst.append(slice(first - b, stop - b))
            box[tuple(dst)] = arr[tuple(src)]
            strides = np.array(box.strides, dtype=np.int64) // box.itemsize
            vecs = index._np_vectors
            cols = np.flatnonzero(((vecs >= lo) & (vecs <= hi)).all(axis=1))
            col_at = (p * (vecs[cols] - lo)) @ strides
            row_at = (m - vecs) @ strides
            flat = box.ravel()
            step = max(1, _GATHER_CHUNK // n)
            for c in range(0, len(cols), step):
                vals = flat[col_at[c:c + step, None] + row_at]
                jj, ii = np.nonzero(vals)
                g[ii, cols[c + jj]] = vals[jj, ii]
        g.setflags(write=False)
        return g

    def all_gammas(self):
        """Every digit matrix; refused for primes above the digit cap."""
        check_digit_cap(self.p)
        self.gamma(self.p - 1)
        return [self._gammas[k] for k in range(self.p)]

    # -- evaluation -----------------------------------------------------------

    def reach_module(self):
        """The module the V(n) span, in coordinates (a reduced.Module).

        Windows of at most reduced._IDENTITY_WINDOW entries, and primes
        above the digit cap, keep the identity basis, whose maps are the
        digit matrices built one digit at a time; wider windows get a
        Howell basis, built from all digit matrices on first use under
        the lock, so threads sharing an instance share one module.
        """
        module = self._module
        if module is None:
            wide = (len(self.index_set) > reduced._IDENTITY_WINDOW
                    and self.p <= DEFAULT_DIGIT_CAP)
            if wide:
                self.all_gammas()  # under the lock the maps are only read
            with self._lock:
                if self._module is None:
                    self._module = reduced.reach(self) if wide else reduced.Module(self)
                module = self._module
        return module

    def state_array(self, n):
        """V(n) as an array of residues (integral values, see class note)."""
        module = self.reach_module()
        y = module.start
        for d in reversed(digits_lsd(n, self.p)):
            # fmod equals % on non-negative values and is faster
            y = np.fmod(module.map(d) @ y, self.modulus)
        return module.vectors(y)

    def state_vector(self, n):
        """V(n): entry at window index i is ct(P^n x^i) mod p^a."""
        return StateVector(self.state_array(n), self.index_set.constant_index)

    def eval_digits(self, digits, row=None):
        """row . gamma(d_0) ... gamma(d_t) . V(0) for an explicit digit word,
        computed as rho . C(d_0) ... C(d_t) . y0 on the reach module.

        ``row`` holds residues, as the coding rows do.
        """
        module = self.reach_module()
        r = module.dual(self.row_Q if row is None else row)
        for d in digits:
            r = np.fmod(r @ module.map(d), self.modulus)
        return int(np.fmod(r @ module.start, self.modulus))

    def eval_many(self, quotients, rows):
        """eval_digits(digits_lsd(q, p), row) for every pair, as a list.

        One digit position at a time, least significant first, every
        row whose quotient has digit d there takes one product with
        C(d).  A row stops once its quotient is used up; that equals
        padding with zero digits, as gamma(0) fixes V(0), so a zero
        quotient yields row[c].  ``rows`` is an (N, |T|) array of
        residues; quotients must be non-negative and fit in int64.
        """
        q = np.array(quotients, dtype=np.int64)
        rows = np.asarray(rows)
        if q.ndim != 1 or rows.shape != (len(q), len(self.index_set)):
            raise ValueError("need N quotients and an (N, %d) row block"
                             % len(self.index_set))
        if (q < 0).any():
            raise ValueError("indices must be >= 0")
        module = self.reach_module()
        rows = np.array(module.dual(rows), dtype=self._dtype)
        p, mod = self.p, self.modulus
        live = np.flatnonzero(q)
        while live.size:
            d = q[live] % p
            q[live] //= p
            # live positions grouped by their digit
            order = live[np.argsort(d, kind="stable")]
            start = 0
            for k, stop in enumerate(np.cumsum(np.bincount(d)).tolist()):
                if stop > start:
                    sel = order[start:stop]
                    # fmod equals % on non-negative values and is faster
                    rows[sel] = np.fmod(rows[sel] @ module.map(k), mod)
                start = stop
            live = live[q[live] > 0]
        return np.fmod(rows @ module.start, mod).astype(np.int64).tolist()

    def eval_term(self, n):
        """ct(P^n Q) mod p^a (requires the stability hypothesis when a > 1)."""
        return self.eval_digits(digits_lsd(n, self.p))

    def settle_exponent(self):
        """Least s >= 1 with gamma(0)^s equal to the constant-index unit.

        gamma(0) sends e_j to e_(p j), or to zero once p j leaves the
        window [-m, m]^r, so its s-th power is that unit exactly when
        p^s > m.
        """
        return len(digits_lsd(max(self.index_set.m, 1), self.p))

    def __repr__(self):
        return "<LinRep p=%d a=%d window=%d>" % (self.p, self.a, len(self.index_set))
