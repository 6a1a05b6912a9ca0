"""Brute-force ground truth for ct(P^n Q) mod m.

Everything here expands actual polynomial products with eager modular
reduction and reads off the constant coefficient.  No windows, section
operators, matrices, or repeated squaring are used, so these values are
an independent check on every other code path.  The generic route works
on plain dictionaries; three dense integer fast paths (one dimensional
running products, half-power pairing for several variables, and a
running product for several variables when the pairing does not fit)
do the same schoolbook arithmetic with numpy int64 and are
cross-checked against the dictionary route in the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError

DEFAULT_MAX_N = 10**6
DEFAULT_TERM_GUARD = 10**6
DEFAULT_DENSE_CELLS = 2**25


def _as_dict(P):
    return dict(P.terms), P.nvars


def _dict_mul(a, b, modulus, term_guard):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = (out.get(e, 0) + ca * cb) % modulus
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        if len(out) > term_guard:
            raise ResourceLimitError(
                "oracle product exceeds %d terms" % term_guard
            )
    return out


def ct_pow_mod(P, Q, n, modulus, max_n=DEFAULT_MAX_N,
               term_guard=DEFAULT_TERM_GUARD):
    """ct(P^n Q) mod ``modulus`` by a chain of full multiplications."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if n > max_n:
        raise ResourceLimitError("index %d exceeds the oracle guard %d" % (n, max_n))
    if P.nvars != Q.nvars:
        raise ValueError("P and Q variable counts differ")
    pd, nvars = _as_dict(P.with_modulus(modulus))
    cur, _ = _as_dict(Q.with_modulus(modulus))
    for _ in range(n):
        cur = _dict_mul(cur, pd, modulus, term_guard)
    return cur.get((0,) * nvars, 0)


def power_terms(P, n, modulus, term_guard=DEFAULT_TERM_GUARD,
                dense_cells=DEFAULT_DENSE_CELLS):
    """P^n mod ``modulus`` as an exponent -> coefficient dict.

    The same chain of n full multiplications by P as ct_pow_mod, so the
    coefficient of x^e is ct_pow_mod(P, x^-e, n, modulus); it runs on a
    dense array when the result fits and int64 stays exact.
    """
    if n < 0:
        raise ValueError("exponent must be >= 0")
    P = P.with_modulus(modulus)
    nvars = P.nvars
    lo, hi = _bounds(P.terms, nvars)
    cells = 1
    for i in range(nvars):
        cells *= (hi[i] - lo[i]) * n + 1
    if cells > dense_cells or (modulus - 1) ** 2 * max(len(P.terms), 1) >= 2**62:
        cur = {(0,) * nvars: 1 % modulus}
        for _ in range(n):
            cur = _dict_mul(cur, P.terms, modulus, term_guard)
        return cur
    arr = np.full((1,) * nvars, 1 % modulus, dtype=np.int64)
    start = [0] * nvars
    for _ in range(n):
        arr, start = _shift_add_mul(arr, start, P.terms, (lo, hi), modulus)
    return _dense_terms(arr, start)


def sequence(P, Q, modulus, count, max_n=DEFAULT_MAX_N,
             term_guard=DEFAULT_TERM_GUARD, dense_cells=DEFAULT_DENSE_CELLS):
    """The first ``count`` values of n -> ct(P^n Q) mod ``modulus``.

    Several variables take the half-power pairing when its arrays fit
    ``dense_cells``, and otherwise a dense running product until its box
    passes ``dense_cells``, then the dict route.  ``term_guard`` bounds
    the nonzeros of P^n Q on the running product, and the partial
    products of each multiplication on the dict route.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if count - 1 > max_n:
        raise ResourceLimitError(
            "count %d exceeds the oracle guard %d" % (count, max_n)
        )
    if P.nvars != Q.nvars:
        raise ValueError("P and Q variable counts differ")
    if count == 0:
        return []
    P = P.with_modulus(modulus)
    Q = Q.with_modulus(modulus)
    if P.nvars == 1 and (modulus - 1) ** 2 * max(len(P.terms), 1) < 2**62:
        return _sequence_dense_1d(P, Q, modulus, count)
    if P.nvars > 1 and (modulus - 1) ** 2 * max(len(P.terms), len(Q.terms), 1) < 2**62:
        pbounds, qbounds = _bounds(P.terms, P.nvars), _bounds(Q.terms, Q.nvars)
        if _halving_fits(pbounds, qbounds, count, dense_cells):
            return _sequence_dense_halving(P, Q, modulus, count, pbounds, qbounds)
        return _sequence_dense_running(P, Q, modulus, count, term_guard,
                                       dense_cells, pbounds)
    return _sequence_dicts(P, Q, modulus, count, term_guard)


def _sequence_dicts(P, Q, modulus, count, term_guard):
    pd, nvars = _as_dict(P)
    cur, _ = _as_dict(Q)
    return _dict_run(pd, cur, nvars, modulus, count, term_guard)


def _dict_run(pd, cur, nvars, modulus, count, term_guard):
    """ct of cur, cur*P, cur*P^2, ... by dict products: ``count`` values."""
    zero = (0,) * nvars
    out = []
    for _ in range(count):
        out.append(cur.get(zero, 0))
        cur = _dict_mul(cur, pd, modulus, term_guard)
    return out


# ---------------------------------------------------------------------------
# dense fast paths
# ---------------------------------------------------------------------------


def _bounds(terms, nvars):
    lo = [0] * nvars
    hi = [0] * nvars
    for e in terms:
        for i, x in enumerate(e):
            lo[i] = min(lo[i], x)
            hi[i] = max(hi[i], x)
    return lo, hi


def _to_dense(poly):
    lo, hi = _bounds(poly.terms, poly.nvars)
    arr = np.zeros([h - l + 1 for l, h in zip(lo, hi)], dtype=np.int64)
    for e, c in poly.terms.items():
        arr[tuple(x - l for x, l in zip(e, lo))] = c
    return arr, lo


def _sequence_dense_1d(P, Q, modulus, count):
    pa, plo = _to_dense(P)
    cur, lo = _to_dense(Q)
    plo = plo[0]
    lo = lo[0]
    out = []
    for _ in range(count):
        idx = -lo
        out.append(int(cur[idx]) if 0 <= idx < cur.shape[0] else 0)
        cur = np.convolve(cur, pa) % modulus
        lo += plo
    return out


def _dense_terms(arr, lo):
    """The nonzero cells of a dense array as an exponent -> value dict."""
    return {
        tuple(int(x) + s for x, s in zip(idx, lo)): int(arr[idx])
        for idx in zip(*np.nonzero(arr))
    }


def _dense_ct(arr, lo):
    """The cell at exponent zero (every box here spans the origin)."""
    return int(arr[tuple(-x for x in lo)])


def _sequence_dense_running(P, Q, modulus, count, term_guard, dense_cells,
                            pbounds):
    """Q, PQ, P^2 Q, ... as a dense running product, one _shift_add_mul
    by P per index, while the next box fits ``dense_cells``.

    ``term_guard`` is counted on the nonzeros of each P^n Q, where the
    dict route counts the partial products of each multiplication.
    Once the next box would not fit, the remaining values come from the
    dict route, starting at the last dense power.
    """
    nvars = P.nvars
    plo, phi = pbounds
    cur, lo = _to_dense(Q)
    out = [_dense_ct(cur, lo)]
    while len(out) < count:
        cells = 1
        for i in range(nvars):
            cells *= cur.shape[i] + phi[i] - plo[i]
        if cells > dense_cells:
            rest = _dict_run(dict(P.terms), _dense_terms(cur, lo), nvars,
                             modulus, count - len(out) + 1, term_guard)
            return out + rest[1:]
        cur, lo = _shift_add_mul(cur, lo, P.terms, pbounds, modulus)
        if np.count_nonzero(cur) > term_guard:
            raise ResourceLimitError(
                "oracle product exceeds %d terms" % term_guard
            )
        out.append(_dense_ct(cur, lo))
    return out


def _halving_fits(pbounds, qbounds, count, dense_cells):
    """Whether the pairing route's arrays fit ``dense_cells``."""
    (plo, phi), (qlo, qhi) = pbounds, qbounds
    half = (count - 1 + 1) // 2  # largest retained power of P
    cells = 1
    for i in range(len(plo)):
        cells *= (phi[i] - plo[i]) * (half + 1) + (qhi[i] - qlo[i]) + 1
    return cells <= dense_cells


def _shift_add_mul(arr, lo, terms, bounds, modulus):
    nvars = len(lo)
    tlo, thi = bounds
    out = np.zeros(
        [arr.shape[i] + thi[i] - tlo[i] for i in range(nvars)], dtype=np.int64
    )
    for e, c in terms.items():
        sl = tuple(
            slice(e[i] - tlo[i], e[i] - tlo[i] + arr.shape[i])
            for i in range(nvars)
        )
        out[sl] += c * arr
    out %= modulus
    return out, [lo[i] + tlo[i] for i in range(nvars)]


def _corr_at_zero(a, alo, b, blo, modulus, nvars):
    """sum over e of a[e] * b[-e], read through the offsets."""
    fb = b[tuple(slice(None, None, -1) for _ in range(nvars))]
    fblo = [-(blo[i] + b.shape[i] - 1) for i in range(nvars)]
    start = [max(alo[i], fblo[i]) for i in range(nvars)]
    end = [
        min(alo[i] + a.shape[i], fblo[i] + fb.shape[i]) for i in range(nvars)
    ]
    if any(s >= e for s, e in zip(start, end)):
        return 0
    sa = a[tuple(slice(start[i] - alo[i], end[i] - alo[i]) for i in range(nvars))]
    sb = fb[tuple(slice(start[i] - fblo[i], end[i] - fblo[i]) for i in range(nvars))]
    return int((sa * sb % modulus).sum() % modulus)


def _sequence_dense_halving(P, Q, modulus, count, pbounds, qbounds):
    """ct(P^(2m) Q) = <P^m, P^m Q> and ct(P^(2m+1) Q) = <P^m, P^(m+1) Q>,
    pairing coefficients at opposite exponents, so only powers up to
    about count/2 are ever expanded."""
    nvars = P.nvars
    pterms = P.terms
    qterms = Q.terms
    if not qterms:
        return [0] * count
    a = np.ones((1,) * nvars, dtype=np.int64)  # P^0
    alo = [0] * nvars
    out = []
    while len(out) < count:
        c, clo = _shift_add_mul(a, alo, qterms, qbounds, modulus)
        out.append(_corr_at_zero(a, alo, c, clo, modulus, nvars))  # n = 2m
        if len(out) >= count:
            break
        if pterms:
            nxt, nxtlo = _shift_add_mul(a, alo, pterms, pbounds, modulus)
        else:
            nxt, nxtlo = np.zeros((1,) * nvars, dtype=np.int64), [0] * nvars
        cn, cnlo = _shift_add_mul(nxt, nxtlo, qterms, qbounds, modulus)
        out.append(_corr_at_zero(a, alo, cn, cnlo, modulus, nvars))  # n = 2m+1
        a, alo = nxt, nxtlo
    return out[:count]
