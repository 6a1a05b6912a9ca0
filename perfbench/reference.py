"""Independent reference values for the benchmark's checks.

Nothing here imports ctseq.  Every value comes from one of three
elementary sources:

- exact integer recurrences for the classical sequences (Catalan,
  Motzkin, central binomial, central trinomial, Apery);
- plain integer convolution of one-variable Laurent polynomials, given
  as ``{exponent: coefficient}`` dicts;
- factorial formulas evaluated modulo p^a through the unit part and the
  p-adic valuation of n!, for single terms far beyond the exact range.

Deep indices n = n0 + m*p^k (k large) are checked with the Frobenius
congruence P(x)^(p^k) = P(x^(p^(k-a+1)))^(p^(a-1)) (mod p^a), which
gives ct(P^n Q) = ct(P^n0 Q) * ct(P^(m*p^(a-1))) (mod p^a) as long as
the exponents of P^n0 Q stay below p^(k-a+1) in absolute value.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# exact recurrences
# ---------------------------------------------------------------------------


def catalan(count):
    """C_0 .. C_{count-1} from C_{n+1} = 2(2n+1) C_n / (n+2)."""
    out = [1]
    for n in range(count - 1):
        out.append(out[-1] * 2 * (2 * n + 1) // (n + 2))
    return out[:count]


def central_binomial(count):
    """ct((x^-1 + x)^n): binom(n, n/2) for even n, else 0."""
    out = []
    c = 1  # binom(2k, k)
    for n in range(count):
        if n % 2:
            out.append(0)
        else:
            k = n // 2
            out.append(c)
            c = c * 2 * (2 * k + 1) // (k + 1)
    return out


def central_binomial_even(count):
    """binom(2n, n) = ct((x^-1 + 2 + x)^n)."""
    out = [1]
    for n in range(count - 1):
        out.append(out[-1] * 2 * (2 * n + 1) // (n + 1))
    return out[:count]


def motzkin(count):
    """M_n from (n+2) M_n = (2n+1) M_{n-1} + 3(n-1) M_{n-2}."""
    out = [1, 1]
    for n in range(2, count):
        out.append(((2 * n + 1) * out[n - 1] + 3 * (n - 1) * out[n - 2]) // (n + 2))
    return out[:count]


def trinomial(count):
    """T_n from n T_n = (2n-1) T_{n-1} + 3(n-1) T_{n-2}."""
    out = [1, 1]
    for n in range(2, count):
        out.append(((2 * n - 1) * out[n - 1] + 3 * (n - 1) * out[n - 2]) // n)
    return out[:count]


def apery(count):
    """u_n from (n+1)^3 u_{n+1} = (34n^3+51n^2+27n+5) u_n - n^3 u_{n-1}."""
    out = [1, 5]
    for n in range(1, count - 1):
        num = (34 * n**3 + 51 * n**2 + 27 * n + 5) * out[n] - n**3 * out[n - 1]
        out.append(num // (n + 1) ** 3)
    return out[:count]


# sequence ct(P^n Q) of each preset, and ct(P^n) of the same P
PRESET_SEQUENCES = {
    "pascal": (central_binomial, central_binomial),
    "catalan": (catalan, central_binomial_even),
    "motzkin": (motzkin, trinomial),
    "trinomial": (trinomial, trinomial),
    "apery": (apery, apery),
}


# ---------------------------------------------------------------------------
# plain convolution
# ---------------------------------------------------------------------------


def _dense(poly):
    lo = min(poly)
    arr = np.zeros(max(poly) - lo + 1, dtype=np.int64)
    for e, c in poly.items():
        arr[e - lo] = c
    return arr, lo


def conv_ct(P, Qs, count, modulus):
    """ct(P^n Q) mod ``modulus`` for n < count and every Q in ``Qs``.

    One running power of P, multiplied by P once per step through
    np.convolve on int64 arrays reduced after every step.
    """
    if (modulus - 1) * max(abs(c) for c in P.values()) * len(P) >= 2**62:
        raise ValueError("modulus too large for int64 convolution")
    pa, plo = _dense({e: c % modulus for e, c in P.items()})
    cur = np.ones(1, dtype=np.int64)
    lo = 0
    outs = [[] for _ in Qs]
    for _ in range(count):
        for q, out in zip(Qs, outs):
            acc = 0
            for e, c in q.items():
                idx = -e - lo
                if 0 <= idx < cur.shape[0]:
                    acc += c * int(cur[idx])
            out.append(acc % modulus)
        cur = np.convolve(cur, pa) % modulus
        lo += plo
    return outs


def least_zero(values, p):
    """Index of the first value divisible by p, or None."""
    for n, v in enumerate(values):
        if v % p == 0:
            return n
    return None


# ---------------------------------------------------------------------------
# factorials modulo p^a
# ---------------------------------------------------------------------------


class FactorialTable:
    """Unit part and p-adic valuation of n! for 0 <= n <= nmax, mod p^a.

    n! = p^v(n) * u(n) with p not dividing u(n).  With F(m) the product
    of the integers in [1, m] prime to p, u(n) = prod_i F(floor(n/p^i)),
    and F(m) = F(p^a)^floor(m/p^a) * F(m mod p^a) (mod p^a).
    """

    def __init__(self, p, a, nmax):
        self.p = p
        self.a = a
        self.mod = mod = p**a
        small = [1] * (mod + 1)
        for j in range(1, mod + 1):
            small[j] = small[j - 1] * (j if j % p else 1) % mod
        small = np.array(small, dtype=np.int64)
        full = int(small[mod])
        if full * full % mod != 1:
            raise ArithmeticError("F(p^a) is not +-1 mod p^a")
        n = np.arange(nmax + 1, dtype=np.int64)
        unit = np.ones(nmax + 1, dtype=np.int64)
        val = np.zeros(nmax + 1, dtype=np.int64)
        q = n.copy()
        while q.any():
            # F(p^a) is +1 or -1 (Gauss), so its powers alternate
            sign = np.where((q // mod) % 2 == 1, full, 1)
            unit = unit * (sign * small[q % mod] % mod) % mod
            q = q // p
            val += q
        self.unit = unit
        self.val = val
        self.inv = np.zeros(mod, dtype=np.int64)
        for r in range(mod):
            if r % p:
                self.inv[r] = pow(r, -1, mod)

    def ratio(self, num, dens):
        """prod num! / prod dens! mod p^a, elementwise over index arrays."""
        unit = np.ones(np.shape(num[0]), dtype=np.int64)
        val = np.zeros(np.shape(num[0]), dtype=np.int64)
        for x in num:
            unit = unit * self.unit[x] % self.mod
            val += self.val[x]
        for x in dens:
            unit = unit * self.inv[self.unit[x]] % self.mod
            val -= self.val[x]
        if (val < 0).any():
            raise ValueError("factorial ratio is not an integer")
        scale = np.where(val < self.a, self.p ** np.minimum(val, self.a), 0)
        return unit * scale % self.mod


def catalan_mod(table, count):
    """C_n = (2n)! / (n! (n+1)!) mod p^a for every n < count."""
    n = np.arange(count, dtype=np.int64)
    return table.ratio([2 * n], [n, n + 1])


def motzkin_mod(table, n):
    """M_n = sum_k n! / (k! (k+1)! (n-2k)!) mod p^a, for one index n."""
    k = np.arange(n // 2 + 1, dtype=np.int64)
    terms = table.ratio([np.full_like(k, n)], [k, k + 1, n - 2 * k])
    return int(terms.sum() % table.mod)


def trinomial_mod(table, n):
    """T_n = sum_k n! / (k!^2 (n-2k)!) mod p^a, for one index n."""
    k = np.arange(n // 2 + 1, dtype=np.int64)
    terms = table.ratio([np.full_like(k, n)], [k, k, n - 2 * k])
    return int(terms.sum() % table.mod)


def deep_value(seq_q, seq_one, n0, m, p, a):
    """ct(P^(n0 + m p^k) Q) mod p^a from the Frobenius congruence.

    ``seq_q[n]`` is ct(P^n Q) and ``seq_one[n]`` is ct(P^n); both only
    need to reach n0 and m * p^(a-1).
    """
    mod = p**a
    return seq_q[n0] * seq_one[m * p ** (a - 1)] % mod


# ---------------------------------------------------------------------------
# sequence properties
# ---------------------------------------------------------------------------


def catalan_odd_iff_pow2(values):
    """C_n is odd exactly when n + 1 is a power of 2 (values mod 2^a)."""
    v = np.asarray(values, dtype=np.int64)
    n1 = np.arange(1, v.shape[0] + 1, dtype=np.int64)
    pow2 = (n1 & (n1 - 1)) == 0
    return bool(np.array_equal(v % 2 == 1, pow2))


def motzkin_never_zero_mod8(values):
    """No Motzkin number is divisible by 8 (Eu, Liu and Yeh, 2008)."""
    v = np.asarray(values, dtype=np.int64)
    return bool((v % 8 != 0).all())


def gap_rows(values, word_length):
    """(word, count, max_gap, censored) per length-L word, sorted by word.

    Gaps are measured between start positions inside the prefix; a row is
    censored when the tail after its last start exceeds its largest gap.
    """
    v = np.asarray(values, dtype=np.int64)
    starts = v.shape[0] - word_length + 1
    base = int(v.max()) + 1 if v.size else 1
    code = np.zeros(starts, dtype=np.int64)
    for j in range(word_length):
        code = code * base + v[j : j + starts]
    order = np.argsort(code, kind="stable")
    sc = code[order]
    cut = np.flatnonzero(np.diff(sc)) + 1
    bounds = np.concatenate(([0], cut, [starts]))
    last_start = starts - 1
    rows = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        pos = order[lo:hi]  # ascending, the sort is stable
        gap = int(np.diff(pos).max()) if hi - lo > 1 else 0
        word = []
        c = int(sc[lo])
        for _ in range(word_length):
            word.append(c % base)
            c //= base
        rows.append((tuple(reversed(word)), int(hi - lo), gap,
                     (last_start - int(pos[-1])) > gap))
    return rows
