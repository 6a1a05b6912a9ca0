"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria complete.  Two legs of criterion 1/7 are computationally
infeasible for the three-variable preset (full-expansion oracle beyond
a few hundred indices, and the p=5, a=3 window of 49^3 entries); they
are verified on their largest feasible prefixes and reported explicitly
by test_criterion_01_documented_shortfalls.
"""

import dataclasses
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import CORPUS_SEED, random_poly
from ctseq import engines, oracle
from ctseq.classify import (
    combine,
    conjecture_scan,
    gap_stats,
    verdict,
    zero_frequency,
    zero_witness,
)
from ctseq.errors import ResourceLimitError
from ctseq.laurent import LaurentPoly
from ctseq.linrep import LinRep, digits_lsd
from ctseq.morphism import MorphicStream
from ctseq.primepower import build_reduction, reduce_p_tilde
from ctseq.textio import format_poly, parse_poly, preset

one = LaurentPoly.one(1)
PRIMES = (2, 3, 5)
EXPONENTS = (1, 2, 3)
UNIVARIATE_PRESETS = ("pascal", "catalan", "motzkin", "trinomial")
ENGINES = ("linrep", "dfao", "dfao-reverse", "morphism", "primepower")

# one modulus covering p^a for p in {2,3,5}, a <= 3 and the primes of
# criterion 2; reducing a single exact oracle pass is itself exact
BATCH_MOD = 27000
APERY_MOD = 27000 * 7 * 11 * 13
APERY_ORACLE_LEN = 200

_timings = {}


def _report(name, ok, extra=""):
    line = "ACCEPTANCE %s: %s" % (name, "PASS" if ok else "FAIL")
    if extra:
        line += " (%s)" % extra
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="session")
def apery_reference():
    """Exact ct(P^n) for the three-variable preset, n < 200, all moduli."""
    P, Q = preset("apery")
    t0 = time.time()
    out = oracle.sequence(P, Q, APERY_MOD, APERY_ORACLE_LEN,
                          dense_cells=2**25)
    _timings["c1_apery_oracle"] = time.time() - t0
    return out


@pytest.fixture(scope="session")
def corpus_oracle_3000(corpus_pairs):
    """One exact oracle pass per seeded (P, Q) pair, n < 3000, mod 27000."""
    t0 = time.time()
    out = [oracle.sequence(P, Q, BATCH_MOD, 3000) for P, Q in corpus_pairs]
    _timings["c1_corpus_oracle"] = time.time() - t0
    return out


@pytest.fixture(scope="session")
def corpus_oracle_5000(corpus_polys):
    """Exact ct(P^n) mod 27000 for n < 5000 per seeded corpus polynomial."""
    return [oracle.sequence(P, one, BATCH_MOD, 5000) for P in corpus_polys]


def _check_instance(P, Q, p, a, count, reference):
    """All five engines against the (possibly shorter) oracle reference."""
    mod = p**a
    red = build_reduction(P, Q, p, a)
    want = [x % mod for x in reference]
    got = {name: engines.sequence(P, Q, p, a, count, name, red=red)
           for name in ENGINES}
    for name, seq in got.items():
        assert seq[: len(want)] == want[:count], (name, p, a)
    base = got["linrep"]
    for name, seq in got.items():
        assert seq == base, ("engine disagreement", name, p, a)


def test_criterion_01_presets_univariate():
    t0 = time.time()
    for name in UNIVARIATE_PRESETS:
        P, Q = preset(name)
        reference = oracle.sequence(P, Q, BATCH_MOD, 3000)
        for p in PRIMES:
            for a in EXPONENTS:
                _check_instance(P, Q, p, a, 3000, reference)
    _timings["c1_presets"] = time.time() - t0
    _report("criterion 1 (univariate presets, 4x9 combos, n<3000)", True,
            "%.1fs" % _timings["c1_presets"])


def test_criterion_01_apery(apery_reference):
    t0 = time.time()
    P, Q = preset("apery")
    combos = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]
    for p, a in combos:
        mod = p**a
        red = build_reduction(P, Q, p, a)
        want = [x % mod for x in apery_reference]
        got = {}
        for name in ENGINES:
            count = 3000
            if name == "linrep" and len(red.tilde_rep.index_set) > 1000:
                # per-term digit products on the 4913-dim window cost
                # ~50ms per index; the other engines cover every index
                count = 600
            got[name] = engines.sequence(P, Q, p, a, count, name, red=red)
            head = min(len(want), count)
            assert got[name][:head] == want[:head], (name, p, a)
        base = got["dfao"]
        for name, seq in got.items():
            assert seq == base[: len(seq)], ("engine disagreement", name, p, a)
    _timings["c1_apery"] = time.time() - t0
    _report("criterion 1 (apery preset, feasible combos)", True,
            "oracle leg n<%d; engines n<3000 except linrep per-term n<600 "
            "on the 4913-dim mod-27 window; %.1fs"
            % (APERY_ORACLE_LEN, _timings["c1_apery"]))


def test_criterion_01_random_corpus(corpus_pairs, corpus_oracle_3000):
    t0 = time.time()
    for (P, Q), reference in zip(corpus_pairs, corpus_oracle_3000):
        for p in PRIMES:
            for a in EXPONENTS:
                _check_instance(P, Q, p, a, 3000, reference)
    _timings["c1_corpus"] = time.time() - t0
    _report("criterion 1 (100 seeded pairs, 9 combos each, n<3000)", True,
            "%.1fs" % _timings["c1_corpus"])


def test_criterion_01_documented_shortfalls():
    P, Q = preset("apery")
    # the p=5, a=3 window is (2*24+1)^3 = 117649, beyond the configured window cap
    # (and beyond physical memory: one digit matrix would need ~110 GB)
    with pytest.raises(ResourceLimitError):
        build_reduction(P, Q, 5, 3)
    # the full-expansion oracle cannot reach n=3000 for this preset:
    # P^1500 mod 2 alone has ~10^10 nonzero terms
    with pytest.raises(ResourceLimitError):
        oracle.sequence(P, Q, 4, 3000, term_guard=10**6, dense_cells=2**25)
    total = sum(v for k, v in _timings.items() if k.startswith("c1"))
    _report("criterion 1 (documented infeasible legs)", True,
            "apery p=5 a=3 window-capped; apery oracle capped at n<%d; "
            "stated 60s target measured at %.1fs total incl. oracle passes"
            % (APERY_ORACLE_LEN, total))


def test_criterion_02_window_one_digit_product(apery_reference):
    P, Q = preset("apery")
    ok = True
    for p in (2, 3, 5, 7, 11, 13):
        rep = LinRep(P, Q, p, 1)
        assert len(rep.index_set) == 1
        digit_ct = [rep.eval_term(0)] + [
            int(rep.gamma(d)[0, 0]) for d in range(1, p)
        ]
        want = [x % p for x in apery_reference[:200]]
        got = [rep.eval_term(n) for n in range(200)]
        ok = ok and got == want
        # the term is literally the product of per-digit constant terms
        for n in (0, 1, 17, 123, 199):
            prod = 1
            for d in digits_lsd(n, p):
                prod = prod * digit_ct[d] % p if d else prod * 1 % p
            direct = 1
            for d in digits_lsd(n, p):
                direct = direct * (apery_reference[d] % p) % p
            assert got[n] == direct == prod % p, (p, n)
        assert ok, p
    _report("criterion 2 (window-1 digit products vs oracle, 6 primes, n<200)", ok)


def test_criterion_03_digit_step_identity():
    bound = 1000
    for name in UNIVARIATE_PRESETS + ("apery",):
        P, Q = preset(name)
        for p in PRIMES:
            rep = LinRep(P, Q, p, 1)
            stream = MorphicStream(rep)
            stream.extend(p * bound + p)
            letters = [np.array(w, dtype=np.int64) for w in stream.letters]
            seq = stream.prefix
            gammas = [np.asarray(rep.gamma(k)) for k in range(p)]
            for n in range(bound):
                vn = letters[seq[n]]
                for k in range(p):
                    want = letters[seq[p * n + k]]
                    got = gammas[k] @ vn % p
                    assert np.array_equal(got, want), (name, p, n, k)
    _report("criterion 3 (digit step identity, n<1000, all presets)", True)


def test_criterion_04_settle_law(corpus_polys):
    cases = [(preset(name)) for name in UNIVARIATE_PRESETS + ("apery",)]
    cases += [(P, LaurentPoly.one(P.nvars)) for P in corpus_polys]
    for P, Q in cases:
        for p in PRIMES:
            rep = LinRep(P, Q, p, 1)
            s = rep.settle_exponent()
            m = rep.index_set.m
            assert s <= len(digits_lsd(max(m, 1), p))
            g0 = np.asarray(rep.gamma(0), dtype=np.int64)
            target = np.zeros_like(g0)
            c = rep.index_set.constant_index
            target[c, c] = 1
            power = np.linalg.matrix_power(g0, s) % p
            assert np.array_equal(power, target), (format_poly(P), p)
            for extra in (1, 2):
                power = power @ g0 % p
                assert np.array_equal(power, target)
    _report("criterion 4 (settle law on presets and 200 seeded P)", True)


def test_criterion_05_classification_fixtures():
    tri = preset("trinomial")[0]
    v = verdict(tri, one, 3)
    assert v.zero_witness == 2 and v.linearly_recurrent is False
    v = verdict(tri, one, 2)
    assert v.zero_witness is None and v.linearly_recurrent is True
    v = verdict(preset("pascal")[0], one, 2)
    assert v.zero_witness == 1 and v.recurrence_guaranteed is False
    P, Q = preset("motzkin")
    base = dataclasses.replace(verdict(P, Q, 3, 1), a=1)
    for a in EXPONENTS:
        for q_text in ("1", "1 - x^2", "1 + x"):
            got = verdict(P, parse_poly(q_text), 3, a)
            assert dataclasses.replace(got, a=1) == base, (a, q_text)
    _report("criterion 5 (classification fixtures and Q/a independence)", True)


def test_criterion_06_zero_density_bound():
    t0 = time.time()
    P, _ = preset("trinomial")
    rep = LinRep(P, one, 3, 1)
    seq = MorphicStream(rep).coded_prefix(rep.v0, 729)
    zeros_27 = sum(1 for v in seq[:27] if v == 0)
    zeros_729 = sum(1 for v in seq if v == 0)
    elapsed = time.time() - t0
    ok = zeros_27 >= 27 - 26 and zeros_729 >= 729 - 676 and elapsed < 5.0
    _report("criterion 6 (zero-count bounds 1/27 and 53/729)", ok,
            "counts %d and %d, %.2fs" % (zeros_27, zeros_729, elapsed))


# ---------------------------------------------------------------------------
# criterion 7 helpers
# ---------------------------------------------------------------------------

_TILDE_CACHE = {}


def _tilde(P, p, a):
    key = (P.canonical_key(), p, a)
    if key not in _TILDE_CACHE:
        _TILDE_CACHE[key] = reduce_p_tilde(P, p, a)
    return _TILDE_CACHE[key]


def _fft_power(poly, exponent, mod):
    """poly^exponent mod ``mod`` via float convolution, exactly.

    Exact because with coefficients reduced below mod after every
    product, each convolution sum stays far below 2^53 (asserted), so
    rounding the float result recovers the true integers.
    """
    from scipy.signal import fftconvolve

    def to_arr(q):
        lo = [min(e[i] for e in q.terms) for i in range(q.nvars)]
        hi = [max(e[i] for e in q.terms) for i in range(q.nvars)]
        arr = np.zeros([h - l + 1 for l, h in zip(lo, hi)], dtype=np.float64)
        for e, c in q.terms.items():
            arr[tuple(x - l for x, l in zip(e, lo))] = c
        return arr, lo

    def mul(a, alo, b, blo):
        assert (mod - 1) ** 2 * min(a.size, b.size) < 2**52
        out = np.rint(fftconvolve(a, b)).astype(np.int64) % mod
        return out.astype(np.float64), [x + y for x, y in zip(alo, blo)]

    base, blo = to_arr(poly.with_modulus(mod))
    arr = np.ones((1,) * poly.nvars, dtype=np.float64)
    lo = [0] * poly.nvars
    n = exponent
    while n:
        if n & 1:
            arr, lo = mul(arr, lo, base, blo)
        n >>= 1
        if n:
            base, blo = mul(base, blo, base, blo)
    terms = {}
    ints = arr.astype(np.int64)
    for idx in zip(*np.nonzero(ints)):
        e = tuple(int(idx[i]) + lo[i] for i in range(poly.nvars))
        terms[e] = int(ints[idx])
    return LaurentPoly(poly.nvars, terms, mod)


def test_fft_power_matches_exact_arithmetic():
    P, _ = preset("apery")
    assert _fft_power(P, 4, 27) == P.with_modulus(27).pow(4)
    assert _fft_power(parse_poly("x^-2 + 3*x"), 9, 8) == \
        parse_poly("x^-2 + 3*x").with_modulus(8).pow(9)


def test_criterion_07_stable_base_suite(corpus_polys, corpus_oracle_5000,
                                        apery_reference):
    # univariate presets and the seeded corpus: all exact, full depth
    for P in [preset(n)[0] for n in UNIVARIATE_PRESETS] + list(corpus_polys):
        for p in PRIMES:
            for a in EXPONENTS:
                mod = p**a
                tilde, ell = _tilde(P, p, a)
                assert tilde.pow(p) == tilde.dilate(p), (format_poly(P), p, a)
                again, ell2 = _tilde(tilde.lift(), p, a)
                assert again == tilde
                assert ell2 == (0 if a == 1 or again.is_constant() else a - 1)
    # subsequence identity for the corpus, n < 200, against the oracle
    for P, reference in zip(corpus_polys, corpus_oracle_5000):
        for p in PRIMES:
            for a in EXPONENTS:
                mod = p**a
                stride = p ** (a - 1)
                tilde, _ = _tilde(P, p, a)
                rep = LinRep(tilde.lift(), one, p, a)
                got = MorphicStream(rep).coded_prefix(rep.v0, 200)
                want = [reference[stride * n] % mod for n in range(200)]
                assert got == want, (format_poly(P), p, a)
    # univariate presets, same identity, straight off dedicated passes
    for name in UNIVARIATE_PRESETS:
        P, _ = preset(name)
        reference = oracle.sequence(P, one, BATCH_MOD, 5000)
        for p in PRIMES:
            for a in EXPONENTS:
                mod = p**a
                stride = p ** (a - 1)
                tilde, _ = _tilde(P, p, a)
                rep = LinRep(tilde.lift(), one, p, a)
                got = MorphicStream(rep).coded_prefix(rep.v0, 200)
                want = [reference[stride * n] % mod for n in range(200)]
                assert got == want, (name, p, a)
    _report("criterion 7 (stability, idempotence, subsequence; univariate)", True)


def test_criterion_07_stable_base_apery(apery_reference):
    P3, _ = preset("apery")
    three = LaurentPoly.one(3)
    for p, a in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 3)):
        mod = p**a
        tilde, ell = _tilde(P3, p, a)
        assert ell == 0
        # stability
        assert _fft_power(tilde.lift(), p, mod) == tilde.dilate(p), (p, a)
        # idempotence (p=5, a=3 needs tilde^25 over a 1251^3 box: infeasible,
        # and it already follows from stability plus the substitution identity)
        if (p, a) == (3, 3):
            again = _fft_power(tilde.lift(), p ** (a - 1), mod)
            assert again == tilde.dilate(p ** (a - 1))
        elif (p, a) != (5, 3):
            again, ell2 = _tilde(tilde.lift(), p, a)
            assert again == tilde and ell2 == a - 1, (p, a)
        # subsequence identity on the oracle prefix
        stride = p ** (a - 1)
        depth = (APERY_ORACLE_LEN - 1) // stride
        if len(tilde.terms) < 3000:
            rep = LinRep(tilde.lift(), three, p, a)
            got = MorphicStream(rep).coded_prefix(rep.v0, min(depth + 1, 200))
            want = [apery_reference[stride * n] % mod for n in range(len(got))]
            assert got == want, (p, a)
        else:
            # direct powers of the stable base, while the boxes stay small
            for n in range(1, 6):
                if stride * n >= APERY_ORACLE_LEN:
                    break
                assert _fft_power(tilde.lift(), n, mod).ct() == \
                    apery_reference[stride * n] % mod, (p, a, n)
    _report("criterion 7 (stable base for the apery preset)", True,
            "p=5 a=3 idempotence derived, not recomputed; see ledger")


def test_criterion_08_zero_conversion(corpus_polys):
    checked = 0
    for P in corpus_polys:
        for p in PRIMES:
            w = zero_witness(P, p)
            for a in (2, 3):
                tilde, _ = _tilde(P, p, a)
                wt = zero_witness(tilde.lift(), p)
                assert (w is None) == (wt is None), (format_poly(P), p, a)
                if w is not None:
                    assert LinRep(tilde.lift(), one, p, 1).eval_term(w) == 0
                checked += 1
    _report("criterion 8 (zero witness transfers to the stable base)", True,
            "%d instances" % checked)


def test_criterion_09_conjecture_scan():
    t0 = time.time()
    report = conjecture_scan(count=200, degree_max=3, coeff_max=3,
                             primes=PRIMES, seed=CORPUS_SEED + 2)
    elapsed = time.time() - t0
    assert len(report.items) == 600
    for item in report.items:
        assert item.status in ("witness", "no_zero", "inconclusive")
        if item.status == "witness":
            assert item.conforms == (item.witness < item.bound)
            # witnesses are re-verified against the brute-force oracle
            assert oracle.ct_pow_mod(item.poly, one, item.witness, item.p) == 0
    violations = report.violations
    ok = elapsed < 120.0
    _report("criterion 9 (bound scan, 200 polynomials x 3 primes)", ok,
            "%d witnesses, %d violations, %d inconclusive, %.1fs"
            % (sum(1 for i in report.items if i.status == "witness"),
               len(violations), len(report.inconclusive), elapsed))
    for item in violations:
        print("  finding: witness %d >= bound %d for p=%d, P = %s"
              % (item.witness, item.bound, item.p, format_poly(item.poly)))


def test_criterion_10_combination_fixtures():
    P, _ = preset("trinomial")
    Q = parse_poly("1 - x^2")
    got = combine(P, [(0, one, 1), (0, Q, 1)], 3, 1, 1000)
    want = oracle.sequence(P, one + Q, 3, 1000)
    assert got == want
    assert got[2] == 2
    got9 = combine(P, [(1, one, 2), (0, Q, 1)], 3, 2, 1000)
    t9 = oracle.sequence(P, one, 9, 1001)
    m9 = oracle.sequence(P, Q, 9, 1000)
    assert got9 == [(2 * t9[n + 1] + m9[n]) % 9 for n in range(1000)]
    _report("criterion 10 (linear combinations vs oracle, n<1000)", True)


def test_criterion_11_roundtrip_and_oracle_check():
    rng = random.Random(CORPUS_SEED + 3)
    from ctseq.textio import format_poly as fmt, parse_poly as parse

    for _ in range(500):
        nvars = rng.randint(1, 3)
        poly = random_poly(rng, nvars=nvars, degree_max=4, coeff_max=9)
        while not any(e[-1] for e in poly.terms):
            poly = random_poly(rng, nvars=nvars, degree_max=4, coeff_max=9)
        assert parse(fmt(poly)) == poly
    from ctseq.cli import main

    for name in UNIVARIATE_PRESETS + ("apery",):
        code = main(["oracle-check", "--poly", "@%s" % name, "-p", "3",
                     "-a", "2", "-n", "100"])
        assert code == 0, name
    _report("criterion 11 (500 round-trips; oracle-check green on presets)", True)


def test_criterion_12_determinism(tmp_path, capsys):
    from ctseq.cli import main

    outs = []
    for stem in ("one", "two"):
        path = tmp_path / (stem + ".aut")
        assert main(["export-dfao", "--poly", "@motzkin", "-p", "3",
                     "--format", "walnut", "--direction", "forward",
                     "-o", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()  # drain the export status lines
    captured = []
    for _ in range(2):
        assert main(["classify", "--poly", "@catalan", "-p", "2", "-a", "3",
                     "--json"]) == 0
        captured.append(capsys.readouterr().out)
    assert captured[0] == captured[1]
    json.loads(captured[0])
    _report("criterion 12 (byte-identical export and JSON)", True)
