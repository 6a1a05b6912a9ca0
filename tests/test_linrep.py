import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from ctseq import engines, linrep, oracle
from ctseq.classify import random_univariate
from ctseq.dfao import build_forward, build_reverse
from ctseq.errors import ResourceLimitError, RingMismatchError
from ctseq.laurent import LaurentPoly
from ctseq.linrep import (
    IndexSet,
    LinRep,
    SparseDigitMap,
    build_index,
    digits_lsd,
)
from ctseq.primepower import TildeReduction, build_reduction
from ctseq.textio import format_poly, parse_poly, preset

one = LaurentPoly.one(1)


def test_digits_lsd():
    assert digits_lsd(0, 3) == [0]
    assert digits_lsd(6, 3) == [0, 2]
    assert digits_lsd(11, 2) == [1, 1, 0, 1]


def test_negative_index_is_refused():
    # n < 0 has no base-p digits: refused, not an endless digit loop
    P, Q = preset("motzkin")
    rep = LinRep(P, Q, 3)
    for call in (lambda: digits_lsd(-1, 2), lambda: digits_lsd(-10**30, 7),
                 lambda: rep.eval_term(-1), lambda: rep.state_vector(-1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            call()


def test_build_index_motzkin():
    P, Q = preset("motzkin")
    index = build_index(P, [Q])
    assert (index.m, len(index), index.constant_index) == (2, 5, 2)
    assert index.vectors[0] == (-2,)
    assert index.vectors[index.constant_index] == (0,)


def test_build_index_window_of_one():
    P, _ = preset("pascal")
    index = build_index(P, [one])
    assert (index.m, len(index)) == (0, 1)
    P3, Q3 = preset("apery")
    index3 = build_index(P3, [Q3])
    assert (index3.m, len(index3)) == (0, 1)


def test_build_index_cap():
    P = parse_poly("x^40*y^40 + x^-40*y^-40")
    with pytest.raises(ResourceLimitError):
        build_index(P, [LaurentPoly.one(2)])


def test_index_set_order():
    index = IndexSet(2, 1)
    assert index.vectors[:3] == ((-1, -1), (-1, 0), (-1, 1))
    assert index.vectors[index.constant_index] == (0, 0)


def test_gamma_trinomial_digit_one():
    P, Q = preset("motzkin")  # same trinomial base, window radius 2
    rep = LinRep(P, Q, 3)
    g = rep.gamma(1)
    expected = {(-2, -1), (-1, 0), (0, 0), (1, 0), (2, 1)}
    pos = rep.index_set.position
    for i, ivec in enumerate(rep.index_set.vectors):
        for j, jvec in enumerate(rep.index_set.vectors):
            want = 1 if (ivec[0], jvec[0]) in expected else 0
            assert g[i, j] == want, (ivec, jvec)
    assert pos[(0,)] == 2


def test_gamma_zero_is_constant_unit():
    P, Q = preset("motzkin")
    rep = LinRep(P, Q, 3)
    g0 = np.asarray(rep.gamma(0))
    target = np.zeros_like(g0)
    target[2, 2] = 1
    assert np.array_equal(g0, target)


def test_gamma_window_of_one():
    P, _ = preset("pascal")
    rep = LinRep(P, one, 2)
    assert rep.gamma(0).tolist() == [[1]]
    assert rep.gamma(1).tolist() == [[0]]
    with pytest.raises(ValueError):
        rep.gamma(2)


def test_state_vector_trinomial():
    P, _ = preset("trinomial")
    rep = LinRep(P, parse_poly("1 - x^2"), 3)
    assert rep.state_vector(2).entries == (1, 2, 0, 2, 1)
    assert rep.state_vector(0).entries == tuple(int(x) for x in rep.v0)
    # digits of 6 are (0, 2) lsd-first, so V(6) = gamma(0) V(2)
    v6 = rep.gamma(0) @ rep.state_array(2) % 3
    assert rep.state_vector(6).entries == tuple(int(x) for x in v6)
    # cross-check against the expanded power
    p6 = P.with_modulus(3).pow(6)
    want = tuple(p6.coeff((-i,)) for i in range(-2, 3))
    assert rep.state_vector(6).entries == want


def test_state_vector_constant_entry():
    P, _ = preset("trinomial")
    rep = LinRep(P, one, 3)
    assert rep.state_vector(2).constant_entry == 0  # central trinomial 3 = 0 mod 3


def test_eval_term_fixtures():
    P, Q = preset("motzkin")
    rep = LinRep(P, Q, 3)
    assert rep.eval_term(2) == 2  # third Motzkin number
    assert rep.eval_term(0) == Q.ct() % 3
    Pc, Qc = preset("catalan")
    repc = LinRep(Pc, Qc, 2)
    assert repc.eval_term(3) == 1  # fourth Catalan number is 5


def test_settle_exponent():
    P, Q = preset("motzkin")
    assert LinRep(P, Q, 3).settle_exponent() == 1
    assert LinRep(preset("pascal")[0], one, 2).settle_exponent() == 1
    rep = LinRep(P, parse_poly("x^9 + x^-9"), 2)
    s = rep.settle_exponent()
    assert s <= 4
    g0 = np.asarray(rep.gamma(0))
    power = np.linalg.matrix_power(g0, s) % 2
    target = np.zeros_like(g0)
    c = rep.index_set.constant_index
    target[c, c] = 1
    assert np.array_equal(power, target)
    for extra in (1, 2):
        assert np.array_equal(np.linalg.matrix_power(g0, s + extra) % 2, target)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_settle_exponent_is_the_least(p):
    # Q = x^e moves the window radius across the powers of p
    rng = random.Random(16 + p)
    cases = [preset(name) for name in
             ("pascal", "catalan", "motzkin", "trinomial", "apery")]
    cases += [(random_univariate(rng, 4, 5),
               LaurentPoly.monomial(1, (rng.randint(-30, 30),)))
              for _ in range(40)]
    for P, Q in cases:
        rep = LinRep(P, Q, p)
        s = rep.settle_exponent()
        assert s == ref.settle_exponent(rep), (format_poly(P), format_poly(Q))
        if s > 1:
            c = rep.index_set.constant_index
            g0 = np.asarray(rep.gamma(0), dtype=np.int64)
            power = np.linalg.matrix_power(g0, s - 1) % p
            power[c, c] -= 1
            assert power.any(), (format_poly(P), format_poly(Q))


def test_digit_step_identity_presets():
    for name in ("pascal", "catalan", "motzkin", "trinomial"):
        P, Q = preset(name)
        for p in (2, 3):
            rep = LinRep(P, Q, p)
            vs = [rep.state_array(n) for n in range(p * 120 + p)]
            for n in range(120):
                for k in range(p):
                    got = rep.gamma(k) @ vs[n] % p
                    assert np.array_equal(got, vs[p * n + k]), (name, p, n, k)


def test_oracle_agreement_small():
    for name in ("pascal", "catalan", "motzkin", "trinomial"):
        P, Q = preset(name)
        for p in (2, 3, 5):
            rep = LinRep(P, Q, p)
            want = oracle.sequence(P, Q, p, 500)
            assert [rep.eval_term(n) for n in range(500)] == want, (name, p)
    P, Q = preset("apery")
    rep = LinRep(P, Q, 5)
    assert [rep.eval_term(n) for n in range(48)] == oracle.sequence(P, Q, 5, 48)


def test_row_column_duality():
    rng = random.Random(3)
    from conftest import random_poly

    cases = [preset("motzkin"), preset("catalan")]
    cases += [(random_poly(rng), random_poly(rng)) for _ in range(20)]
    for P, Q in cases:
        for p in (2, 3, 5):
            rep = LinRep(P, Q, p)
            Pm = P.with_modulus(p)
            state = Q.with_modulus(p)
            for k in range(p):
                lhs = rep.row_vector(state) @ rep.gamma(k) % p
                rhs = rep.row_vector(Pm.pow(k).mul(state).lambda_k(p))
                assert np.array_equal(lhs, rhs), (p, k)


def test_degree_closure_under_iteration():
    rng = random.Random(4)
    from conftest import random_poly

    P = random_poly(rng, degree_max=3)
    Q = random_poly(rng, degree_max=3)
    p = 3
    m = build_index(P, [Q]).m
    state = Q.with_modulus(p)
    Pm = P.with_modulus(p)
    powers = [Pm.pow(k) for k in range(p)]
    for _ in range(200):
        k = rng.randrange(p)
        state = powers[k].mul(state).lambda_k(p)
        assert state.degree() <= m


def test_trailing_zero_invariance():
    P, Q = preset("motzkin")
    rep = LinRep(P, Q, 3)
    for n in (0, 1, 5, 19, 100):
        base = digits_lsd(n, 3)
        value = rep.eval_digits(base)
        for pad in (1, 2, 5):
            assert rep.eval_digits(base + [0] * pad) == value


def test_row_vector_validation():
    P, Q = preset("motzkin")
    rep = LinRep(P, Q, 3)
    with pytest.raises(RingMismatchError):
        rep.row_vector(parse_poly("x^9"))
    with pytest.raises(RingMismatchError):
        rep.row_vector(parse_poly("x*y"))


def test_digit_cap():
    P, Q = preset("pascal")
    rep = LinRep(P, Q, 103)
    assert rep.eval_term(5) is not None  # single digits build lazily
    with pytest.raises(ResourceLimitError):
        rep.all_gammas()


def test_power_chain_exact_near_the_int64_modulus_limit():
    # residues near 2^31 times three terms pass 2^63 within one chain step
    P = parse_poly("-x^-1 - 1 - x")
    p = 2147483647
    rep = LinRep(P, one, p)
    for n in (0, 1, 2, 30, p + 30):
        want = 1
        for d in digits_lsd(n, p):  # Lucas: the digits multiply
            want = want * oracle.ct_pow_mod(P, one, d, p) % p
        assert rep.eval_term(n) == want, n


def test_gamma_threads_share_one_build(monkeypatch):
    # ten threads race for the digit matrices of one fresh instance, each
    # asking for the digits in a different order; every answer must equal
    # a single-thread build.  The second pass forces sparse maps, whose
    # two layouts are built under the same lock.
    P = parse_poly("x^-3 + 2*x^-1 + 1 + x^2 + 3*x^3")
    want = LinRep(P, one, 11).all_gammas()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for sparse in (False, True):
            if sparse:
                monkeypatch.setattr(linrep, "_SPARSE_WINDOW", 0)
            for trial in range(30):
                rep = LinRep(P, one, 11)
                start = threading.Barrier(10, timeout=60)
                got = [None] * 10

                def work(t):
                    start.wait()
                    order = [(t + s) % 11 for s in range(11)]
                    got[t] = {k: rep.gamma(k) for k in order}

                threads = [threading.Thread(target=work, args=(t,)) for t in range(10)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                for t, built in enumerate(got):
                    for k, g in built.items():
                        assert isinstance(g, SparseDigitMap) == sparse
                        assert g is got[0][k], (sparse, trial, t, k)
                        assert np.array_equal(np.asarray(g), want[k]), (trial, t, k)
    finally:
        sys.setswitchinterval(interval)


def _expected_gammas(P, p, mod, index):
    """gamma(k)[i, j] = ct(P^k x^(i - p*j)) mod p^a, read off the oracle."""
    vecs = np.array(index.vectors, dtype=np.int64)
    wanted = p * vecs[None, :, :] - vecs[:, None, :]  # [i, j] -> p*j - i
    out = []
    for k in range(p):
        terms = oracle.power_terms(P, k, mod)
        exps = np.array(list(terms), dtype=np.int64).reshape(-1, P.nvars)
        low = exps.min(axis=0)
        dense = np.zeros(exps.max(axis=0) - low + 1, dtype=np.int64)
        dense[tuple((exps - low).T)] = list(terms.values())
        at = wanted - low
        inside = ((at >= 0) & (at < dense.shape)).all(axis=-1)
        g = np.zeros(inside.shape, dtype=np.int64)
        g[inside] = dense[tuple(at[inside].T)]
        out.append(g)
    return out


@st.composite
def _digit_cases(draw):
    r = draw(st.integers(1, 3))
    span = (3, 2, 2)[r - 1]
    exps = st.tuples(*[st.integers(-span, span)] * r)
    terms = draw(st.dictionaries(exps, st.integers(1, 6), min_size=1,
                                 max_size=(6, 5, 4)[r - 1]))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    return LaurentPoly(r, terms), p, draw(st.integers(0, p - 1))


@settings(max_examples=40, deadline=None)
@given(_digit_cases())
def test_gamma_matches_definition(case):
    P, p, lazy_digit = case
    rep = LinRep(P, LaurentPoly.one(P.nvars), p)
    vecs = rep.index_set.vectors
    gammas = rep.all_gammas()
    for k in range(p):
        for a, i in enumerate(vecs):
            for b, j in enumerate(vecs):
                shift = LaurentPoly(P.nvars, {tuple(x - p * y for x, y in zip(i, j)): 1})
                assert gammas[k][a, b] == oracle.ct_pow_mod(P, shift, k, p), (k, i, j)
    # one digit first, then every digit upwards: the first builds every
    # matrix through its digit, and the power chain extends above its guard
    lazy = LinRep(P, LaurentPoly.one(P.nvars), p)
    order = [lazy_digit] + list(range(p))
    for k in order:
        g = lazy.gamma(k)
        assert g.dtype == gammas[k].dtype
        assert g.tobytes() == gammas[k].tobytes(), k


@pytest.mark.parametrize("p,a", [(2, 3), (5, 2)])
def test_gamma_matches_definition_apery_stable_base(p, a):
    P, Q = preset("apery")
    red = build_reduction(P, Q, p, a)
    rep = red.tilde_rep
    mod = p**a
    gammas = rep.all_gammas()
    want = _expected_gammas(red.p_tilde, p, mod, rep.index_set)
    for k in range(p):
        assert np.array_equal(gammas[k], want[k]), k
    # entries against ct_pow_mod itself where one multiplication suffices
    rng = random.Random(p)
    vecs = rep.index_set.vectors
    for _ in range(40):
        row, col = rng.randrange(len(vecs)), rng.randrange(len(vecs))
        e = tuple(x - p * y for x, y in zip(vecs[row], vecs[col]))
        shift = LaurentPoly(3, {e: 1})
        assert gammas[1][row, col] == oracle.ct_pow_mod(red.p_tilde, shift, 1, mod)
    lazy = build_reduction(P, Q, p, a).tilde_rep.gamma(p - 1)
    assert lazy.tobytes() == gammas[p - 1].tobytes()


@st.composite
def _batch_cases(draw):
    r = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(-2, 2)] * r)
    coeffs = st.integers(-4, 4).filter(bool)
    P = LaurentPoly(r, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4)))
    Q = LaurentPoly(r, draw(st.dictionaries(exps, coeffs, max_size=3)))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    # two variables mod 125 or 343 overflow the window cap
    a = draw(st.integers(1, 2 if r == 2 and p > 3 else 3))
    ns = draw(st.lists(st.one_of(st.integers(0, 60), st.integers(0, 2**40)),
                       max_size=30).map(lambda ns: ns + [0]))
    return P, Q, p, a, draw(st.permutations(ns + ns[:3]))


@settings(max_examples=40, deadline=None)
@given(_batch_cases())
def test_terms_batch_matches_term(case):
    # unsorted indices with duplicates, 0 and 41-bit entries: every batched
    # value equals the per-index digit product
    P, Q, p, a, ns = case
    red = build_reduction(P, Q, p, a)
    assert red.terms(ns) == [red.term(n) for n in ns]
    assert red.terms([]) == []


def test_terms_batch_longer_than_one_chunk():
    from ctseq.primepower import _TERMS_CHUNK

    P, Q = preset("catalan")
    red = build_reduction(P, Q, 3, 2)
    ns = list(range(2 * _TERMS_CHUNK + 17)) + [3**25 + 5, 7]
    assert red.terms(iter(ns)) == [red.term(n) for n in ns]
    assert red.terms(range(60)) == oracle.sequence(P, Q, 9, 60)


def test_terms_batch_second_coding():
    P, Q = preset("motzkin")
    red = TildeReduction(P, [Q, one, parse_poly("x^-1 + 3")], 2, 3)
    ns = [9, 0, 2**40 + 3, 9, 1, 255]
    for which in (1, 2):
        assert red.terms(ns, which=which) == [red.term(n, which) for n in ns]
    assert red.terms(range(40), which=1) == oracle.sequence(P, one, 8, 40)


def test_terms_batch_rejects_bad_indices():
    P, Q = preset("trinomial")
    red = build_reduction(P, Q, 3, 1)
    with pytest.raises(ValueError):
        red.terms([1, -1])
    with pytest.raises(ValueError):
        red.terms([2**63])
    assert red.terms([2**63 - 1]) == [red.term(2**63 - 1)]


@pytest.mark.parametrize("engine", engines.ENGINE_NAMES)
def test_every_engine_refuses_negative_count(engine):
    P, Q = preset("motzkin")
    with pytest.raises(ValueError, match="count must be >= 0"):
        engines.sequence(P, Q, 3, 2, -3, engine)
    assert engines.sequence(P, Q, 3, 2, 0, engine) == []


@pytest.mark.parametrize("engine", ["morphism", "dfao-reverse"])
@pytest.mark.parametrize("a", [1, 2])
def test_morphism_reads_the_reductions_stream(a, engine):
    # both names are aliases of primepower: they grow the reduction's own stream
    P, Q = preset("motzkin")
    p, n = 3, 300
    red = build_reduction(P, Q, p, a)
    got = engines.sequence(P, Q, p, a, n, engine, red=red)
    assert len(red.stream()) >= math.ceil(n / red.block_count)
    assert got == engines.sequence(P, Q, p, a, n, "primepower", red=red)
    assert got == oracle.sequence(P, Q, p**a, n)


def _all_outputs(P, Q, p, a, ns):
    """The reduction plus what every engine, terms, term, both automaton
    exports and settle_exponent give for it."""
    red = build_reduction(P, Q, p, a)
    out = {e: engines.sequence(P, Q, p, a, 40, e, red=red)
           for e in ("linrep", "dfao", "dfao-reverse", "morphism", "primepower")}
    out["terms"] = red.terms(ns)
    out["term"] = [red.term(n) for n in ns]
    out["settle"] = red.tilde_rep.settle_exponent()
    builds = {
        "forward": lambda: build_forward(red.p_tilde, red.reduced_codings[0][0], p,
                                         p**a, state_cap=2000, rep=red.tilde_rep),
        "reverse": lambda: build_reverse(red.tilde_rep, state_cap=2000),
    }
    for name, build in builds.items():
        try:
            machine = build()
        except ResourceLimitError:
            out[name] = "over cap"
        else:
            out[name] = (machine.export("walnut"), machine.export("dot"))
    return red, out


@st.composite
def _sparse_cases(draw):
    r = draw(st.integers(1, 3))
    span = (2, 1, 1)[r - 1]
    exps = st.tuples(*[st.integers(-span, span)] * r)
    coeffs = st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4))
    P = LaurentPoly(r, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4)))
    Q = LaurentPoly(r, draw(st.dictionaries(exps, coeffs, max_size=3)))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    # deg P~ can reach p^(a-1) deg P; keep the window near 125 entries
    bound = lambda a: (2 * p ** (a - 1) * max(P.degree(), 1) + 1) ** r
    a = draw(st.sampled_from([a for a in (1, 2, 3) if a == 1 or bound(a) <= 130]))
    ns = draw(st.lists(st.integers(0, 2**40), max_size=8))
    return P, Q, p, a, ns + [0, 1, p**a + 1]


def _assert_layouts_match(g, d):
    """The column and row layouts of g hold exactly the nonzeros of the
    dense matrix d: every array, its dtype and its read-only flag."""
    assert isinstance(g, SparseDigitMap) and g.dtype == d.dtype
    for layout, m in ((g._csc, d.T), (g._csr, d)):
        majors, minors = np.nonzero(m)
        counts = np.bincount(majors, minlength=len(m))
        at = np.flatnonzero(counts)
        want = (at, (np.cumsum(counts) - counts)[at], minors, m[majors, minors])
        for got, w in zip(layout, want):
            assert got.dtype == w.dtype and np.array_equal(got, w)
            assert not got.flags.writeable


@settings(max_examples=60, deadline=None)
@given(_sparse_cases())
def test_sparse_map_layouts_match_dense(case):
    # maps built from the nonzeros of P~^k against the strided gather
    P, Q, p, a, _ = case
    dense = build_reduction(P, Q, p, a).tilde_rep.all_gammas()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linrep, "_SPARSE_WINDOW", 0)
        sparse = build_reduction(P, Q, p, a).tilde_rep.all_gammas()
    for g, d in zip(sparse, dense):
        assert isinstance(d, np.ndarray)
        _assert_layouts_match(g, d)


@settings(max_examples=40, deadline=None)
@given(_sparse_cases())
def test_sparse_maps_match_dense(case):
    P, Q, p, a, ns = case
    dense, want = _all_outputs(P, Q, p, a, ns)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linrep, "_SPARSE_WINDOW", 0)
        sparse, got = _all_outputs(P, Q, p, a, ns)
    assert got == want
    mod, n = p**a, len(dense.tilde_rep.index_set)
    rng = np.random.default_rng(n * mod)
    for g, d in zip(sparse.tilde_rep.all_gammas(), dense.tilde_rep.all_gammas()):
        assert isinstance(g, SparseDigitMap) and isinstance(d, np.ndarray)
        as_dense = np.asarray(g)
        assert as_dense.dtype == d.dtype and as_dense.tobytes() == d.tobytes()
        assert (g.shape, g.dtype, g.size) == (d.shape, d.dtype, d.size)
        assert g.nnz == np.count_nonzero(d)
        for x in (rng.integers(0, mod, n), rng.integers(0, mod, (3, n)).astype(d.dtype)):
            for left, right in ((x @ g, x @ d), (g @ x.T, d @ x.T)):
                assert left.dtype == right.dtype and np.array_equal(left, right)


def test_sparse_map_without_entries(monkeypatch):
    # gamma(1) of P = x on a one-entry window is the zero matrix
    monkeypatch.setattr(linrep, "_SPARSE_WINDOW", 0)
    rep = LinRep(parse_poly("x"), one, 2)
    g = rep.gamma(1)
    assert isinstance(g, SparseDigitMap) and g.nnz == 0
    assert np.asarray(g).tolist() == [[0.0]]
    for x in (np.array([3.0]), np.array([[3.0], [1.0]])):
        assert np.array_equal(x @ g, np.zeros_like(x))
        assert np.array_equal(g @ x.T, np.zeros_like(x.T))
    with pytest.raises(ValueError):
        np.ones(2) @ g
    assert g.tobytes() == rep.gamma(1).tobytes()
    _assert_layouts_match(g, np.zeros((1, 1)))
    assert [rep.eval_term(n) for n in range(5)] == [1, 0, 0, 0, 0]  # ct(x^n)


def test_sparse_products_in_row_blocks_and_chunks(monkeypatch):
    # tiny blocks and chunks, so 2-D products cross row blocks and chunks
    # of one or several columns
    cases = [("motzkin", 3, 2), ("catalan", 2, 3), ("apery", 2, 1)]
    dense = [LinRep(*preset(name), p, a).all_gammas() for name, p, a in cases]
    monkeypatch.setattr(linrep, "_SPARSE_WINDOW", 0)
    monkeypatch.setattr(linrep, "_ROW_BLOCK", 3)
    rng = np.random.default_rng(5)
    for (name, p, a), ds in zip(cases, dense):
        for g, d in zip(LinRep(*preset(name), p, a).all_gammas(), ds):
            assert isinstance(g, SparseDigitMap)
            n = d.shape[0]
            for entries in (3, 16, 2**16):
                monkeypatch.setattr(linrep, "_BLOCK_ENTRIES", entries)
                for rows in (1, 2, 3, 4, 7, 10):
                    x = rng.integers(0, p**a, (rows, n)).astype(d.dtype)
                    assert np.array_equal(x @ g, x @ d), (name, rows, entries)
                    assert np.array_equal(g @ x.T, d @ x.T), (name, rows, entries)


def test_sparse_maps_on_the_int64_route(monkeypatch):
    # the setup of test_power_chain_exact_near_the_int64_modulus_limit,
    # with every digit matrix a sparse int64 map
    P = parse_poly("-x^-1 - 1 - x")
    p = 2147483647
    digits = (0, 1, 2, 30)
    dense = [LinRep(P, one, p).gamma(k) for k in digits]
    monkeypatch.setattr(linrep, "_SPARSE_WINDOW", 0)
    rep = LinRep(P, one, p)
    for n in (0, 1, 2, 30, p + 30):
        want = 1
        for d in digits_lsd(n, p):  # Lucas: the digits multiply
            want = want * oracle.ct_pow_mod(P, one, d, p) % p
        assert rep.eval_term(n) == want, n
    x = np.array([p - 1], dtype=np.int64)
    for k, d in zip(digits, dense):
        g = rep.gamma(k)
        assert isinstance(g, SparseDigitMap) and g.dtype == np.int64
        assert np.asarray(g).tobytes() == d.tobytes()
        _assert_layouts_match(g, d)
        assert np.array_equal(x @ g, x @ d) and np.array_equal(g @ x, d @ x)
    # a three-entry window whose sums of products near 3 * 2^60 stay exact
    q, Q3 = 1000000007, parse_poly("x^-1 + x")
    ns = (5, q + 2, 7 * q * q + q + 1)
    rep3 = LinRep(P, Q3, q)
    terms = [rep3.eval_term(n) for n in ns]
    monkeypatch.setattr(linrep, "_SPARSE_WINDOW", 10**9)
    dense3 = LinRep(P, Q3, q)
    assert terms == [dense3.eval_term(n) for n in ns]
    x = np.full((2, 3), q - 1, dtype=np.int64)
    for k in (1, 2, 7):
        g, d = rep3.gamma(k), dense3.gamma(k)
        assert isinstance(g, SparseDigitMap) and g.dtype == d.dtype == np.int64
        assert isinstance(d, np.ndarray)
        _assert_layouts_match(g, d)
        assert np.array_equal(x @ g, x @ d) and np.array_equal(g @ x.T, d @ x.T)


def test_digit_map_keys_fit_int64_for_every_accepted_window():
    # the widest window LinRep accepts, at the largest modulus it accepts
    # there: n (q - 1)^2 < 2^62 for n = 4999
    m = (linrep.DEFAULT_WINDOW_CAP - 1) // 2
    n, P = 2 * m + 1, LaurentPoly(1, {(m + 1,): 1, (-m - 1,): 1})
    q = math.isqrt((2**62 - 1) // n) + 1
    assert len(LinRep(P, one, q).index_set) == n
    with pytest.raises(ResourceLimitError, match="int64"):
        LinRep(P, one, q + 1)
    b, c = linrep._key_bits(n, q)
    assert (b, c) == (13, 25)
    # the largest key there packs entry (n - 1, n - 1) = q - 1 and unpacks
    g = SparseDigitMap(np.array([((n - 1 << b | n - 1) << c) + q - 1]), n, q, np.int64)
    for layout in (g._csc, g._csr):
        assert [a.tolist() for a in layout] == [[n - 1], [0], [n - 1], [q - 1]]
    # n^2 q grows with n at the modulus limit, and every window fits
    for size in range(1, linrep.DEFAULT_WINDOW_CAP + 1):
        b, c = linrep._key_bits(size, math.isqrt((2**62 - 1) // size) + 1)
        assert 2 * b + c <= 63
    with pytest.raises(AssertionError, match="overflow"):
        linrep._key_bits(n, 2**38)


def test_apery_mod_27_digit_maps_are_sparse():
    # apery-window's largest window goes sparse; the 343- and 729-entry
    # windows stay dense
    P, Q = preset("apery")
    red = build_reduction(P, Q, 3, 3)
    rep = red.tilde_rep
    assert len(rep.index_set) == 4913 > linrep._SPARSE_WINDOW
    gammas = rep.all_gammas()
    assert all(isinstance(g, SparseDigitMap) for g in gammas)
    assert [g.nnz for g in gammas] == [125, 371520, 1613050]
    assert sum(g.nbytes for g in gammas) < 0.15 * sum(g.size * 8 for g in gammas)
    for p, a in ((2, 3), (5, 2)):
        small = build_reduction(P, Q, p, a).tilde_rep
        assert len(small.index_set) <= linrep._SPARSE_WINDOW
        assert all(isinstance(g, np.ndarray) for g in small.all_gammas())
    # entries against ct_pow_mod, read off products with unit vectors: two
    # nonzero entries and one random entry in each of eight random rows
    rng = random.Random(27)
    vecs = rep.index_set.vectors
    for _ in range(8):
        row = rng.randrange(len(vecs))
        at_row = np.zeros(len(vecs))
        at_row[row] = 1
        line = at_row @ gammas[1]
        nonzero = np.flatnonzero(line).tolist()
        for col in rng.sample(nonzero, min(2, len(nonzero))) + [rng.randrange(len(vecs))]:
            at_col = np.zeros(len(vecs))
            at_col[col] = 1
            e = tuple(x - 3 * y for x, y in zip(vecs[row], vecs[col]))
            want = oracle.ct_pow_mod(red.p_tilde, LaurentPoly(3, {e: 1}), 1, 27)
            assert line[col] == want == (gammas[1] @ at_col)[row], (row, col)
    assert red.terms([0, 5, 3**39 + 7]) == [red.term(n) for n in (0, 5, 3**39 + 7)]
