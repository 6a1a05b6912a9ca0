import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from ctseq import oracle, primepower
from ctseq._dense import DenseChain
from ctseq.errors import ResourceLimitError, RingMismatchError
from ctseq.laurent import LaurentPoly
from ctseq.linrep import LinRep
from ctseq.morphism import MorphicStream
from ctseq.primepower import TildeReduction, build_reduction, reduce_p_tilde
from ctseq.textio import parse_poly, preset

one = LaurentPoly.one(1)


def test_reduce_pascal_mod4():
    P, _ = preset("pascal")
    tilde, ell = reduce_p_tilde(P, 2, 2)
    assert ell == 1
    assert tilde == parse_poly("x^-1 + 2 + x").with_modulus(4)


def test_reduce_at_exponent_one_is_identity():
    for text in ("x^-1 + x", "x^2 + x^-2", "3*x^3 - x"):
        P = parse_poly(text)
        tilde, ell = reduce_p_tilde(P, 2, 1)
        assert (tilde, ell) == (P.with_modulus(2), 0)


def test_reduce_constant_power():
    P = parse_poly("1 + 2*x")
    tilde, ell = reduce_p_tilde(P, 2, 2)  # (1+2x)^2 = 1+4x+4x^2 = 1 mod 4
    assert (tilde, ell) == (LaurentPoly.one(1, 4), 0)


def test_reduce_stability_fixtures():
    for name in ("pascal", "catalan", "motzkin", "trinomial"):
        P, _ = preset(name)
        for p in (2, 3):
            for a in (2, 3):
                mod = p**a
                tilde, _ = reduce_p_tilde(P, p, a)
                assert tilde.pow(p) == tilde.dilate(p), (name, p, a)


def test_reduce_idempotence():
    rng = random.Random(11)
    from conftest import random_poly

    for _ in range(25):
        P = random_poly(rng)
        for p in (2, 3):
            for a in (1, 2, 3):
                tilde, _ = reduce_p_tilde(P, p, a)
                again, ell2 = reduce_p_tilde(tilde.lift(), p, a)
                assert again == tilde
                if a == 1 or again.is_constant():
                    assert ell2 == 0
                else:
                    assert ell2 == a - 1


def test_block_rows_pascal():
    P, _ = preset("pascal")
    red = build_reduction(P, one, 2, 2)
    assert red.block_count == 2
    assert red.ell == 1
    assert [list(r) for r in red.block_rows] == [[1], [0]]


def test_single_block_at_exponent_one():
    P, Q = preset("motzkin")
    red = build_reduction(P, Q, 3, 1)
    assert red.block_count == 1
    assert red.p_tilde == P.with_modulus(3)
    rep = LinRep(P, Q, 3)
    assert red.prefix(60) == MorphicStream(rep).coded_prefix(rep.row_Q, 60)


def test_motzkin_blocks_mod9():
    P, Q = preset("motzkin")
    red = build_reduction(P, Q, 3, 2)
    assert len(red.block_rows) == 3
    want = oracle.sequence(P, Q, 9, 120)
    assert [red.term(n) for n in range(120)] == want


def test_term_fixtures_pascal_mod4():
    P, _ = preset("pascal")
    red = build_reduction(P, one, 2, 2)
    assert red.term(4) == 2  # binomial(4, 2) = 6
    assert red.term(0) == 1
    assert red.term(1) == 0


def test_prefix_pascal_mod4():
    P, _ = preset("pascal")
    red = build_reduction(P, one, 2, 2)
    assert red.prefix(8) == [1, 0, 2, 0, 2, 0, 0, 0]


def test_prefix_catalan_mod9():
    P, Q = preset("catalan")
    red = build_reduction(P, Q, 3, 2)
    assert red.prefix(5) == [1, 1, 2, 5, 5]


def test_prefix_matches_term():
    P, Q = preset("catalan")
    red = build_reduction(P, Q, 2, 3)
    assert red.prefix(100) == [red.term(n) for n in range(100)]


def test_subsequence_identity_univariate():
    for name in ("pascal", "catalan", "trinomial"):
        P, _ = preset(name)
        for p, a in ((2, 2), (2, 3), (3, 2)):
            mod = p**a
            tilde, _ = reduce_p_tilde(P, p, a)
            stride = p ** (a - 1)
            full = oracle.sequence(P, one, mod, 60 * stride + 1)
            tilde_cts = oracle.sequence(tilde.lift(), one, mod, 61)
            assert tilde_cts == full[::stride][:61], (name, p, a)


def test_zero_conversion_shares_witness():
    # p | ct(P^n) for some n iff the same holds for the stable base
    from conftest import random_poly
    from ctseq.classify import zero_witness

    rng = random.Random(12)
    for _ in range(15):
        P = random_poly(rng)
        for p in (2, 3):
            for a in (2, 3):
                tilde, _ = reduce_p_tilde(P, p, a)
                w = zero_witness(P, p)
                wt = zero_witness(tilde.lift(), p)
                assert (w is None) == (wt is None), (P.terms, p, a)
                if w is not None:
                    # the original witness index also lands on a zero of the base
                    assert LinRep(tilde.lift(), one, p, 1).eval_term(w) == 0


def test_term_against_oracle_all_presets():
    for name in ("pascal", "catalan", "motzkin", "trinomial"):
        P, Q = preset(name)
        for p in (2, 3):
            for a in (1, 2, 3):
                mod = p**a
                red = build_reduction(P, Q, p, a)
                want = oracle.sequence(P, Q, mod, 150)
                assert [red.term(n) for n in range(150)] == want, (name, p, a)


def test_apery_reduction_small():
    P, Q = preset("apery")
    red = build_reduction(P, Q, 2, 2)
    want = oracle.sequence(P, Q, 4, 40)
    assert red.prefix(40) == want
    # the squared base has degree 2, so the window grows to [-1,1]^3
    assert red.p_tilde.degree() == 2
    assert len(red.tilde_rep.index_set) == 27


def test_block_cap():
    P, _ = preset("pascal")
    with pytest.raises(ResourceLimitError):
        TildeReduction(P, [one], 2, 20)


def test_oversized_window_refused_before_any_coding_chain(monkeypatch):
    # deg P~ - 1 = 24 alone puts the Apery window mod 125 at 49^3 = 117,649
    # entries, so the refusal must come before the coding chains run
    def no_chain(*args, **kwargs):
        raise AssertionError("coding chain built before the window check")

    monkeypatch.setattr(primepower, "DenseChain", no_chain)
    P, Q = preset("apery")
    with pytest.raises(ResourceLimitError, match="window size 117649"):
        build_reduction(P, Q, 5, 3)


@pytest.mark.parametrize("a", [1, 2])
@pytest.mark.parametrize("P, Q", [("x^-1+1+x", "x*y+1"), ("x*y+1+x^-1", "x+1")])
def test_mismatched_variable_counts_refused(P, Q, a):
    with pytest.raises(RingMismatchError, match="variable counts differ"):
        build_reduction(parse_poly(P), parse_poly(Q), 2, a)


def test_letter_stream_threads_share_one_stream():
    # eight threads read prefixes of different lengths off one fresh
    # reduction; the stream is created once and grown by one thread at a
    # time, so every prefix equals the single-thread one
    P, Q = preset("motzkin")
    want = build_reduction(P, Q, 3, 2).prefix(5000 + 2000 * 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            red = build_reduction(P, Q, 3, 2)
            start = threading.Barrier(8, timeout=60)
            got = [None] * 8
            streams = [None] * 8

            def work(i):
                start.wait()
                streams[i] = red.stream()
                got[i] = red.prefix(5000 + 2000 * i)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert all(s is streams[0] for s in streams), trial
            for i, values in enumerate(got):
                assert values == want[:5000 + 2000 * i], (trial, i)
    finally:
        sys.setswitchinterval(interval)


@st.composite
def _chains(draw):
    r = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-(4 - r), 4 - r)] * r)
    coeffs = st.integers(-30, 30)
    P = LaurentPoly(r, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=5)))
    start = LaurentPoly(r, draw(st.dictionaries(exps, coeffs, max_size=4)))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    return P, start, p, p ** draw(st.integers(1, 3)), draw(st.integers(0, 5))


@settings(max_examples=60, deadline=None)
@given(_chains())
def test_chain_sections_match_per_cell_loop(case):
    # every value of the chain is start * P^s, and each section of it,
    # terms in order, is what the per-cell loop reads off the same array
    P, start, p, mod, steps = case
    chain = DenseChain(start, P, steps, mod)
    want = start.with_modulus(mod)
    for s in range(steps + 1):
        if s:
            chain.step()
            want = want.mul(P.with_modulus(mod))
        for k in (1, p, p * p):
            got = chain.section_poly(k)
            assert got == want.lambda_k(k), (s, k)
            assert list(got.terms.items()) == list(ref.section_poly(chain, k).terms.items())
