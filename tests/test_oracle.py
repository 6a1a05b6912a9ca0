import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctseq import oracle
from ctseq.errors import ResourceLimitError
from ctseq.laurent import LaurentPoly
from ctseq.oracle import (
    _sequence_dense_halving,
    _sequence_dense_running,
    _sequence_dicts,
    ct_pow_mod,
    sequence,
)
from ctseq.textio import parse_poly, preset

one = LaurentPoly.one(1)


def _bounds(*polys):
    """The exponent bounds that sequence hands the dense routes."""
    return [oracle._bounds(f.terms, f.nvars) for f in polys]


def test_catalan_mod9():
    P, Q = preset("catalan")
    assert ct_pow_mod(P, Q, 4, 9) == 5  # the fifth Catalan number is 14


def test_index_zero_reads_q():
    P, Q = preset("catalan")
    assert ct_pow_mod(P, Q, 0, 9) == Q.ct() % 9


def test_apery_first_power():
    P, Q = preset("apery")
    assert ct_pow_mod(P, Q, 1, 7) == 5


def test_sequence_motzkin():
    P, Q = preset("motzkin")
    assert sequence(P, Q, 3, 6) == [1, 1, 2, 1, 0, 0]


def test_sequence_zero_coding():
    P, _ = preset("motzkin")
    assert sequence(P, LaurentPoly.zero(1), 3, 10) == [0] * 10


def test_sequence_trinomial_odd():
    P, _ = preset("trinomial")
    assert sequence(P, one, 2, 8) == [1] * 8


def test_incremental_matches_single_terms():
    P, Q = preset("catalan")
    seq = sequence(P, Q, 8, 40)
    rng = random.Random(5)
    for _ in range(8):
        n = rng.randrange(40)
        assert seq[n] == ct_pow_mod(P, Q, n, 8)


def test_dense_univariate_matches_dicts():
    rng = random.Random(6)
    from conftest import random_poly

    for _ in range(20):
        P = random_poly(rng)
        Q = random_poly(rng, nonzero=False)
        mod = rng.choice([2, 4, 9, 25, 27, 30030])
        fast = sequence(P, Q, mod, 60)
        slow = _sequence_dicts(P.with_modulus(mod), Q.with_modulus(mod), mod, 60,
                               term_guard=10**6)
        assert fast == slow


def test_dense_halving_matches_dicts():
    rng = random.Random(7)
    from conftest import random_poly

    for nvars in (2, 3):
        for _ in range(6):
            P = random_poly(rng, nvars=nvars, degree_max=1)
            Q = random_poly(rng, nvars=nvars, degree_max=1, nonzero=False)
            mod = rng.choice([4, 9, 8, 27])
            Pm, Qm = P.with_modulus(mod), Q.with_modulus(mod)
            fast = _sequence_dense_halving(Pm, Qm, mod, 25, *_bounds(Pm, Qm))
            slow = _sequence_dicts(Pm, Qm, mod, 25, term_guard=10**6)
            assert fast == slow


def test_halving_handles_sparse_support():
    # coefficient support with a hole around the origin
    P = parse_poly("x^2*y^-1 + x^-2*y")
    Q = parse_poly("x*y + 1")
    mod = 9
    Pm, Qm = P.with_modulus(mod), Q.with_modulus(mod)
    fast = _sequence_dense_halving(Pm, Qm, mod, 20, *_bounds(Pm, Qm))
    slow = _sequence_dicts(Pm, Qm, mod, 20, term_guard=10**6)
    assert fast == slow


def test_power_terms_match_ct_pow_mod():
    rng = random.Random(8)
    from conftest import random_poly

    for nvars in (1, 2, 3):
        for _ in range(5):
            P = random_poly(rng, nvars=nvars, degree_max=1)
            mod = rng.choice([2, 4, 9, 25])
            n = rng.randrange(5)
            dense = oracle.power_terms(P, n, mod)
            dicts = oracle.power_terms(P, n, mod, dense_cells=0)
            assert dense == dicts
            for e in {tuple(rng.randint(-n, n) for _ in range(nvars))
                      for _ in range(10)} | set(dense):
                shift = LaurentPoly(nvars, {tuple(-x for x in e): 1})
                assert dense.get(e, 0) == ct_pow_mod(P, shift, n, mod)


def test_apery_against_reference_values():
    # 1, 5, 73, 1445, 33001, 819005, ... reduced mod 27000
    P, Q = preset("apery")
    assert sequence(P, Q, 27000, 6) == [1, 5, 73, 1445, 6001, 9005]


def test_composite_modulus_reduces_consistently():
    P, Q = preset("catalan")
    big = sequence(P, Q, 27000, 50)
    for mod in (2, 4, 8, 3, 9, 27, 5, 25, 125):
        assert [x % mod for x in big] == sequence(P, Q, mod, 50)


def test_max_n_guard():
    P, Q = preset("pascal")
    with pytest.raises(ResourceLimitError):
        ct_pow_mod(P, Q, 10**7, 2)
    with pytest.raises(ResourceLimitError):
        sequence(P, Q, 2, 10**7)


def test_term_guard_on_multivariate_growth():
    P, Q = preset("apery")
    with pytest.raises(ResourceLimitError):
        sequence(P, Q, 4, 2000, term_guard=500, dense_cells=10)


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        ct_pow_mod(parse_poly("x"), parse_poly("x*y"), 2, 3)


def _small_poly(nvars, nonzero):
    exponents = st.tuples(*[st.integers(-1, 1)] * nvars)
    return st.dictionaries(exponents, st.integers(-3, 3), max_size=6).map(
        lambda terms: LaurentPoly(nvars, terms)
    ).filter(lambda poly: poly.terms or not nonzero)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dense_running_matches_dicts(data):
    nvars = data.draw(st.sampled_from([2, 3]))
    P = data.draw(_small_poly(nvars, nonzero=True))
    Q = data.draw(_small_poly(nvars, nonzero=False))
    mod = data.draw(st.sampled_from([2, 4, 9, 8, 25, 27]))
    count = data.draw(st.integers(1, 14))
    # small boxes hand over to the dict route part way through
    cells = data.draw(st.sampled_from([1, 30, 400, 5000, 2**25]))
    Pm, Qm = P.with_modulus(mod), Q.with_modulus(mod)
    slow = _sequence_dicts(Pm, Qm, mod, count, term_guard=10**6)
    assert _sequence_dense_running(Pm, Qm, mod, count, 10**6, cells,
                                   *_bounds(Pm)) == slow
    assert sequence(P, Q, mod, count, dense_cells=cells) == slow


def test_dense_running_guard_counts_nonzeros():
    P, Q = preset("apery")
    Pm, Qm = P.with_modulus(4), Q.with_modulus(4)
    want = _sequence_dicts(Pm, Qm, 4, 8, term_guard=10**6)
    assert _sequence_dense_running(Pm, Qm, 4, 8, 10**6, 2**25, *_bounds(Pm)) == want
    # P^7 has at most 15^3 cells; a guard below its nonzeros refuses
    with pytest.raises(ResourceLimitError, match="exceeds 100 terms"):
        _sequence_dense_running(Pm, Qm, 4, 8, 100, 2**25, *_bounds(Pm))


def test_apery_oracle_refusal_is_prompt():
    # the pairing route does not fit 2**25 cells for 3000 terms, so this
    # takes the running product, which passes 10^6 nonzeros near n = 63
    P, Q = preset("apery")
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        sequence(P, Q, 4, 3000, term_guard=10**6, dense_cells=2**25)
    assert time.perf_counter() - start < 10
